"""Golden output digests: the bytes the CLI writes, pinned by sha256.

A change that only makes the engine faster must leave every output bit
as it was.  These digests were recorded with the numpy version below;
another numpy may round an einsum or an inverse differently, so on any
other version the test skips instead of failing.
"""

import hashlib

import numpy as np
import pytest

from jetlag.cli import main

NUMPY_VERSION = "2.4.6"

GOLDEN = {
    "check_electrodynamics_l2": (
        ["check", "--config", "electrodynamics_l2"],
        "6c890347dd056c4e58e81294791c6c960e9341bd98e57ac10faa3f8a57a81944"),
    "check_nonautonomous_l3": (
        ["check", "--config", "nonautonomous_l3"],
        "aa593fb5473ca2e58fe77747f83c6a88f8532a197314e72819665a556996f528"),
    "report_electrodynamics_l2": (
        ["report", "--config", "electrodynamics_l2", "--points", "3"],
        "64991aa58d78d594437f495311b03b32ca57d5bbeee934efb901cb7e0a940964"),
    "report_nonautonomous_l3": (
        ["report", "--config", "nonautonomous_l3", "--points", "3"],
        "9e362fbc10cf09ccde1ccf02e11bcf06e03fff0efdc48ae90e7bf53590049adf"),
    "curve_sphere_l1": (
        ["curve", "--config", "sphere_l1", "--x0", "1.5707963", "0.0",
         "--y0", "0.0", "1.0", "--t1", "1.0", "--step", "0.001"],
        "bd540841701e2806a1a62b6e72c8b7c3305b631c0827125372eb2c35ae83adae"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_output_bytes_match_the_golden_digest(name, tmp_path, capsys):
    if np.__version__ != NUMPY_VERSION:
        pytest.skip(f"digests recorded with numpy {NUMPY_VERSION}, "
                    f"running {np.__version__}")
    argv, digest = GOLDEN[name]
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
