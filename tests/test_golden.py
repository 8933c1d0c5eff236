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

# generic configs at n = 1 and n = 3, written to tmp_path by the test: an
# argv entry that names one of them is replaced by the file's path
CONFIGS = {
    "generic_n1": """\
[problem]
name = generic_n1
n = 1
h11 = "1 + 0.5*t^2"
lagrangian = "(1 + 0.3*x1^2)*y1^2 + 0.1*y1^4 + t*x1*y1"

[ranges]
t = 0.1 0.9
x1 = -1.0 1.0
y1 = 0.5 1.5
""",
    "generic_n3": """\
[problem]
name = generic_n3
n = 3
h11 = "1"
lagrangian = "(1 + 0.2*x3^2)*y1^2 + (2 + sin(x1))*y2^2 + y3^2 + 0.1*x1*y1*y2 + 0.05*(y1^2 + y2^2 + y3^2)^2 + x2*y3"

[ranges]
t = 0.1 0.9
x1 = -1.0 1.0
x2 = -1.0 1.0
x3 = -1.0 1.0
y1 = -1.0 1.0
y2 = -1.0 1.0
y3 = -1.0 1.0
""",
}

GOLDEN = {
    "check_electrodynamics_l2": (
        ["check", "--config", "electrodynamics_l2"],
        "6c890347dd056c4e58e81294791c6c960e9341bd98e57ac10faa3f8a57a81944"),
    "check_nonautonomous_l3": (
        ["check", "--config", "nonautonomous_l3"],
        "aa593fb5473ca2e58fe77747f83c6a88f8532a197314e72819665a556996f528"),
    "check_sphere_l1": (
        ["check", "--config", "sphere_l1", "--points", "10"],
        "ca82017587cd5b4abe293deff227a428068300aa61a7427b0b90730ca1cab7be"),
    "check_flat": (
        ["check", "--config", "flat", "--points", "10"],
        "6e9e83d0f65dbeb99526db71a10e66539a58d39b69ce447f61e89ad9409fe071"),
    "check_exp_time": (
        ["check", "--config", "exp_time", "--points", "10"],
        "cb93cd2834b3f1a83c5f9b10da7adf74bea037aab36a432720a75b86d29f8c39"),
    "check_generic_n1": (
        ["check", "--config", "generic_n1", "--points", "10"],
        "69a460b078551bd1ec0b5ac4f8d792a3461d499be6e856fc1f94e4fe7d7ebdc2"),
    "check_generic_n3": (
        ["check", "--config", "generic_n3", "--points", "10"],
        "c2962a784586bcd5e4a51fe2c22c912b8bb9fc793874267013c3ba9191d08e5f"),
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
    for arg in CONFIGS.keys() & set(argv):
        (tmp_path / arg).write_text(CONFIGS[arg])
    argv = [str(tmp_path / arg) if arg in CONFIGS else arg for arg in argv]
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
