"""Golden output digests: the bytes the CLI writes, pinned by sha256.

A change that only makes the engine faster must leave every output bit
as it was.  These digests were recorded with the numpy version below;
another numpy may round an einsum or an inverse differently, so on any
other version the test skips instead of failing.

`PYTHONPATH=src python tests/test_golden.py` prints every case's current
digest beside its pinned one, for re-pinning a recorded output change.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

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
        "17a1166d3806d61231bffeb141d824572cf4eb0d9ef8ffa86bc426cec2f80b4f"),
    "check_nonautonomous_l3": (
        ["check", "--config", "nonautonomous_l3"],
        "bf470c7ddfe865571506499a30dcb4aa2043f4a546124bc121c13a32bd4a6fe0"),
    "check_sphere_l1": (
        ["check", "--config", "sphere_l1", "--points", "10"],
        "a4d02c41ed266c06f0259063f49e661370071d67cb01b3889053629d3a568a4b"),
    "check_flat": (
        ["check", "--config", "flat", "--points", "10"],
        "52e4f5b954947bd7ab80fa543fc656179bd832f455a0cb8c2e32f2530d6d2401"),
    "check_exp_time": (
        ["check", "--config", "exp_time", "--points", "10"],
        "cb93cd2834b3f1a83c5f9b10da7adf74bea037aab36a432720a75b86d29f8c39"),
    "check_generic_n1": (
        ["check", "--config", "generic_n1", "--points", "10"],
        "55b79ae74c0efa807bd78f0367a2e6342b8f384d51328cc4bd6e090932be2aa0"),
    "check_generic_n3": (
        ["check", "--config", "generic_n3", "--points", "10"],
        "d0339300ef15f809a7c6018ef700e008b558579ec6b6d39972398a426bafde06"),
    "report_electrodynamics_l2": (
        ["report", "--config", "electrodynamics_l2", "--points", "3"],
        "07688105c963f7f0275f6d7aecc2e1446bca0cab20d87bdbbbf7b654d54956ba"),
    "report_nonautonomous_l3": (
        ["report", "--config", "nonautonomous_l3", "--points", "3"],
        "56e69da80eb8d90d738f8b2f18a0fd34351c72f71700eddcd8bf137ae79b6ff0"),
    "curve_sphere_l1": (
        ["curve", "--config", "sphere_l1", "--x0", "1.5707963", "0.0",
         "--y0", "0.0", "1.0", "--t1", "1.0", "--step", "0.001"],
        "bd540841701e2806a1a62b6e72c8b7c3305b631c0827125372eb2c35ae83adae"),
}


def output_digest(name, tmp_path):
    """sha256 of the bytes a case's argv writes to --out, with the generic
    configs it names written to tmp_path."""
    argv, _ = GOLDEN[name]
    for arg in CONFIGS.keys() & set(argv):
        (tmp_path / arg).write_text(CONFIGS[arg])
    argv = [str(tmp_path / arg) if arg in CONFIGS else arg for arg in argv]
    out = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", GOLDEN)
def test_output_bytes_match_the_golden_digest(name, tmp_path):
    if np.__version__ != NUMPY_VERSION:
        pytest.skip(f"digests recorded with numpy {NUMPY_VERSION}, "
                    f"running {np.__version__}")
    assert output_digest(name, tmp_path) == GOLDEN[name][1]


if __name__ == "__main__":
    # print every case's current digest, and the pinned one where they
    # differ, so a recorded output change is re-pinned from one run
    if np.__version__ != NUMPY_VERSION:
        print(f"numpy {np.__version__}; the digests are pinned with "
              f"{NUMPY_VERSION}", file=sys.stderr)
    for name, (_, pinned) in GOLDEN.items():
        with tempfile.TemporaryDirectory() as tmp:
            digest = output_digest(name, Path(tmp))
        print(name, digest, *([] if digest == pinned
                              else [f"(pinned {pinned})"]))
