"""The demo scripts run to completion as written.

Each demo runs in its own interpreter, importing jetlag from this
checkout's src/.  06_cli_tour is left out: it takes about ten seconds and
drives the same verbs test_cli.py covers.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_expressions.py", "02_sphere_geometry.py",
         "03_torsion_curvature.py", "04_electromagnetism.py",
         "05_geodesics.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
