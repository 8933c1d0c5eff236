"""The README's examples run as written.

The config example, the Python example and the equator curve are pulled
out of README.md itself, so the documentation cannot drift from the code.
"""

import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from jetlag import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_blocks(lang: str) -> list:
    """Bodies of the README's fenced blocks tagged with lang ("" = untagged)."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
    return [body for tag, body in blocks if tag == lang]


def test_config_example_checks_clean(tmp_path, capsys):
    (block,) = code_blocks("ini")
    cfg = tmp_path / "example.cfg"
    cfg.write_text(block)
    assert cli.main(["check", "--config", str(cfg), "--points", "5"]) == 0
    assert "suites passed" in capsys.readouterr().out


def test_python_example_runs(capsys):
    (block,) = code_blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_equator_curve_example(tmp_path, monkeypatch, capsys):
    (command,) = [b for b in code_blocks("") if b.startswith("jetlag curve ")]
    argv = shlex.split(command.replace("\\\n", " "))[1:]
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    value = float(re.search(r"^action (\S+)$", out, re.M).group(1))
    assert value == pytest.approx(1.0, abs=1e-10)
    out_file = argv[argv.index("--out") + 1]
    last = np.loadtxt(tmp_path / out_file, delimiter=",", skiprows=1)[-1]
    assert last[1:3] == pytest.approx([math.pi / 2, 1.0], abs=1e-6)
