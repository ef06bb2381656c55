"""Every narrative demo still runs: 01 and 02 in about a second each, 03
(the autodiff engine and a full-pipeline gradcheck at narrow widths) in
about four, 04 (the README quickstart's train, evaluate and sample path)
in about seven."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("prefix", ["01_", "02_", "03_", "04_"])
def test_demo_runs(prefix):
    (script,) = sorted((ROOT / "demos").glob(f"{prefix}*.py"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
