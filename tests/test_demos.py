"""Every demo script runs to the end in a fresh interpreter, and the exact
ones print their committed output (``demos/expected``)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    expected = ROOT / "demos" / "expected" / f"{script.stem}.txt"
    if expected.exists():  # the exact demos; demo 04's numbers depend on the BLAS build
        assert proc.stdout == expected.read_text(encoding="utf-8")
