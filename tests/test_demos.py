"""Every demo script runs to the end in a fresh interpreter, and the exact
ones print their committed output (``demos/expected``); the README's
library quick start runs and gives what its comments say."""

import ast
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


def test_readme_quick_start():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for stmt in ast.parse(block).body:  # keep the value of each bare expression
        code = ast.unparse(stmt)
        if isinstance(stmt, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    assert values["defect(vector, beta)"] == 1
    assert values["check_involution(beta, vector)"] is True
    assert namespace["out"].rank == 3
