"""Smoke tests: every demo script, and the README Quickstart, run to completion
against the library in src/."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_runs(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, path],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs(capsys):
    # The python block under "Quickstart:" in README.md, run as written.
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        after = fh.read().split("\nQuickstart:\n", 1)[1]
    block = after.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md (Quickstart)", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3
