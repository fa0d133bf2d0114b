"""Every demo script, and every Python block of the README, runs to
completion from the repository root."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                           re.M | re.S)


def _run(args):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_demos_found():
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_demo_exits_0(script):
    proc = _run([str(script)])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_readme_python_blocks_exit_0():
    # the quick start imports from paths that exist, and warns of nothing
    assert README_BLOCKS
    for block in README_BLOCKS:
        proc = _run(["-W", "error", "-c", block])
        assert proc.returncode == 0, block + proc.stdout + proc.stderr
