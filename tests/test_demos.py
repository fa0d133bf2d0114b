"""Every demo script runs to completion from the repository root."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_demo_exits_0(script):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
