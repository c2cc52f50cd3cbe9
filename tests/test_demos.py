"""Smoke test: every demo script runs to completion against the package."""

import pathlib
import subprocess
import sys

import pytest

from conftest import subprocess_env

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True,
                            text=True, env=subprocess_env(), cwd=ROOT, timeout=120)
    assert result.returncode == 0, result.stderr
