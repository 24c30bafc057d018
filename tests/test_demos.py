"""Smoke test: every demo script runs to completion.

Each demo runs in its own interpreter with a scratch working directory,
importing nortagrid from the same place this test suite does.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nortagrid

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
PACKAGE_ROOT = Path(nortagrid.__file__).resolve().parent.parent


def test_every_demo_is_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
