"""The quick demos run to completion; ``04``, a 10-repeat ranking study, is left out for time."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
QUICK_DEMOS = sorted(path.name for path in ROOT.glob("demos/0[1-3]_*.py"))


def test_quick_demos_found():
    assert len(QUICK_DEMOS) == 3


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_zero(tmp_path, name):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
