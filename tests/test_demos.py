"""The narrative scripts in demos/ must keep running clean."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    # the demos import relaycircuits from src/, as the tests do
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # -W error: a demo that warns fails, as pytest's own filterwarnings makes tests fail
    result = subprocess.run([sys.executable, "-W", "error", str(script)],
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
