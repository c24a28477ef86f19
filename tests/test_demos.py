"""Every demo runs to completion against the package in ``src/``.

``lower_bound_toolkit.py`` solves the v16 cheat SDPs and takes about 5 s;
the others take under a second.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["broadcast_channel.py", "lower_bound_toolkit.py", "penalty_game.py", "tournament_bias.py"]
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
