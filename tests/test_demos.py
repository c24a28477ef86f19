"""The demos, the README's library tour and the benchmark's hooks work
against the package in ``src/``.

``lower_bound_toolkit.py`` solves the v16 cheat SDPs and takes about 5 s;
the others take under a second.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "demo", ["broadcast_channel.py", "lower_bound_toolkit.py", "penalty_game.py", "tournament_bias.py"]
)
def test_demo_runs(demo):
    result = run_python(str(ROOT / "demos" / demo))
    assert result.returncode == 0, result.stderr


def test_readme_library_tour_runs():
    tour = (ROOT / "README.md").read_text().split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr


def test_benchmark_hooks_resolve():
    # the benchmark's tracer looks up every TRACED "module.attr" on the package;
    # one that no longer resolves breaks every traced benchmark run
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for name in tracing.TRACED:
        module_name, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"qcoinflip.{module_name}"), attr, None)), name
