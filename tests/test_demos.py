"""The demos, the README's library tour and command lines, and the
benchmark's hooks work against the package in ``src/``.

``lower_bound_toolkit.py`` solves each of its cheat SDPs once, the v16 ones
included, and takes about a second; the others take less.
"""

import csv
import importlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qcoinflip import cli
from qcoinflip.protocols import alice_announces, save_protocol

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


def test_numpy_is_the_only_dependency():
    # a None entry in sys.modules makes any import of scipy raise ImportError
    code = """
import sys
sys.modules["scipy"] = None
import qcoinflip, qcoinflip.cli
from qcoinflip.penalty import PenaltyGame, alice_attack_sdp
from qcoinflip.sdp import solve
assert solve(alice_attack_sdp(PenaltyGame(16))).status == "converged"
assert not [name for name in sys.modules if name.startswith("scipy.")]
"""
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr


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


def readme_command_lines():
    block = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    code = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in code.splitlines() if line.strip()]


@pytest.mark.parametrize("line", readme_command_lines())
def test_readme_command_line_runs(line, tmp_path, monkeypatch, capsys):
    # the block's `lowerbound protocol.json` reads a saved protocol from the current directory
    monkeypatch.chdir(tmp_path)
    save_protocol(alice_announces(), "protocol.json")
    program, *argv = shlex.split(line)
    assert program == "qcoinflip"
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        records = list(csv.DictReader(io.StringIO(text)))
    else:
        records = [json.loads(row) for row in text.splitlines()]
    assert records
    assert all(record["command"].split()[0] == argv[0] for record in records)


def test_benchmark_hooks_resolve():
    # the benchmark's tracer looks up every TRACED "module.attr" on the package;
    # one that no longer resolves breaks every traced benchmark run, and one that
    # resolves to a function defined elsewhere bills its time to the wrong layer
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for name in tracing.TRACED:
        module_name, attr = name.split(".")
        fn = getattr(importlib.import_module(f"qcoinflip.{module_name}"), attr, None)
        assert callable(fn), name
        assert fn.__module__ == f"qcoinflip.{module_name}", name
    # a counter or allocation probe on a name the tracer never wraps would read 0
    assert set(tracing.COUNTERS) <= set(tracing.TRACED)
    assert set(tracing.ALLOC_TRACED) <= set(tracing.TRACED)
