"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py -q

Takes about half a minute.  It checks the output contract against
``BENCHMARK.json``, that span self times cover the traced wall time, and that
the generators stay inside their stated input ranges.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))  # the sdp-bounds plan writes protocol files

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Span self times plus the loop between jobs make up the traced wall time; the
# spans must account for at least this share of it.
SELF_SHARE_MIN = 0.95


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        share = result["metrics"]["trace.self_share"]["value"]
        assert SELF_SHARE_MIN <= share <= 1.0 + 1e-9
    else:
        assert all(result["metrics"][m]["value"] > 0 for m in declared)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sdp-bounds", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_times_subtract_direct_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["d", 5.0, 6.0, 0]]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]
    assert tracer.totals()["layer_self_s"]["a"] == 6.0


def test_same_seed_same_inputs_and_bounded_sizes(tmp_path):
    for seed in range(3):
        plans = [workloads.make_plan(w, seed, str(tmp_path)) for w in workloads.WORKLOADS]
        again = [workloads.make_plan(w, seed, str(tmp_path)) for w in workloads.WORKLOADS]
        assert [[j.argv for j in p.jobs] for p in plans] == [[j.argv for j in p.jobs] for p in again]
        for job in (job for plan in plans for job in plan.warmups + plan.jobs):
            verb, argv = job.argv[0], job.argv
            if verb == "penalty":
                assert workloads.PENALTY_V_RANGE[0] <= float(argv[2]) <= workloads.PENALTY_V_RANGE[1]
            elif verb == "tournament" and "--sweep" not in argv:
                k, g = int(argv[2]), int(argv[4])
                assert 2 <= g <= k <= workloads.TOURNAMENT_MAX_K
            elif verb == "broadcast":
                assert 2 <= int(argv[3]) <= workloads.BROADCAST_MAX_K
            else:
                assert verb in ("lowerbound", "tournament"), argv
