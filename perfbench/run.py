"""qcoinflip benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``; there is
nothing to build.  Set-up times the package import in fresh interpreters and
the generation of the seeded inputs (writing protocol files under
``.perfbench_work/``) and the warm-up (one job per path the workload takes)
several times each, and adds up the medians.  The timed phase then runs the
workload's job list, in order, through in-process calls to
``qcoinflip.cli.main(argv)``, pass after pass while another pass still fits in
``--seconds`` (at least one pass).  Every job's records are checked.  BLAS runs
with whatever thread setting the environment gives; ``BENCHMARK.json`` pins it
to one thread.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones.  With ``--trace 1`` the seconds are split between an
untraced phase and a traced one, and the metrics are the per-layer ones from
the traced phase; the spans go to ``.perfbench_out/``.  The line before it
records the environment, sample counts and set-up parts.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from tracing import LAYERS, TRACED, Tracer
from workloads import WORKLOADS, make_plan

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

_CALLS_AND_S = (
    "sdp.verify_dual",
    "protocols.load_protocol",
    "protocols.validate_protocol",
    "protocols.honest_state",
    "lowerbound.cheat_product_check",
    "lowerbound.optimal_cheat",
    "lowerbound.cheat_sdp",
    "multiparty.lightest_bin_select",
    "multiparty.simulate_tournament",
    "broadcast.emulate_broadcast_pairwise",
    "broadcast.classical_broadcast",
    "broadcast.establish_epr",
    "broadcast.teleport",
    "quantum.apply_unitary",
    "quantum.measure",
    "quantum.partial_trace",
    "quantum.helstrom",
)
PER_LAYER = {
    "sdp.solve.calls": "count",
    "sdp.solve.s": "s",
    "sdp.solve.iterations": "count",
    "sdp.solve.s_per_iter": "s",
    "sdp.solve.converged_ratio": "ratio",
    "sdp.solve.constraints_m": "count",
    "penalty.bob_attack.s": "s",
    "penalty.alice_attack_sdp.s": "s",
    "penalty.dual_certificate.s": "s",
    **{f"{name}.{kind}": unit for name in _CALLS_AND_S for kind, unit in (("calls", "count"), ("s", "s"))},
    "protocols.validate_protocol.alloc_peak_mb": "MB",
    "multiparty.lightest_bin_select.rounds": "count",
    "broadcast.channel_uses": "count",
    "broadcast.establish_epr.alloc_peak_mb": "MB",
    "cli.main.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer not in ("cli", "bench")},
    "bench.job.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_share": "ratio",
}


class Runner:
    """Runs jobs through ``cli.main`` and keeps the failure tally."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0

    def run(self, job, tracer=None) -> float:
        """Run one job; returns the seconds spent inside ``cli.main``."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with tracer.span("bench.job") if tracer else contextlib.nullcontext():
            # Garbage left by the previous job is collected here, untimed, as
            # a fresh CLI process would never see it.
            gc.collect()
            problem = None
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    with tracer.span("cli.main") if tracer else contextlib.nullcontext():
                        code = self.cli.main(list(job.argv))
            except SystemExit as exc:  # argparse rejects its argv this way
                code = exc.code
            except Exception:  # a crash in one job is reported, the run goes on
                code = None
                problem = traceback.format_exc(limit=3)
            elapsed = perf_counter() - start
            if problem is None and code != 0:
                problem = f"exit code {code}: {err.getvalue().strip()}"
            if problem is None:
                try:
                    problem = job.check([json.loads(line) for line in out.getvalue().splitlines()])
                except (ValueError, KeyError, TypeError) as exc:
                    problem = f"unreadable output: {exc!r}"
        if problem is not None:
            self.failed += 1
            print(f"FAILED {' '.join(job.argv)}: {problem}", file=sys.stderr)
        return elapsed


def measure(runner: Runner, jobs, seconds: float, tracer=None):
    """Whole passes over ``jobs`` while another pass fits in ``seconds``.

    There is always at least one pass.  Only whole passes are measured, so a
    job list whose jobs differ in cost is weighed the same way on every run.
    Returns (wall seconds per pass, seconds per job for each pass).
    """
    passes, job_times = [], []
    start = perf_counter()
    while not passes or perf_counter() - start + passes[-1] <= seconds:
        pass_start = perf_counter()
        job_times.append([runner.run(job, tracer) for job in jobs])
        passes.append(perf_counter() - pass_start)
    return passes, job_times


def job_latencies(job_times) -> list:
    """Each job's median over the passes: a burst that slows one pass of one
    job does not move the latency distribution across the job mix, nor the
    pass time built from it."""
    return [statistics.median(times) for times in zip(*job_times)]


def import_seconds(src: Path) -> float:
    """Median wall time of importing ``qcoinflip.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import qcoinflip.cli"], cwd=ROOT, env=env, check=True, timeout=120
        )
        times.append(perf_counter() - start)
    return statistics.median(times)


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_metrics(tracer: Tracer, traced_passes, untraced_passes) -> dict:
    n = len(traced_passes)
    totals = tracer.totals()
    calls, inclusive = totals["calls"], totals["s"]
    counts = tracer.counts
    values = {}
    for name in TRACED:
        values[f"{name}.calls"] = calls[name] / n
        values[f"{name}.s"] = inclusive[name] / n
    values["sdp.solve.iterations"] = counts["sdp.solve.iterations"] / n
    values["sdp.solve.constraints_m"] = counts["sdp.solve.constraints_m"] / n
    iterations = counts["sdp.solve.iterations"]
    values["sdp.solve.s_per_iter"] = inclusive["sdp.solve"] / iterations if iterations else 0.0
    solves = calls["sdp.solve"]
    values["sdp.solve.converged_ratio"] = counts["sdp.solve.converged"] / solves if solves else 0.0
    for name in ("protocols.validate_protocol", "broadcast.establish_epr"):
        values[f"{name}.alloc_peak_mb"] = tracer.alloc_peak[name] / 1e6
    values["multiparty.lightest_bin_select.rounds"] = counts["multiparty.lightest_bin_select.rounds"] / n
    values["broadcast.channel_uses"] = counts["broadcast.channel_uses"] / n
    values["cli.main.self_s"] = totals["self_s"]["cli.main"] / n
    for layer in LAYERS:
        values[f"{layer}.self_s"] = totals["layer_self_s"][layer] / n
    values["bench.job.self_s"] = totals["self_s"]["bench.job"] / n
    values["trace.wall_s"] = statistics.median(traced_passes)
    values["trace.untraced_wall_s"] = statistics.median(untraced_passes)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["trace.self_share"] = sum(totals["layer_self_s"].values()) / sum(traced_passes)
    return values


def blas_threads() -> dict:
    """Thread count each bundled OpenBLAS reports, keyed by library file."""
    found = {}
    for package in ("numpy", "scipy"):
        module = sys.modules.get(package)
        if module is None:
            continue
        for lib in sorted((Path(module.__file__).parent.parent / f"{package}.libs").glob("*openblas*.so*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for symbol in BLAS_THREAD_GETTERS:
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    found[lib.name] = int(getter())
                    break
    return found


def environment() -> dict:
    import numpy
    import scipy

    def blas_build(module):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (AttributeError, KeyError, TypeError):
            return None
        return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_build(numpy),
        "scipy_blas": blas_build(scipy),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
        "cpus_available": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "qcoinflip" / "__init__.py").is_file():
        print(f"error: no qcoinflip sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from qcoinflip import cli

    import_s = import_seconds(src)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work")
    try:
        input_times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            plan = make_plan(args.workload, args.seed, workdir, args.tiny)
            input_times.append(perf_counter() - start)
        runner = Runner(cli)
        warmup_times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            for job in plan.warmups:
                runner.run(job)
            warmup_times.append(perf_counter() - start)
        setup = {
            "import_s": import_s,
            "inputs_s": statistics.median(input_times),
            "warmup_s": statistics.median(warmup_times),
        }
        setup_s = sum(setup.values())
        # What is alive now lives for the whole run: keep it out of the
        # collections between jobs.
        gc.collect()
        gc.freeze()

        if args.trace:
            passes, job_times = measure(runner, plan.jobs, args.seconds / 2)
            tracer = Tracer()
            with tracer.installed():
                traced_passes, _ = measure(runner, plan.jobs, args.seconds / 2, tracer)
            metrics = per_layer_metrics(tracer, traced_passes, passes)
            units = PER_LAYER
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(str(out_dir / f"spans-{args.workload}-seed{args.seed}.json"))
        else:
            passes, job_times = measure(runner, plan.jobs, args.seconds)
            latencies = job_latencies(job_times)
            metrics = {
                "wall_s": sum(latencies),
                "job_p50_s": statistics.median(latencies),
                "job_p90_s": percentile(latencies, 90),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "setup_s": setup_s,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "setup": setup,
        "samples": {"passes": len(passes), "jobs_per_pass": len(plan.jobs), "pass_s": passes},
        "fail_ratio": runner.failed / runner.attempted,
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
