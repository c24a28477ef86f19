"""Seeded job lists for the two benchmark workloads, with output checks.

A job is one ``qcoinflip`` command line plus a check of the records it
prints.  Every random choice comes from the workload seed, so one seed always
gives the same command lines and the same protocol files.  Where a job's cost
depends on a drawn size, the draws are stratified (one draw per stratum,
strata covering the whole range) or the sizes form a fixed grid in seeded
order, so that the work per pass hardly changes from seed to seed.

Each workload mixes two of the paths the paper's claims run through, so that
every layer is measured while a run stays long enough to be steady:

- ``sdp-bounds``: one ``lowerbound FILE`` job on a 3888-dim penalty protocol
  (the large-block cheat SDPs) among small ``penalty --v V`` SDPs.
- ``simulation``: committee Monte Carlo (``tournament``) among broadcast
  emulations; no SDP runs here.

Checks use the acceptance-test tolerances.  SDP records are never compared
byte for byte: the BLAS thread count moves SDP values at the 1e-8 level.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

# `broadcast epr --k 12` takes 39 s and `--k 14` runs out of memory: the epr and
# teleport paths build dense 2^k x 2^k density matrices.  Party counts stay at or
# below this cap until that path stops scaling with 4^k.
BROADCAST_MAX_K = 10
PENALTY_V_RANGE = (4.0, 1e4)
PENALTY_JOBS = 40
# The Alice-cheat solve on penalty_protocol(v) takes 15 to 20 iterations (6 to
# 9 s) depending on v in [9, 100], so a seeded v would move the pass by up to
# a fifth from seed to seed.  The large-block job uses one fixed v instead.
PRODUCT_V = 25.0
BROADCAST_REPEATS = 2
TOURNAMENT_MAX_K = 4096
TOURNAMENT_RUNS = 10_000
SWEEP_RUNS = 1_000_000


@dataclass(frozen=True)
class Job:
    argv: tuple
    check: Callable[[list], str | None]  # parsed records -> None, or what is wrong


@dataclass(frozen=True)
class Plan:
    warmups: tuple  # run before timing, one job per path the timed jobs take
    jobs: tuple


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """n draws on [lo, hi), one uniform draw inside each of n equal strata."""
    return [lo + (i + rng.random()) * (hi - lo) / n for i in range(n)]


def _single(records: list) -> dict:
    if len(records) != 1:
        raise ValueError(f"expected one record, got {len(records)}")
    return records[0]


# ---------------------------------------------------------------------------
# `lowerbound FILE` on a penalty protocol


def _check_lowerbound(v: float):
    def check(records):
        rec = _single(records)
        expected = 0.5 + 1.0 / math.sqrt(v)
        if abs(rec["p_bob_forces_1"] - expected) > 1e-4:
            return f"p_bob_forces_1 {rec['p_bob_forces_1']} != 1/2 + 1/sqrt({v}) = {expected}"
        if rec["product_check_passed"] is not True:
            return "product_check_passed is not true"
        if rec["balanced_max_ok"] is not True:
            return "balanced_max_ok is not true"
        return None

    return check


def _lowerbound_jobs(workdir: str, tiny: bool) -> tuple:
    """(warm-up, timed) ``lowerbound`` jobs.

    The warm-up runs the same path (load, validate, both cheat SDPs) on the
    small v = 4 encoding, so set-up stays cheap next to the timed job.
    """
    from qcoinflip.protocols import penalty_protocol, penalty_protocol_compact4, save_protocol

    compact = os.path.join(workdir, "penalty-v4-compact.json")
    save_protocol(penalty_protocol_compact4(), compact)
    warmup = Job(("lowerbound", compact), _check_lowerbound(4.0))
    if tiny:
        return warmup, warmup
    path = os.path.join(workdir, "penalty-protocol.json")
    save_protocol(penalty_protocol(PRODUCT_V), path)
    return warmup, Job(("lowerbound", path), _check_lowerbound(PRODUCT_V))


# ---------------------------------------------------------------------------
# `penalty --v V` over log-uniform V


def _check_penalty(v: float):
    def check(records):
        rec = _single(records)
        expected = 0.5 + 1.0 / math.sqrt(v)
        if abs(rec["bob_bound"] - expected) > 1e-10:
            return f"bob_bound {rec['bob_bound']} != 1/2 + 1/sqrt({v}) = {expected}"
        if rec["certificate_feasible"] is not True:
            return "certificate_feasible is not true"
        if not rec["alice_primal"] <= rec["alice_dual_bound"] + 1e-6:
            return f"alice_primal {rec['alice_primal']} > alice_dual_bound {rec['alice_dual_bound']} + 1e-6"
        return None

    return check


def _penalty_job(v: float) -> Job:
    return Job(("penalty", "--v", repr(v)), _check_penalty(v))


def _penalty_jobs(rng: random.Random, n: int) -> tuple:
    """(warm-up, n timed) penalty jobs, V log-uniform, the timed ones stratified."""
    lo, hi = (math.log(x) for x in PENALTY_V_RANGE)
    jobs = [_penalty_job(math.exp(x)) for x in _stratified(rng, n, lo, hi)]
    return _penalty_job(math.exp(rng.uniform(lo, hi))), jobs


def sdp_bounds(rng: random.Random, workdir: str, tiny: bool) -> Plan:
    """The large-block cheat SDPs of ``lowerbound`` among small penalty SDPs.

    The ``lowerbound`` job sets most of the pass time (``wall_s``); the
    penalty jobs set the per-job percentiles, so a large-block gain that
    costs small problems shows in ``job_p50_s``.
    """
    warmup, lowerbound = _lowerbound_jobs(workdir, tiny)
    penalty_warmup, penalties = _penalty_jobs(rng, 4 if tiny else PENALTY_JOBS)
    jobs = [lowerbound, *penalties]
    rng.shuffle(jobs)
    return Plan((warmup, penalty_warmup), tuple(jobs))


# ---------------------------------------------------------------------------
# `tournament --g G > 1` committee selection, plus one g = 1 sweep


def _check_committee(seeds: int):
    floor = 0.5 - 4.0 * math.sqrt(0.25 / seeds)

    def check(records):
        rec = _single(records)
        for name in ("honest_presence_pile", "honest_presence_split"):
            if not rec[name] >= floor:
                return f"{name} {rec[name]} < 1/2 - 4 sigma = {floor}"
        return None

    return check


def _check_sweep(count: int):
    # The timid preset attains the analytic bound, so at k >= 1024 a million
    # runs expect about one un-fixed run, and often see none.  The record's
    # stderr, sqrt(p(1-p)/runs), is then 0; the standard error at the bound
    # itself is the floor, which keeps the 4-sigma test meaningful there.
    def check(records):
        if len(records) != count:
            return f"expected {count} sweep rows, got {len(records)}"
        for rec in records:
            not_fixed = rec["analytic_not_fixed"]
            sigma = max(rec["stderr"], math.sqrt(not_fixed * (1.0 - not_fixed) / rec["runs"]))
            ceiling = 1.0 - not_fixed + 4.0 * sigma
            if not rec["mc_estimate"] <= ceiling:
                return f"k={rec['k']}: mc_estimate {rec['mc_estimate']} > 1 - not_fixed + 4 sigma = {ceiling}"
        return None

    return check


def _tournament_job(k: int, g: int, runs: int, seed: int) -> Job:
    argv = ("tournament", "--k", str(k), "--g", str(g), "--runs", str(runs), "--seed", str(seed))
    return Job(argv, _check_committee(min(runs, 10_000)))


def _committee_jobs(rng: random.Random, tiny: bool) -> list:
    # A fixed (K, G) grid with seeded Monte Carlo streams.  A job's cost
    # follows K and the number of selection rounds, log2(G/4), so independent
    # draws would swing the pass by tens of percent.  K and G are powers of
    # two: at other ratios the split strategy keeps an honest member in fewer
    # than half of the runs (k=1024, g=70: 0.36; k=4096, g=81: 0.47), an open
    # defect of the committee bound, not a cost this benchmark measures.
    if tiny:
        grid, runs = ((64, 8), (256, 16)), 200
    else:
        grid, runs = ((256, 32), (1024, 64), (TOURNAMENT_MAX_K, 128)), TOURNAMENT_RUNS
    jobs = [_tournament_job(k, g, runs, rng.randrange(2**31)) for k, g in grid]
    sweep_end, sweep_runs = (64, 10_000) if tiny else (TOURNAMENT_MAX_K, SWEEP_RUNS)
    sweep_rows = int(math.log2(sweep_end)) - 2  # k = 8, 16, ..., sweep_end
    sweep = (
        "tournament", "--g", "1", "--sweep", f"k=8..{sweep_end}x2",
        "--runs", str(sweep_runs), "--seed", str(rng.randrange(2**31)),
    )
    jobs.append(Job(sweep, _check_sweep(sweep_rows)))
    return jobs


# ---------------------------------------------------------------------------
# `broadcast {emulate,classical,epr,teleport} --k K`

BROADCAST_USES = {
    "emulate": lambda k: 2 * (k - 1),
    "classical": lambda k: 1,
    "epr": lambda k: k - 1,
    "teleport": lambda k: k + 1,
}


def _check_broadcast(subverb: str, k: int, bit: int):
    def check(records):
        rec = _single(records)
        uses = BROADCAST_USES[subverb](k)
        if rec["uses"] != uses:
            return f"{subverb} k={k}: {rec['uses']} uses, expected {uses}"
        if subverb == "classical":
            if rec["outcomes"] != [bit] * k:
                return f"classical k={k}: outcomes {rec['outcomes']} != [{bit}] * {k}"
        elif not rec["fidelity"] > 1.0 - 1e-12:
            return f"{subverb} k={k}: fidelity {rec['fidelity']} <= 1 - 1e-12"
        return None

    return check


def _broadcast_job(subverb: str, k: int, rng: random.Random) -> Job:
    if not 2 <= k <= BROADCAST_MAX_K:
        raise ValueError(f"party count {k} outside 2..{BROADCAST_MAX_K}")
    argv = ["broadcast", subverb, "--k", str(k), "--seed", str(rng.randrange(2**31))]
    bit = 0
    if subverb == "classical":
        bit = rng.randrange(2)
        argv += ["--bit", str(bit)]
    return Job(tuple(argv), _check_broadcast(subverb, k, bit))


def _broadcast_jobs(rng: random.Random, tiny: bool) -> list:
    # Every (subverb, k) pair appears equally often, with seeded measurement
    # streams: the few k = 9, 10 dense jobs dominate the broadcast time, so
    # drawing k independently would swing it by tens of percent.
    max_k, repeats = (4, 1) if tiny else (BROADCAST_MAX_K, BROADCAST_REPEATS)
    pairs = [(sub, k) for sub in sorted(BROADCAST_USES) for k in range(2, max_k + 1)] * repeats
    return [_broadcast_job(sub, k, rng) for sub, k in pairs]


def simulation(rng: random.Random, workdir: str, tiny: bool) -> Plan:
    """Committee Monte Carlo among broadcast emulations, in seeded order.

    Only ``multiparty``, ``broadcast`` and ``quantum`` run here, so this is
    the bypass case for every ``sdp`` change.  The tournament jobs set most of
    the pass time; the broadcast jobs, 18 to 1 in number, set the per-job
    percentiles.
    """
    jobs = _committee_jobs(rng, tiny) + _broadcast_jobs(rng, tiny)
    rng.shuffle(jobs)
    warmups = (_tournament_job(64, 8, 100, rng.randrange(2**31)), _broadcast_job("teleport", 3, rng))
    return Plan(warmups, tuple(jobs))


WORKLOADS = {
    "sdp-bounds": sdp_bounds,
    "simulation": simulation,
}


def make_plan(workload: str, seed: int, workdir: str, tiny: bool = False) -> Plan:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workdir, tiny)
