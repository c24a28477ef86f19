"""Acceptance criteria, one test per criterion.

Each test prints a single ``criterion N: PASS`` line with its runtime once
every stated tolerance holds (assertions fire otherwise).  Run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from qcoinflip.broadcast import (
    EPR,
    broadcast_qubit,
    classical_broadcast,
    emulate_broadcast_pairwise,
    establish_epr,
    simulate_quantum_channel_via_qbc,
    teleport,
)
from qcoinflip.lowerbound import (
    cheat_product_check,
    kparty_product_check,
    multiparty_bias_bound,
    optimal_cheat,
)
from qcoinflip.multiparty import (
    ADVERSARY_PRESETS,
    BIN_STRATEGIES,
    TournamentConfig,
    combined_bias,
    committee_threshold,
    lightest_bin_select,
    simulate_tournament,
    survival_product_constant,
    tournament_bound,
    tournament_constant,
)
from qcoinflip.penalty import (
    PenaltyGame,
    alice_attack_sdp,
    bob_attack,
    certificate_scalars,
    dual_certificate,
    lambda_ceiling,
)
from qcoinflip.protocols import (
    alice_announces,
    announce_kparty,
    penalty_protocol,
    penalty_protocol_compact4,
    validate_protocol,
)
from qcoinflip.quantum import StateVector, as_rng, qubits
from qcoinflip.sdp import solve, verify_dual


class _Clock:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False

    def check(self, label):
        assert self.elapsed < self.limit, f"{label} took {self.elapsed:.1f}s (limit {self.limit}s)"
        return self.elapsed


def _report(n, clock, detail=""):
    elapsed = clock.check(f"criterion {n}")
    print(f"criterion {n}: PASS ({elapsed:.2f}s) {detail}")


def test_criterion_1_helstrom_attack_values():
    with _Clock(1.0) as clock:
        for v in (4.0, 9.0, 16.0, 25.0, 100.0):
            win = bob_attack(PenaltyGame(v)).expected_win
            assert abs(win - (0.5 + 1.0 / math.sqrt(v))) < 1e-10, f"v={v}"
    _report(1, clock, "exact responder win = 1/2 + 1/sqrt(v) on all five penalties")


def test_criterion_2_dual_certificate_grid():
    with _Clock(5.0) as clock:
        worst = 0.0
        for v in np.geomspace(4.0, 1e4, 50):
            game = PenaltyGame(float(v))
            report = verify_dual(alice_attack_sdp(game), dual_certificate(game), tol=1e-9)
            assert report.feasible, f"v={v}: lambda_min={report.lambda_min}"
            worst = min(worst, min(report.lambda_min.values()))
            scal = certificate_scalars(float(v))
            assert scal.lam <= lambda_ceiling(float(v)) + 1e-9, f"v={v}"
    _report(2, clock, f"50 grid points feasible (worst lambda_min {worst:.1e}), ceiling holds")


def test_criterion_3_alice_sdp_sandwich():
    with _Clock(30.0) as clock:
        gaps = {}
        for v in (4.0, 9.0, 16.0):
            game = PenaltyGame(v)
            problem = alice_attack_sdp(game)
            sol = solve(problem)
            assert sol.status == "converged", f"v={v}"
            upper = certificate_scalars(v).payoff_bound
            assert 0.5 - 1e-6 <= sol.primal_value <= upper + 1e-6, f"v={v}: {sol.primal_value}"
            gaps[v] = verify_dual(problem, dual_certificate(game)).bound - sol.primal_value
    detail = ", ".join(f"gap(v={v:g})={g:.2e}" for v, g in gaps.items())
    _report(3, clock, detail)


def test_criterion_4_broadcast_emulations():
    rng = as_rng(404)
    with _Clock(10.0) as clock:
        for trial in range(100):  # pairwise fan-out
            k = 2 + trial % 5
            a = rng.normal() + 1j * rng.normal()
            b = rng.normal() + 1j * rng.normal()
            n = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            shared, transcript = emulate_broadcast_pairwise(a / n, b / n, k, rng)
            assert shared.state.fidelity(broadcast_qubit(a / n, b / n, k).state) > 1 - 1e-12
            assert transcript[-1]["use_count"] == 2 * (k - 1)
        _, transcript = classical_broadcast(1, 4, rng)
        assert transcript[0]["use_count"] == 1
        for seed in range(100):  # shared-pair extraction
            k = 2 + seed % 7
            pair, _, _, uses = establish_epr(0, k - 1, k, as_rng(seed))
            assert pair.fidelity(EPR) > 1 - 1e-12
            assert uses == k - 1
        for trial in range(100):  # teleportation
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            payload = StateVector(qubits(1), amps / np.linalg.norm(amps))
            received, _, _ = teleport(payload, EPR, rng)
            assert received.fidelity(payload) > 1 - 1e-12
        _, uses, _ = simulate_quantum_channel_via_qbc(0, 3, payload, 4, rng)
        assert uses == 5
    _report(4, clock, "fan-out, pair extraction, teleport all at fidelity 1; uses 2(k-1)/1/k+1")


def test_criterion_5_tournament_bound():
    with _Clock(1.0) as clock:
        not_fixed, _ = tournament_bound(8)
        assert not_fixed == 1.0 / 64.0
        const = survival_product_constant()
        assert const > 0
        # converged to 1e-10: a 400-term product agrees
        assert abs(const - math.prod(1 - 2 / math.sqrt(2.0**j - 1) for j in range(3, 400))) < 1e-10
        c = tournament_constant()
        assert c > 0
        for n in range(3, 21):
            k = 2**n
            assert k * tournament_bound(k)[0] >= c - 1e-15, f"k={k}"
    _report(5, clock, f"1 - P_3 = 1/64 exactly; c = {c:.6f} > 0 up to k = 2^20")


def test_criterion_6_tournament_monte_carlo():
    runs = 100_000
    with _Clock(60.0) as clock:
        for k in (8, 16, 32, 64):
            config = TournamentConfig.for_players(k)
            bound = 1.0 - tournament_bound(k)[0]
            for name, preset in ADVERSARY_PRESETS.items():
                report = simulate_tournament(config, 0, preset, as_rng(606), runs)
                assert report.mc_estimate <= bound + 4 * report.stderr, (k, name)
    _report(6, clock, f"{len(ADVERSARY_PRESETS)} presets x k in 8..64, 1e5 runs each, under bound + 4 sigma")


def test_criterion_7_lightest_bin():
    runs = 10_000
    k, g = 256, 64
    threshold = committee_threshold(k, g)
    with _Clock(30.0) as clock:
        rates = {}
        for name, strategy in BIN_STRATEGIES.items():
            rate = lightest_bin_select(k, g, 2, threshold, as_rng(0), strategy, runs=runs).honest_presence
            sigma = math.sqrt(0.25 / runs)
            assert rate >= 0.5 - 4 * sigma, (name, rate)
            rates[name] = rate
    detail = ", ".join(f"{n}: {r:.3f}" for n, r in rates.items())
    _report(7, clock, f"honest member present at threshold {threshold}: {detail}")


def test_criterion_8_product_lower_bound_suite():
    with _Clock(120.0) as clock:
        suite = [alice_announces(), penalty_protocol_compact4(), penalty_protocol(16.0)]
        results = {}
        for protocol in suite:
            assert validate_protocol(protocol).valid, protocol.name
            check = cheat_product_check(protocol)
            assert check.passed, protocol.name
            assert check.balanced_max_ok, protocol.name
            results[protocol.name] = check
        # cross-module consistency: round-based responder attack equals the
        # measurement attack computed from the commitment states
        helstrom_value = bob_attack(PenaltyGame(16.0)).expected_win
        round_based_value = results["penalty-v16"].p_bob_forces
        assert abs(round_based_value - helstrom_value) < 1e-4
    detail = "; ".join(
        f"{name}: {c.p_alice_forces:.4f}*{c.p_bob_forces:.4f}>={c.p_honest:.3f}"
        for name, c in results.items()
    )
    _report(8, clock, detail)


def test_criterion_9_kparty_bound():
    with _Clock(120.0) as clock:
        for k in range(1, 65):
            bound = multiparty_bias_bound(k)
            assert abs(bound.q_min**k - 0.5) < 1e-12, k
            assert bound.q_min >= 1 - math.log(2) / k, k
        check = kparty_product_check(announce_kparty(3))
        assert check.passed
    _report(9, clock, f"q_min^k = 1/2 to 1e-12 up to k=64; 3-party merged products {check.products}")


def test_criterion_10_theta_g_over_k_window():
    # the headline tightness is asymptotic; it is replaced by explicit
    # constants: the protocol side gives bias <= 1/2 - c_upper * g/k and the
    # impossibility side gives bias >= 1/2 - c_lower * g/k on a gxk sweep
    with _Clock(30.0) as clock:
        upper_margins = []
        lower_margins = []
        for n in (4, 6, 8, 10, 12):
            k = 2**n
            for g in sorted({1, k // 8, k // 4, k // 2}):
                bias_up, _ = combined_bias(k, g)
                upper_margins.append((0.5 - bias_up) * k / g)
                k_eff = math.ceil(k / g)
                bias_low = multiparty_bias_bound(k_eff).bias
                lower_margins.append((0.5 - bias_low) * k / g)
        c_upper = min(upper_margins)
        c_lower = max(lower_margins)
        assert c_upper > 0
        assert c_lower < math.inf
        assert c_upper <= c_lower + 1e-12  # the window is consistent
    _report(
        10,
        clock,
        f"1/2 - bias within [{c_upper:.2e}, {c_lower:.2e}] * g/k across k in 16..4096",
    )
