import math

import numpy as np
import pytest

from qcoinflip.penalty import (
    PenaltyGame,
    alice_attack_sdp,
    bob_attack,
    certificate_scalars,
    commit_state,
    dual_certificate,
    expected_win_bound,
    lambda_ceiling,
    received_register_state,
    run_honest,
)
from qcoinflip.quantum import HilbertLayout, StateVector, as_rng, projector
from qcoinflip.sdp import duality_gap, solve, verify_dual


class TestGame:
    def test_delta_invariant(self):
        for v in (4.0, 9.0, 25.0, 144.0):
            game = PenaltyGame(v)
            assert abs(game.delta**2 * v - 4.0) < 1e-12
            assert 0 < game.delta <= 1

    def test_small_penalty_rejected(self):
        for v in (3.9, math.nan, math.inf):
            with pytest.raises(ValueError):
                PenaltyGame(v)


class TestCommitState:
    def test_degenerate_delta_one(self):
        state = commit_state(0, PenaltyGame(4.0))
        expected = np.zeros(9)
        expected[0] = 1.0
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_v16_form(self):
        state = commit_state(1, PenaltyGame(16.0))
        expected = np.zeros(9)
        expected[4] = expected[8] = 1 / math.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_overlap_is_one_minus_delta(self):
        for v in (4.0, 9.0, 16.0, 100.0):
            game = PenaltyGame(v)
            overlap = commit_state(0, game).overlap(commit_state(1, game))
            assert abs(overlap - (1.0 - game.delta)) < 1e-12

    def test_bad_bit(self):
        with pytest.raises(ValueError):
            commit_state(2, PenaltyGame(9.0))


class TestHonestRun:
    def test_never_aborts(self):
        game = PenaltyGame(9.0)
        for seed in range(200):
            assert run_honest(game, seed).verification == "passed"

    def test_unbiased_coin_chi_square(self):
        game = PenaltyGame(16.0)
        rng = as_rng(5)
        runs = 10_000
        ones = sum(run_honest(game, rng).outcome for _ in range(runs))
        chi2 = (2 * ones - runs) ** 2 / runs
        p_value = math.erfc(math.sqrt(chi2 / 2.0))
        assert p_value > 0.001

    def test_payoffs_split_one_coin(self):
        game = PenaltyGame(4.0)
        rng = as_rng(1)
        for _ in range(100):
            t = run_honest(game, rng)
            assert t.payoff_alice + t.payoff_bob == 1.0
            assert t.outcome == t.a ^ t.b
            assert (t.payoff_alice == 1.0) == (t.outcome == 0)


class TestBobAttack:
    @pytest.mark.parametrize("v", [4.0, 9.0, 16.0, 25.0, 100.0])
    def test_exact_win_probability(self, v):
        # the measurement's win probability is evaluated directly, not
        # through the trace-distance formula it should equal
        attack = bob_attack(PenaltyGame(v))
        assert abs(attack.expected_win - (0.5 + 1.0 / math.sqrt(v))) < 1e-10

    def test_received_registers(self):
        game = PenaltyGame(16.0)
        r0, r1 = received_register_state(0, game), received_register_state(1, game)
        np.testing.assert_allclose(r0.matrix, np.diag([0.5, 0.0, 0.5]), atol=1e-12)
        trace_norm = np.sum(np.abs(np.linalg.eigvalsh(r0.matrix - r1.matrix)))
        assert abs(trace_norm - 2 * game.delta) < 1e-12

    def test_monotone_in_penalty(self):
        wins = [bob_attack(PenaltyGame(v)).expected_win for v in (4, 9, 16, 25, 100, 10_000)]
        assert all(a > b for a, b in zip(wins, wins[1:]))
        assert wins[-1] < 0.52


class TestAliceSdp:
    def test_honest_play_scores_half(self):
        for v in (4.0, 16.0):
            game = PenaltyGame(v)
            problem = alice_attack_sdp(game)
            # the feasible point of honest play: she sends her commitment's second
            # register and opens the bit she committed to, whatever he says
            blocks = {f"rho_{b}{a}": 0.5 * projector(commit_state(a, game)) for b in (0, 1) for a in (0, 1)}
            blocks["tau"] = 0.5 * (
                received_register_state(0, game).matrix + received_register_state(1, game).matrix
            )
            value = problem.objective_constant + sum(
                float(np.real(np.trace(np.asarray(c) @ blocks[name]))) for name, c in problem.objective.items()
            )
            assert abs(value - 0.5) < 1e-12

    @pytest.mark.parametrize(
        "v,upper", [(4.0, 0.5625), (9.0, 0.5 + 1 / 24), (16.0, 0.53125)]
    )
    def test_value_between_honest_and_chain_bound(self, v, upper):
        sol = solve(alice_attack_sdp(PenaltyGame(v)))
        assert sol.status == "converged"
        assert 0.5 - 1e-6 <= sol.primal_value <= upper + 1e-6

    def test_solver_below_certificate(self):
        game = PenaltyGame(16.0)
        prob = alice_attack_sdp(game)
        sol = solve(prob)
        gap = duality_gap(prob, sol, dual_certificate(game))
        assert gap >= -1e-6
        assert gap <= 0.53125 - 0.5


class TestCertificate:
    def test_closed_forms_at_v4(self):
        scal = certificate_scalars(4.0)
        assert abs(scal.m0 - 5.0) < 1e-12
        assert abs(scal.m1 - 4.0) < 1e-12
        assert abs(scal.lam - 9.0) < 1e-12
        assert abs(scal.payoff_bound - 0.5) < 1e-12

    def test_v16_lambda(self):
        scal = certificate_scalars(16.0)
        assert abs(scal.lam - 33.0302475808396) < 1e-9
        assert scal.lam <= lambda_ceiling(16.0)

    def test_scalar_inequalities_hold(self):
        # the diagonal family's sufficient conditions, checked directly
        for v in (4.0, 9.0, 16.0, 25.0):
            delta = 2 / math.sqrt(v)
            s = certificate_scalars(v)
            assert s.m0 >= (v + 1) * delta - 1e-9
            assert s.m2 >= (v + 1) * (1 - delta) - 1e-9
            assert s.m0 * s.m2 >= (v + 1) * (1 - delta) * s.m0 + (v + 1) * delta * s.m2 - 1e-7
            assert s.m1 >= v * delta - 1e-9
            assert s.m2 >= v * (1 - delta) - 1e-9
            assert s.m1 * s.m2 >= v * (1 - delta) * s.m1 + v * delta * s.m2 - 1e-7

    def test_feasible_on_grid(self):
        for v in np.geomspace(4.0, 1e4, 25):
            game = PenaltyGame(float(v))
            report = verify_dual(alice_attack_sdp(game), dual_certificate(game), tol=1e-9)
            assert report.feasible, f"v={v}"
            assert certificate_scalars(float(v)).lam <= lambda_ceiling(float(v)) + 1e-9

    def test_zeroed_multiplier_infeasible(self):
        # dropping m1 violates the commitment constraint for the answered-0,
        # opened-1 branch; the violation shows up as a negative eigenvalue
        game = PenaltyGame(4.0)
        cert = dual_certificate(game)
        scal = certificate_scalars(4.0)
        broken = dict(cert.multipliers)
        broken["sent_register_1"] = 0.5 * np.diag([0.0, scal.m0, scal.m2]).astype(complex)
        from qcoinflip.sdp import DualCertificate

        report = verify_dual(alice_attack_sdp(game), DualCertificate(broken, cert.claimed_value))
        assert not report.feasible
        assert report.lambda_min["rho_10"] < -1e-6


class TestBounds:
    def test_v4(self):
        bounds = expected_win_bound(4.0)
        assert abs(bounds.bob - 1.0) < 1e-12
        assert bounds.alice <= 0.5625
        assert abs(bounds.alice_chain - 0.5625) < 1e-12

    def test_v25(self):
        bounds = expected_win_bound(25.0)
        assert abs(bounds.bob - 0.7) < 1e-12
        assert bounds.alice <= 0.525

    def test_alice_bound_dominates_solver(self):
        game = PenaltyGame(4.0)
        sol = solve(alice_attack_sdp(game))
        assert expected_win_bound(4.0).alice >= sol.primal_value - 1e-6

    def test_chain_envelope(self):
        for v in (4.0, 16.0, 100.0, 2500.0):
            assert certificate_scalars(v).payoff_bound <= 0.5 + 1 / (8 * math.sqrt(v)) + 1e-12

    def test_rejects_small_penalty(self):
        with pytest.raises(ValueError):
            expected_win_bound(3.0)
