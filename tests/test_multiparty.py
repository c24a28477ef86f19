import math
import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from conftest import PER_PLAYER_CHOICES, lightest_bin_per_player

from qcoinflip.multiparty import (
    ADVERSARY_PRESETS,
    BIN_STRATEGIES,
    AdversaryModel,
    TournamentConfig,
    aggressive_adversary,
    cheat_win_cap,
    combined_bias,
    committee_threshold,
    expected_fix_probability,
    honest_adversary,
    lightest_bin_select,
    naive_tournament_bound,
    pile_strategy,
    simulate_tournament,
    split_strategy,
    survival_product_constant,
    timid_adversary,
    tournament_bound,
    tournament_constant,
)
from qcoinflip.quantum import as_rng

ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def _deadline(seconds: int):
    """Fail instead of hanging when the body runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

# frozen via an independent 400-term truncation of the survival product
SURVIVAL_CONSTANT = 0.0298533420561977


class TestRecurrence:
    def test_round_with_penalty_seven(self):
        # k = 16: one penalty-7 round, P_4 = 1 - (1 - P_3)(1 - Q_7), before the 8-player finish P_3 = 63/64
        not_fixed, _ = tournament_bound(16)
        assert abs((1 - not_fixed) - (1 - (1 / 64) * (0.5 - 1 / math.sqrt(7)))) < 1e-15


class TestTournamentBound:
    def test_eight_players_exact(self):
        not_fixed, bias = tournament_bound(8)
        assert not_fixed == 1 / 64
        assert bias == 0.5 - 1 / 64

    def test_survival_constant(self):
        value = survival_product_constant()
        assert value > 0
        assert abs(value - SURVIVAL_CONSTANT) < 1e-10
        # truncation is converged: a 400-term product changes nothing visible
        assert abs(value - math.prod(1 - 2 / math.sqrt(2.0**j - 1) for j in range(3, 400))) < 1e-10

    def test_scaled_margin_bounded_below_up_to_2_20(self):
        c = tournament_constant()
        assert c > 0
        for n in range(3, 21):
            k = 2**n
            not_fixed, bias = tournament_bound(k)
            assert k * not_fixed >= c - 1e-15
            assert bias <= 0.5 - c / k + 1e-15

    def test_rejects_bad_player_counts(self):
        for k in (4, 6, 12, 100):
            with pytest.raises(ValueError):
                tournament_bound(k)


class TestNaiveBound:
    def test_two_players(self):
        assert abs(naive_tournament_bound(2) - 0.25) < 1e-15

    def test_k1024_comparison(self):
        assert 0.5 + naive_tournament_bound(1024) <= 1 - 1 / (4 * 1024**1.78)

    def test_monotone_closed_form_comparison(self):
        for k in (2, 3, 8, 50, 400, 1 << 14):
            assert 0.5 + naive_tournament_bound(k) <= 1 - 1 / (4 * k**1.78) + 1e-15

    def test_margin_weakly_decreasing(self):
        # the defence margin 1/2 - bias shrinks monotonically as the
        # elimination exponent grows
        margins = [0.5 - naive_tournament_bound(k) for k in range(2, 600)]
        assert all(a >= b - 1e-15 for a, b in zip(margins, margins[1:]))


class TestAdversaries:
    def test_simplex_validation(self):
        with pytest.raises(ValueError):
            AdversaryModel(0.5, 0.6, 0.1)

    def test_payoff_cap_enforced(self):
        bad = AdversaryModel(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            bad.check_admissible(7.0)

    def test_presets_admissible_for_all_rounds(self):
        for n in (3, 4, 5, 6, 10):
            config = TournamentConfig(n)
            for i in range(config.penalty_rounds):
                v = config.penalty_schedule[i]
                for preset in ADVERSARY_PRESETS.values():
                    preset(v).check_admissible(v)

    def test_timid_saturates_cap(self):
        model = timid_adversary(7.0)
        assert abs(model.p_lose - cheat_win_cap(7.0)) < 1e-12
        assert model.p_catch == 0.0


class TestSimulation:
    def test_schedule(self):
        config = TournamentConfig.for_players(32)
        assert config.penalty_schedule == (15, 7, 3, 1, 0)
        assert config.penalty_rounds == 2

    def test_monte_carlo_matches_closed_form(self):
        runs = 100_000
        for k in (8, 16, 64):
            config = TournamentConfig.for_players(k)
            for name, preset in ADVERSARY_PRESETS.items():
                report = simulate_tournament(config, 0, preset, as_rng(17), runs)
                exact = expected_fix_probability(config, preset)
                assert abs(report.mc_estimate - exact) <= 4 * report.stderr, (k, name)

    @pytest.mark.parametrize("k", [2**n for n in range(3, 13)])
    def test_counts_match_closed_form_up_to_4096(self, k):
        # sigma from the exact probability: at k = 4096 the timid preset
        # leaves about one run in 1e6 un-fixed, so the sample stderr is often 0
        runs = 200_000
        config = TournamentConfig.for_players(k)
        for name, preset in ADVERSARY_PRESETS.items():
            exact = expected_fix_probability(config, preset)
            report = simulate_tournament(config, 0, preset, as_rng(k), runs)
            sigma = math.sqrt(exact * (1 - exact) / runs)
            assert abs(report.mc_estimate - exact) <= 4 * sigma, (k, name)

    def test_never_beats_analytic_bound(self):
        runs = 50_000
        for k in (8, 16, 32):
            config = TournamentConfig.for_players(k)
            bound = 1.0 - tournament_bound(k)[0]
            for name, preset in ADVERSARY_PRESETS.items():
                report = simulate_tournament(config, 0, preset, as_rng(29), runs)
                assert report.mc_estimate <= bound + 4 * report.stderr, (k, name)

    def test_always_catch_adversary_never_fixes(self):
        config = TournamentConfig.for_players(32)
        catcher = AdversaryModel(0.0, 0.0, 1.0)
        report = simulate_tournament(config, 0, catcher, as_rng(3), 20_000)
        # honest survives both penalty rounds via catches; only the final
        # phase rounds remain fixable
        assert abs(report.mc_estimate - 0.0) < 1e-12

    def test_honest_preset_closed_form(self):
        # honest survives each penalty round with probability 1/2, then the
        # abstract finish fails with probability (1/4)^3
        for k in (8, 16, 32):
            config = TournamentConfig.for_players(k)
            n = int(math.log2(k))
            expected = 1 - 0.5 ** (n - 3) * (1 / 64)
            assert abs(expected_fix_probability(config, honest_adversary) - expected) < 1e-12

    def test_rejects_inadmissible(self):
        config = TournamentConfig.for_players(16)
        greedy = AdversaryModel(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            simulate_tournament(config, 0, greedy, as_rng(0), 10)


class TestLightestBin:
    def test_all_honest_committee(self):
        result = lightest_bin_select(64, 64, 2, 8, as_rng(5))
        assert np.all(result.size <= 8)
        assert np.array_equal(result.honest, result.size)

    def test_tiny_instance_skips_selection(self):
        result = lightest_bin_select(2, 1, 2, 2, as_rng(0))
        assert result.size.tolist() == [2]
        assert result.honest.tolist() == [1]
        assert result.rounds == 0

    def test_single_round_size_cannot_exceed_mean(self):
        for strategy in BIN_STRATEGIES.values():
            result = lightest_bin_select(63, 20, 2, 32, as_rng(0), strategy, runs=100)
            assert np.all(result.size <= math.ceil(63 / 2))

    def test_honest_presence_rate_against_presets(self):
        threshold = committee_threshold(256, 64)
        assert threshold == 16
        runs = 1500
        for name, strategy in BIN_STRATEGIES.items():
            rate = lightest_bin_select(256, 64, 2, threshold, as_rng(0), strategy, runs=runs).honest_presence
            sigma = math.sqrt(0.25 / runs)
            assert rate >= 0.5 - 4 * sigma, name

    def test_result_shapes_and_round_total(self):
        result = lightest_bin_select(100, 7, 3, 10, as_rng(1), split_strategy, runs=50)
        assert result.size.shape == result.honest.shape == (50,)
        assert isinstance(result.rounds, int) and result.rounds >= 50
        assert np.all((result.size <= 10) | (result.honest == 0))
        assert np.all((0 <= result.honest) & (result.honest <= np.minimum(result.size, 7)))
        with pytest.raises(ValueError):
            lightest_bin_select(100, 7, 3, 10, as_rng(1), split_strategy, runs=0)

    def test_empty_bins_never_win(self):
        # 7 honest players over 5 bins leave some bins empty in most rounds
        for strategy in BIN_STRATEGIES.values():
            result = lightest_bin_select(100, 7, 5, 10, as_rng(2), strategy, runs=500)
            assert np.all(result.size >= 1)

    @pytest.mark.parametrize("bins", [2, 3, 5])
    @pytest.mark.parametrize("name", sorted(BIN_STRATEGIES))
    def test_count_strategy_is_bincount_of_player_choices(self, name, bins):
        n = np.arange(41)
        for current_round in range(7):
            counts = BIN_STRATEGIES[name](n, current_round, bins)
            expected = [
                np.bincount(PER_PLAYER_CHOICES[name](int(m), current_round, bins), minlength=bins)
                for m in n
            ]
            assert counts.dtype.kind == "i"
            assert np.array_equal(counts, np.array(expected))

    @pytest.mark.parametrize("bins", [2, 3])
    @pytest.mark.parametrize("k, g", [(100, 7), (63, 20), (1024, 70)])
    def test_presence_matches_per_player_oracle(self, k, g, bins):
        threshold = committee_threshold(k, g)
        oracle_runs, runs = 2000, 20_000
        rng = as_rng(3)
        for name, strategy in BIN_STRATEGIES.items():
            oracle = np.mean(
                [
                    lightest_bin_per_player(k, g, bins, threshold, rng, PER_PLAYER_CHOICES[name])[1] > 0
                    for _ in range(oracle_runs)
                ]
            )
            batched = lightest_bin_select(k, g, bins, threshold, as_rng(4), strategy, runs=runs).honest_presence
            pooled = (oracle * oracle_runs + batched * runs) / (oracle_runs + runs)
            sigma = math.sqrt(pooled * (1 - pooled) * (1 / oracle_runs + 1 / runs))
            assert abs(oracle - batched) <= 4 * sigma + 1e-12, (name, oracle, batched)

    def test_run_without_honest_players_ends(self):
        # 8 piled dishonest players and no honest one never shrink below 7
        with _deadline(30):
            result = lightest_bin_select(20, 12, 2, 7, as_rng(0), pile_strategy, runs=100_000)
        stuck = result.size > 7
        assert stuck.any() and np.all(result.honest[stuck] == 0)

    def test_hanging_cli_command_exits(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        argv = ["tournament", "--k", "20", "--g", "12", "--runs", "6000", "--seed", "0"]
        proc = subprocess.run(
            [sys.executable, "-m", "qcoinflip.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr


class TestCombinedBias:
    def test_single_honest_matches_tournament(self):
        bias, committee = combined_bias(64, 1)
        assert committee is None
        assert abs(bias - tournament_bound(64)[1]) < 1e-15

    def test_all_honest_constant_bound(self):
        biases = {k: combined_bias(k, k)[0] for k in (16, 256, 4096)}
        assert len(set(biases.values())) == 1
        assert biases[16] <= 0.5 - 1 / 128

    def test_linear_in_g_over_k(self):
        ratios = []
        for n in (4, 6, 8, 10, 12):
            k = 2**n
            for g in sorted({1, k // 8, k // 4, k // 2}):
                bias, _ = combined_bias(k, g)
                ratios.append((0.5 - bias) * k / g)
        assert min(ratios) > 0
        # a single constant c' works across the whole sweep
        assert min(ratios) > 1e-4
