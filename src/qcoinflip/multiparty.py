"""k-party coin flipping by elimination tournament with penalty rounds.

With k = 2^n players and a single honest one, rounds 1..n-3 are two-party
penalty coin flips with penalty 2^(n-i) - 1 at round i; once 8 players
remain, three no-penalty rounds finish the job, in each of which a cheater
facing the honest player can force the round with probability at most 3/4
(an abstract primitive; its guarantee makes the 8-player stage fixable with
probability at most 63/64).  Chaining

    1 - P_j >= (1 - P_{j-1}) (1 - Q_{2^{j-1}-1}),     Q_v = 1/2 + 1/sqrt(v)

gives 1 - P_n >= c / k for an explicit positive constant c, i.e. bias at
most 1/2 - c/k.  For g honest players out of k, a lightest-bin committee
selection first shrinks the table to O(k/g) players while keeping an honest
member with probability >= 1/2.

Cheaters in the simulation are reduced to their per-match statistics
(p_win, p_lose, p_catch) against the honest player, constrained by the
penalty-game guarantee p_lose - v * p_catch <= Q_v; arbitrary quantum
strategies are bounded by exactly these statistics, so nothing more is
simulated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantum import as_rng

FINAL_PHASE_ROUNDS = 3
FINAL_PHASE_CHEAT_PROB = 0.75
FINAL_PHASE_PLAYERS = 8


def cheat_win_cap(v: float) -> float:
    """Best expected win of a cheater in a penalty-v coin flip: 1/2 + 1/sqrt(v).

    Meaningful (< 1) only for v > 4; capped at 1 below that.
    """
    if v <= 0:
        return 1.0
    return min(1.0, 0.5 + 1.0 / math.sqrt(v))


@dataclass(frozen=True)
class TournamentConfig:
    """Bracket for k = 2^n players: penalty 2^(n-i) - 1 at round i."""

    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need k = 2^n >= 8 players")

    @property
    def k(self) -> int:
        return 2**self.n

    @property
    def penalty_schedule(self) -> tuple:
        return tuple(2 ** (self.n - i) - 1 for i in range(1, self.n + 1))

    @property
    def penalty_rounds(self) -> int:
        """Rounds played with penalties before the 8-player finish."""
        return self.n - FINAL_PHASE_ROUNDS

    @classmethod
    def for_players(cls, k: int) -> "TournamentConfig":
        n = int(round(math.log2(k)))
        if 2**n != k or n < 3:
            raise ValueError(f"player count must be a power of two >= 8, got {k}")
        return cls(n)


@dataclass(frozen=True)
class AdversaryModel:
    """Per-match statistics of a cheater playing the honest player.

    p_win/p_lose/p_catch are the honest player's win, loss and
    caught-the-cheater probabilities.  Admissibility against penalty v:
    the cheater's expected win p_lose - v * p_catch cannot exceed the
    penalty-game cap Q_v.
    """

    p_win: float
    p_lose: float
    p_catch: float

    def __post_init__(self):
        probs = (self.p_win, self.p_lose, self.p_catch)
        if any(p < -1e-12 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError(f"(p_win, p_lose, p_catch) must lie on the simplex, got {probs}")

    def check_admissible(self, v: float):
        cap = cheat_win_cap(v)
        if self.p_lose - v * self.p_catch > cap + 1e-9:
            raise ValueError(
                f"adversary violates the penalty-{v} cap: "
                f"p_lose - v*p_catch = {self.p_lose - v * self.p_catch:.6f} > {cap:.6f}"
            )


def honest_adversary(v: float) -> AdversaryModel:
    return AdversaryModel(0.5, 0.5, 0.0)


def timid_adversary(v: float) -> AdversaryModel:
    """Never risks the penalty; wins rounds at exactly the cap Q_v."""
    cap = cheat_win_cap(v)
    return AdversaryModel(1.0 - cap, cap, 0.0)


def aggressive_adversary(v: float) -> AdversaryModel:
    """Never lets the honest player win; catches as rarely as the cap allows."""
    cap = cheat_win_cap(v)
    p_catch = (1.0 - cap) / (1.0 + v)
    return AdversaryModel(0.0, 1.0 - p_catch, p_catch)


ADVERSARY_PRESETS = {
    "honest": honest_adversary,
    "timid": timid_adversary,
    "aggressive": aggressive_adversary,
}


@dataclass(frozen=True)
class BiasReport:
    k: int
    g: int
    analytic_not_fixed: float  # lower bound on 1 - P
    bias_bound: float
    mc_estimate: float | None
    stderr: float | None
    runs: int


# ---------------------------------------------------------------------------
# analytic bounds


def recurrence_step(p_prev: float, q: float) -> float:
    """One elimination round: P_j = 1 - (1 - P_{j-1})(1 - Q)."""
    if not (0.0 <= p_prev <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError("arguments must be probabilities")
    return 1.0 - (1.0 - p_prev) * (1.0 - q)


def tournament_bound(k: int):
    """(lower bound on 1 - P_n, bias bound 1/2 - that) for k = 2^n >= 8.

    The bound is (1/64) prod_{j=4..n} (1 - Q_{2^(j-1)-1}): the 8-player
    finish fails to be fixed with probability at least 1/64, and each
    earlier penalty round multiplies by its survival margin.
    """
    config = TournamentConfig.for_players(k)
    not_fixed = 1.0 / 64.0
    for j in range(4, config.n + 1):
        not_fixed *= 1.0 - cheat_win_cap(2 ** (j - 1) - 1)
    return not_fixed, 0.5 - not_fixed


def survival_product_constant(rel_tol: float = 1e-12) -> float:
    """The positive constant prod_{j>=3} (1 - 2/sqrt(2^j - 1)).

    Truncated adaptively: the omitted factors satisfy
    |log prod_{j>J}| <= sum_{j>J} x_j / (1 - x_j) with x_j = 2/sqrt(2^j-1)
    decaying geometrically, so the tail is stopped once it is below rel_tol.
    """
    product = 1.0
    j = 3
    while True:
        x = 2.0 / math.sqrt(2.0**j - 1.0)
        product *= 1.0 - x
        xj = 2.0 / math.sqrt(2.0 ** (j + 1) - 1.0)
        tail = (xj / (1.0 - xj)) / (1.0 - 2.0**-0.5)
        if tail < rel_tol:
            return product
        j += 1


def tournament_constant() -> float:
    """c with 1 - P_n >= c / k for every k = 2^n >= 8: c = C_inf / 8."""
    return survival_product_constant() / 8.0


def naive_tournament_bound(k: int) -> float:
    """Bias of the plain no-penalty tournament: 1/2 - (1/4)(1 - 1/sqrt2)^ceil(log2(k) - 1).

    The honest player survives each elimination with probability at least
    1 - 1/sqrt2 and the last flip resists fixing with probability 1/4.
    """
    if k < 2:
        raise ValueError("need at least two players")
    exponent = math.ceil(math.log2(k) - 1.0)
    reach = (1.0 - 2.0**-0.5) ** exponent
    return 0.5 - 0.25 * reach


def naive_fix_probability(k: int) -> float:
    return 0.5 + naive_tournament_bound(k)


# ---------------------------------------------------------------------------
# Monte Carlo


def simulate_tournament(
    config: TournamentConfig,
    honest_id: int,
    adversary,
    rng,
    runs: int,
) -> BiasReport:
    """Estimate the coalition's fix probability against one honest player.

    ``adversary`` maps a penalty v to an AdversaryModel (a preset) or is a
    fixed AdversaryModel.  Per run: every penalty round the honest player's
    match is sampled; a loss hands the bracket to the coalition, a catch
    aborts the run un-fixed.  The three final no-penalty rounds are the
    abstract primitive and go the coalition's way with probability 3/4 each.
    Cheater-vs-cheater matches are coalition-controlled and need no sampling.
    """
    rng = as_rng(rng)
    if not 0 <= honest_id < config.k:
        raise ValueError("honest player id out of range")
    models = []
    for i in range(config.penalty_rounds):
        v = config.penalty_schedule[i]
        model = adversary(v) if callable(adversary) else adversary
        model.check_admissible(v)
        models.append(model)

    alive = np.ones(runs, dtype=bool)  # honest player still in, nothing decided
    fixed = np.zeros(runs, dtype=bool)
    for model in models:
        u = rng.random(runs)
        lose = alive & (u < model.p_lose)
        catch = alive & ~lose & (u < model.p_lose + model.p_catch)
        fixed |= lose
        alive &= ~(lose | catch)
    for _ in range(FINAL_PHASE_ROUNDS):
        u = rng.random(runs)
        beaten = alive & (u < FINAL_PHASE_CHEAT_PROB)
        fixed |= beaten
        alive &= ~beaten

    phat = float(np.mean(fixed))
    stderr = math.sqrt(max(phat * (1.0 - phat), 1e-300) / runs)
    not_fixed, bias = tournament_bound(config.k)
    return BiasReport(
        k=config.k,
        g=1,
        analytic_not_fixed=not_fixed,
        bias_bound=bias,
        mc_estimate=phat,
        stderr=stderr,
        runs=runs,
    )


def expected_fix_probability(config: TournamentConfig, adversary) -> float:
    """Closed-form fix probability for a given adversary (the MC oracle)."""
    not_fixed = 0.0
    reach = 1.0
    for i in range(config.penalty_rounds):
        v = config.penalty_schedule[i]
        model = adversary(v) if callable(adversary) else adversary
        not_fixed += reach * model.p_catch
        reach *= model.p_win
    not_fixed += reach * (1.0 - FINAL_PHASE_CHEAT_PROB) ** FINAL_PHASE_ROUNDS
    return 1.0 - not_fixed


# ---------------------------------------------------------------------------
# lightest-bin committee selection


def pile_strategy(n_dishonest: int, current_round: int, bins: int, rng) -> np.ndarray:
    """All dishonest players crowd one bin (rotating which one)."""
    return np.full(n_dishonest, current_round % bins, dtype=np.int64)


def split_strategy(n_dishonest: int, current_round: int, bins: int, rng) -> np.ndarray:
    """Dishonest players spread evenly over the bins."""
    return (np.arange(n_dishonest, dtype=np.int64) + current_round) % bins


BIN_STRATEGIES = {"pile": pile_strategy, "split": split_strategy}


@dataclass(frozen=True)
class CommitteeResult:
    committee: tuple
    honest_members: tuple
    rounds: int


def lightest_bin_select(
    k: int,
    g: int,
    bins: int,
    threshold: int,
    rng,
    dishonest_strategy=pile_strategy,
) -> CommitteeResult:
    """Iterated lightest-bin: survivors of the least-occupied bin continue.

    Honest players (ids 0..g-1) pick bins uniformly; the dishonest announce
    whatever their strategy says.  Ties break toward the lowest bin index;
    empty bins never win (a bin choice nobody made selects no committee).
    Stops as soon as at most ``threshold`` players remain.
    """
    rng = as_rng(rng)
    if not 1 <= g <= k:
        raise ValueError("need 1 <= g <= k")
    if bins < 2 or threshold < 1:
        raise ValueError("need at least two bins and a positive threshold")
    players = np.arange(k)
    honest = players < g
    rounds = 0
    while players.size > threshold:
        choices = np.empty(players.size, dtype=np.int64)
        n_honest = int(honest.sum())
        choices[honest] = rng.integers(bins, size=n_honest)
        choices[~honest] = dishonest_strategy(players.size - n_honest, rounds, bins, rng)
        counts = np.bincount(choices, minlength=bins)
        occupied = np.flatnonzero(counts > 0)
        winner = occupied[np.argmin(counts[occupied])]
        keep = choices == winner
        players = players[keep]
        honest = honest[keep]
        rounds += 1
    return CommitteeResult(tuple(int(p) for p in players), tuple(int(p) for p in players[honest]), rounds)


def committee_threshold(k: int, g: int, factor: float = 4.0) -> int:
    """Documented committee size target: ceil(factor * k / g), at least 2."""
    return max(2, math.ceil(factor * k / g))


def combined_bias(k: int, g: int, threshold_factor: float = 4.0):
    """Bias bound for g honest players among k.

    For g = 1 the tournament runs directly on all k players.  Otherwise a
    lightest-bin committee of about threshold_factor * k/g players flips the
    coin; an honest member is present with probability at least 1/2, so the
    tournament's not-fixed margin enters halved.

    Returns (bias bound, committee size used by the tournament bound).
    """
    if not 1 <= g <= k:
        raise ValueError("need 1 <= g <= k")
    if g == 1:
        not_fixed, bias = tournament_bound(tournament_size(k))
        return bias, None
    size = committee_threshold(k, g, threshold_factor)
    ksub = tournament_size(size)
    not_fixed, _ = tournament_bound(ksub)
    return 0.5 - 0.5 * not_fixed, ksub


def tournament_size(k: int) -> int:
    """Smallest admissible bracket size >= k (power of two, >= 8)."""
    return max(8, 2 ** math.ceil(math.log2(max(k, 1))))
