"""k-party coin flipping by elimination tournament with penalty rounds.

With k = 2^n players and a single honest one, the bracket is one list of
rounds, each the honest player's match against a cheater: rounds 1..n-3 are
penalty coin flips with penalty 2^(n-i) - 1 at round i (``penalty_schedule``);
once 8 players remain, three no-penalty rounds finish the job, in each of
which the cheater forces the round with probability at most 3/4
(``FINAL_PHASE_CHEAT_PROB``, the forcing probability of
``protocols.penalty_protocol(16)`` run as a plain coin flip, for either
honest party; its guarantee makes the 8-player stage fixable with
probability at most 63/64).  Chaining

    1 - P_j >= (1 - P_{j-1}) (1 - Q_{2^{j-1}-1}),     Q_v = 1/2 + 1/sqrt(v)

gives 1 - P_n >= c / k for an explicit positive constant c, i.e. bias at
most 1/2 - c/k.  For g honest players out of k, a lightest-bin committee
selection first shrinks the table to O(k/g) players; ``combined_bias``
assumes it keeps an honest member with probability >= 1/2, which the Monte
Carlo checks at powers of two only.

Cheaters in the simulation are reduced to their per-match statistics
(p_win, p_lose, p_catch) against the honest player, constrained by the
penalty-game guarantee p_lose - v * p_catch <= Q_v; arbitrary quantum
strategies are bounded by exactly these statistics, so nothing more is
simulated here.  The Monte Carlo and its closed form walk the same list of
per-round statistics, ``_round_models``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantum import as_rng

FINAL_PHASE_ROUNDS = 3
FINAL_PHASE_CHEAT_PROB = 0.75
SURVIVAL_REL_TOL = 1e-12


def cheat_win_cap(v: float) -> float:
    """Best expected win of a cheater in a penalty-v coin flip: 1/2 + 1/sqrt(v).

    Meaningful (< 1) only for v > 4; capped at 1 below that.
    """
    if v <= 0:
        return 1.0
    return min(1.0, 0.5 + 1.0 / math.sqrt(v))


def penalty_schedule(k: int) -> tuple:
    """Penalties of the rounds before the 8-player finish, for k = 2^n >= 8.

    Round i = 1..n-3 carries penalty 2^(n-i) - 1; the FINAL_PHASE_ROUNDS
    rounds after it carry none.
    """
    if k < 8 or k & (k - 1):
        raise ValueError(f"player count must be a power of two >= 8, got {k}")
    n = k.bit_length() - 1
    return tuple(2 ** (n - i) - 1 for i in range(1, n - FINAL_PHASE_ROUNDS + 1))


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
    mc_estimate: float
    stderr: float


# ---------------------------------------------------------------------------
# analytic bounds


def tournament_bound(k: int):
    """(lower bound on 1 - P_n, bias bound 1/2 - that) for k = 2^n >= 8.

    The bound is (1 - FINAL_PHASE_CHEAT_PROB)^FINAL_PHASE_ROUNDS = 1/64 for
    the 8-player finish, times the survival margin 1 - Q_v of each penalty
    round, multiplied in ascending v.
    """
    not_fixed = (1.0 - FINAL_PHASE_CHEAT_PROB) ** FINAL_PHASE_ROUNDS
    for v in reversed(penalty_schedule(k)):
        not_fixed *= 1.0 - cheat_win_cap(v)
    return not_fixed, 0.5 - not_fixed


def survival_product_constant() -> float:
    """The positive constant prod_{j>=3} (1 - 2/sqrt(2^j - 1)).

    Truncated adaptively: the omitted factors satisfy
    |log prod_{j>J}| <= sum_{j>J} x_j / (1 - x_j) with x_j = 2/sqrt(2^j-1)
    decaying geometrically, so the tail is stopped once it is below
    SURVIVAL_REL_TOL.
    """
    product = 1.0
    j = 3
    while True:
        x = 2.0 / math.sqrt(2.0**j - 1.0)
        product *= 1.0 - x
        xj = 2.0 / math.sqrt(2.0 ** (j + 1) - 1.0)
        tail = (xj / (1.0 - xj)) / (1.0 - 2.0**-0.5)
        if tail < SURVIVAL_REL_TOL:
            return product
        j += 1


def tournament_constant() -> float:
    """c with 1 - P_n >= c / k for every k = 2^n >= 8: c = C_inf / 8."""
    return survival_product_constant() / 8.0


def naive_tournament_bound(k: int) -> float:
    """Bias of the plain no-penalty tournament: 1/2 - (1/4)(1 - 1/sqrt2)^(ceil(log2 k) - 1).

    The honest player survives each elimination with probability at least
    1 - 1/sqrt2 and the last flip resists fixing with probability 1/4.
    """
    if k < 2:
        raise ValueError("need at least two players")
    reach = (1.0 - 2.0**-0.5) ** ((k - 1).bit_length() - 1)
    return 0.5 - 0.25 * reach


# ---------------------------------------------------------------------------
# Monte Carlo


_FINAL_MATCH = AdversaryModel(1.0 - FINAL_PHASE_CHEAT_PROB, FINAL_PHASE_CHEAT_PROB, 0.0)


def _round_models(k: int, adversary) -> list:
    """The honest player's match in every round of a k-player bracket.

    ``adversary`` maps a penalty v to an AdversaryModel; its model at each
    penalty of ``penalty_schedule(k)`` is checked for admissibility.  The
    FINAL_PHASE_ROUNDS no-penalty rounds follow: the coalition wins each with
    probability FINAL_PHASE_CHEAT_PROB and is never caught.
    """
    models = []
    for v in penalty_schedule(k):
        model = adversary(v)
        model.check_admissible(v)
        models.append(model)
    return models + [_FINAL_MATCH] * FINAL_PHASE_ROUNDS


def simulate_tournament(k: int, adversary, rng, runs: int) -> BiasReport:
    """Estimate the coalition's fix probability against one honest player.

    Per run and round of ``_round_models(k, adversary)``, the honest player's
    match is sampled: a loss hands the bracket to the coalition, a catch
    aborts the run un-fixed.  Cheater-vs-cheater matches are
    coalition-controlled and need no sampling.  Runs are exchangeable, so
    each round splits the count of undecided runs into (lost, caught,
    continuing) by one multinomial.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    rng = as_rng(rng)
    alive = runs  # honest player still in, nothing decided
    fixed = 0
    for model in _round_models(k, adversary):
        lose, _, alive = rng.multinomial(alive, [model.p_lose, model.p_catch, model.p_win])
        fixed += int(lose)
    phat = fixed / runs
    stderr = math.sqrt(max(phat * (1.0 - phat), 1e-300) / runs)
    return BiasReport(mc_estimate=phat, stderr=stderr)


def expected_fix_probability(k: int, adversary) -> float:
    """Closed-form fix probability for a given adversary (the MC oracle)."""
    not_fixed = 0.0
    reach = 1.0  # honest player still in, nothing decided
    for model in _round_models(k, adversary):
        not_fixed += reach * model.p_catch
        reach *= model.p_win
    return 1.0 - (not_fixed + reach)


# ---------------------------------------------------------------------------
# lightest-bin committee selection


def pile_strategy(n_dishonest: np.ndarray, current_round: int, bins: int) -> np.ndarray:
    """All dishonest players crowd one bin (rotating which one).

    Like every bin strategy, maps the dishonest counts of a batch of runs to
    their per-bin counts, one row per run.
    """
    n_dishonest = np.asarray(n_dishonest, dtype=np.int64)
    counts = np.zeros((n_dishonest.size, bins), dtype=np.int64)
    counts[:, current_round % bins] = n_dishonest
    return counts


def split_strategy(n_dishonest: np.ndarray, current_round: int, bins: int) -> np.ndarray:
    """Dishonest players spread evenly over the bins.

    Player i takes bin (i + round) % bins, so bin b gets n // bins players,
    plus one when (b - round) % bins < n % bins.
    """
    n_dishonest = np.asarray(n_dishonest, dtype=np.int64)[:, None]
    offset = (np.arange(bins) - current_round) % bins
    return n_dishonest // bins + (offset < n_dishonest % bins)


BIN_STRATEGIES = {"pile": pile_strategy, "split": split_strategy}


@dataclass(frozen=True)
class CommitteeResult:
    """Per-run committee sizes and honest member counts, and total rounds."""

    size: np.ndarray
    honest: np.ndarray
    rounds: int  # summed over all runs

    @property
    def honest_presence(self) -> float:
        """Share of runs whose committee has an honest member."""
        return float(np.mean(self.honest > 0))


def lightest_bin_select(
    k: int,
    g: int,
    bins: int,
    threshold: int,
    rng,
    dishonest_strategy=pile_strategy,
    runs: int = 1,
) -> CommitteeResult:
    """Iterated lightest-bin over ``runs`` independent runs: survivors of the
    least-occupied bin continue.

    g honest players pick bins uniformly; the k - g dishonest announce
    whatever their strategy says.  Ties break toward the lowest bin index;
    empty bins never win (a bin choice nobody made selects no committee).
    A run stops as soon as at most ``threshold`` players remain, or once no
    honest player remains, since its honest presence is then decided (and
    dishonest players piling into one bin would never shrink it).

    Honest choices are iid and nothing reads a player's id, so a run's state
    is its (honest, dishonest) count pair: each round draws the honest
    per-bin counts by one multinomial per run, which has the same
    distribution as sampling every player.
    """
    rng = as_rng(rng)
    if not 1 <= g <= k:
        raise ValueError("need 1 <= g <= k")
    if bins < 2 or threshold < 1:
        raise ValueError("need at least two bins and a positive threshold")
    if runs < 1:
        raise ValueError("need at least one run")
    honest = np.full(runs, g, dtype=np.int64)
    dishonest = np.full(runs, k - g, dtype=np.int64)
    uniform = np.full(bins, 1.0 / bins)
    active = np.flatnonzero(honest + dishonest > threshold)
    rounds = current_round = 0
    while active.size:
        h = rng.multinomial(honest[active], uniform)
        d = dishonest_strategy(dishonest[active], current_round, bins)
        counts = h + d
        winner = np.argmin(np.where(counts > 0, counts, k + 1), axis=1)
        rows = np.arange(active.size)
        honest[active] = h[rows, winner]
        dishonest[active] = d[rows, winner]
        rounds += active.size
        current_round += 1
        active = active[(honest[active] + dishonest[active] > threshold) & (honest[active] > 0)]
    return CommitteeResult(honest + dishonest, honest, rounds)


def committee_threshold(k: int, g: int, factor: float = 4.0) -> int:
    """Documented committee size target: ceil(factor * k / g), at least 2."""
    return max(2, math.ceil(factor * k / g))


def combined_bias(k: int, g: int, threshold_factor: float = 4.0):
    """Bias bound for g honest players among k.

    For g = 1 the tournament runs on all k players.  Otherwise a
    lightest-bin committee of about threshold_factor * k/g players flips the
    coin, and the tournament's not-fixed margin enters halved.  The halving
    assumes an honest member is present with probability at least 1/2.  That
    is not proven here: ``lightest_bin_select`` confirms it at powers of two,
    but under the split preset it fails at other (k, g), e.g. (1024, 70).

    Returns (bias bound, bracket size of the tournament bound).
    """
    if not 1 <= g <= k:
        raise ValueError("need 1 <= g <= k")
    if g == 1:
        ksub = tournament_size(k)
        return tournament_bound(ksub)[1], ksub
    ksub = tournament_size(committee_threshold(k, g, threshold_factor))
    return 0.5 - 0.5 * tournament_bound(ksub)[0], ksub


def tournament_size(k: int) -> int:
    """Smallest admissible bracket size >= k (power of two, >= 8)."""
    return max(8, 1 << (max(k, 1) - 1).bit_length())
