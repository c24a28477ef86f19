"""Two-party coin flipping with penalty for cheating.

A caught cheater pays ``v`` coins; otherwise the winner of the coin gets one
coin.  The sender commits to her bit with the two-qutrit state

    |commit_a> = sqrt(delta)|a,a> + sqrt(1-delta)|2,2>,   delta = 2/sqrt(v),

sends the second register, receives the responder's bit, then opens.  The
responder's best attack is a Helstrom measurement on the received register
(expected win exactly 1/2 + 1/sqrt(v)); the sender's best attack is the
optimum of a small SDP whose closed-form dual certificate bounds her
expected win by lambda/2 - v <= 1/2 + 1/(8 sqrt(v)).

All payoffs are in coins so SDP values compare directly to the bounds.  The
sender's payoff, her win less v times the chance she is caught, is the SDP
objective <C, X> itself; the certificate's multipliers carry the matching
-v shifts, so its value b.y is lambda/2 - v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantum import (
    HilbertLayout,
    StateVector,
    as_rng,
    helstrom,
    projector,
    swap_gate,
)
from .sdp import Constraint, LinearTerm, SdpProblem

PAIR = HilbertLayout((3, 3))


@dataclass(frozen=True)
class PenaltyGame:
    """Finite penalty parameter v >= 4 and the derived hiding weight delta = 2/sqrt(v)."""

    v: float

    def __post_init__(self):
        if not math.isfinite(self.v) or self.v < 4:
            raise ValueError(f"penalty must be finite and >= 4 (so 0 < delta <= 1), got {self.v}")

    @property
    def delta(self) -> float:
        return 2.0 / math.sqrt(self.v)


@dataclass(frozen=True)
class PenaltyTranscript:
    a: int
    b: int
    verification: str  # "passed" | "failed"
    outcome: int | None  # coin bit, None on abort
    payoff_alice: float
    payoff_bob: float


def commit_state(a: int, game: PenaltyGame) -> StateVector:
    """sqrt(delta)|a,a> + sqrt(1-delta)|2,2> on a qutrit pair."""
    if a not in (0, 1):
        raise ValueError(f"commit bit must be 0 or 1, got {a}")
    d = game.delta
    amps = np.zeros(9, dtype=complex)
    amps[4 * a] = math.sqrt(d)  # |aa>
    amps[8] = math.sqrt(1.0 - d)  # |22>
    return StateVector(PAIR, amps)


def received_register_state(a: int, game: PenaltyGame):
    """Responder's view of the commitment: the second register's mixed state."""
    return commit_state(a, game).reduced((1,))


def run_honest(game: PenaltyGame, rng) -> PenaltyTranscript:
    """Honest run: the responder's check projects the commitment onto itself,
    so it passes with probability 1 and the outcome is a XOR b."""
    rng = as_rng(rng)
    a = int(rng.integers(2))
    b = int(rng.integers(2))
    outcome = a ^ b
    alice_wins = outcome == 0
    return PenaltyTranscript(
        a,
        b,
        "passed",
        outcome,
        1.0 if alice_wins else 0.0,
        0.0 if alice_wins else 1.0,
    )


@dataclass(frozen=True)
class BobAttack:
    """Helstrom discrimination of the two possible received registers."""

    guess_projectors: tuple
    expected_win: float


def bob_attack(game: PenaltyGame) -> BobAttack:
    """Optimal responder attack: guess the committed bit, answer its opposite.

    The responder risks nothing (his message is classical), so his expected
    win equals his guessing probability 1/2 + 1/sqrt(v).  The value returned
    is evaluated directly from the measurement, not from the formula.
    """
    rho0 = received_register_state(0, game)
    rho1 = received_register_state(1, game)
    meas = helstrom(rho0, rho1)
    win = 0.5 * float(
        np.real(np.trace(meas.projector_0 @ rho0.matrix) + np.trace(meas.projector_1 @ rho1.matrix))
    )
    return BobAttack((meas.projector_0, meas.projector_1), win)


def alice_attack_sdp(game: PenaltyGame) -> SdpProblem:
    """The sender's optimal-cheat SDP, in coins.

    Variables: tau, the register she sends (trace one on the responder's
    qutrit), and rho_{b a}, the sub-normalized pair states the responder
    checks after he said b and she opened a.  Having sent the register, she
    can no longer touch it, whatever she does privately:

        tr_first(rho_{b0} + rho_{b1}) = tau     for b in {0, 1}.

    Objective: her win less v times the chance she is caught.  With P_a the
    projector onto |commit_a>,

        C_{ba} = (1/2)[a==b] P_a - (v/2)(1 - P_a),

    and sum_{a,b} <C_{ba}, rho_{ba}> is exactly her expected payoff (each
    answer b has probability 1/2, and the rho_{ba} of one b sum to trace 1),
    so honest play scores 1/2.

    tau enters as the partial trace of a 9 x 9 PSD block T, tau = tr_2 T,
    and the block keeps the name ``tau``.  Every PSD tau is tr_2 T for some
    PSD T (T = tau (x) 1/3), and tr T = tr tau, so the feasible rho_{ba} and
    the optimum are those of a 3 x 3 tau.  The dual is unchanged too: with
    Z_b the multiplier of ``sent_register_b``, the slack on T is
    (y_norm 1 - Z_0 - Z_1) (x) 1_3, PSD exactly when the 3 x 3 slack is, so
    ``dual_certificate`` serves both forms.  The lift puts all five blocks at
    size 9, so ``solve`` runs them as one stack; an iterate's cost follows
    its number of stacks far more than their block sizes.
    """
    v = game.v
    eye = np.eye(PAIR.dim)
    sent_first = swap_gate(3)  # (held, sent) -> (sent, held): keep the sent register, trace hers
    blocks = [("tau", PAIR.dim)]
    objective = {}
    constraints = [Constraint("normalization", (LinearTerm("tau", kept=1),), np.array([[1.0]]))]
    for b in (0, 1):
        terms = []
        for a in (0, 1):
            name = f"rho_{b}{a}"
            blocks.append((name, PAIR.dim))
            p_a = projector(commit_state(a, game))
            objective[name] = 0.5 * (1.0 if a == b else 0.0) * p_a - 0.5 * v * (eye - p_a)
            terms.append(LinearTerm(name, 1.0, sent_first, 3))
        terms.append(LinearTerm("tau", -1.0, None, 3))  # tr_2 T
        constraints.append(
            Constraint(f"sent_register_{b}", tuple(terms), np.zeros((3, 3), dtype=complex))
        )
    return SdpProblem(
        blocks=tuple(blocks),
        objective=objective,
        constraints=tuple(constraints),
    )


# ---------------------------------------------------------------------------
# closed-form dual certificate


@dataclass(frozen=True)
class CertificateScalars:
    m0: float
    m1: float
    m2: float
    lam: float
    payoff_bound: float


def certificate_scalars(v: float) -> CertificateScalars:
    """The closed-form diagonal dual solution for penalty v >= 4."""
    if v < 4:
        raise ValueError("penalty must be >= 4")
    delta = 2.0 / math.sqrt(v)
    a = delta * (1.0 + 2.0 * v)
    # root - a for root = sqrt(4 - 4 delta + a^2), without subtracting two O(sqrt v) numbers
    r = (4.0 - 4.0 * delta) / (a + math.sqrt(4.0 - 4.0 * delta + a * a))
    m0 = 0.5 * (1.0 + v) * (2.0 + r)
    m1 = 0.5 * v * (2.0 - r)
    lam = m0 + m1
    return CertificateScalars(m0, m1, 0.5 * (m0 + m1), lam, 0.5 * lam - v)


def dual_certificate(game: PenaltyGame) -> dict:
    """Dual feasible point for ``alice_attack_sdp`` built from the closed forms.

    The multipliers are diagonal on the sent register, mirrored between the
    two responder answers (m_0 = diag(m0, m1, m2), m_1 = diag(m1, m0, m2)),
    and shifted by the objective's -(v/2)(1 - P_a) term:

        normalization = lambda/2 - v,   sent_register_b = (1/2) m_b - (v/2) 1.

    So its value b.y is the payoff bound lambda/2 - v, as ``verify_dual``
    computes it.
    """
    v = game.v
    scal = certificate_scalars(v)
    m_0 = np.diag([scal.m0, scal.m1, scal.m2]).astype(complex)
    m_1 = np.diag([scal.m1, scal.m0, scal.m2]).astype(complex)
    eye = np.eye(3)
    return {
        "normalization": 0.5 * scal.lam - v,
        "sent_register_0": 0.5 * m_0 - 0.5 * v * eye,
        "sent_register_1": 0.5 * m_1 - 0.5 * v * eye,
    }


def lambda_ceiling(v: float) -> float:
    """Closed-form upper envelope for the dual objective: 2v + 1 + 1/(4 sqrt v)."""
    return 2.0 * v + 1.0 + 0.25 / math.sqrt(v)


@dataclass(frozen=True)
class WinBounds:
    bob: float
    alice: float
    alice_chain: float  # the sharper constant from the dual-certificate chain


def expected_win_bound(v: float) -> WinBounds:
    """Cheating-side expected-win ceilings for penalty v >= 4.

    ``bob`` is exact (1/2 + 1/sqrt v); ``alice`` is the smaller of the same
    expression and the certificate value lambda/2 - v; ``alice_chain`` is the
    closed-form envelope 1/2 + 1/(8 sqrt v) of the latter.
    """
    if v < 4:
        raise ValueError("penalty must be >= 4")
    bob = 0.5 + 1.0 / math.sqrt(v)
    scal = certificate_scalars(v)
    return WinBounds(
        bob=bob,
        alice=min(bob, scal.payoff_bound),
        alice_chain=0.5 + 1.0 / (8.0 * math.sqrt(v)),
    )
