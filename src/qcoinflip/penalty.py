"""Two-party coin flipping with penalty for cheating.

A caught cheater pays ``v`` coins; otherwise the winner of the coin gets one
coin.  The sender commits to her bit with the two-qutrit state

    |commit_a> = sqrt(delta)|a,a> + sqrt(1-delta)|2,2>,   delta = 2/sqrt(v),

sends the second register, receives the responder's bit, then opens.  The
responder's best attack is a Helstrom measurement on the received register
(expected win exactly 1/2 + 1/sqrt(v)); the sender's best attack is the
optimum of a small SDP whose closed-form dual certificate bounds her
expected win by lambda/2 - v <= 1/2 + 1/(8 sqrt(v)).

All payoffs are in coins so SDP values compare directly to the bounds.
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
)
from .sdp import Constraint, DualCertificate, LinearTerm, SdpProblem

PAIR = HilbertLayout((3, 3))
QUTRIT = HilbertLayout((3,))


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

    Objective: sum_{a,b} (1/2)([a==b] + v) <commit_a| rho_{ba} |commit_a> - v,
    which is exactly her expected payoff, so honest play scores 1/2.
    """
    v = game.v
    blocks = [("tau", QUTRIT)]
    objective = {}
    constraints = [
        Constraint("normalization", (LinearTerm("tau", 1.0, None, None, ()),), np.array([[1.0]]))
    ]
    for b in (0, 1):
        terms = []
        for a in (0, 1):
            name = f"rho_{b}{a}"
            blocks.append((name, PAIR))
            objective[name] = 0.5 * ((1.0 if a == b else 0.0) + v) * projector(commit_state(a, game))
            terms.append(LinearTerm(name, 1.0, None, None, (1,)))
        terms.append(LinearTerm("tau", -1.0))
        constraints.append(
            Constraint(f"sent_register_{b}", tuple(terms), np.zeros((3, 3), dtype=complex))
        )
    return SdpProblem(
        blocks=tuple(blocks),
        objective=objective,
        constraints=tuple(constraints),
        objective_constant=-v,
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
    root = math.sqrt(4.0 - 4.0 * delta + (delta + 2.0 * delta * v) ** 2)
    m0 = 0.5 * (1.0 + v) * (2.0 - delta * (1.0 + 2.0 * v) + root)
    m1 = 0.5 * v * (2.0 + delta + 2.0 * delta * v - root)
    lam = m0 + m1
    return CertificateScalars(m0, m1, 0.5 * (m0 + m1), lam, 0.5 * lam - v)


def dual_certificate(game: PenaltyGame) -> DualCertificate:
    """Dual feasible point for ``alice_attack_sdp`` built from the closed forms.

    The multipliers are diagonal on the sent register, mirrored between the
    two responder answers, and the pair-space multipliers are identity (x)
    diag.  Its bound is the payoff bound lambda/2 - v.
    """
    scal = certificate_scalars(game.v)
    m_0 = np.diag([scal.m0, scal.m1, scal.m2]).astype(complex)
    m_1 = np.diag([scal.m1, scal.m0, scal.m2]).astype(complex)
    multipliers = {
        "normalization": 0.5 * scal.lam,
        "sent_register_0": 0.5 * m_0,
        "sent_register_1": 0.5 * m_1,
    }
    return DualCertificate(multipliers=multipliers, claimed_value=scal.payoff_bound)


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
