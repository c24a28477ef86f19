"""The k-party quantum broadcast channel and its pairwise emulations.

A broadcast of alpha|0> + beta|1> creates the shared state
alpha|0^k> + beta|1^k> (one qubit per party; not k copies).  The channel is
interchangeable with pairwise quantum channels plus classical broadcast:

- one broadcast use  <->  2(k-1) pairwise-channel uses (fan-out + phase fix),
- one classical broadcast  <->  one broadcast use (send a basis state),
- one pairwise quantum channel  <->  k+1 broadcast uses (shared-pair
  extraction, then teleportation over two classically broadcast bits).

Each emulation returns a transcript of events {round, actor, action,
classical_bits, use_count}, so the counts and the phase-randomization
countermeasure can be checked directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantum import (
    StateVector,
    apply_unitary,
    as_rng,
    measure,
    qubits,
    tensor,
)

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class BroadcastState:
    """Shared k-qubit state with a factor -> party ownership map."""

    k: int
    state: StateVector
    ownership: dict

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("broadcast needs at least two parties")
        owned = sorted(self.ownership.keys())
        if owned != list(range(self.state.layout.nfactors)):
            raise ValueError("ownership must cover every factor exactly once")


@dataclass(frozen=True)
class PartyRole:
    """A party and, when cheating, its declarative action schedule.

    A schedule is a sequence of ("unitary", U, factors) and
    ("measure", factors) steps touching only the party's own factors;
    that is all the dishonest-case arguments need, and it keeps strategies
    comparable across the channel and its emulations.
    """

    id: int
    honesty: str = "honest"  # "honest" | "cheating"
    strategy: tuple = ()


def apply_strategy(shared: BroadcastState, role: PartyRole, rng):
    """Run a cheating party's schedule; returns (state, outcomes recorded)."""
    rng = as_rng(rng)
    owned = {f for f, p in shared.ownership.items() if p == role.id}
    state = shared.state
    outcomes = []
    for step in role.strategy:
        kind, *rest = step
        if kind == "unitary":
            op, factors = rest
            if not set(factors) <= owned:
                raise ValueError(f"party {role.id} may only act on its own factors")
            state = apply_unitary(state, op, factors)
        elif kind == "measure":
            (factors,) = rest
            if not set(factors) <= owned:
                raise ValueError(f"party {role.id} may only measure its own factors")
            bits, state = measure(state, factors, rng)
            outcomes.extend(bits)
        else:
            raise ValueError(f"unknown strategy step {kind!r}")
    return BroadcastState(shared.k, state, shared.ownership), outcomes


def _event(round_, actor, action, bits=(), uses=0):
    return {
        "round": round_,
        "actor": actor,
        "action": action,
        "classical_bits": list(bits),
        "use_count": uses,
    }


def broadcast_qubit(alpha: complex, beta: complex, k: int) -> BroadcastState:
    """Exact channel output alpha|0^k> + beta|1^k>."""
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-10:
        raise ValueError("|alpha|^2 + |beta|^2 must be 1")
    if k < 2:
        raise ValueError("broadcast needs at least two parties")
    amps = np.zeros(2**k, dtype=complex)
    amps[0] = alpha
    amps[-1] = beta
    return BroadcastState(k, StateVector(qubits(k), amps), {i: i for i in range(k)})


def emulate_broadcast_pairwise(alpha, beta, k, rng, apply_parity_fix: bool = True):
    """Simulate one broadcast with 2(k-1) pairwise-channel uses.

    The sender fans the qubit out with CNOTs and ships one qubit to each
    recipient; every recipient flips a private bit r_j and applies a phase
    flip when r_j = 1, returning r_j; the sender restores the overall phase
    when the parity of the r_j is odd.  With the fix disabled the state is
    left phase-damaged, which is what the randomization is for.
    """
    rng = as_rng(rng)
    if k < 2:
        raise ValueError("broadcast needs at least two parties")
    state = StateVector(
        qubits(k),
        np.kron([alpha, beta], StateVector.basis(qubits(k - 1), (0,) * (k - 1)).amplitudes),
    )
    transcript = [_event(0, 0, "fan-out", uses=0)]
    uses = 0
    for j in range(1, k):
        state = apply_unitary(state, CNOT, (0, j))
        uses += 1
        transcript.append(_event(0, 0, f"send qubit to {j}", uses=uses))
    flips = []
    for j in range(1, k):
        r = int(rng.integers(2))
        flips.append(r)
        if r:
            state = apply_unitary(state, SIGMA_Z, (j,))
        uses += 1
        transcript.append(_event(1, j, "randomize phase, return bit", bits=[r], uses=uses))
    parity = sum(flips) % 2
    if apply_parity_fix and parity:
        state = apply_unitary(state, SIGMA_Z, (0,))
    transcript.append(_event(2, 0, "parity fix" if apply_parity_fix else "parity fix disabled",
                             bits=[parity], uses=uses))
    return BroadcastState(k, state, {i: i for i in range(k)}), transcript


def classical_broadcast(b: int, k: int, rng):
    """Broadcast a classical bit: send |b> and let everyone measure.

    Returns (outcomes per party, transcript); the channel is used once.
    """
    if b not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    rng = as_rng(rng)
    shared = broadcast_qubit(1.0 - b, 1.0 * b, k)
    state = shared.state
    outcomes = []
    for j in range(k):
        (bit,), state = measure(state, (j,), rng)
        outcomes.append(bit)
    transcript = [_event(0, 0, "broadcast basis state", bits=[b], uses=1)]
    transcript.append(_event(1, -1, "all parties measure", bits=outcomes, uses=1))
    return outcomes, transcript


def establish_epr(i: int, j: int, k: int, rng):
    """Extract a shared pair between parties i and j from one broadcast.

    Party i broadcasts (|0>+|1>)/sqrt2; the other k-2 parties rotate to the
    +/- basis, measure, and broadcast their results; party i flips the phase
    when the parity of the helpers' bits is odd.  Costs k-1 broadcast uses
    and leaves the helpers unentangled.

    Returns (pair_state on (i, j), residual, transcript, uses); the residual
    is the helpers' basis state (a StateVector on the helpers in party
    order), or None when k = 2.
    """
    rng = as_rng(rng)
    if not (0 <= i < k and 0 <= j < k) or i == j or k < 2:
        raise ValueError("need two distinct parties among k >= 2")
    shared = broadcast_qubit(1 / np.sqrt(2), 1 / np.sqrt(2), k)
    state = shared.state
    uses = 1
    transcript = [_event(0, i, "broadcast (|0>+|1>)/sqrt2", uses=uses)]
    helpers = [p for p in range(k) if p not in (i, j)]
    results = []
    for h in helpers:
        state = apply_unitary(state, HADAMARD, (h,))
        (bit,), state = measure(state, (h,), rng)
        results.append(bit)
        uses += 1
        transcript.append(_event(1, h, "hadamard, measure, broadcast result", bits=[bit], uses=uses))
    parity = sum(results) % 2
    if parity:
        state = apply_unitary(state, SIGMA_Z, (i,))
    transcript.append(_event(2, i, "conditional phase fix", bits=[parity], uses=uses))
    pair_state, residual = state.split((i, j))
    return pair_state, residual, transcript, uses


EPR = StateVector(qubits(2), np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def teleport(payload: StateVector, epr: StateVector, rng):
    """Teleport a single qubit through a shared pair with two classical bits.

    ``payload`` may carry extra reference factors (its first factor is sent);
    they ride along, so entanglement with the payload is preserved.  Returns
    (received_state, (bit_z, bit_x), transcript): in ``received_state`` the
    received qubit replaces the payload factor, references keep their places.
    """
    rng = as_rng(rng)
    if epr.layout.factor_dims != (2, 2):
        raise ValueError("the shared pair must be two qubits")
    if epr.fidelity(EPR) < 1.0 - 1e-10:
        raise ValueError("shared pair is too degraded to teleport through")
    if payload.layout.factor_dims[0] != 2:
        raise ValueError("payload factor must be a qubit")
    nref = payload.layout.nfactors - 1
    joint = tensor(payload, epr)  # [payload, refs..., pair_sender, pair_receiver]
    s, r = nref + 1, nref + 2
    joint = apply_unitary(joint, CNOT, (0, s))
    joint = apply_unitary(joint, HADAMARD, (0,))
    (bit_z,), joint = measure(joint, (0,), rng)
    (bit_x,), joint = measure(joint, (s,), rng)
    if bit_x:
        joint = apply_unitary(joint, PAULI_X, (r,))
    if bit_z:
        joint = apply_unitary(joint, SIGMA_Z, (r,))
    # received qubit takes the payload's slot; measured ancillas are dropped
    received_state, _ancillas = joint.split((r,) + tuple(range(1, nref + 1)))
    transcript = [
        _event(0, "sender", "bell measurement", bits=[bit_z, bit_x], uses=0),
        _event(1, "sender", "send two classical bits", bits=[bit_z, bit_x], uses=2),
        _event(2, "receiver", "conditional corrections", bits=[bit_x, bit_z], uses=2),
    ]
    return received_state, (bit_z, bit_x), transcript


def simulate_quantum_channel_via_qbc(i: int, j: int, payload: StateVector, k: int, rng):
    """Send one qubit from party i to party j using only broadcasts.

    Composition: establish the shared pair (k-1 broadcast uses), then
    teleport (2 classically broadcast bits): k+1 uses in total.

    Returns (received_state, uses, transcript).
    """
    rng = as_rng(rng)
    pair, _residual, transcript, uses = establish_epr(i, j, k, rng)
    received, bits, tele_events = teleport(payload, pair, rng)
    uses += 2
    transcript = transcript + tele_events
    return received, uses, transcript
