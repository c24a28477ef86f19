"""Unitary-round coin-flipping protocols and concrete encodings.

A 2N-round two-party protocol is a tuple of round unitaries U_{A,j} on
A (x) M and U_{B,j} on M (x) B plus final projector pairs on each private
space; starting from |0...0> and alternating the unitaries must leave a
state on which both parties' outcome projectors agree and give each outcome
equal weight.  The k-party variant has one private space per party and a
turn sequence saying who touches the message space when.

Encodings provided:

- ``alice_announces``: one party flips locally and announces the result.
- ``penalty_protocol``: the two-qutrit commit/reveal penalty game, with the
  opened bit riding the message register's spare level.
- ``penalty_protocol_compact4``: the penalty game at penalty 4, where the
  commitment states are orthogonal qubit pairs and the verifier needs no
  separate record of the opened bit (small spaces, cheap cheat SDPs).
- ``announce_kparty``: one of k parties announces a locally flipped coin.

Measurements are dilated into the unitaries with appended ancilla factors;
abort is the projector complement, so it never needs its own register.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .penalty import PenaltyGame, commit_state
from .quantum import (
    HilbertLayout,
    StateVector,
    apply_local,
    complex_from_json,
    complex_to_json,
    embed_operator,
    projector,
)

UNITARITY_TOL = 1e-10
AGREEMENT_TOL = 1e-9


class ProtocolFormatError(ValueError):
    """Malformed protocol description; ``problems`` lists every issue found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _check_unitary(u: np.ndarray, dim: int, label: str):
    if u.shape != (dim, dim):
        raise ValueError(f"{label}: expected shape ({dim}, {dim}), got {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(dim))) > UNITARITY_TOL:
        raise ValueError(f"{label}: not unitary within {UNITARITY_TOL}")


def _check_projector_pair(p0: np.ndarray, p1: np.ndarray, dim: int, label: str):
    for tag, p in (("0", p0), ("1", p1)):
        if p.shape != (dim, dim):
            raise ValueError(f"{label}{tag}: wrong shape {p.shape}")
        if np.max(np.abs(p - p.conj().T)) > 1e-10 or np.max(np.abs(p @ p - p)) > 1e-9:
            raise ValueError(f"{label}{tag}: not an orthogonal projector")
    if np.max(np.abs(p0 @ p1)) > 1e-9:
        raise ValueError(f"{label}: outcome projectors overlap")


@dataclass(frozen=True)
class TwoPartyProtocol:
    """2N-round protocol: alternating unitaries plus outcome projectors."""

    layout_a: HilbertLayout
    layout_m: HilbertLayout
    layout_b: HilbertLayout
    unitaries_a: tuple
    unitaries_b: tuple
    proj_a: tuple  # (outcome-0 projector, outcome-1 projector) on A
    proj_b: tuple
    name: str = ""

    def __post_init__(self):
        da, dm, db = self.layout_a.dim, self.layout_m.dim, self.layout_b.dim
        if len(self.unitaries_a) != len(self.unitaries_b):
            raise ValueError("need the same number of rounds on both sides")
        object.__setattr__(self, "unitaries_a", tuple(np.asarray(u, dtype=complex) for u in self.unitaries_a))
        object.__setattr__(self, "unitaries_b", tuple(np.asarray(u, dtype=complex) for u in self.unitaries_b))
        object.__setattr__(self, "proj_a", tuple(np.asarray(p, dtype=complex) for p in self.proj_a))
        object.__setattr__(self, "proj_b", tuple(np.asarray(p, dtype=complex) for p in self.proj_b))
        for j, u in enumerate(self.unitaries_a):
            _check_unitary(u, da * dm, f"U_A[{j}]")
        for j, u in enumerate(self.unitaries_b):
            _check_unitary(u, dm * db, f"U_B[{j}]")
        _check_projector_pair(*self.proj_a, da, "proj_a ")
        _check_projector_pair(*self.proj_b, db, "proj_b ")

    @property
    def rounds(self) -> int:
        return len(self.unitaries_a)

    @property
    def full_layout(self) -> HilbertLayout:
        return self.layout_a.concat(self.layout_m).concat(self.layout_b)


def honest_state(protocol: TwoPartyProtocol, j: int) -> StateVector:
    """Joint state from |0> after round pair j (0 <= j <= rounds)."""
    if not 0 <= j <= protocol.rounds:
        raise ValueError(f"round index {j} out of range")
    layout = protocol.full_layout
    dims = layout.factor_dims
    na, nm = protocol.layout_a.nfactors, protocol.layout_m.nfactors
    a_factors = tuple(range(na + nm))
    b_factors = tuple(range(na, layout.nfactors))
    amps = StateVector.basis(layout, (0,) * layout.nfactors).amplitudes
    for r in range(j):  # the unitaries were checked when the protocol was built
        amps = apply_local(protocol.unitaries_a[r], amps, dims, a_factors)
        amps = apply_local(protocol.unitaries_b[r], amps, dims, b_factors)
    return StateVector(layout, amps)


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    checks: tuple  # (condition name, ok, residual)
    p0: float
    p1: float
    p_abort: float


def _outcome_amplitudes(protocol: TwoPartyProtocol, state: StateVector, bit: int):
    dims, n = state.layout.factor_dims, state.layout.nfactors
    a_factors = tuple(range(protocol.layout_a.nfactors))
    b_factors = tuple(range(n - protocol.layout_b.nfactors, n))
    return (
        apply_local(protocol.proj_a[bit], state.amplitudes, dims, a_factors),
        apply_local(protocol.proj_b[bit], state.amplitudes, dims, b_factors),
    )


def validate_protocol(protocol: TwoPartyProtocol) -> ValidationReport:
    """Check the honest-run conditions; violations are reported, not raised.

    Conditions per outcome bit: Alice's and Bob's projections of the final
    state coincide; and the two outcomes carry equal weight (both within
    AGREEMENT_TOL).
    """
    final = honest_state(protocol, protocol.rounds)
    checks = []
    norms = []
    for bit in (0, 1):
        va, vb = _outcome_amplitudes(protocol, final, bit)
        residual = float(np.linalg.norm(va - vb))
        checks.append((f"agreement_outcome_{bit}", residual <= AGREEMENT_TOL, residual))
        norms.append(float(np.linalg.norm(va) ** 2))
    balance = abs(norms[0] - norms[1])
    checks.append(("equal_outcome_weights", balance <= AGREEMENT_TOL, balance))
    valid = all(ok for _, ok, _ in checks)
    return ValidationReport(
        valid=valid,
        checks=tuple(checks),
        p0=norms[0],
        p1=norms[1],
        p_abort=max(0.0, 1.0 - norms[0] - norms[1]),
    )


# ---------------------------------------------------------------------------
# small circuit helpers


def swap_gate(d: int) -> np.ndarray:
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[j * d + i, i * d + j] = 1.0
    return s


def xor_gate() -> np.ndarray:
    """CNOT on a qubit pair (control first)."""
    g = np.zeros((4, 4), dtype=complex)
    for c in range(2):
        for t in range(2):
            g[2 * c + (t ^ c), 2 * c + t] = 1.0
    return g


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def controlled_by_factor(dims, control: int, branches: dict) -> np.ndarray:
    """Unitary acting as branches[v] (an (op, factors) pair) when the control
    factor holds v; missing branch values act as identity."""
    dims = tuple(dims)
    total = int(np.prod(dims))
    out = np.zeros((total, total), dtype=complex)
    eye = np.eye(dims[control])
    for v in range(dims[control]):
        pv = np.outer(eye[v], eye[v])
        sel = embed_operator(pv, dims, (control,))
        if v in branches:
            op, factors = branches[v]
            out += sel @ embed_operator(op, dims, factors)
        else:
            out += sel
    return out


def unitary_with_first_column(vec: np.ndarray) -> np.ndarray:
    """Deterministic unitary completion: column 0 equals ``vec``."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    d = vec.size
    basis = np.eye(d, dtype=complex)
    cols = [vec]
    for e in basis.T:
        w = e.astype(complex)
        for c in cols:
            w = w - c * np.vdot(c, w)
        nrm = np.linalg.norm(w)
        if nrm > 1e-9:
            cols.append(w / nrm)
        if len(cols) == d:
            break
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# encodings


def alice_announces() -> TwoPartyProtocol:
    """One round pair: flip locally, copy to the message, copy to the peer."""
    h_then_copy = controlled_by_factor((2, 2), 0, {1: (np.array([[0, 1], [1, 0]], dtype=complex), (1,))})
    u_a = h_then_copy @ embed_operator(HADAMARD, (2, 2), (0,))
    u_b = xor_gate()  # message controls, private target
    pa = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    return TwoPartyProtocol(
        layout_a=HilbertLayout((2,)),
        layout_m=HilbertLayout((2,)),
        layout_b=HilbertLayout((2,)),
        unitaries_a=(u_a,),
        unitaries_b=(u_b,),
        proj_a=pa,
        proj_b=pa,
        name="alice-announces",
    )


def penalty_protocol(v: float) -> TwoPartyProtocol:
    """The commit/reveal penalty game in unitary-round form.

    Factor plan (outcome register o holds the sender's bit, then gets the
    peer's bit XORed in):

        A = (o: 2, q1: 3, buf: 3)   sender's bit/outcome, unopened qutrit,
                                    and a private preparation buffer
        M = (chan: 3, bit: 2)       qutrit channel and classical-bit channel
        B = (q2: 3, b: 2, q1: 3, a: 2)   verifier's storage

    Round 1: sender superposes her bit, prepares the commitment on her
    private (q1, buf) pair and swaps the buffer onto the channel (preparing
    in private space matters: the peer controls the channel's prior
    content, so preparing in place would hand him a side channel); verifier
    banks the qutrit, flips b, sends it back.  Round 2: sender folds b into
    her outcome, writes her opened bit onto the bit channel (XOR trickery
    keeps it unitary), ships q1; verifier banks both.  Outcomes: sender
    reads o; verifier accepts outcome c exactly when the banked pair
    matches the commitment for his recorded a with a+b = c.
    """
    game = PenaltyGame(v)
    lay_a = HilbertLayout((2, 3, 3))
    lay_m = HilbertLayout((3, 2))
    lay_b = HilbertLayout((3, 2, 3, 2))

    # U_A1 on (o, q1, buf, chan, bit)
    dims_am = (2, 3, 3, 3, 2)
    prep = {
        a: (unitary_with_first_column(commit_state(a, game).amplitudes), (1, 2))
        for a in (0, 1)
    }
    u_a1 = (
        embed_operator(swap_gate(3), dims_am, (2, 3))
        @ controlled_by_factor(dims_am, 0, prep)
        @ embed_operator(HADAMARD, dims_am, (0,))
    )

    # U_B1 on (chan, bit, q2, b, q1, a)
    dims_mb = (3, 2, 3, 2, 3, 2)
    bank_qutrit = embed_operator(swap_gate(3), dims_mb, (0, 2))
    flip_b = embed_operator(HADAMARD, dims_mb, (3,))
    send_b = embed_operator(xor_gate(), dims_mb, (3, 1))
    u_b1 = send_b @ flip_b @ bank_qutrit

    # U_A2 on (o, q1, buf, chan, bit)
    fold_b = embed_operator(xor_gate(), dims_am, (4, 0))
    write_a = embed_operator(xor_gate(), dims_am, (0, 4))
    ship_q1 = embed_operator(swap_gate(3), dims_am, (1, 3))
    u_a2 = ship_q1 @ write_a @ fold_b

    # U_B2 on (chan, bit, q2, b, q1, a)
    bank_q1 = embed_operator(swap_gate(3), dims_mb, (0, 4))
    bank_a = embed_operator(swap_gate(2), dims_mb, (1, 5))
    u_b2 = bank_a @ bank_q1

    proj_a = tuple(
        embed_operator(np.diag([1.0 - c, 1.0 * c]).astype(complex), (2, 3, 3), (0,)) for c in (0, 1)
    )
    dims_b = (3, 2, 3, 2)
    proj_b = []
    for c in (0, 1):
        total = np.zeros((lay_b.dim, lay_b.dim), dtype=complex)
        for a in (0, 1):
            b = a ^ c
            pair = embed_operator(projector(commit_state(a, game)), dims_b, (2, 0))  # (q1, q2)
            mark_b = embed_operator(np.diag([1.0 - b, 1.0 * b]).astype(complex), dims_b, (1,))
            mark_a = embed_operator(np.diag([1.0 - a, 1.0 * a]).astype(complex), dims_b, (3,))
            total += pair @ mark_b @ mark_a
        proj_b.append(total)

    return TwoPartyProtocol(
        layout_a=lay_a,
        layout_m=lay_m,
        layout_b=lay_b,
        unitaries_a=(u_a1, u_a2),
        unitaries_b=(u_b1, u_b2),
        proj_a=proj_a,
        proj_b=tuple(proj_b),
        name=f"penalty-v{v:g}",
    )


def penalty_protocol_compact4() -> TwoPartyProtocol:
    """Penalty game at v = 4: orthogonal qubit commitments, minimal spaces.

    With the commitments |00> and |11> orthogonal, the verifier can read the
    opened bit off the pair itself, so nothing but (q2, b, q1) needs storing
    and the message register is a single qubit.
    """
    lay_a = HilbertLayout((2, 2))
    lay_m = HilbertLayout((2,))
    lay_b = HilbertLayout((2, 2, 2))

    dims_am = (2, 2, 2)  # (o, q1, chan)
    u_a1 = (
        embed_operator(xor_gate(), dims_am, (0, 2))
        @ embed_operator(xor_gate(), dims_am, (0, 1))
        @ embed_operator(HADAMARD, dims_am, (0,))
    )
    dims_mb = (2, 2, 2, 2)  # (chan, q2, b, q1)
    u_b1 = (
        embed_operator(xor_gate(), dims_mb, (2, 0))
        @ embed_operator(HADAMARD, dims_mb, (2,))
        @ embed_operator(swap_gate(2), dims_mb, (0, 1))
    )
    u_a2 = embed_operator(swap_gate(2), dims_am, (1, 2)) @ embed_operator(xor_gate(), dims_am, (2, 0))
    u_b2 = embed_operator(swap_gate(2), dims_mb, (0, 3))

    proj_a = tuple(
        embed_operator(np.diag([1.0 - c, 1.0 * c]).astype(complex), (2, 2), (0,)) for c in (0, 1)
    )
    dims_b = (2, 2, 2)  # (q2, b, q1)
    pair_states = {a: StateVector.basis(HilbertLayout((2, 2)), (a, a)) for a in (0, 1)}
    proj_b = []
    for c in (0, 1):
        total = np.zeros((8, 8), dtype=complex)
        for b in (0, 1):
            a = b ^ c
            pair = embed_operator(projector(pair_states[a]), dims_b, (2, 0))  # (q1, q2)
            mark_b = embed_operator(np.diag([1.0 - b, 1.0 * b]).astype(complex), dims_b, (1,))
            total += pair @ mark_b
        proj_b.append(total)

    return TwoPartyProtocol(
        layout_a=lay_a,
        layout_m=lay_m,
        layout_b=lay_b,
        unitaries_a=(u_a1, u_a2),
        unitaries_b=(u_b1, u_b2),
        proj_a=proj_a,
        proj_b=tuple(proj_b),
        name="penalty-v4-compact",
    )


# ---------------------------------------------------------------------------
# k-party protocols


@dataclass(frozen=True)
class KPartyProtocol:
    """Turn-based protocol: party turns[j] applies unitaries[j] on its space (x) M."""

    layouts: tuple  # one HilbertLayout per party
    layout_m: HilbertLayout
    turns: tuple
    unitaries: tuple
    projectors: tuple  # one (outcome-0, outcome-1) pair per party
    name: str = ""

    def __post_init__(self):
        k = len(self.layouts)
        object.__setattr__(self, "turns", tuple(int(t) for t in self.turns))
        object.__setattr__(self, "unitaries", tuple(np.asarray(u, dtype=complex) for u in self.unitaries))
        object.__setattr__(
            self,
            "projectors",
            tuple(tuple(np.asarray(p, dtype=complex) for p in pair) for pair in self.projectors),
        )
        if len(self.turns) != len(self.unitaries):
            raise ValueError("one unitary per turn required")
        if len(self.projectors) != k:
            raise ValueError("one projector pair per party required")
        for j, (t, u) in enumerate(zip(self.turns, self.unitaries)):
            if not 0 <= t < k:
                raise ValueError(f"turn {j}: party index {t} out of range")
            _check_unitary(u, self.layouts[t].dim * self.layout_m.dim, f"U[{j}]")
        for i, pair in enumerate(self.projectors):
            _check_projector_pair(*pair, self.layouts[i].dim, f"projector[{i}] ")

    @property
    def k(self) -> int:
        return len(self.layouts)

    @property
    def full_layout(self) -> HilbertLayout:
        layout = self.layouts[0]
        for extra in self.layouts[1:]:
            layout = layout.concat(extra)
        return layout.concat(self.layout_m)

    def party_factors(self, i: int):
        start = sum(self.layouts[p].nfactors for p in range(i))
        return tuple(range(start, start + self.layouts[i].nfactors))

    def message_factors(self):
        start = sum(lay.nfactors for lay in self.layouts)
        return tuple(range(start, start + self.layout_m.nfactors))


def honest_state_kparty(protocol: KPartyProtocol, j: int | None = None) -> StateVector:
    if j is None:
        j = len(protocol.turns)
    layout = protocol.full_layout
    amps = StateVector.basis(layout, (0,) * layout.nfactors).amplitudes
    for r in range(j):  # the unitaries were checked when the protocol was built
        factors = protocol.party_factors(protocol.turns[r]) + protocol.message_factors()
        amps = apply_local(protocol.unitaries[r], amps, layout.factor_dims, factors)
    return StateVector(layout, amps)


def validate_kparty(protocol: KPartyProtocol) -> ValidationReport:
    """Pairwise agreement and balance conditions on the honest final state, within AGREEMENT_TOL."""
    final = honest_state_kparty(protocol)
    dims = final.layout.factor_dims
    checks = []
    projected = {}
    for i in range(protocol.k):
        for bit in (0, 1):
            op = protocol.projectors[i][bit]
            projected[(i, bit)] = apply_local(op, final.amplitudes, dims, protocol.party_factors(i))
    for bit in (0, 1):
        for i in range(protocol.k):
            for i2 in range(i + 1, protocol.k):
                residual = float(np.linalg.norm(projected[(i, bit)] - projected[(i2, bit)]))
                checks.append((f"agreement_{i}_{i2}_outcome_{bit}", residual <= AGREEMENT_TOL, residual))
    p0 = float(np.linalg.norm(projected[(0, 0)]) ** 2)
    p1 = float(np.linalg.norm(projected[(0, 1)]) ** 2)
    checks.append(("equal_outcome_weights", abs(p0 - p1) <= AGREEMENT_TOL, abs(p0 - p1)))
    return ValidationReport(
        valid=all(ok for _, ok, _ in checks),
        checks=tuple(checks),
        p0=p0,
        p1=p1,
        p_abort=max(0.0, 1.0 - p0 - p1),
    )


def announce_kparty(k: int = 3) -> KPartyProtocol:
    """Party 0 flips locally and announces; everyone copies the message."""
    if k < 2:
        raise ValueError("need at least two parties")
    flip_and_copy = xor_gate() @ embed_operator(HADAMARD, (2, 2), (0,))
    copy_from_message = embed_operator(xor_gate(), (2, 2), (1, 0))
    pa = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    return KPartyProtocol(
        layouts=tuple(HilbertLayout((2,)) for _ in range(k)),
        layout_m=HilbertLayout((2,)),
        turns=tuple(range(k)),
        unitaries=(flip_and_copy,) + tuple(copy_from_message for _ in range(k - 1)),
        projectors=tuple(pa for _ in range(k)),
        name=f"announce-{k}party",
    )


# ---------------------------------------------------------------------------
# JSON protocol files


def two_party_to_json(protocol: TwoPartyProtocol) -> dict:
    return {
        "kind": "two-party",
        "name": protocol.name,
        "dims": {
            "a": list(protocol.layout_a.factor_dims),
            "m": list(protocol.layout_m.factor_dims),
            "b": list(protocol.layout_b.factor_dims),
        },
        "unitaries_a": [complex_to_json(u) for u in protocol.unitaries_a],
        "unitaries_b": [complex_to_json(u) for u in protocol.unitaries_b],
        "projectors": {
            "a": [complex_to_json(p) for p in protocol.proj_a],
            "b": [complex_to_json(p) for p in protocol.proj_b],
        },
    }


def kparty_to_json(protocol: KPartyProtocol) -> dict:
    return {
        "kind": "k-party",
        "name": protocol.name,
        "dims": {
            "parties": [list(lay.factor_dims) for lay in protocol.layouts],
            "m": list(protocol.layout_m.factor_dims),
        },
        "turns": list(protocol.turns),
        "unitaries": [complex_to_json(u) for u in protocol.unitaries],
        "projectors": [[complex_to_json(p) for p in pair] for pair in protocol.projectors],
    }


def _require(data: dict, key: str, problems: list):
    if key not in data:
        problems.append(f"missing field {key!r}")
        return None
    return data[key]


def protocol_from_json(data: dict):
    """Parse a protocol description; raises ProtocolFormatError naming every
    missing or malformed field."""
    problems = []
    kind = _require(data, "kind", problems)
    if problems:
        raise ProtocolFormatError(problems)
    if kind == "two-party":
        dims = _require(data, "dims", problems) or {}
        for part in ("a", "m", "b"):
            if part not in dims:
                problems.append(f"missing field dims.{part!r}")
        ua = _require(data, "unitaries_a", problems)
        ub = _require(data, "unitaries_b", problems)
        projs = _require(data, "projectors", problems) or {}
        for part in ("a", "b"):
            if part not in projs:
                problems.append(f"missing field projectors.{part!r}")
        if problems:
            raise ProtocolFormatError(problems)
        try:
            return TwoPartyProtocol(
                layout_a=HilbertLayout(tuple(dims["a"])),
                layout_m=HilbertLayout(tuple(dims["m"])),
                layout_b=HilbertLayout(tuple(dims["b"])),
                unitaries_a=tuple(complex_from_json(u) for u in ua),
                unitaries_b=tuple(complex_from_json(u) for u in ub),
                proj_a=tuple(complex_from_json(p) for p in projs["a"]),
                proj_b=tuple(complex_from_json(p) for p in projs["b"]),
                name=data.get("name", ""),
            )
        except ValueError as exc:
            raise ProtocolFormatError([str(exc)]) from exc
    if kind == "k-party":
        dims = _require(data, "dims", problems) or {}
        for part in ("parties", "m"):
            if part not in dims:
                problems.append(f"missing field dims.{part!r}")
        turns = _require(data, "turns", problems)
        unitaries = _require(data, "unitaries", problems)
        projectors = _require(data, "projectors", problems)
        if problems:
            raise ProtocolFormatError(problems)
        try:
            return KPartyProtocol(
                layouts=tuple(HilbertLayout(tuple(d)) for d in dims["parties"]),
                layout_m=HilbertLayout(tuple(dims["m"])),
                turns=tuple(turns),
                unitaries=tuple(complex_from_json(u) for u in unitaries),
                projectors=tuple(tuple(complex_from_json(p) for p in pair) for pair in projectors),
                name=data.get("name", ""),
            )
        except ValueError as exc:
            raise ProtocolFormatError([str(exc)]) from exc
    raise ProtocolFormatError([f"unknown protocol kind {kind!r}"])


def load_protocol(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ProtocolFormatError([f"not valid JSON: {exc}"]) from exc
    return protocol_from_json(data)


def save_protocol(protocol, path):
    data = two_party_to_json(protocol) if isinstance(protocol, TwoPartyProtocol) else kparty_to_json(protocol)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
