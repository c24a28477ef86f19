"""Turn-based coin-flipping protocols and concrete encodings.

A protocol has one private space per party and a message space M, laid out
P_0 (x) ... (x) P_{k-1} (x) M.  Turn j lets party turns[j] apply unitaries[j]
on its private space (x) M; each party ends with an outcome projector pair
on its private space.  Starting from |0...0>, the turns must leave a state
on which every party's outcome projectors agree and give each outcome equal
weight.  A two-party protocol is the k = 2 case with turns 0, 1, 0, 1, ...:
``two_party`` builds it from Alice's unitaries on A (x) M and Bob's on
M (x) B, reordering Bob's to B (x) M once.

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
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .penalty import PenaltyGame, commit_state
from .quantum import (
    CNOT,
    HADAMARD,
    PAULI_X,
    HilbertLayout,
    StateVector,
    apply_local,
    complex_from_json,
    complex_to_json,
    embed_operator,
    projector,
    swap_gate,
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
    if not np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= UNITARITY_TOL:  # NaN fails too
        raise ValueError(f"{label}: not unitary within {UNITARITY_TOL}")


def _check_projector_pair(p0: np.ndarray, p1: np.ndarray, dim: int, label: str):
    for tag, p in (("0", p0), ("1", p1)):
        if p.shape != (dim, dim):
            raise ValueError(f"{label}{tag}: wrong shape {p.shape}")
        if not (np.max(np.abs(p - p.conj().T)) <= 1e-10 and np.max(np.abs(p @ p - p)) <= 1e-9):
            raise ValueError(f"{label}{tag}: not an orthogonal projector")
    if not np.max(np.abs(p0 @ p1)) <= 1e-9:
        raise ValueError(f"{label}: outcome projectors overlap")


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
        for j, t in enumerate(self.turns):
            if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
                raise ValueError(f"turns[{j}]: party index {t!r} is not an integer")
        object.__setattr__(self, "turns", tuple(int(t) for t in self.turns))
        object.__setattr__(self, "unitaries", tuple(np.asarray(u, dtype=complex) for u in self.unitaries))
        object.__setattr__(
            self,
            "projectors",
            tuple(tuple(np.asarray(p, dtype=complex) for p in pair) for pair in self.projectors),
        )
        if k < 2:
            raise ValueError("need at least two parties")
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


def two_party(layout_a, layout_m, layout_b, unitaries_a, unitaries_b, proj_a, proj_b, name="") -> KPartyProtocol:
    """The k = 2 protocol with turns 0, 1, 0, 1, ...: one round pair per U_A[j], U_B[j].

    Alice's unitaries act on A (x) M and Bob's on M (x) B; Bob's are reordered
    to B (x) M here, once, so each party's unitaries act on its space (x) M.
    """
    if len(unitaries_a) != len(unitaries_b):
        raise ValueError("need the same number of rounds on both sides")
    dm, db = layout_m.dim, layout_b.dim
    reordered = []
    for j, u in enumerate(unitaries_b):
        u = np.asarray(u, dtype=complex)
        _check_unitary(u, dm * db, f"U_B[{j}]")
        reordered.append(u.reshape(dm, db, dm, db).transpose(1, 0, 3, 2).reshape(db * dm, db * dm))
    return KPartyProtocol(
        layouts=(layout_a, layout_b),
        layout_m=layout_m,
        turns=(0, 1) * len(reordered),
        unitaries=tuple(u for pair in zip(unitaries_a, reordered) for u in pair),
        projectors=(proj_a, proj_b),
        name=name,
    )


def honest_run(protocol: KPartyProtocol):
    """Joint amplitudes from |0> at every turn boundary: before the first
    turn, then after each turn, len(turns) + 1 vectors in all."""
    layout = protocol.full_layout
    amps = StateVector.basis(layout, (0,) * layout.nfactors).amplitudes
    yield amps
    for t, u in zip(protocol.turns, protocol.unitaries):  # the unitaries were checked when the protocol was built
        amps = apply_local(u, amps, layout.factor_dims, protocol.party_factors(t) + protocol.message_factors())
        yield amps


def honest_state(protocol: KPartyProtocol, j: int) -> StateVector:
    """Joint state from |0> after the first j turns (0 <= j <= len(turns))."""
    if not 0 <= j <= len(protocol.turns):
        raise ValueError(f"turn index {j} out of range")
    return StateVector(protocol.full_layout, next(islice(honest_run(protocol), j, None)))


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    checks: tuple  # (condition name, ok, residual)
    p0: float
    p1: float
    p_abort: float


def validate_protocol(protocol: KPartyProtocol) -> ValidationReport:
    """Check the honest-run conditions; violations are reported, not raised.

    Conditions per outcome bit: every pair of parties' projections of the
    final state coincide; and the two outcomes carry equal weight (both
    within AGREEMENT_TOL).  p0 and p1 are party 0's outcome weights.
    """
    final = honest_state(protocol, len(protocol.turns))
    dims = final.layout.factor_dims
    projected = {
        (i, bit): apply_local(protocol.projectors[i][bit], final.amplitudes, dims, protocol.party_factors(i))
        for i in range(protocol.k)
        for bit in (0, 1)
    }
    checks = []
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


# ---------------------------------------------------------------------------
# small circuit helpers


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


def alice_announces() -> KPartyProtocol:
    """One round pair: flip locally, copy to the message, copy to the peer."""
    h_then_copy = controlled_by_factor((2, 2), 0, {1: (PAULI_X, (1,))})
    u_a = h_then_copy @ embed_operator(HADAMARD, (2, 2), (0,))
    u_b = CNOT  # message controls, private target
    pa = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    return two_party(
        layout_a=HilbertLayout((2,)),
        layout_m=HilbertLayout((2,)),
        layout_b=HilbertLayout((2,)),
        unitaries_a=(u_a,),
        unitaries_b=(u_b,),
        proj_a=pa,
        proj_b=pa,
        name="alice-announces",
    )


def penalty_protocol(v: float) -> KPartyProtocol:
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
    send_b = embed_operator(CNOT, dims_mb, (3, 1))
    u_b1 = send_b @ flip_b @ bank_qutrit

    # U_A2 on (o, q1, buf, chan, bit)
    fold_b = embed_operator(CNOT, dims_am, (4, 0))
    write_a = embed_operator(CNOT, dims_am, (0, 4))
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

    return two_party(
        layout_a=lay_a,
        layout_m=lay_m,
        layout_b=lay_b,
        unitaries_a=(u_a1, u_a2),
        unitaries_b=(u_b1, u_b2),
        proj_a=proj_a,
        proj_b=tuple(proj_b),
        name=f"penalty-v{v:g}",
    )


def penalty_protocol_compact4() -> KPartyProtocol:
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
        embed_operator(CNOT, dims_am, (0, 2))
        @ embed_operator(CNOT, dims_am, (0, 1))
        @ embed_operator(HADAMARD, dims_am, (0,))
    )
    dims_mb = (2, 2, 2, 2)  # (chan, q2, b, q1)
    u_b1 = (
        embed_operator(CNOT, dims_mb, (2, 0))
        @ embed_operator(HADAMARD, dims_mb, (2,))
        @ embed_operator(swap_gate(2), dims_mb, (0, 1))
    )
    u_a2 = embed_operator(swap_gate(2), dims_am, (1, 2)) @ embed_operator(CNOT, dims_am, (2, 0))
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

    return two_party(
        layout_a=lay_a,
        layout_m=lay_m,
        layout_b=lay_b,
        unitaries_a=(u_a1, u_a2),
        unitaries_b=(u_b1, u_b2),
        proj_a=proj_a,
        proj_b=tuple(proj_b),
        name="penalty-v4-compact",
    )


def announce_kparty(k: int = 3) -> KPartyProtocol:
    """Party 0 flips locally and announces; everyone copies the message."""
    flip_and_copy = CNOT @ embed_operator(HADAMARD, (2, 2), (0,))
    copy_from_message = embed_operator(CNOT, (2, 2), (1, 0))
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


def protocol_to_json(protocol: KPartyProtocol) -> dict:
    """The ``"k-party"`` description, each matrix as its nonzero entries
    (``quantum.complex_to_json``)."""
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


def _matrices(items) -> tuple:
    return tuple(complex_from_json(m) for m in items)


# required fields per kind: the keys an object-valued field needs, and the field's parser
_FIELDS = {
    "two-party": {
        "dims": (("a", "m", "b"), lambda dims: tuple(HilbertLayout(tuple(dims[side])) for side in "amb")),
        "unitaries_a": ((), _matrices),
        "unitaries_b": ((), _matrices),
        "projectors": (("a", "b"), lambda proj: (_matrices(proj["a"]), _matrices(proj["b"]))),
    },
    "k-party": {
        "dims": (
            ("parties", "m"),
            lambda dims: (tuple(HilbertLayout(tuple(d)) for d in dims["parties"]), HilbertLayout(tuple(dims["m"]))),
        ),
        "turns": ((), tuple),
        "unitaries": ((), _matrices),
        "projectors": ((), lambda proj: tuple(_matrices(pair) for pair in proj)),
    },
}


def protocol_from_json(data) -> KPartyProtocol:
    """Parse a protocol description; raises ProtocolFormatError naming every
    missing or malformed field.

    ``"two-party"`` descriptions (Bob's unitaries on M (x) B) are read
    through ``two_party``; ``protocol_to_json`` writes ``"k-party"`` only.
    Each matrix may be sparse (an object listing its nonzero entries, the
    form written) or dense (row-major nested [re, im] pairs), decided per
    matrix by ``quantum.complex_from_json``; either passes the same
    unitarity and projector checks.
    """
    if not isinstance(data, dict):
        raise ProtocolFormatError([f"expected a JSON object, got {type(data).__name__}"])
    if "kind" not in data:
        raise ProtocolFormatError(["missing field 'kind'"])
    kind = data["kind"]
    fields = _FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ProtocolFormatError([f"unknown protocol kind {kind!r}"])
    problems, parsed = [], {}
    for key, (parts, parse) in fields.items():
        if key not in data:
            problems.append(f"missing field {key!r}")
        elif parts and not isinstance(data[key], dict):
            problems.append(f"field {key!r} must be an object")
        elif any(part not in data[key] for part in parts):
            problems.extend(f"missing field {key}.{part!r}" for part in parts if part not in data[key])
        else:
            try:
                parsed[key] = parse(data[key])
            except (TypeError, ValueError) as exc:
                problems.append(f"field {key!r}: {exc}")
    name = data.get("name", "")
    if not isinstance(name, str):
        problems.append("field 'name' must be a string")
    if problems:
        raise ProtocolFormatError(problems)
    try:
        if kind == "two-party":
            proj_a, proj_b = parsed["projectors"]
            return two_party(*parsed["dims"], parsed["unitaries_a"], parsed["unitaries_b"], proj_a, proj_b, name)
        layouts, layout_m = parsed["dims"]
        return KPartyProtocol(layouts, layout_m, parsed["turns"], parsed["unitaries"], parsed["projectors"], name)
    except (TypeError, ValueError) as exc:
        raise ProtocolFormatError([str(exc)]) from exc


def load_protocol(path) -> KPartyProtocol:
    """Read a protocol file; OSError if it cannot be opened, else ProtocolFormatError if malformed."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ProtocolFormatError([f"not valid JSON: {exc}"]) from exc
    return protocol_from_json(data)


def save_protocol(protocol: KPartyProtocol, path):
    """Write ``protocol_to_json(protocol)``: a ``"k-party"`` file whose
    matrices list only their nonzero entries."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(protocol_to_json(protocol), handle)
