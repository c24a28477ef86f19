import tracemalloc

import numpy as np
import pytest

from qcoinflip.protocols import (
    KPartyProtocol,
    alice_announces,
    announce_kparty,
    penalty_protocol,
    penalty_protocol_compact4,
    protocol_to_json,
)
from qcoinflip.quantum import CNOT, DensityMatrix, HilbertLayout, StateVector, embed_operator
from qcoinflip.sdp import Constraint, LinearTerm, SdpProblem, restrict


def random_state(layout: HilbertLayout, rng) -> StateVector:
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return StateVector(layout, amps / np.linalg.norm(amps))


def embedded_operator(op: np.ndarray, dims, factors) -> np.ndarray:
    """Oracle of ``quantum.embed_operator``: op (x) 1 on (factors, rest),
    its rows and columns then moved back to the original factor order."""
    dims = tuple(dims)
    rest = [i for i in range(len(dims)) if i not in factors]
    big = np.kron(op, np.eye(int(np.prod([dims[i] for i in rest]))))
    # entry k of the grouped order is entry perm[k] of the original one
    perm = np.arange(int(np.prod(dims))).reshape(dims).transpose(list(factors) + rest).reshape(-1)
    inv = np.argsort(perm)
    return big[np.ix_(inv, inv)]


def density_matrix(state: StateVector) -> DensityMatrix:
    """|psi><psi| as a DensityMatrix."""
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    return DensityMatrix(state.layout, rho)


def random_density(layout: HilbertLayout, rng, rank: int | None = None) -> DensityMatrix:
    d = layout.dim
    rank = d if rank is None else rank
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    mat = a @ a.conj().T
    return DensityMatrix(layout, mat / np.trace(mat).real)


def random_unitary(d: int, rng) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def haar_random_protocol(rng, parties=((2, 2), (2,)), message: int = 2, turns=(0, 1, 0, 1)) -> KPartyProtocol:
    """Parties whose unitaries are Haar-random, drawn in turn order, with ``parties`` each
    party's factor dims and ``message`` the dimension of M; each party's projectors split
    its space in halves.  The cheat SDPs have complex data and no structural zeros to
    split on."""
    layouts = tuple(HilbertLayout(dims) for dims in parties)
    unitaries = tuple(random_unitary(layouts[i].dim * message, rng) for i in turns)
    halves = [np.arange(lay.dim) < lay.dim // 2 for lay in layouts]
    projectors = tuple((np.diag(half).astype(complex), np.diag(~half).astype(complex)) for half in halves)
    return KPartyProtocol(layouts, HilbertLayout((message,)), turns, unitaries, projectors, name="haar-random")


def random_hermitian(d: int, rng) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def pile_choices(n_dishonest: int, current_round: int, bins: int) -> np.ndarray:
    """Per-player oracle of ``pile_strategy``: every dishonest player takes bin round % bins."""
    return np.full(n_dishonest, current_round % bins, dtype=np.int64)


def split_choices(n_dishonest: int, current_round: int, bins: int) -> np.ndarray:
    """Per-player oracle of ``split_strategy``: dishonest player i takes bin (i + round) % bins."""
    return (np.arange(n_dishonest, dtype=np.int64) + current_round) % bins


PER_PLAYER_CHOICES = {"pile": pile_choices, "split": split_choices}


def lightest_bin_per_player(k: int, g: int, bins: int, threshold: int, rng, choices) -> tuple:
    """Oracle of one ``lightest_bin_select`` run that simulates every player.

    Players 0..g-1 are honest and draw their bins one by one; the rest take
    ``choices(n_dishonest, round, bins)``.  The lightest occupied bin wins
    (lowest index on ties).  Stops at most ``threshold`` players, or once no
    honest player is left.  Returns (committee size, honest members).
    """
    players = np.arange(k)
    honest = players < g
    current_round = 0
    while players.size > threshold and honest.any():
        picked = np.empty(players.size, dtype=np.int64)
        n_honest = int(honest.sum())
        picked[honest] = rng.integers(bins, size=n_honest)
        picked[~honest] = choices(players.size - n_honest, current_round, bins)
        counts = np.bincount(picked, minlength=bins)
        occupied = np.flatnonzero(counts > 0)
        keep = picked == occupied[np.argmin(counts[occupied])]
        players = players[keep]
        honest = honest[keep]
        current_round += 1
    return players.size, int(honest.sum())


def full_space_cheat_sdp(protocol, honest: int, target: int) -> SdpProblem:
    """Oracle of ``lowerbound.cheat_sdp`` on the whole honest view, unreduced.

    Built from the protocol's own fields: the honest party's turns, whose
    unitaries act on its private space (x) M, and its projectors placed with
    ``embed_operator``.  So it checks the support reduction.  The private
    marginals are pinned to rank-deficient targets, so the solver may stall
    here where the reduced form converges.
    """
    layout = protocol.layouts[honest].concat(protocol.layout_m)
    priv = tuple(range(protocol.layouts[honest].nfactors))
    unitaries = [u for t, u in zip(protocol.turns, protocol.unitaries) if t == honest]
    proj = protocol.projectors[honest]
    d_priv = proj[0].shape[0]
    e0 = np.zeros((d_priv, d_priv), dtype=complex)
    e0[0, 0] = 1.0
    n = len(unitaries)
    blocks = tuple((f"rho_{j}", layout.dim) for j in range(n + 1))
    constraints = [Constraint("round_0", (LinearTerm("rho_0", kept=d_priv),), e0)]
    for j in range(1, n + 1):
        terms = (
            LinearTerm(f"rho_{j}", kept=d_priv),
            LinearTerm(f"rho_{j - 1}", -1.0, unitaries[j - 1], d_priv),
        )
        constraints.append(Constraint(f"round_{j}", terms, np.zeros((d_priv, d_priv), dtype=complex)))
    objective = {f"rho_{n}": embed_operator(proj[target], layout.factor_dims, priv)}
    return SdpProblem(blocks=blocks, objective=objective, constraints=tuple(constraints))


def assert_sub_arrays(problem: SdpProblem, restricted: SdpProblem, block_sectors: dict, constraint_sectors: dict):
    """Every number of ``restricted`` is an entry of ``problem``: each objective,
    term operator and right-hand side is ``np.array_equal`` to the parent's
    array fancy-indexed by the sectors, with ``op`` None read as the identity.

    The indices of a restricted block, joined or not, are read off a copy of
    the problem whose objectives are diag(0, 1, ...), restricted alike: its
    sub-blocks' diagonals are the indices they were gathered from.
    """
    dims = dict(problem.blocks)
    labelled = SdpProblem(
        problem.blocks, {name: np.diag(np.arange(d, dtype=float)) for name, d in problem.blocks}, problem.constraints
    )
    labels = restrict(labelled, block_sectors, constraint_sectors).objective
    indices = {name: np.diag(c).astype(int) for name, c in labels.items()}
    assert [name for name, _ in restricted.blocks] == list(indices)
    for name, d in restricted.blocks:
        parent = name.split("/")[0]
        assert d == len(indices[name])
        if parent in problem.objective:
            sub = np.asarray(problem.objective[parent])[np.ix_(indices[name], indices[name])]
            assert np.array_equal(restricted.objective[name], sub)
    parents = {con.name: con for con in problem.constraints}
    for con in restricted.constraints:
        parent = parents[con.name.split("/")[0]]
        keep = constraint_sectors[parent.name][int(con.name.split("/")[1])] if "/" in con.name else None
        n = int(np.sqrt(np.size(parent.rhs)))
        rhs = np.reshape(parent.rhs, (n, n))
        assert np.array_equal(con.rhs, rhs if keep is None else rhs[np.ix_(keep, keep)])
        for term in con.terms:
            cols = indices[term.block]
            block = term.block.split("/")[0]
            candidates = []
            for t in parent.terms:
                if t.block != block or t.coeff != term.coeff:
                    continue
                k = np.eye(dims[block]) if t.op is None else t.op
                dk = len(k) if t.kept is None else t.kept
                if keep is not None:
                    k = k.reshape(dk, -1, dims[block])[keep].reshape(-1, dims[block])
                candidates.append(k[:, cols])
            op = np.eye(len(cols)) if term.op is None else term.op
            assert any(np.array_equal(op, k) for k in candidates), (con.name, term.block)


def dense_rows(comp) -> np.ndarray:
    """Oracle of a compiled problem's map A as an explicit matrix.

    Row r is conj(vec(A*(e_r))), so rows @ vec(X) = A(X) with the blocks'
    row-major entries concatenated.  Each row is built from the problem's
    terms of the one constraint that owns coordinate r, one coordinate at a
    time: c K^dag (E_r (x) 1) K with E_r the coordinate's unit matrix and
    ``op`` None read as the identity.
    """
    index = {name: i for i, name in enumerate(comp.block_names)}
    offsets = np.cumsum([0] + [d * d for d in comp.block_dims])
    rows = np.zeros((comp.m, offsets[-1]), dtype=comp.dtype)
    for c, (con, sl) in enumerate(zip(comp.problem.constraints, comp.slices)):
        units = comp._matrix(c, np.eye(sl.stop - sl.start))
        for term in con.terms:
            i = index[term.block]
            k = np.eye(comp.block_dims[i]) if term.op is None else np.asarray(term.op)
            k = k.real if comp.dtype == np.float64 else k
            traced = np.eye(len(k) // len(units[0]))
            for r, unit in zip(range(sl.start, sl.stop), units):
                lifted = term.coeff * k.conj().T @ np.kron(unit, traced) @ k
                rows[r, offsets[i] : offsets[i + 1]] += lifted.ravel().conj()
    return rows


def overflowing_r(monkeypatch):
    """Scale the frame R that ``_nt_scaling`` returns by 1e300; W, S^-1 and d stay as they are."""
    from qcoinflip import sdp

    real_scaling = sdp._nt_scaling

    def scaled(lx, s):
        w, sinv, r, d = real_scaling(lx, s)
        return w, sinv, 1e300 * r, d

    monkeypatch.setattr(sdp, "_nt_scaling", scaled)


def merge_cheaters(protocol: KPartyProtocol, honest: int) -> KPartyProtocol:
    """Oracle of the coalition view: fuse every party but ``honest`` into one.

    Returns the two-party protocol whose party 0 is the honest party and
    whose party 1 holds the other parties' spaces in ascending order.  The
    honest party keeps its unitaries; each run of adjacent turns by other
    parties composes into one unitary on (others..., M).  Its cheat SDP with
    party 0 honest is built from the same honest turns as the k-party one,
    and its honest run reproduces the k-party run (up to factor ordering).
    """
    others = [i for i in range(protocol.k) if i != honest]
    fused = protocol.layouts[others[0]]
    for i in others[1:]:
        fused = fused.concat(protocol.layouts[i])
    fused_dims = fused.factor_dims + protocol.layout_m.factor_dims
    message = tuple(range(fused.nfactors, len(fused_dims)))
    factors = {}  # party -> its factors within the fused space
    for i in others:
        start = sum(len(f) for f in factors.values())
        factors[i] = tuple(range(start, start + protocol.layouts[i].nfactors))

    turns, unitaries = [], []
    for turn, u in zip(protocol.turns, protocol.unitaries):
        if turn == honest:
            turns.append(0)
            unitaries.append(u)
            continue
        u = embed_operator(u, fused_dims, factors[turn] + message)
        if turns and turns[-1] == 1:
            unitaries[-1] = u @ unitaries[-1]
        else:
            turns.append(1)
            unitaries.append(u)

    rep = others[0]  # any fused party's projector represents the coalition outcome
    return KPartyProtocol(
        layouts=(protocol.layouts[honest], fused),
        layout_m=protocol.layout_m,
        turns=tuple(turns),
        unitaries=tuple(unitaries),
        projectors=(
            protocol.projectors[honest],
            tuple(embed_operator(p, fused.factor_dims, factors[rep]) for p in protocol.projectors[rep]),
        ),
        name=f"{protocol.name}-honest{honest}",
    )


def relayed_penalty_protocol() -> KPartyProtocol:
    """A k = 3 protocol whose cheat SDPs differ per party: ``penalty_protocol(16)``,
    then party 0 writes its outcome o onto the emptied bit channel and a
    third party copies that bit as its own outcome (turns 0, 1, 0, 1, 0, 2).

    After the fourth turn the verifier has banked the bit channel, which
    holds 0 again, so the relay CNOTs leave o in both places.
    """
    base = penalty_protocol(16.0)
    dims_am = base.layouts[0].factor_dims + base.layout_m.factor_dims  # (o, q1, buf, chan, bit)
    dims_cm = (2,) + base.layout_m.factor_dims  # (copy, chan, bit)
    outcome = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    return KPartyProtocol(
        layouts=base.layouts + (HilbertLayout((2,)),),
        layout_m=base.layout_m,
        turns=base.turns + (0, 2),
        unitaries=base.unitaries + (embed_operator(CNOT, dims_am, (0, 4)), embed_operator(CNOT, dims_cm, (2, 0))),
        projectors=base.projectors + (outcome,),
        name="penalty-v16-relayed",
    )


# protocols whose cheat SDPs the tests solve and split, each with its number of parties
COMPARISON_SET = {
    "v16": (lambda: penalty_protocol(16.0), 2),
    "v25": (lambda: penalty_protocol(25.0), 2),
    "compact4": (penalty_protocol_compact4, 2),
    "announces": (alice_announces, 2),
    "announce3": (lambda: announce_kparty(3), 3),
    "relayed": (relayed_penalty_protocol, 3),
}


class UnionFind:
    """A plain-loop union-find over items 0..n-1: the oracle of vectorised partitions."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> bool:
        """Join the classes of i and j; whether they were apart."""
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        self.parent[max(ri, rj)] = min(ri, rj)
        return True

    def labels(self) -> np.ndarray:
        """Each item's class, named by its least item."""
        return np.array([self.find(i) for i in range(len(self.parent))])


def dense_json(array) -> list:
    """A matrix in the dense protocol-file form: row-major nested [re, im] pairs."""
    arr = np.asarray(array, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def dense_protocol_json(protocol) -> dict:
    """``protocol_to_json`` with every matrix in the dense form."""
    data = protocol_to_json(protocol)
    data["unitaries"] = [dense_json(u) for u in protocol.unitaries]
    data["projectors"] = [[dense_json(p) for p in pair] for pair in protocol.projectors]
    return data


def two_party_dict(protocol) -> dict:
    """The legacy ``"two-party"`` file of a protocol with turns 0, 1, 0, 1, ...,
    its matrices in the dense form.

    That format keeps Bob's unitaries on M (x) B; they are moved there from
    the protocol's B (x) M by an index transpose, independently of the
    reordering the library applies when it reads the file.
    """
    assert protocol.turns == (0, 1) * (len(protocol.turns) // 2)
    (lay_a, lay_b), lay_m = protocol.layouts, protocol.layout_m
    db, dm = lay_b.dim, lay_m.dim

    def message_first(u):
        return u.reshape(db, dm, db, dm).transpose(1, 0, 3, 2).reshape(dm * db, dm * db)

    return {
        "kind": "two-party",
        "name": protocol.name,
        "dims": {"a": list(lay_a.factor_dims), "m": list(lay_m.factor_dims), "b": list(lay_b.factor_dims)},
        "unitaries_a": [dense_json(u) for u in protocol.unitaries[0::2]],
        "unitaries_b": [dense_json(message_first(u)) for u in protocol.unitaries[1::2]],
        "projectors": {side: [dense_json(p) for p in pair] for side, pair in zip("ab", protocol.projectors)},
    }


def alloc_peak_bytes(fn) -> int:
    """Peak Python-visible allocation (tracemalloc, numpy buffers included) during ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
