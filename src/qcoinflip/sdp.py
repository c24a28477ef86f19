"""Small dense semidefinite programs with verified dual certificates.

Problems have the shape needed by the cheating-strategy analyses: maximize
<C, X> over several PSD blocks X subject to affine equality constraints
A(X) = b, whose linear maps are sums of X -> c tr_2(K X K^dag): sandwich by
a matrix K whose image splits as (kept) (x) (traced), kept factor first,
then trace the second factor out.  A block is a name and a dimension, a term
a matrix and a kept dimension; which tensor factors those are, and moving
the kept ones first, is the caller's business (``quantum`` owns factor
order), so this module sees matrices only.

The solver is a primal-dual interior-point method (Nesterov-Todd scaling,
infeasible start, Mehrotra's predictor-corrector with its second-order
term, as SDPT3 runs it): robustness over speed, which is the right trade at
total block dimensions of a few hundred.  Each iterate works in the NT
frame, where X and S are one diagonal matrix, and makes two LU solves of the
Schur system: the predictor's and the centering's right-hand sides together,
then the second-order term's; numpy is the only dependency.
Dual feasible points can be checked independently of the solver
(``verify_dual``), so a certificate bound never relies on the code path it
is validating.

The terms define the problem, and every map reads them: per block, their
distinct operators are stacked into one tall K (``_Compiled``).  A(X) is K X
K^dag per stack of equal-size blocks and one gather, A*(y) one bincount and
K^dag D K per stack, and the Schur matrix, as SDPA and SDPT3 assemble it from
structured constraint data, K W K^dag per stack and one batched Gram matrix
per pair of constraint sizes: calls follow stacks and shapes, not terms.
``verify_dual`` runs none of these maps: it sums each block's slack from the
terms, c K^dag (Z (x) 1) K with Z (x) 1 applied in its Kronecker form.

Every constraint has real coordinates, as SDPT3 gives a Hermitian value
(``_coordinate_map``).  When every objective, term operator and right-hand
side is real, X -> Re X keeps a feasible point feasible with the same value,
so the blocks are float64 and a d x d constraint owns the d(d+1)/2
upper-triangle entries of its value, off-diagonal ones weighted by sqrt(2)
(svec).  Otherwise the blocks are complex and a constraint owns d^2 real
coordinates: the diagonal, and sqrt(2) Re and sqrt(2) Im of each entry
above it.  Either way b, y, A(X) and the Schur matrix are float64, the
Schur system is real symmetric, and a multiplier rebuilt from y is
Hermitian by construction.

A certificate is its multipliers y: a dict of one Hermitian matrix (or
scalar) per constraint name, and its value is the b.y that ``verify_dual``
computes.  ``verify_dual`` reads the multipliers as given, so a complex
multiplier is checked on real data too.

A problem with zeros can be solved on its sectors: ``sectors`` reads off the
zeros the finest index sets that pinching respects, ``restrict`` splits
blocks and constraints into sub-blocks on them, gathering their entries,
and ``expand_multipliers`` places the split problem's multipliers in the
original's, where ``verify_dual`` checks them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

FEAS_TOL = 1e-8
CERT_TOL = 1e-9
GAP_TOL = 1e-7
MAX_ITER = 500
RESTRICT_TOL = 1e-12  # a restricted term this small, relative to its operator, is left out


# ---------------------------------------------------------------------------
# problem description


@dataclass(frozen=True)
class LinearTerm:
    """One summand of a constraint map: X |-> coeff * tr_2(K X K^dag).

    ``op`` (K) defaults to the block's identity and needs as many columns as
    the block's dimension.  Its image splits as (kept) (x) (traced), the
    kept factor first, with ``kept`` the kept dimension, which must divide
    K's row count: ``None`` keeps the whole image, 1 is the full trace.
    """

    block: str
    coeff: float = 1.0
    op: np.ndarray | None = None
    kept: int | None = None


@dataclass(frozen=True)
class Constraint:
    """Affine equality: sum of term maps equals a fixed Hermitian matrix."""

    name: str
    terms: tuple[LinearTerm, ...]
    rhs: np.ndarray


@dataclass(frozen=True)
class SdpProblem:
    """maximize sum_i tr(C_i X_i)  s.t.  constraints, X_i >= 0.

    ``blocks`` holds one (name, dimension) pair per PSD block.
    """

    blocks: tuple[tuple[str, int], ...]
    objective: dict
    constraints: tuple[Constraint, ...]


@dataclass(frozen=True)
class SdpSolution:
    primal_value: float
    dual_value: float
    primal_blocks: dict
    dual_multipliers: dict
    # converged | infeasible (b off the range of A, found by the pre-check at every size,
    # iterations 0) | max-iterations, or the guard that stopped the loop early:
    # stall | non-finite-schur | schur-singular | non-finite-direction (a direction, or
    # its scaled form in the step-length test, not finite) | mu-blowup
    status: str
    iterations: int
    residuals: dict


@dataclass(frozen=True)
class DualReport:
    feasible: bool
    lambda_min: dict
    bound: float


# ---------------------------------------------------------------------------
# restriction to symmetry sectors


def _zero_level(mat) -> float:
    """Entries of ``mat`` (a term operator, ``None`` for the identity, an objective or a
    right-hand side) at most this large are zeros to ``sectors`` and ``restrict``:
    ``RESTRICT_TOL`` times its largest entry, or times 1 if that is smaller."""
    return RESTRICT_TOL * (1.0 if mat is None else max(1.0, float(np.max(np.abs(mat)))))


def sectors(problem: SdpProblem):
    """The finest sectors of ``problem`` its zeros allow, as ``restrict`` takes them:
    (block name -> index arrays Q_c, constraint name -> index arrays P_a of its kept
    factor), each listed only where it has more than one, in order of least index.

    Read each term's K as rows (p, t), p kept and t traced.  The objectives
    are zero between different Q_c and the right-hand sides between
    different P_a; for every term and t the columns of the rows (P_a, t) lie
    in one Q_c, and the rows of t whose columns meet one Q_c in one P_a.  So
    the pinching X -> sum_c Q_c X Q_c keeps each constraint value's [P_a, P_a]
    and zeroes the rest: feasible points stay feasible with the same value.
    Entries up to ``_zero_level`` are zero, as in ``restrict``.  The sets are
    the least fixed point of these rules, found by label propagation over all
    nodes at once (Permenter & Parrilo, Math. Program. 2020, refine likewise).
    """
    sizes = {("block", name): d for name, d in problem.blocks}
    sizes.update({("constraint", con.name): len(con.rhs) for con in problem.constraints})
    starts = dict(zip(sizes, np.cumsum([0, *sizes.values()])))  # a node per coordinate and kept index
    n = sum(sizes.values())
    a, b, rows, cols, groups = [], [], [], [], []  # a[i], b[i] in one sector; each term entry's nodes
    mats = [(("block", name), c) for name, c in problem.objective.items()]
    for key, mat in mats + [(("constraint", con.name), con.rhs) for con in problem.constraints]:
        i, j = np.nonzero(np.abs(mat) > _zero_level(mat))
        a.append(starts[key] + i)
        b.append(starts[key] + j)
    terms = [(con.name, term) for con in problem.constraints for term in con.terms]
    for g, (name, term) in enumerate(terms):  # per nonzero entry: its kept node, column node, (term, t)
        k = np.eye(sizes["block", term.block]) if term.op is None else term.op
        r, x = np.nonzero(np.abs(k) > _zero_level(term.op))
        p, t = np.divmod(r, len(k) // sizes["constraint", name])
        rows.append(starts["constraint", name] + p)
        cols.append(starts["block", term.block] + x)
        groups.append(g + len(terms) * t)
    a, b, rows, cols, groups = (np.concatenate([*v, np.zeros(0, int)]) for v in (a, b, rows, cols, groups))

    def first(keys):  # for each entry, the first entry with its key
        _, index, inverse = np.unique(keys, return_index=True, return_inverse=True)
        return index[inverse]

    labels = np.arange(n)  # each node's label: the least node of its sector so far
    while True:
        # entries of one (term, t) whose rows share a label join their columns, and conversely
        u = np.concatenate([cols, rows, a])
        v = np.concatenate([cols[first(groups * n + labels[rows])], rows[first(groups * n + labels[cols])], b])
        lu, lv = labels[u], labels[v]
        if np.array_equal(lu, lv):
            break
        parent = labels.copy()  # each label points to the least label it meets, and nodes follow
        np.minimum.at(parent, lu, lv)
        np.minimum.at(parent, lv, lu)
        while not np.array_equal(parent, parent[parent]):
            parent = parent[parent]
        labels = parent[labels]
    found = ({}, {})
    for (kind, name), start in starts.items():
        roots, inverse = np.unique(labels[start : start + sizes[kind, name]], return_inverse=True)
        if len(roots) > 1:
            found[kind == "constraint"][name] = [np.flatnonzero(inverse == c) for c in range(len(roots))]
    return found


def restrict(problem: SdpProblem, block_sectors: dict, constraint_sectors: dict) -> SdpProblem:
    """The problem with each listed block X replaced by its principal sub-blocks
    X[Q_c, Q_c], and each listed constraint by the sub-blocks [P_a, P_a] of its
    value and right-hand side, with P_a index sets of its kept factor.

    ``block_sectors`` maps a block name to index arrays Q_c that partition it,
    ``constraint_sectors`` a constraint name to index arrays P_a that partition
    its kept factor; piece a of a constraint is ``name/a``.  Every number of the
    result is gathered from the problem's: a term on piece c in piece a has the
    operator K[(P_a, :), Q_c] (K's rows read as (kept, traced), ``op`` None as
    the identity) and kept dimension |P_a|, and is left out when those entries
    are zero to rounding (``RESTRICT_TOL``).  Pieces of one block that enter the
    same terms are joined into one block ``name/g`` on their indices side by
    side: splitting them would shrink no constraint, only add terms.  A block or
    constraint not listed, and a block whose pieces all join, stays whole under
    its own name, so with nothing listed the problem is the same.

    When the pinching X -> sum_c Q_c X Q_c keeps feasible points feasible
    with the same value, as on the sets ``sectors`` returns, the optimum can
    be taken zero between the Q_c and its constraint values between the P_a:
    the restricted problem has the same optimum, and ``expand_multipliers``
    turns its multipliers into the problem's with the same slack blocks.
    """
    dims = dict(problem.blocks)
    order = {name: np.concatenate(sectors) for name, sectors in block_sectors.items()}
    starts = {name: np.cumsum([0] + [len(q) for q in sectors[:-1]]) for name, sectors in block_sectors.items()}
    # every constraint piece's terms, with the block pieces each term is live on, and
    # for each block piece the terms it enters
    pieces = []  # (name, rhs, [(term, op, K, kept, live)])
    enters = {name: [set() for _ in sectors] for name, sectors in block_sectors.items()}
    for con in problem.constraints:
        levels = [_zero_level(t.op) for t in con.terms]
        for a, keep in enumerate(constraint_sectors.get(con.name, (None,))):
            entries = []
            for t, term in enumerate(con.terms):
                op, kept, d = term.op, term.kept, dims[term.block]
                k = np.eye(d) if op is None else op  # K, the identity for op None
                if keep is not None:
                    op = k = k.reshape(kept or len(k), -1, d)[keep].reshape(-1, d)
                    kept = len(keep)
                peak = np.max(np.abs(k), axis=0)  # per column of K
                if term.block in order:  # per block piece
                    live = np.maximum.reduceat(peak[order[term.block]], starts[term.block]) > levels[t]
                    for c in np.flatnonzero(live):
                        enters[term.block][c].add((len(pieces), t))
                else:
                    live = np.array([peak.max() > levels[t]])
                entries.append((term, op, k, kept, live))
            rhs = con.rhs if keep is None else np.asarray(con.rhs)[np.ix_(keep, keep)]
            pieces.append((con.name if keep is None else f"{con.name}/{a}", rhs, entries))

    # join the pieces of a block that enter the same terms; joined piece g is the pieces
    # members[g], on their indices side by side.  A block whose pieces all join stays
    # whole: its pieces partition it, so the split would only permute it
    members, columns = {}, {}
    for name, signatures in enters.items():
        joined = {}
        for c, signature in enumerate(signatures):
            joined.setdefault(frozenset(signature), []).append(c)
        if len(joined) > 1:
            members[name] = list(joined.values())
            columns[name] = [np.concatenate([block_sectors[name][c] for c in group]) for group in members[name]]

    blocks, objective = [], {}
    for name, d in problem.blocks:
        parts = enumerate(columns[name]) if name in columns else [(None, np.arange(d))]
        for g, cols in parts:
            part = name if g is None else f"{name}/{g}"
            blocks.append((part, len(cols)))
            if name in problem.objective:
                objective[part] = np.asarray(problem.objective[name])[np.ix_(cols, cols)]
    constraints = []
    for name, rhs, entries in pieces:
        terms = []
        for term, op, k, kept, live in entries:
            if term.block not in columns:
                if live.any():
                    terms.append(LinearTerm(term.block, term.coeff, op, kept))
                continue
            for g, (group, cols) in enumerate(zip(members[term.block], columns[term.block])):
                if live[group[0]]:  # joined pieces are live in the same terms
                    terms.append(LinearTerm(f"{term.block}/{g}", term.coeff, k[:, cols], kept))
        constraints.append(Constraint(name, tuple(terms), rhs))
    return SdpProblem(blocks=tuple(blocks), objective=objective, constraints=tuple(constraints))


def expand_multipliers(constraint_sectors: dict, multipliers: dict) -> dict:
    """The multipliers of a ``restrict``-ed problem as the original's: each listed
    constraint's Z holds its pieces' Z_a on the sub-blocks [P_a, P_a] and 0 between
    them; the rest as given."""
    out = dict(multipliers)
    for name, sectors in constraint_sectors.items():
        pieces = [np.atleast_2d(out.pop(f"{name}/{a}")) for a in range(len(sectors))]
        d = sum(len(p) for p in sectors)
        out[name] = np.zeros((d, d), dtype=np.result_type(*pieces))
        for p, z in zip(sectors, pieces):
            out[name][np.ix_(p, p)] = z
    return out


# ---------------------------------------------------------------------------
# compilation


def _ct(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each member of a stack."""
    return mat.conj().swapaxes(-1, -2)


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    return (mat + _ct(mat)) / 2


def _is_real(mat) -> bool:
    mat = np.asarray(mat)
    return mat.dtype.kind != "c" or not mat.imag.any()


def _read_only(*arrays) -> tuple:
    """The arrays, made read-only: every compile shares the cached tables below."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@functools.cache
def _coordinate_map(d: int, real: bool):
    """How a d x d Hermitian value maps to its real coordinates, an orthonormal
    basis of the Hermitian matrices under Re tr(A^dag B) (SDPT3's svec).

    Coordinate k is ``wt[k]`` times float ``idx[k]`` of the value's float64
    view, and float ``idxt[k]``, in the mirrored entry, holds ``sign[k]``
    times the same float.  Real data (the view is the entries): the upper
    triangle, weight sqrt(2) off the diagonal.  Complex data (each entry's
    real and imaginary parts side by side): the diagonal and sqrt(2) Re above
    it, then sqrt(2) Im above it, whose mirror has sign -1.
    """
    per = 1 if real else 2  # floats per entry
    i, j = np.triu_indices(d)
    entry, mirror, wt = per * (i * d + j), per * (j * d + i), np.where(i == j, 1.0, np.sqrt(2.0))
    im = (i < j) & (not real)  # the entries with an Im coordinate
    pairs = [(entry, entry[im] + 1), (mirror, mirror[im] + 1), (wt, wt[im]), (np.ones(len(wt)), -np.ones(im.sum()))]
    return _read_only(*(np.concatenate(pair) for pair in pairs))


@functools.cache
def _term_layout(dk: int, dt: int, real: bool):
    """Where a term (kept dimension dk, traced dt) meets its constraint's coordinates in its
    K's diagonal block of the image (``_Compiled``): per float with a coordinate (not a diagonal
    Im) and traced index a, row i dt + a and column j dt + a of its entry (i, j), its part (1:
    Im), the coordinate, and the weight 1 / wt at ``idx``, sign / wt at ``idxt``: the float's
    share of the coordinate in the Hermitian part and the coordinate's share of the float in its
    matrix, so one table serves A and A*.  Real: each entry once."""
    per = 1 if real else 2
    idx, idxt, wt, sign = _coordinate_map(dk, real)
    coord, weight = np.zeros(per * dk * dk, dtype=np.intp), np.zeros(per * dk * dk)
    coord[idxt], weight[idxt] = np.arange(len(wt)), sign / wt
    coord[idx], weight[idx] = np.arange(len(wt)), 1 / wt
    flt = np.flatnonzero(weight)
    entry, part = np.divmod(flt, per)
    i, j = np.divmod(entry, dk)
    a = np.arange(dt)
    traced = [np.repeat(v, dt) for v in (part, coord[flt], weight[flt])]
    return _read_only((i[:, None] * dt + a).ravel(), (j[:, None] * dt + a).ravel(), *traced)


@functools.cache
def _gram_map(df: int, dg: int, real: bool):
    """Where the Schur block of a df x df and a dg x dg constraint reads the Gram
    matrix G = q q^dag of its term pairs: M[r, s] = w0 g[j0] + w1 g[j1], g G's
    float64 view.  Over entries G is T[(i, j), (k, l)] = G[(i, k), (j, l)]; with
    coordinate r's unit matrix wt_r (ph_r e_idx + conj(ph_r) e_idxt) / 2, ph_r = 1,
    or i for an Im coordinate, and T[(j, i), (l, k)] = conj(T[(i, j), (k, l)]),
    M[r, s] = wt_r wt_s Re(ph_s (conj(ph_r) T[idx_r, idx_s] + ph_r T[idxt_r, idx_s])) / 2,
    and each phase product is 1, i, -1 or -i: one float of T with a sign."""
    per = 1 if real else 2
    idx_f, idxt_f, wt_f, sign_f = _coordinate_map(df, real)
    idx_g, _, wt_g, sign_g = _coordinate_map(dg, real)
    ph_f, ph_g = np.where(sign_f < 0, 1j, 1)[:, None], np.where(sign_g < 0, 1j, 1)
    k, l = np.divmod(idx_g // per, dg)
    out = []
    for entry, phase in ((idx_f, ph_f.conj() * ph_g), (idxt_f, ph_f * ph_g)):
        i, j = np.divmod(entry // per, df)
        flat = ((i * dg)[:, None] + k) * (df * dg) + (j * dg)[:, None] + l
        out += [per * flat + (phase.imag != 0), (phase.real - phase.imag) * wt_f[:, None] * wt_g / 2]
    return _read_only(*out)


class _CompiledTerm(NamedTuple):
    block_idx: int
    coeff: float
    dk: int  # kept dimension
    dt: int  # traced dimension
    row: int  # the first row of its K in its block's image
    op: np.ndarray | None  # K, of the problem's dtype; None for the identity


class _Compiled:
    """A problem as ``solve`` reads it; ``verify_dual`` reads only its validated terms, objectives
    and right-hand sides.  Per block, the terms' distinct operators are stacked into one tall K,
    under the identity's rows when a block of its stack has an identity term (I X I = X costs no
    product); terms with one operator share its rows.  A stack of equal-size blocks holds them
    as one (n, R, d) array, zero rows padding members with fewer.  A term's value is a partial
    trace of a diagonal block of the image K X K^dag."""

    def __init__(self, problem: SdpProblem):
        self.problem = problem
        self.block_names = [name for name, _ in problem.blocks]
        self.block_dims = [int(d) for _, d in problem.blocks]
        self.nblocks = len(self.block_names)
        index = {name: i for i, name in enumerate(self.block_names)}

        # equal-size blocks share one (n, d, d) stack, in order of first appearance;
        # block i is member slots[i] = (stack, position)
        sizes = list(dict.fromkeys(self.block_dims))
        self.stack_members = [[i for i, d in enumerate(self.block_dims) if d == size] for size in sizes]
        self.slots = [None] * self.nblocks
        for k, members in enumerate(self.stack_members):
            for p, i in enumerate(members):
                self.slots[i] = (k, p)
        # each stack's image starts with the identity's d rows if a member has an identity term
        identity = {t.block for con in problem.constraints for t in con.terms if t.op is None}
        idents = [d if identity & {self.block_names[i] for i in m} else 0 for d, m in zip(sizes, self.stack_members)]

        # real data has a real symmetric optimum: X -> Re X keeps A(X) = b and the value
        real = all(_is_real(c) for c in problem.objective.values()) and all(
            _is_real(con.rhs) and all(t.op is None or _is_real(t.op) for t in con.terms)
            for con in problem.constraints
        )
        self.dtype = np.dtype(np.float64 if real else np.complex128)

        def cast(mat):
            mat = np.asarray(mat)
            return (mat.real if real else mat).astype(self.dtype)

        objective = []
        for name, d in zip(self.block_names, self.block_dims):
            c = problem.objective.get(name)
            c = np.zeros((d, d), dtype=self.dtype) if c is None else cast(c)
            if c.shape != (d, d):
                raise ValueError(f"objective for block {name!r} has wrong shape")
            if abs(c - c.conj().T).max() > 1e-10:
                raise ValueError(f"objective for block {name!r} is not Hermitian")
            objective.append(c)
        self.objective = self.stacked(objective)

        self.constraints, self.con_dims, self.coord_maps, self.rhs, self.slices = [], [], [], [], []
        operators = [{} for _ in range(self.nblocks)]  # per block: K's bytes -> (first row, K), identity aside
        offset = 0
        for con in problem.constraints:
            rhs = cast(con.rhs)
            if rhs.ndim != 2 or rhs.shape[0] != rhs.shape[1]:
                raise ValueError(f"constraint {con.name!r}: right-hand side of shape {rhs.shape} is not square")
            dk_con = len(rhs)
            terms = []
            for term in con.terms:
                if term.block not in index:
                    raise KeyError(f"constraint {con.name!r} references unknown block {term.block!r}")
                bidx = index[term.block]
                dblock = self.block_dims[bidx]
                kmat = None if term.op is None else cast(term.op)
                shape = (dblock, dblock) if kmat is None else kmat.shape
                if len(shape) != 2 or shape[1] != dblock:
                    raise ValueError(f"constraint {con.name!r}: operator shape {shape} does not act on block "
                                     f"{term.block!r} (dim {dblock})")
                rows = shape[0]
                dk = rows if term.kept is None else term.kept
                if not isinstance(dk, (int, np.integer)) or dk < 1 or rows % dk:
                    raise ValueError(f"constraint {con.name!r}: kept dimension {term.kept!r} does not divide the "
                                     f"{rows} rows of the operator on block {term.block!r}")
                dk, dt = int(dk), rows // dk
                if dk != dk_con:
                    raise ValueError(f"constraint {con.name!r}: a term on block {term.block!r} keeps {dk} dimensions "
                                     f"but the right-hand side is {dk_con} x {dk_con}")
                below = operators[bidx]
                top = idents[self.slots[bidx][0]] + sum(len(k) for _, k in below.values())
                row = 0 if kmat is None else below.setdefault(kmat.tobytes(), (top, kmat))[0]
                terms.append(_CompiledTerm(bidx, float(term.coeff), dk, dt, row, kmat))
            if abs(rhs - rhs.conj().T).max() > 1e-10:
                raise ValueError(f"constraint {con.name!r}: right-hand side is not Hermitian")
            cmap = _coordinate_map(dk_con, real)
            self.constraints.append((con.name, terms))
            self.con_dims.append(dk_con)
            self.coord_maps.append(cmap)
            self.rhs.append(_hermitian_part(rhs))
            self.slices.append(slice(offset, offset + len(cmap[0])))
            offset += len(cmap[0])
        self.m = offset
        self.b = self._coordinates(self.rhs)

        # per stack: K, K^dag, the identity's rows; the image width; where its images start
        self.operators, self.widths, self.starts, self.image_size = [], [], [], 0
        for ident, members, c in zip(idents, self.stack_members, self.objective):
            height = max(sum(len(k) for _, k in operators[i].values()) for i in members)
            kmat = np.zeros((len(c), height, c.shape[-1]), dtype=self.dtype)
            for p, i in enumerate(members):
                for row, k in operators[i].values():
                    kmat[p, row - ident : row - ident + len(k)] = k
            self.operators.append((kmat, np.ascontiguousarray(_ct(kmat)), ident))
            self.widths.append(ident + kmat.shape[1])
            self.starts.append(self.image_size)
            self.image_size += len(c) * self.widths[-1] ** 2

    # -- block stacks ---------------------------------------------------------

    def stacked(self, mats) -> list:
        """One (n, d, d) stack per block size from one matrix per block."""
        return [np.stack([mats[i] for i in members]) for members in self.stack_members]

    def unstacked(self, stacks) -> list:
        """One matrix per block, in block order: views into the stacks."""
        return [stacks[k][p] for k, p in self.slots]

    # -- coordinates ----------------------------------------------------------

    def _coordinates(self, mats) -> np.ndarray:
        """The real coordinates of one Hermitian matrix (of the problem's dtype) per constraint."""
        y = np.zeros(self.m)
        for z, (idx, _, wt, _), sl in zip(mats, self.coord_maps, self.slices):
            y[sl] = wt * z.view(np.float64).ravel()[idx]
        return y

    def _matrix(self, c: int, coords: np.ndarray) -> np.ndarray:
        """Constraint c's d x d matrix with these real coordinates (last axis; leading axes
        batch): Hermitian bit for bit."""
        d = self.con_dims[c]
        idx, idxt, wt, sign = self.coord_maps[c]
        vals = coords / wt
        z = np.zeros(coords.shape[:-1] + (d * d,), dtype=self.dtype)
        flat = z.view(np.float64)
        flat[..., idx] = vals
        flat[..., idxt] = sign * vals
        return z.reshape(coords.shape[:-1] + (d, d))

    # -- images and their tables ----------------------------------------------

    @functools.cached_property
    def image_buffer(self) -> tuple:
        """The flat images (last entry 0) and per stack its views on I's rows, on K's and between."""
        images, views = np.zeros(self.image_size + 1, dtype=self.dtype), []
        for (_, _, i), start, width, c in zip(self.operators, self.starts, self.widths, self.objective):
            image = images[start : start + len(c) * width * width].reshape(len(c), width, width)
            views.append((image[:, :i, :i], image[:, i:, i:], image[:, i:, :i], image[:, :i, i:]))
        return images, views

    def _images(self, stacks, full: bool = False) -> np.ndarray:
        """The images K X K^dag, flat; only the diagonal blocks unless ``full`` (X Hermitian); reused."""
        images, views = self.image_buffer
        for x, (kmat, kmat_h, ident), (corner, block, lower, upper) in zip(stacks, self.operators, views):
            corner[...] = x[:, :ident, :ident]
            v = kmat @ x
            np.matmul(v, kmat_h, out=block)
            if full:
                lower[...] = v[:, :, :ident]
                upper[...] = _ct(v[:, :, :ident])
        return images

    def _outer(self, images: np.ndarray) -> list:
        """K^dag D K per stack, for block-diagonal images D in ``_images``'s layout."""
        out = []
        for (kmat, kmat_h, ident), start, width, c in zip(self.operators, self.starts, self.widths, self.objective):
            d = images[start : start + len(c) * width * width].reshape(len(c), width, width)
            outer = kmat_h @ d[:, ident:, ident:] @ kmat
            outer[:, :ident, :ident] += d[:, :ident, :ident]
            out.append(outer)
        return out

    @functools.cached_property
    def coordinate_table(self) -> tuple:
        """Per term and float of its diagonal block with a coordinate (``_term_layout``): the float
        of the images, the coordinate, the weight.  A(X)_s sums its images' floats, A*(y) puts
        weight * y_s there."""
        per = self.dtype.itemsize // 8
        groups = {}
        for (_, terms), sl in zip(self.constraints, self.slices):
            for t in terms:
                k, p = self.slots[t.block_idx]
                width = self.widths[k]
                place = (self.starts[k] + (p * width + t.row) * width + t.row, width, sl.start, t.coeff)
                groups.setdefault((t.dk, t.dt), []).append(place)
        table = [[np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]]
        for (dk, dt), places in groups.items():
            corner, width, start, coeff = (np.array(v)[:, None] for v in zip(*places))
            rows, cols, part, coord, weight = _term_layout(dk, dt, per == 1)
            table[0].append((per * (corner + width * rows + cols) + part).ravel())
            table[1].append((start + coord).ravel())
            table[2].append((coeff * weight).ravel())
        return tuple(np.concatenate(col) for col in table)

    @functools.cached_property
    def pair_groups(self) -> list:
        """The Schur matrix's tables per pair (df, dg) of constraint sizes.  A pair is two terms
        on one block, of constraints f <= g, weighted by their coefficients' product, halved when
        f = g, so that their sum H has half of M's diagonal blocks and M = H + H^T.  A block of H
        has its pairs side by side along q's columns, zero-padded: one product sums their Grams.
        Per group: q's entries in the images, each column's weight, each block's flat start in H
        and the offsets within it, and ``_gram_map``."""
        on_block = [[] for _ in range(self.nblocks)]
        for f, (_, terms) in enumerate(self.constraints):
            for t in terms:
                on_block[t.block_idx].append((f, t))
        sizes = {}  # (df, dg) -> block of H -> its pairs' (dt1, dt2), q's corner, width, weight
        for i, entries in enumerate(on_block):
            k, p = self.slots[i]
            width = self.widths[k]
            for f, t1 in entries:
                for g, t2 in entries:
                    if f <= g:
                        blocks = sizes.setdefault((t1.dk, t2.dk), {})
                        pairs = blocks.setdefault(self.slices[f].start * self.m + self.slices[g].start, [])
                        corner = self.starts[k] + (p * width + t1.row) * width + t2.row
                        pairs.append(((t1.dt, t2.dt), corner, width, t1.coeff * t2.coeff * (0.5 if f == g else 1.0)))
        groups = []
        for (df, dg), blocks in sizes.items():
            shapes, columns = {}, 0  # (dt1, dt2) -> the pairs' block, first column of q, corner, width, weight
            for b, pairs in enumerate(blocks.values()):
                col = 0
                for shape, *rest in pairs:
                    shapes.setdefault(shape, []).append((b, col, *rest))
                    col += shape[0] * shape[1]
                columns = max(columns, col)
            index = np.full((len(blocks), df * dg, columns), self.image_size)
            weight = np.zeros((len(blocks), 1, columns))
            for (dt1, dt2), pairs in shapes.items():
                b, col, corner, width, w = (np.array(v)[:, None, None] for v in zip(*pairs))
                i, k, a, c = np.ix_(range(df), range(dg), range(dt1), range(dt2))  # q[(i, k), (a, c)] is
                q = corner[..., None, None] + width[..., None, None] * (i * dt1 + a) + k * dt2 + c  # P[ia, kc]
                span = col + np.arange(dt1 * dt2)
                index[b, np.arange(df * dg)[:, None], span] = q.reshape(len(pairs), df * dg, -1)
                weight[b, 0, span] = w
            gram_map = _gram_map(df, dg, self.dtype == np.float64)
            offsets = np.arange(gram_map[0].shape[0])[:, None] * self.m + np.arange(gram_map[0].shape[1])
            groups.append((index, weight, np.array(list(blocks))[:, None, None], offsets, gram_map))
        return groups

    # -- linear maps --------------------------------------------------------

    def apply(self, stacks) -> np.ndarray:
        """A(X) for X given as block stacks: every constraint's value (Hermitian part) in coordinates."""
        dst, coord, weight = self.coordinate_table
        floats = self._images(stacks).view(np.float64)
        return np.bincount(coord, weight * floats.take(dst), minlength=self.m)

    def adjoint(self, y: np.ndarray) -> list:
        """A*(y) as block stacks, Hermitian."""
        dst, coord, weight = self.coordinate_table
        floats = np.bincount(dst, weight * y.take(coord), minlength=self.image_size * (self.dtype.itemsize // 8))
        return self._outer(floats.view(self.dtype))

    def multipliers_from_y(self, y: np.ndarray) -> dict:
        out = {}
        for c, ((name, _), sl) in enumerate(zip(self.constraints, self.slices)):
            z = self._matrix(c, y[sl])
            out[name] = float(z[0, 0].real) if z.shape == (1, 1) else z
        return out

    # -- Schur complement ---------------------------------------------------

    def schur(self, scalings) -> np.ndarray:
        """M[r, s] = sum_i Re tr(A*(e_r)_i W_i A*(e_s)_i W_i) for the NT scalings W (block stacks).

        A term pair with P = K1 W K2^dag gives T[(i, j), (k, l)] = c1 c2 sum_{a, b} P[ia, kb]
        conj(P[ja, lb]), the Gram matrix of q, P regrouped as (i, k) x (a, b) (``pair_groups``).
        M is real symmetric bit for bit."""
        images = self._images(scalings, full=True)
        half = np.zeros(self.m * self.m)
        for index, weight, origin, offsets, (j0, w0, j1, w1) in self.pair_groups:
            q = images[index]
            gram = ((weight * q) @ _ct(q)).reshape(len(q), -1).view(np.float64)
            # take and in-place products: fancy indexing and fresh temporaries cost more on large blocks
            block, other = gram.take(j0, axis=1), gram.take(j1, axis=1)
            block *= w0
            block += np.multiply(other, w1, out=other)
            half[origin + offsets] = block
        half = half.reshape(self.m, self.m)
        return half + half.T

    def inconsistency(self) -> float:
        """Norm of b's component outside the range of A.

        A A* is the Schur matrix at W = I.  Its eigenvectors with eigenvalues
        at most m eps lambda_max span the null space of A*, the orthogonal
        complement of A's range; b's component there is what no X can reach.
        """
        eye = self.stacked([np.eye(d, dtype=self.dtype) for d in self.block_dims])
        evals, vecs = np.linalg.eigh(self.schur(eye))
        null = vecs[:, evals <= self.m * np.finfo(float).eps * evals[-1]]
        return float(np.linalg.norm(null.T @ self.b))


# ---------------------------------------------------------------------------
# interior-point solver
#
# The kernels below take block stacks, (n, d, d) arrays, and act on each member
# as a call on that matrix alone would.


def _chol(mats: np.ndarray) -> np.ndarray:
    """Cholesky factors of a stack of Hermitian matrices.

    A member that is not numerically positive definite, and it alone, is
    factored with its diagonal shifted by 1e-13 times its mean (at least 1),
    or failing that with its spectrum floored.
    """
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        pass
    out = np.empty_like(mats)
    for i, mat in enumerate(mats):
        d = mat.shape[0]
        try:
            out[i] = np.linalg.cholesky(mat)
            continue
        except np.linalg.LinAlgError:
            pass
        try:
            bump = max(abs(np.trace(mat).real) / d, 1.0) * 1e-13
            out[i] = np.linalg.cholesky(mat + bump * np.eye(d))
        except np.linalg.LinAlgError:
            # iterate degraded; floor the spectrum so the loop can wind down
            evals, vecs = np.linalg.eigh(mat)
            floor = max(float(evals[-1]), 1.0) * 1e-14
            evals = np.maximum(evals, floor)
            out[i] = np.linalg.cholesky((vecs * evals) @ vecs.conj().T)
    return out


def _nt_scaling(lx: np.ndarray, s: np.ndarray):
    """The Nesterov-Todd frame of a block stack, from X's Cholesky factor L
    (``lx``) and L^dag S L = V diag(lam) V^dag, per member.

    Returns (W, S^-1, R, d) with R = L V lam^-1/4 and d = lam^1/2: then
    R^-1 X R^-dag = R^dag S R = D = diag(d), W = R R^dag > 0 has W S W = X,
    and S^-1 = R D^-1 R^dag.  X and S are both D in the frame, so the search
    direction and both step lengths are read there.  S itself is never
    factored.
    """
    mid = _hermitian_part(_ct(lx) @ s @ lx)
    evals, vecs = np.linalg.eigh(mid)
    evals = np.maximum(evals, 1e-300)
    r = lx @ (vecs * evals[..., None, :] ** -0.25)
    d = np.sqrt(evals)
    return _hermitian_part(r @ _ct(r)), (r / d[..., None, :]) @ _ct(r), r, d


def _max_steps(d, dx, ds):
    """Largest t_X with X + t dX >= 0 and largest t_S with S + t dS >= 0, in
    every member of every stack, as (t_X, t_S): inf where no bound applies.

    ``d`` holds each stack's frame diagonals, ``dx`` and ``ds`` the direction
    in the frame, R^-1 dX R^-dag and R^dag dS R (``_nt_scaling``).  X + t dX =
    R D^1/2 (1 + t D^-1/2 dX~ D^-1/2) D^1/2 R^dag, so t_X is set by the least
    eigenvalue of D^-1/2 dX~ D^-1/2, and t_S likewise.  Both scaled
    directions of a stack share one ``eigvalsh``, and each member's
    eigenvalues are those of a call on it alone.  None when a scaled
    direction or an eigenvalue is not finite.
    """
    lam_x = lam_s = np.inf
    for dk, dxk, dsk in zip(d, dx, ds):
        scale = dk**-0.5
        outer = scale[..., :, None] * scale[..., None, :]
        g = np.concatenate([dxk * outer, dsk * outer])
        if not np.isfinite(g).all():
            return None
        lam = np.linalg.eigvalsh(g)[:, 0]
        if not np.isfinite(lam).all():
            return None
        lam_x = min(lam_x, float(lam[: len(dxk)].min()))
        lam_s = min(lam_s, float(lam[len(dxk) :].min()))
    return tuple(np.inf if lam >= -1e-14 else -1.0 / lam for lam in (lam_x, lam_s))


def _residuals(rp, rd, pobj, dobj, b_scale, c_scale):
    """An iterate's primal infeasibility, dual infeasibility (worst block) and relative gap."""
    prinf = np.linalg.norm(rp) / b_scale
    dinf = max(np.linalg.norm(r, axis=(1, 2)).max() for r in rd) / c_scale
    relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return prinf, dinf, relgap


def _block_vdot(a, b) -> float:
    """sum_i Re <A_i, B_i> over the blocks of two stack lists: one vdot per stack."""
    return sum(np.vdot(ak, bk).real for ak, bk in zip(a, b))


class _Stop(Exception):
    """A guard stopped the iterate; the argument is the status that names it."""


class _Direction(NamedTuple):
    """One iterate's search direction; X's is given in the NT frame of ``_nt_scaling``."""

    r: list  # each stack's R
    dx: list  # dX~ = R^-1 dX R^-dag
    ds: list
    dy: np.ndarray
    steps: tuple  # (alpha_p, alpha_d): the lengths X and (S, y) move by
    sigma_mu: float


def _schur_solve(mmat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        # NaN from a non-finite right-hand side is caught by the step lengths
        return np.linalg.solve(mmat, rhs)
    except np.linalg.LinAlgError:
        raise _Stop("schur-singular") from None


def _diagonal(d: np.ndarray) -> np.ndarray:
    """The stack of diagonal matrices with these diagonals."""
    return d[..., None] * np.eye(d.shape[-1])


def _second_order(d: np.ndarray, dx: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """E with D o E = dX~ o dS~ (A o B = (A B + B A) / 2) for frame diagonals d:
    E_ij = (dX~ dS~ + dS~ dX~)_ij / (d_i + d_j), Hermitian bit for bit."""
    p = dx @ ds
    return (p + _ct(p)) / (d[..., :, None] + d[..., None, :])


def _direction(comp: _Compiled, x, s, rp, rd, mu: float) -> _Direction:
    """Mehrotra's predictor-corrector direction in the Nesterov-Todd frame, as SDPT3 runs it.

    In the frame X and S are D, and the Newton equations are A(dX) = rp,
    dS = A*(dy) - rd and D o (dX~ + dS~) = sigma mu 1 - D^2 - dX~_a o dS~_a,
    with A o B = (A B + B A) / 2.  The predictor (sigma mu = 0, no
    second-order term) solves M dy = r0 + sigma mu r1 for both generators,
    r0 = A(W rd W - X) - rp and r1 = A(S^-1), in one LU solve, and its step
    lengths set sigma = (mu_aff / mu)^e with e = max(1, 3 min(alpha_p,
    alpha_d)^2).  The second-order term E, E_ij = (dX~_a dS~_a + dS~_a
    dX~_a)_ij / (d_i + d_j), adds r2 = -A(R E R^dag), solved on the same M.
    numpy keeps no LU factors, so that is a second LU solve.  The step
    lengths are gamma = 0.9 + 0.09 min(1, t_X, t_S) times the largest.
    Raises ``_Stop`` naming the guard that stops the loop.
    """
    lx = [_chol(xk) for xk in x]
    w, sinv, r, d = zip(*(_nt_scaling(lk, sk) for lk, sk in zip(lx, s)))
    mmat = comp.schur(w)
    if not np.all(np.isfinite(mmat)):
        raise _Stop("non-finite-schur")
    r0 = comp.apply([wk @ rdk @ wk - xk for wk, rdk, xk in zip(w, rd, x)]) - rp
    r1 = comp.apply(sinv)
    if comp.m:  # jitter: 1e-13 times the mean of M's diagonal (at least 1), added in place
        mmat.flat[:: comp.m + 1] += max(float(np.mean(np.diag(mmat))), 1.0) * 1e-13
    dys = _schur_solve(mmat, np.stack([r0, r1], axis=1)).T
    dmat = [_diagonal(dk) for dk in d]

    # predictor (affine scaling, sigma mu = 0)
    ds_a = [_hermitian_part(_ct(rk) @ (a - rdk) @ rk) for rk, a, rdk in zip(r, comp.adjoint(dys[0]), rd)]
    dx_a = [-dm - dk for dm, dk in zip(dmat, ds_a)]
    steps = _max_steps(d, dx_a, ds_a)
    if steps is None:  # a non-finite direction, or one whose scaled form overflows
        raise _Stop("non-finite-direction")
    ap, ad = (min(1.0, t) for t in steps)
    mu_aff = _block_vdot([dm + ap * dk for dm, dk in zip(dmat, dx_a)], [dm + ad * dk for dm, dk in zip(dmat, ds_a)])
    mu_aff /= sum(comp.block_dims)
    sigma_mu = min(0.999, max(1e-8, (max(mu_aff, 0.0) / mu) ** max(1.0, 3.0 * min(ap, ad) ** 2))) * mu

    # corrector: centering and the second-order term
    second = [_second_order(dk, xa, sa) for dk, xa, sa in zip(d, dx_a, ds_a)]
    dy2 = _schur_solve(mmat, -comp.apply([rk @ ek @ _ct(rk) for rk, ek in zip(r, second)]))
    dy = dys[0] + sigma_mu * dys[1] + dy2
    ds = [_hermitian_part(a - rdk) for a, rdk in zip(comp.adjoint(dy), rd)]
    ds_frame = [_hermitian_part(_ct(rk) @ dk @ rk) for rk, dk in zip(r, ds)]
    dx = [_diagonal(sigma_mu / dk - dk) - sk - ek for dk, sk, ek in zip(d, ds_frame, second)]
    steps = _max_steps(d, dx, ds_frame)
    if steps is None:
        raise _Stop("non-finite-direction")
    gamma = 0.9 + 0.09 * min(1.0, *steps)
    return _Direction(r, dx, ds, dy, tuple(min(1.0, gamma * t) for t in steps), sigma_mu)


def solve(problem: SdpProblem, tol: float = GAP_TOL, max_iter: int = MAX_ITER) -> SdpSolution:
    """Solve the block SDP; returns the best iterate with a status flag.

    Each iterate factors every block's X (Cholesky) and takes its
    Nesterov-Todd frame from one ``eigh`` (``_nt_scaling``), then takes
    Mehrotra's predictor-corrector step with the second-order term
    (``_direction``): two LU solves of the Schur system M + jitter 1, the
    first with the predictor's and the centering's right-hand sides, the
    second with the second-order term's.
    Every per-block quantity is a list of block stacks, one (n, d, d) array
    per block size, so each kernel, and each sum or norm over the blocks,
    runs once per block size, and so do A, A* and M (``_Compiled``).

    status is "converged" when primal/dual feasibility reaches ``FEAS_TOL``
    and the relative duality gap reaches ``tol``, and the iterate returned is
    then the one that passed; "infeasible" when the equality constraints are
    inconsistent, which a range test on A A* detects before the first
    iterate at every size (``_Compiled.inconsistency``); "max-iterations"
    when ``max_iter`` iterations ran out.
    Otherwise it names the guard that stopped the loop early, and the best
    iterate is returned:

    - "stall": the residual has not improved by 0.1 % in 60 iterations;
    - "non-finite-schur": the Schur matrix has a NaN or infinite entry;
    - "schur-singular": the Schur matrix, its diagonal shifted by 1e-13
      times its mean (at least 1), is exactly singular to LU;
    - "non-finite-direction": a search direction has a NaN or infinite entry,
      or its scaled form D^-1/2 dX~ D^-1/2 in the step-length test does
      (a finite R whose frame product overflows);
    - "mu-blowup": the complementarity measure mu is not finite or exceeds
      1e14 times its starting value.
    """
    comp = _Compiled(problem)
    dims = comp.block_dims
    ntot = sum(dims)

    if comp.m:
        resid = comp.inconsistency()
        if resid > 1e-7 * (1.0 + np.linalg.norm(comp.b)):
            return SdpSolution(
                primal_value=np.nan,
                dual_value=np.nan,
                primal_blocks={},
                dual_multipliers={},
                status="infeasible",
                iterations=0,
                residuals={"constraint_inconsistency": resid},
            )

    bnorm = max(1.0, float(np.max(np.abs(comp.b))) if comp.m else 0.0)
    cnorm = max(1.0, *(float(np.linalg.norm(c, 2, axis=(1, 2)).max()) for c in comp.objective))  # one SVD call per stack
    x = comp.stacked([bnorm * np.eye(d, dtype=comp.dtype) for d in dims])
    s = comp.stacked([cnorm * np.eye(d, dtype=comp.dtype) for d in dims])
    y = np.zeros(comp.m)
    mu_limit = 1e14 * bnorm * cnorm  # the starting mu is bnorm * cnorm

    b_scale = 1.0 + np.linalg.norm(comp.b)
    c_scale = 1.0 + max(np.linalg.norm(c, axis=(1, 2)).max() for c in comp.objective)

    best = None
    best_err = np.inf
    best_iteration = 0
    status = "max-iterations"
    iterations = 0

    with np.errstate(over="ignore", invalid="ignore"):  # stalls handled by guards
        for iteration in range(max_iter):
            iterations = iteration
            rp = comp.b - comp.apply(x)
            rd = [c - a + sk for c, a, sk in zip(comp.objective, comp.adjoint(y), s)]
            # <A, B> = tr(A B) for Hermitian A: an elementwise vdot, no product
            mu = _block_vdot(x, s) / ntot
            pobj = _block_vdot(comp.objective, x)
            dobj = float(np.vdot(comp.b, y))

            prinf, dinf, relgap = _residuals(rp, rd, pobj, dobj, b_scale, c_scale)
            err = max(prinf, dinf, relgap)
            converged = prinf <= FEAS_TOL and dinf <= FEAS_TOL and relgap <= tol
            if err < 0.999 * best_err:
                best_err = err
                best_iteration = iteration
            # a converged iterate is returned as is, whether or not it beat the best by 0.1 %
            if best_iteration == iteration or best is None or converged:
                best = (pobj, dobj, [xk.copy() for xk in x], y.copy(), prinf, dinf, relgap)
            if converged:
                status = "converged"
                break
            if iteration - best_iteration > 60:  # stalled; keep the best iterate
                status = "stall"
                break

            try:
                step = _direction(comp, x, s, rp, rd, mu)
            except _Stop as stop:
                status = stop.args[0]
                break
            ap, ad = step.steps
            x = [_hermitian_part(xk + ap * (rk @ dk @ _ct(rk))) for xk, rk, dk in zip(x, step.r, step.dx)]
            s = [_hermitian_part(sk + ad * dk) for sk, dk in zip(s, step.ds)]
            y = y + ad * step.dy
            if not np.isfinite(mu) or mu > mu_limit:
                status = "mu-blowup"
                break

    pobj, dobj, xbest, ybest, prinf, dinf, relgap = best
    return SdpSolution(
        primal_value=float(pobj),
        dual_value=float(dobj),
        primal_blocks=dict(zip(comp.block_names, comp.unstacked(xbest))),
        dual_multipliers=comp.multipliers_from_y(ybest),
        status=status,
        iterations=iterations + 1,
        residuals={"primal": float(prinf), "dual": float(dinf), "gap": float(relgap)},
    )


# ---------------------------------------------------------------------------
# certificates


def verify_dual(problem: SdpProblem, multipliers: dict, tol: float = CERT_TOL) -> DualReport:
    """Check a dual feasible point: A*(y) - C >= 0 blockwise.

    ``multipliers`` holds one Hermitian matrix or scalar per constraint name,
    read as given (a complex one with no imaginary part as the real matrix it
    is); one that is not finite or not of its constraint's size is refused.
    Reports the minimum eigenvalue per block and the bound b.y, which
    upper-bounds every feasible primal value by weak duality.  The slack is
    summed term by term from the problem's operators, c K^dag (Z (x) 1) K with
    Z (x) 1 applied in its Kronecker form, then one ``eigvalsh`` per stack:
    the check reads the compile's validated terms, no table or map of ``solve``.
    """
    comp = _Compiled(problem)
    mults = []
    for (name, _), d in zip(comp.constraints, comp.con_dims):
        if name not in multipliers:
            raise KeyError(f"certificate is missing a multiplier for constraint {name!r}")
        z = np.asarray(multipliers[name])
        if z.size != d * d:
            raise ValueError(f"constraint {name!r}: a multiplier of shape {z.shape} is not {d} x {d}")
        if not np.isfinite(z).all():
            raise ValueError(f"constraint {name!r}: the multiplier is not finite")
        mults.append((z if np.any(z.imag) else z.real).reshape(d, d))
    dual = [np.zeros(c.shape, np.result_type(comp.dtype, *mults)) for c in comp.objective]  # A*(y), stacked
    for z, (_, terms) in zip(mults, comp.constraints):
        for t in terms:
            k, p = comp.slots[t.block_idx]
            cz = t.coeff * z
            if t.op is None:  # Z (x) 1 by one broadcast
                dual[k][p] += (cz[:, None, :, None] * np.eye(t.dt)[:, None]).reshape(dual[k].shape[1:])
            else:  # (Z (x) 1) K is Z times K read as dk x (dt d)
                dual[k][p] += _ct(t.op) @ (cz @ t.op.reshape(t.dk, -1)).reshape(t.op.shape)
    lams = [np.linalg.eigvalsh(_hermitian_part(a - c))[:, 0] for a, c in zip(dual, comp.objective)]
    lambda_min = {name: float(lams[k][p]) for name, (k, p) in zip(comp.block_names, comp.slots)}
    feasible = not any(lam < -tol for lam in lambda_min.values())
    bound = sum(float(np.vdot(r, z).real) for r, z in zip(comp.rhs, mults))
    return DualReport(feasible=feasible, lambda_min=lambda_min, bound=bound)


def duality_gap(problem: SdpProblem, solution: SdpSolution, multipliers: dict) -> float:
    """Certificate bound minus solver primal value; >= -tol by weak duality."""
    report = verify_dual(problem, multipliers, tol=1e-7)
    if not report.feasible:
        raise ValueError("certificate is not dual feasible")
    if solution.status != "converged":
        raise ValueError(f"solution status is {solution.status!r}, not converged")
    return report.bound - solution.primal_value

