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
infeasible start, Mehrotra predictor-corrector centering): robustness over
speed, which is the right trade at total block dimensions of a few hundred.
The search direction is affine in the centering term, so each iterate makes
one LU solve of the Schur system with two right-hand sides, and predictor
and corrector combine its two solutions; numpy is the only dependency.
Dual feasible points can be checked independently of the solver
(``verify_dual``), so a certificate bound never relies on the code path it
is validating.

The arithmetic follows the data.  When every objective, term operator and
right-hand side is real, X -> Re X keeps a feasible point feasible with the
same value, so the solver works in float64: a d x d constraint owns the
d(d+1)/2 upper-triangle entries of its value, off-diagonal ones weighted by
sqrt(2) (SDPT3's svec), and the Schur system is real symmetric.  Otherwise a
constraint owns the d^2 row-major entries of its value as complex
coordinates, and the Schur system is complex Hermitian.  One coordinate map
per constraint (entry indices and weights, the identity for complex data)
serves both, and the dual objective is Re<b, y>.

A certificate is its multipliers y: a dict of one Hermitian matrix (or
scalar) per constraint name, and its value is the b.y that ``verify_dual``
computes.  ``verify_dual`` reads the multipliers as given, so a complex
multiplier is checked on real data too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-8
CERT_TOL = 1e-9
GAP_TOL = 1e-7
MAX_ITER = 500


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
    # stall | non-finite-schur | schur-singular | non-finite-direction | mu-blowup
    status: str
    iterations: int
    residuals: dict


@dataclass(frozen=True)
class DualReport:
    feasible: bool
    lambda_min: dict
    bound: float


# ---------------------------------------------------------------------------
# compilation


def _ct(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each member of a stack."""
    return mat.conj().swapaxes(-1, -2)


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    return (mat + _ct(mat)) / 2


def _is_real(mat) -> bool:
    return not np.any(np.imag(mat))


def _coordinate_map(d: int, real: bool):
    """How a d x d constraint value maps to its coordinates.

    Coordinate k is ``wt[k]`` times entry ``idx[k]`` of the row-major value,
    and entry ``idxt[k]`` holds the same number.  Complex data: every entry,
    weight 1, ``idxt = idx``.  Real data: the upper triangle (SDPT3's svec),
    weight sqrt(2) off the diagonal, ``idxt`` the mirrored lower entry.
    """
    if not real:
        idx = np.arange(d * d)
        return idx, idx, np.ones(d * d)
    i, j = np.triu_indices(d)
    return i * d + j, j * d + i, np.where(i == j, 1.0, np.sqrt(2.0))


class _CompiledTerm:
    __slots__ = ("block_idx", "stack", "pos", "coeff", "kmat", "kmat_h", "sandwich", "dk", "dt")

    def __init__(self, block_idx, slot, coeff, kmat, sandwich, dk, dt):
        self.block_idx = block_idx
        self.stack, self.pos = slot  # the block is member ``pos`` of stack ``stack``
        self.coeff = coeff
        self.kmat = kmat  # K, (dk*dt, d_block): its image is (kept) (x) (traced)
        self.kmat_h = _ct(kmat)
        # False when K is the identity (``op`` None): I X I = X exactly, so the product is skipped
        self.sandwich = sandwich
        self.dk = dk
        self.dt = dt

    def lift(self, z: np.ndarray) -> np.ndarray:
        """coeff * K^dag (z (x) 1_dt) K for z of shape (..., dk, dk)."""
        zk = (z @ self.kmat.reshape(self.dk, -1)).reshape(z.shape[:-2] + self.kmat.shape)
        return self.coeff * (self.kmat_h @ zk if self.sandwich else zk)


class _Compiled:
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
            if np.max(np.abs(c - c.conj().T)) > 1e-10:
                raise ValueError(f"objective for block {name!r} is not Hermitian")
            objective.append(c)
        self.objective = self.stacked(objective)

        self.constraints = []
        self.con_dims = []
        self.coord_maps = []
        self.rhs = []
        self.slices = []
        offset = 0
        for con in problem.constraints:
            terms = []
            dk_con = None
            for term in con.terms:
                if term.block not in index:
                    raise KeyError(f"constraint {con.name!r} references unknown block {term.block!r}")
                bidx = index[term.block]
                dblock = self.block_dims[bidx]
                kmat = np.eye(dblock, dtype=self.dtype) if term.op is None else cast(term.op)
                if kmat.ndim != 2 or kmat.shape[1] != dblock:
                    raise ValueError(
                        f"constraint {con.name!r}: operator shape {kmat.shape} does not act on "
                        f"block {term.block!r} (dim {dblock})"
                    )
                rows = kmat.shape[0]
                dk = rows if term.kept is None else term.kept
                if not isinstance(dk, (int, np.integer)) or dk < 1 or rows % dk:
                    raise ValueError(
                        f"constraint {con.name!r}: kept dimension {term.kept!r} does not divide "
                        f"the {rows} rows of the operator on block {term.block!r}"
                    )
                dk, dt = int(dk), rows // dk
                if dk_con is None:
                    dk_con = dk
                elif dk != dk_con:
                    raise ValueError(f"constraint {con.name!r}: terms have mismatched output dimensions")
                terms.append(
                    _CompiledTerm(bidx, self.slots[bidx], float(term.coeff), kmat, term.op is not None, dk, dt)
                )
            rhs = cast(con.rhs).reshape(dk_con, dk_con)
            if np.max(np.abs(rhs - rhs.conj().T)) > 1e-10:
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
        self.schur_plan = self._schur_plan()

    # -- block stacks ---------------------------------------------------------

    def stacked(self, mats) -> list:
        """One (n, d, d) stack per block size from one matrix per block."""
        return [np.stack([mats[i] for i in members]) for members in self.stack_members]

    def unstacked(self, stacks) -> list:
        """One matrix per block, in block order: views into the stacks."""
        return [stacks[k][p] for k, p in self.slots]

    # -- coordinates ----------------------------------------------------------

    def _coordinates(self, mats) -> np.ndarray:
        """The coordinates of one Hermitian matrix per constraint."""
        y = np.zeros(self.m, dtype=self.dtype)
        for z, (idx, _, wt), sl in zip(mats, self.coord_maps, self.slices):
            y[sl] = wt * z.ravel()[idx]
        return y

    def _matrix(self, c: int, coords: np.ndarray) -> np.ndarray:
        """Constraint c's d x d matrix with these coordinates (last axis; leading axes batch)."""
        d = self.con_dims[c]
        idx, idxt, wt = self.coord_maps[c]
        vals = coords / wt
        z = np.empty(coords.shape[:-1] + (d * d,), dtype=vals.dtype)
        z[..., idx] = vals
        z[..., idxt] = vals
        return z.reshape(coords.shape[:-1] + (d, d))

    # -- linear maps --------------------------------------------------------

    def apply(self, stacks) -> np.ndarray:
        """A(X) for X given as block stacks: every constraint's value (Hermitian part) in coordinates."""
        vals = []
        for (name, terms), d in zip(self.constraints, self.con_dims):
            val = np.zeros((d, d), dtype=self.dtype)
            for t in terms:
                img = stacks[t.stack][t.pos]
                if t.sandwich:
                    img = t.kmat @ img @ t.kmat_h
                val += t.coeff * np.einsum("iaja->ij", img.reshape(t.dk, t.dt, t.dk, t.dt))
            vals.append(_hermitian_part(val))
        return self._coordinates(vals)

    def lift(self, mats, lead: tuple = ()) -> list:
        """A*(Z) as block stacks, for one matrix Z_c per constraint (any dtype).

        The Z_c may carry leading batch axes ``lead``, which then lead the
        stacks: (*lead, n, d, d).
        """
        dtype = np.result_type(self.dtype, *mats)
        out = [np.zeros(lead + stack.shape, dtype=dtype) for stack in self.objective]
        for (_, terms), z in zip(self.constraints, mats):
            for t in terms:
                out[t.stack][..., t.pos, :, :] += t.lift(z)
        return out

    def adjoint(self, y: np.ndarray) -> list:
        """A*(y) as block stacks (Hermitian when y's matrices are); leading axes of y batch."""
        return self.lift([self._matrix(c, y[..., sl]) for c, sl in enumerate(self.slices)], y.shape[:-1])

    def multipliers_from_y(self, y: np.ndarray) -> dict:
        out = {}
        for c, ((name, _), sl) in enumerate(zip(self.constraints, self.slices)):
            z = _hermitian_part(self._matrix(c, y[sl]))
            out[name] = float(z[0, 0].real) if z.shape == (1, 1) else z
        return out

    def multiplier_matrices(self, multipliers: dict) -> list:
        """One matrix per constraint, as given (never cast to the problem's dtype)."""
        mats = []
        for (name, _), d in zip(self.constraints, self.con_dims):
            if name not in multipliers:
                raise KeyError(f"certificate is missing a multiplier for constraint {name!r}")
            mats.append(np.asarray(multipliers[name]).reshape(d, d))
        return mats

    # -- Schur complement ---------------------------------------------------

    def _schur_plan(self) -> list:
        """Per pair of constraints f <= g that share a block: their term pairs on a
        common block and where the pair's Gram entries land in M (see ``schur``)."""
        plan = []
        ncon = len(self.constraints)
        for f in range(ncon):
            _, fterms = self.constraints[f]
            idx_f, idxt_f, wt_f = self.coord_maps[f]
            for g in range(f, ncon):
                _, gterms = self.constraints[g]
                pairs = [(t1, t2) for t1 in fterms for t2 in gterms if t1.block_idx == t2.block_idx]
                if not pairs:
                    continue
                idx_g, _, wt_g = self.coord_maps[g]
                df, dg = self.con_dims[f], self.con_dims[g]
                # T[(i, j), (k, l)] sits at gram.flat[rows(i, j) + cols(k, l)]: l runs contiguously
                rows = [(i * (df * dg) + j) * dg for i, j in (np.divmod(idx_f, df), np.divmod(idxt_f, df))]
                k, l = np.divmod(idx_g, dg)
                cols = k * (df * dg) + l
                plan.append((f, g, pairs, rows[0][:, None], rows[1][:, None], cols, wt_f[:, None], wt_g / 2))
        return plan

    def schur(self, scalings) -> np.ndarray:
        """M[r, s] = sum_i tr(A*(e_r)_i^dag W_i A*(e_s)_i W_i) for the NT scalings W (block stacks).

        Over matrix entries, a term pair with P = K1 W K2^dag (image indices
        split as (kept, traced)) gives T[(i, j), (k, l)] = c1 c2 sum_{a, b}
        P[ia, kb] conj(P[ja, lb]): entry [(i, k), (j, l)] of the Gram matrix of
        P's rows regrouped as (i, k) x (a, b).  A coordinate pair reads T at its
        entries, M[r, s] = wt_r wt_s (T[idx_r, idx_s] + T[idxt_r, idx_s]) / 2,
        which is T itself for complex data (idxt = idx); for real data T is
        unchanged by swapping i<->j and k<->l together.  M is Hermitian (real
        symmetric for real data).
        """
        mmat = np.zeros((self.m, self.m), dtype=self.dtype)
        for f, g, pairs, rows0, rows1, cols, wt_rows, half_wt_cols in self.schur_plan:
            df, dg = self.con_dims[f], self.con_dims[g]
            gram = None
            for t1, t2 in pairs:
                pmat = scalings[t1.stack][t1.pos]
                if t1.sandwich:
                    pmat = t1.kmat @ pmat
                if t2.sandwich:
                    pmat = pmat @ t2.kmat_h
                q = pmat.reshape(df, t1.dt, dg, t2.dt).transpose(0, 2, 1, 3).reshape(df * dg, -1)
                # np.conj copies even real q, so this is a GEMM: numpy's syrk path for
                # q @ q.T is slower at these sizes
                piece = q @ np.conj(q).T  # [(i, k), (j, l)]
                piece *= t1.coeff * t2.coeff
                if gram is None:
                    gram = piece
                else:
                    gram += piece
            flat = gram.ravel()
            block = flat[rows0 + cols] + flat[rows1 + cols]
            block *= wt_rows
            block *= half_wt_cols
            mmat[self.slices[f], self.slices[g]] = block
            if g != f:
                mmat[self.slices[g], self.slices[f]] = block.conj().T
        return mmat

    def inconsistency(self) -> float:
        """Norm of b's component outside the range of A.

        A A* is the Schur matrix at W = I.  Its eigenvectors with eigenvalues
        at most m eps lambda_max span the null space of A*, the orthogonal
        complement of A's range; b's component there is what no X can reach.
        """
        eye = self.stacked([np.eye(d, dtype=self.dtype) for d in self.block_dims])
        evals, vecs = np.linalg.eigh(self.schur(eye))
        null = vecs[:, evals <= self.m * np.finfo(float).eps * evals[-1]]
        return float(np.linalg.norm(null.conj().T @ self.b))


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
    """The Nesterov-Todd scaling and all the iterate needs of S, from X's
    Cholesky factor L (``lx``) and L^dag S L = V diag(lam) V^dag, per member.

    Returns (W, S^-1, H) with H = lam^-1/2 V^dag L^dag: W = L V lam^-1/2
    V^dag L^dag > 0 has W S W = X, S^-1 = H^dag H, and H S H^dag = 1, so S's
    step length is ``_max_step(H, dS)``.  S itself is never factored.
    """
    mid = _hermitian_part(_ct(lx) @ s @ lx)
    evals, vecs = np.linalg.eigh(mid)
    scaled = vecs * np.maximum(evals, 1e-300)[..., None, :] ** -0.5
    w = lx @ (scaled @ _ct(vecs)) @ _ct(lx)
    hdag = lx @ scaled
    return _hermitian_part(w), hdag @ _ct(hdag), _ct(hdag)


def _max_step(h: np.ndarray, dx: np.ndarray) -> float:
    """Largest t with X + t dX >= 0 for every member; ``h`` is any H with
    H X H^dag = 1, such as the inverse of X's Cholesky factor.

    X + t dX = H^-1 (1 + t H dX H^dag) H^-dag, so t is set by the least
    eigenvalue of H dX H^dag over the stack.
    """
    g = h @ dx @ _ct(h)
    lam = float(np.linalg.eigvalsh(_hermitian_part(g))[:, 0].min())
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _residuals(rp, rd, pobj, dobj, b_scale, c_scale):
    """An iterate's primal infeasibility, dual infeasibility (worst block) and relative gap."""
    prinf = np.linalg.norm(rp) / b_scale
    dinf = max(np.linalg.norm(r) for stack in rd for r in stack) / c_scale
    relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return prinf, dinf, relgap


def _block_vdot(slots, a, b) -> float:
    """sum_i Re <A_i, B_i> over the blocks of two stack lists, in block order."""
    return sum(np.vdot(a[k][p], b[k][p]).real for k, p in slots)


def solve(problem: SdpProblem, tol: float = GAP_TOL, max_iter: int = MAX_ITER) -> SdpSolution:
    """Solve the block SDP; returns the best iterate with a status flag.

    Each iterate factors every block's X (Cholesky) and makes one LU solve
    of the Schur system M + jitter 1 with both right-hand sides of its
    search direction, r0 + sigma mu r1; the predictor takes sigma mu = 0.
    Every per-block quantity is a list of block stacks, one (n, d, d) array
    per block size, so each kernel runs once per block size; mu and the
    objective still sum block by block in block order.

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
    - "non-finite-direction": a search direction has a NaN or infinite entry;
    - "mu-blowup": the complementarity measure mu is not finite or exceeds
      1e14 times its starting value.
    """
    comp = _Compiled(problem)
    dims = comp.block_dims
    ntot = sum(dims)
    slots = comp.slots
    objective = comp.unstacked(comp.objective)

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
    cnorm = max(1.0, max(float(np.linalg.norm(c, 2)) for c in objective))
    x = comp.stacked([bnorm * np.eye(d, dtype=comp.dtype) for d in dims])
    s = comp.stacked([cnorm * np.eye(d, dtype=comp.dtype) for d in dims])
    y = np.zeros(comp.m, dtype=comp.dtype)
    mu_limit = 1e14 * bnorm * cnorm  # the starting mu is bnorm * cnorm

    b_scale = 1.0 + np.linalg.norm(comp.b)
    c_scale = 1.0 + max(np.linalg.norm(c) for c in objective)

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
            mu = _block_vdot(slots, x, s) / ntot
            pobj = _block_vdot(slots, comp.objective, x)
            dobj = float(np.vdot(comp.b, y).real)

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

            # one Cholesky factor per block, of X, and its inverse (X's step length);
            # the NT eigendecomposition gives W, S^-1 and S's step length, so S is never factored
            lx = [_chol(xk) for xk in x]
            lxinv = [np.linalg.inv(lk) for lk in lx]
            w, sinv, hs = zip(*(_nt_scaling(lk, sk) for lk, sk in zip(lx, s)))
            mmat = comp.schur(w)
            if not np.all(np.isfinite(mmat)):
                status = "non-finite-schur"
                break

            # the direction is affine in sigma mu: M dy = r0 + sigma mu r1, so one solve with
            # both right-hand sides gives generators that predictor and corrector combine
            r0 = comp.apply([wk @ rdk @ wk - xk for wk, rdk, xk in zip(w, rd, x)]) - rp
            r1 = comp.apply(sinv)
            if comp.m:  # jitter: 1e-13 times the mean of M's diagonal (at least 1), added in place
                mmat.flat[:: comp.m + 1] += max(float(np.mean(np.diag(mmat)).real), 1.0) * 1e-13
            try:
                # NaN from a non-finite right-hand side is caught below
                dys = np.linalg.solve(mmat, np.stack([r0, r1], axis=1)).T
            except np.linalg.LinAlgError:
                status = "schur-singular"
                break
            adj = comp.adjoint(dys)  # its leading axis holds the generators for 1 and for sigma mu
            ds0 = [_hermitian_part(a[0] - rdk) for a, rdk in zip(adj, rd)]
            ds1 = [_hermitian_part(a[1]) for a in adj]
            dx0 = [_hermitian_part(-xk - wk @ d @ wk) for xk, wk, d in zip(x, w, ds0)]
            dx1 = [_hermitian_part(sk - wk @ d @ wk) for sk, wk, d in zip(sinv, w, ds1)]

            # predictor (affine scaling, sigma mu = 0) fixes the centering weight
            if not all(np.isfinite(d).all() for d in dx0 + ds0):
                status = "non-finite-direction"
                break
            ap = min(1.0, min((_max_step(h, d) for h, d in zip(lxinv, dx0)), default=1.0))
            ad = min(1.0, min((_max_step(h, d) for h, d in zip(hs, ds0)), default=1.0))
            mu_aff = _block_vdot(
                slots, [xk + ap * d for xk, d in zip(x, dx0)], [sk + ad * d for sk, d in zip(s, ds0)]
            ) / ntot
            sigma_mu = min(0.999, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3)) * mu

            dy = dys[0] + sigma_mu * dys[1]
            dx = [d0 + sigma_mu * d1 for d0, d1 in zip(dx0, dx1)]
            ds = [d0 + sigma_mu * d1 for d0, d1 in zip(ds0, ds1)]
            if not all(np.isfinite(d).all() for d in dx + ds):
                status = "non-finite-direction"
                break
            ap = min(1.0, 0.98 * min((_max_step(h, d) for h, d in zip(lxinv, dx)), default=1.0))
            ad = min(1.0, 0.98 * min((_max_step(h, d) for h, d in zip(hs, ds)), default=1.0))

            x = [_hermitian_part(xk + ap * d) for xk, d in zip(x, dx)]
            s = [_hermitian_part(sk + ad * d) for sk, d in zip(s, ds)]
            y = y + ad * dy
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

    ``multipliers`` holds one Hermitian matrix or scalar per constraint name.
    Reports the minimum eigenvalue per block and the bound b.y, which
    upper-bounds every feasible primal value by weak duality.
    """
    comp = _Compiled(problem)
    mults = comp.multiplier_matrices(multipliers)
    lams = [np.linalg.eigvalsh(_hermitian_part(a - c))[:, 0] for a, c in zip(comp.lift(mults), comp.objective)]
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

