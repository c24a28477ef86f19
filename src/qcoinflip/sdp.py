"""Small dense semidefinite programs with verified dual certificates.

Problems have the shape needed by the cheating-strategy analyses: maximize a
linear functional of several PSD blocks subject to affine equality
constraints whose linear maps are sandwich-then-partial-trace compositions
(full traces are the degenerate all-factors-traced case).

The solver is a primal-dual interior-point method (Nesterov-Todd scaling,
infeasible start, adaptive centering): robustness over speed, which is the
right trade at total block dimensions of a few hundred.  Dual feasible
points can be checked independently of the solver (``verify_dual``), so a
certificate bound never relies on the code path it is validating.

The arithmetic follows the data.  When every objective, term operator and
right-hand side is real, X -> Re X keeps a feasible point feasible with the
same value, so the solver works in float64: a d x d constraint owns the
d(d+1)/2 upper-triangle entries of its value, off-diagonal ones weighted by
sqrt(2) (SDPT3's svec), and the Schur system is real symmetric.  Otherwise a
constraint owns the d^2 row-major entries of its value as complex
coordinates, and the Schur system is complex Hermitian.  One coordinate map
per constraint (entry indices and weights, the identity for complex data)
serves both, and the dual objective is Re<b, y>.  ``verify_dual`` reads the
multipliers as given, so a complex multiplier is checked on real data too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .quantum import HilbertLayout, grouping_permutation

FEAS_TOL = 1e-8
CERT_TOL = 1e-9
GAP_TOL = 1e-7
MAX_ITER = 500


# ---------------------------------------------------------------------------
# problem description


@dataclass(frozen=True)
class LinearTerm:
    """One summand of a constraint map: X |-> coeff * tr_out(K X K^dag).

    ``op`` (K) defaults to the identity; ``image_layout`` describes the space
    K maps into (defaults to the block layout); ``keep`` lists the image
    factors surviving the partial trace (defaults to all, empty = full trace).
    """

    block: str
    coeff: float = 1.0
    op: np.ndarray | None = None
    image_layout: HilbertLayout | None = None
    keep: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Constraint:
    """Affine equality: sum of term maps equals a fixed Hermitian matrix."""

    name: str
    terms: tuple[LinearTerm, ...]
    rhs: np.ndarray


@dataclass(frozen=True)
class SdpProblem:
    """maximize sum_i tr(C_i X_i) + constant  s.t.  constraints, X_i >= 0."""

    blocks: tuple[tuple[str, HilbertLayout], ...]
    objective: dict
    constraints: tuple[Constraint, ...]
    objective_constant: float = 0.0


@dataclass(frozen=True)
class SdpSolution:
    primal_value: float
    dual_value: float
    primal_blocks: dict
    dual_multipliers: dict
    status: str  # converged | max-iterations | infeasible
    iterations: int
    residuals: dict


@dataclass(frozen=True)
class DualCertificate:
    """Named multipliers (one Hermitian matrix or scalar per constraint)."""

    multipliers: dict
    claimed_value: float


@dataclass(frozen=True)
class DualReport:
    feasible: bool
    lambda_min: dict
    bound: float


# ---------------------------------------------------------------------------
# compilation


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.conj().T) / 2


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
    __slots__ = ("block_idx", "coeff", "kprime", "dk", "dt")

    def __init__(self, block_idx, coeff, kprime, dk, dt):
        self.block_idx = block_idx
        self.coeff = coeff
        self.kprime = kprime  # (dk*dt, d_block), keep-major image ordering
        self.dk = dk
        self.dt = dt

    def lift(self, z: np.ndarray) -> np.ndarray:
        """coeff * K'^dag (z (x) 1_dt) K' for z of shape (..., dk, dk)."""
        zk = (z @ self.kprime.reshape(self.dk, -1)).reshape(z.shape[:-2] + self.kprime.shape)
        return self.coeff * (self.kprime.conj().T @ zk)


class _Compiled:
    def __init__(self, problem: SdpProblem):
        self.problem = problem
        self.block_names = [name for name, _ in problem.blocks]
        self.block_dims = [layout.dim for _, layout in problem.blocks]
        self.nblocks = len(self.block_names)
        index = {name: i for i, name in enumerate(self.block_names)}

        # real data has a real symmetric optimum: X -> Re X keeps A(X) = b and the value
        real = all(_is_real(c) for c in problem.objective.values()) and all(
            _is_real(con.rhs) and all(t.op is None or _is_real(t.op) for t in con.terms)
            for con in problem.constraints
        )
        self.dtype = np.dtype(np.float64 if real else np.complex128)

        def cast(mat):
            mat = np.asarray(mat)
            return (mat.real if real else mat).astype(self.dtype)

        self.objective = []
        for name, layout in problem.blocks:
            c = problem.objective.get(name)
            c = np.zeros((layout.dim, layout.dim), dtype=self.dtype) if c is None else cast(c)
            if c.shape != (layout.dim, layout.dim):
                raise ValueError(f"objective for block {name!r} has wrong shape")
            if np.max(np.abs(c - c.conj().T)) > 1e-10:
                raise ValueError(f"objective for block {name!r} is not Hermitian")
            self.objective.append(c)

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
                layout = term.image_layout
                if term.op is None:
                    if layout is None:
                        layout = problem.blocks[bidx][1]
                    kmat = np.eye(layout.dim, dtype=self.dtype)
                else:
                    kmat = cast(term.op)
                    if layout is None:
                        raise ValueError(
                            f"constraint {con.name!r}: a term with an explicit operator needs image_layout"
                        )
                if kmat.shape != (layout.dim, dblock):
                    raise ValueError(
                        f"constraint {con.name!r}: operator shape {kmat.shape} does not map "
                        f"block {term.block!r} (dim {dblock}) into image dim {layout.dim}"
                    )
                keep = tuple(range(layout.nfactors)) if term.keep is None else tuple(sorted(set(term.keep)))
                layout.check_factors(keep)
                dk = int(np.prod([layout.factor_dims[i] for i in keep])) if keep else 1
                dt = layout.dim // dk
                perm = grouping_permutation(layout.factor_dims, keep)
                kprime = kmat[perm, :]
                if dk_con is None:
                    dk_con = dk
                elif dk != dk_con:
                    raise ValueError(f"constraint {con.name!r}: terms have mismatched output dimensions")
                terms.append(_CompiledTerm(bidx, float(term.coeff), kprime, dk, dt))
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

    def apply(self, blocks) -> np.ndarray:
        """A(X): every constraint's value (Hermitian part) in coordinates."""
        vals = []
        for (name, terms), d in zip(self.constraints, self.con_dims):
            val = np.zeros((d, d), dtype=self.dtype)
            for t in terms:
                img = t.kprime @ blocks[t.block_idx] @ t.kprime.conj().T
                img = img.reshape(t.dk, t.dt, t.dk, t.dt)
                val += t.coeff * np.einsum("iaja->ij", img)
            vals.append(_hermitian_part(val))
        return self._coordinates(vals)

    def lift(self, mats):
        """A*(Z) as one matrix per block, for one matrix Z_c per constraint (any dtype)."""
        dtype = np.result_type(self.dtype, *mats)
        out = [np.zeros((d, d), dtype=dtype) for d in self.block_dims]
        for (_, terms), z in zip(self.constraints, mats):
            for t in terms:
                out[t.block_idx] += t.lift(z)
        return out

    def adjoint(self, y: np.ndarray):
        """A*(y) as one matrix per block (Hermitian when y's matrices are)."""
        return self.lift([self._matrix(c, y[sl]) for c, sl in enumerate(self.slices)])

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

    def y_from_multipliers(self, multipliers: dict) -> np.ndarray:
        mats = self.multiplier_matrices(multipliers)
        if self.dtype.kind == "f":
            if not all(_is_real(z) for z in mats):
                raise ValueError("complex multipliers have no coordinates on real data; verify_dual checks them")
            mats = [z.real for z in mats]
        return self._coordinates(mats)

    def dense_rows(self) -> np.ndarray:
        """A as an explicit matrix: row r is conj(vec(A*(e_r))), so rows @ vec(X) = A(X).

        Each row is built from the one constraint that owns coordinate r.
        Only sensible for small problems (the inconsistency pre-check).
        """
        offsets = np.cumsum([0] + [d * d for d in self.block_dims])
        rows = np.zeros((self.m, offsets[-1]), dtype=self.dtype)
        for c, ((_, terms), sl) in enumerate(zip(self.constraints, self.slices)):
            n = sl.stop - sl.start
            units = self._matrix(c, np.eye(n, dtype=self.dtype))
            for t in terms:
                cols = slice(offsets[t.block_idx], offsets[t.block_idx + 1])
                rows[sl, cols] += t.lift(units).reshape(n, -1).conj()
        return rows

    # -- Schur complement ---------------------------------------------------

    def schur(self, scalings) -> np.ndarray:
        """M[r, s] = sum_i tr(A*(e_r)_i^dag W_i A*(e_s)_i W_i) for the NT scalings W.

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
        ncon = len(self.constraints)
        for f in range(ncon):
            _, fterms = self.constraints[f]
            idx_f, idxt_f, wt_f = self.coord_maps[f]
            for g in range(f, ncon):
                _, gterms = self.constraints[g]
                idx_g, _, wt_g = self.coord_maps[g]
                df, dg = self.con_dims[f], self.con_dims[g]
                gram = None
                for t1 in fterms:
                    for t2 in gterms:
                        if t1.block_idx != t2.block_idx:
                            continue
                        pmat = t1.kprime @ scalings[t1.block_idx] @ t2.kprime.conj().T
                        q = pmat.reshape(df, t1.dt, dg, t2.dt).transpose(0, 2, 1, 3).reshape(df * dg, -1)
                        # np.conj copies even real q, so this is a GEMM: numpy's syrk path for
                        # q @ q.T is slower at these sizes
                        piece = q @ np.conj(q).T  # [(i, k), (j, l)]
                        piece *= t1.coeff * t2.coeff
                        if gram is None:
                            gram = piece
                        else:
                            gram += piece
                if gram is None:
                    continue
                # T[(i, j), (k, l)] sits at gram.flat[rows(i, j) + cols(k, l)]: l runs contiguously
                rows = [(i * (df * dg) + j) * dg for i, j in (np.divmod(idx_f, df), np.divmod(idxt_f, df))]
                k, l = np.divmod(idx_g, dg)
                cols = k * (df * dg) + l
                flat = gram.ravel()
                block = flat[rows[0][:, None] + cols] + flat[rows[1][:, None] + cols]
                block *= wt_f[:, None]
                block *= wt_g / 2
                mmat[self.slices[f], self.slices[g]] = block
                if g != f:
                    mmat[self.slices[g], self.slices[f]] = block.conj().T
        return mmat


# ---------------------------------------------------------------------------
# interior-point solver


def _chol(mat: np.ndarray) -> np.ndarray:
    d = mat.shape[0]
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    try:
        bump = max(abs(np.trace(mat).real) / d, 1.0) * 1e-13
        return np.linalg.cholesky(mat + bump * np.eye(d))
    except np.linalg.LinAlgError:
        # iterate degraded; floor the spectrum so the loop can wind down
        evals, vecs = np.linalg.eigh(mat)
        floor = max(float(evals[-1]), 1.0) * 1e-14
        evals = np.maximum(evals, floor)
        return np.linalg.cholesky((vecs * evals) @ vecs.conj().T)


def _nt_scaling(lx: np.ndarray, s: np.ndarray) -> np.ndarray:
    """W > 0 with W S W = X (Nesterov-Todd scaling point); ``lx`` is X's Cholesky factor."""
    mid = lx.conj().T @ s @ lx
    mid = (mid + mid.conj().T) / 2
    evals, vecs = np.linalg.eigh(mid)
    evals = np.maximum(evals, 1e-300)
    root = (vecs * evals**-0.5) @ vecs.conj().T
    w = lx @ root @ lx.conj().T
    return (w + w.conj().T) / 2


def _max_step(l: np.ndarray, dx: np.ndarray) -> float:
    """Largest t with X + t dX >= 0; ``l`` is X's Cholesky factor."""
    a = sla.solve_triangular(l, dx, lower=True)
    g = sla.solve_triangular(l, a.conj().T, lower=True).conj().T
    lam = float(np.linalg.eigvalsh((g + g.conj().T) / 2)[0])
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def solve(problem: SdpProblem, tol: float = GAP_TOL, max_iter: int = MAX_ITER) -> SdpSolution:
    """Solve the block SDP; returns the best iterate with a status flag.

    status is "converged" when primal/dual feasibility reaches ``FEAS_TOL``
    and the relative duality gap reaches ``tol``, and the iterate returned is
    then the one that passed; "infeasible" when the equality constraints are
    inconsistent (detected up-front for problems small enough to
    materialize); otherwise "max-iterations".
    """
    comp = _Compiled(problem)
    dims = comp.block_dims
    ntot = sum(dims)
    const = problem.objective_constant

    if comp.m and comp.m <= 1200 and sum(d * d for d in dims) <= 6000:
        rows = comp.dense_rows()
        sol, res, *_ = np.linalg.lstsq(rows, comp.b, rcond=None)
        resid = np.linalg.norm(rows @ sol - comp.b)
        if resid > 1e-7 * (1.0 + np.linalg.norm(comp.b)):
            return SdpSolution(
                primal_value=np.nan,
                dual_value=np.nan,
                primal_blocks={},
                dual_multipliers={},
                status="infeasible",
                iterations=0,
                residuals={"constraint_inconsistency": float(resid)},
            )

    bnorm = max(1.0, float(np.max(np.abs(comp.b))) if comp.m else 0.0)
    cnorm = max(1.0, max(float(np.linalg.norm(c, 2)) for c in comp.objective))
    x = [bnorm * np.eye(d, dtype=comp.dtype) for d in dims]
    s = [cnorm * np.eye(d, dtype=comp.dtype) for d in dims]
    y = np.zeros(comp.m, dtype=comp.dtype)

    b_scale = 1.0 + np.linalg.norm(comp.b)
    c_scale = 1.0 + max(np.linalg.norm(c) for c in comp.objective)

    best = None
    best_err = np.inf
    best_iteration = 0
    status = "max-iterations"
    iterations = 0

    with np.errstate(over="ignore", invalid="ignore"):  # stalls handled by guards
        for iteration in range(max_iter):
            iterations = iteration
            rp = comp.b - comp.apply(x)
            ady = comp.adjoint(y)
            rd = [comp.objective[i] - ady[i] + s[i] for i in range(comp.nblocks)]
            # <A, B> = tr(A B) for Hermitian A: an elementwise vdot, no product
            mu = sum(np.vdot(x[i], s[i]).real for i in range(comp.nblocks)) / ntot
            pobj = sum(np.vdot(comp.objective[i], x[i]).real for i in range(comp.nblocks)) + const
            dobj = float(np.vdot(comp.b, y).real) + const

            prinf = np.linalg.norm(rp) / b_scale
            dinf = max(np.linalg.norm(r) for r in rd) / c_scale
            relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            err = max(prinf, dinf, relgap)
            converged = prinf <= FEAS_TOL and dinf <= FEAS_TOL and relgap <= tol
            if err < 0.999 * best_err:
                best_err = err
                best_iteration = iteration
            # a converged iterate is returned as is, whether or not it beat the best by 0.1 %
            if best_iteration == iteration or best is None or converged:
                best = (pobj, dobj, [xi.copy() for xi in x], y.copy(), prinf, dinf, relgap)
            if converged:
                status = "converged"
                break
            if iteration - best_iteration > 60:  # stalled; keep the best iterate
                break

            # one Cholesky factor per block, shared by NT scaling, S^-1 and the step lengths
            lx = [_chol(xi) for xi in x]
            ls = [_chol(si) for si in s]
            w = [_nt_scaling(lx[i], s[i]) for i in range(comp.nblocks)]
            mmat = comp.schur(w)
            if not np.all(np.isfinite(mmat)):
                break
            jitter = max(float(np.mean(np.diag(mmat)).real), 1.0) * 1e-13
            for _ in range(6):
                try:
                    factor = sla.cho_factor(mmat + jitter * np.eye(comp.m))
                    break
                except np.linalg.LinAlgError:
                    jitter *= 100.0
            else:
                break

            sinv = [sla.cho_solve((l, True), np.eye(l.shape[0], dtype=comp.dtype)) for l in ls]
            sinv = [(inv + inv.conj().T) / 2 for inv in sinv]

            def direction(sigma_mu):
                rc = [sigma_mu * sinv[i] - x[i] for i in range(comp.nblocks)]
                rhs_blocks = [rc[i] + w[i] @ rd[i] @ w[i] for i in range(comp.nblocks)]
                rhs = comp.apply(rhs_blocks) - rp
                dy = sla.cho_solve(factor, rhs)
                adj = comp.adjoint(dy)
                ds = [adj[i] - rd[i] for i in range(comp.nblocks)]
                dx = [rc[i] - w[i] @ ds[i] @ w[i] for i in range(comp.nblocks)]
                dx = [(d + d.conj().T) / 2 for d in dx]
                ds = [(d + d.conj().T) / 2 for d in ds]
                return dy, dx, ds

            # predictor (affine scaling) fixes the centering weight
            dy_a, dx_a, ds_a = direction(0.0)
            ap = min(1.0, min((_max_step(lx[i], dx_a[i]) for i in range(comp.nblocks)), default=1.0))
            ad = min(1.0, min((_max_step(ls[i], ds_a[i]) for i in range(comp.nblocks)), default=1.0))
            mu_aff = sum(
                np.vdot(x[i] + ap * dx_a[i], s[i] + ad * ds_a[i]).real for i in range(comp.nblocks)
            ) / ntot
            sigma = min(0.999, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

            dy, dx, ds = direction(sigma * mu)
            if not all(np.all(np.isfinite(d)) for d in dx + ds):
                break
            ap = min(1.0, 0.98 * min((_max_step(lx[i], dx[i]) for i in range(comp.nblocks)), default=1.0))
            ad = min(1.0, 0.98 * min((_max_step(ls[i], ds[i]) for i in range(comp.nblocks)), default=1.0))

            x = [x[i] + ap * dx[i] for i in range(comp.nblocks)]
            s = [s[i] + ad * ds[i] for i in range(comp.nblocks)]
            y = y + ad * dy
            x = [(xi + xi.conj().T) / 2 for xi in x]
            s = [(si + si.conj().T) / 2 for si in s]
            if not np.isfinite(mu) or mu > 1e14:
                break

    pobj, dobj, xbest, ybest, prinf, dinf, relgap = best
    return SdpSolution(
        primal_value=float(pobj),
        dual_value=float(dobj),
        primal_blocks={name: xbest[i] for i, name in enumerate(comp.block_names)},
        dual_multipliers=comp.multipliers_from_y(ybest),
        status=status,
        iterations=iterations + 1,
        residuals={"primal": float(prinf), "dual": float(dinf), "gap": float(relgap)},
    )


# ---------------------------------------------------------------------------
# certificates


def verify_dual(problem: SdpProblem, cert: DualCertificate, tol: float = CERT_TOL) -> DualReport:
    """Check a dual feasible point: A*(y) - C >= 0 blockwise.

    Reports the minimum eigenvalue per block and the bound b.y + constant,
    which upper-bounds every feasible primal value by weak duality.
    """
    comp = _Compiled(problem)
    mults = comp.multiplier_matrices(cert.multipliers)
    slacks = comp.lift(mults)
    lambda_min = {}
    feasible = True
    for i, name in enumerate(comp.block_names):
        diff = slacks[i] - comp.objective[i]
        lam = float(np.linalg.eigvalsh((diff + diff.conj().T) / 2)[0])
        lambda_min[name] = lam
        if lam < -tol:
            feasible = False
    bound = sum(float(np.vdot(r, z).real) for r, z in zip(comp.rhs, mults)) + problem.objective_constant
    return DualReport(feasible=feasible, lambda_min=lambda_min, bound=bound)


def duality_gap(problem: SdpProblem, solution: SdpSolution, cert: DualCertificate) -> float:
    """Certificate bound minus solver primal value; >= -tol by weak duality."""
    report = verify_dual(problem, cert, tol=1e-7)
    if not report.feasible:
        raise ValueError("certificate is not dual feasible")
    if solution.status != "converged":
        raise ValueError(f"solution status is {solution.status!r}, not converged")
    return report.bound - solution.primal_value

