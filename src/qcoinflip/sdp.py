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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .quantum import (
    HilbertLayout,
    complex_from_json,
    complex_to_json,
    grouping_permutation,
)

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

    def block_layout(self, name: str) -> HilbertLayout:
        for bname, layout in self.blocks:
            if bname == name:
                return layout
        raise KeyError(name)


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
# Hermitian orthonormal basis bookkeeping.  For a d-dimensional space the
# basis is: E_pp (d of them), then per p<q the pair (E_pq+E_qp)/sqrt2 and
# i(E_pq-E_qp)/sqrt2.  Real coordinate vectors of length d^2 throughout.


class _HermBasis:
    def __init__(self, d: int):
        self.d = d
        self.size = d * d
        self.p, self.q = np.triu_indices(d, 1)

    def project(self, mat: np.ndarray) -> np.ndarray:
        d = self.d
        out = np.empty(self.size)
        out[:d] = np.real(np.diagonal(mat))
        z = mat[self.p, self.q]
        out[d::2] = np.sqrt(2.0) * z.real
        out[d + 1 :: 2] = np.sqrt(2.0) * z.imag
        return out

    def expand(self, coords: np.ndarray) -> np.ndarray:
        d = self.d
        mat = np.zeros((d, d), dtype=complex)
        mat[np.arange(d), np.arange(d)] = coords[:d]
        z = (coords[d::2] + 1j * coords[d + 1 :: 2]) / np.sqrt(2.0)
        mat[self.p, self.q] = z
        mat[self.q, self.p] = z.conj()
        return mat

    def left_contract(self, tensor: np.ndarray) -> np.ndarray:
        """Contract R[j, ..., i] over its outer axes with every basis element.

        Returns S[m, ...] with S[m] = sum_ij B_m[i, j] R[j, ..., i].
        """
        d = self.d
        rng = np.arange(d)
        shape = (self.size,) + tensor.shape[1:-1]
        out = np.empty(shape, dtype=complex)
        out[:d] = tensor[rng, ..., rng]
        rqp = tensor[self.q, ..., self.p]
        rpq = tensor[self.p, ..., self.q]
        out[d::2] = (rqp + rpq) / np.sqrt(2.0)
        out[d + 1 :: 2] = 1j * (rqp - rpq) / np.sqrt(2.0)
        return out

    def right_contract(self, tensor: np.ndarray) -> np.ndarray:
        """Contract S[..., k, l] with every basis element on the last axes."""
        d = self.d
        rng = np.arange(d)
        moved = np.moveaxis(np.moveaxis(tensor, -2, 0), -1, 1)  # (k, l, ...)
        out = np.empty((self.size,) + tensor.shape[:-2], dtype=complex)
        out[:d] = moved[rng, rng]
        spq = moved[self.p, self.q]
        sqp = moved[self.q, self.p]
        out[d::2] = (spq + sqp) / np.sqrt(2.0)
        out[d + 1 :: 2] = 1j * (spq - sqp) / np.sqrt(2.0)
        return np.moveaxis(out, 0, -1)


# ---------------------------------------------------------------------------
# compilation


class _CompiledTerm:
    __slots__ = ("block_idx", "coeff", "kprime", "dk", "dt")

    def __init__(self, block_idx, coeff, kprime, dk, dt):
        self.block_idx = block_idx
        self.coeff = coeff
        self.kprime = kprime  # (dk*dt, d_block), keep-major image ordering
        self.dk = dk
        self.dt = dt


class _Compiled:
    def __init__(self, problem: SdpProblem):
        self.problem = problem
        self.block_names = [name for name, _ in problem.blocks]
        self.block_dims = [layout.dim for _, layout in problem.blocks]
        self.nblocks = len(self.block_names)
        index = {name: i for i, name in enumerate(self.block_names)}

        self.objective = []
        for name, layout in problem.blocks:
            c = problem.objective.get(name)
            c = np.zeros((layout.dim, layout.dim), dtype=complex) if c is None else np.asarray(c, dtype=complex)
            if c.shape != (layout.dim, layout.dim):
                raise ValueError(f"objective for block {name!r} has wrong shape")
            if np.max(np.abs(c - c.conj().T)) > 1e-10:
                raise ValueError(f"objective for block {name!r} is not Hermitian")
            self.objective.append(c)

        self.constraints = []
        self.bases = []
        self.slices = []
        self.rhs = []
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
                    kmat = np.eye(layout.dim, dtype=complex)
                else:
                    kmat = np.asarray(term.op, dtype=complex)
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
            rhs = np.asarray(con.rhs, dtype=complex).reshape(dk_con, dk_con)
            if np.max(np.abs(rhs - rhs.conj().T)) > 1e-10:
                raise ValueError(f"constraint {con.name!r}: right-hand side is not Hermitian")
            basis = _HermBasis(dk_con)
            self.constraints.append((con.name, terms))
            self.bases.append(basis)
            self.slices.append(slice(offset, offset + basis.size))
            self.rhs.append(rhs)
            offset += basis.size
        self.m = offset
        self.b = np.concatenate([basis.project(r) for basis, r in zip(self.bases, self.rhs)]) if offset else np.zeros(0)

    # -- linear maps --------------------------------------------------------

    def apply(self, blocks) -> np.ndarray:
        """A(X): stacked real coordinates of every constraint's value."""
        out = np.empty(self.m)
        for (name, terms), basis, sl in zip(self.constraints, self.bases, self.slices):
            val = np.zeros((basis.d, basis.d), dtype=complex)
            for t in terms:
                img = t.kprime @ blocks[t.block_idx] @ t.kprime.conj().T
                img = img.reshape(t.dk, t.dt, t.dk, t.dt)
                val += t.coeff * np.einsum("iaja->ij", img)
            out[sl] = basis.project(val)
        return out

    def adjoint(self, y: np.ndarray):
        """A*(y) as one Hermitian matrix per block."""
        out = [np.zeros((d, d), dtype=complex) for d in self.block_dims]
        for (name, terms), basis, sl in zip(self.constraints, self.bases, self.slices):
            z = basis.expand(y[sl])
            for t in terms:
                zfull = np.kron(z, np.eye(t.dt))
                out[t.block_idx] += t.coeff * (t.kprime.conj().T @ zfull @ t.kprime)
        return out

    def multipliers_from_y(self, y: np.ndarray) -> dict:
        out = {}
        for (name, _), basis, sl in zip(self.constraints, self.bases, self.slices):
            z = basis.expand(y[sl])
            out[name] = float(z[0, 0].real) if basis.d == 1 else z
        return out

    def y_from_multipliers(self, multipliers: dict) -> np.ndarray:
        y = np.zeros(self.m)
        for (name, _), basis, sl in zip(self.constraints, self.bases, self.slices):
            if name not in multipliers:
                raise KeyError(f"certificate is missing a multiplier for constraint {name!r}")
            z = multipliers[name]
            z = np.asarray(z, dtype=complex).reshape(basis.d, basis.d)
            y[sl] = basis.project(z)
        return y

    def dense_rows(self):
        """Explicit real coordinate rows of A, one per scalar constraint.

        Only sensible for small problems (used for consistency checks and
        the inconsistency pre-check).
        """
        cols = [_HermBasis(d) for d in self.block_dims]
        width = sum(c.size for c in cols)
        rows = np.zeros((self.m, width))
        col_off = np.cumsum([0] + [c.size for c in cols])
        for (name, terms), basis, sl in zip(self.constraints, self.bases, self.slices):
            for local_m in range(basis.size):
                coords = np.zeros(basis.size)
                coords[local_m] = 1.0
                bmat = basis.expand(coords)
                for t in terms:
                    zfull = np.kron(bmat, np.eye(t.dt))
                    amat = t.coeff * (t.kprime.conj().T @ zfull @ t.kprime)
                    rows[sl.start + local_m, col_off[t.block_idx] : col_off[t.block_idx + 1]] += cols[
                        t.block_idx
                    ].project(amat)
        return rows

    # -- Schur complement ---------------------------------------------------

    def schur(self, scalings) -> np.ndarray:
        """M[r, s] = sum_i tr(A_r,i W_i A_s,i W_i) for the NT scalings W."""
        mmat = np.zeros((self.m, self.m))
        ncon = len(self.constraints)
        for f in range(ncon):
            _, fterms = self.constraints[f]
            for g in range(f, ncon):
                _, gterms = self.constraints[g]
                block = None
                for t1 in fterms:
                    for t2 in gterms:
                        if t1.block_idx != t2.block_idx:
                            continue
                        w = scalings[t1.block_idx]
                        pmat = t1.kprime @ w @ t2.kprime.conj().T
                        p4 = pmat.reshape(t1.dk, t1.dt, t2.dk, t2.dt)
                        q4 = pmat.conj().T.reshape(t2.dk, t2.dt, t1.dk, t1.dt)
                        r = np.tensordot(p4, q4, axes=([1, 3], [3, 1]))  # R[j, k, l, i]
                        piece = self.bases[f].left_contract(r)  # S[m, k, l]
                        piece = self.bases[g].right_contract(piece)  # (m, m')
                        contrib = t1.coeff * t2.coeff * piece.real
                        block = contrib if block is None else block + contrib
                if block is not None:
                    mmat[self.slices[f], self.slices[g]] += block
                    if g != f:
                        mmat[self.slices[g], self.slices[f]] += block.T
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
    root = vecs @ np.diag(evals**-0.5) @ vecs.conj().T
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


def solve(
    problem: SdpProblem,
    tol: float = GAP_TOL,
    feas_tol: float = FEAS_TOL,
    max_iter: int = MAX_ITER,
) -> SdpSolution:
    """Solve the block SDP; returns the best iterate with a status flag.

    status is "converged" when primal/dual feasibility reaches ``feas_tol``
    and the relative duality gap reaches ``tol``; "infeasible" when the
    equality constraints are inconsistent (detected up-front for problems
    small enough to materialize); otherwise "max-iterations".
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
    x = [bnorm * np.eye(d, dtype=complex) for d in dims]
    s = [cnorm * np.eye(d, dtype=complex) for d in dims]
    y = np.zeros(comp.m)

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
            mu = sum(np.real(np.trace(x[i] @ s[i])) for i in range(comp.nblocks)) / ntot
            pobj = sum(np.real(np.trace(comp.objective[i] @ x[i])) for i in range(comp.nblocks)) + const
            dobj = float(comp.b @ y) + const

            prinf = np.linalg.norm(rp) / b_scale
            dinf = max(np.linalg.norm(r) for r in rd) / c_scale
            relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            err = max(prinf, dinf, relgap)
            if err < 0.999 * best_err:
                best_err = err
                best_iteration = iteration
                best = (pobj, dobj, [xi.copy() for xi in x], y.copy(), prinf, dinf, relgap)
            elif best is None:
                best = (pobj, dobj, [xi.copy() for xi in x], y.copy(), prinf, dinf, relgap)
            if prinf <= feas_tol and dinf <= feas_tol and relgap <= tol:
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
            jitter = max(np.mean(np.diag(mmat)), 1.0) * 1e-13
            for _ in range(6):
                try:
                    factor = sla.cho_factor(mmat + jitter * np.eye(comp.m))
                    break
                except np.linalg.LinAlgError:
                    jitter *= 100.0
            else:
                break

            sinv = [sla.cho_solve((l, True), np.eye(l.shape[0], dtype=complex)) for l in ls]
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
                np.real(np.trace((x[i] + ap * dx_a[i]) @ (s[i] + ad * ds_a[i]))) for i in range(comp.nblocks)
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
    y = comp.y_from_multipliers(cert.multipliers)
    slacks = comp.adjoint(y)
    lambda_min = {}
    feasible = True
    for i, name in enumerate(comp.block_names):
        diff = slacks[i] - comp.objective[i]
        lam = float(np.linalg.eigvalsh((diff + diff.conj().T) / 2)[0])
        lambda_min[name] = lam
        if lam < -tol:
            feasible = False
    bound = float(comp.b @ y) + problem.objective_constant
    return DualReport(feasible=feasible, lambda_min=lambda_min, bound=bound)


def duality_gap(problem: SdpProblem, solution: SdpSolution, cert: DualCertificate) -> float:
    """Certificate bound minus solver primal value; >= -tol by weak duality."""
    report = verify_dual(problem, cert, tol=1e-7)
    if not report.feasible:
        raise ValueError("certificate is not dual feasible")
    if solution.status != "converged":
        raise ValueError(f"solution status is {solution.status!r}, not converged")
    return report.bound - solution.primal_value


# ---------------------------------------------------------------------------
# JSON round-trip (regression fixtures)


def _layout_to_json(layout: HilbertLayout):
    return list(layout.factor_dims)


def problem_to_json(problem: SdpProblem) -> dict:
    return {
        "blocks": [[name, _layout_to_json(layout)] for name, layout in problem.blocks],
        "objective": {name: complex_to_json(mat) for name, mat in problem.objective.items()},
        "objective_constant": problem.objective_constant,
        "constraints": [
            {
                "name": con.name,
                "rhs": complex_to_json(con.rhs),
                "terms": [
                    {
                        "block": t.block,
                        "coeff": t.coeff,
                        "op": None if t.op is None else complex_to_json(t.op),
                        "image_dims": None if t.image_layout is None else _layout_to_json(t.image_layout),
                        "keep": None if t.keep is None else list(t.keep),
                    }
                    for t in con.terms
                ],
            }
            for con in problem.constraints
        ],
    }


def problem_from_json(data: dict) -> SdpProblem:
    blocks = tuple((name, HilbertLayout(tuple(dims))) for name, dims in data["blocks"])
    objective = {name: complex_from_json(mat) for name, mat in data["objective"].items()}
    constraints = []
    for con in data["constraints"]:
        terms = tuple(
            LinearTerm(
                block=t["block"],
                coeff=t["coeff"],
                op=None if t["op"] is None else complex_from_json(t["op"]),
                image_layout=None if t["image_dims"] is None else HilbertLayout(tuple(t["image_dims"])),
                keep=None if t["keep"] is None else tuple(t["keep"]),
            )
            for t in con["terms"]
        )
        constraints.append(Constraint(con["name"], terms, complex_from_json(con["rhs"])))
    return SdpProblem(
        blocks=blocks,
        objective=objective,
        constraints=tuple(constraints),
        objective_constant=data.get("objective_constant", 0.0),
    )


def solution_to_json(solution: SdpSolution) -> dict:
    return {
        "primal_value": solution.primal_value,
        "dual_value": solution.dual_value,
        "status": solution.status,
        "iterations": solution.iterations,
        "residuals": solution.residuals,
        "primal_blocks": {name: complex_to_json(mat) for name, mat in solution.primal_blocks.items()},
        "dual_multipliers": {
            name: (val if isinstance(val, float) else complex_to_json(val))
            for name, val in solution.dual_multipliers.items()
        },
    }


def certificate_to_json(cert: DualCertificate) -> dict:
    return {
        "claimed_value": cert.claimed_value,
        "multipliers": {
            name: (val if isinstance(val, (int, float)) else complex_to_json(val))
            for name, val in cert.multipliers.items()
        },
    }


def certificate_from_json(data: dict) -> DualCertificate:
    multipliers = {}
    for name, val in data["multipliers"].items():
        multipliers[name] = val if isinstance(val, (int, float)) else complex_from_json(val)
    return DualCertificate(multipliers=multipliers, claimed_value=data["claimed_value"])
