"""Exact quantum states on small tensor-factored Hilbert spaces.

Pure states (``StateVector``), mixed marginals (``DensityMatrix``), unitaries
on chosen factors, computational-basis measurements and the Helstrom
measurement, plus the raw-array helpers the SDP and protocol layers build
operators with.  Dense complex vectors and matrices only, no sparse
representations.  Joint states (up to a few thousand dimensions) stay
vectors: operators act on them through ``apply_local``, mixed marginals come
from ``StateVector.reduced`` and the parts of a product state from
``StateVector.split``, all three on one (kept, rest) reshape of the
amplitudes, so only round-local operators and kept marginals are ever dense
matrices.

All values are immutable after construction.  Every stochastic operation
takes an explicit ``numpy.random.Generator`` stream, so results are
reproducible and safe to evaluate concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-6
STATE_HERMITICITY_TOL = 1e-9
STATE_EIGENVALUE_TOL = 1e-8
TRACE_TOL = 1e-8


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a Generator; ints seed a fresh stream, Generators pass through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _frozen(array: np.ndarray, dtype=complex) -> np.ndarray:
    out = np.array(array, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HilbertLayout:
    """Ordered local dimensions of a tensor-factored Hilbert space."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"factor dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self) -> int:
        return int(np.prod(self.factor_dims))

    @property
    def nfactors(self) -> int:
        return len(self.factor_dims)

    def concat(self, other: "HilbertLayout") -> "HilbertLayout":
        return HilbertLayout(self.factor_dims + other.factor_dims)

    def subset(self, factors) -> "HilbertLayout":
        return HilbertLayout(tuple(self.factor_dims[i] for i in factors))

    def check_factors(self, factors) -> tuple[int, ...]:
        factors = tuple(int(i) for i in factors)
        if len(set(factors)) != len(factors):
            raise ValueError(f"repeated factor index in {factors}")
        for i in factors:
            if not 0 <= i < self.nfactors:
                raise ValueError(f"factor index {i} out of range for {self}")
        return factors


def qubits(n: int) -> HilbertLayout:
    return HilbertLayout((2,) * n)


@dataclass(frozen=True)
class StateVector:
    """Pure state over a HilbertLayout.

    Normalized to unit norm within NORM_TOL unless flagged ``subnormalized``
    (conditional, not-yet-renormalized branches).
    """

    layout: HilbertLayout
    amplitudes: np.ndarray
    subnormalized: bool = False

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amplitudes).reshape(-1))
        if amps.shape != (self.layout.dim,):
            raise ValueError(
                f"amplitude length {amps.shape[0]} != layout dimension {self.layout.dim}"
            )
        object.__setattr__(self, "amplitudes", amps)
        if not self.subnormalized:
            nrm = np.linalg.norm(amps)
            if abs(nrm - 1.0) > NORM_TOL:
                raise ValueError(f"state not normalized: |psi| = {nrm!r}")

    @classmethod
    def basis(cls, layout: HilbertLayout, indices) -> "StateVector":
        """Computational basis state |i1 i2 ...> for one index per factor."""
        if isinstance(indices, int):
            indices = (indices,)
        indices = tuple(int(i) for i in indices)
        if len(indices) != layout.nfactors:
            raise ValueError("need one basis index per factor")
        amps = np.zeros(layout.dim, dtype=complex)
        amps[np.ravel_multi_index(indices, layout.factor_dims)] = 1.0
        return cls(layout, amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        if other.layout.dim != self.layout.dim:
            raise ValueError("dimension mismatch")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "StateVector") -> float:
        return abs(self.overlap(other)) ** 2

    def reduced(self, keep) -> "DensityMatrix":
        """Marginal on ``keep``, in the original factor order, without the
        full outer product: M M^dagger of the (kept, rest) cut matrix.
        ``keep=()`` gives the 1x1 squared norm."""
        keep = sorted(self.layout.check_factors(keep))
        m = _cut(self.amplitudes, self.layout.factor_dims, keep)
        layout = self.layout.subset(keep) if keep else HilbertLayout((1,))
        return DensityMatrix(layout, m @ m.conj().T, subnormalized=self.subnormalized)

    def split(self, keep) -> tuple["StateVector", "StateVector | None"]:
        """Factor a product state into ``(kept, rest)``, read off the
        (kept, rest) cut matrix with a rank-1 SVD.

        ``kept`` is the unit-norm state on ``keep`` in the order given, its
        largest amplitude real and positive.  ``rest`` is the state on the
        other factors in their original order, carrying the norm and global
        phase (kept (x) rest is this state), or ``None`` when nothing remains.
        Raises ``ValueError`` when the state is entangled across the cut: the
        kept marginal's second eigenvalue exceeds 1e-9.
        """
        keep = self.layout.check_factors(keep)
        u, sing, vh = np.linalg.svd(_cut(self.amplitudes, self.layout.factor_dims, keep),
                                    full_matrices=False)
        if sing.size > 1 and sing[1] ** 2 > 1e-9:
            raise ValueError("state is not pure")
        vec = u[:, 0]
        idx = int(np.argmax(np.abs(vec)))
        phase = vec[idx] / abs(vec[idx])
        kept = StateVector(self.layout.subset(keep), vec / phase)
        rest = [i for i in range(self.layout.nfactors) if i not in keep]
        if not rest:
            return kept, None
        return kept, StateVector(self.layout.subset(rest), sing[0] * phase * vh[0],
                                 subnormalized=self.subnormalized)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state over a HilbertLayout.

    Hermitian within STATE_HERMITICITY_TOL, eigenvalues >= -STATE_EIGENVALUE_TOL,
    trace 1 within TRACE_TOL.  Sub-normalized operators (trace at most
    1 + TRACE_TOL) are an explicit flagged state, not an error: the
    cheating-strategy SDPs work with families whose traces only sum to one.
    """

    layout: HilbertLayout
    matrix: np.ndarray
    subnormalized: bool = False

    def __post_init__(self):
        mat = _frozen(self.matrix)
        d = self.layout.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} != ({d}, {d})")
        if np.max(np.abs(mat - mat.conj().T)) > STATE_HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        evals = np.linalg.eigvalsh(mat)
        if evals[0] < -STATE_EIGENVALUE_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {evals[0]}")
        tr = float(np.real(np.trace(mat)))
        if not self.subnormalized and abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} != 1")
        if self.subnormalized and tr > 1.0 + TRACE_TOL:
            raise ValueError(f"sub-normalized density matrix has trace {tr} > 1")
        object.__setattr__(self, "matrix", mat)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))


# ---------------------------------------------------------------------------
# raw-array helpers (shared by the SDP and protocol machinery)


# only partial_trace calls this (see there for why both stay)
def ptrace(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace of a square matrix over the factors not in ``keep``.

    ``keep`` preserves the original factor order regardless of the order
    given.  ``keep`` may be empty, returning a 1x1 matrix (the full trace).
    """
    dims = tuple(int(d) for d in dims)
    keep = sorted(set(int(i) for i in keep))
    n = len(dims)
    mat = np.asarray(mat, dtype=complex).reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    for count, i in enumerate(traced):
        axis = i - sum(1 for j in traced[:count] if j < i)
        nleft = n - count
        mat = np.trace(mat, axis1=axis, axis2=axis + nleft)
    dkeep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return mat.reshape(dkeep, dkeep)


def grouping_permutation(dims, front) -> np.ndarray:
    """Index permutation moving ``front`` factors (in given order) first.

    Returns ``perm`` with ``vec_new[k] = vec_old[perm[k]]``; apply to a
    matrix as ``M[np.ix_(perm, perm)]``.
    """
    dims = tuple(int(d) for d in dims)
    front = tuple(int(i) for i in front)
    rest = [i for i in range(len(dims)) if i not in front]
    order = list(front) + rest
    src = np.arange(int(np.prod(dims))).reshape(dims)
    return np.transpose(src, order).reshape(-1)


def embed_operator(op: np.ndarray, dims, factors) -> np.ndarray:
    """Extend ``op`` (acting on ``factors``, in that order) by identities."""
    dims = tuple(int(d) for d in dims)
    factors = tuple(int(i) for i in factors)
    d_sel = int(np.prod([dims[i] for i in factors]))
    op = np.asarray(op, dtype=complex)
    if op.shape != (d_sel, d_sel):
        raise ValueError(f"operator shape {op.shape} does not match factors {factors}")
    rest = [i for i in range(len(dims)) if i not in factors]
    d_rest = int(np.prod([dims[i] for i in rest])) if rest else 1
    big = np.kron(op, np.eye(d_rest))
    perm = grouping_permutation(dims, factors)
    inv = np.argsort(perm)
    return big[np.ix_(inv, inv)]


# ---------------------------------------------------------------------------
# spec operations


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product of two StateVectors."""
    if not (isinstance(a, StateVector) and isinstance(b, StateVector)):
        raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")
    return StateVector(
        a.layout.concat(b.layout),
        np.kron(a.amplitudes, b.amplitudes),
        subnormalized=a.subnormalized or b.subnormalized,
    )


# no library path calls this; perfbench/tracing.py traces it by name, so it stays
def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out all factors not in ``keep`` (kept factors keep their order)."""
    keep = rho.layout.check_factors(keep)
    reduced = ptrace(rho.matrix, rho.layout.factor_dims, keep)
    if not keep:
        layout = HilbertLayout((1,))
    else:
        layout = rho.layout.subset(sorted(keep))
    return DensityMatrix(layout, reduced, subnormalized=rho.subnormalized)


@dataclass(frozen=True)
class HelstromMeasurement:
    """Optimal two-outcome discrimination of rho0 vs rho1 at uniform prior."""

    projector_0: np.ndarray
    projector_1: np.ndarray
    success_probability: float


def helstrom(rho0: DensityMatrix, rho1: DensityMatrix) -> HelstromMeasurement:
    """Projectors onto the nonnegative/negative eigenspaces of rho0 - rho1.

    Success probability is 1/2 + ||rho0 - rho1||_t / 4 and is achieved by the
    returned projectors (guessing 0 on the nonnegative eigenspace).
    """
    if rho0.layout.dim != rho1.layout.dim:
        raise ValueError("dimension mismatch")
    diff = rho0.matrix - rho1.matrix
    evals, vecs = np.linalg.eigh(diff)
    pos = vecs[:, evals >= 0.0]
    p0 = pos @ pos.conj().T
    p1 = np.eye(rho0.layout.dim) - p0
    success = 0.5 + float(np.sum(np.abs(evals))) / 4.0
    achieved = 0.5 * float(np.real(np.trace(p0 @ rho0.matrix) + np.trace(p1 @ rho1.matrix)))
    if abs(achieved - success) > 1e-9:
        raise AssertionError(f"Helstrom projectors achieve {achieved}, formula {success}")
    return HelstromMeasurement(_frozen(p0), _frozen(p1), success)


def apply_unitary(state: StateVector, unitary: np.ndarray, factors=None) -> StateVector:
    """Apply a unitary on the selected factors, identity elsewhere.

    ``factors`` defaults to all factors; an unordered/permuted tuple is
    honoured (the unitary sees the factors in the order given).
    """
    if factors is None:
        factors = tuple(range(state.layout.nfactors))
    factors = state.layout.check_factors(factors)
    dims = state.layout.factor_dims
    u = np.asarray(unitary, dtype=complex)
    d_sel = int(np.prod([dims[i] for i in factors]))
    if u.shape != (d_sel, d_sel):
        raise ValueError(f"unitary shape {u.shape} does not match factors {factors}")
    if np.max(np.abs(u.conj().T @ u - np.eye(d_sel))) > 1e-10:
        raise ValueError("operator is not unitary within 1e-10")
    out = apply_local(u, state.amplitudes, dims, factors)
    return StateVector(state.layout, out, subnormalized=state.subnormalized)


def _cut(amplitudes: np.ndarray, dims, kept) -> np.ndarray:
    """The amplitudes as a (kept, rest) matrix: rows run over ``kept`` in the
    order given, columns over the other factors in their original order."""
    order = list(kept) + [i for i in range(len(dims)) if i not in kept]
    return amplitudes.reshape(dims).transpose(order).reshape(math.prod(dims[i] for i in kept), -1)


def _uncut(matrix: np.ndarray, dims, kept) -> np.ndarray:
    """Inverse of ``_cut``: the flat amplitude vector of a (kept, rest) matrix."""
    order = list(kept) + [i for i in range(len(dims)) if i not in kept]
    return matrix.reshape([dims[i] for i in order]).transpose(np.argsort(order)).reshape(-1)


def apply_local(op: np.ndarray, amplitudes: np.ndarray, dims, factors) -> np.ndarray:
    """``op`` on ``factors`` (in the order given), identity elsewhere, applied
    to a flat amplitude vector over ``dims``; equals
    ``embed_operator(op, dims, factors) @ amplitudes`` without forming it."""
    return _uncut(op @ _cut(amplitudes, dims, factors), dims, factors)


def measure(state: StateVector, factors, rng: np.random.Generator):
    """Computational-basis measurement of the selected factors.

    Returns ``(outcome, post_state)``: the outcome is one int per measured
    factor, the post state is the renormalized conditional state.  Sampling
    is Born-exact and deterministic given the stream.
    """
    factors = state.layout.check_factors(factors)
    dims = state.layout.factor_dims
    m = _cut(state.amplitudes, dims, factors)
    probs = np.sum(np.abs(m) ** 2, axis=1)
    pick = int(rng.choice(probs.size, p=probs / probs.sum()))
    outcome = np.unravel_index(pick, tuple(dims[i] for i in factors))
    post = np.zeros_like(m)
    post[pick] = m[pick]
    amps = _uncut(post, dims, factors)
    amps = amps / np.linalg.norm(amps)
    return tuple(int(o) for o in outcome), StateVector(state.layout, amps)


def projector(state: StateVector) -> np.ndarray:
    return np.outer(state.amplitudes, state.amplitudes.conj())


# ---------------------------------------------------------------------------
# JSON encoding of complex vectors/matrices: row-major nested lists of
# [re, im] pairs, the encoding of protocol files.


def complex_to_json(array: np.ndarray):
    arr = np.asarray(array, dtype=complex)
    paired = np.stack([arr.real, arr.imag], axis=-1)
    return paired.tolist()


def complex_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError("expected trailing [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]
