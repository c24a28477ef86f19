"""Exact quantum states on small tensor-factored Hilbert spaces.

Pure states (``StateVector``), mixed marginals (``DensityMatrix``), unitaries
on chosen factors, computational-basis measurements and the Helstrom
measurement, the standard gates, plus the raw-array helpers the SDP and
protocol layers build operators with.  Dense complex vectors and matrices
only, no sparse representations in memory (protocol files list a matrix's
nonzero entries, but ``complex_from_json`` reads them into a dense array).

This module alone moves tensor factors, and it does so through one cut: an
array over a factored space, seen as a (kept, rest) matrix whose rows run
over the chosen factors in the order given.  Operators act on joint states
(up to a few thousand dimensions) through ``apply_local`` on that matrix,
and ``embed_operator`` is ``apply_local`` on the identity's columns; mixed
marginals come from ``StateVector.reduced`` (``partial_trace`` for a
``DensityMatrix``) and the parts of a product state from
``StateVector.split`` on the same cut.  So only round-local operators
and kept marginals are ever dense matrices.

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
        for d in self.factor_dims:
            if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
                raise ValueError(f"factor dimension {d!r} is not an integer")
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
    """Pure state over a HilbertLayout, normalized to unit norm within NORM_TOL."""

    layout: HilbertLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amplitudes).reshape(-1))
        if amps.shape != (self.layout.dim,):
            raise ValueError(
                f"amplitude length {amps.shape[0]} != layout dimension {self.layout.dim}"
            )
        object.__setattr__(self, "amplitudes", amps)
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
        return DensityMatrix(layout, m @ m.conj().T)

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
        return kept, StateVector(self.layout.subset(rest), sing[0] * phase * vh[0])


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state over a HilbertLayout.

    Hermitian within STATE_HERMITICITY_TOL, eigenvalues >= -STATE_EIGENVALUE_TOL,
    trace 1 within TRACE_TOL.
    """

    layout: HilbertLayout
    matrix: np.ndarray

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
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} != 1")
        object.__setattr__(self, "matrix", mat)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))


# ---------------------------------------------------------------------------
# raw-array helpers (shared by the SDP and protocol machinery)


def embed_operator(op: np.ndarray, dims, factors) -> np.ndarray:
    """Extend ``op`` (acting on ``factors``, in that order) by identities."""
    dims = tuple(int(d) for d in dims)
    factors = tuple(int(i) for i in factors)
    d_sel = math.prod(dims[i] for i in factors)
    op = np.asarray(op, dtype=complex)
    if op.shape != (d_sel, d_sel):
        raise ValueError(f"operator shape {op.shape} does not match factors {factors}")
    return apply_local(op, np.eye(math.prod(dims), dtype=complex), dims, factors)


def swap_gate(d: int) -> np.ndarray:
    """Exchange of two d-level factors."""
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[j * d + i, i * d + j] = 1.0
    return s


HADAMARD = _frozen(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
PAULI_X = _frozen([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = _frozen(np.diag([1.0, -1.0]))
CNOT = _frozen(np.eye(4)[[0, 1, 3, 2]])  # control first


# ---------------------------------------------------------------------------
# spec operations


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product of two StateVectors."""
    if not (isinstance(a, StateVector) and isinstance(b, StateVector)):
        raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")
    return StateVector(a.layout.concat(b.layout), np.kron(a.amplitudes, b.amplitudes))


# no library path calls this; perfbench/tracing.py traces it by name, so it stays
def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out all factors not in ``keep`` (kept factors keep their order):
    the (kept, rest) cut of the rows, then of the columns, traced over the rest."""
    keep = sorted(rho.layout.check_factors(keep))
    dims = rho.layout.factor_dims
    rows = _cut(rho.matrix, dims, keep)  # [k, (r, column)]
    dk = rows.shape[0]
    dr = rho.layout.dim // dk
    both = _cut(rows.reshape(dk, dr, -1).transpose(2, 0, 1), dims, keep)  # [k', (r', k, r)]
    reduced = np.einsum("jaia->ij", both.reshape(dk, dr, dk, dr))
    layout = rho.layout.subset(keep) if keep else HilbertLayout((1,))
    return DensityMatrix(layout, reduced)


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
    return StateVector(state.layout, out)


def _cut(array: np.ndarray, dims, kept) -> np.ndarray:
    """An array over ``dims`` (first axis; any trailing axes ride along) as a
    (kept, rest) matrix: rows run over ``kept`` in the order given, columns
    over the other factors in their original order, then the trailing axes."""
    order = list(kept) + [i for i in range(len(dims)) if i not in kept]
    trail = array.shape[1:]
    axes = order + list(range(len(dims), len(dims) + len(trail)))
    return array.reshape(tuple(dims) + trail).transpose(axes).reshape(math.prod(dims[i] for i in kept), -1)


def _uncut(matrix: np.ndarray, dims, kept, trail=()) -> np.ndarray:
    """Inverse of ``_cut``: the array over ``dims`` with trailing axes ``trail``."""
    order = list(kept) + [i for i in range(len(dims)) if i not in kept]
    axes = list(np.argsort(order)) + list(range(len(dims), len(dims) + len(trail)))
    shape = [dims[i] for i in order] + list(trail)
    return matrix.reshape(shape).transpose(axes).reshape((-1,) + tuple(trail))


def apply_local(op: np.ndarray, array: np.ndarray, dims, factors) -> np.ndarray:
    """``op`` on ``factors`` (in the order given), identity elsewhere, applied
    to a flat amplitude vector over ``dims``, or to each column of a matrix
    with rows over ``dims``, without forming the embedded operator."""
    return _uncut(op @ _cut(array, dims, factors), dims, factors, array.shape[1:])


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
# JSON encoding of complex matrices, the encoding of protocol files.  A matrix
# is written as its nonzero entries, row-major: {"shape": [n_rows, n_cols],
# "rows": [...], "cols": [...], "re": [...], "im": [...]}.  The dense form,
# row-major nested lists of [re, im] pairs, is still read.

_SPARSE_KEYS = ("shape", "rows", "cols", "re", "im")


def complex_to_json(array: np.ndarray) -> dict:
    arr = np.asarray(array, dtype=complex)
    rows, cols = np.nonzero(arr)
    values = arr[rows, cols]
    return {
        "shape": list(arr.shape),
        "rows": rows.tolist(),
        "cols": cols.tolist(),
        "re": values.real.tolist(),
        "im": values.imag.tolist(),
    }


def complex_from_json(data) -> np.ndarray:
    """Either form: a JSON object is a sparse matrix, anything else dense
    [re, im] pairs.  Malformed input raises ValueError naming the fault."""
    if isinstance(data, dict):
        return _sparse_from_json(data)
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValueError("expected trailing [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _is_int(value) -> bool:
    return type(value) is int  # JSON integers only: no bool, no float


def _sparse_from_json(data: dict) -> np.ndarray:
    missing = [key for key in _SPARSE_KEYS if key not in data]
    if missing:
        raise ValueError(f"sparse matrix: missing key {missing[0]!r}")
    shape = data["shape"]
    if not (isinstance(shape, list) and len(shape) == 2 and all(_is_int(n) and n > 0 for n in shape)):
        raise ValueError(f"sparse matrix 'shape': expected two positive integers, got {shape!r}")
    try:  # a few bytes of file can ask for any size
        out = np.zeros(shape, dtype=complex)
    except (MemoryError, OverflowError, ValueError) as exc:
        raise ValueError(f"sparse matrix 'shape': cannot allocate {shape}") from exc
    lists = {key: data[key] for key in _SPARSE_KEYS[1:]}
    for key, value in lists.items():
        if not isinstance(value, list):
            raise ValueError(f"sparse matrix {key!r}: expected a list")
    if len({len(value) for value in lists.values()}) != 1:
        lengths = ", ".join(f"{key} {len(value)}" for key, value in lists.items())
        raise ValueError(f"sparse matrix: lists of unequal length ({lengths})")
    for key, bound in zip(("rows", "cols"), shape):
        for i in lists[key]:
            if not _is_int(i):
                raise ValueError(f"sparse matrix {key!r}: index {i!r} is not an integer")
            if not 0 <= i < bound:
                raise ValueError(f"sparse matrix {key!r}: index {i} out of range [0, {bound})")
    values = [np.asarray(lists[key], dtype=float) for key in ("re", "im")]
    if any(v.ndim != 1 for v in values):
        raise ValueError("sparse matrix 're', 'im': expected lists of numbers")
    rows = np.array(lists["rows"], dtype=np.intp)
    cols = np.array(lists["cols"], dtype=np.intp)
    flat, counts = np.unique(rows * shape[1] + cols, return_counts=True)
    if flat.size != rows.size:
        row, col = divmod(int(flat[counts > 1][0]), shape[1])
        raise ValueError(f"sparse matrix: duplicate entry ({row}, {col})")
    out.real[rows, cols], out.imag[rows, cols] = values
    return out
