import tracemalloc

import numpy as np
import pytest

from qcoinflip.quantum import DensityMatrix, HilbertLayout, StateVector


def random_state(layout: HilbertLayout, rng) -> StateVector:
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return StateVector(layout, amps / np.linalg.norm(amps))


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


def random_hermitian(d: int, rng) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


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
