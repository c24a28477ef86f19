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
