import itertools
import math

import numpy as np
import pytest

from conftest import alloc_peak_bytes, density_matrix, random_state
from qcoinflip.broadcast import (
    EPR,
    broadcast_qubit,
    classical_broadcast,
    emulate_broadcast_pairwise,
    establish_epr,
    simulate_quantum_channel_via_qbc,
    teleport,
)
from qcoinflip.quantum import (
    HADAMARD,
    HilbertLayout,
    StateVector,
    apply_unitary,
    as_rng,
    measure,
    partial_trace,
    qubits,
    tensor,
)


def random_amplitudes(rng):
    a = rng.normal() + 1j * rng.normal()
    b = rng.normal() + 1j * rng.normal()
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / norm, b / norm


class TestBroadcastQubit:
    def test_basis_input(self):
        shared = broadcast_qubit(1.0, 0.0, 5)
        expected = np.zeros(32)
        expected[0] = 1.0
        np.testing.assert_allclose(shared.amplitudes, expected)

    def test_three_party_shared_state(self):
        shared = broadcast_qubit(1 / math.sqrt(2), 1 / math.sqrt(2), 3)
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / math.sqrt(2)
        np.testing.assert_allclose(shared.amplitudes, expected, atol=1e-15)

    def test_not_a_product_state(self):
        shared = broadcast_qubit(1 / math.sqrt(2), 1 / math.sqrt(2), 3)
        plus = StateVector(qubits(1), np.array([1, 1]) / math.sqrt(2))
        product = tensor(tensor(plus, plus), plus)
        assert abs(shared.fidelity(product) - 0.25) < 1e-12

    def test_permutation_symmetric(self, rng):
        alpha, beta = random_amplitudes(rng)
        shared = broadcast_qubit(alpha, beta, 4)
        amps = shared.amplitudes.reshape((2,) * 4)
        for perm in itertools.permutations(range(4)):
            np.testing.assert_allclose(np.transpose(amps, perm), amps, atol=1e-14)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            broadcast_qubit(1.0, 1.0, 3)


class TestPairwiseEmulation:
    def test_fidelity_one_random_sweep(self, rng):
        for trial in range(100):
            k = 2 + trial % 5
            alpha, beta = random_amplitudes(rng)
            shared, transcript = emulate_broadcast_pairwise(alpha, beta, k, rng)
            target = broadcast_qubit(alpha, beta, k)
            assert shared.fidelity(target) > 1.0 - 1e-12
            assert transcript[-1]["use_count"] == 2 * (k - 1)

    def test_two_party_counts(self, rng):
        _, transcript = emulate_broadcast_pairwise(0.6, 0.8, 2, rng)
        assert transcript[-1]["use_count"] == 2

    def test_disabled_parity_fix_halves_mean_fidelity(self):
        target = broadcast_qubit(1 / math.sqrt(2), 1 / math.sqrt(2), 3)
        fidelities = []
        for seed in range(2000):
            shared, _ = emulate_broadcast_pairwise(
                1 / math.sqrt(2), 1 / math.sqrt(2), 3, as_rng(seed), apply_parity_fix=False
            )
            fidelities.append(shared.fidelity(target))
        mean = float(np.mean(fidelities))
        sigma = 0.5 / math.sqrt(len(fidelities))  # outcomes are 0/1 binomial
        assert abs(mean - 0.5) < 4 * sigma


class TestClassicalBroadcast:
    def test_all_receive_the_bit(self, rng):
        outcomes, transcript = classical_broadcast(1, 6, rng)
        assert outcomes == [1] * 6
        assert transcript[0]["use_count"] == 1
        outcomes, _ = classical_broadcast(0, 2, rng)
        assert outcomes == [0, 0]

    def test_dishonest_sender_yields_correlated_coin(self):
        # broadcasting a superposition gives every recipient the same random bit
        for seed in range(200):
            state = broadcast_qubit(1 / math.sqrt(2), 1 / math.sqrt(2), 4)
            rng = as_rng(seed)
            bits = []
            for j in range(4):
                (bit,), state = measure(state, (j,), rng)
                bits.append(bit)
            assert len(set(bits)) == 1


def assert_helper_basis_state(residual, transcript, k):
    bits = [e["classical_bits"][0] for e in transcript if "measure" in e["action"]]
    assert abs(residual.norm - 1.0) < 1e-12
    expected = StateVector.basis(qubits(k - 2), tuple(bits)).amplitudes
    np.testing.assert_allclose(residual.amplitudes, expected, rtol=0, atol=1e-12)


class TestEstablishPair:
    def test_fidelity_one_all_sizes(self, rng):
        for k in range(2, 9):
            for _ in range(20):
                i, j = 0, int(rng.integers(1, k))
                pair, residual, transcript, uses = establish_epr(i, j, k, rng)
                assert pair.fidelity(EPR) > 1.0 - 1e-12
                assert uses == k - 1
                if residual is not None:
                    assert_helper_basis_state(residual, transcript, k)

    def test_helper_outcomes_uniform_but_fidelity_always_one(self):
        ones = 0
        trials = 1000
        for seed in range(trials):
            pair, _, transcript, _ = establish_epr(0, 4, 5, as_rng(seed))
            assert pair.fidelity(EPR) > 1.0 - 1e-12
            helper_bits = [e["classical_bits"][0] for e in transcript if "measure" in e["action"]]
            ones += sum(helper_bits) % 2
        sigma = math.sqrt(trials * 0.25)
        assert abs(ones - trials / 2) < 4 * sigma

    def test_unentangled_from_helpers(self, rng):
        # entanglement entropy across the (pair | helpers) cut is zero:
        # the helpers are left in the basis state of their broadcast bits
        _, residual, transcript, _ = establish_epr(0, 1, 6, rng)
        assert_helper_basis_state(residual, transcript, 6)

    def test_bad_arguments(self, rng):
        with pytest.raises(ValueError):
            establish_epr(0, 0, 3, rng)

    def test_memory_stays_below_full_density_matrix(self, rng):
        # a 4096 x 4096 complex density matrix on all 12 qubits is 268 MB
        assert alloc_peak_bytes(lambda: establish_epr(0, 11, 12, rng)) < 150e6

    def test_memory_stays_on_the_state_vector(self, rng):
        # the 13-qubit state vector is 131 kB; a dense 2^11 x 2^11 helper
        # density matrix alone would be 67 MB
        assert alloc_peak_bytes(lambda: establish_epr(0, 12, 13, rng)) < 5e6


class TestTeleport:
    def test_basis_payload(self, rng):
        received, bits, _ = teleport(StateVector.basis(qubits(1), 0), EPR, rng)
        assert received.fidelity(StateVector.basis(qubits(1), 0)) > 1.0 - 1e-12

    def test_random_payloads_fidelity_one(self, rng):
        for _ in range(100):
            payload = random_state(qubits(1), rng)
            received, _, _ = teleport(payload, EPR, rng)
            assert received.fidelity(payload) > 1.0 - 1e-12

    def test_correction_branches_uniform(self):
        payload = StateVector(qubits(1), np.array([1.0, 1.0j]) / math.sqrt(2))
        counts = {}
        trials = 1000
        for seed in range(trials):
            received, bits, _ = teleport(payload, EPR, as_rng(seed))
            assert received.fidelity(payload) > 1.0 - 1e-12
            counts[bits] = counts.get(bits, 0) + 1
        sigma = math.sqrt(trials * 0.25 * 0.75)
        for branch in ((0, 0), (0, 1), (1, 0), (1, 1)):
            assert abs(counts.get(branch, 0) - trials / 4) < 4 * sigma

    def test_degraded_pair_rejected(self, rng):
        bad = StateVector(qubits(2), np.array([1, 0.2, 0, 1]) / math.sqrt(2.04))
        with pytest.raises(ValueError):
            teleport(StateVector.basis(qubits(1), 0), bad, rng)


class TestChannelViaBroadcast:
    def test_use_counts(self, rng):
        for k in (2, 3, 4, 6):
            payload = random_state(qubits(1), rng)
            received, uses, _ = simulate_quantum_channel_via_qbc(0, k - 1, payload, k, rng)
            assert uses == k + 1
            assert received.fidelity(payload) > 1.0 - 1e-12

    def test_purification_half_stays_maximally_mixed(self, rng):
        # send one leg of a shared pair: the channel must preserve the
        # entanglement, so the received qubit alone is maximally mixed
        half = StateVector(qubits(2), np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
        received, uses, _ = simulate_quantum_channel_via_qbc(0, 3, half, 4, rng)
        assert uses == 5
        assert received.fidelity(EPR) > 1.0 - 1e-12
        reduced = partial_trace(density_matrix(received), keep=(0,))
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-10)


def coalition_rotates_and_measures(shared: StateVector, cheaters, rng):
    """The cheaters rotate each of their qubits to the +/- basis and measure
    it, in the order given.  Returns (the honest party's conditional pure
    state, the outcomes)."""
    (honest,) = [p for p in range(shared.layout.nfactors) if p not in cheaters]
    state, outcomes = shared, []
    for c in cheaters:
        (bit,), state = measure(apply_unitary(state, HADAMARD, (c,)), (c,), rng)
        outcomes.append(bit)
    return state.split((honest,))[0], outcomes


class TestCheatCollapse:
    def test_two_party_phase_states(self):
        shared = broadcast_qubit(1 / math.sqrt(2), 1 / math.sqrt(2), 2)
        seen = set()
        for seed in range(50):
            state, outcomes = coalition_rotates_and_measures(shared, [1], as_rng(seed))
            sign = 1.0 if outcomes[0] == 0 else -1.0
            expected = np.array([1.0, sign]) / math.sqrt(2)
            np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)
            seen.add(outcomes[0])
        assert seen == {0, 1}

    def test_three_party_outcome_parity_sets_phase(self):
        shared = broadcast_qubit(1 / math.sqrt(2), 1 / math.sqrt(2), 3)
        for seed in range(50):
            state, outcomes = coalition_rotates_and_measures(shared, [0, 2], as_rng(seed))
            sign = 1.0 if sum(outcomes) % 2 == 0 else -1.0
            np.testing.assert_allclose(
                state.amplitudes, np.array([1.0, sign]) / math.sqrt(2), atol=1e-12
            )

    def test_matches_pairwise_emulation_conditional_states(self):
        # receiving the fan-out over pairwise channels gives the coalition the
        # same conditional-state family (up to the randomized phase) as the
        # broadcast channel followed by rotate-and-measure
        shared = broadcast_qubit(0.6, 0.8, 2)
        collapse_states = set()
        for seed in range(40):
            state, _ = coalition_rotates_and_measures(shared, [1], as_rng(seed))
            collapse_states.add(tuple(np.round(np.abs(state.amplitudes), 9)))
        assert collapse_states == {(0.6, 0.8)}  # amplitudes fixed, phase random

    def test_plain_measurement_collapses_to_basis(self):
        shared = broadcast_qubit(1 / math.sqrt(2), 1 / math.sqrt(2), 2)
        for seed in range(20):
            rng = as_rng(seed)
            (bit,), post = measure(shared, (0,), rng)
            reduced = partial_trace(density_matrix(post), keep=(1,))
            np.testing.assert_allclose(
                np.diag(reduced.matrix).real, np.eye(2)[bit], atol=1e-12
            )
