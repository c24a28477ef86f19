import math

import numpy as np
import pytest

from conftest import dense_json, density_matrix, embedded_operator, random_density, random_state, random_unitary
from qcoinflip.quantum import (
    DensityMatrix,
    HilbertLayout,
    StateVector,
    apply_local,
    apply_unitary,
    as_rng,
    complex_from_json,
    complex_to_json,
    embed_operator,
    helstrom,
    measure,
    partial_trace,
    projector,
    qubits,
    tensor,
)

PAIR = HilbertLayout((3, 3))


class TestLayout:
    def test_numpy_integer_dims_accepted(self):
        layout = HilbertLayout((np.int64(2), np.int32(3)))
        assert layout.factor_dims == (2, 3) and all(type(d) is int for d in layout.factor_dims)

    @pytest.mark.parametrize("dims", [(2.7,), (2.0,), (True, 2), (2, np.float64(3.0)), ("2",)])
    def test_non_integer_dims_rejected(self, dims):
        with pytest.raises(ValueError, match="not an integer"):
            HilbertLayout(dims)


class TestTensor:
    def test_basis_states(self):
        zero = StateVector.basis(HilbertLayout((2,)), 0)
        out = tensor(zero, zero)
        assert out.layout.factor_dims == (2, 2)
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])

    def test_norm_multiplicative(self, rng):
        a = random_state(HilbertLayout((3,)), rng)
        b = random_state(HilbertLayout((2, 2)), rng)
        assert abs(tensor(a, b).norm - 1.0) < 1e-12

    def test_type_mismatch_rejected(self):
        zero = StateVector.basis(HilbertLayout((2,)), 0)
        with pytest.raises(TypeError):
            tensor(zero, density_matrix(zero))


class TestPartialTrace:
    def test_commitment_register(self):
        # sqrt(d)|aa> + sqrt(1-d)|22>: second register is diagonal (d, 1-d)
        delta = 0.5
        amps = np.zeros(9, dtype=complex)
        amps[4] = math.sqrt(delta)
        amps[8] = math.sqrt(1 - delta)
        rho = density_matrix(StateVector(PAIR, amps))
        reduced = partial_trace(rho, keep=(1,))
        np.testing.assert_allclose(reduced.matrix, np.diag([0.0, delta, 1 - delta]), atol=1e-14)

    def test_full_trace_scalar(self, rng):
        rho = random_density(HilbertLayout((2, 3)), rng)
        np.testing.assert_allclose(partial_trace(rho, keep=()).matrix, [[1.0]], atol=1e-12)

    def test_product_state_factorizes(self, rng):
        sigma = random_density(HilbertLayout((2,)), rng)
        tau = random_density(HilbertLayout((3,)), rng)
        joint = DensityMatrix(HilbertLayout((2, 3)), np.kron(sigma.matrix, tau.matrix))
        np.testing.assert_allclose(partial_trace(joint, keep=(0,)).matrix, sigma.matrix, atol=1e-12)

    def test_trace_and_positivity_preserved_random_sweep(self, rng):
        # spec property sweep: 10^3 random instances, dims <= 12
        layouts = [HilbertLayout(d) for d in ((2, 2), (3, 2), (2, 2, 3), (3, 4), (2, 5))]
        for i in range(1000):
            layout = layouts[i % len(layouts)]
            rho = random_density(layout, rng, rank=1 + i % layout.dim)
            keep = (i % layout.nfactors,)
            reduced = partial_trace(rho, keep=keep)
            assert abs(reduced.trace - 1.0) < 1e-10
            assert np.linalg.eigvalsh(reduced.matrix)[0] > -1e-10

    def test_monotone_under_order(self, rng):
        # A >= B implies tr_W(A) >= tr_W(B): the trace of a PSD gap stays PSD
        for _ in range(50):
            g = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
            gap = g @ g.conj().T  # A - B for some ordered pair
            reduced = partial_trace(DensityMatrix(HilbertLayout((2, 3)), gap / np.trace(gap).real), keep=(1,))
            assert np.linalg.eigvalsh(reduced.matrix)[0] > -1e-10

    def test_bad_index(self, rng):
        rho = random_density(HilbertLayout((2, 2)), rng)
        with pytest.raises(ValueError):
            partial_trace(rho, keep=(5,))

    @pytest.mark.parametrize("keep", [(), (0,), (3,), (1, 2), (2, 1), (3, 0), (0, 2, 3), (3, 1, 0, 2)])
    def test_reduced_matches_partial_trace_of_outer_product(self, rng, keep):
        state = random_state(HilbertLayout((2, 3, 2, 3)), rng)
        reduced = state.reduced(keep)
        expected = partial_trace(density_matrix(state), keep)
        assert reduced.layout == expected.layout
        np.testing.assert_allclose(reduced.matrix, expected.matrix, rtol=0, atol=1e-14)


class TestSplit:
    DIMS = (2, 3, 2, 3)

    def product_state(self, keep, rng):
        layout = HilbertLayout(self.DIMS)
        rest = [i for i in range(len(self.DIMS)) if i not in keep]
        kept = random_state(layout.subset(keep), rng)
        other = random_state(layout.subset(rest), rng) if rest else StateVector(HilbertLayout((1,)), [1.0])
        order = list(keep) + rest
        amps = np.kron(kept.amplitudes, other.amplitudes) * np.exp(0.7j)
        amps = amps.reshape([self.DIMS[i] for i in order]).transpose(np.argsort(order))
        return StateVector(layout, amps.reshape(-1)), rest

    @pytest.mark.parametrize("keep", [(0,), (3,), (1, 2), (2, 1), (3, 0), (0, 2, 3), (3, 1, 0, 2)])
    def test_matches_partial_trace_and_eigh(self, rng, keep):
        state, rest = self.product_state(keep, rng)
        kept, other = state.split(keep)
        # oracle: top eigenvector of the marginal, moved from sorted to given order
        rho = partial_trace(density_matrix(state), keep).matrix
        vec = np.linalg.eigh(rho)[1][:, -1]
        ordered = sorted(keep)
        vec = vec.reshape([self.DIMS[i] for i in ordered])
        vec = vec.transpose([ordered.index(i) for i in keep]).reshape(-1)
        top = vec[np.argmax(np.abs(vec))]
        vec = vec * abs(top) / top
        assert kept.layout.factor_dims == tuple(self.DIMS[i] for i in keep)
        np.testing.assert_allclose(kept.amplitudes, vec, rtol=0, atol=1e-12)
        top = kept.amplitudes[np.argmax(np.abs(kept.amplitudes))]
        assert top.real > 0 and abs(top.imag) < 1e-15
        if not rest:
            assert other is None
            return
        assert other.layout.factor_dims == tuple(self.DIMS[i] for i in rest)
        np.testing.assert_allclose(
            density_matrix(other).matrix,
            partial_trace(density_matrix(state), rest).matrix,
            rtol=0,
            atol=1e-12,
        )
        order = list(keep) + rest
        joint = np.kron(kept.amplitudes, other.amplitudes)
        joint = joint.reshape([self.DIMS[i] for i in order]).transpose(np.argsort(order))
        np.testing.assert_allclose(joint.reshape(-1), state.amplitudes, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("keep", [(0,), (2,), (0, 2), (2, 1)])
    def test_entangled_cut_rejected(self, keep):
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[-1] = 1 / math.sqrt(2)
        with pytest.raises(ValueError, match="state is not pure"):
            StateVector(qubits(3), amps).split(keep)


def trace_norm(a: DensityMatrix, b: DensityMatrix) -> float:
    """||a - b||_1: the sum of the absolute eigenvalues of a - b."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix))))


class TestTraceDistance:
    def test_commitment_registers_distance(self):
        for v in (4.0, 9.0, 16.0, 25.0):
            delta = 2.0 / math.sqrt(v)
            mats = []
            for a in (0, 1):
                amps = np.zeros(9, dtype=complex)
                amps[4 * a] = math.sqrt(delta)
                amps[8] = math.sqrt(1 - delta)
                mats.append(partial_trace(density_matrix(StateVector(PAIR, amps)), keep=(1,)))
            assert abs(trace_norm(*mats) - 2 * delta) < 1e-12


class TestHelstrom:
    def test_identical_states(self, rng):
        rho = random_density(HilbertLayout((3,)), rng)
        assert abs(helstrom(rho, rho).success_probability - 0.5) < 1e-12

    def test_orthogonal_pure_states(self):
        lay = HilbertLayout((2,))
        meas = helstrom(density_matrix(StateVector.basis(lay, 0)), density_matrix(StateVector.basis(lay, 1)))
        assert abs(meas.success_probability - 1.0) < 1e-12

    def test_success_matches_formula_and_is_achieved(self, rng):
        lay = HilbertLayout((4,))
        for _ in range(100):
            r0, r1 = random_density(lay, rng), random_density(lay, rng)
            meas = helstrom(r0, r1)
            formula = 0.5 + trace_norm(r0, r1) / 4.0
            assert abs(meas.success_probability - formula) < 1e-10
            achieved = 0.5 * np.real(
                np.trace(meas.projector_0 @ r0.matrix) + np.trace(meas.projector_1 @ r1.matrix)
            )
            assert abs(achieved - formula) < 1e-10

    def test_commitment_discrimination_vs_povm_search(self, rng):
        # v = 16: formula gives 3/4; no sampled two-outcome POVM beats it
        delta = 0.5
        mats = []
        for a in (0, 1):
            amps = np.zeros(9, dtype=complex)
            amps[4 * a] = math.sqrt(delta)
            amps[8] = math.sqrt(1 - delta)
            mats.append(partial_trace(density_matrix(StateVector(PAIR, amps)), keep=(1,)))
        meas = helstrom(*mats)
        assert abs(meas.success_probability - 0.75) < 1e-12
        best = 0.0
        for _ in range(2000):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = a @ a.conj().T
            e = h / (np.linalg.eigvalsh(h)[-1] + rng.uniform(0, 1))  # 0 <= E <= 1
            win = 0.5 * np.real(np.trace(e @ mats[0].matrix) + np.trace((np.eye(3) - e) @ mats[1].matrix))
            best = max(best, win)
        assert best <= 0.75 + 1e-9


class TestApplyUnitary:
    def test_identity(self, rng):
        state = random_state(HilbertLayout((2, 3)), rng)
        out = apply_unitary(state, np.eye(6))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-14)

    def test_sigma_z_on_plus(self):
        plus = StateVector(HilbertLayout((2,)), np.array([1, 1]) / math.sqrt(2))
        out = apply_unitary(plus, np.diag([1.0, -1.0]))
        np.testing.assert_allclose(out.amplitudes, np.array([1, -1]) / math.sqrt(2), atol=1e-14)

    def test_cnot_fanout_builds_shared_state(self, rng):
        k = 5
        alpha, beta = 0.6, 0.8j
        state = StateVector(qubits(k), np.kron([alpha, beta], [1] + [0] * (2 ** (k - 1) - 1)))
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        for j in range(1, k):
            state = apply_unitary(state, cnot, (0, j))
        expected = np.zeros(2**k, dtype=complex)
        expected[0], expected[-1] = alpha, beta
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_norm_preserved_random_sweep(self, rng):
        layout = HilbertLayout((2, 3, 2))
        for _ in range(200):
            state = random_state(layout, rng)
            u = random_unitary(6, rng)
            assert abs(apply_unitary(state, u, (0, 1)).norm - 1.0) < 1e-12

    def test_non_unitary_rejected(self, rng):
        state = random_state(HilbertLayout((2,)), rng)
        with pytest.raises(ValueError):
            apply_unitary(state, np.array([[1.0, 0.0], [0.0, 2.0]]))

    @pytest.mark.parametrize("factors", [(0,), (3,), (1, 3), (3, 1), (2, 0), (3, 0, 2), (1, 2, 3, 0)])
    def test_apply_local_matches_embedded_operator(self, rng, factors):
        # any operator, not only unitaries: the protocols project with it
        dims = (2, 3, 2, 3)
        d_sel = int(np.prod([dims[i] for i in factors]))
        op = rng.normal(size=(d_sel, d_sel)) + 1j * rng.normal(size=(d_sel, d_sel))
        amps = rng.normal(size=36) + 1j * rng.normal(size=36)
        expected = embedded_operator(op, dims, factors) @ amps
        np.testing.assert_allclose(apply_local(op, amps, dims, factors), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("factors", [(0,), (3,), (3, 1), (2, 0), (1, 2, 3, 0)])
    def test_apply_local_on_a_matrix_acts_on_each_column(self, rng, factors):
        dims = (2, 3, 2, 3)
        d_sel = int(np.prod([dims[i] for i in factors]))
        op = rng.normal(size=(d_sel, d_sel)) + 1j * rng.normal(size=(d_sel, d_sel))
        mat = rng.normal(size=(36, 5)) + 1j * rng.normal(size=(36, 5))
        columns = np.stack([apply_local(op, mat[:, c], dims, factors) for c in range(5)], axis=1)
        np.testing.assert_allclose(apply_local(op, mat, dims, factors), columns, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("factors", [(0,), (3,), (1, 3), (3, 1), (2, 0), (3, 0, 2), (1, 2, 3, 0)])
    def test_embed_operator_matches_kron_and_permute(self, rng, factors):
        dims = (2, 3, 2, 3)
        d_sel = int(np.prod([dims[i] for i in factors]))
        op = rng.normal(size=(d_sel, d_sel)) + 1j * rng.normal(size=(d_sel, d_sel))
        np.testing.assert_array_equal(embed_operator(op, dims, factors), embedded_operator(op, dims, factors))

    def test_embed_operator_checks_shape(self):
        with pytest.raises(ValueError, match="does not match factors"):
            embed_operator(np.eye(3), (2, 3), (0,))


class TestMeasure:
    def test_deterministic_outcome(self):
        state = StateVector.basis(qubits(2), (0, 0))
        outcome, post = measure(state, (1,), as_rng(3))
        assert outcome == (0,)
        np.testing.assert_allclose(post.amplitudes, state.amplitudes)

    def test_shared_pair_correlations(self):
        bell = StateVector(qubits(2), np.array([1, 0, 0, 1]) / math.sqrt(2))
        counts = {0: 0, 1: 0}
        for seed in range(400):
            (bit,), post = measure(bell, (0,), as_rng(seed))
            counts[bit] += 1
            expected = np.zeros(4)
            expected[3 * bit] = 1.0
            np.testing.assert_allclose(np.abs(post.amplitudes), expected, atol=1e-12)
        assert abs(counts[0] - 200) < 4 * 10  # 4 sigma of Binomial(400, 1/2)

    def test_born_frequencies_on_rotated_shared_state(self):
        # Hadamard then measure one leg of the 4-party shared state
        hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        amps = np.zeros(16, dtype=complex)
        amps[0] = amps[-1] = 1 / math.sqrt(2)
        base = StateVector(qubits(4), amps)
        trials = 10_000
        ones = 0
        rng = as_rng(11)
        for _ in range(trials):
            (bit,), _ = measure(apply_unitary(base, hadamard, (2,)), (2,), rng)
            ones += bit
        sigma = math.sqrt(trials * 0.25)
        assert abs(ones - trials / 2) < 4 * sigma

    def test_seeded_reproducibility(self):
        bell = StateVector(qubits(2), np.array([1, 0, 0, 1]) / math.sqrt(2))
        a = measure(bell, (0, 1), as_rng(99))[0]
        b = measure(bell, (0, 1), as_rng(99))[0]
        assert a == b


class TestIsPsd:
    def test_certificate_block_at_v4(self):
        # L_0 - (v+1)|commit_0><commit_0| with the closed-form multipliers
        from qcoinflip.penalty import PenaltyGame, certificate_scalars, commit_state

        game = PenaltyGame(4.0)
        scal = certificate_scalars(4.0)
        m0 = np.diag([scal.m0, scal.m1, scal.m2])
        block = np.kron(np.eye(3), m0) - 5.0 * projector(commit_state(0, game))
        assert np.max(np.abs(block - block.conj().T)) <= 1e-9
        assert np.linalg.eigvalsh(block)[0] >= -1e-9


class TestLayoutAndTypes:
    def test_layout_validation(self):
        with pytest.raises(ValueError):
            HilbertLayout((0, 2))

    def test_state_norm_validation(self):
        with pytest.raises(ValueError):
            StateVector(HilbertLayout((2,)), np.array([1.0, 1.0]))

    def test_norm_tolerance_boundary(self):
        lay = HilbertLayout((2,))
        StateVector(lay, np.array([1.0 + 5e-7, 0.0]))
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(lay, np.array([1.0 + 5e-6, 0.0]))

    def test_eigenvalue_tolerance_boundary(self):
        lay = HilbertLayout((2,))
        DensityMatrix(lay, np.diag([1.0 + 5e-9, -5e-9]))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(lay, np.diag([1.0 + 5e-8, -5e-8]))

    def test_embed_operator_ordering(self, rng):
        # applying on permuted factors equals conjugation by the swap
        dims = (2, 2)
        u = random_unitary(4, rng)
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1.0
        direct = embed_operator(u, dims, (1, 0))
        np.testing.assert_allclose(direct, swap @ u @ swap, atol=1e-12)


class TestJson:
    def test_roundtrip_matrix(self, rng):
        mat = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        np.testing.assert_allclose(complex_from_json(complex_to_json(mat)), mat)

    def test_layout_is_row_major_re_im_pairs(self):
        # the dense form is no longer written, and still read
        assert dense_json(np.array([[1 + 2j, 3 - 1j]])) == [[[1.0, 2.0], [3.0, -1.0]]]
        np.testing.assert_array_equal(complex_from_json([[[1.0, 2.0], [3.0, -1.0]]]), [[1 + 2j, 3 - 1j]])

    def test_sparse_layout_lists_nonzero_entries_row_major(self):
        encoded = complex_to_json(np.array([[0, 1 + 2j, 0], [-0.0, 0, 0], [3j, 0, 4]]))
        assert encoded == {"shape": [3, 3], "rows": [0, 2, 2], "cols": [1, 0, 2], "re": [1.0, 0.0, 4.0], "im": [2.0, 3.0, 0.0]}

    def test_sparse_and_dense_read_equal(self, rng):
        mat = rng.normal(size=(4, 4)) * (rng.random((4, 4)) < 0.5) + 1j * rng.normal(size=(4, 4))
        mat[1] = 0
        np.testing.assert_array_equal(complex_from_json(complex_to_json(mat)), complex_from_json(dense_json(mat)))
        np.testing.assert_array_equal(complex_from_json(complex_to_json(np.zeros((2, 3)))), np.zeros((2, 3)))
