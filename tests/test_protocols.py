import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import alloc_peak_bytes, dense_json, dense_protocol_json, random_state, two_party_dict
from qcoinflip.protocols import (
    KPartyProtocol,
    ProtocolFormatError,
    alice_announces,
    announce_kparty,
    honest_state,
    load_protocol,
    penalty_protocol,
    penalty_protocol_compact4,
    protocol_from_json,
    protocol_to_json,
    save_protocol,
    two_party,
    unitary_with_first_column,
    validate_protocol,
)
from qcoinflip.quantum import CNOT, HilbertLayout, StateVector, swap_gate


class TestHelpers:
    def test_swap_gate(self):
        s = swap_gate(3)
        v = np.kron([1, 0, 0], [0, 1, 0])
        np.testing.assert_allclose(s @ v, np.kron([0, 1, 0], [1, 0, 0]))

    def test_xor_gate_truth_table(self):
        g = CNOT  # XORs the control (first) into the target
        for c in range(2):
            for t in range(2):
                vec = np.zeros(4)
                vec[2 * c + t] = 1.0
                out = g @ vec
                assert out[2 * c + (t ^ c)] == 1.0

    def test_unitary_completion(self, rng):
        for _ in range(20):
            vec = random_state(HilbertLayout((5,)), rng).amplitudes
            u = unitary_with_first_column(vec)
            np.testing.assert_allclose(u[:, 0], vec, atol=1e-12)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-12)


class TestTwoPartyValidation:
    def test_alice_announces_valid_and_balanced(self):
        report = validate_protocol(alice_announces())
        assert report.valid
        assert abs(report.p0 - 0.5) < 1e-12
        assert abs(report.p1 - 0.5) < 1e-12
        assert report.p_abort < 1e-12

    @pytest.mark.parametrize("v", [4.0, 16.0, 36.0])
    def test_penalty_encoding_valid(self, v):
        report = validate_protocol(penalty_protocol(v))
        assert report.valid
        assert abs(report.p0 - 0.5) < 1e-9
        assert abs(report.p1 - 0.5) < 1e-9
        assert report.p_abort < 1e-9

    def test_compact_penalty_valid(self):
        report = validate_protocol(penalty_protocol_compact4())
        assert report.valid and abs(report.p0 - 0.5) < 1e-12

    def test_validation_memory_stays_local(self):
        # the joint space has 3888 dimensions: one dense projector on it is 242 MB
        assert alloc_peak_bytes(lambda: validate_protocol(penalty_protocol(16.0))) < 50e6

    def test_mismatched_projectors_fail_agreement(self):
        base = alice_announces()
        proj_a, proj_b = base.projectors
        flipped = replace(base, projectors=(proj_a, proj_b[::-1]))  # swapped outcomes
        report = validate_protocol(flipped)
        assert not report.valid
        failed = {name for name, ok, _ in report.checks if not ok}
        assert "agreement_0_1_outcome_0" in failed and "agreement_0_1_outcome_1" in failed

    def test_non_unitary_round_rejected(self):
        layout = HilbertLayout((2,))
        proj = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        bad = np.diag([1.0, 1.0, 1.0, 2.0])
        for unitaries_a, unitaries_b in (((bad,), (CNOT,)), ((CNOT,), (bad,))):
            with pytest.raises(ValueError, match="not unitary"):
                two_party(layout, layout, layout, unitaries_a, unitaries_b, proj, proj)

    def test_overlapping_projectors_rejected(self):
        base = alice_announces()
        with pytest.raises(ValueError):
            replace(base, projectors=((np.eye(2), np.eye(2)), base.projectors[1]))

    def test_two_party_reorders_bob_to_private_first(self):
        # U_B = CNOT with the message (first factor of M (x) B) as control
        # becomes CNOT with the message (second factor of B (x) M) as control
        layout = HilbertLayout((2,))
        proj = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        p = two_party(layout, layout, layout, (np.eye(4),), (CNOT,), proj, proj)
        assert p.turns == (0, 1)
        np.testing.assert_array_equal(p.unitaries[1], swap_gate(2) @ CNOT @ swap_gate(2))


class TestHonestStates:
    def test_round_zero_is_all_zero(self):
        p = penalty_protocol(16.0)
        state = honest_state(p, 0)
        assert abs(state.amplitudes[0] - 1.0) < 1e-12

    def test_norm_one_every_round(self):
        p = penalty_protocol(9.0)
        for j in range(len(p.turns) + 1):
            assert abs(honest_state(p, j).norm - 1.0) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            honest_state(alice_announces(), 3)


class TestKParty:
    def test_announce_valid(self):
        for k in (2, 3, 4):
            report = validate_protocol(announce_kparty(k))
            assert report.valid
            assert abs(report.p0 - 0.5) < 1e-12

    def test_final_state_is_shared_coin(self):
        state = honest_state(announce_kparty(3), 3)
        amps = state.amplitudes.reshape(2, 2, 2, 2)
        assert abs(abs(amps[0, 0, 0, 0]) - 1 / np.sqrt(2)) < 1e-12
        assert abs(abs(amps[1, 1, 1, 1]) - 1 / np.sqrt(2)) < 1e-12

    def test_turn_index_validated(self):
        base = announce_kparty(2)
        with pytest.raises(ValueError):
            KPartyProtocol(
                layouts=base.layouts,
                layout_m=base.layout_m,
                turns=(0, 5),
                unitaries=base.unitaries,
                projectors=base.projectors,
            )


class TestJsonFormat:
    def test_two_party_roundtrip(self, tmp_path):
        p = penalty_protocol_compact4()
        path = tmp_path / "protocol.json"
        save_protocol(p, path)
        assert json.loads(path.read_text())["kind"] == "k-party"
        loaded = load_protocol(path)
        assert loaded.k == 2 and loaded.turns == p.turns
        assert validate_protocol(loaded).valid
        for a, b in zip(p.unitaries, loaded.unitaries):
            np.testing.assert_allclose(a, b, atol=1e-15)

    @pytest.mark.parametrize("make", [alice_announces, penalty_protocol_compact4])
    def test_legacy_two_party_file_matches_constructor(self, make):
        p = make()
        loaded = protocol_from_json(two_party_dict(p))
        assert loaded.turns == p.turns and loaded.name == p.name
        for a, b in zip(p.unitaries, loaded.unitaries):
            np.testing.assert_array_equal(a, b)

    def test_kparty_roundtrip(self, tmp_path):
        p = announce_kparty(3)
        path = tmp_path / "kparty.json"
        save_protocol(p, path)
        loaded = load_protocol(path)
        assert isinstance(loaded, KPartyProtocol)
        assert validate_protocol(loaded).valid

    def test_missing_fields_named(self):
        with pytest.raises(ProtocolFormatError) as err:
            protocol_from_json({"kind": "two-party", "dims": {"a": [2], "m": [2]}})
        problems = " ".join(err.value.problems)
        assert "dims.'b'" in problems
        assert "unitaries_a" in problems

    def test_unknown_kind(self):
        with pytest.raises(ProtocolFormatError):
            protocol_from_json({"kind": "three-and-a-half-party"})

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(two_party_dict(alice_announces()))[:40])
        with pytest.raises(ProtocolFormatError) as err:
            load_protocol(path)
        assert "JSON" in err.value.problems[0]

    def test_saved_file_is_sparse_and_loads_equal_to_the_dense_file(self, tmp_path):
        p = penalty_protocol(16.0)
        path = tmp_path / "v16.json"
        save_protocol(p, path)
        data = json.loads(path.read_text())
        assert all(isinstance(u, dict) for u in data["unitaries"])
        sparse, dense = load_protocol(path), protocol_from_json(dense_protocol_json(p))
        for loaded in (sparse, dense):
            assert all(np.array_equal(a, b) for a, b in zip(loaded.unitaries, p.unitaries))
            for pair, expected in zip(loaded.projectors, p.projectors):
                assert all(np.array_equal(a, b) for a, b in zip(pair, expected))

    def test_forms_are_read_per_matrix(self):
        p = announce_kparty(3)
        data = protocol_to_json(p)
        data["unitaries"][1] = dense_json(p.unitaries[1])
        data["projectors"][2][0] = dense_json(p.projectors[2][0])
        loaded = protocol_from_json(data)
        assert all(np.array_equal(a, b) for a, b in zip(loaded.unitaries, p.unitaries))
        assert validate_protocol(loaded).valid

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"im": None}, "missing key 'im'"),
            ({"shape": None}, "missing key 'shape'"),
            ({"re": [1.0]}, "lists of unequal length"),
            ({"rows": 0}, "'rows': expected a list"),
            ({"rows": [0, True, 2, 3]}, "'rows': index True is not an integer"),
            ({"cols": [1.0, 0, 3, 2]}, "'cols': index 1.0 is not an integer"),
            ({"rows": [0, 1, 2, -1]}, "'rows': index -1 out of range [0, 4)"),
            ({"cols": [4, 0, 3, 2]}, "'cols': index 4 out of range [0, 4)"),
            ({"rows": [0, 0, 2, 3], "cols": [1, 1, 3, 2]}, "duplicate entry (0, 1)"),
            ({"shape": [4]}, "'shape': expected two positive integers"),
            ({"shape": [4, 0]}, "'shape': expected two positive integers"),
            ({"shape": [4, 4.0]}, "'shape': expected two positive integers"),
            ({"shape": [True, 4]}, "'shape': expected two positive integers"),
            ({"shape": "4x4"}, "'shape': expected two positive integers"),
            ({"shape": [2**40, 2**40]}, "'shape': cannot allocate"),
            ({"shape": [2**70, 4]}, "'shape': cannot allocate"),
            ({"re": [[1.0], [1.0], [1.0], [1.0]]}, "expected lists of numbers"),
        ],
        ids=[
            "missing-im",
            "missing-shape",
            "unequal-lengths",
            "rows-not-a-list",
            "bool-index",
            "float-index",
            "negative-index",
            "index-out-of-range",
            "duplicate-entry",
            "shape-one-int",
            "shape-zero",
            "shape-float",
            "shape-bool",
            "shape-string",
            "shape-too-large",
            "shape-past-int64",
            "nested-values",
        ],
    )
    def test_malformed_sparse_matrix_is_a_format_error(self, fields, message):
        # numpy alone would wrap the negative index and keep the last of two duplicates
        data = protocol_to_json(announce_kparty(3))
        matrix = {**data["unitaries"][1], **fields}
        data["unitaries"][1] = {key: value for key, value in matrix.items() if value is not None}
        with pytest.raises(ProtocolFormatError) as err:
            protocol_from_json(data)
        (problem,) = err.value.problems
        assert problem.startswith("field 'unitaries': sparse matrix") and message in problem, problem

    def test_invalid_unitary_reported(self):
        data = two_party_dict(alice_announces())
        data["unitaries_a"][0][0][0] = [5.0, 0.0]
        with pytest.raises(ProtocolFormatError) as err:
            protocol_from_json(data)
        assert "unitary" in err.value.problems[0]
