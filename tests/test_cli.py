import csv
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import dense_protocol_json, haar_random_protocol, overflowing_r, random_unitary, two_party_dict
from qcoinflip.cli import main
from qcoinflip.protocols import (
    alice_announces,
    announce_kparty,
    penalty_protocol_compact4,
    protocol_to_json,
    save_protocol,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("tournament", "--k", "64", "--g", "8", "--bins", "1", "--runs", "10"),
        ("tournament", "--k", "64", "--g", "8", "--runs", "-5"),
        ("tournament", "--k", "64", "--g", "1", "--runs", "-5"),
        ("tournament", "--k", "64", "--g", "8", "--threshold-factor", "-1"),
        ("tournament", "--g", "8", "--sweep", "k=2..16x2"),
        ("lowerbound", "--analytic", "--k", "4", "--g", "9"),
        ("lowerbound", "--analytic", "--k", "4", "--g", "0"),
        ("penalty", "--v", "nan"),
        ("penalty", "--v", "inf"),
        ("lowerbound", "--analytic", "--k", "2", "--output", "no-such-dir/x.json"),
        ("tournament", "--k", "64", "--g", "8", "--runs", "10", "--seed", "-1"),
        ("broadcast", "epr", "--k", "3", "--seed", "-5"),
        ("penalty", "--v", "16", "--seed", "-1"),
        ("lowerbound", "--analytic", "--k", "2", "--seed", "-1"),
    ],
)
def test_bad_argument_exits_2_with_one_line(capsys, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestPenaltyCommand:
    def test_v16_record(self, capsys):
        code, out, _ = run_cli(capsys, "penalty", "--v", "16")
        assert code == 0
        record = json.loads(out)
        assert abs(record["bob_bound"] - 0.75) < 1e-9
        assert abs(record["lambda"] - 33.0302475808396) < 1e-6
        assert record["certificate_feasible"] is True
        assert 0.5 - 1e-6 <= record["alice_primal"] <= record["alice_dual_bound"] + 1e-6
        assert record["seed"] == 0 and record["version"]

    def test_invalid_penalty_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "penalty", "--v", "3")
        assert code == 2
        assert "penalty" in err

    def test_csv_single_row_stable_header(self, capsys):
        code, out, _ = run_cli(capsys, "penalty", "--v", "4", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == (
            "alice_bound_chain,alice_dual_bound,alice_primal,bob_bound,certificate_feasible,"
            "command,delta,duality_gap,lambda,m0,m1,seed,v,version"
        )
        assert len(row.split(",")) == len(header.split(","))

    def test_large_penalty_succeeds(self, capsys):
        # a tournament of 2^25 players plays penalty games up to v of about 1.7e7
        code, out, err = run_cli(capsys, "penalty", "--v", "1e7")
        assert code == 0, err
        record = json.loads(out)
        assert 0.5 - 1e-6 <= record["alice_primal"] <= record["alice_bound_chain"] + 1e-6

    def test_certificate_feasible_at_large_penalty(self, capsys):
        # 10^5.5 as numpy's logspace(4, 8, 81) gives it; the closed form lost it to cancellation
        code, out, err = run_cli(capsys, "penalty", "--v", "316227.7660168379")
        assert code == 0, err
        record = json.loads(out)
        assert record["certificate_feasible"] is True
        assert record["alice_primal"] <= record["alice_dual_bound"] + 1e-6

    def test_infeasible_certificate_reports_no_bound(self, capsys, monkeypatch):
        import qcoinflip.cli as cli

        real = cli.dual_certificate

        def broken(game):
            cert = real(game)
            cert["normalization"] -= 1.0  # the tau block's slack drops by the identity
            return cert

        monkeypatch.setattr(cli, "dual_certificate", broken)
        code, out, _ = run_cli(capsys, "penalty", "--v", "16")
        assert code == 0
        record = json.loads(out)
        assert record["certificate_feasible"] is False
        assert record["alice_dual_bound"] is None and record["duality_gap"] is None
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(record, TestSchemas._load_schema("penalty_record.schema.json"))


def test_calls_in_one_process_give_independent_records(capsys):
    # main parses with one parser per process: no verb, seed or format carries over
    import qcoinflip.cli as cli

    assert cli.build_parser() is cli.build_parser()
    analytic = ("lowerbound", "--analytic", "--k", "4", "--format", "csv")
    code1, first, _ = run_cli(capsys, "penalty", "--v", "16", "--seed", "5", "--format", "table")
    code2, csv_out, _ = run_cli(capsys, *analytic)
    code3, json_out, _ = run_cli(capsys, "penalty", "--v", "16")
    code4, csv_again, _ = run_cli(capsys, *analytic)
    assert code1 == code2 == code3 == code4 == 0
    table = dict(line.split(None, 1) for line in first.splitlines())
    assert (table["command"], table["seed"]) == ("penalty", "5")
    record = json.loads(json_out)
    assert (record["command"], record["seed"]) == ("penalty", 0)
    assert "k" not in record
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(rows) == 1 and rows[0]["command"] == "lowerbound" and rows[0]["seed"] == "0"
    assert csv_again == csv_out


class TestTournamentCommand:
    def test_deterministic_output(self, capsys):
        args = ("tournament", "--k", "8", "--g", "1", "--runs", "20000", "--seed", "7")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_committee_output_deterministic(self, capsys):
        args = ("tournament", "--sweep", "k=64..256x2", "--g", "7", "--runs", "3000", "--seed", "11")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "honest_presence_split" in out1

    def test_analytic_bias_for_large_k(self, capsys):
        code, out, _ = run_cli(capsys, "tournament", "--k", "1024", "--g", "1")
        record = json.loads(out)
        assert code == 0
        from qcoinflip.multiparty import tournament_constant

        assert record["analytic_bound"] <= 0.5 - tournament_constant() / 1024

    def test_committee_path_notes_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "tournament", "--k", "64", "--g", "8")
        record = json.loads(out)
        assert code == 0
        assert record["committee_threshold"] == 32

    def test_committee_record_names_threshold_and_seeds_used(self, capsys):
        # ceil(4 * 100 / 7) = 58 players, not the 64-player bracket of the bound
        code, out, _ = run_cli(capsys, "tournament", "--k", "100", "--g", "7", "--runs", "20")
        record = json.loads(out)
        assert code == 0
        assert record["committee_threshold"] == 58
        assert record["committee_seeds"] == 20
        assert 0.0 <= record["honest_presence_pile"] <= 1.0

    def test_invalid_k_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "tournament", "--k", "1")
        assert code == 2

    def test_sweep_streams_rows(self, capsys):
        code, out, _ = run_cli(capsys, "tournament", "--sweep", "k=8..64x2", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 4  # header + k = 8, 16, 32, 64
        columns = lines[0].split(",")
        for needed in ("k", "g", "analytic_bound", "mc_estimate", "stderr", "runs", "seed"):
            assert needed in columns
        ks = [line.split(",")[columns.index("k")] for line in lines[1:]]
        assert ks == ["8", "16", "32", "64"]  # rows ordered by parameter

    def test_bad_sweep_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "tournament", "--sweep", "v=1..2x2")
        assert code == 2

    def test_output_dir_environment_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QCOINFLIP_OUTPUT_DIR", str(tmp_path))
        code = main(["lowerbound", "--analytic", "--k", "2", "--output", "rec.json"])
        assert code == 0
        assert (tmp_path / "rec.json").exists()


class TestLowerboundCommand:
    def test_analytic_two_party(self, capsys):
        code, out, _ = run_cli(capsys, "lowerbound", "--analytic", "--k", "2")
        record = json.loads(out)
        assert code == 0
        assert abs(record["q_min"] - 0.70711) < 1e-4

    def test_analytic_grouped(self, capsys):
        code, out, _ = run_cli(capsys, "lowerbound", "--analytic", "--k", "64", "--g", "8")
        record = json.loads(out)
        assert record["k_effective"] == 8
        assert abs(record["bias_lower_bound"] - (2 ** (-1 / 8) - 0.5)) < 1e-9

    def test_protocol_file_analysis(self, capsys, tmp_path):
        path = tmp_path / "announce.json"
        save_protocol(alice_announces(), path)
        code, out, _ = run_cli(capsys, "lowerbound", str(path))
        record = json.loads(out)
        assert code == 0
        assert record["valid"] is True
        assert abs(record["p_alice_forces_1"] - 1.0) < 1e-4
        assert record["product_check_passed"] is True

    @pytest.mark.parametrize("name", ['a,"b', "line1\nline2"])
    def test_csv_reads_back_a_name_with_quotes_or_newlines(self, capsys, tmp_path, name):
        path = tmp_path / "named.json"
        save_protocol(replace(alice_announces(), name=name), path)
        code, out, _ = run_cli(capsys, "lowerbound", str(path), "--format", "csv")
        assert code == 0
        (row,) = csv.DictReader(io.StringIO(out))
        assert row["name"] == name
        assert row["product_check_passed"] == "True"

    def test_kparty_file_analysis(self, capsys, tmp_path):
        path = tmp_path / "announce3.json"
        save_protocol(announce_kparty(3), path)
        code, out, _ = run_cli(capsys, "lowerbound", str(path))
        record = json.loads(out)
        assert code == 0
        assert record["product_check_passed"] is True
        # per target bit, the interpolating sequence starts at the product of the chain
        # values and held: never rising, ending at the honest probability 1/2
        assert record["sequence_held"] == [True, True]
        for bit, certified in enumerate(record["certified_products"]):
            chain_product = math.prod(record["forcing_bounds"][f"{i}:{bit}"] for i in range(3))
            assert abs(certified - chain_product) <= 1e-12
            assert certified >= record["products"][bit] - 1e-7
            assert certified >= 0.5 - 1e-9

    def test_kparty_record_reports_a_sequence_that_fails(self, capsys, tmp_path, monkeypatch):
        # a sequence ending away from the honest probability is reported, not hidden
        import qcoinflip.cli as cli_module

        def shifted(protocol, chains, target):
            return [value + 0.1 for value in real_sequence(protocol, chains, target)]

        real_sequence = cli_module.dual_bound_sequence
        monkeypatch.setattr(cli_module, "dual_bound_sequence", shifted)
        path = tmp_path / "announce3.json"
        save_protocol(announce_kparty(3), path)
        code, out, _ = run_cli(capsys, "lowerbound", str(path))
        assert code == 0
        assert json.loads(out)["sequence_held"] == [False, False]

    def test_legacy_two_party_file_gives_the_same_record(self, capsys, tmp_path):
        records = []
        for name, data in (
            ("legacy.json", two_party_dict(penalty_protocol_compact4())),
            ("kparty.json", protocol_to_json(penalty_protocol_compact4())),
        ):
            path = tmp_path / name
            path.write_text(json.dumps(data))
            code, out, _ = run_cli(capsys, "lowerbound", str(path))
            assert code == 0
            record = json.loads(out)
            assert record.pop("file") == str(path)
            records.append(record)
        assert records[0] == records[1]
        assert records[0]["kind"] == "two-party" and records[0]["product_check_passed"] is True

    @pytest.mark.parametrize("make", [penalty_protocol_compact4, lambda: announce_kparty(3)], ids=["compact4", "announce3"])
    def test_sparse_and_dense_files_give_the_same_record(self, capsys, tmp_path, make):
        records = []
        for name, data in (("sparse.json", protocol_to_json(make())), ("dense.json", dense_protocol_json(make()))):
            path = tmp_path / name
            path.write_text(json.dumps(data))
            code, out, _ = run_cli(capsys, "lowerbound", str(path), "--seed", "3")
            assert code == 0
            record = json.loads(out)
            assert record.pop("file") == str(path)
            records.append(record)
        assert records[0] == records[1]
        assert records[0]["product_check_passed"] is True

    def test_haar_random_protocol_file(self, capsys, tmp_path):
        # Haar-random unitaries: the honest parties disagree, so the record reports an
        # invalid protocol and solves no cheat SDP
        jsonschema = pytest.importorskip("jsonschema")
        path = tmp_path / "haar.json"
        save_protocol(haar_random_protocol(np.random.default_rng(2)), path)
        code, out, err = run_cli(capsys, "lowerbound", str(path))
        assert code == 0, err
        record = json.loads(out)
        jsonschema.validate(record, TestSchemas._load_schema("lowerbound_record.schema.json"))
        assert record["valid"] is False and "product_check_passed" not in record

    @pytest.mark.parametrize("seed", [0, 1])
    def test_protocol_in_random_frames_gives_the_same_bounds(self, capsys, tmp_path, seed):
        # after each turn its party's space and M change frame by Haar-random unitaries, and
        # the projectors follow: the protocol stays valid, its cheat SDPs become complex and
        # dense, and the forcing probabilities stay the same
        jsonschema = pytest.importorskip("jsonschema")
        rng = np.random.default_rng(seed)
        base = penalty_protocol_compact4()
        frames, frame_m, unitaries = [np.eye(lay.dim) for lay in base.layouts], np.eye(base.layout_m.dim), []
        for turn, u in zip(base.turns, base.unitaries):
            new, new_m = random_unitary(len(frames[turn]), rng), random_unitary(len(frame_m), rng)
            unitaries.append(np.kron(new, new_m) @ u @ np.kron(frames[turn], frame_m).conj().T)
            frames[turn], frame_m = new, new_m
        projectors = tuple(tuple(v @ p @ v.conj().T for p in pair) for v, pair in zip(frames, base.projectors))
        records = []
        for name, protocol in (("base", base), ("framed", replace(base, unitaries=tuple(unitaries), projectors=projectors))):
            path = tmp_path / f"{name}.json"
            save_protocol(protocol, path)
            code, out, err = run_cli(capsys, "lowerbound", str(path))
            assert code == 0, err
            records.append(json.loads(out))
        jsonschema.validate(records[1], TestSchemas._load_schema("lowerbound_record.schema.json"))
        assert records[1]["product_check_passed"] is True
        for field in ("p_alice_forces_1", "p_bob_forces_1"):
            assert abs(records[1][field] - records[0][field]) < 1e-6

    def test_malformed_sparse_file_exits_4_naming_the_key(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        data = protocol_to_json(announce_kparty(3))
        del data["projectors"][1][0]["im"]
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "lowerbound", str(path))
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and "projectors" in err and "'im'" in err, err

    def test_truncated_file_exits_4_naming_problem(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        data = two_party_dict(alice_announces())
        del data["projectors"]
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "lowerbound", str(path))
        assert code == 4
        assert "projectors" in err

    def test_missing_file_exits_4(self, capsys):
        code, _, _ = run_cli(capsys, "lowerbound", "/nonexistent/protocol.json")
        assert code == 4


def _legacy_with(**fields):
    return json.dumps({**two_party_dict(alice_announces()), **fields}).encode()


def _one_party():
    # party 0's own turn of announce_kparty(2): a valid honest run with nobody to merge
    data = protocol_to_json(announce_kparty(2))
    data.update(dims={"parties": [[2]], "m": [2]}, turns=[0], unitaries=data["unitaries"][:1])
    data["projectors"] = data["projectors"][:1]
    return json.dumps(data).encode()


@pytest.mark.parametrize(
    "content",
    [
        b"5",
        _legacy_with(unitaries_a=5),
        _legacy_with(unitaries_a=[5]),
        _legacy_with(unitaries_a=[[[[float("nan"), 0.0]] * 4] * 4]),
        _one_party(),
        b"\xff\xfe{not utf-8",
        None,  # a directory
    ],
    ids=["json-number", "unitaries-not-a-list", "unitary-not-a-matrix", "nan-unitary", "one-party", "not-utf8", "directory"],
)
def test_malformed_protocol_file_exits_4(capsys, tmp_path, content):
    path = tmp_path / "protocol.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, out, err = run_cli(capsys, "lowerbound", str(path))
    assert code == 4
    assert out == ""
    assert err and all(line.startswith("error: ") for line in err.splitlines()), err


def _with_field(data, **fields):
    return json.dumps({**data, **fields}).encode()


@pytest.mark.parametrize(
    "content, field",
    [
        (_with_field(protocol_to_json(announce_kparty(3)), turns=[0, 1.7, 2.2]), "turns"),
        (_with_field(protocol_to_json(announce_kparty(3)), turns=[0, True, 2]), "turns"),
        (_with_field(protocol_to_json(announce_kparty(3)), turns=5), "turns"),
        (_with_field(protocol_to_json(announce_kparty(3)), unitaries=5), "unitaries"),
        (_with_field(protocol_to_json(announce_kparty(3)), dims={"parties": 5, "m": [2]}), "dims"),
        (_with_field(protocol_to_json(announce_kparty(3)), dims={"parties": [[2]] * 3, "m": [2.7]}), "dims"),
        (_with_field(protocol_to_json(announce_kparty(3)), dims={"parties": [[2.9], [2], [2]], "m": [2]}), "dims"),
        (_with_field(protocol_to_json(announce_kparty(3)), dims={"parties": [[True, 2], [2], [2]], "m": [2]}), "dims"),
        (_with_field(protocol_to_json(announce_kparty(3)), projectors=[[5]]), "projectors"),
        (_with_field(protocol_to_json(announce_kparty(3)), name=5), "field 'name' must be a string"),
        (_legacy_with(unitaries_a=5), "unitaries_a"),
        (_legacy_with(unitaries_b=[5]), "unitaries_b"),
        (_legacy_with(dims={"a": 5, "m": [2], "b": [2]}), "dims"),
        (_legacy_with(projectors={"a": 5, "b": []}), "projectors"),
    ],
    ids=[
        "kparty-fractional-turns",
        "kparty-bool-turn",
        "kparty-turns-not-a-list",
        "kparty-unitaries",
        "kparty-dims",
        "kparty-fractional-message-dim",
        "kparty-fractional-party-dim",
        "kparty-bool-party-dim",
        "kparty-projectors",
        "kparty-name",
        "two-party-unitaries_a",
        "two-party-unitaries_b",
        "two-party-dims",
        "two-party-projectors",
    ],
)
def test_wrongly_typed_field_is_named(capsys, tmp_path, content, field):
    path = tmp_path / "protocol.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "lowerbound", str(path))
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and field in err, err


class TestBroadcastCommand:
    def test_emulate_counts(self, capsys):
        code, out, _ = run_cli(capsys, "broadcast", "emulate", "--k", "4")
        record = json.loads(out)
        assert code == 0
        assert abs(record["fidelity"] - 1.0) < 1e-12
        assert record["uses"] == 6

    def test_epr_counts(self, capsys):
        code, out, _ = run_cli(capsys, "broadcast", "epr", "--k", "5", "--seed", "1")
        record = json.loads(out)
        assert abs(record["fidelity"] - 1.0) < 1e-12
        assert record["uses"] == 4

    def test_teleport_counts(self, capsys):
        code, out, _ = run_cli(capsys, "broadcast", "teleport", "--k", "4")
        record = json.loads(out)
        assert abs(record["fidelity"] - 1.0) < 1e-12
        assert record["uses"] == 5

    def test_classical_all_ones(self, capsys):
        code, out, _ = run_cli(capsys, "broadcast", "classical", "--k", "3", "--bit", "1")
        record = json.loads(out)
        assert record["outcomes"] == [1, 1, 1]

    def test_invalid_k_exits_2(self, capsys):
        # above 24 parties the dense 2^k states would exhaust memory
        for k in ("1", "25", "64"):
            code, out, err = run_cli(capsys, "broadcast", "emulate", "--k", k)
            assert code == 2, k
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err


class TestOutputPlumbing:
    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "record.json"
        code = main(["lowerbound", "--analytic", "--k", "4", "--output", str(path)])
        assert code == 0
        record = json.loads(path.read_text())
        assert abs(record["q_min"] - 2 ** (-1 / 4)) < 1e-9

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "lowerbound", "--analytic", "--k", "2", "--format", "table")
        assert code == 0
        assert "q_min" in out


class TestSchemas:
    """Live records must validate against the schemas shipped in schemas/."""

    @staticmethod
    def _load_schema(name):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        return json.loads((root / "schemas" / name).read_text())

    def test_penalty_record_schema(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        _, out, _ = run_cli(capsys, "penalty", "--v", "9")
        jsonschema.validate(json.loads(out), self._load_schema("penalty_record.schema.json"))

    def test_tournament_record_schema(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        _, out, _ = run_cli(capsys, "tournament", "--k", "16", "--runs", "1000")
        jsonschema.validate(json.loads(out), self._load_schema("tournament_record.schema.json"))

    def test_broadcast_record_schema(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        _, out, _ = run_cli(capsys, "broadcast", "epr", "--k", "4")
        jsonschema.validate(json.loads(out), self._load_schema("broadcast_record.schema.json"))

    def test_lowerbound_record_schema(self, capsys, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        schema = self._load_schema("lowerbound_record.schema.json")
        _, out, _ = run_cli(capsys, "lowerbound", "--analytic", "--k", "64", "--g", "8")
        jsonschema.validate(json.loads(out), schema)
        for protocol in (alice_announces(), announce_kparty(3)):
            path = tmp_path / f"{protocol.name}.json"
            save_protocol(protocol, path)
            _, out, _ = run_cli(capsys, "lowerbound", str(path))
            record = json.loads(out)
            jsonschema.validate(record, schema)
            # a file record's certified bounds are required, and so is a k-party record's sequence
            required = ["p_bob_forces_1_bound"]
            if protocol.k > 2:
                required = ["forcing_bounds", "certified_products", "sequence_held"]
            for field in required:
                with pytest.raises(jsonschema.ValidationError):
                    jsonschema.validate({key: value for key, value in record.items() if key != field}, schema)

    def test_protocol_file_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        schema = self._load_schema("protocol.schema.json")
        path = tmp_path / "announce3.json"
        save_protocol(announce_kparty(3), path)
        saved = json.loads(path.read_text())
        assert isinstance(saved["unitaries"][0], dict)
        jsonschema.validate(saved, schema)
        jsonschema.validate(two_party_dict(alice_announces()), schema)
        del saved["unitaries"][0]["im"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(saved, schema)


class TestCommitteeMonteCarloPath:
    def test_bins_flag_drives_presence_estimates(self, capsys):
        code, out, _ = run_cli(
            capsys, "tournament", "--k", "64", "--g", "16", "--runs", "300", "--bins", "2"
        )
        record = json.loads(out)
        assert code == 0
        assert 0.0 <= record["honest_presence_split"] <= 1.0
        assert record["honest_presence_pile"] >= 0.5


class TestSolverFailureExitCode:
    def test_nonconverged_solver_exits_3(self, capsys, monkeypatch):
        import qcoinflip.cli as cli
        from qcoinflip.sdp import SdpSolution

        def stalled(problem, **kwargs):
            return SdpSolution(
                primal_value=0.5,
                dual_value=0.5,
                primal_blocks={},
                dual_multipliers={},
                status="max-iterations",
                iterations=500,
                residuals={},
            )

        monkeypatch.setattr(cli, "solve", stalled)
        code, _, err = run_cli(capsys, "penalty", "--v", "16")
        assert code == 3
        assert "converge" in err

    def test_overflowing_step_exits_3_with_its_status(self, capsys, monkeypatch):
        overflowing_r(monkeypatch)
        code, out, err = run_cli(capsys, "penalty", "--v", "16")
        assert code == 3
        assert out == ""
        assert "status non-finite-direction" in err

    @pytest.mark.parametrize("kind", ["two-party", "k-party"])
    def test_lowerbound_nonconverged_cheat_sdp_exits_3(self, capsys, monkeypatch, tmp_path, kind):
        import qcoinflip.lowerbound as lowerbound
        from qcoinflip.protocols import penalty_protocol_compact4

        real_solve = lowerbound.solve
        monkeypatch.setattr(lowerbound, "solve", lambda problem: real_solve(problem, max_iter=3))
        path = tmp_path / "protocol.json"
        save_protocol(penalty_protocol_compact4() if kind == "two-party" else announce_kparty(3), path)
        code, out, err = run_cli(capsys, "lowerbound", str(path))
        assert code == 3
        assert out == ""
        assert "status max-iterations" in err

    def test_lowerbound_stalled_cheat_sdp_names_the_stall(self, capsys, monkeypatch, tmp_path):
        import qcoinflip.sdp as sdp

        monkeypatch.setattr(sdp, "_max_steps", lambda *args: (0.0, 0.0))  # no step ever moves the iterate
        path = tmp_path / "protocol.json"
        save_protocol(alice_announces(), path)
        code, out, err = run_cli(capsys, "lowerbound", str(path))
        assert code == 3
        assert out == ""
        assert "status stall" in err
