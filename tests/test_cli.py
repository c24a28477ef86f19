import json
import math

import numpy as np
import pytest

from qcoinflip.cli import main
from qcoinflip.protocols import alice_announces, announce_kparty, save_protocol, two_party_to_json


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
    ],
)
def test_bad_argument_exits_2_with_one_line(capsys, argv):
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

    def test_kparty_file_analysis(self, capsys, tmp_path):
        path = tmp_path / "announce3.json"
        save_protocol(announce_kparty(3), path)
        code, out, _ = run_cli(capsys, "lowerbound", str(path))
        record = json.loads(out)
        assert code == 0
        assert record["product_check_passed"] is True

    def test_truncated_file_exits_4_naming_problem(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        data = two_party_to_json(alice_announces())
        del data["projectors"]
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "lowerbound", str(path))
        assert code == 4
        assert "projectors" in err

    def test_missing_file_exits_4(self, capsys):
        code, _, _ = run_cli(capsys, "lowerbound", "/nonexistent/protocol.json")
        assert code == 4


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
        code, _, _ = run_cli(capsys, "broadcast", "emulate", "--k", "1")
        assert code == 2


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

    def test_protocol_file_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = self._load_schema("protocol.schema.json")
        jsonschema.validate(two_party_to_json(alice_announces()), schema)
        from qcoinflip.protocols import kparty_to_json

        jsonschema.validate(kparty_to_json(announce_kparty(3)), schema)


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
