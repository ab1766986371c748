import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from steptardy import build_model, export_lp, harness, load_instance, save_instance
from steptardy.cli import main

from conftest import DATA_DIR, make_instance


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_instance(self, capsys, tmp_path):
        out = tmp_path / "inst.json"
        code, _, _ = run_cli(
            capsys, "gen", "--n", "6", "--h-class", "1", "--d-class", "2",
            "--seed", "42", "--out", str(out),
        )
        assert code == 0
        instance = load_instance(out)
        assert instance.n == 6
        assert instance.name == "S_12_n6_s42"

    def test_stdout_deterministic(self, capsys):
        args = ("gen", "--n", "5", "--h-class", "3", "--d-class", "1", "--seed", "7")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        json.loads(out1)

    def test_degenerate_spec_fails_cleanly(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--n", "5", "--h-class", "1", "--d-class", "1",
            "--seed", "1", "--tau", "0.001",
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("tau", ["inf", "nan", "1e308"])
    def test_non_finite_tau_fails_cleanly(self, capsys, tau):
        code, out, err = run_cli(
            capsys, "gen", "--n", "5", "--h-class", "1", "--d-class", "1", "--tau", tau
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: tau must be finite")


class TestEval:
    def test_reference_sequence(self, capsys, demo8_path):
        code, out, _ = run_cli(
            capsys, "eval", "--instance", str(demo8_path),
            "--sequence", "3,2,4,1,5,7,8,6",
        )
        assert code == 0
        assert out == "575\n"

    def test_sequence_file(self, capsys, demo8_path, tmp_path):
        seq_file = tmp_path / "seq.txt"
        seq_file.write_text("2,8,3,4,6,5,1,7\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "eval", "--instance", str(demo8_path),
            "--sequence-file", str(seq_file),
        )
        assert code == 0
        assert out == "1291\n"

    def test_bad_sequence_fails(self, capsys, demo8_path):
        code, _, err = run_cli(
            capsys, "eval", "--instance", str(demo8_path), "--sequence", "1,1,1"
        )
        assert code == 1
        assert "error:" in err


class TestSolve:
    def test_exact_reference(self, capsys, demo8_path):
        code, out, _ = run_cli(
            capsys, "solve", "--instance", str(demo8_path), "--method", "exact"
        )
        assert code == 0
        assert out.splitlines()[0] == "value 572"
        assert "optima 1" in out

    def test_exact_cap_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "gen", "--n", "20", "--h-class", "1", "--d-class", "1",
            "--seed", "3", "--out", str(tmp_path / "n20.json"),
        )
        assert code == 0
        code, _, err = run_cli(
            capsys, "solve", "--instance", str(tmp_path / "n20.json"),
            "--method", "exact",
        )
        assert code == 1
        assert "cap" in err

    def test_bb_reports_nodes(self, capsys, demo8_path):
        code, out, _ = run_cli(
            capsys, "solve", "--instance", str(demo8_path), "--method", "bb"
        )
        assert code == 0
        assert out.splitlines()[0] == "value 572"
        assert out.splitlines()[2].startswith("labels ")
        assert "proven true" in out

    @pytest.mark.parametrize(
        "field, value",
        [("b", -50), ("a", 0), ("h", -5), ("a", 2.5), ("h", None), ("d", "113")],
        ids=["b=-50", "a=0", "h=-5", "a=2.5", "missing-h", "string-d"],
    )
    def test_malformed_instance_fails_cleanly(self, capsys, tmp_path, demo8_path, field, value):
        payload = json.loads(demo8_path.read_text(encoding="utf-8"))
        if value is None:
            del payload["jobs"][2][field]
        else:
            payload["jobs"][2][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_cli(capsys, "solve", "--instance", str(path), "--method", "swsp")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}: ")
        expected = f"missing key '{field}'" if value is None else f"{field} must be"
        assert expected in err

    def test_swsp(self, capsys, demo8_path):
        code, out, _ = run_cli(
            capsys, "solve", "--instance", str(demo8_path), "--method", "swsp"
        )
        assert code == 0
        assert out.splitlines()[0] == "value 572"
        assert "iterations 64" in out

    def test_swsp_single_job(self, capsys, tmp_path):
        path = tmp_path / "n1.json"
        save_instance(make_instance([(7, 2, 3, 0)]), path)
        code, out, _ = run_cli(capsys, "solve", "--instance", str(path), "--method", "swsp")
        assert code == 0
        assert out == "value 4\nsequence 1\niterations 1\n"

    def test_gvns_deterministic_stdout(self, capsys, demo8_path):
        args = (
            "solve", "--instance", str(demo8_path), "--method", "gvns",
            "--seed", "4", "--iter-max", "60", "--iter-nip", "40",
        )
        code1, out1, err1 = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "elapsed" in err1  # timing goes to stderr only

    @pytest.mark.parametrize("method", ["swsp", "gvns"])
    def test_bad_stopping_rule_fails_cleanly(self, capsys, demo8_path, method):
        # checked for every method, as a bench config's is
        code, out, err = run_cli(
            capsys, "solve", "--instance", str(demo8_path), "--method", method,
            "--iter-max", "10", "--iter-nip", "20",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: iter_nip must satisfy")

    def test_lying_solver_fails(self, capsys, demo8_path, monkeypatch):
        """The value ``solve`` prints is checked against its sequence."""
        real = harness.swsp

        def lying(instance):
            return replace(real(instance), best_value=0)

        monkeypatch.setattr(harness, "swsp", lying)
        code, out, err = run_cli(capsys, "solve", "--instance", str(demo8_path), "--method", "swsp")
        assert (code, out) == (1, "")
        assert err == "error: method swsp reported 0 but the sequence evaluates to 572\n"

    def test_vns_runs(self, capsys, demo8_path):
        code, out, _ = run_cli(
            capsys, "solve", "--instance", str(demo8_path), "--method", "vns",
            "--seed", "1", "--iter-max", "40", "--iter-nip", "30",
        )
        assert code == 0
        assert out.startswith("value ")


class TestBench:
    def write_config(self, tmp_path, demo8_path, **overrides):
        config = {
            "instances": [str(demo8_path)],
            "methods": ["exact", "swsp"],
            "replications": 2,
            "seed": 1,
            "output": str(tmp_path / "report.csv"),
        }
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return path

    def test_end_to_end(self, capsys, tmp_path, demo8_path):
        config = self.write_config(tmp_path, demo8_path)
        code, out, _ = run_cli(capsys, "bench", "--config", str(config))
        assert code == 0
        assert out == f"wrote {tmp_path / 'report.csv'}\n"
        lines = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "group,n,method,best,mean,rpd_pct,mad_pct,time_s"
        assert len(lines) == 3

    def test_repeat_identical_with_zero_time(self, capsys, tmp_path, demo8_path):
        config = self.write_config(tmp_path, demo8_path)
        run_cli(capsys, "bench", "--config", str(config), "--zero-time")
        first = (tmp_path / "report.csv").read_bytes()
        run_cli(capsys, "bench", "--config", str(config), "--zero-time")
        assert (tmp_path / "report.csv").read_bytes() == first

    def test_markdown_output(self, capsys, tmp_path, demo8_path):
        config = self.write_config(tmp_path, demo8_path)
        md = tmp_path / "report.md"
        code, _, _ = run_cli(
            capsys, "bench", "--config", str(config), "--markdown", str(md)
        )
        assert code == 0
        assert md.read_text(encoding="utf-8").startswith("| group |")

    def test_errors_reported_on_stderr(self, capsys, tmp_path, demo8_path):
        config = self.write_config(
            tmp_path, demo8_path, instances=["missing.json", str(demo8_path)]
        )
        code, _, err = run_cli(capsys, "bench", "--config", str(config))
        assert code == 0
        assert "missing.json" in err

    def test_invalid_instance_file_reported(self, capsys, tmp_path, demo8_path):
        payload = json.loads(demo8_path.read_text(encoding="utf-8"))
        payload["name"] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        config = self.write_config(tmp_path, demo8_path, instances=[str(bad), str(demo8_path)])
        code, _, err = run_cli(capsys, "bench", "--config", str(config))
        assert code == 0
        assert f"error: {bad}: invalid instance: name must be a string" in err
        assert len((tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()) == 3

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            json.dumps({"generate": {"sizes": [8]}, "replications": "3"}),
            json.dumps({"generate": {"sizes": [8]}, "iter_max": "x"}),
            json.dumps({"instances": "foo.json"}),
            json.dumps({"generate": {"sizes": [8]}, "iter_max": 10, "iter_nip": 20}),
            json.dumps({"generate": {"sizes": [8]}, "iter_mx": 50}),
        ],
        ids=["top-level-list", "string-replications", "string-iter-max", "string-instances",
             "iter-nip-above-iter-max", "unknown-key"],
    )
    def test_malformed_config_fails_cleanly(self, capsys, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "bench", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "generate, key",
        [
            ({"sizes": [8, 8]}, "generate.sizes"),
            ({"sizes": [8], "seed": "0"}, "generate.seed"),
            ({"size": [8]}, "generate.size"),
        ],
        ids=["repeated-size", "string-seed", "unknown-key"],
    )
    def test_config_error_names_the_json_key(self, capsys, tmp_path, generate, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"generate": generate}), encoding="utf-8")
        code, _, err = run_cli(capsys, "bench", "--config", str(path))
        assert code == 1
        assert key in err and "gen_" not in err


class TestExportMilp:
    def test_matches_library_export(self, capsys, demo8_path, demo8):
        code, out, _ = run_cli(capsys, "export-milp", "--instance", str(demo8_path))
        assert code == 0
        assert out == export_lp(build_model(demo8))

    def test_writes_file(self, capsys, demo8_path, tmp_path):
        out_path = tmp_path / "model.lp"
        code, _, _ = run_cli(
            capsys, "export-milp", "--instance", str(demo8_path), "--out", str(out_path)
        )
        assert code == 0
        golden = (DATA_DIR / "model_demo8.lp").read_bytes()
        assert out_path.read_bytes() == golden


class TestParser:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--n", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command", ["gen", "eval", "solve", "bench", "export-milp"]
    )
    def test_help_available(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--help" in capsys.readouterr().out


def test_module_entry_point(demo8_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "steptardy", "eval",
            "--instance", str(demo8_path), "--sequence", "2,3,1,5,8,4,7,6",
        ],
        capture_output=True,
        text=True,
        cwd=Path(__file__).parent.parent,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert proc.stdout == "696\n"
