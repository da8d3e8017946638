"""Tests for the experiment CLI."""

import pytest

from repro.cli import main


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig14" in out

    def test_run_table3(self, capsys):
        assert main(["run", "table3", "--trials", "2000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "QPSK" in out
        assert "finished" in out

    def test_run_table1_with_seed(self, capsys):
        assert main(["run", "table1", "--seed", "3"]) == 0
        assert "selected FFT bins" in capsys.readouterr().out

    def test_save_writes_csv_and_npz(self, tmp_path, capsys):
        directory = str(tmp_path / "results")
        assert main(["run", "table1", "--seed", "2", "--save", directory]) == 0
        csv_file = tmp_path / "results" / "table1.csv"
        npz_file = tmp_path / "results" / "table1.npz"
        assert csv_file.exists()
        assert npz_file.exists()
        header = csv_file.read_text().splitlines()[0]
        assert header.startswith("index,")
        import numpy as np

        data = np.load(npz_file)
        assert "selected_bins" in data

    def test_unknown_experiment_raises(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["run", "table42"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_json_flag_prints_machine_readable_rows(self, capsys):
        import json

        assert main(["run", "table3", "--trials", "2000", "--seed", "1",
                     "--json"]) == 0
        out = capsys.readouterr().out.strip()
        payload = json.loads(out)
        assert payload["experiment_id"] == "table3"
        assert "modulation" in payload["columns"]
        assert any(row["modulation"] == "QPSK" for row in payload["rows"])

    def test_save_writes_manifest(self, tmp_path, capsys):
        from repro.telemetry import read_manifest

        directory = str(tmp_path / "results")
        assert main(["run", "table1", "--seed", "5", "--save", directory]) == 0
        manifest = read_manifest(tmp_path / "results" / "table1.manifest.json")
        assert manifest["seed"] == 5
        assert manifest["config"]["experiment_id"] == "table1"
        assert "package_version" in manifest

    def test_telemetry_out_and_report_round_trip(self, tmp_path, capsys):
        import json

        out_file = str(tmp_path / "t.json")
        assert main(["run", "table1", "--seed", "2", "--telemetry",
                     "--telemetry-out", out_file,
                     "--runs-dir", str(tmp_path / "runs")]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "t.json").read_text())
        assert "spans" in payload and "metrics" in payload
        assert payload["manifest"]["seed"] == 2
        names = [c["name"] for c in payload["spans"]["children"]]
        assert "experiment.table1" in names

        assert main(["report", out_file]) == 0
        rendered = capsys.readouterr().out
        assert "experiment.table1" in rendered
        assert "seed: 2" in rendered

    def test_telemetry_without_out_prints_summary(self, tmp_path, capsys):
        assert main(["run", "table1", "--seed", "1", "--telemetry",
                     "--runs-dir", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "experiment.table1" in out
        assert "stage wall-clock" in out
        assert "[run directory:" in out

    def test_telemetry_disabled_after_run(self, tmp_path):
        from repro.telemetry import get_event_stream, get_telemetry

        assert main(["run", "table1", "--seed", "1", "--telemetry",
                     "--runs-dir", str(tmp_path / "runs")]) == 0
        assert not get_telemetry().enabled
        assert not get_event_stream().enabled


class TestFaultToleranceFlags:
    def test_resume_without_checkpoint_dir_is_an_error(self, capsys):
        assert main(["run", "table1", "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_workers_rejects_non_integer_strings(self):
        with pytest.raises(SystemExit):
            main(["run", "table2", "--workers", "many"])

    @pytest.mark.parametrize("flags, message", [
        (["--trials", "-1"], "non-negative"),
        (["--workers", "0"], "workers must be >= 1"),
        (["--adaptive", "--rel-precision", "-1"], "rel_precision"),
    ], ids=["trials", "workers", "rel-precision"])
    def test_bad_engine_config_exits_2(self, flags, message, capsys):
        assert main(["run", "table2", "--seed", "1", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_bad_config_still_closes_the_run_directory(self, tmp_path, capsys):
        from repro.telemetry import RunRegistry

        runs_dir = str(tmp_path / "runs")
        assert main(["run", "table2", "--workers", "0", "--telemetry",
                     "--runs-dir", runs_dir]) == 2
        capsys.readouterr()
        (run,) = RunRegistry(runs_dir).list()
        assert run.read_manifest()["status"] == "error"

    def test_workers_auto_and_on_error_accepted(self, capsys):
        import json

        assert main(["run", "table2", "--trials", "2", "--seed", "1",
                     "--workers", "auto", "--on-error", "retry",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["experiment_id"] == "table2"

    def test_checkpoint_then_resume_round_trip(self, tmp_path, capsys):
        import json

        directory = str(tmp_path / "ckpt")
        base = ["run", "table2", "--trials", "2", "--seed", "4", "--json",
                "--checkpoint-dir", directory]
        assert main(base) == 0
        first = json.loads(capsys.readouterr().out.strip())
        assert main(base + ["--resume"]) == 0
        resumed = json.loads(capsys.readouterr().out.strip())
        assert resumed["rows"] == first["rows"]
        assert (tmp_path / "ckpt" / "table2" / "meta.json").exists()


class TestDatasetCommand:
    def test_writes_labelled_samples(self, tmp_path, capsys):
        import numpy as np

        out = tmp_path / "data.npz"
        assert main(["dataset", str(out), "--per-class", "2",
                     "--snrs", "17", "--seed", "1"]) == 0
        data = np.load(out)
        assert data["features"].shape == (len(data["labels"]), 5)
        assert set(data["labels"].tolist()) == {0, 1}
        assert "wrote" in capsys.readouterr().out

    def test_zero_per_class_exits_2(self, tmp_path, capsys):
        out = tmp_path / "data.npz"
        assert main(["dataset", str(out), "--per-class", "0"]) == 2
        assert "--per-class" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_sample_set_exits_2(self, tmp_path, capsys):
        out = tmp_path / "data.npz"
        assert main(["dataset", str(out), "--per-class", "2",
                     "--snrs", "-30"]) == 2
        assert "no reception decoded" in capsys.readouterr().err
        assert not out.exists()


class TestLintSubcommand:
    def test_lint_flags_violations(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import random\n")
        assert main(["lint", str(tmp_path)]) == 1
        assert "R001" in capsys.readouterr().out

    def test_lint_clean_tree_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "R001" in out and "R006" in out
