"""Tests for the declarative sweep layer (``repro.experiments.sweep``).

Three contracts are pinned here:

* **Parity** — every migrated driver reproduces its committed oracle
  rows bit-identically, fixed and adaptive, serial and parallel; the
  table2 driver additionally matches the committed
  ``benchmarks/baselines/table2-trials20-seed1`` run directory.
* **Scenarios** — a scenario JSON file round-trips through
  ``load_scenario``/``apply_scenario`` into ``run_sweep`` and through
  the CLI, with the manifest recording the applied overrides, and
  malformed files failing with exit code 2 before any trial runs.
* **Flag support** — engine and scenario flags need a sweep spec and
  ``--trials`` needs a trial-count parameter: a named experiment
  rejects any other flag with exit 2, ``run all`` applies each flag
  only where it applies, and records exactly one run directory.
* **Flat config** — a driver's ``run`` is its spec bound to
  ``run_sweep``: config keys are passed flat next to the engine
  options and validated by ``SweepSpec.resolve_config``.
"""

import json
import math
import os

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments import (
    fig7_hamming,
    fig10_c42,
    fig11_c40,
    fig12_defense,
    fig13_rssi,
    fig14_error_rates,
    table2_attack_awgn,
    table4_de2_snr,
    table5_de2_distance,
)
from repro.experiments.registry import experiment_ids, get_experiment
from repro.experiments.engine import IncrementalRun
from repro.experiments.sweep import (
    SCENARIO_CONFIG_KEYS,
    apply_scenario,
    load_scenario,
    run_sweep,
)
from repro.telemetry.events import MemoryEventSink, get_event_stream

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ORACLE_DIR = os.path.join(REPO_ROOT, "benchmarks", "baselines", "sweep-oracles")
BASELINE_RUN = os.path.join(
    REPO_ROOT, "benchmarks", "baselines", "table2-trials20-seed1"
)

DRIVERS = {
    "fig7": fig7_hamming,
    "fig10": fig10_c42,
    "fig11": fig11_c40,
    "table2": table2_attack_awgn,
    "table4": table4_de2_snr,
    "table5": table5_de2_distance,
    "fig12": fig12_defense,
    "fig13": fig13_rssi,
    "fig14": fig14_error_rates,
}


def load_oracle(experiment_id, mode):
    """One committed oracle document (config, columns, rows)."""
    path = os.path.join(ORACLE_DIR, f"{experiment_id}-{mode}.json")
    with open(path) as handle:
        return json.load(handle)


def result_cells(result, columns):
    """Result rows as lists in oracle column order, NaN as 'NaN'."""
    cells = []
    for row in result.rows:
        cells.append([
            "NaN" if isinstance(row[c], float) and math.isnan(row[c])
            else row[c]
            for c in columns
        ])
    return cells


def run_from_oracle(experiment_id, oracle, **extra):
    """Re-run the driver with the oracle's pinned config."""
    kwargs = {
        key: (tuple(value) if isinstance(value, list) else value)
        for key, value in oracle["config"].items()
    }
    return DRIVERS[experiment_id].run(**kwargs, **extra)


class TestOracleParity:
    """Every driver's rows are bit-identical to the committed oracles."""

    @pytest.mark.parametrize("experiment_id", sorted(DRIVERS))
    @pytest.mark.parametrize("mode", ["fixed", "adaptive"])
    def test_serial_rows_match_oracle(self, experiment_id, mode):
        oracle = load_oracle(experiment_id, mode)
        extra = {"adaptive": True} if mode == "adaptive" else {}
        result = run_from_oracle(experiment_id, oracle, **extra)
        assert result.columns == oracle["columns"]
        assert result_cells(result, oracle["columns"]) == oracle["rows"]

    @pytest.mark.parametrize(
        "experiment_id", ["table2", "table4", "fig7", "fig10", "fig11"]
    )
    def test_parallel_rows_match_oracle(self, experiment_id):
        oracle = load_oracle(experiment_id, "fixed")
        result = run_from_oracle(experiment_id, oracle, workers=2)
        assert result_cells(result, oracle["columns"]) == oracle["rows"]

    def test_table2_matches_committed_run_directory(self):
        with open(os.path.join(BASELINE_RUN, "rows", "table2.json")) as handle:
            baseline = json.load(handle)
        result = table2_attack_awgn.run(trials=20, rng=1)
        assert result.columns == baseline["columns"]
        assert result_cells(result, baseline["columns"]) == baseline["rows"]

    def test_batch_toggle_is_bit_identical(self):
        """Batching off — every trial a batch of one — keeps the rows."""
        oracle = load_oracle("table2", "fixed")
        unbatched = run_from_oracle("table2", oracle, chunk_size=1)
        assert result_cells(unbatched, oracle["columns"]) == oracle["rows"]

    @pytest.mark.parametrize("experiment_id", ["fig7", "fig10", "fig11"])
    def test_batch_of_one_rows_match_oracle(self, experiment_id):
        """The fixed oracles were recorded from the standalone drivers
        these specs replaced; every trial a batch of one keeps them."""
        oracle = load_oracle(experiment_id, "fixed")
        result = run_from_oracle(experiment_id, oracle, chunk_size=1)
        assert result_cells(result, oracle["columns"]) == oracle["rows"]

    @pytest.mark.parametrize("engine", [
        {"chunk_size": 1}, {}, {"workers": 2},
    ], ids=["chunk1", "default-chunks", "workers2"])
    @pytest.mark.parametrize("experiment_id", ["table5", "fig13"])
    def test_real_environment_rows_match_oracle_for_any_chunking(
        self, experiment_id, engine
    ):
        oracle = load_oracle(experiment_id, "fixed")
        result = run_from_oracle(experiment_id, oracle, **engine)
        assert result_cells(result, oracle["columns"]) == oracle["rows"]


class TestStreamLoop:
    """One loop over the plan's streams, in plan order, in both modes."""

    PARAMS = {"snrs_db": (15, 17), "trials": 5, "include_authentic": True,
              "screen_defense": False}
    KEYS = ["snr15", "snr15.authentic", "snr17", "snr17.authentic"]

    def test_fixed_streams_get_their_budget_in_one_grant(self, monkeypatch):
        grants = []
        extend = IncrementalRun.extend

        def recording_extend(run, count):
            grants.append(count)
            return extend(run, count)

        monkeypatch.setattr(IncrementalRun, "extend", recording_extend)
        table2_attack_awgn.run(rng=1, **self.PARAMS)
        assert grants == [5] * len(self.KEYS)

    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["fixed", "adaptive"])
    def test_point_events_are_per_stream(self, adaptive):
        stream = get_event_stream()
        sink = stream.add_sink(MemoryEventSink())
        stream.enable()
        try:
            result = table2_attack_awgn.run(
                rng=1, adaptive=adaptive, **self.PARAMS
            )
        finally:
            stream.remove_sink(sink)
            stream.disable()
        started = [e for e in sink.records if e["event"] == "point_started"]
        finished = [e for e in sink.records if e["event"] == "point_finished"]
        assert [e["point"] for e in started] == self.KEYS
        assert [e["point"] for e in finished] == self.KEYS
        assert all(e["trials"] == 5 for e in started)
        assert all("rows_so_far" not in e for e in finished)
        if adaptive:
            used = {row["snr_db"]: row["trials_used"] for row in result.rows}
            assert [e["trials"] for e in finished][::2] == [used[15], used[17]]
        else:
            assert all(e["trials"] == 5 for e in finished)


SCENARIO = {
    "experiment": "table2",
    "description": "rayleigh grid",
    "overrides": {
        "snrs_db": [9, 15],
        "trials": 4,
        "include_authentic": False,
        "screen_defense": False,
    },
    "channel": {"profile": "rayleigh", "max_cfo_hz": 0.0,
                "random_phase": False},
}


@pytest.fixture()
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return str(path)


class TestScenarioRoundTrip:
    def test_scenario_to_spec_to_rows(self, scenario_path):
        scenario = load_scenario(scenario_path)
        overrides = apply_scenario(table2_attack_awgn.SPEC, scenario)
        assert overrides["snrs_db"] == [9, 15]
        assert overrides["channel"]["profile"] == "rayleigh"
        result = run_sweep(table2_attack_awgn.SPEC, rng=3, **overrides)
        assert [row["snr_db"] for row in result.rows] == [9, 15]
        assert result.columns == ["snr_db", "success_rate",
                                  "paper_success_rate"]

    def test_scenario_changes_the_channel(self, scenario_path):
        # A lower grid than the fixture's: at 9+ dB both channels
        # saturate at success 1.0 and the rows cannot differ.
        scenario = load_scenario(scenario_path)
        scenario["overrides"].update(snrs_db=[5, 7], trials=8)
        overrides = apply_scenario(table2_attack_awgn.SPEC, scenario)
        faded = run_sweep(table2_attack_awgn.SPEC, rng=3, **overrides)
        del overrides["channel"]
        awgn = run_sweep(table2_attack_awgn.SPEC, rng=3, **overrides)
        assert faded.rows != awgn.rows

    def test_cli_scenario_records_overrides_in_manifest(
        self, scenario_path, tmp_path, capsys
    ):
        save_dir = str(tmp_path / "out")
        assert main(["run", "--scenario", scenario_path, "--seed", "3",
                     "--save", save_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["experiment_id"] == "table2"
        with open(os.path.join(save_dir, "table2.manifest.json")) as handle:
            manifest = json.load(handle)
        recorded = manifest["config"]["scenario"]
        assert recorded["snrs_db"] == [9, 15]
        assert recorded["channel"]["profile"] == "rayleigh"

    def test_cli_scenario_matches_direct_run_sweep(
        self, scenario_path, capsys
    ):
        assert main(["run", "--scenario", scenario_path, "--seed", "3",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        scenario = load_scenario(scenario_path)
        overrides = apply_scenario(table2_attack_awgn.SPEC, scenario)
        direct = run_sweep(table2_attack_awgn.SPEC, rng=3, **overrides)
        assert payload["rows"] == direct.rows

    def test_scenario_checkpoint_resume_and_adaptive(
        self, scenario_path, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "ckpt")
        base = ["run", "--scenario", scenario_path, "--seed", "3",
                "--adaptive", "--checkpoint-dir", ckpt, "--json"]
        assert main(base) == 0
        first = json.loads(capsys.readouterr().out.strip())
        assert main(base + ["--resume"]) == 0
        resumed = json.loads(capsys.readouterr().out.strip())
        assert resumed["rows"] == first["rows"]
        assert all("trials_used" in row for row in first["rows"])

    def test_cli_trials_overrides_the_scenario_axis(
        self, scenario_path, capsys
    ):
        assert main(["run", "--scenario", scenario_path, "--seed", "3",
                     "--trials", "6", "--adaptive", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert all(row["trials_used"] >= 6 for row in payload["rows"])


class TestScenarioValidation:
    def cli_error(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        code, err = self.cli_error(capsys, "run", "--scenario", str(path))
        assert code == 2 and "malformed scenario JSON" in err

    def test_unknown_top_level_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"experiment": "table2", "bogus": 1}))
        code, err = self.cli_error(capsys, "run", "--scenario", str(path))
        assert code == 2 and "unknown scenario keys" in err

    def test_missing_experiment_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"overrides": {"trials": 2}}))
        code, err = self.cli_error(capsys, "run", "--scenario", str(path))
        assert code == 2 and "experiment" in err

    def test_unknown_experiment_in_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"experiment": "table42"}))
        code, err = self.cli_error(capsys, "run", "--scenario", str(path))
        assert code == 2 and "unknown experiment" in err

    def test_experiment_mismatch_exits_2(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"experiment": "table2"}))
        code, err = self.cli_error(
            capsys, "run", "table4", "--scenario", str(path)
        )
        assert code == 2 and "table4" in err

    def test_unsupported_axis_override_is_rejected(self):
        with pytest.raises(ConfigurationError, match="not supported"):
            apply_scenario(
                table2_attack_awgn.SPEC,
                {"experiment": "table2", "overrides": {"bogus_axis": 1}},
            )

    def test_unsupported_channel_profile_is_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_scenario(
                table2_attack_awgn.SPEC,
                {"experiment": "table2",
                 "channel": {"profile": "underwater"}},
            )

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, err = self.cli_error(
            capsys, "run", "--scenario", str(tmp_path / "nope.json")
        )
        assert code == 2 and "cannot read scenario file" in err

    def test_run_without_experiment_or_scenario_exits_2(self, capsys):
        code, err = self.cli_error(capsys, "run")
        assert code == 2 and "--scenario" in err


class TestCapabilityMetadata:
    """What an entry supports follows from its spec and trials_param."""

    def test_sweep_entries_name_a_config_key_for_trials(self):
        for experiment_id in experiment_ids():
            entry = get_experiment(experiment_id)
            if entry.spec is None:
                continue
            assert entry.spec.experiment_id == experiment_id
            if entry.trials_param is not None:
                assert entry.trials_param in entry.spec.defaults

    def test_sweep_drivers_expose_their_specs(self):
        for experiment_id, module in DRIVERS.items():
            entry = get_experiment(experiment_id)
            assert entry.spec is module.SPEC

    def test_engine_flag_without_spec_exits_2_naming_the_flag(self, capsys):
        assert main(["run", "fig5", "--adaptive"]) == 2
        err = capsys.readouterr().err
        assert "--adaptive" in err and "fig5" in err

    def test_undeclared_scenario_flag_exits_2(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"experiment": "fig5"}))
        assert main(["run", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert "--scenario" in err

    def test_trials_flag_without_trials_param_exits_2(self, capsys):
        assert main(["run", "fig12", "--trials", "5"]) == 2
        assert "--trials" in capsys.readouterr().err

    def test_trials_flag_maps_to_declared_parameter(self, capsys):
        assert main(["run", "table3", "--trials", "2000", "--seed", "1",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["experiment_id"] == "table3"

    def test_run_all_applies_engine_flags_only_to_sweep_entries(
        self, capsys, monkeypatch
    ):
        import repro.cli as cli_module

        monkeypatch.setattr(
            cli_module, "experiment_ids", lambda: ["fig5", "table2"]
        )
        calls = []

        def recording_run_sweep(spec, **kwargs):
            calls.append((spec.experiment_id, kwargs))
            return run_sweep(spec, **kwargs)

        monkeypatch.setattr(cli_module, "run_sweep", recording_run_sweep)
        assert main(["run", "all", "--trials", "2", "--workers", "2",
                     "--seed", "1", "--json"]) == 0
        payloads = [json.loads(line) for line in
                    capsys.readouterr().out.strip().splitlines()]
        assert [p["experiment_id"] for p in payloads] == ["fig5", "table2"]
        assert calls == [("table2", {"rng": 1, "trials": 2, "workers": 2})]

    def test_unknown_experiment_still_raises(self):
        with pytest.raises(ConfigurationError):
            main(["run", "table42"])


class TestFlatConfig:
    """``run`` takes config keys flat; the spec validates them."""

    def test_unknown_key_lists_every_accepted_key(self):
        with pytest.raises(ConfigurationError) as raised:
            table2_attack_awgn.run(trial=5)
        message = str(raised.value)
        assert "'trial'" in message
        for key in (*table2_attack_awgn.SPEC.defaults, *SCENARIO_CONFIG_KEYS):
            assert repr(key) in message

    def test_axis_grids_resolve_to_tuples(self):
        spec = table2_attack_awgn.SPEC
        assert spec.resolve_config({"snrs_db": [9, 15]})["snrs_db"] == (9, 15)
        grid = (snr for snr in (9, 15))
        assert spec.resolve_config({"snrs_db": grid})["snrs_db"] == (9, 15)


class TestRunAllRecordsOneRunDirectory:
    def test_run_all_uses_a_single_run_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.cli as cli_module

        monkeypatch.setattr(
            cli_module, "experiment_ids", lambda: ["table1", "table3"]
        )
        runs_dir = str(tmp_path / "runs")
        assert main(["run", "all", "--seed", "1", "--telemetry",
                     "--runs-dir", runs_dir]) == 0
        capsys.readouterr()
        from repro.telemetry import RunRegistry

        runs = RunRegistry(runs_dir).list()
        assert len(runs) == 1
        manifest = runs[0].read_manifest()
        assert manifest["experiments"] == ["table1", "table3"]
        assert manifest["status"] == "ok"
