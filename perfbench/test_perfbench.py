"""Self-tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil

import pytest

import layers
import run
import workloads

workloads.use_checkout_sources()

import repro.experiments.registry  # noqa: E402,F401 - loads every layer

#: A table2 sweep small enough for a unit test, on the batched AWGN path.
TINY = workloads.Workload(
    name="tiny", experiment="table2",
    config={"trials": 8, "snrs_db": (7, 17)}, fixed_trials=2 * 2 * 8,
)
#: A table5 sweep on the scalar Rician path (ChannelChain, filtered channelize).
TINY_SCALAR = workloads.Workload(
    name="tiny-scalar", experiment="table5",
    config={"waveforms_per_point": 2, "distances_m": (1,)},
    fixed_trials=1 * 2 * 2,
)


@pytest.fixture(autouse=True, scope="module")
def _remove_scratch_dir():
    yield
    shutil.rmtree(workloads.SCRATCH_DIR, ignore_errors=True)


def traced(workload, seed=0):
    tracer = layers.Tracer()
    with tracer.installed():
        outcome = workloads.run_workload(workload, seed)
    return tracer, outcome


class TestTracer:
    def test_wrappers_are_fully_removed_after_the_traced_pass(self):
        before = layers.current_bindings()
        tracer, _ = traced(TINY)
        assert layers.current_bindings() == before
        assert tracer.missing == []
        assert all(
            not hasattr(value, "__wrapped__") for value in before.values()
        )

    def test_wrappers_are_removed_when_the_run_raises(self):
        before = layers.current_bindings()
        with pytest.raises(RuntimeError):
            with layers.Tracer().installed():
                raise RuntimeError("boom")
        assert layers.current_bindings() == before

    @pytest.mark.parametrize("workload", [TINY, TINY_SCALAR],
                             ids=lambda w: w.name)
    def test_self_times_plus_residual_sum_to_the_traced_wall(self, workload):
        tracer, outcome = traced(workload)
        residual = outcome.seconds - tracer.attributed_seconds()
        assert all(seconds >= 0.0 for seconds in tracer.self_seconds.values())
        assert residual >= 0.0
        assert sum(tracer.self_seconds.values()) + residual == pytest.approx(
            outcome.seconds, abs=1e-9
        )

    def test_tracing_leaves_rows_and_counts_consistent(self):
        tracer, outcome = traced(TINY)
        assert outcome.same_rows(workloads.run_workload(TINY, 0))
        assert tracer.counts["experiments.trials"] == TINY.fixed_trials
        assert tracer.counts["zigbee.rows"] == TINY.fixed_trials
        assert tracer.calls["zigbee.receive"] >= 1
        assert tracer.hook_errors == 0


class TestMetricNames:
    NAME = re.compile(r"[A-Za-z0-9_.-]+")

    def declared(self):
        with open(workloads.ROOT / "BENCHMARK.json") as handle:
            return json.load(handle)

    def test_every_declared_name_is_well_formed(self):
        benchmark = self.declared()
        names = [w["name"] for w in benchmark["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [metric["name"] for metric in benchmark[group]]
        assert all(self.NAME.fullmatch(name) for name in names)
        assert len(names) == len(set(names))

    def test_declared_workloads_match_the_code(self):
        assert [w["name"] for w in self.declared()["workloads"]] == list(
            workloads.WORKLOADS
        )

    @pytest.mark.parametrize("group, measure", [
        ("end_to_end", run.end_to_end), ("per_layer", run.per_layer),
    ])
    def test_a_run_emits_exactly_the_declared_metrics(self, group, measure):
        tally = run.Tally()
        metrics = measure(TINY, 1, 0.0, tally)
        declared = {m["name"]: m["unit"] for m in self.declared()[group]}
        assert {name: unit for name, (_, unit) in metrics.items()} == declared
        assert tally.failed == 0


def test_a_different_seed_changes_the_awgn_sweep_rows():
    workload = workloads.WORKLOADS["awgn-sweep"]
    reference = workloads.load_reference(workload)
    other = workloads.run_workload(workload, workloads.REFERENCE_SEED + 1)
    assert not other.same_rows(reference)
    assert workloads.check_rows(workload, 1, other, None) == []
