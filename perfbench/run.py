"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload awgn-sweep --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics: untraced runner calls
repeated for ``--seconds`` (at least three), plus the median of several
fresh-interpreter set-ups.  ``--trace 1`` repeats the same untraced runs
as the base of its ratios, then makes one traced run (see ``layers.py``),
one run with the program's telemetry and event file on, and the kernel
scaling probe (see ``kernels.py``), and reports the per-layer metrics.
Every run's rows go through the output check in ``workloads.py``; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import kernels
import layers
import workloads

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Fewest untraced runs, however short ``--seconds`` is.
MIN_RUNS = 3


class Tally:
    """Runs attempted and failed; each failure's reason goes to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(
        self,
        label: str,
        run: Callable[[], workloads.RunOutcome],
        check: Callable[[workloads.RunOutcome], List[str]],
    ) -> Optional[workloads.RunOutcome]:
        """One run; ``None`` when it raised.

        A run that returns but fails the output check counts as failed
        and is still returned, so its timing is reported next to
        ``"correct": false``.
        """
        self.attempted += 1
        try:
            outcome = run()
        except Exception as error:  # noqa: BLE001 - a failed run is a result
            self._fail(label, [f"raised {error!r}"])
            return None
        self._fail(label, check(outcome))
        return outcome

    def _fail(self, label: str, problems: List[str]) -> None:
        if problems:
            self.failed += 1
        for problem in problems:
            print(f"{label}: {problem}", file=sys.stderr)


def measure_setup(workload: workloads.Workload, seed: int) -> float:
    """Median set-up seconds over :data:`SETUP_REPEATS` fresh interpreters."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    command = [
        sys.executable, str(probe), str(workloads.SRC), workload.experiment,
        str(seed), json.dumps(dict(workload.config)),
    ]
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            command, check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def measure_untraced(
    workload: workloads.Workload, seed: int, seconds: float, tally: Tally
) -> List[workloads.RunOutcome]:
    """Untraced runner calls for ``seconds`` (at least :data:`MIN_RUNS`)."""
    outcomes: List[workloads.RunOutcome] = []
    begun = time.perf_counter()
    while (
        tally.attempted < MIN_RUNS or time.perf_counter() - begun < seconds
    ):
        gc.collect()
        first = outcomes[0] if outcomes else None
        outcome = tally.attempt(
            f"run {tally.attempted + 1}",
            lambda: workloads.run_workload(workload, seed),
            lambda o: workloads.check_rows(workload, seed, o, first),
        )
        if outcome is not None:
            outcomes.append(outcome)
    if not outcomes:
        raise RuntimeError(f"every run of {workload.name} raised")
    return outcomes


def peak_rss_mb() -> float:
    """The larger of this process's and its children's peak RSS, in MB."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def end_to_end(
    workload: workloads.Workload, seed: int, seconds: float, tally: Tally
) -> Dict[str, Any]:
    setup = measure_setup(workload, seed)
    outcomes = measure_untraced(workload, seed, seconds, tally)
    ok = tally.attempted - tally.failed
    return {
        "trials_per_s": (statistics.median(
            o.trials / o.seconds for o in outcomes), "trials/s"),
        "run_s": (statistics.median(o.seconds for o in outcomes), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_run_ratio": (ok / tally.attempted, "ratio"),
    }


def layer_seconds_name(layer: str) -> str:
    """Metric name of a layer's self seconds."""
    # The receiver's own time is what its stages leave over.
    return "zigbee.receive_self_s" if layer == "zigbee.receive" else f"{layer}_s"


def traced_pass(
    workload: workloads.Workload, seed: int,
    first: workloads.RunOutcome, tally: Tally,
):
    """``(parent tracer, kernel tracer, parent wall, kernel wall)``.

    On a worker pool the kernels run in the children, out of reach of
    the wrappers, so the pool run traces only the layers that run in
    the parent, and a serial run on the same inputs traces the rest; its
    rows must equal the pool's (the engine's serial == parallel
    contract).  A serial workload traces everything in one run.
    """
    def same_rows(outcome: workloads.RunOutcome) -> List[str]:
        if outcome.same_rows(first):
            return []
        return ["traced rows differ from the untraced rows"]

    parent = layers.Tracer()
    selected = layers.PARENT_LAYERS if workload.workers > 1 else None
    with parent.installed(selected):
        traced = tally.attempt(
            "traced run", lambda: workloads.run_workload(workload, seed),
            same_rows,
        )
    if traced is None:
        raise RuntimeError("the traced run raised")
    if workload.workers == 1:
        return parent, parent, traced.seconds, traced.seconds
    kernel = layers.Tracer()
    with kernel.installed():
        serial = tally.attempt(
            "serial traced run",
            lambda: workloads.run_workload(workload, seed, workers=1),
            same_rows,
        )
    if serial is None:
        raise RuntimeError("the serial traced run raised")
    return parent, kernel, traced.seconds, serial.seconds


def telemetry_run(
    workload: workloads.Workload, seed: int,
    first: workloads.RunOutcome, tally: Tally,
) -> float:
    """Wall seconds of one run with telemetry and an event file on.

    This is what ``repro-experiments run --telemetry`` turns on: the
    span/counter plane and a JSONL event sink.
    """
    from repro.telemetry import FileEventSink, get_event_stream, get_telemetry

    telemetry = get_telemetry()
    stream = get_event_stream()
    workloads.SCRATCH_DIR.mkdir(exist_ok=True)
    events = Path(tempfile.mkdtemp(prefix="events-", dir=workloads.SCRATCH_DIR))
    telemetry.reset()
    telemetry.enable()
    stream.reset()
    stream.add_sink(FileEventSink(events / "events.jsonl"))
    stream.enable(run_id="perfbench")
    try:
        outcome = tally.attempt(
            "telemetry run", lambda: workloads.run_workload(workload, seed),
            lambda o: [] if o.same_rows(first) else [
                "rows with telemetry on differ from the untraced rows"],
        )
    finally:
        stream.reset()
        telemetry.disable()
        telemetry.reset()
        shutil.rmtree(events, ignore_errors=True)
    if outcome is None:
        raise RuntimeError("the telemetry run raised")
    return outcome.seconds


def per_layer(
    workload: workloads.Workload, seed: int, seconds: float, tally: Tally
) -> Dict[str, Any]:
    outcomes = measure_untraced(workload, seed, seconds, tally)
    untraced = statistics.median(o.seconds for o in outcomes)
    parent, kernel, wall, kernel_wall = traced_pass(
        workload, seed, outcomes[0], tally
    )
    telemetry_wall = telemetry_run(workload, seed, outcomes[0], tally)

    def source(layer: str) -> layers.Tracer:
        return parent if layer in layers.PARENT_LAYERS else kernel

    metrics: Dict[str, Any] = {
        layer_seconds_name(layer): (source(layer).self_seconds[layer], "s")
        for layer in layers.LAYERS
    }
    counts = kernel.counts
    receive_calls = kernel.calls["zigbee.receive"]
    rows = counts["zigbee.rows"]
    demodulate_calls = kernel.calls["zigbee.oqpsk_demodulate"]
    metrics.update({
        "channel.noise_samples": (counts["channel.noise_samples"], "count"),
        "zigbee.receive_calls": (receive_calls, "count"),
        "zigbee.rows_per_call": (rows / max(receive_calls, 1), "rows/call"),
        "zigbee.oqpsk_demodulate_ms_per_call": (
            1e3 * kernel.self_seconds["zigbee.oqpsk_demodulate"]
            / max(demodulate_calls, 1), "ms"),
        "zigbee.fcs_ok_ratio": (counts["zigbee.fcs_ok"] / max(rows, 1), "ratio"),
        "zigbee.sync_lost_ratio": (
            counts["zigbee.sync_lost"] / max(rows, 1), "ratio"),
        "defense.vectors": (counts["defense.vectors"], "count"),
        "experiments.trials": (parent.counts["experiments.trials"], "count"),
        "experiments.engine_dispatches": (
            parent.calls["experiments.engine_wait"], "count"),
        "experiments.checkpoint_saves": (
            parent.calls["experiments.checkpoint_save"], "count"),
        "experiments.residual_share": (
            (wall - parent.attributed_seconds()) / wall, "ratio"),
        "trace.wall_s": (wall, "s"),
        "trace.kernel_wall_s": (kernel_wall, "s"),
        "trace.overhead_ratio": (wall / untraced, "ratio"),
        "trace.missing_targets": (
            len(set(parent.missing) | set(kernel.missing)), "count"),
        "telemetry.overhead_ratio": (telemetry_wall / untraced, "ratio"),
    })
    for name, value in kernels.measure().items():
        metrics[name] = (value, "rows/s")
    for tracer in {parent, kernel}:
        for missing in tracer.missing:
            print(f"trace: target not found: {missing}", file=sys.stderr)
        if tracer.hook_errors:
            print(f"trace: {tracer.hook_errors} count hooks failed",
                  file=sys.stderr)
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads.use_checkout_sources()
    except FileNotFoundError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    # Import every layer before timing: the first import also writes the
    # byte-code caches the set-up probes then read.
    import repro.experiments.registry  # noqa: F401

    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    try:
        metrics = measure(workload, args.seed, args.seconds, tally)
    finally:
        shutil.rmtree(workloads.SCRATCH_DIR, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
