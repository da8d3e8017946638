"""The benchmark's workloads: which sweep each runs, and how its rows are checked.

Every workload is one registered sweep experiment run through its public
runner (``repro.experiments.registry.get_experiment(id).run``) at the
workload seed.  This module imports nothing from ``repro`` at load time;
:func:`use_checkout_sources` points the import at the checkout first.

Regenerate the committed reference rows (seed 0) after a deliberate
change to the science with::

    python3 perfbench/workloads.py [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
#: Scratch space for checkpoints and event files; inside the checkout.
SCRATCH_DIR = ROOT / ".perfbench_tmp"
#: The seed whose rows are committed under ``reference/``.
REFERENCE_SEED = 0


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere.

    Raises ``FileNotFoundError`` when the checkout holds no sources, so a
    benchmark copied without the program fails instead of measuring some
    other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: workload name as given to ``--workload``.
        experiment: registry id of the sweep it runs.
        config: sweep config overrides; passed to the runner by name and
            to ``spec.resolve_config`` by the set-up probe.
        engine: engine keyword arguments (workers, adaptive).
        fixed_trials: trials a fixed-budget run executes (points x
            streams x budget); ``None`` for adaptive runs, whose trials
            are the rows' ``trials_used``.
        checkpoint: checkpoint every run into a fresh directory.
        row_check: per-row sanity predicate over every seed.
    """

    name: str
    experiment: str
    config: Mapping[str, Any]
    engine: Mapping[str, Any] = field(default_factory=dict)
    fixed_trials: Optional[int] = None
    checkpoint: bool = False
    row_check: Callable[[Dict[str, Any]], bool] = lambda row: True

    @property
    def workers(self) -> int:
        """Worker processes of the untraced run (1 = serial)."""
        return int(self.engine.get("workers") or 1)


def _is_rate(value: Any) -> bool:
    return isinstance(value, float) and 0.0 <= value <= 1.0


def _awgn_row_ok(row: Dict[str, Any]) -> bool:
    return _is_rate(row["success_rate"]) and _is_rate(
        row["authentic_success_rate"]
    )


def _realenv_row_ok(row: Dict[str, Any]) -> bool:
    # The paper's Table V claim: the emulated class sits above the
    # authentic class at every distance.
    return row["emulated_de2"] > row["zigbee_de2"] >= 0.0


def _distance_row_ok(row: Dict[str, Any]) -> bool:
    return (
        _is_rate(row["packet_error_rate"])
        and _is_rate(row["symbol_error_rate"])
        and row["trials_used"] >= 1
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Table II: 6 SNR points x {emulated, authentic} x 600 trials,
        # batched, serial, 150 rows per receive_batch call.
        Workload(
            name="awgn-sweep",
            experiment="table2",
            config={"trials": 600},
            fixed_trials=6 * 2 * 600,
            row_check=_awgn_row_ok,
        ),
        # Table V: 6 distances x 2 classes x 30 waveforms; no batched
        # trial, so every receive is a batch of one.
        Workload(
            name="realenv-scalar",
            experiment="table5",
            config={"waveforms_per_point": 30},
            fixed_trials=6 * 2 * 30,
            row_check=_realenv_row_ok,
        ),
        # Fig. 14: 8 distances x 2 receivers x 2 waveforms, adaptive at
        # the default precision from a base of 40, on a 2-worker pool,
        # checkpointing every cell.
        Workload(
            name="distance-adaptive-parallel",
            experiment="fig14",
            config={"trials": 40},
            engine={"adaptive": True, "workers": 2},
            checkpoint=True,
            row_check=_distance_row_ok,
        ),
    )
}


def canonical_cells(columns: List[str], rows: List[Dict[str, Any]]) -> list:
    """Rows as lists in column order; NaN as ``"NaN"``, numpy scalars as Python."""
    cells = []
    for row in rows:
        line = []
        for column in columns:
            value = row.get(column)
            if hasattr(value, "item"):
                value = value.item()
            if isinstance(value, float) and math.isnan(value):
                value = "NaN"
            line.append(value)
        cells.append(line)
    return cells


@dataclass
class RunOutcome:
    """One runner call: its wall time, trials, and canonical rows."""

    seconds: float
    trials: int
    columns: List[str]
    cells: list

    def same_rows(self, other: "RunOutcome") -> bool:
        """Whether two runs returned identical rows (bit for bit)."""
        return json.dumps([self.columns, self.cells]) == json.dumps(
            [other.columns, other.cells]
        )


def run_workload(
    workload: Workload, seed: int, workers: Optional[int] = None
) -> RunOutcome:
    """Call the workload's runner once and time it.

    ``workers`` overrides the workload's worker count (the traced pass
    uses ``1`` to see the kernels in process).  The checkpoint directory
    is fresh for every call and removed afterwards.
    """
    from repro.experiments.registry import get_experiment

    entry = get_experiment(workload.experiment)
    kwargs: Dict[str, Any] = dict(workload.config)
    kwargs.update(workload.engine)
    if workers is not None:
        kwargs["workers"] = workers
    checkpoint_dir = None
    if workload.checkpoint:
        SCRATCH_DIR.mkdir(exist_ok=True)
        checkpoint_dir = tempfile.mkdtemp(prefix="ckpt-", dir=SCRATCH_DIR)
        kwargs["checkpoint_dir"] = checkpoint_dir
    try:
        start = time.perf_counter()
        result = entry.run(rng=seed, **kwargs)
        seconds = time.perf_counter() - start
    finally:
        if checkpoint_dir is not None:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
    if workload.fixed_trials is not None:
        trials = workload.fixed_trials
    else:
        trials = sum(int(row["trials_used"]) for row in result.rows)
    return RunOutcome(
        seconds=seconds,
        trials=trials,
        columns=list(result.columns),
        cells=canonical_cells(result.columns, result.rows),
    )


def reference_path(workload: Workload) -> Path:
    """The committed reference rows of ``workload`` at the reference seed."""
    return REFERENCE_DIR / f"{workload.name}.json"


def load_reference(workload: Workload) -> RunOutcome:
    """The committed reference rows as a :class:`RunOutcome` (no timing)."""
    with open(reference_path(workload)) as handle:
        document = json.load(handle)
    return RunOutcome(
        seconds=0.0,
        trials=document["trials"],
        columns=document["columns"],
        cells=document["rows"],
    )


def check_rows(
    workload: Workload, seed: int, outcome: RunOutcome,
    first: Optional[RunOutcome],
) -> List[str]:
    """Every way ``outcome`` fails the output check; empty when it passes.

    The rows must equal the first run at the same seed, the committed
    reference at the reference seed, and satisfy the workload's per-row
    sanity predicate.
    """
    problems = []
    if first is not None and not outcome.same_rows(first):
        problems.append("rows differ from the first run at this seed")
    if seed == REFERENCE_SEED:
        reference = load_reference(workload)
        if not outcome.same_rows(reference):
            problems.append("rows differ from the committed reference")
        if outcome.trials != reference.trials:
            problems.append(
                f"{outcome.trials} trials executed, reference "
                f"executed {reference.trials}"
            )
    for cells in outcome.cells:
        row = dict(zip(outcome.columns, cells))
        if not workload.row_check(row):
            problems.append(f"row fails the sanity check: {row}")
    return problems


def write_reference(workload: Workload) -> Path:
    """Run ``workload`` at the reference seed and commit its rows."""
    outcome = run_workload(workload, REFERENCE_SEED)
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = reference_path(workload)
    with open(path, "w") as handle:
        json.dump(
            {
                "workload": workload.name,
                "experiment": workload.experiment,
                "seed": REFERENCE_SEED,
                "config": dict(workload.config),
                "engine": dict(workload.engine),
                "trials": outcome.trials,
                "columns": outcome.columns,
                "rows": outcome.cells,
            },
            handle,
            indent=1,
        )
        handle.write("\n")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="rewrite reference/<workload>.json at the reference seed"
    )
    parser.add_argument("workloads", nargs="*",
                        help=f"any of {sorted(WORKLOADS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads: {sorted(unknown)}")
    use_checkout_sources()
    for name in args.workloads or sorted(WORKLOADS):
        print(write_reference(WORKLOADS[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
