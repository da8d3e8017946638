"""The declarative sweep layer: every Monte Carlo driver is one spec.

All of the paper's Monte Carlo sweeps (Tables II/IV/V, Figs. 12-14)
share one shape: an axis of points, one or more independent trial
streams per point, a fixed or adaptive per-stream budget, and a
reduction from stream results to table rows.  Before this module, the
cross-cutting machinery — the parallel engine, checkpoint stores,
adaptive precision targeting, and telemetry events —
was hand-threaded through each driver.  Now a driver declares a
:class:`SweepSpec` (axis -> :class:`PointSpec`/:class:`StreamSpec`
plan, context factory, fingerprint, row reduction) and
:func:`run_sweep` owns ALL of the wiring in exactly one place:

* seed-stream discipline: ``spawn_rngs`` slots are allocated by the
  plan so serial == parallel == any chunking == the adaptive prefix at
  the same seed, and the context is built *after* the streams are spawned;
* checkpointing: per-point or per-stream units with resume
  fingerprinting (seed, axis, budgets, adaptive config, scenario);
* adaptive sampling: streams declare ``rate``/``mean`` metrics and the
  runner drives the two-pass :class:`AdaptiveSweep` protocol;
* telemetry: ``declare_trials`` ETA accounting, ``point_started`` /
  ``point_finished`` / ``point_converged`` events.

Scenario files (see ``docs/SCENARIOS.md``) parameterize any registered
spec from JSON — axis grids, trial counts, channel profile
(AWGN/Rician/Rayleigh, path-loss exponent), receiver profile, and
detector settings — so new sweeps need configuration, not new driver
code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.channel.awgn import AwgnChannel
from repro.channel.base import Channel, ChannelChain
from repro.channel.environment import DEFAULT_INDOOR_BUDGET, RealEnvironment
from repro.channel.fading import BlockFadingChannel
from repro.channel.offsets import FrequencyOffsetChannel, PhaseOffsetChannel
from repro.defense.detector import CumulantDetector
from repro.errors import ConfigurationError
from repro.experiments.adaptive import (
    DEFAULT_REL_PRECISION,
    AdaptiveConfig,
    AdaptivePointOutcome,
    AdaptivePointState,
    AdaptiveSweep,
)
from repro.experiments.checkpoint import open_checkpoint_store
from repro.experiments.common import ExperimentResult
from repro.experiments.engine import EngineSession, MonteCarloEngine
from repro.telemetry.events import get_event_stream
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs
from repro.zigbee.receiver import ReceiverConfig, ZigBeeReceiver

TrialFn = Callable[..., Any]

#: Config keys injected by scenarios on top of a spec's own defaults.
SCENARIO_CONFIG_KEYS = ("channel", "receiver_profile", "detector_overrides")

#: Channel profiles a scenario may request.
CHANNEL_PROFILES = ("awgn", "none", "rician", "rayleigh")

#: ``channel`` keys valid for SNR-axis specs (stacked channel factory).
SNR_CHANNEL_KEYS = frozenset(
    {"profile", "k_factor_db", "max_cfo_hz", "random_phase"}
)

#: ``channel`` keys valid for distance-axis specs (RealEnvironment).
ENVIRONMENT_CHANNEL_KEYS = SNR_CHANNEL_KEYS | {"path_loss_exponent"}

#: Detector kwargs a scenario may override.
DETECTOR_OVERRIDE_KEYS = frozenset(
    {"threshold", "use_abs_c40", "noise_variance"}
)


def _identity(value: Any) -> Any:
    """Default ``extract``: the trial result is the observation."""
    return value


# ---------------------------------------------------------------------------
# The declarative data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamSpec:
    """One independent trial stream inside a sweep point.

    Attributes:
        key: checkpoint/event key (unique across the whole plan).
        rng_slot: index into the run's ``spawn_rngs`` allocation — slots
            are assigned by the plan, not discovered at run time, so a
            stream keeps its noise draws even when a sibling stream is
            disabled (e.g. Table II without the authentic baseline).
        budget: fixed trial count, and the adaptive base budget.
        trial: engine trial ``(context, static_args, rngs)`` returning
            one row per generator.
        static_args: per-point parameters passed to every trial.
        kind: adaptive estimator — ``"rate"`` (Wilson) or ``"mean"``
            (Welford).
        extract: maps one raw trial result to the estimator observation
            (rate: truthy/falsy; mean: float or ``None`` to skip).
    """

    key: str
    rng_slot: int
    budget: int
    trial: TrialFn
    static_args: Tuple[Any, ...] = ()
    kind: str = "mean"
    extract: Callable[[Any], Any] = _identity


@dataclass(frozen=True)
class PointSpec:
    """One sweep point: the streams that feed one row (or row group)."""

    key: str
    streams: Tuple[StreamSpec, ...]
    started_trials: int = 0
    meta: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepPlan:
    """The fully-resolved axis: points plus the RNG slot allocation."""

    points: Tuple[PointSpec, ...]
    rng_slots: int


@dataclass
class PointReduction:
    """Everything a point-unit reducer needs to build one row."""

    config: Mapping[str, Any]
    point: PointSpec
    adaptive: bool
    #: the engine context (prepared links, receivers, environment).
    context: Mapping[str, Any] = field(default_factory=dict)
    #: fixed mode — raw engine results per stream key.
    results: Dict[str, List[Any]] = field(default_factory=dict)
    #: adaptive mode — settled outcomes per stream key.
    outcomes: Dict[str, AdaptivePointOutcome] = field(default_factory=dict)


@dataclass
class SweepReduction:
    """Everything a stream-unit reducer needs to build all rows.

    ``payloads`` maps every stream key to a JSON-friendly dict with at
    least ``"values"`` (the extracted non-``None`` observations, in
    trial order); adaptive payloads additionally carry the settled
    stats (``trials_used``/``converged``/``capped``/``estimate``/
    ``ci_low``/``ci_high``, NaN encoded as ``None``).
    """

    config: Mapping[str, Any]
    plan: SweepPlan
    adaptive: bool
    payloads: Dict[str, Dict[str, Any]]
    result: ExperimentResult


@dataclass(frozen=True)
class ScenarioSupport:
    """Which scenario override groups a spec accepts."""

    axes: Tuple[str, ...] = ()
    channel: Optional[str] = None  # "snr" | "environment" | None
    receiver: bool = False
    detector: bool = False


@dataclass(frozen=True)
class SweepSpec:
    """One declarative Monte Carlo sweep.

    Attributes:
        experiment_id: paper artifact id (checkpoint + event namespace).
        title: :class:`ExperimentResult` title.
        defaults: the experiment's own config defaults; unknown config
            keys are rejected, so specs double as config schemas.
        fingerprint: config -> resume-fingerprint fields (the runner
            adds ``seed``, the adaptive fragment, and the scenario
            fragment).
        plan: config -> :class:`SweepPlan` (pure; draws no randomness).
        context: ``(config, base_rng)`` -> engine context dict.  Called
            *after* the plan's RNG slots are spawned from ``base_rng``,
            so anything the context draws (e.g. the emulation's filler
            subcarriers) never perturbs the per-trial noise streams.
        columns: ``(config, adaptive)`` -> result columns.
        checkpoint_unit: ``"point"`` (one payload per point: the row)
            or ``"stream"`` (one payload per stream: the value list).
        reduce_point: point-unit reducer -> row dict.
        build_rows: stream-unit reducer (fills ``reduction.result``).
        detector: optional defense-screening hook; its return value is
            installed as ``context["detector"]`` after the context is
            built.
        notes: config -> result notes (threshold calibrations etc. that
            depend on run output go through ``build_rows`` instead).
        scenario: which scenario override groups apply.
    """

    experiment_id: str
    title: str
    defaults: Mapping[str, Any]
    fingerprint: Callable[[Mapping[str, Any]], Dict[str, Any]]
    plan: Callable[[Mapping[str, Any]], SweepPlan]
    context: Callable[[Mapping[str, Any], np.random.Generator], Dict[str, Any]]
    columns: Callable[[Mapping[str, Any], bool], List[str]]
    checkpoint_unit: str = "point"
    reduce_point: Optional[Callable[[PointReduction], Dict[str, Any]]] = None
    build_rows: Optional[Callable[[SweepReduction], None]] = None
    detector: Optional[Callable[[Mapping[str, Any]], Optional[Any]]] = None
    notes: Optional[Callable[[Mapping[str, Any]], List[str]]] = None
    scenario: ScenarioSupport = ScenarioSupport()

    def resolve_config(
        self, overrides: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """Defaults merged with overrides; unknown keys rejected."""
        config: Dict[str, Any] = dict(self.defaults)
        for key in SCENARIO_CONFIG_KEYS:
            config.setdefault(key, None)
        if overrides:
            unknown = set(overrides) - set(config)
            if unknown:
                raise ConfigurationError(
                    f"unknown config keys for {self.experiment_id!r}: "
                    f"{sorted(unknown)}; valid keys: "
                    f"{sorted(self.defaults)}"
                )
            config.update(overrides)
        return config


# ---------------------------------------------------------------------------
# Scenario resolution (channel / receiver / detector overrides)
# ---------------------------------------------------------------------------


def _defense_receiver_config() -> ReceiverConfig:
    return ReceiverConfig(demodulation="matched_filter")


def _receiver_profiles() -> Dict[str, Callable[[], ReceiverConfig]]:
    from repro.hardware.cc26x2 import cc26x2_receiver_config
    from repro.hardware.usrp import (
        gnuradio_simulation_receiver_config,
        usrp_receiver_config,
    )

    return {
        "gnuradio": gnuradio_simulation_receiver_config,
        "usrp": usrp_receiver_config,
        "cc26x2": cc26x2_receiver_config,
        "defense": _defense_receiver_config,
    }


def resolve_receiver(
    config: Mapping[str, Any], default: str
) -> ZigBeeReceiver:
    """The spec's receiver, honoring a scenario ``receiver_profile``."""
    profiles = _receiver_profiles()
    profile = config.get("receiver_profile") or default
    if profile not in profiles:
        raise ConfigurationError(
            f"unknown receiver profile {profile!r}; valid profiles: "
            f"{sorted(profiles)}"
        )
    return ZigBeeReceiver(profiles[profile]())


def resolve_detector(
    config: Mapping[str, Any], **defaults: Any
) -> CumulantDetector:
    """The spec's detector, honoring scenario ``detector_overrides``."""
    overrides = config.get("detector_overrides") or {}
    unknown = set(overrides) - DETECTOR_OVERRIDE_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown detector overrides: {sorted(unknown)}; valid keys: "
            f"{sorted(DETECTOR_OVERRIDE_KEYS)}"
        )
    return CumulantDetector(**{**defaults, **overrides})


@dataclass(frozen=True)
class FadingChannelFactory:
    """Picklable per-trial channel builder for SNR-axis scenarios.

    Stacks (in order) block fading, random CFO, random phase, and AWGN
    at the point's SNR, drawing every stage from sub-streams of the
    trial's own RNG — so rows stay bit-identical for any worker count
    or chunk size at the same seed.
    """

    profile: str = "awgn"
    k_factor_db: Optional[float] = 12.0
    max_cfo_hz: float = 0.0
    random_phase: bool = False

    def __call__(
        self, snr_db: Optional[float], rng: RngLike = None
    ) -> Channel:
        fading_rng, cfo_rng, phase_rng, noise_rng = spawn_rngs(rng, 4)
        stages: List[Channel] = []
        if self.profile == "rician":
            stages.append(
                BlockFadingChannel(k_factor_db=self.k_factor_db,
                                   rng=fading_rng)
            )
        elif self.profile == "rayleigh":
            stages.append(BlockFadingChannel(k_factor_db=None, rng=fading_rng))
        if self.max_cfo_hz > 0:
            stages.append(
                FrequencyOffsetChannel(max_offset_hz=self.max_cfo_hz,
                                       rng=cfo_rng)
            )
        if self.random_phase:
            stages.append(PhaseOffsetChannel(rng=phase_rng))
        if snr_db is not None:
            stages.append(AwgnChannel(snr_db=snr_db, rng=noise_rng))
        return ChannelChain(stages)


def _validated_channel_spec(
    config: Mapping[str, Any], valid_keys: FrozenSet[str]
) -> Optional[Dict[str, Any]]:
    spec = config.get("channel")
    if spec is None:
        return None
    unknown = set(spec) - valid_keys
    if unknown:
        raise ConfigurationError(
            f"unknown channel keys: {sorted(unknown)}; valid keys: "
            f"{sorted(valid_keys)}"
        )
    profile = spec.get("profile", "awgn")
    if profile not in CHANNEL_PROFILES:
        raise ConfigurationError(
            f"unknown channel profile {profile!r}; valid profiles: "
            f"{list(CHANNEL_PROFILES)}"
        )
    return dict(spec)


def resolve_channel_factory(
    config: Mapping[str, Any],
) -> Optional[FadingChannelFactory]:
    """A channel factory for SNR-axis specs; ``None`` without a scenario.

    ``None`` keeps the default AWGN path of ``transmit_batch``
    byte-identical to the committed baselines.
    """
    spec = _validated_channel_spec(config, SNR_CHANNEL_KEYS)
    if spec is None:
        return None
    return FadingChannelFactory(
        profile=spec.get("profile", "awgn"),
        k_factor_db=spec.get("k_factor_db", 12.0),
        max_cfo_hz=float(spec.get("max_cfo_hz", 0.0)),
        random_phase=bool(spec.get("random_phase", False)),
    )


def resolve_environment(
    config: Mapping[str, Any], rng: RngLike = 0
) -> RealEnvironment:
    """The real-environment channel, honoring scenario overrides."""
    spec = _validated_channel_spec(config, ENVIRONMENT_CHANNEL_KEYS) or {}
    budget = DEFAULT_INDOOR_BUDGET
    if "path_loss_exponent" in spec:
        budget = replace(
            budget, path_loss_exponent=float(spec["path_loss_exponent"])
        )
    kwargs: Dict[str, Any] = {}
    profile = spec.get("profile")
    if profile is not None:
        kwargs["fading"] = (
            "none" if profile in ("awgn", "none") else profile
        )
    if "k_factor_db" in spec:
        kwargs["k_factor_db"] = spec["k_factor_db"]
    if "max_cfo_hz" in spec:
        kwargs["max_cfo_hz"] = float(spec["max_cfo_hz"])
    if "random_phase" in spec:
        kwargs["random_phase"] = bool(spec["random_phase"])
    return RealEnvironment(budget=budget, rng=rng, **kwargs)


def scenario_fragment(config: Mapping[str, Any]) -> Dict[str, Any]:
    """The scenario part of the resume fingerprint (empty without one)."""
    return {
        key: config[key]
        for key in SCENARIO_CONFIG_KEYS
        if config.get(key) is not None
    }


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

_SCENARIO_TOP_KEYS = frozenset(
    {"experiment", "description", "overrides", "channel", "receiver",
     "detector"}
)


def load_scenario(path: str) -> Dict[str, Any]:
    """Parse and shape-check one scenario JSON file."""
    try:
        with open(path) as handle:
            scenario = json.load(handle)
    except OSError as error:
        raise ConfigurationError(f"cannot read scenario file: {error}")
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"malformed scenario JSON in {path}: {error}")
    if not isinstance(scenario, dict):
        raise ConfigurationError(
            f"scenario file {path} must hold a JSON object"
        )
    unknown = set(scenario) - _SCENARIO_TOP_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown scenario keys: {sorted(unknown)}; valid keys: "
            f"{sorted(_SCENARIO_TOP_KEYS)}"
        )
    experiment = scenario.get("experiment")
    if not isinstance(experiment, str) or not experiment:
        raise ConfigurationError(
            "scenario file must name its 'experiment' (e.g. \"table2\")"
        )
    for key in ("overrides", "channel", "receiver", "detector"):
        value = scenario.get(key)
        if value is not None and not isinstance(value, dict):
            raise ConfigurationError(
                f"scenario {key!r} must be a JSON object"
            )
    return scenario


def apply_scenario(
    spec: SweepSpec, scenario: Mapping[str, Any]
) -> Dict[str, Any]:
    """Scenario file -> config overrides for :func:`run_sweep`.

    Validates every override group against what the spec declares it
    supports, so a bad scenario fails before any trial runs.
    """
    support = spec.scenario
    overrides: Dict[str, Any] = {}
    axis_overrides = scenario.get("overrides") or {}
    unknown = set(axis_overrides) - set(support.axes)
    if unknown:
        raise ConfigurationError(
            f"scenario overrides {sorted(unknown)} are not supported by "
            f"{spec.experiment_id!r}; overridable: {sorted(support.axes)}"
        )
    overrides.update(axis_overrides)
    channel = scenario.get("channel")
    if channel is not None:
        if support.channel is None:
            raise ConfigurationError(
                f"{spec.experiment_id!r} does not support channel overrides"
            )
        valid = (
            SNR_CHANNEL_KEYS if support.channel == "snr"
            else ENVIRONMENT_CHANNEL_KEYS
        )
        probe = dict(overrides)
        probe["channel"] = channel
        _validated_channel_spec(probe, valid)
        overrides["channel"] = dict(channel)
    receiver = scenario.get("receiver")
    if receiver is not None:
        if not support.receiver:
            raise ConfigurationError(
                f"{spec.experiment_id!r} does not support receiver overrides"
            )
        unknown = set(receiver) - {"profile"}
        if unknown:
            raise ConfigurationError(
                f"unknown receiver keys: {sorted(unknown)}; valid: "
                f"['profile']"
            )
        profile = receiver.get("profile")
        if profile not in _receiver_profiles():
            raise ConfigurationError(
                f"unknown receiver profile {profile!r}; valid profiles: "
                f"{sorted(_receiver_profiles())}"
            )
        overrides["receiver_profile"] = profile
    detector = scenario.get("detector")
    if detector is not None:
        if not support.detector:
            raise ConfigurationError(
                f"{spec.experiment_id!r} does not support detector overrides"
            )
        unknown = set(detector) - DETECTOR_OVERRIDE_KEYS
        if unknown:
            raise ConfigurationError(
                f"unknown detector overrides: {sorted(unknown)}; valid "
                f"keys: {sorted(DETECTOR_OVERRIDE_KEYS)}"
            )
        overrides["detector_overrides"] = dict(detector)
    return overrides


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


def standalone_session(context: Dict[str, Any]) -> EngineSession:
    """A serial engine session for one-off collections outside a sweep.

    :func:`repro.experiments.defense_common.collect_statistics` and
    similar helpers use this when no caller-supplied session exists;
    sweeps themselves always go through :func:`run_sweep`.
    """
    return MonteCarloEngine().session(context)


def _settled_payload(
    state: AdaptivePointState, extract: Callable[[Any], Any]
) -> Dict[str, Any]:
    """One settled adaptive stream as a JSON-friendly checkpoint payload."""
    outcome = state.outcome()
    summary = {
        name: (
            None
            if isinstance(value, float) and math.isnan(value)
            else value
        )
        for name, value in outcome.summary().items()
    }
    values = [extract(result) for result in outcome.results]
    return {
        "values": [value for value in values if value is not None],
        **summary,
    }


def _make_estimator(sweep: AdaptiveSweep, stream_spec: StreamSpec) -> Any:
    if stream_spec.kind == "rate":
        return sweep.rate_estimator()
    if stream_spec.kind == "mean":
        return sweep.mean_estimator()
    raise ConfigurationError(
        f"unknown stream kind {stream_spec.kind!r} for "
        f"{stream_spec.key!r}; expected 'rate' or 'mean'"
    )


def run_sweep(
    spec: SweepSpec,
    overrides: Optional[Mapping[str, Any]] = None,
    rng: RngLike = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    on_error: str = "raise",
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    adaptive: bool = False,
    rel_precision: float = DEFAULT_REL_PRECISION,
    max_trials: Optional[int] = None,
) -> ExperimentResult:
    """Run one declarative sweep: the single owner of all engine wiring.

    Args:
        spec: the sweep declaration.
        overrides: config overrides on top of ``spec.defaults``
            (axis grids, counts, scenario channel/receiver/detector).
        rng: randomness; an integer seed pins the whole run.
        workers: Monte Carlo engine worker processes (default: serial).
        chunk_size: trials per engine dispatch (default: derived).
        on_error: trial-failure policy (``raise``/``retry``/``skip``).
        checkpoint_dir: persist each completed unit atomically.
        resume: serve completed units from ``checkpoint_dir`` (requires
            a matching fingerprint: same seed, axis, budgets, scenario).
        adaptive: stop each stream once its declared estimator reaches
            the target relative CI half-width, reallocating saved
            trials to unconverged streams.
        rel_precision: adaptive target relative CI half-width.
        max_trials: adaptive hard per-stream cap (default 4x budget).
    """
    config = spec.resolve_config(overrides)
    adaptive_config = (
        AdaptiveConfig(rel_precision=rel_precision, max_trials=max_trials)
        if adaptive else None
    )
    fingerprint: Dict[str, Any] = {
        "seed": rng if isinstance(rng, int) else None,
    }
    fingerprint.update(spec.fingerprint(config))
    scenario = scenario_fragment(config)
    if scenario:
        fingerprint["scenario"] = scenario
    if adaptive_config is not None:
        fingerprint["adaptive"] = adaptive_config.fingerprint()
    store = open_checkpoint_store(
        checkpoint_dir, spec.experiment_id,
        fingerprint=fingerprint, resume=resume,
    )
    plan = spec.plan(config)
    base = ensure_rng(rng)
    rngs = spawn_rngs(base, plan.rng_slots)
    # The context draws (if at all) only after every per-trial stream is
    # spawned, so a fixed seed fixes the whole run.
    context = spec.context(config, base)
    if spec.detector is not None:
        context["detector"] = spec.detector(config)
    result = ExperimentResult(
        experiment_id=spec.experiment_id,
        title=spec.title,
        columns=spec.columns(config, adaptive),
    )
    engine = MonteCarloEngine(
        workers=workers, chunk_size=chunk_size, on_error=on_error
    )
    stream = get_event_stream()
    if spec.checkpoint_unit == "point":
        _run_point_unit(
            spec, config, plan, rngs, context, engine, store, stream,
            result, adaptive_config,
        )
    elif spec.checkpoint_unit == "stream":
        _run_stream_unit(
            spec, config, plan, rngs, context, engine, store, stream,
            result, adaptive_config,
        )
    else:
        raise ConfigurationError(
            f"unknown checkpoint unit {spec.checkpoint_unit!r}; expected "
            f"'point' or 'stream'"
        )
    if spec.notes is not None:
        result.notes.extend(spec.notes(config))
    return result


def _sweep_base(plan: SweepPlan) -> int:
    """The adaptive sweep's base budget (per-stream budgets override it)."""
    return max(
        (s.budget for point in plan.points for s in point.streams), default=1
    )


def _run_point_unit(
    spec: SweepSpec,
    config: Mapping[str, Any],
    plan: SweepPlan,
    rngs: Sequence[np.random.Generator],
    context: Dict[str, Any],
    engine: MonteCarloEngine,
    store: Any,
    stream: Any,
    result: ExperimentResult,
    adaptive_config: Optional[AdaptiveConfig],
) -> None:
    """Point-unit sweeps: one checkpoint payload per point — its row."""
    if spec.reduce_point is None:
        raise ConfigurationError(
            f"{spec.experiment_id!r} declares checkpoint_unit='point' but "
            f"no reduce_point"
        )
    pending = [
        point for point in plan.points
        if store is None or not store.completed(point.key)
    ]
    stream.declare_trials(
        sum(s.budget for point in pending for s in point.streams)
    )
    with engine.session(context) as session:
        if adaptive_config is not None:
            sweep = AdaptiveSweep(
                session, _sweep_base(plan), config=adaptive_config,
                experiment=spec.experiment_id,
            )
            states: Dict[str, Dict[str, AdaptivePointState]] = {}
            for point in pending:
                stream.point_started(
                    spec.experiment_id, point.key,
                    trials=point.started_trials,
                )
                states[point.key] = {
                    s.key: sweep.point(
                        s.trial, rng=rngs[s.rng_slot],
                        static_args=s.static_args,
                        estimator=_make_estimator(sweep, s),
                        extract=s.extract, key=s.key, base=s.budget,
                    )
                    for s in point.streams
                }
            sweep.settle()
            for point in plan.points:
                cached = store.get(point.key) if store is not None else None
                if cached is not None:
                    result.add_row(**cached)
                    continue
                row = spec.reduce_point(PointReduction(
                    config=config, point=point, adaptive=True,
                    context=context,
                    outcomes={
                        key: state.outcome()
                        for key, state in states[point.key].items()
                    },
                ))
                if store is not None:
                    store.save(point.key, row)
                result.add_row(**row)
                stream.point_finished(spec.experiment_id, point.key,
                                      rows_so_far=len(result.rows))
        else:
            for point in plan.points:
                cached = store.get(point.key) if store is not None else None
                if cached is not None:
                    result.add_row(**cached)
                    continue
                stream.point_started(
                    spec.experiment_id, point.key,
                    trials=point.started_trials,
                )
                results = {
                    s.key: session.run(
                        s.trial, s.budget,
                        rng=rngs[s.rng_slot], static_args=s.static_args,
                    )
                    for s in point.streams
                }
                row = spec.reduce_point(PointReduction(
                    config=config, point=point, adaptive=False,
                    context=context, results=results,
                ))
                if store is not None:
                    store.save(point.key, row)
                result.add_row(**row)
                stream.point_finished(spec.experiment_id, point.key,
                                      rows_so_far=len(result.rows))


def _run_stream_unit(
    spec: SweepSpec,
    config: Mapping[str, Any],
    plan: SweepPlan,
    rngs: Sequence[np.random.Generator],
    context: Dict[str, Any],
    engine: MonteCarloEngine,
    store: Any,
    stream: Any,
    result: ExperimentResult,
    adaptive_config: Optional[AdaptiveConfig],
) -> None:
    """Stream-unit sweeps: one payload per stream — its value list.

    Rows are cheap global reductions (means, calibrated thresholds)
    recomputed from the (possibly resumed) payloads every run by the
    spec's ``build_rows``.
    """
    if spec.build_rows is None:
        raise ConfigurationError(
            f"{spec.experiment_id!r} declares checkpoint_unit='stream' but "
            f"no build_rows"
        )
    streams = [s for point in plan.points for s in point.streams]
    pending = [
        s for s in streams
        if store is None or not store.completed(s.key)
    ]
    stream.declare_trials(sum(s.budget for s in pending))
    payloads: Dict[str, Dict[str, Any]] = {}
    with engine.session(context) as session:
        if adaptive_config is not None:
            sweep = AdaptiveSweep(
                session, _sweep_base(plan), config=adaptive_config,
                experiment=spec.experiment_id,
            )
            states: Dict[str, AdaptivePointState] = {}
            for s in pending:
                stream.point_started(spec.experiment_id, s.key,
                                     trials=s.budget)
                states[s.key] = sweep.point(
                    s.trial, rng=rngs[s.rng_slot],
                    static_args=s.static_args,
                    estimator=_make_estimator(sweep, s),
                    extract=s.extract, key=s.key, base=s.budget,
                )
            sweep.settle()
            for s in streams:
                payload = store.get(s.key) if store is not None else None
                if payload is None:
                    payload = _settled_payload(states[s.key], s.extract)
                    if store is not None:
                        store.save(s.key, payload)
                    stream.point_finished(spec.experiment_id, s.key,
                                          rows_so_far=len(result.rows))
                payloads[s.key] = payload
        else:
            for s in streams:
                cached = store.get(s.key) if store is not None else None
                if cached is not None:
                    payloads[s.key] = {
                        "values": [float(value) for value in cached]
                    }
                    continue
                stream.point_started(spec.experiment_id, s.key,
                                     trials=s.budget)
                raw = session.run(
                    s.trial, s.budget,
                    rng=rngs[s.rng_slot], static_args=s.static_args,
                )
                values = [
                    value
                    for value in (s.extract(item) for item in raw)
                    if value is not None
                ]
                if store is not None:
                    store.save(s.key, values)
                stream.point_finished(spec.experiment_id, s.key,
                                      rows_so_far=len(values))
                payloads[s.key] = {"values": values}
    spec.build_rows(SweepReduction(
        config=config, plan=plan, adaptive=adaptive_config is not None,
        payloads=payloads, result=result,
    ))
