"""The declarative sweep layer: every Monte Carlo driver is one spec.

All of the paper's Monte Carlo sweeps (Tables II/IV/V, Figs. 7 and
10-14) share one shape: an axis of points, one or more independent trial
streams per point, a fixed or adaptive per-stream budget, and a
reduction from stream outcomes to table rows.  A driver declares a
:class:`SweepSpec` (axis -> :class:`PointSpec`/:class:`StreamSpec`
plan, context factory, fingerprint, one ``rows`` reducer) and
:func:`run_sweep` owns ALL of the wiring in exactly one place — one
loop over the plan's streams, in plan order:

* seed-stream discipline: ``spawn_rngs`` slots are allocated by the
  plan so serial == parallel == any chunking == the adaptive prefix at
  the same seed, and the context is built *after* the streams are spawned;
* budgets: a fixed stream is granted its whole budget in one engine
  call; an adaptive stream is granted chunks until its ``rate``/``mean``
  estimator converges or the budget is spent, and the savings are then
  granted round-robin to the streams that did not converge;
* checkpointing: one payload per stream — its raw trial rows and
  settled stats — with resume fingerprinting (seed, axis, budgets,
  adaptive config, scenario); resumed streams feed the reducer exactly
  as fresh ones do;
* telemetry: ``declare_trials`` ETA accounting, per-stream
  ``point_started`` / ``point_finished`` / ``point_converged`` events.

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
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple, Union

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
    MIN_TRIALS,
    AdaptiveConfig,
    make_estimator,
)
from repro.experiments.checkpoint import open_checkpoint_store
from repro.experiments.common import ExperimentResult
from repro.experiments.engine import IncrementalRun, MonteCarloEngine
from repro.telemetry import get_telemetry
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
    meta: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepPlan:
    """The fully-resolved axis: points plus the RNG slot allocation."""

    points: Tuple[PointSpec, ...]
    rng_slots: int


@dataclass
class StreamOutcome:
    """One finished stream: what the reducer and the checkpoint see.

    ``results`` holds the raw trial rows in trial order (``None`` for a
    dropped or skipped trial); the other fields are the stream's
    estimator when it finished (NaN while it has no observation).
    Trial rows hold only numbers, flags, tuples of them, or ``None``, so
    every field survives the checkpoint's JSON round trip (tuples come
    back as lists) and a resumed stream, ``StreamOutcome(**payload)``,
    reduces to the same rows as a fresh one.  Fixed streams report
    ``trials_used == budget`` and never converge or cap.
    """

    results: List[Any]
    trials_used: int
    converged: bool
    capped: bool
    estimate: float
    ci_low: float
    ci_high: float

    @property
    def values(self) -> List[Any]:
        """The trial rows that carry an observation (not ``None``)."""
        return [row for row in self.results if row is not None]


@dataclass
class SweepReduction:
    """Everything a spec's ``rows`` hook needs to build the result.

    ``outcomes`` maps every stream key of the plan to its
    :class:`StreamOutcome`, fresh or resumed, in both modes.
    """

    config: Mapping[str, Any]
    plan: SweepPlan
    adaptive: bool
    #: the engine context (prepared links, receivers, environment).
    context: Mapping[str, Any]
    outcomes: Dict[str, StreamOutcome]
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
        rows: the reducer: fills ``reduction.result`` from one
            :class:`StreamOutcome` per stream key.
        detector: optional defense-screening hook; its return value is
            installed as ``context["detector"]`` after the context is
            built.
        notes: config -> result notes (threshold calibrations etc. that
            depend on run output go through ``rows`` instead).
        scenario: which scenario override groups apply.
    """

    experiment_id: str
    title: str
    defaults: Mapping[str, Any]
    fingerprint: Callable[[Mapping[str, Any]], Dict[str, Any]]
    plan: Callable[[Mapping[str, Any]], SweepPlan]
    context: Callable[[Mapping[str, Any], np.random.Generator], Dict[str, Any]]
    columns: Callable[[Mapping[str, Any], bool], List[str]]
    rows: Callable[[SweepReduction], None]
    detector: Optional[Callable[[Mapping[str, Any]], Optional[Any]]] = None
    notes: Optional[Callable[[Mapping[str, Any]], List[str]]] = None
    scenario: ScenarioSupport = ScenarioSupport()

    def resolve_config(
        self, overrides: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """Defaults merged with overrides; unknown keys rejected.

        A key whose default is a tuple (an axis grid) stores any
        iterable override as a tuple, so a list, array or generator grid
        resolves to the same config as the default would.
        """
        config: Dict[str, Any] = dict(self.defaults)
        for key in SCENARIO_CONFIG_KEYS:
            config.setdefault(key, None)
        overrides = overrides or {}
        unknown = set(overrides) - set(config)
        if unknown:
            raise ConfigurationError(
                f"unknown config keys for {self.experiment_id!r}: "
                f"{sorted(unknown)}; valid keys: {sorted(config)}"
            )
        for key, value in overrides.items():
            if isinstance(config[key], tuple) and not isinstance(value, str):
                value = tuple(value)
            config[key] = value
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


class _OpenStream:
    """A pending stream: its incremental engine run and its estimator."""

    def __init__(self, spec: StreamSpec, run: IncrementalRun):
        self.spec = spec
        self.run = run
        self.estimator = make_estimator(spec.kind)
        self.converged = False
        self.capped = False

    def grant(self, count: int) -> None:
        """Run ``count`` more trials and fold them into the estimator."""
        rows = self.run.extend(count)
        self.estimator.add([self.spec.extract(row) for row in rows])

    def outcome(self) -> StreamOutcome:
        low, high = self.estimator.interval()
        return StreamOutcome(
            results=self.run.results,
            trials_used=self.run.trials,
            converged=self.converged,
            capped=self.capped,
            estimate=float(self.estimator.estimate),
            ci_low=float(low),
            ci_high=float(high),
        )


def run_sweep(
    spec: SweepSpec,
    *,
    rng: RngLike = None,
    workers: Union[int, str, None] = None,
    chunk_size: Optional[int] = None,
    on_error: str = "raise",
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    adaptive: bool = False,
    rel_precision: float = DEFAULT_REL_PRECISION,
    max_trials: Optional[int] = None,
    **config: Any,
) -> ExperimentResult:
    """Run one declarative sweep: the single owner of all engine wiring.

    Every sweep driver's ``run`` is ``partial(run_sweep, SPEC)``, so
    this signature is the one place the engine options are named;
    every other keyword is the spec's config.

    Args:
        spec: the sweep declaration.
        rng: randomness; an integer seed pins the whole run.
        workers: Monte Carlo engine worker processes (default: serial),
            or ``"auto"`` for the host CPU count.
        chunk_size: trials per engine dispatch (default: derived).
        on_error: trial-failure policy (``raise``/``retry``/``skip``).
        checkpoint_dir: persist each finished stream atomically.
        resume: serve finished streams from ``checkpoint_dir``
            (requires an integer ``rng`` seed and a matching
            fingerprint: same seed, axis, budgets, adaptive knobs,
            scenario).
        adaptive: stop each stream once its declared estimator reaches
            the target relative CI half-width, reallocating saved
            trials to unconverged streams.
        rel_precision: adaptive target relative CI half-width.
        max_trials: adaptive hard per-stream cap (default 4x budget).
        **config: overrides of ``spec.defaults`` (axis grids, counts)
            and the scenario keys (``channel``, ``receiver_profile``,
            ``detector_overrides``), validated by
            :meth:`SweepSpec.resolve_config`.
    """
    config = spec.resolve_config(config)
    adaptive_config = (
        AdaptiveConfig(rel_precision=rel_precision, max_trials=max_trials)
        if adaptive else None
    )
    seed = int(rng) if isinstance(rng, (int, np.integer)) else None
    if resume and seed is None:
        raise ConfigurationError(
            f"resume needs an integer seed to match the checkpoint "
            f"fingerprint, got rng={rng!r}"
        )
    fingerprint: Dict[str, Any] = {"seed": seed}
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
    events = get_event_stream()
    outcomes: Dict[str, StreamOutcome] = {}
    streams = [s for point in plan.points for s in point.streams]
    for s in streams:
        payload = store.get(s.key) if store is not None else None
        if payload is not None:
            outcomes[s.key] = StreamOutcome(**payload)
    pending = [s for s in streams if s.key not in outcomes]
    events.declare_trials(sum(s.budget for s in pending))

    def finish(stream: _OpenStream) -> None:
        outcome = stream.outcome()
        if store is not None:
            store.save(stream.spec.key, vars(outcome))
        events.point_finished(spec.experiment_id, stream.spec.key,
                              trials=outcome.trials_used)
        outcomes[stream.spec.key] = outcome

    opened: List[_OpenStream] = []
    with engine.session(context) as session:
        # The one stream loop, in plan order.  Fixed mode grants each
        # budget whole — one engine call, exactly as a fixed-budget
        # ``session.run`` — and finishes the stream at once; adaptive
        # mode grants chunks until the stream converges or reaches its
        # budget, and finishes every stream after the savings settle.
        for s in pending:
            events.point_started(spec.experiment_id, s.key, trials=s.budget)
            stream = _OpenStream(
                s, session.run_until(s.trial, rngs[s.rng_slot], s.static_args)
            )
            if adaptive_config is None:
                stream.grant(s.budget)
                finish(stream)
                continue
            chunk = adaptive_config.resolve_chunk(s.budget)
            while stream.run.trials < s.budget and not stream.converged:
                stream.grant(min(chunk, s.budget - stream.run.trials))
                stream.converged = (
                    stream.run.trials >= min(MIN_TRIALS, s.budget)
                    and stream.estimator.converged(
                        adaptive_config.rel_precision
                    )
                )
            opened.append(stream)
        if adaptive_config is not None:
            _settle(opened, adaptive_config, spec.experiment_id)
            for stream in opened:
                finish(stream)
    spec.rows(SweepReduction(
        config=config, plan=plan, adaptive=adaptive, context=context,
        outcomes=outcomes, result=result,
    ))
    if spec.notes is not None:
        result.notes.extend(spec.notes(config))
    return result


def _settle(
    streams: List[_OpenStream], config: AdaptiveConfig, experiment: str
) -> None:
    """Adaptive pass 2: spend the pass-1 savings on unconverged streams.

    Grants go chunk by chunk in plan order (deterministic round-robin);
    a stream leaves the rotation when it converges, reaches its hard
    cap, or the savings run dry, so the sweep never executes more than
    its fixed-budget total.  Afterwards every stream emits one
    ``point_converged`` event, and the sweep counts
    ``engine.trials_saved`` / ``engine.points_capped``.
    """
    saved = sum(s.spec.budget - s.run.trials for s in streams)
    pending = [s for s in streams if not s.converged]
    while pending and saved > 0:
        progressed = False
        for stream in list(pending):
            base = stream.spec.budget
            cap = config.resolve_cap(base)
            if stream.run.trials >= cap:
                stream.capped = True
                pending.remove(stream)
                continue
            step = min(
                config.resolve_chunk(base), cap - stream.run.trials, saved
            )
            if step <= 0:
                continue
            stream.grant(step)
            saved -= step
            progressed = True
            if stream.estimator.converged(config.rel_precision):
                stream.converged = True
                pending.remove(stream)
            if saved <= 0:
                break
        if not progressed:
            break
    for stream in pending:
        if stream.run.trials >= config.resolve_cap(stream.spec.budget):
            stream.capped = True
    events = get_event_stream()
    for stream in streams:
        low, high = stream.estimator.interval()
        events.point_converged(
            experiment,
            stream.spec.key,
            trials_used=stream.run.trials,
            trials_saved=stream.spec.budget - stream.run.trials,
            converged=stream.converged,
            estimate=_json_float(stream.estimator.estimate),
            ci_low=_json_float(low),
            ci_high=_json_float(high),
        )
    telemetry = get_telemetry()
    if saved > 0:
        telemetry.count("engine.trials_saved", saved)
    capped = sum(1 for stream in streams if not stream.converged)
    if capped:
        telemetry.count("engine.points_capped", capped)


def _json_float(value: float) -> Optional[float]:
    """NaN/inf become ``None`` so event records stay strict JSON."""
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        return None
    return value
