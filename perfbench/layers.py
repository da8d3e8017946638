"""Outside-in layer tracing: wrap each layer's public calls, charge self time.

The program is not edited.  For the traced pass, :meth:`Tracer.installed`
replaces each target in :data:`TARGETS` (a class method, or a function as
bound in one module) with a wrapper that times the call, and restores
the originals on exit.  Spans nest on one stack, so a layer's *self*
time is its calls' duration minus the part its wrapped callees cover;
the self times of all layers plus the residual add up to the traced wall
time by construction.  A call nested inside a call of the same layer
(a scalar twin delegating to its batched kernel) is part of the outer
call: it adds time but no calls and no counts.

Targets that no longer exist are skipped and counted in
``Tracer.missing``, so a refactor that deletes a scalar twin changes the
trace, not whether it runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: A count hook: ``(counts, bound_arguments, result, error)``.
CountHook = Callable[[Dict[str, float], Dict[str, Any], Any, Optional[BaseException]], None]


def _rows_received(counts, arguments, result, error) -> None:
    """zigbee: rows received, FCS passes and sync losses (scalar or batch)."""
    if "samples" in arguments:
        packets = list(result) if error is None else []
        rows = int(arguments["samples"].shape[0])
    else:
        packets = [result] if error is None else [None]
        rows = 1
    counts["zigbee.rows"] += rows
    counts["zigbee.sync_lost"] += sum(packet is None for packet in packets)
    counts["zigbee.fcs_ok"] += sum(
        bool(packet is not None and packet.fcs_ok) for packet in packets
    )


def _awgn_apply_noise(counts, arguments, result, error) -> None:
    """channel: complex normals one AwgnChannel.apply draws."""
    counts["channel.noise_samples"] += arguments["waveform"].samples.size


def _transmit_batch_noise(counts, arguments, result, error) -> None:
    """channel: complex normals transmit_batch draws inline (AWGN only)."""
    if arguments.get("snr_db") is None or arguments.get("channel_factory"):
        return
    samples = arguments["prepared"].on_air.samples.size
    counts["channel.noise_samples"] += len(arguments["rngs"]) * samples


def _vectors_one(counts, arguments, result, error) -> None:
    counts["defense.vectors"] += 1


def _vectors_batch(counts, arguments, result, error) -> None:
    counts["defense.vectors"] += len(arguments["soft_chips_rows"])


def _engine_trials(counts, arguments, result, error) -> None:
    counts["experiments.trials"] += int(arguments["count"])


@dataclass(frozen=True)
class Target:
    """One wrapped call site.

    Attributes:
        layer: layer name the call's self time is charged to.
        module: module that defines (or binds) the target.
        name: ``Class.method`` or a module-level function name.
        everywhere: also rebind the function in every loaded ``repro``
            module that imported it by name.
        count: optional hook recording counts at the outermost call.
    """

    layer: str
    module: str
    name: str
    everywhere: bool = False
    count: Optional[CountHook] = None


#: Layers whose calls run in the parent even on a worker pool.
PARENT_LAYERS = frozenset({
    "attack.emulate",
    "experiments.engine_open",
    "experiments.engine_wait",
    "experiments.checkpoint_save",
})

TARGETS: Tuple[Target, ...] = (
    Target("attack.emulate", "repro.attack.emulator",
           "WaveformEmulationAttack.emulate"),
    Target("attack.emulate", "repro.attack.emulator",
           "WaveformEmulationAttack.transmit_waveform"),
    Target("channel.awgn", "repro.channel.awgn", "AwgnChannel.apply",
           count=_awgn_apply_noise),
    # Batched AWGN is drawn inline in transmit_batch; its self time is
    # the noise draw once the receiver below it is charged to zigbee.
    Target("channel.awgn", "repro.experiments.common", "transmit_batch",
           everywhere=True, count=_transmit_batch_noise),
    Target("channel.chain", "repro.channel.base", "ChannelChain.apply"),
    Target("zigbee.receive", "repro.zigbee.receiver",
           "ZigBeeReceiver.receive", count=_rows_received),
    Target("zigbee.receive", "repro.zigbee.receiver",
           "ZigBeeReceiver.receive_batch", count=_rows_received),
    Target("zigbee.channelize", "repro.zigbee.receiver",
           "ZigBeeReceiver.channelize"),
    Target("zigbee.channelize", "repro.zigbee.receiver",
           "lowpass_filter_batch"),
    Target("zigbee.channelize", "repro.zigbee.receiver",
           "polyphase_resample_batch"),
    Target("zigbee.sync", "repro.zigbee.synchronizer",
           "Synchronizer.synchronize"),
    Target("zigbee.sync", "repro.zigbee.synchronizer",
           "Synchronizer.synchronize_batch"),
    Target("zigbee.oqpsk_demodulate", "repro.zigbee.oqpsk",
           "OqpskDemodulator.demodulate_batch"),
    Target("zigbee.quadrature_demodulate", "repro.zigbee.quadrature",
           "QuadratureDemodulator.demodulate"),
    Target("zigbee.quadrature_demodulate", "repro.zigbee.quadrature",
           "QuadratureDemodulator.demodulate_batch"),
    Target("zigbee.despread", "repro.zigbee.spreading",
           "DsssDespreader.despread_sequence"),
    Target("zigbee.despread", "repro.zigbee.spreading",
           "DsssDespreader.despread_arrays"),
    Target("zigbee.despread", "repro.zigbee.spreading",
           "DsssDespreader.despread"),
    Target("zigbee.despread", "repro.zigbee.msk",
           "MskDespreader.despread_arrays"),
    Target("defense.statistic", "repro.defense.detector",
           "CumulantDetector.statistic", count=_vectors_one),
    Target("defense.statistic", "repro.defense.detector",
           "CumulantDetector.statistic_batch", count=_vectors_batch),
    Target("experiments.engine_open", "repro.experiments.engine",
           "MonteCarloEngine.session"),
    Target("experiments.engine_open", "repro.experiments.engine",
           "EngineSession.__enter__"),
    Target("experiments.engine_open", "repro.experiments.engine",
           "EngineSession.__exit__"),
    Target("experiments.engine_wait", "repro.experiments.engine",
           "EngineSession.run", count=_engine_trials),
    Target("experiments.engine_wait", "repro.experiments.engine",
           "IncrementalRun.extend", count=_engine_trials),
    Target("experiments.checkpoint_save", "repro.experiments.checkpoint",
           "CheckpointStore.save"),
)

#: Every layer name, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS))


class Tracer:
    """Self time, outermost calls and counts per layer for one traced run.

    Attributes:
        self_seconds: layer -> seconds not covered by wrapped callees.
        calls: layer -> outermost calls.
        counts: counter name -> total recorded by the targets' hooks.
        missing: targets that could not be resolved and were skipped.
    """

    def __init__(self) -> None:
        self.self_seconds: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.counts: Dict[str, int] = defaultdict(int)
        self.missing: List[str] = []
        self.hook_errors = 0
        # One [child_seconds] cell per open span; depth per layer.
        self._stack: List[List[float]] = []
        self._depth: Dict[str, int] = {layer: 0 for layer in LAYERS}

    def attributed_seconds(self) -> float:
        """Total self time charged to any layer."""
        return sum(self.self_seconds.values())

    def wrap(self, target: Target, function: Callable) -> Callable:
        """A timing wrapper around ``function`` charged to ``target.layer``."""
        layer = target.layer
        signature = inspect.signature(function) if target.count else None

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            cell = [0.0]
            outermost = self._depth[layer] == 0
            self._depth[layer] += 1
            self._stack.append(cell)
            result: Any = None
            error: Optional[BaseException] = None
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            except BaseException as raised:
                error = raised
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self._depth[layer] -= 1
                self.self_seconds[layer] += elapsed - cell[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
                if outermost:
                    self.calls[layer] += 1
                    if signature is not None:
                        self._count(target, signature, args, kwargs,
                                    result, error)

        return traced

    def _count(self, target, signature, args, kwargs, result, error) -> None:
        # A hook that no longer fits the program's signatures must not
        # fail the traced run; it is counted instead.
        try:
            arguments = signature.bind(*args, **kwargs).arguments
            target.count(self.counts, arguments, result, error)
        except (TypeError, KeyError, AttributeError, IndexError):
            self.hook_errors += 1

    @contextmanager
    def installed(self, only: Optional[frozenset] = None) -> Iterator["Tracer"]:
        """Wrap every target (of the layers in ``only``, default all); restore on exit."""
        patches: List[Tuple[Any, str, Any]] = []
        try:
            for target in TARGETS:
                if only is not None and target.layer not in only:
                    continue
                sites = _binding_sites(target)
                if not sites:
                    self.missing.append(f"{target.module}.{target.name}")
                    continue
                wrapper = self.wrap(target, sites[0][2])
                for owner, attribute, original in sites:
                    setattr(owner, attribute, wrapper)
                    patches.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(patches):
                setattr(owner, attribute, original)


def _binding_sites(target: Target) -> List[Tuple[Any, str, Any]]:
    """``(owner, attribute, original)`` for every place to patch."""
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return []
    owner_name, _, attribute = target.name.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        # Only plain functions the class itself defines: an inherited
        # method would be shadowed, not restored, by setattr, and a
        # static or class method would lose its binding.
        original = vars(owner).get(attribute) if owner is not None else None
        if not inspect.isfunction(original):
            return []
        return [(owner, attribute, original)]
    original = getattr(module, attribute, None)
    if not callable(original):
        return []
    sites = [(module, attribute, original)]
    if target.everywhere:
        for name, other in list(sys.modules.items()):
            if (
                other is not module
                and name.startswith("repro.")
                and getattr(other, attribute, None) is original
            ):
                sites.append((other, attribute, original))
    return sites


def current_bindings() -> Dict[Tuple[int, str], Any]:
    """Every target binding now in place, keyed by (owner id, attribute).

    The self-test compares this before and after a traced pass to prove
    that the wrappers are fully removed.
    """
    bindings = {}
    for target in TARGETS:
        for owner, attribute, value in _binding_sites(target):
            bindings[(id(owner), attribute)] = value
    return bindings
