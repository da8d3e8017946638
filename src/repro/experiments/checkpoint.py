"""Crash-safe checkpointing for Monte Carlo sweeps.

Paper-scale campaigns (Tables II, IV, V; Figs. 7, 10-14) are hours of
independent trial streams; a killed process should cost the stream that
was in flight, not the campaign.  :class:`CheckpointStore` persists one
JSON document per finished stream under a caller-chosen directory
using the atomic write-then-rename primitive in :mod:`repro.utils.io`,
and on ``resume=True`` serves those documents back so the sweep runner
skips every stream already done::

    store = open_checkpoint_store("ckpt", "table2",
                                  fingerprint={"seed": 1, "trials": 1000},
                                  resume=True)
    cached = store.get("snr7")            # stream payload, or None
    ...
    store.save("snr7", payload)           # atomic: old file or new file

A ``meta.json`` records the sweep's *fingerprint* — the seed and the
parameters that shape the rows.  Resuming against a directory whose
fingerprint differs raises :class:`~repro.errors.ConfigurationError`
instead of silently splicing rows from two different campaigns, and so
does a directory written in another on-disk format
(:data:`CHECKPOINT_FORMAT_VERSION`); opening without ``resume``
invalidates any stale points first.  Resumed streams bump the
``engine.points_resumed`` telemetry counter so ``--telemetry`` output
accounts for how much of a run was recovered rather than computed.

Checkpoint payloads must be JSON-serializable and round-trip exactly:
Python floats serialize via ``repr`` and parse back bit-identical (NaN
included), so a resumed sweep reproduces the rows a fresh run at the
same seed produces.  Resume keys on the fingerprint, so it is only
meaningful when ``rng`` was an integer seed — a live ``Generator``
cannot be re-anchored across processes.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.errors import ConfigurationError
from repro.telemetry import get_telemetry
from repro.telemetry.events import get_event_stream
from repro.utils.io import atomic_write_json, read_json

#: Bumped when the on-disk layout changes incompatibly.  Version 1 held
#: one row (or value list) per sweep point; version 2 holds one
#: ``StreamOutcome`` payload — raw trial rows plus settled stats — per
#: trial stream.
CHECKPOINT_FORMAT_VERSION = 2

_META_FILENAME = "meta.json"
_POINT_PREFIX = "point_"
_KEY_SLUG = re.compile(r"[^A-Za-z0-9._-]+")


def _normalized(fingerprint: Optional[Dict[str, Any]]) -> Any:
    """Fingerprint as it compares after a JSON round trip."""
    return json.loads(json.dumps(fingerprint or {}, sort_keys=True))


class CheckpointStore:
    """Atomic per-stream result store under one directory.

    Args:
        directory: root checkpoint directory (shared across
            experiments; each gets a subdirectory).
        experiment_id: namespace for this sweep's points.
        fingerprint: JSON-serializable identity of the sweep — seed and
            row-shaping parameters.  Mismatch on resume is an error.
        resume: serve previously completed points from :meth:`get`;
            when false, stale points are invalidated at open.

    Attributes:
        resumed_keys: keys served from disk by :meth:`get`, in order.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        experiment_id: str,
        fingerprint: Optional[Dict[str, Any]] = None,
        resume: bool = False,
    ):
        self._directory = Path(str(directory)) / experiment_id
        self._experiment_id = experiment_id
        self._resume = bool(resume)
        self._fingerprint = _normalized(fingerprint)
        self.resumed_keys: list = []
        self._directory.mkdir(parents=True, exist_ok=True)
        meta_path = self._directory / _META_FILENAME
        if self._resume and meta_path.exists():
            meta = read_json(meta_path)
            version = meta.get("format_version")
            if version != CHECKPOINT_FORMAT_VERSION:
                raise ConfigurationError(
                    f"checkpoint directory {self._directory} holds format "
                    f"version {version!r}, but this code reads format "
                    f"{CHECKPOINT_FORMAT_VERSION}; drop --resume to start "
                    f"fresh"
                )
            stored = _normalized(meta.get("fingerprint"))
            if stored != self._fingerprint:
                raise ConfigurationError(
                    f"checkpoint directory {self._directory} was written by "
                    f"a different sweep (stored fingerprint {stored!r}, "
                    f"this run {self._fingerprint!r}); point it elsewhere "
                    f"or drop --resume to start fresh"
                )
            return
        # Fresh run (or resume over an empty directory): any points left
        # behind by a previous, differently-parameterized sweep are
        # stale — invalidate them before the first save.
        for stale in self._directory.glob(f"{_POINT_PREFIX}*.json"):
            stale.unlink()
        atomic_write_json(meta_path, {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "experiment_id": experiment_id,
            "fingerprint": self._fingerprint,
        })

    @property
    def directory(self) -> Path:
        """This sweep's checkpoint subdirectory."""
        return self._directory

    @property
    def experiment_id(self) -> str:
        """The sweep this store namespaces."""
        return self._experiment_id

    def _point_path(self, key: str) -> Path:
        slug = _KEY_SLUG.sub("_", key)
        return self._directory / f"{_POINT_PREFIX}{slug}.json"

    def _read_verified(self, key: str, path: Path) -> Optional[Dict[str, Any]]:
        """The point document at ``path``, verified to belong to ``key``.

        Slugging collapses distinct keys (``snr=-1`` and ``snr:1`` both
        slug to ``snr_1``) onto the same file, so every read checks the
        raw key stored inside the document and raises instead of
        silently serving (or letting a save overwrite) another point's
        row.
        """
        document = read_json(path)
        stored = document.get("key")
        if stored != key:
            raise ConfigurationError(
                f"checkpoint key collision: {path.name} holds point "
                f"{stored!r} but key {key!r} slugs to the same file; "
                f"rename one sweep key so they stay distinguishable"
            )
        return document

    def save(self, key: str, payload: Any) -> None:
        """Persist one completed sweep point atomically.

        Raises :class:`~repro.errors.ConfigurationError` when the slug
        of ``key`` collides with an already-saved *different* raw key —
        overwriting would silently lose that point.
        """
        path = self._point_path(key)
        if path.exists():
            self._read_verified(key, path)
        atomic_write_json(path, {"key": key, "payload": payload})
        get_event_stream().checkpoint_saved(self._experiment_id, key)

    def completed(self, key: str) -> bool:
        """Whether a completed point for ``key`` itself is on disk."""
        path = self._point_path(key)
        if not path.exists():
            return False
        return self._read_verified(key, path) is not None

    def get(self, key: str) -> Any:
        """The checkpointed payload for ``key``, or ``None``.

        Only serves from disk when the store was opened with
        ``resume=True``; each hit counts on ``engine.points_resumed``.
        """
        if not self._resume:
            return None
        path = self._point_path(key)
        if not path.exists():
            return None
        document = self._read_verified(key, path)
        self.resumed_keys.append(key)
        get_telemetry().count("engine.points_resumed")
        get_event_stream().checkpoint_hit(self._experiment_id, key)
        return document["payload"]


def open_checkpoint_store(
    checkpoint_dir: Union[str, Path, None],
    experiment_id: str,
    fingerprint: Optional[Dict[str, Any]] = None,
    resume: bool = False,
) -> Optional[CheckpointStore]:
    """Driver-side convenience: ``None`` when checkpointing is off."""
    if checkpoint_dir is None:
        if resume:
            raise ConfigurationError(
                "resume=True requires a checkpoint_dir to resume from"
            )
        return None
    return CheckpointStore(
        checkpoint_dir, experiment_id, fingerprint=fingerprint, resume=resume
    )
