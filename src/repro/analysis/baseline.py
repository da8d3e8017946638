"""The ``--baseline`` ratchet: adopt existing violations, fail on new.

New strict rules (R009-R011 especially) can surface dozens of
violations in a codebase that was clean under the old rule set.  The
ratchet lets such rules land blocking immediately: ``--write-baseline``
records the current violations into ``reprolint-baseline.json``, and
subsequent runs with ``--baseline`` subtract those known entries from
the report — only *new* violations fail the build.  Fixing a baselined
violation shrinks the file on the next ``--write-baseline``; the
catalogue only ever ratchets downward.

Entries match on ``(path, code, message)`` — deliberately **not** on
line numbers, so unrelated edits that shift a baselined violation up
or down the file do not resurrect it.  Identical violations carry an
occurrence count: if the baseline grants two and the code grows a
third, the third one fails.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic

#: Bumped on breaking changes to the baseline file layout.
BASELINE_VERSION = 1

#: Default ratchet file, relative to the current working directory.
DEFAULT_BASELINE_PATH = "reprolint-baseline.json"

_Key = Tuple[str, str, str]


def _key(diagnostic: Diagnostic) -> _Key:
    return (diagnostic.path, diagnostic.code, diagnostic.message)


def write_baseline(
    path: str, diagnostics: Sequence[Diagnostic]
) -> int:
    """Adopt ``diagnostics`` as the new baseline; returns the entry count."""
    counts: Dict[_Key, int] = {}
    for diagnostic in diagnostics:
        counts[_key(diagnostic)] = counts.get(_key(diagnostic), 0) + 1
    entries = [
        {
            "path": key[0],
            "code": key[1],
            "message": key[2],
            "count": count,
        }
        for key, count in sorted(counts.items())
    ]
    payload = {"version": BASELINE_VERSION, "entries": entries}
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return len(entries)


def load_baseline(path: str) -> Dict[_Key, int]:
    """Known-violation budget from a baseline file.

    Raises ``ValueError`` with a readable message on a malformed file
    (the CLI maps that to a usage error) — a silently ignored baseline
    would un-ratchet the build.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as error:
        raise ValueError(f"cannot read baseline {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise ValueError(f"malformed baseline {path}: {error}") from error
    if not isinstance(payload, dict) or payload.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"baseline {path} has unsupported version "
            f"{payload.get('version') if isinstance(payload, dict) else '?'}"
        )
    counts: Dict[_Key, int] = {}
    for entry in payload.get("entries", []):
        if not isinstance(entry, dict):
            raise ValueError(f"baseline {path} has a non-object entry")
        try:
            key = (
                str(entry["path"]), str(entry["code"]), str(entry["message"])
            )
            count = int(entry.get("count", 1))
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(
                f"baseline {path} has a malformed entry: {error}"
            ) from error
        counts[key] = counts.get(key, 0) + max(count, 1)
    return counts


def apply_baseline(
    diagnostics: Sequence[Diagnostic], budget: Dict[_Key, int]
) -> Tuple[List[Diagnostic], int]:
    """Split ``diagnostics`` into (new, baselined-count).

    Consumes the budget per occurrence in sorted order, so a file with
    two baselined copies of a violation and three in the code reports
    exactly one new one.
    """
    remaining = dict(budget)
    fresh: List[Diagnostic] = []
    baselined = 0
    for diagnostic in sorted(diagnostics):
        key = _key(diagnostic)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            baselined += 1
        else:
            fresh.append(diagnostic)
    return fresh, baselined
