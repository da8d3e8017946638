"""Cross-module rules R009-R011 over the whole-program ProjectIndex.

The per-file rules in :mod:`repro.analysis.rules` uphold invariants a
single module can prove about itself.  The conventions introduced by
the engine and the telemetry plane span files: a kernel's dtype
discipline matters only where an engine trial reaches it, an
``emit(...)`` site must agree with the schema declared in
``repro.telemetry.events``, and every counter incremented anywhere must
appear in the OBSERVABILITY.md catalogue.  Rules here declare
``scope = "project"`` and implement ``check_project(index)`` instead of
the per-module ``check(module)``; the runner executes them once over
the assembled :class:`~repro.analysis.project.ProjectIndex` and filters
each diagnostic against the suppression comments of the file it
*anchors* in — which, for a cross-module rule, may not be the file that
triggered it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Set

from repro.analysis.context import ModuleContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.project import ModuleSummary, ProjectIndex
from repro.analysis.registry import rule


class ProjectRule:
    """Base class for whole-program rules.

    ``check(module)`` exists so the registry contract (every rule is
    callable per module) holds, but yields nothing — the real work is
    ``check_project(index)``, run once after all files are summarized.
    """

    scope = "project"

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        return iter(())

    def check_project(self, index: ProjectIndex) -> Iterator[Diagnostic]:
        raise NotImplementedError


def _diag(
    summary: ModuleSummary, line: int, col: int, code: str, message: str
) -> Diagnostic:
    return Diagnostic(
        path=summary.path, line=line, column=col, code=code, message=message
    )


@rule
class DtypePromotionHygiene(ProjectRule):
    """R009: dtype discipline on paths reachable from engine trials.

    Implicit float64 defaults and silent complex promotion are the
    classic way a kernel's rows drift by one ULP with the batch shape.  The per-file summarizer records every suspicious site
    (dtype-less ``np.zeros``/``np.asarray`` feeding receive-chain
    kernels, complex stores into real buffers, complex64/complex128
    mixing); this rule promotes a site to a violation only when the
    call graph proves the enclosing function reachable from an engine
    trial root, where bit-identity is contractual.
    """

    code = "R009"
    name = "dtype-promotion-hygiene"
    rationale = (
        "implicit dtype promotion on trial-reachable paths silently "
        "breaks the rows' bit-identity across chunk sizes"
    )

    def check_project(self, index: ProjectIndex) -> Iterator[Diagnostic]:
        for summary in index.library_summaries:
            for candidate in summary.dtype_candidates:
                qualname = candidate["qualname"]
                if not index.is_trial_reachable(summary.module_name, qualname):
                    continue
                yield _diag(
                    summary, candidate["line"], candidate["col"], self.code,
                    f"[trial-reachable via {qualname}] {candidate['message']}",
                )


@rule
class EventSchemaDiscipline(ProjectRule):
    """R010: every emit site agrees with the central event schema.

    ``repro.telemetry.events`` declares ``EVENT_SCHEMAS`` — the one
    catalogue of event types and their field sets.  Raw
    ``stream.emit("type", ...)`` calls must name a declared type, pass
    every required field, and (for closed schemas) pass no undeclared
    ones; calls through the typed emitter methods are checked against
    the emitter's signature plus the schema behind its ``**fields``
    pass-through.  Consumers (``runs tail``, the regression differ)
    parse these events back — an off-schema field set is a silent
    contract break that only surfaces downstream.
    """

    code = "R010"
    name = "event-schema-discipline"
    rationale = (
        "event consumers parse the JSONL stream by schema; undeclared "
        "types or fields break them silently"
    )

    def _check_raw_emit(
        self,
        summary: ModuleSummary,
        emit: Dict[str, Any],
        schemas: Dict[str, Any],
    ) -> Iterator[Diagnostic]:
        event_type = emit["type"]
        if event_type is None:
            return
        line, col = emit["line"], emit["col"]
        spec = schemas.get(event_type)
        if spec is None:
            declared = ", ".join(sorted(schemas))
            yield _diag(
                summary, line, col, self.code,
                f"emit() of undeclared event type '{event_type}' "
                f"(declared: {declared})",
            )
            return
        required = set(spec.get("required", ()))
        optional = set(spec.get("optional", ()))
        keywords = set(emit["keywords"])
        if not spec.get("open", False):
            for unknown in sorted(keywords - required - optional):
                yield _diag(
                    summary, line, col, self.code,
                    f"emit('{event_type}') passes undeclared field "
                    f"'{unknown}' (schema allows: "
                    f"{', '.join(sorted(required | optional)) or 'none'})",
                )
        if not emit["has_star"]:
            for missing in sorted(required - keywords):
                yield _diag(
                    summary, line, col, self.code,
                    f"emit('{event_type}') is missing required field "
                    f"'{missing}'",
                )

    def _check_typed_emit(
        self,
        summary: ModuleSummary,
        emit: Dict[str, Any],
        emitter: Dict[str, Any],
        schemas: Dict[str, Any],
    ) -> Iterator[Diagnostic]:
        event_type = emitter["event"]
        spec = schemas.get(event_type, {})
        params = set(emitter["params"])
        fields = set(spec.get("required", ())) | set(spec.get("optional", ()))
        open_schema = bool(spec.get("open", False))
        for keyword in emit["keywords"]:
            if keyword in params:
                continue
            if emitter["has_kwargs"] and (open_schema or keyword in fields):
                continue
            allowed = sorted(params | (fields if emitter["has_kwargs"] else set()))
            yield _diag(
                summary, emit["line"], emit["col"], self.code,
                f"{emit['method']}() passes field '{keyword}' which is "
                f"neither an emitter parameter nor a declared "
                f"'{event_type}' schema field (allowed: "
                f"{', '.join(allowed) or 'none'})",
            )

    def check_project(self, index: ProjectIndex) -> Iterator[Diagnostic]:
        schema_summary = index.event_schema_summary()
        if schema_summary is None or schema_summary.event_schema is None:
            return
        schemas = schema_summary.event_schema
        emitters = schema_summary.event_emitters
        for summary in index.summaries:
            if summary.module_name == index.EVENTS_MODULE:
                continue
            for emit in summary.emits:
                if emit["method"] == "emit":
                    yield from self._check_raw_emit(summary, emit, schemas)
                elif emit["method"] in emitters:
                    yield from self._check_typed_emit(
                        summary, emit, emitters[emit["method"]], schemas
                    )


@rule
class CounterCatalogue(ProjectRule):
    """R011: code counters and the OBSERVABILITY.md catalogue agree.

    Every ``telemetry.count("name", ...)`` site must name a counter
    documented under the ``## Counter catalogue`` heading of
    ``docs/OBSERVABILITY.md``, and every catalogue entry must still be
    incremented somewhere — stale entries mislead operators reading
    dashboards.  The stale-entry direction only runs when the analyzed
    set includes ``repro.experiments.engine`` (a proxy for a full
    ``src`` lint), so single-file lints don't false-positive the whole
    catalogue.
    """

    code = "R011"
    name = "counter-catalogue"
    rationale = (
        "counters are the operator-facing contract; an undocumented or "
        "stale name makes telemetry unreadable"
    )

    #: Presence of this module marks a lint broad enough to see every
    #: counter increment, enabling the stale-entry direction.
    FULL_LINT_SENTINEL = "repro.experiments.engine"

    def check_project(self, index: ProjectIndex) -> Iterator[Diagnostic]:
        catalogue = index.counter_catalogue()
        if catalogue is None:
            return
        doc_path, documented = catalogue
        seen: Set[str] = set()
        for summary in index.library_summaries:
            for counter in summary.counters:
                name = counter["name"]
                seen.add(name)
                if name not in documented:
                    yield _diag(
                        summary, counter["line"], counter["col"], self.code,
                        f"counter '{name}' is not documented in the "
                        f"'## Counter catalogue' section of {doc_path}",
                    )
        if self.FULL_LINT_SENTINEL not in index.by_module:
            return
        for name, line in sorted(documented.items()):
            if name not in seen:
                yield Diagnostic(
                    path=doc_path, line=line, column=1, code=self.code,
                    message=(
                        f"catalogue entry '{name}' is not incremented "
                        f"anywhere under the analyzed modules; remove the "
                        f"stale entry or restore the counter"
                    ),
                )


def project_rules(rules: List[object]) -> List[ProjectRule]:
    """The project-scope subset of an ``all_rules()`` listing."""
    return [r for r in rules if getattr(r, "scope", "module") == "project"]


def module_rules(rules: List[object]) -> List[object]:
    """The per-module subset of an ``all_rules()`` listing."""
    return [r for r in rules if getattr(r, "scope", "module") != "project"]


def run_project_rules(
    rules: List[object], index: ProjectIndex
) -> List[Diagnostic]:
    """Execute every project-scope rule over the assembled index."""
    found: List[Diagnostic] = []
    for checker in project_rules(rules):
        found.extend(checker.check_project(index))
    return found


# Re-exported for rule authors writing fixtures.
__all__ = [
    "CounterCatalogue",
    "DtypePromotionHygiene",
    "EventSchemaDiscipline",
    "ProjectRule",
    "module_rules",
    "project_rules",
    "run_project_rules",
]
