"""File discovery, rule execution, caching, and suppression filtering.

Lint runs in two phases.  The **per-file phase** parses each module
once, runs every module-scope rule, and extracts a
:class:`~repro.analysis.project.ModuleSummary`; its results are
content-hash cached under ``--cache-dir`` and can fan out across a
process pool (``--jobs``).  The **project phase** assembles the
summaries into a :class:`~repro.analysis.project.ProjectIndex` and runs
the cross-module rules (R009-R011) over it; each resulting diagnostic
is filtered against the suppression comments of the file it *anchors*
in — which for a cross-module rule may not be the file that triggered
the analysis.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis import rules as _rules  # noqa: F401 - registers the rule set
from repro.analysis.cache import AnalysisCache
from repro.analysis.context import ModuleContext
from repro.analysis.diagnostics import Diagnostic, SuppressionIndex
from repro.analysis.project import (
    ModuleSummary,
    ProjectIndex,
    find_project_root,
    summarize_module,
    suppression_index,
)
from repro.analysis.project_rules import (  # noqa: F401 - registers R009-R011
    module_rules,
    project_rules,
    run_project_rules,
)
from repro.analysis.registry import all_rules

#: Directories never descended into.
SKIPPED_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build"}

#: Pool construction/operation failures that degrade to sequential
#: analysis instead of failing the lint (mirrors the engine's boundary).
POOL_FALLBACK_EXCEPTIONS = (
    OSError,
    RuntimeError,
    ImportError,
    NotImplementedError,
)

#: Below this file count a process pool costs more than it saves.
MIN_FILES_FOR_POOL = 40


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Every ``.py`` file under ``paths`` (files pass through verbatim)."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for directory, subdirs, files in os.walk(path):
            subdirs[:] = sorted(
                d for d in subdirs
                if d not in SKIPPED_DIRS and not d.startswith(".")
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(directory, name)


@dataclass
class LintResult:
    """Everything a reporter needs about one lint run."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    files_checked: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    baselined: int = 0


def _analyze_source(
    source: str,
    filename: str,
    checkers: Sequence[Any],
) -> Tuple[List[Diagnostic], Optional[ModuleSummary]]:
    """Module-scope diagnostics (post-suppression) plus the summary."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as error:
        diagnostic = Diagnostic(
            path=filename.replace("\\", "/"),
            line=error.lineno or 1,
            column=(error.offset or 0) or 1,
            code="E001",
            message=f"syntax error: {error.msg}",
        )
        return [diagnostic], None
    module = ModuleContext(filename, source, tree)
    suppressions = SuppressionIndex.from_source(source)
    found: List[Diagnostic] = []
    seen = set()
    for checker in checkers:
        for diagnostic in checker.check(module):
            key = (diagnostic.code, diagnostic.line, diagnostic.column)
            if key in seen or suppressions.is_suppressed(diagnostic):
                continue
            seen.add(key)
            found.append(diagnostic)
    return sorted(found), summarize_module(module)


def check_source(
    source: str,
    filename: str = "<string>",
    rules: Optional[Iterable[Any]] = None,
) -> List[Diagnostic]:
    """Lint one source string with the module-scope rules.

    ``filename`` drives role classification (library vs test vs exempt
    module) exactly as an on-disk path would, so tests can exercise
    library-only rules on fixture snippets.  Project-scope rules need a
    whole file set and are run by :func:`run_lint` only.
    """
    checkers = list(rules) if rules is not None else all_rules()
    diagnostics, _ = _analyze_source(source, filename, module_rules(checkers))
    return diagnostics


def _pool_worker(
    payload: Tuple[str, str, Optional[List[str]], Optional[List[str]]],
) -> Dict[str, Any]:
    """Analyze one file in a worker process; returns plain JSON-ables."""
    filename, source, select, ignore = payload
    checkers = module_rules(all_rules(select=select, ignore=ignore))
    diagnostics, summary = _analyze_source(source, filename, checkers)
    return {
        "filename": filename,
        "diagnostics": [d.to_dict() for d in diagnostics],
        "summary": summary.to_dict() if summary is not None else None,
    }


def _auto_jobs(file_count: int) -> int:
    """Pool width when ``--jobs`` is not given: sequential unless the
    file set and the host are both big enough to amortize pool spawn."""
    cpus = os.cpu_count() or 1
    if file_count < MIN_FILES_FOR_POOL or cpus <= 2:
        return 1
    return min(4, cpus)


def _read_file(filename: str) -> Tuple[Optional[str], Optional[Diagnostic]]:
    try:
        with open(filename, "r", encoding="utf-8") as handle:
            return handle.read(), None
    except (OSError, UnicodeDecodeError) as error:
        return None, Diagnostic(
            path=filename.replace("\\", "/"),
            line=1,
            column=1,
            code="E002",
            message=f"cannot read file: {error}",
        )


def _analyze_files_parallel(
    pending: List[Tuple[str, str]],
    select: Optional[List[str]],
    ignore: Optional[List[str]],
    jobs: int,
) -> Optional[List[Dict[str, Any]]]:
    """Fan the per-file phase over a process pool; None on pool failure."""
    import concurrent.futures

    payloads = [
        (filename, source, select, ignore) for filename, source in pending
    ]
    try:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_pool_worker, payloads, chunksize=8))
    except POOL_FALLBACK_EXCEPTIONS:
        return None


def run_lint_detailed(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    cache_dir: Optional[str] = None,
    jobs: Optional[int] = None,
    baseline: Optional[Dict[Tuple[str, str, str], int]] = None,
) -> LintResult:
    """Lint every Python file under ``paths``, with all the knobs.

    Args:
        paths: files or directories to analyze.
        select / ignore: rule-code filters (unknown codes raise
            ``KeyError`` from the registry).
        cache_dir: when given, per-file results are reused from and
            persisted to this directory, keyed by content hash.
        jobs: process-pool width for the per-file phase; ``None`` picks
            automatically, ``1`` forces sequential.
        baseline: known-violation budget from
            :func:`repro.analysis.baseline.load_baseline`; matching
            diagnostics are counted, not reported.
    """
    select_list = list(select) if select is not None else None
    ignore_list = list(ignore) if ignore is not None else None
    active = all_rules(select=select_list, ignore=ignore_list)
    mod_checkers = module_rules(active)
    result = LintResult()

    cache = (
        AnalysisCache(cache_dir, [c.code for c in mod_checkers])
        if cache_dir
        else None
    )

    summaries: List[ModuleSummary] = []
    pending: List[Tuple[str, str]] = []
    for filename in iter_python_files(paths):
        result.files_checked += 1
        source, read_error = _read_file(filename)
        if read_error is not None or source is None:
            if read_error is not None:
                result.diagnostics.append(read_error)
            continue
        if cache is not None:
            cached = cache.load(filename, source)
            if cached is not None:
                diagnostics, summary = cached
                result.diagnostics.extend(diagnostics)
                summaries.append(summary)
                continue
        pending.append((filename, source))

    effective_jobs = jobs if jobs is not None else _auto_jobs(len(pending))
    worker_results: Optional[List[Dict[str, Any]]] = None
    if effective_jobs > 1 and len(pending) > 1:
        worker_results = _analyze_files_parallel(
            pending, select_list, ignore_list, effective_jobs
        )

    if worker_results is not None:
        analyzed: List[Tuple[str, str, List[Diagnostic], Optional[ModuleSummary]]] = []
        by_name = {filename: source for filename, source in pending}
        for item in worker_results:
            diagnostics = [
                Diagnostic.from_dict(d) for d in item["diagnostics"]
            ]
            summary = (
                ModuleSummary.from_dict(item["summary"])
                if item["summary"] is not None
                else None
            )
            analyzed.append(
                (item["filename"], by_name[item["filename"]], diagnostics, summary)
            )
    else:
        analyzed = []
        for filename, source in pending:
            diagnostics, summary = _analyze_source(
                source, filename, mod_checkers
            )
            analyzed.append((filename, source, diagnostics, summary))

    for filename, source, diagnostics, summary in analyzed:
        result.diagnostics.extend(diagnostics)
        if summary is not None:
            summaries.append(summary)
            if cache is not None:
                cache.store(filename, source, diagnostics, summary)

    if cache is not None:
        result.cache_hits = cache.hits
        result.cache_misses = cache.misses

    proj_checkers = project_rules(active)
    if proj_checkers and summaries:
        index = ProjectIndex(summaries, root=find_project_root(list(paths)))
        anchors = {summary.path: suppression_index(summary) for summary in summaries}
        seen_project = set()
        for diagnostic in run_project_rules(proj_checkers, index):
            anchor = anchors.get(diagnostic.path)
            if anchor is not None and anchor.is_suppressed(diagnostic):
                continue
            key = (
                diagnostic.path, diagnostic.line, diagnostic.column,
                diagnostic.code, diagnostic.message,
            )
            if key in seen_project:
                continue
            seen_project.add(key)
            result.diagnostics.append(diagnostic)

    result.diagnostics.sort()
    if baseline:
        from repro.analysis.baseline import apply_baseline

        result.diagnostics, result.baselined = apply_baseline(
            result.diagnostics, baseline
        )
    return result


def run_lint(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> Tuple[List[Diagnostic], int]:
    """Lint every Python file under ``paths`` (compatibility surface).

    Returns ``(diagnostics, files_checked)``; unreadable files surface
    as ``E002`` diagnostics rather than crashing the run.  The full
    knob set (cache, pool, baseline) lives on
    :func:`run_lint_detailed`.
    """
    result = run_lint_detailed(paths, select=select, ignore=ignore)
    return result.diagnostics, result.files_checked
