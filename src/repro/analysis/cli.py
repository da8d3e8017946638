"""``repro-lint`` console entry point (also ``python -m repro.analysis``).

Exit codes: 0 clean, 1 violations found, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.baseline import (
    DEFAULT_BASELINE_PATH,
    load_baseline,
    write_baseline,
)
from repro.analysis.cache import DEFAULT_CACHE_DIR
from repro.analysis.registry import all_rules, known_codes
from repro.analysis.reporters import render_json, render_text
from repro.analysis.runner import run_lint_detailed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker for the Hide-and-Seek "
            "reproduction: determinism, picklability, telemetry "
            "discipline, and whole-program dtype/schema/counter checks "
            "(rules R001-R012, see docs/STATIC_ANALYSIS.md)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", metavar="CODES", default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="CODES", default=None,
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="process-pool width for the per-file phase "
             "(default: auto; 1 forces sequential)",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"incremental analysis cache location "
             f"(default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the incremental analysis cache",
    )
    parser.add_argument(
        "--baseline", nargs="?", const=DEFAULT_BASELINE_PATH, default=None,
        metavar="FILE",
        help=f"ratchet mode: subtract violations recorded in FILE "
             f"(default when given bare: {DEFAULT_BASELINE_PATH}) and "
             f"fail only on new ones",
    )
    parser.add_argument(
        "--write-baseline", nargs="?", const=DEFAULT_BASELINE_PATH,
        default=None, metavar="FILE",
        help="adopt the current violations into FILE and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _split_codes(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [part.strip().upper() for part in value.split(",") if part.strip()]


def _validate_codes(args: argparse.Namespace) -> Optional[str]:
    """The usage-error message for unknown --select/--ignore codes."""
    requested = set(_split_codes(args.select) or ()) | set(
        _split_codes(args.ignore) or ()
    )
    unknown = sorted(requested - known_codes())
    if unknown:
        return (
            f"unknown rule code(s): {', '.join(unknown)} "
            f"(see --list-rules)"
        )
    return None


def execute(args: argparse.Namespace) -> int:
    """Run a lint invocation from parsed arguments.

    Shared by the ``repro-lint`` script and the ``repro-experiments
    lint`` subcommand (which builds a compatible namespace).
    """
    if args.list_rules:
        for checker in all_rules():
            print(f"{checker.code} {checker.name}")
            print(f"     {checker.rationale}")
        return 0
    usage_error = _validate_codes(args)
    if usage_error is not None:
        print(f"repro-lint: {usage_error}", file=sys.stderr)
        return 2
    baseline_path = getattr(args, "baseline", None)
    budget = None
    if baseline_path is not None and getattr(args, "write_baseline", None) is None:
        try:
            budget = load_baseline(baseline_path)
        except ValueError as error:
            print(f"repro-lint: {error}", file=sys.stderr)
            return 2
    cache_dir = None if getattr(args, "no_cache", False) else getattr(
        args, "cache_dir", None
    )
    result = run_lint_detailed(
        args.paths,
        select=_split_codes(args.select),
        ignore=_split_codes(args.ignore),
        cache_dir=cache_dir,
        jobs=getattr(args, "jobs", None),
        baseline=budget,
    )
    if result.files_checked == 0:
        print("repro-lint: no Python files found under "
              + " ".join(args.paths), file=sys.stderr)
        return 2
    write_path = getattr(args, "write_baseline", None)
    if write_path is not None:
        entries = write_baseline(write_path, result.diagnostics)
        print(
            f"repro-lint: adopted {len(result.diagnostics)} violation(s) "
            f"as {entries} baseline entrie(s) in {write_path}"
        )
        return 0
    renderer = render_json if args.format == "json" else render_text
    print(renderer(result.diagnostics, result.files_checked, result=result))
    return 1 if result.diagnostics else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI main; returns a process exit code."""
    return execute(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
