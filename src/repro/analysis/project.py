"""Whole-program facts: module summaries, symbol table, call graph, taint.

The per-module rules in :mod:`repro.analysis.rules` see one file at a
time, but the invariants introduced by the engine and the telemetry
plane are inherently *cross-module*: a kernel in ``repro.zigbee`` is
trial-reachable only through a trial registered in a sweep driver; an
``emit(...)`` site in a sweep driver must agree with the
schema declared in ``repro.telemetry.events``; a counter incremented in
``repro.experiments.engine`` must appear in the OBSERVABILITY.md
catalogue.  This module extracts from each file a compact, **JSON-
serializable** :class:`ModuleSummary` — what the file defines, calls,
references, counts, and emits — and assembles the summaries into a
:class:`ProjectIndex`: a symbol table with import-alias resolution and
a call graph with "reachable from an engine trial function" taint.

Summaries are deliberately plain data (lists, dicts, strings) so the
on-disk cache (:mod:`repro.analysis.cache`) can persist them and a
re-run only re-parses files whose content hash changed.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.context import ModuleContext
from repro.analysis.diagnostics import SuppressionIndex

#: Bumped whenever summary extraction changes shape or meaning; part of
#: the cache key, so an analyzer upgrade invalidates stale summaries.
SUMMARY_VERSION = 2

#: numpy array constructors whose default dtype is float64.
FLOAT_DEFAULT_ALLOCATORS = ("zeros", "empty", "ones", "full")

#: numpy converters that inherit their input's dtype when none is given.
DTYPE_INHERITING_CONVERTERS = ("asarray", "array", "ascontiguousarray")

#: Package prefixes whose functions count as receive-chain kernels for
#: the dtype-hygiene taint checks (R009).
KERNEL_PACKAGE_PREFIXES = (
    "repro.zigbee.",
    "repro.wifi.",
    "repro.defense.",
    "repro.utils.signal_ops.",
)


def module_name_for_path(path: str) -> str:
    """Dotted module name for a source path (best effort).

    ``src/repro/zigbee/receiver.py`` -> ``repro.zigbee.receiver``;
    ``tests/test_foo.py`` -> ``tests.test_foo``; paths without a
    recognizable package root fall back to their stem.
    """
    posix = path.replace("\\", "/")
    parts = [part for part in posix.split("/") if part not in ("", ".")]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in ("src", "repro", "tests"):
        if anchor in parts:
            index = parts.index(anchor)
            if anchor == "src":
                index += 1
            return ".".join(parts[index:]) or (parts[-1] if parts else "")
    return parts[-1] if parts else ""


class ModuleSummary:
    """Everything the whole-program phase needs to know about one file.

    Every attribute is JSON-native so the summary round-trips through
    :meth:`to_dict` / :meth:`from_dict` unchanged (the cache contract).

    Attributes:
        path: display path (posix) used in diagnostics.
        module_name: dotted module name (see :func:`module_name_for_path`).
        is_test / is_library: role flags from :class:`ModuleContext`.
        functions: ``qualname -> {"line", "col", "name"}`` for every
            function and method defined in the module.
        calls: ``caller qualname -> [callee names]`` — resolved through
            the import alias map where possible, otherwise the bare
            attribute/function basename (``""`` keys are module level).
        trial_roots: names registered as engine trial callables via
            ``session.run(trial, ...)`` or ``StreamSpec(trial=...)``,
            resolved through imports.
        defined_names: ``owner ("" or class name) -> [function names]``.
        references: every Name/Attribute basename the module mentions.
        counters: telemetry counter increments — ``{"name", "line",
            "col"}`` for each literal ``telemetry.count("...")`` site.
        emits: event emission sites on stream-ish receivers —
            ``{"method", "type", "line", "col", "positional",
            "keywords", "has_star"}``.
        dtype_candidates: per-function dtype-hygiene findings awaiting
            the cross-module taint decision — ``{"qualname", "line",
            "col", "message"}``.
        event_schema: the literal ``EVENT_SCHEMAS`` dict, when this
            module declares one.
        event_emitters: typed emitter methods wrapping ``emit`` —
            ``method -> {"event", "params", "has_kwargs"}``.
        suppressions: ``{"lines": {line: [codes]}, "file": [codes]}``
            from ``# reprolint: disable=`` comments, kept here so
            cross-module diagnostics anchored in this file can be
            silenced without re-reading it.
    """

    def __init__(self, path: str) -> None:
        self.path = path.replace("\\", "/")
        self.module_name = module_name_for_path(self.path)
        self.is_test = False
        self.is_library = False
        self.functions: Dict[str, Dict[str, Any]] = {}
        self.calls: Dict[str, List[str]] = {}
        self.trial_roots: List[str] = []
        self.defined_names: Dict[str, List[str]] = {}
        self.references: List[str] = []
        self.counters: List[Dict[str, Any]] = []
        self.emits: List[Dict[str, Any]] = []
        self.dtype_candidates: List[Dict[str, Any]] = []
        self.event_schema: Optional[Dict[str, Any]] = None
        self.event_emitters: Dict[str, Dict[str, Any]] = {}
        self.suppressions: Dict[str, Any] = {"lines": {}, "file": []}

    # -- serialization -------------------------------------------------

    _FIELDS = (
        "path", "module_name", "is_test", "is_library", "functions",
        "calls", "trial_roots",
        "defined_names", "references", "counters", "emits",
        "dtype_candidates", "event_schema", "event_emitters",
        "suppressions",
    )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native view of the summary (the cache payload)."""
        return {field: getattr(self, field) for field in self._FIELDS}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ModuleSummary":
        """Rebuild a summary from :meth:`to_dict` output."""
        summary = cls(str(payload.get("path", "<cached>")))
        for field in cls._FIELDS:
            if field in payload:
                setattr(summary, field, payload[field])
        return summary


def _is_engine_session_receiver(receiver: ast.AST) -> bool:
    """Heuristic twin of R003's: does ``receiver.run(...)`` hit the engine?"""
    if isinstance(receiver, ast.Name):
        lowered = receiver.id.lower()
        return "session" in lowered or "engine" in lowered
    if isinstance(receiver, ast.Call):
        func = receiver.func
        return isinstance(func, ast.Attribute) and func.attr == "session"
    if isinstance(receiver, ast.Attribute):
        return "session" in receiver.attr.lower()
    return False


def _is_stream_receiver(module: ModuleContext, receiver: ast.AST) -> bool:
    """Does this receiver look like the telemetry event stream?"""
    if isinstance(receiver, ast.Name):
        return "stream" in receiver.id.lower()
    if isinstance(receiver, ast.Call):
        return module.basename(receiver.func) == "get_event_stream"
    if isinstance(receiver, ast.Attribute):
        return "stream" in receiver.attr.lower()
    return False


def _is_telemetry_receiver(module: ModuleContext, receiver: ast.AST) -> bool:
    """Does this receiver look like the telemetry metrics object?"""
    if isinstance(receiver, ast.Name):
        return "telemetry" in receiver.id.lower()
    if isinstance(receiver, ast.Call):
        return module.basename(receiver.func) == "get_telemetry"
    return False


def _call_keyword_names(node: ast.Call) -> Tuple[List[str], bool]:
    """Named keywords of a call plus whether it passes ``**something``."""
    names: List[str] = []
    has_star = any(isinstance(arg, ast.Starred) for arg in node.args)
    for keyword in node.keywords:
        if keyword.arg is None:
            has_star = True
        else:
            names.append(keyword.arg)
    return names, has_star


class _DtypeChecker:
    """Per-function dtype/promotion hygiene pass (the R009 front half).

    Runs at summarize time (it needs the AST); its findings become
    *candidates* that the project phase only promotes to diagnostics
    when the enclosing function is reachable from an engine trial.
    """

    COMPLEX_DTYPES = {"complex", "complex128", "cdouble", "complex_"}
    COMPLEX64_DTYPES = {"complex64", "csingle", "singlecomplex"}
    FLOAT_DTYPES = {"float", "float64", "float32", "double"}

    def __init__(self, module: ModuleContext, qualname: str,
                 out: List[Dict[str, Any]]) -> None:
        self.module = module
        self.qualname = qualname
        self.out = out
        self.dtypes: Dict[str, str] = {}

    # -- dtype inference ----------------------------------------------

    def _dtype_tag(self, node: Optional[ast.AST]) -> Optional[str]:
        """Classify a ``dtype=`` argument expression."""
        if node is None:
            return None
        name = None
        if isinstance(node, (ast.Name, ast.Attribute)):
            resolved = self.module.basename(node)
            name = resolved.lower() if resolved else None
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value.lower()
        if name is None:
            return "unknown"
        if name in self.COMPLEX64_DTYPES:
            return "complex64"
        if name in self.COMPLEX_DTYPES:
            return "complex128"
        if name in self.FLOAT_DTYPES:
            return "float"
        return "unknown"

    def _infer(self, node: ast.AST) -> Optional[str]:
        """Best-effort dtype of an expression within this function."""
        if isinstance(node, ast.Name):
            return self.dtypes.get(node.id)
        if isinstance(node, ast.Attribute) and node.attr in ("real", "imag"):
            return "float"
        if isinstance(node, ast.Constant) and isinstance(node.value, complex):
            return "complex128"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "astype":
                for arg in node.args[:1]:
                    return self._dtype_tag(arg)
                for keyword in node.keywords:
                    if keyword.arg == "dtype":
                        return self._dtype_tag(keyword.value)
            basename = self.module.basename(func)
            if basename in FLOAT_DEFAULT_ALLOCATORS + DTYPE_INHERITING_CONVERTERS:
                for keyword in node.keywords:
                    if keyword.arg == "dtype":
                        return self._dtype_tag(keyword.value)
                if basename in FLOAT_DEFAULT_ALLOCATORS:
                    return "float_default"
                return None
        if isinstance(node, ast.BinOp):
            left = self._infer(node.left)
            right = self._infer(node.right)
            for tag in ("complex128", "complex64"):
                if left == tag or right == tag:
                    return tag
            return left or right
        return None

    def _is_complexish(self, node: ast.AST) -> bool:
        """Does the expression clearly produce complex values?"""
        inferred = self._infer(node)
        if inferred in ("complex128", "complex64"):
            return True
        if inferred is not None and inferred != "unknown":
            # A trusted real-valued inference (e.g. ``z.real``) wins
            # over the conservative name walk below.
            return False
        for inner in ast.walk(node):
            if isinstance(inner, ast.Constant) and isinstance(inner.value, complex):
                return True
            if isinstance(inner, ast.Name) and (
                self.dtypes.get(inner.id) in ("complex128", "complex64")
            ):
                return True
        return False

    # -- the checks ----------------------------------------------------

    def _emit(self, node: ast.AST, message: str) -> None:
        self.out.append({
            "qualname": self.qualname,
            "line": getattr(node, "lineno", 1),
            "col": getattr(node, "col_offset", 0) + 1,
            "message": message,
        })

    def _numpy_call_basename(self, node: ast.Call) -> Optional[str]:
        func = node.func
        resolved = self.module.resolve(func)
        if resolved is not None and resolved.startswith("numpy."):
            return resolved.rsplit(".", 1)[-1]
        return None

    def _has_dtype_keyword(self, node: ast.Call) -> bool:
        return any(keyword.arg == "dtype" for keyword in node.keywords)

    def _check_allocation(self, node: ast.Call) -> None:
        basename = self._numpy_call_basename(node)
        if basename in FLOAT_DEFAULT_ALLOCATORS and not self._has_dtype_keyword(node):
            self._emit(
                node,
                f"dtype-less np.{basename}() defaults to float64; pass an "
                f"explicit dtype so complex/real intent survives the "
                f"batched kernels",
            )

    def _check_converter_feeding_kernel(self, call: ast.Call) -> None:
        """Flag dtype-less asarray/array passed straight into a kernel."""
        callee = self.module.resolve(call.func)
        if callee is None or not callee.startswith(KERNEL_PACKAGE_PREFIXES):
            return
        for arg in call.args:
            if not isinstance(arg, ast.Call):
                continue
            basename = self._numpy_call_basename(arg)
            if (
                basename in DTYPE_INHERITING_CONVERTERS
                and not self._has_dtype_keyword(arg)
            ):
                self._emit(
                    arg,
                    f"dtype-less np.{basename}() flows into receive-chain "
                    f"kernel '{callee.rsplit('.', 1)[-1]}'; pass dtype= "
                    f"explicitly",
                )

    def _check_store(self, node: ast.AST) -> None:
        """Complex value stored into a float-dtyped (or default) buffer."""
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AugAssign):
            targets, value = [node.target], node.value
        else:
            return
        for target in targets:
            if not isinstance(target, ast.Subscript):
                continue
            if not isinstance(target.value, ast.Name):
                continue
            tag = self.dtypes.get(target.value.id)
            if tag in ("float", "float_default") and self._is_complexish(value):
                self._emit(
                    node,
                    f"complex value stored into real-dtyped buffer "
                    f"'{target.value.id}'; the imaginary part is silently "
                    f"discarded — allocate the buffer as complex",
                )

    def _check_mixing(self, node: ast.BinOp) -> None:
        tags = {self._infer(node.left), self._infer(node.right)}
        if "complex64" in tags and "complex128" in tags:
            self._emit(
                node,
                "complex64/complex128 mixing promotes silently to "
                "complex128; unify the dtypes on this trial-reachable path",
            )

    def run(self, function: ast.AST) -> None:
        """Walk one function body in statement order."""
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and (
                isinstance(node.targets[0], ast.Name)
            ):
                inferred = self._infer(node.value)
                if inferred is not None:
                    self.dtypes[node.targets[0].id] = inferred
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                self._check_allocation(node)
                self._check_converter_feeding_kernel(node)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                self._check_store(node)
            elif isinstance(node, ast.BinOp):
                self._check_mixing(node)


class _SummaryVisitor(ast.NodeVisitor):
    """One pass over a module collecting every summary fact."""

    def __init__(self, module: ModuleContext, summary: ModuleSummary) -> None:
        self.module = module
        self.summary = summary
        self._scope: List[str] = []
        self._class: List[str] = []

    # -- scope helpers -------------------------------------------------

    @property
    def _qualname(self) -> str:
        return ".".join(self._scope)

    def _owner(self) -> str:
        return self._class[-1] if self._class else ""

    # -- definitions ---------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class.append(node.name)
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()
        self._class.pop()

    def _visit_function(self, node: ast.AST) -> None:
        self._scope.append(node.name)
        qualname = self._qualname
        owner = self._owner()
        self.summary.functions[qualname] = {
            "line": node.lineno,
            "col": node.col_offset + 1,
            "name": node.name,
        }
        self.summary.defined_names.setdefault(owner, []).append(node.name)
        if self.summary.is_library:
            checker = _DtypeChecker(
                self.module, qualname, self.summary.dtype_candidates
            )
            checker.run(node)
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- module-level assignments --------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._scope:
            # EVENT_SCHEMAS = {...literal...} is the central schema.
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "EVENT_SCHEMAS"
                ):
                    try:
                        schema = ast.literal_eval(node.value)
                    except (ValueError, SyntaxError):
                        schema = None
                    if isinstance(schema, dict):
                        self.summary.event_schema = {
                            str(key): {
                                "required": sorted(
                                    str(f) for f in spec.get("required", ())
                                ),
                                "optional": sorted(
                                    str(f) for f in spec.get("optional", ())
                                ),
                                "open": bool(spec.get("open", False)),
                            }
                            for key, spec in schema.items()
                            if isinstance(spec, dict)
                        }
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------

    def _record_call(self, node: ast.Call) -> None:
        callee = self.module.resolve(node.func)
        if callee is None and isinstance(node.func, ast.Attribute):
            callee = node.func.attr
        if callee:
            self.summary.calls.setdefault(self._qualname, []).append(callee)

    def _record_trial_registration(self, node: ast.Call) -> None:
        """Roots: ``session.run(trial, ...)`` and ``StreamSpec(trial=...)``."""
        trial: Optional[ast.expr] = None
        if self.module.basename(node.func) == "StreamSpec":
            # The sweep runner hands a stream's trial to the engine.
            for keyword in node.keywords:
                if keyword.arg == "trial":
                    trial = keyword.value
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "run"
            and _is_engine_session_receiver(node.func.value)
        ):
            trial = node.args[0] if node.args else None
            if trial is None:
                for keyword in node.keywords:
                    if keyword.arg == "trial":
                        trial = keyword.value
        if isinstance(trial, ast.Name):
            resolved = self.module.imports.get(trial.id, trial.id)
            self.summary.trial_roots.append(resolved)
        elif isinstance(trial, ast.Attribute):
            resolved = self.module.resolve(trial)
            self.summary.trial_roots.append(resolved or trial.attr)

    def _record_counter(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr != "count":
            return
        if not _is_telemetry_receiver(self.module, func.value):
            return
        if node.args and isinstance(node.args[0], ast.Constant) and (
            isinstance(node.args[0].value, str)
        ):
            self.summary.counters.append({
                "name": node.args[0].value,
                "line": node.lineno,
                "col": node.col_offset + 1,
            })

    def _record_emit(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if not _is_stream_receiver(self.module, func.value):
            return
        keywords, has_star = _call_keyword_names(node)
        event_type: Optional[str] = None
        positional = len(node.args)
        if func.attr == "emit":
            if node.args and isinstance(node.args[0], ast.Constant) and (
                isinstance(node.args[0].value, str)
            ):
                event_type = node.args[0].value
            positional = max(positional - 1, 0)
        self.summary.emits.append({
            "method": func.attr,
            "type": event_type,
            "line": node.lineno,
            "col": node.col_offset + 1,
            "positional": positional,
            "keywords": keywords,
            "has_star": has_star,
        })

    def visit_Call(self, node: ast.Call) -> None:
        self._record_call(node)
        self._record_trial_registration(node)
        self._record_counter(node)
        self._record_emit(node)
        self.generic_visit(node)

    # -- references ----------------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        self.summary.references.append(node.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.summary.references.append(node.attr)
        self.generic_visit(node)


def _extract_event_emitters(
    module: ModuleContext, summary: ModuleSummary
) -> None:
    """Map typed emitter methods (``self.emit("x", ...)`` wrappers)."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            emit_call = None
            for inner in ast.walk(item):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == "emit"
                    and isinstance(inner.func.value, ast.Name)
                    and inner.func.value.id == "self"
                    and inner.args
                    and isinstance(inner.args[0], ast.Constant)
                    and isinstance(inner.args[0].value, str)
                ):
                    emit_call = inner
                    break
            if emit_call is None:
                continue
            args = item.args
            params = [
                arg.arg
                for arg in list(getattr(args, "posonlyargs", [])) + list(args.args)
                if arg.arg != "self"
            ] + [arg.arg for arg in args.kwonlyargs]
            summary.event_emitters[item.name] = {
                "event": emit_call.args[0].value,
                "params": params,
                "has_kwargs": args.kwarg is not None,
            }


def summarize_module(module: ModuleContext) -> ModuleSummary:
    """Extract the whole-program facts from one parsed module."""
    summary = ModuleSummary(module.path)
    summary.is_test = module.is_test
    summary.is_library = module.is_library
    _SummaryVisitor(module, summary).visit(module.tree)
    _extract_event_emitters(module, summary)
    summary.references = sorted(set(summary.references))
    summary.suppressions = SuppressionIndex.from_source(module.source).to_dict()
    return summary


def suppression_index(summary: ModuleSummary) -> SuppressionIndex:
    """The file's suppression comments, rebuilt from its summary."""
    return SuppressionIndex.from_dict(summary.suppressions)


# -- the whole-program index --------------------------------------------


def find_project_root(paths: Sequence[str]) -> Optional[str]:
    """Nearest ancestor of ``paths`` holding ``pyproject.toml`` or ``.git``."""
    real = [os.path.abspath(p) for p in paths if p]
    if not real:
        return None
    try:
        current = os.path.commonpath(real)
    except ValueError:
        return None
    if os.path.isfile(current):
        current = os.path.dirname(current)
    for _ in range(8):
        if any(
            os.path.exists(os.path.join(current, marker))
            for marker in ("pyproject.toml", ".git")
        ):
            return current
        parent = os.path.dirname(current)
        if parent == current:
            return None
        current = parent
    return None


#: Matches the first backtick-quoted token on a catalogue bullet line.
_CATALOGUE_ENTRY = re.compile(r"^[*-]\s+`([A-Za-z0-9_.]+)`")


def parse_counter_catalogue(text: str) -> Dict[str, int]:
    """Counter names declared in a ``## Counter catalogue`` doc section.

    Returns ``name -> line number``.  Only bullet lines between the
    ``## Counter catalogue`` heading and the next ``## `` heading count,
    and only each bullet's *first* backticked token — descriptions may
    mention other names freely.
    """
    entries: Dict[str, int] = {}
    in_section = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.lower().startswith("## counter catalogue"):
            in_section = True
            continue
        if in_section and stripped.startswith("## "):
            break
        if not in_section:
            continue
        match = _CATALOGUE_ENTRY.match(stripped)
        if match and match.group(1) not in entries:
            entries[match.group(1)] = lineno
    return entries


class ProjectIndex:
    """Summaries assembled into a queryable whole-program view.

    Args:
        summaries: one :class:`ModuleSummary` per analyzed file.
        root: the project root directory, when known — used to locate
            out-of-tree anchors (the OBSERVABILITY.md counter catalogue)
            and to load the central event schema when the analyzed path
            set did not include ``repro/telemetry/events.py``.
    """

    EVENTS_MODULE = "repro.telemetry.events"
    CATALOGUE_RELPATH = os.path.join("docs", "OBSERVABILITY.md")

    def __init__(
        self,
        summaries: Sequence[ModuleSummary],
        root: Optional[str] = None,
    ) -> None:
        self.summaries = list(summaries)
        self.root = root
        self.by_module: Dict[str, ModuleSummary] = {
            summary.module_name: summary for summary in self.summaries
        }
        # full function name ("module.qualname") -> summary
        self._functions: Dict[str, str] = {}
        # basename -> [full function names]
        self._by_basename: Dict[str, List[str]] = {}
        for summary in self.summaries:
            for qualname in summary.functions:
                full = f"{summary.module_name}.{qualname}"
                self._functions[full] = summary.module_name
                base = qualname.rsplit(".", 1)[-1]
                self._by_basename.setdefault(base, []).append(full)
        self._reachable: Optional[Set[str]] = None
        self._test_references: Optional[Set[str]] = None

    # -- convenience views --------------------------------------------

    @property
    def library_summaries(self) -> List[ModuleSummary]:
        return [s for s in self.summaries if s.is_library]

    @property
    def test_summaries(self) -> List[ModuleSummary]:
        return [s for s in self.summaries if s.is_test]

    @property
    def test_references(self) -> Set[str]:
        """Every basename referenced anywhere under the test modules."""
        if self._test_references is None:
            names: Set[str] = set()
            for summary in self.test_summaries:
                names.update(summary.references)
            self._test_references = names
        return self._test_references

    # -- call graph / taint -------------------------------------------

    def _match_functions(self, name: str) -> List[str]:
        """Full function names a (dotted or bare) callee may refer to."""
        if name in self._functions:
            return [name]
        base = name.rsplit(".", 1)[-1]
        return self._by_basename.get(base, [])

    def trial_reachable(self) -> Set[str]:
        """Full names of functions reachable from engine trial roots.

        Roots are every callable registered through
        ``session.run(trial, ...)`` or declared as
        ``StreamSpec(trial=...)``; edges over-approximate dynamic dispatch by matching method
        callees on their basename.
        """
        if self._reachable is not None:
            return self._reachable
        roots: Set[str] = set()
        for summary in self.summaries:
            for name in summary.trial_roots:
                candidates = self._match_functions(name)
                if not candidates and "." not in name:
                    candidates = self._match_functions(
                        f"{summary.module_name}.{name}"
                    )
                roots.update(candidates)
        reachable: Set[str] = set()
        frontier = list(roots)
        while frontier:
            current = frontier.pop()
            if current in reachable:
                continue
            reachable.add(current)
            module_name = self._functions.get(current)
            summary = self.by_module.get(module_name or "")
            if summary is None:
                continue
            qualname = current[len(summary.module_name) + 1:]
            for callee in summary.calls.get(qualname, ()):  # noqa: B020
                for target in self._match_functions(callee):
                    if target not in reachable:
                        frontier.append(target)
        self._reachable = reachable
        return reachable

    def is_trial_reachable(self, module_name: str, qualname: str) -> bool:
        """Is ``qualname`` in ``module_name`` tainted by an engine trial?"""
        return f"{module_name}.{qualname}" in self.trial_reachable()

    # -- central anchors ----------------------------------------------

    def event_schema_summary(self) -> Optional[ModuleSummary]:
        """The summary declaring ``EVENT_SCHEMAS`` (loaded if needed).

        Prefers a summary from the analyzed set; falls back to parsing
        ``src/repro/telemetry/events.py`` under :attr:`root` so partial
        lints (single files) still validate against the real schema.
        """
        declared = [
            summary for summary in self.summaries
            if summary.event_schema is not None
        ]
        if declared:
            for summary in declared:
                if summary.module_name == self.EVENTS_MODULE:
                    return summary
            return declared[0]
        if self.root is not None:
            path = os.path.join(
                self.root, "src", "repro", "telemetry", "events.py"
            )
            summary = _load_external_summary(path)
            if summary is not None and summary.event_schema is not None:
                self.summaries.append(summary)
                self.by_module.setdefault(summary.module_name, summary)
                return summary
        return None

    def counter_catalogue(self) -> Optional[Tuple[str, Dict[str, int]]]:
        """``(path, {name: line})`` of the documented counter catalogue."""
        if self.root is None:
            return None
        path = os.path.join(self.root, self.CATALOGUE_RELPATH)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            return None
        display = os.path.relpath(path).replace("\\", "/")
        if display.startswith(".."):
            display = path.replace("\\", "/")
        return display, parse_counter_catalogue(text)


def _load_external_summary(path: str) -> Optional[ModuleSummary]:
    """Summarize a file outside the analyzed set (best effort)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        tree = ast.parse(source, filename=path)
    except (OSError, SyntaxError, UnicodeDecodeError):
        return None
    return summarize_module(ModuleContext(path, source, tree))
