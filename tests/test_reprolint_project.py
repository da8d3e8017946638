"""Tests for reprolint's whole-program layer (rules R009-R011).

Every fixture is a miniature on-disk project: a ``pyproject.toml`` root
marker plus modules under ``src/repro/`` so role classification sees
library code.  Each rule gets one failing and one passing project, and
the surrounding machinery — the incremental cache, the baseline
ratchet, cross-module suppression, the JSON report — is exercised
through the same public entry points CI uses.
"""

import json

import pytest

from repro.analysis.baseline import load_baseline, write_baseline
from repro.analysis.cli import build_parser, execute
from repro.analysis.runner import run_lint_detailed

PYPROJECT = "[project]\nname = 'lintdemo'\n"

# A clean kernel plus a test that uses it; the innocent bystander in
# the cache fixtures.
CLEAN_KERNELS = """\
import numpy as np


def mix_batch(samples):
    return np.asarray(samples, dtype=np.complex128)
"""

CLEAN_KERNEL_TEST = """\
from repro.kernels import mix_batch


def test_mix_batch():
    assert mix_batch([1.0]) is not None
"""

# A sweep trial (a ``StreamSpec(trial=...)`` root) whose helper
# allocates without a dtype: exactly one R009 violation, anchored on
# the ``np.zeros`` line of ``src/repro/kernels.py``.
DIRTY_KERNELS = """\
import numpy as np

from repro.experiments.sweep import StreamSpec


def demodulate_batch(rows):
    return np.zeros(len(rows)){suppress}


def draw_trial(context, args, rngs):
    return [demodulate_batch(rngs)]


STREAM = StreamSpec(key="k", rng_slot=0, budget=1, trial=draw_trial)
"""
DIRTY = DIRTY_KERNELS.format(suppress="")

# Appended to DIRTY: a second trial-reachable dtype-less allocation.
NEW_VIOLATION = """\


def resample_batch(rows):
    return np.empty(len(rows))


SECOND = StreamSpec(key="r", rng_slot=1, budget=1, trial=resample_batch)
"""


def _write_project(root, files):
    (root / "pyproject.toml").write_text(PYPROJECT)
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


def _lint(root, **kwargs):
    kwargs.setdefault("cache_dir", None)
    return run_lint_detailed([str(root / "src"), str(root / "tests")], **kwargs)


def _codes(result):
    return sorted({diag.code for diag in result.diagnostics})


class TestDtypePromotionHygiene:
    """R009: no implicit float64 defaults on trial-reachable paths."""

    FIXTURE = """\
import numpy as np


def _make_buffer(count):
    return np.zeros(count{dtype})


def draw_trial(context, args, rngs):
    return [_make_buffer(4) for _ in rngs]


def run(session):
    return session.run(draw_trial, 4)
"""

    def test_dtypeless_allocation_on_trial_path_fails(self, tmp_path):
        _write_project(tmp_path, {
            "src/repro/trials.py": self.FIXTURE.format(dtype=""),
            "tests/test_trials.py": (
                "from repro.trials import _make_buffer, draw_trial\n\n\n"
                "def test_trial():\n"
                "    assert draw_trial is not None and _make_buffer is not None\n"
            ),
        })
        result = _lint(tmp_path, select=["R009"])
        assert _codes(result) == ["R009"]
        assert "trial-reachable" in result.diagnostics[0].message

    def test_explicit_dtype_passes(self, tmp_path):
        _write_project(tmp_path, {
            "src/repro/trials.py": self.FIXTURE.format(dtype=", dtype=np.float64"),
            "tests/test_trials.py": (
                "from repro.trials import _make_buffer, draw_trial\n\n\n"
                "def test_trial():\n"
                "    assert draw_trial is not None and _make_buffer is not None\n"
            ),
        })
        result = _lint(tmp_path, select=["R009"])
        assert result.diagnostics == []

    def test_stream_spec_trial_is_trial_reachable(self, tmp_path):
        """A function declared as ``StreamSpec(trial=...)`` is a root."""
        _write_project(tmp_path, {"src/repro/kernels.py": DIRTY})
        result = _lint(tmp_path, select=["R009"])
        assert _codes(result) == ["R009"]
        (diag,) = result.diagnostics
        assert "trial-reachable via demodulate_batch" in diag.message

    def test_unregistered_function_is_not_trial_reachable(self, tmp_path):
        _write_project(tmp_path, {
            "src/repro/kernels.py": DIRTY.replace(
                "STREAM = StreamSpec(", "STREAM = dict("
            ),
        })
        result = _lint(tmp_path, select=["R009"])
        assert result.diagnostics == []


EVENTS_MODULE = """\
EVENT_SCHEMAS = {
    "run_started": {"required": (), "optional": ("seed",), "open": True},
    "trial_retry": {
        "required": ("trial_index",), "optional": (), "open": False,
    },
}
"""


class TestEventSchemaDiscipline:
    """R010: every emit() matches the central declared schema."""

    def test_undeclared_event_type_fails(self, tmp_path):
        _write_project(tmp_path, {
            "src/repro/telemetry/events.py": EVENTS_MODULE,
            "src/repro/engine.py": (
                "def report(stream):\n"
                "    stream.emit('trial_vanished', trial_index=3)\n"
            ),
        })
        result = _lint(tmp_path, select=["R010"])
        assert _codes(result) == ["R010"]
        assert "trial_vanished" in result.diagnostics[0].message

    def test_undeclared_field_on_closed_schema_fails(self, tmp_path):
        _write_project(tmp_path, {
            "src/repro/telemetry/events.py": EVENTS_MODULE,
            "src/repro/engine.py": (
                "def report(stream):\n"
                "    stream.emit('trial_retry', trial_index=3, mood='grim')\n"
            ),
        })
        result = _lint(tmp_path, select=["R010"])
        assert _codes(result) == ["R010"]
        assert "mood" in result.diagnostics[0].message

    def test_missing_required_field_fails(self, tmp_path):
        _write_project(tmp_path, {
            "src/repro/telemetry/events.py": EVENTS_MODULE,
            "src/repro/engine.py": (
                "def report(stream):\n"
                "    stream.emit('trial_retry')\n"
            ),
        })
        result = _lint(tmp_path, select=["R010"])
        assert _codes(result) == ["R010"]
        assert "trial_index" in result.diagnostics[0].message

    def test_declared_emit_passes(self, tmp_path):
        _write_project(tmp_path, {
            "src/repro/telemetry/events.py": EVENTS_MODULE,
            "src/repro/engine.py": (
                "def report(stream):\n"
                "    stream.emit('trial_retry', trial_index=3)\n"
                "    stream.emit('run_started', seed=1, extra='fine')\n"
            ),
        })
        result = _lint(tmp_path, select=["R010"])
        assert result.diagnostics == []


class TestCounterCatalogue:
    """R011: counters incremented in code <-> documented catalogue."""

    CODE = (
        "def record(telemetry):\n"
        "    telemetry.count('engine.trials')\n"
    )

    @staticmethod
    def _catalogue(*names):
        lines = "\n".join(f"- `{name}` — documented." for name in names)
        return f"# Observability\n\n## Counter catalogue\n\n{lines}\n"

    def test_undocumented_counter_fails(self, tmp_path):
        _write_project(tmp_path, {
            "src/repro/engine.py": self.CODE,
            "docs/OBSERVABILITY.md": self._catalogue("engine.retries"),
        })
        result = _lint(tmp_path, select=["R011"])
        assert _codes(result) == ["R011"]
        messages = " ".join(d.message for d in result.diagnostics)
        assert "engine.trials" in messages

    def test_documented_counter_passes(self, tmp_path):
        _write_project(tmp_path, {
            "src/repro/engine.py": self.CODE,
            "docs/OBSERVABILITY.md": self._catalogue("engine.trials"),
        })
        result = _lint(tmp_path, select=["R011"])
        assert result.diagnostics == []


class TestCrossModuleSuppression:
    """Satellite: disable comments resolve against the anchor file."""

    def test_anchor_file_disable_suppresses_project_rule(self, tmp_path):
        _write_project(tmp_path, {
            "src/repro/kernels.py": DIRTY_KERNELS.format(
                suppress="  # reprolint: disable=R009"
            ),
        })
        result = _lint(tmp_path, select=["R009"])
        assert result.diagnostics == []

    def test_disable_in_another_file_does_not_leak(self, tmp_path):
        _write_project(tmp_path, {
            "src/repro/kernels.py": DIRTY,
            "src/repro/other.py": "# reprolint: disable=R009\n",
        })
        result = _lint(tmp_path, select=["R009"])
        assert _codes(result) == ["R009"]


class TestIncrementalCache:
    """The cache is keyed on content: edits invalidate, re-runs hit."""

    def test_warm_run_hits_and_edit_invalidates(self, tmp_path):
        root = _write_project(tmp_path, {
            "src/repro/kernels.py": CLEAN_KERNELS,
            "tests/test_kernels.py": CLEAN_KERNEL_TEST,
        })
        cache_dir = str(tmp_path / ".repro-lint-cache")
        cold = _lint(root, cache_dir=cache_dir)
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)
        warm = _lint(root, cache_dir=cache_dir)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)

        kernels = root / "src" / "repro" / "kernels.py"
        kernels.write_text(kernels.read_text() + "\n\nEXTRA = 1\n")
        edited = _lint(root, cache_dir=cache_dir)
        assert (edited.cache_hits, edited.cache_misses) == (1, 1)

    def test_cached_run_still_reports_project_violations(self, tmp_path):
        """Project rules re-run from cached summaries — a second lint
        must not lose cross-module diagnostics to the cache."""
        root = _write_project(tmp_path, {"src/repro/kernels.py": DIRTY})
        cache_dir = str(tmp_path / ".repro-lint-cache")
        cold = _lint(root, cache_dir=cache_dir, select=["R009"])
        warm = _lint(root, cache_dir=cache_dir, select=["R009"])
        assert _codes(cold) == _codes(warm) == ["R009"]
        assert warm.cache_hits == 1

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        root = _write_project(tmp_path, {
            "src/repro/kernels.py": CLEAN_KERNELS,
            "tests/test_kernels.py": CLEAN_KERNEL_TEST,
        })
        cache_dir = tmp_path / ".repro-lint-cache"
        _lint(root, cache_dir=str(cache_dir))
        for entry in cache_dir.glob("*.json"):
            entry.write_text("{not json")
        rerun = _lint(root, cache_dir=str(cache_dir))
        assert (rerun.cache_hits, rerun.cache_misses) == (0, 2)


class TestBaselineRatchet:
    """Adopt existing debt, stay green, fail only on new violations."""

    def test_adopt_then_green_then_new_violation_fails(self, tmp_path):
        root = _write_project(tmp_path, {"src/repro/kernels.py": DIRTY})
        baseline_path = tmp_path / "reprolint-baseline.json"

        dirty = _lint(root, select=["R009"])
        assert _codes(dirty) == ["R009"]
        adopted = write_baseline(str(baseline_path), dirty.diagnostics)
        assert adopted == len(dirty.diagnostics)

        budget = load_baseline(str(baseline_path))
        clean = _lint(root, select=["R009"], baseline=budget)
        assert clean.diagnostics == []
        assert clean.baselined == len(dirty.diagnostics)

        kernels = root / "src" / "repro" / "kernels.py"
        kernels.write_text(kernels.read_text() + NEW_VIOLATION)
        budget = load_baseline(str(baseline_path))
        regressed = _lint(root, select=["R009"], baseline=budget)
        assert _codes(regressed) == ["R009"]
        assert all("resample_batch" in d.message for d in regressed.diagnostics)

    def test_baseline_matches_despite_line_drift(self, tmp_path):
        root = _write_project(tmp_path, {"src/repro/kernels.py": DIRTY})
        baseline_path = tmp_path / "baseline.json"
        write_baseline(
            str(baseline_path), _lint(root, select=["R009"]).diagnostics
        )
        kernels = root / "src" / "repro" / "kernels.py"
        kernels.write_text("# a new leading comment\n" + kernels.read_text())
        budget = load_baseline(str(baseline_path))
        drifted = _lint(root, select=["R009"], baseline=budget)
        assert drifted.diagnostics == []

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 1, "entries": [{"path": "x"}]}))
        with pytest.raises(ValueError):
            load_baseline(str(path))


class TestCliSurface:
    """The flag plumbing: exit codes, JSON schema, unknown codes."""

    def _run(self, argv):
        return execute(build_parser().parse_args(argv))

    def test_unknown_select_code_exits_2(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n")
        code = self._run([str(tmp_path), "--select", "R999", "--no-cache"])
        assert code == 2
        assert "R999" in capsys.readouterr().err

    def test_unknown_ignore_code_exits_2(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n")
        code = self._run([str(tmp_path), "--ignore", "R009,R999", "--no-cache"])
        assert code == 2
        assert "R999" in capsys.readouterr().err

    def test_json_report_carries_cross_module_diagnostics(
        self, tmp_path, capsys
    ):
        _write_project(tmp_path, {"src/repro/kernels.py": DIRTY})
        code = self._run([
            str(tmp_path / "src"), "--select", "R009",
            "--format", "json", "--no-cache",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["summary"]["violations"] == len(payload["diagnostics"])
        (diag,) = [d for d in payload["diagnostics"] if d["code"] == "R009"]
        assert diag["path"].endswith("kernels.py")
        assert set(diag) >= {"path", "line", "column", "code", "message"}
        summary = payload["summary"]
        assert {"cache_hits", "cache_misses", "baselined"} <= set(summary)

    def test_write_then_apply_baseline_through_cli(self, tmp_path, capsys):
        _write_project(tmp_path, {"src/repro/kernels.py": DIRTY})
        baseline = str(tmp_path / "baseline.json")
        target = str(tmp_path / "src")

        assert self._run([target, "--no-cache"]) == 1
        capsys.readouterr()
        assert self._run([target, "--no-cache", "--write-baseline", baseline]) == 0
        assert "adopted" in capsys.readouterr().out
        assert self._run([target, "--no-cache", "--baseline", baseline]) == 0
        assert "baselined" in capsys.readouterr().out

    def test_malformed_baseline_exits_2(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text("[]")
        code = self._run([
            str(tmp_path), "--no-cache", "--baseline", str(baseline)
        ])
        assert code == 2
        assert "baseline" in capsys.readouterr().err.lower()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
