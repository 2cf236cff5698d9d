"""The repro-lint battery: per-rule violating + conforming fixtures,
the suppression and baseline workflows, the CLI surface, and the meta
checks that keep the linter honest — the shipped tree must lint clean,
and the HOT001 registry must match what the perf harness measures.

Fixtures are written into tmp_path project trees and linted through the
real CLI entry point (in-process `main(argv)`), so every test covers
path discovery, rule dispatch, suppression/baseline splitting and exit
codes together.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.devtools.cli import ALL_RULES, main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[1]


def write(root, relpath, text):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def lint(root, *argv):
    return lint_main(["--root", str(root), *argv])


def findings_of(capsys):
    """Parse `file:line:col: RULE message` lines printed to stdout."""
    out = capsys.readouterr().out
    rows = []
    for line in out.splitlines():
        if ": " not in line:
            continue
        location, _, rest = line.partition(": ")
        rule, _, message = rest.partition(" ")
        rows.append((location, rule, message))
    return rows


# ----------------------------------------------------------------------
# LOCK001
# ----------------------------------------------------------------------
LOCK_VIOLATING = """
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []  # guarded-by: _lock
            self.count = 0  # guarded-by: _lock

        def add(self, x):
            self._items.append(x)

        def bump(self):
            self.count += 1
"""

LOCK_CONFORMING = """
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []  # guarded-by: _lock
            self.count = 0  # guarded-by: _lock

        def add(self, x):
            with self._lock:
                self._items.append(x)
                self.count += 1

        def _drain_locked(self):
            self._items.clear()

        def snapshot(self):
            return self.count  # reads are out of scope
"""


class TestLockDiscipline:
    def test_unlocked_mutations_are_flagged(self, tmp_path, capsys):
        write(tmp_path, "src/mylib.py", LOCK_VIOLATING)
        assert lint(tmp_path, "--rule", "LOCK001") == 1
        rows = findings_of(capsys)
        assert len(rows) == 2
        assert all(rule == "LOCK001" for _, rule, _ in rows)
        assert any("'_items' outside 'with self._lock'" in m for _, _, m in rows)
        assert any("'count' outside 'with self._lock'" in m for _, _, m in rows)

    def test_locked_and_locked_suffix_are_clean(self, tmp_path):
        write(tmp_path, "src/mylib.py", LOCK_CONFORMING)
        assert lint(tmp_path, "--rule", "LOCK001") == 0

    def test_inline_suppression_is_honored(self, tmp_path, capsys):
        write(
            tmp_path,
            "src/mylib.py",
            LOCK_VIOLATING.replace(
                "self._items.append(x)",
                "self._items.append(x)  # repro-lint: ignore[LOCK001]",
            ).replace(
                "self.count += 1",
                "# repro-lint: ignore[LOCK001]\n            self.count += 1",
            ),
        )
        assert lint(tmp_path, "--rule", "LOCK001") == 0
        assert "2 suppressed" in capsys.readouterr().err

    def test_suppression_is_rule_scoped(self, tmp_path):
        write(
            tmp_path,
            "src/mylib.py",
            LOCK_VIOLATING.replace(
                "self._items.append(x)",
                "self._items.append(x)  # repro-lint: ignore[HOT001]",
            ),
        )
        assert lint(tmp_path, "--rule", "LOCK001") == 1


# ----------------------------------------------------------------------
# HOT001 (fixtures live at the registered relpath)
# ----------------------------------------------------------------------
HOT_VIOLATING = """
    FUEL = 3

    def _run_ppta_array(records, work):
        out = []
        out_append = out.append
        total = 0
        for item in work:
            out_append(transform(item))
            try:
                total += self.weight(item)
            except KeyError:
                pass
        return out, total

    def run_ppta_reference(records, work):
        # Unregistered: the same violations are not flagged here.
        for item in work:
            try:
                transform(self.weight(item))
            except KeyError:
                pass
"""

HOT_CONFORMING = """
    FUEL = 3

    class BudgetError(Exception):
        pass

    def _run_ppta_array(records, work, transform):
        out = []
        out_append = out.append
        total = 0
        for item in work:
            if item > FUEL:
                raise BudgetError(item)
            out_append(transform(item))
            total += item
        return out, total
"""


class TestHotLoopHygiene:
    def test_loop_body_violations_are_flagged(self, tmp_path, capsys):
        write(tmp_path, "src/repro/analysis/ppta.py", HOT_VIOLATING)
        assert lint(tmp_path, "--rule", "HOT001") == 1
        rows = findings_of(capsys)
        messages = [m for _, _, m in rows]
        assert any("global-name load of 'transform'" in m for m in messages)
        assert any("try/except inside a loop body" in m for m in messages)
        assert any("self attribute load '.weight'" in m for m in messages)
        # `self` itself is also an unbound global here; the point is the
        # discipline flags every unbound name, not the exact taxonomy.
        # Every finding lies in the registered loop, none in the
        # unregistered run_ppta_reference below it.
        unregistered = HOT_VIOLATING[
            : HOT_VIOLATING.index("def run_ppta_reference")
        ].count("\n") + 1
        lines = [int(location.split(":")[1]) for location, _, _ in rows]
        assert lines and all(line < unregistered for line in lines)

    def test_const_and_raise_exemptions(self, tmp_path):
        # FUEL (ALL_CAPS) and BudgetError (raise callee) load in the
        # loop body yet are exempt by design; transform is a parameter.
        write(tmp_path, "src/repro/analysis/ppta.py", HOT_CONFORMING)
        assert lint(tmp_path, "--rule", "HOT001") == 0

    def test_missing_registered_function_is_flagged(self, tmp_path, capsys):
        write(
            tmp_path,
            "src/repro/analysis/ppta.py",
            "def run_ppta_reference(records, work):\n    return []\n",
        )
        assert lint(tmp_path, "--rule", "HOT001") == 1
        messages = [m for _, _, m in findings_of(capsys)]
        assert any(
            "registered hot function '_run_ppta_array' not found" in m
            for m in messages
        )

    def test_unregistered_modules_are_ignored(self, tmp_path):
        write(tmp_path, "src/other.py", HOT_VIOLATING)
        assert lint(tmp_path, "--rule", "HOT001") == 0

    # -- impl="native" entries: existence-checked in the C source, ----
    # -- never hygiene-checked as Python --------------------------------
    def test_native_entries_are_not_hygiene_checked(
        self, tmp_path, monkeypatch
    ):
        """A registered kernel driver must not make HOT001 demand a
        Python def of that name — the regression the HotFunction.impl
        marker exists to prevent."""
        from repro.devtools.registry import HOT_FUNCTIONS, HotFunction

        monkeypatch.setitem(
            HOT_FUNCTIONS,
            "src/repro/analysis/ppta.py",
            (
                HotFunction("_run_ppta_array"),
                HotFunction("rk_ppta", impl="native"),
            ),
        )
        write(
            tmp_path,
            "src/repro/analysis/ppta.py",
            "# C twin: rk_ppta\n"
            "def _run_ppta_array(records, work):\n    return []\n",
        )
        assert lint(tmp_path, "--rule", "HOT001") == 0

    def test_native_symbol_present_is_clean(self, tmp_path, monkeypatch):
        from repro.devtools.registry import HOT_FUNCTIONS, HotFunction

        monkeypatch.setitem(
            HOT_FUNCTIONS,
            "src/mykernel.c",
            (HotFunction("rk_probe", impl="native"),),
        )
        write(tmp_path, "src/mykernel.c", "int rk_probe(void) { return 0; }\n")
        write(tmp_path, "src/ok.py", "x = 1\n")
        assert lint(tmp_path, "--rule", "HOT001") == 0

    def test_native_symbol_missing_is_flagged(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.devtools.registry import HOT_FUNCTIONS, HotFunction

        monkeypatch.setitem(
            HOT_FUNCTIONS,
            "src/mykernel.c",
            (HotFunction("rk_probe", impl="native"),),
        )
        write(tmp_path, "src/mykernel.c", "int other_symbol(void) { return 0; }\n")
        write(tmp_path, "src/ok.py", "x = 1\n")
        assert lint(tmp_path, "--rule", "HOT001") == 1
        messages = [m for _, _, m in findings_of(capsys)]
        assert any(
            "native hot function 'rk_probe' not found" in m for m in messages
        )

    def test_absent_native_file_is_skipped_silently(self, tmp_path):
        """Fixture projects carry no kernel.c; the shipped registry's
        native entries must not flag them."""
        write(tmp_path, "src/ok.py", "x = 1\n")
        assert lint(tmp_path, "--rule", "HOT001") == 0


# ----------------------------------------------------------------------
# WIRE001
# ----------------------------------------------------------------------
WIRE_VIOLATING = """
    from dataclasses import dataclass

    PROTOCOL_VERSION = "1.4"

    @dataclass(frozen=True)
    class PingRequest:
        count: int = 0
        protocol_version: str = "1.4"

    @dataclass(frozen=True)
    class PongResponse:
        payload: SneakyType = None
        protocol_version: str = PROTOCOL_VERSION

    REQUEST_KINDS = {"ping": PingRequest}
    RESPONSE_KINDS = {}
"""

WIRE_CONFORMING = """
    from dataclasses import dataclass
    from typing import Optional, Tuple

    PROTOCOL_VERSION = "1.4"

    @dataclass(frozen=True)
    class PingRequest:
        count: int = 0
        tags: Tuple[str, ...] = ()
        protocol_version: str = PROTOCOL_VERSION

    @dataclass(frozen=True)
    class PongResponse:
        echo: Optional[PingRequest] = None
        protocol_version: str = PROTOCOL_VERSION

    REQUEST_KINDS = {"ping": PingRequest}
    RESPONSE_KINDS = {"pong": PongResponse}
"""

WIRE_README = """
    # fixture

    | Version | Added |
    |---------|-------|
    | 1.3     | old   |
    | {newest} | new  |
"""


class TestProtocolDrift:
    def _project(self, tmp_path, protocol, newest="1.4", service=None):
        write(tmp_path, "src/repro/api/protocol.py", protocol)
        write(tmp_path, "README.md", WIRE_README.format(newest=newest))
        if service is not None:
            write(tmp_path, "src/repro/api/service.py", service)

    def test_drift_is_flagged(self, tmp_path, capsys):
        self._project(tmp_path, WIRE_VIOLATING)
        assert lint(tmp_path, "--rule", "WIRE001") == 1
        messages = [m for _, _, m in findings_of(capsys)]
        assert any(
            "PingRequest.protocol_version must default to the "
            "PROTOCOL_VERSION constant" in m
            for m in messages
        )
        assert any(
            "PongResponse is not registered in RESPONSE_KINDS" in m
            for m in messages
        )
        assert any("SneakyType" in m for m in messages)

    def test_consistent_contract_is_clean(self, tmp_path):
        self._project(tmp_path, WIRE_CONFORMING)
        assert lint(tmp_path, "--rule", "WIRE001") == 0

    def test_stale_readme_table_is_flagged(self, tmp_path, capsys):
        self._project(tmp_path, WIRE_CONFORMING, newest="1.3")
        assert lint(tmp_path, "--rule", "WIRE001") == 1
        rows = findings_of(capsys)
        assert rows[0][0].startswith("README.md")
        assert "tops out at 1.3 but PROTOCOL_VERSION is 1.4" in rows[0][2]

    def test_service_must_import_not_restate_the_version(
        self, tmp_path, capsys
    ):
        self._project(
            tmp_path,
            WIRE_CONFORMING,
            service='PROTOCOL_VERSION = "1.4"\n',
        )
        assert lint(tmp_path, "--rule", "WIRE001") == 1
        messages = [m for _, _, m in findings_of(capsys)]
        assert any("redefines PROTOCOL_VERSION" in m for m in messages)
        assert any("must import PROTOCOL_VERSION" in m for m in messages)

    def test_importing_service_is_clean(self, tmp_path):
        self._project(
            tmp_path,
            WIRE_CONFORMING,
            service="from repro.api.protocol import PROTOCOL_VERSION\n",
        )
        assert lint(tmp_path, "--rule", "WIRE001") == 0

    @pytest.mark.parametrize(
        "annotation, named",
        [
            ("Dict[str, int]", "['Dict']"),
            ("bytes", "['bytes']"),
            ("Tuple[int, str]", "a Tuple without '...'"),
            ("Optional[Tuple]", "a Tuple without '...'"),
            ("Optional[int | str]", "an 'X | Y' union"),
        ],
        ids=["dict", "bytes", "fixed-tuple", "bare-tuple", "pipe-union"],
    )
    def test_annotation_the_codec_cannot_compile_is_flagged(
        self, tmp_path, capsys, annotation, named
    ):
        protocol = WIRE_CONFORMING.replace(
            "        count: int = 0\n",
            f"        count: int = 0\n        extra: {annotation} = None\n",
        ).replace("from typing import", "from typing import Dict,")
        self._project(tmp_path, protocol)
        assert lint(tmp_path, "--rule", "WIRE001") == 1
        (message,) = [m for _, _, m in findings_of(capsys)]
        assert message.startswith("PingRequest.extra: annotation uses ")
        assert named in message and "cannot compile" in message


# ----------------------------------------------------------------------
# ERR001
# ----------------------------------------------------------------------
ERR_VIOLATING = """
    def dispatch(line):
        try:
            return handle(line)
        except Exception:
            return None
"""

ERR_CONFORMING = """
    from repro.api.protocol import ErrorResponse, WireError

    def dispatch(line):
        try:
            return handle(line)
        except OSError:
            return None

    def convert(line):
        try:
            return handle(line)
        except Exception as exc:
            return ErrorResponse(code="internal", message=str(exc))

    def reraise(line):
        try:
            return handle(line)
        except Exception:
            raise
"""


class TestTypedErrorDiscipline:
    def test_silent_broad_except_is_flagged(self, tmp_path, capsys):
        write(tmp_path, "src/repro/api/dispatch.py", ERR_VIOLATING)
        assert lint(tmp_path, "--rule", "ERR001") == 1
        rows = findings_of(capsys)
        assert len(rows) == 1
        assert (
            "broad 'except Exception' in dispatch neither re-raises nor "
            "produces a typed wire error" in rows[0][2]
        )

    def test_narrow_convert_and_reraise_are_clean(self, tmp_path):
        write(tmp_path, "src/repro/api/dispatch.py", ERR_CONFORMING)
        assert lint(tmp_path, "--rule", "ERR001") == 0

    def test_paths_outside_the_wire_tiers_are_not_in_scope(self, tmp_path):
        write(tmp_path, "src/repro/analysis/dispatch.py", ERR_VIOLATING)
        assert lint(tmp_path, "--rule", "ERR001") == 0


# ----------------------------------------------------------------------
# ERR002
# ----------------------------------------------------------------------
FAIL_OPEN_VIOLATING = """
    def lookup(self, key):
        try:
            return self._exchange(key)
        except ShardUnavailable:
            return None

    def resolve(self, ref):
        try:
            return self._exchange(ref)
        except (ProtocolError, SnapshotError):
            pass
"""

FAIL_OPEN_CONFORMING = """
    from repro.api.protocol import ErrorResponse

    def counted(self, key):
        try:
            return self._exchange(key)
        except ShardUnavailable:
            self._bump("degraded")
            return None

    def tallied(self, key):
        try:
            return self._exchange(key)
        except (ProtocolError, SnapshotError):
            self.seed_failures += 1
            return None

    def converted(self, line):
        try:
            return self._dispatch(line)
        except Exception as exc:
            return ErrorResponse(code="internal", message=str(exc))

    def reraised(self, line):
        try:
            return self._dispatch(line)
        except Exception:
            raise

    def teardown(self):
        try:
            self._sock.close()
        except OSError:
            pass
"""


class TestFailOpenAccounting:
    def test_uncounted_fall_open_is_flagged(self, tmp_path, capsys):
        write(tmp_path, "src/repro/cacheserver/client.py", FAIL_OPEN_VIOLATING)
        assert lint(tmp_path, "--rule", "ERR002") == 1
        rows = findings_of(capsys)
        assert len(rows) == 2
        assert (
            "fail-open 'except ShardUnavailable' in lookup neither counts "
            "the degradation nor re-raises/converts it" in rows[0][2]
        )
        assert "(ProtocolError, SnapshotError)" in rows[1][2]

    def test_counted_converted_reraised_and_teardown_are_clean(self, tmp_path):
        write(tmp_path, "src/repro/cacheserver/client.py", FAIL_OPEN_CONFORMING)
        assert lint(tmp_path, "--rule", "ERR002") == 0

    def test_paths_outside_the_serving_client_are_not_in_scope(self, tmp_path):
        # ERR001's wire tiers are wider than ERR002's fail-open scope:
        # the api/ layer converts, it never silently degrades.
        write(tmp_path, "src/repro/api/dispatch.py", FAIL_OPEN_VIOLATING)
        assert lint(tmp_path, "--rule", "ERR002") == 0


# ----------------------------------------------------------------------
# baseline workflow
# ----------------------------------------------------------------------
class TestBaseline:
    def test_write_refuse_justify_roundtrip(self, tmp_path, capsys):
        write(tmp_path, "src/repro/api/dispatch.py", ERR_VIOLATING)
        baseline = tmp_path / "lint-baseline.json"

        assert lint(tmp_path, "--write-baseline") == 0
        assert baseline.exists()
        capsys.readouterr()

        # A freshly written baseline carries TODO justifications, which
        # the loader refuses: grandfathering forces a written review.
        assert lint(tmp_path) == 2
        assert "needs a real justification" in capsys.readouterr().err

        payload = json.loads(baseline.read_text())
        for entry in payload["findings"]:
            entry["justification"] = "legacy fail-open path, tracked"
        baseline.write_text(json.dumps(payload))

        assert lint(tmp_path) == 0
        assert "1 baselined" in capsys.readouterr().err

    def test_baseline_survives_unrelated_edits(self, tmp_path, capsys):
        source = write(tmp_path, "src/repro/api/dispatch.py", ERR_VIOLATING)
        lint(tmp_path, "--write-baseline")
        baseline = tmp_path / "lint-baseline.json"
        payload = json.loads(baseline.read_text())
        payload["findings"][0]["justification"] = "known, tracked"
        baseline.write_text(json.dumps(payload))
        # Shift the finding's line number: the (rule, file, message) key
        # still matches.
        source.write_text("X = 1\nY = 2\n" + source.read_text())
        capsys.readouterr()
        assert lint(tmp_path) == 0
        assert "1 baselined" in capsys.readouterr().err

    def test_fresh_findings_fail_despite_baseline(self, tmp_path):
        write(tmp_path, "src/repro/api/dispatch.py", ERR_VIOLATING)
        lint(tmp_path, "--write-baseline")
        baseline = tmp_path / "lint-baseline.json"
        payload = json.loads(baseline.read_text())
        payload["findings"][0]["justification"] = "known, tracked"
        baseline.write_text(json.dumps(payload))
        write(tmp_path, "src/mylib.py", LOCK_VIOLATING)
        assert lint(tmp_path) == 1


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliSurface:
    def test_json_report_shape(self, tmp_path, capsys):
        write(tmp_path, "src/mylib.py", LOCK_VIOLATING)
        assert lint(tmp_path, "--json") == 1
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "root", "rules", "counts", "findings", "baselined",
        }
        assert report["rules"] == sorted(ALL_RULES)
        assert report["counts"] == {
            "fresh": 2, "suppressed": 0, "baselined": 0,
        }
        for finding in report["findings"]:
            assert set(finding) == {"file", "line", "col", "rule", "message"}
            assert finding["rule"] == "LOCK001"

    def test_syntax_errors_become_parse_findings(self, tmp_path, capsys):
        write(tmp_path, "src/broken.py", "def f(:\n")
        write(tmp_path, "src/mylib.py", LOCK_VIOLATING)
        assert lint(tmp_path) == 1
        rows = findings_of(capsys)
        # The broken file reports PARSE; the parseable file still lints.
        assert any(rule == "PARSE" for _, rule, _ in rows)
        assert any(rule == "LOCK001" for _, rule, _ in rows)

    def test_list_rules_names_the_catalogue(self, tmp_path, capsys):
        assert lint(tmp_path, "--list-rules") == 0
        out = capsys.readouterr().out
        for rule_id in (
            "LOCK001", "HOT001", "WIRE001", "ERR001", "ERR002",
        ):
            assert rule_id in out
        assert set(ALL_RULES) == {
            "LOCK001", "HOT001", "WIRE001", "ERR001", "ERR002",
        }

    def test_unknown_rule_is_a_usage_error(self, tmp_path):
        assert lint(tmp_path, "--rule", "NOPE001") == 2

    def test_missing_path_is_a_usage_error(self, tmp_path):
        assert lint(tmp_path, "--paths", str(tmp_path / "nowhere")) == 2

    def test_the_module_runs_once_without_a_runpy_warning(self):
        """``python -m repro.devtools.cli`` (how a checkout runs
        ``repro-lint``) runs one copy of the module: the package exports
        the CLI lazily, so importing it does not load the CLI first."""
        import subprocess
        import sys

        from conftest import child_env

        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.devtools.cli",
             "--help"],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0 and done.stderr == ""
        assert "repro-lint" in done.stdout

    def test_the_package_exports_the_clis_own_names(self):
        import repro.devtools
        import repro.devtools.cli

        assert repro.devtools.main is repro.devtools.cli.main
        assert repro.devtools.ALL_RULES is repro.devtools.cli.ALL_RULES
        with pytest.raises(AttributeError, match="no attribute 'NoSuchName'"):
            repro.devtools.NoSuchName


# ----------------------------------------------------------------------
# meta: the linter applied to this repository
# ----------------------------------------------------------------------
class TestSelfHosting:
    def test_shipped_tree_is_lint_clean(self, capsys):
        """repro-lint exits 0 on the shipped src/ — every finding is
        fixed, suppressed, or baselined with a written justification."""
        assert lint_main(["--root", str(REPO_ROOT)]) == 0

    def test_shipped_baseline_is_small_and_justified(self):
        payload = json.loads(
            (REPO_ROOT / "lint-baseline.json").read_text(encoding="utf-8")
        )
        assert payload["findings"], "empty baseline should just be deleted"
        for entry in payload["findings"]:
            assert len(entry["justification"]) > 40
            assert "TODO" not in entry["justification"]

    def test_hot_registry_matches_the_perf_harness(self):
        """HOT001 lints exactly the loops repro-perf measures."""
        from repro.devtools.registry import hot_function_ids
        from repro.perf.harness import measured_hot_functions

        assert measured_hot_functions() == hot_function_ids()


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
