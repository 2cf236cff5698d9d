"""Smoke tests: every shipped example runs clean and says what it should."""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
SRC_DIR = EXAMPLES_DIR.parent / "src"


def example_env():
    """The test process's environment with ``src/`` on PYTHONPATH, so the
    example subprocesses can import ``repro`` from a clean checkout."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(SRC_DIR) if not existing else str(SRC_DIR) + os.pathsep + existing
    )
    return env


def run_example(name, *args):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=EXAMPLES_DIR,
        env=example_env(),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "pointsTo(d) = ['Dog']" in out
    assert "kennels conflated" in out
    assert "violation" in out


def test_motivating_example():
    out = run_example("motivating_example.py")
    assert "['Integer']" in out
    assert "['String']" in out
    assert "Table 1's reuse" in out


def test_motivating_example_dot():
    out = run_example("motivating_example.py", "--dot")
    assert "digraph figure2" in out


def test_table1_trace():
    out = run_example("table1_trace.py")
    assert "pointsTo(s1)" in out
    assert "summary-miss" in out
    assert "reuse" in out


def test_ide_session():
    out = run_example("ide_session.py")
    assert "violation" in out  # the Square edit flips the verdict
    assert "after revert" in out
    assert "safe" in out


def test_client_comparison():
    out = run_example("client_comparison.py", "luindex")
    assert "SafeCast" in out
    assert "DYNSUM" in out
    assert "STASUM" in out


def test_client_comparison_rejects_unknown():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "client_comparison.py"), "quake3"],
        capture_output=True,
        text=True,
        timeout=60,
        env=example_env(),
    )
    assert result.returncode != 0
