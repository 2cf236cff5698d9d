"""Shared fixtures for the benchmark harness.

Each paper artifact (table/figure) has one module.  Benchmarks are
generated once per session and shared; every analysis cell runs under
``benchmark.pedantic(rounds=1)`` because the workloads are deterministic
(step counts are exact) and wall-clock variance is reported alongside.

Set ``REPRO_BENCH_SCALE`` (e.g. ``0.5``) to shrink the suite for smoke
runs; the artifacts in README's "Reproducing the paper" section use the
default scale of 1.0.
"""

import os

import pytest

from repro.bench.suite import BENCHMARK_NAMES, load_benchmark

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: The three programs the paper uses for Figures 4 and 5 (Section 5.3).
FIGURE_BENCHMARKS = ("soot-c", "bloat", "jython")


@pytest.fixture(scope="session")
def instances():
    """All nine benchmark instances, generated once."""
    return {name: load_benchmark(name, scale=SCALE) for name in BENCHMARK_NAMES}


@pytest.fixture(scope="session")
def figure_instances(instances):
    return {name: instances[name] for name in FIGURE_BENCHMARKS}


def perf_fields(batch_stats):
    """Both measurement dimensions for one batch, BENCH-row ready.

    Steps are deterministic (the comparison dimension CI can gate on);
    wall-clock varies by host but is recorded alongside so committed
    BENCH files carry the throughput trajectory too — the
    ``repro-perf`` harness (``BENCH_hotpath.json``) owns the
    impl-vs-reference comparison itself.
    """
    return {
        "steps": batch_stats.steps,
        "time_sec": round(batch_stats.time_sec, 6),
        "steps_per_sec": (
            round(batch_stats.steps / batch_stats.time_sec)
            if batch_stats.time_sec
            else None
        ),
    }
