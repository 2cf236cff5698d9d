"""Table 4 — analysis cost of NOREFINE / REFINEPTS / DYNSUM per client.

The full grid: 9 benchmarks x 3 clients x 3 analyses.  Each cell issues
every query of the client through a fresh analysis instance, exactly as
the paper measures a batch run.  Wall-clock is what pytest-benchmark
records; the printed table additionally reports the deterministic
traversal-step counts, which are the numbers to compare against the
paper (shape, not absolute seconds; see README's "Reproducing the
paper").
"""

import pytest

from repro import DynSum, NoRefine, RefinePts
from repro.bench.runner import bench_analysis_config, run_client
from repro.bench.suite import BENCHMARK_NAMES
from repro.bench.tables import format_speedup_summary, format_table4
from repro.clients import ALL_CLIENTS

ANALYSES = (NoRefine, RefinePts, DynSum)
ANALYSIS_NAMES = tuple(cls.name for cls in ANALYSES)
CLIENT_NAMES = tuple(cls.name for cls in ALL_CLIENTS)

_RESULTS = []


@pytest.mark.parametrize("analysis_cls", ANALYSES, ids=lambda c: c.name)
@pytest.mark.parametrize("client_cls", ALL_CLIENTS, ids=lambda c: c.name)
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_cell(benchmark, instances, name, client_cls, analysis_cls):
    instance = instances[name]

    def run():
        analysis = analysis_cls(instance.pag, bench_analysis_config())
        return run_client(instance, client_cls, analysis)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _RESULTS.append(result)
    assert result.n_queries > 0


def test_print_table4(benchmark, instances):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _RESULTS:
        pytest.skip("cells did not run")
    print("\n\nTable 4 — analysis steps (deterministic)")
    print(
        format_table4(
            _RESULTS, BENCHMARK_NAMES, CLIENT_NAMES, ANALYSIS_NAMES, use_steps=True
        )
    )
    print("\nTable 4 — wall-clock seconds")
    print(
        format_table4(
            _RESULTS, BENCHMARK_NAMES, CLIENT_NAMES, ANALYSIS_NAMES, use_steps=False
        )
    )
    print("\nHeadline speedups (paper: DYNSUM vs REFINEPTS = 1.95x / 2.28x / 1.37x)")
    print(
        format_speedup_summary(
            _RESULTS, "REFINEPTS", "DYNSUM", CLIENT_NAMES, BENCHMARK_NAMES
        )
    )
    print(
        format_speedup_summary(
            _RESULTS, "NOREFINE", "DYNSUM", CLIENT_NAMES, BENCHMARK_NAMES
        )
    )

    by_key = {(r.client, r.analysis, r.benchmark): r for r in _RESULTS}

    def total(client, analysis):
        return sum(
            by_key[(client, analysis, b)].steps
            for b in BENCHMARK_NAMES
            if (client, analysis, b) in by_key
        )

    # The paper's directional claims, on aggregate step counts:
    for client in CLIENT_NAMES:
        assert total(client, "DYNSUM") <= total(client, "NOREFINE"), client
    # DYNSUM beats REFINEPTS overall on the cast/factory clients.
    assert total("SafeCast", "DYNSUM") < total("SafeCast", "REFINEPTS")
    assert total("FactoryM", "DYNSUM") < total("FactoryM", "REFINEPTS")
