"""Experiment runner: executes the paper's measurement protocols.

Three entry points mirror the evaluation section:

* :func:`run_client` — one (benchmark, client, analysis) cell of Table 4:
  issue every query, record wall time, deterministic traversal steps and
  verdict counts;
* :func:`run_batches` — Figure 4: split the queries into 10 batches and
  time each batch per analysis (fresh analysis per *protocol*, shared
  DYNSUM cache across batches — that persistence is the whole point);
* :func:`run_summary_series` — Figure 5: cumulative DYNSUM summary count
  after each batch, normalised by STASUM's offline summary count.

All query traffic flows through the engine layer
(:class:`~repro.engine.core.PointsToEngine`); each entry point accepts
either an analysis instance (wrapped on the fly, as the shipped
benchmarks do) or a ready-made engine.  The paper's protocols issue the
published query streams verbatim, so the runner disables the scheduler's
dedup/reorder levers — ``benchmarks/bench_engine_batch.py`` measures what
they buy.

Wall-clock numbers vary with the host, so every result also carries the
step counts, which are deterministic given the program and query order.
"""

from dataclasses import dataclass, field

from repro.analysis.base import AnalysisConfig
from repro.bench.batching import split_batches
from repro.clients.base import SAFE, UNKNOWN, VIOLATION
from repro.engine import CachePolicy, EnginePolicy, PointsToEngine

#: Field-stack k-limit used by the experiment harness.
#:
#: The paper bounds queries only by the 75,000-step budget; on the
#: synthetic suite a small number of queries instead pump the field stack
#: through store/load webs and would burn the whole budget without
#: producing an answer.  Practical demand-driven tools k-limit the field
#: abstraction for exactly this reason, so the harness does too: queries
#: that exceed the depth abort early and are answered conservatively
#: ("unknown"), identically for every analysis.  Library users get the
#: unbounded default unless they opt in.
BENCH_FIELD_DEPTH_LIMIT = 16


def bench_analysis_config(budget=None):
    """The :class:`AnalysisConfig` used by all shipped experiments."""
    if budget is None:
        return AnalysisConfig(max_field_depth=BENCH_FIELD_DEPTH_LIMIT)
    return AnalysisConfig(budget=budget, max_field_depth=BENCH_FIELD_DEPTH_LIMIT)


def bench_engine_policy(analysis="DYNSUM", cache=None):
    """The :class:`~repro.engine.policy.EnginePolicy` counterpart of
    :func:`bench_analysis_config`: same k-limit, any analysis/cache."""
    return EnginePolicy(
        analysis=analysis,
        max_field_depth=BENCH_FIELD_DEPTH_LIMIT,
        cache=cache or CachePolicy(),
    )


@dataclass
class BenchmarkInstance:
    """A generated benchmark ready for measurement."""

    name: str
    config: object
    program: object
    pag: object
    stats: object

    def client_queries(self, client_cls):
        client = client_cls(self.pag)
        return client, client.queries()

    def engine(self, policy=None):
        """A fresh :class:`~repro.engine.core.PointsToEngine` over this
        benchmark's PAG.  The default policy is
        :func:`bench_engine_policy` — the synthetic suite needs the
        harness's field-depth k-limit, like every other bench path."""
        return PointsToEngine(self.pag, policy or bench_engine_policy())


@dataclass
class ClientRun:
    """One Table 4 cell."""

    benchmark: str
    client: str
    analysis: str
    n_queries: int
    time_sec: float
    steps: int
    safe: int
    violations: int
    unknown: int

    @property
    def verdict_counts(self):
        return {SAFE: self.safe, VIOLATION: self.violations, UNKNOWN: self.unknown}


@dataclass
class BatchSeries:
    """Per-batch timings/steps for one (benchmark, client, analysis)."""

    benchmark: str
    client: str
    analysis: str
    batch_times: list = field(default_factory=list)
    batch_steps: list = field(default_factory=list)
    #: For DYNSUM: cumulative summary count after each batch.
    summary_counts: list = field(default_factory=list)
    #: Summary-cache hit rate per batch (empty for cache-less analyses).
    hit_rates: list = field(default_factory=list)


def _as_engine(analysis_or_engine):
    """Accept an analysis instance or an engine; always return an engine."""
    if isinstance(analysis_or_engine, PointsToEngine):
        return analysis_or_engine
    return PointsToEngine.wrap(analysis_or_engine)


def run_client(instance, client_cls, analysis, queries=None):
    """Run every query of ``client_cls`` through ``analysis`` (an
    analysis instance or a :class:`~repro.engine.core.PointsToEngine`)."""
    engine = _as_engine(analysis)
    client = client_cls(instance.pag)
    if queries is None:
        queries = client.queries()
    # Paper protocol: the published query stream, verbatim.
    verdicts, batch = engine.run_client(
        client, queries, dedupe=False, reorder=False
    )
    counts = {SAFE: 0, VIOLATION: 0, UNKNOWN: 0}
    for verdict in verdicts:
        counts[verdict.status] += 1
    return ClientRun(
        benchmark=instance.name,
        client=client.name,
        analysis=engine.analysis.name,
        n_queries=len(queries),
        time_sec=batch.stats.time_sec,
        steps=batch.stats.steps,
        safe=counts[SAFE],
        violations=counts[VIOLATION],
        unknown=counts[UNKNOWN],
    )


def run_batches(instance, client_cls, analysis, n_batches=10):
    """Figure 4 protocol for one analysis: time each batch in sequence.

    The engine (and thus the analysis and its summary cache) persists
    across batches, so DYNSUM's cache warms up while NOREFINE/REFINEPTS
    pay full price every batch.
    """
    engine = _as_engine(analysis)
    client = client_cls(instance.pag)
    queries = client.queries()
    series = BatchSeries(
        benchmark=instance.name, client=client.name, analysis=engine.analysis.name
    )
    for batch_queries in split_batches(queries, n_batches):
        _verdicts, batch = engine.run_client(
            client, batch_queries, dedupe=False, reorder=False
        )
        series.batch_times.append(batch.stats.time_sec)
        series.batch_steps.append(batch.stats.steps)
        if hasattr(engine.analysis, "summary_count"):
            series.summary_counts.append(engine.analysis.summary_count)
        if engine.cache is not None:
            series.hit_rates.append(batch.stats.hit_rate)
    return series


def run_summary_series(instance, client_cls, dynsum, stasum, n_batches=10):
    """Figure 5 protocol: cumulative |Cache| after each batch, plus the
    STASUM denominator.

    Returns ``(series, stasum_total)`` where ``series.summary_counts[i]``
    is DYNSUM's cache size after batch ``i`` and ``stasum_total`` is the
    number of summaries STASUM computed offline.
    """
    series = run_batches(instance, client_cls, dynsum, n_batches)
    return series, stasum.summary_count


def speedup(baseline_run, other_run, use_steps=False):
    """``baseline / other`` — how much faster ``other`` is.

    ``use_steps=True`` compares deterministic step counts instead of wall
    time (recommended for CI assertions)."""
    if use_steps:
        numerator, denominator = baseline_run.steps, other_run.steps
    else:
        numerator, denominator = baseline_run.time_sec, other_run.time_sec
    if denominator == 0:
        return float("inf")
    return numerator / denominator
