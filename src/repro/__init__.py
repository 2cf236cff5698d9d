"""repro — reproduction of "On-Demand Dynamic Summary-based Points-to
Analysis" (Shang, Xie & Xue, CGO 2012).

The library implements the full stack the paper sits on:

* a Java-like pointer IR with parser and builder (:mod:`repro.ir`);
* Andersen/RTA call-graph construction (:mod:`repro.callgraph`);
* the Pointer Assignment Graph (:mod:`repro.pag`);
* four demand-driven points-to analyses — NOREFINE, REFINEPTS, DYNSUM
  (the paper's contribution) and STASUM (:mod:`repro.analysis`);
* the three evaluation clients (:mod:`repro.clients`);
* the synthetic benchmark suite and experiment harness
  (:mod:`repro.bench`);
* the session-oriented query engine fronting all of the above
  (:mod:`repro.engine`): batched queries, bounded shared caches, edit
  sessions;
* the versioned wire API over the engine (:mod:`repro.api`):
  serializable queries/results, summary-store snapshots with engine
  warm start, and the ``repro-serve`` JSON-lines service;
* the process-level shared cache service (:mod:`repro.cacheserver`):
  shard-server processes serving summaries to many analysis processes
  behind the ``SummaryBackend`` store seam, with the ``repro-cached``
  launcher (engines opt in via ``CachePolicy(remote=...)``).

Quickstart::

    from repro import PointsToEngine, build_pag, parse_program

    engine = PointsToEngine(build_pag(parse_program(SOURCE)))
    result = engine.query_name("Main.main", "v")
    batch = engine.query_batch([("Main.main", "v"), ("Main.main", "w")])
    print(result.objects, batch.stats.hit_rate)

The analyses remain directly constructible (``DynSum(pag)`` etc.) for
low-level experimentation; the engine is the supported surface for hosts.
"""

from repro.analysis import (
    AliasResult,
    AnalysisConfig,
    ContextInsensitivePta,
    DynSum,
    EditReport,
    IncrementalAnalysisSession,
    NoRefine,
    QueryResult,
    QueryTracer,
    RefinePts,
    StaSum,
    SummaryCache,
    format_trace,
)
from repro.analysis.summaries import (
    BoundedSummaryCache,
    CacheStats,
    SummaryBackend,
    SummaryStore,
)
from repro.api import (
    PROTOCOL_VERSION,
    ProtocolError,
    SnapshotError,
    SummarySnapshot,
    WireError,
)
from repro.callgraph import AndersenAnalysis, CallGraph, rta_call_graph
from repro.cfl import EMPTY_STACK, Stack
from repro.engine import (
    BatchResult,
    BatchStats,
    CachePolicy,
    EditSession,
    EnginePolicy,
    EngineStats,
    PointsToEngine,
    QuerySpec,
)
from repro.clients import (
    ALL_CLIENTS,
    FactoryMethodClient,
    NullDerefClient,
    SafeCastClient,
)
from repro.ir import ProgramBuilder, parse_program, pretty_print
from repro.pag import PAG, build_pag, compute_statistics

__version__ = "1.3.0"


def __getattr__(name):
    # The names ``repro.api`` exports lazily (PEP 562) load through it.
    from repro import api

    if name not in api._LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(api, name)
    globals()[name] = value
    return value


__all__ = [
    "ALL_CLIENTS",
    "AliasResult",
    "AnalysisConfig",
    "AndersenAnalysis",
    "BatchResult",
    "BatchStats",
    "BoundedSummaryCache",
    "CachePolicy",
    "CacheStats",
    "CallGraph",
    "ContextInsensitivePta",
    "DynSum",
    "EMPTY_STACK",
    "EditReport",
    "EditSession",
    "EnginePolicy",
    "EngineStats",
    "FactoryMethodClient",
    "IncrementalAnalysisSession",
    "NoRefine",
    "NullDerefClient",
    "PAG",
    "PROTOCOL_VERSION",
    "PointsToEngine",
    "PointsToService",
    "ProgramBuilder",
    "ProtocolError",
    "QueryResult",
    "QuerySpec",
    "QueryTracer",
    "RefinePts",
    "SafeCastClient",
    "SnapshotError",
    "StaSum",
    "Stack",
    "SummaryBackend",
    "SummaryCache",
    "SummarySnapshot",
    "SummaryStore",
    "WireError",
    "build_pag",
    "compute_statistics",
    "parse_program",
    "pretty_print",
    "format_trace",
    "rta_call_graph",
    "__version__",
]
