"""Demand-driven points-to analyses.

Four analyses share the PAG and the CFL machinery (Table 2 of the paper):

* :class:`~repro.analysis.norefine.NoRefine` — fully field-sensitive,
  context-sensitive CFL-reachability, no memoization (the paper's
  NOREFINE);
* :class:`~repro.analysis.refinepts.RefinePts` — Sridharan & Bodík's
  refinement-based analysis (Algorithms 1–2): starts field-based with
  *match edges*, refines on demand, caches only within a query;
* :class:`~repro.analysis.dynsum.DynSum` — the paper's contribution
  (Algorithms 3–4): PPTA summaries of local edges, cached
  context-independently across queries;
* :class:`~repro.analysis.stasum.StaSum` — static whole-program summaries
  computed offline (Yan et al.), bounded by a user threshold.

Plus :class:`~repro.analysis.cipta.ContextInsensitivePta`, the
context-insensitive formulation of Sridharan et al. (OOPSLA'05), used as a
baseline and in soundness tests.
"""

from repro.analysis.base import (
    AliasResult,
    AnalysisConfig,
    DemandPointsToAnalysis,
    QueryResult,
)
from repro.analysis.cipta import ContextInsensitivePta
from repro.analysis.incremental import EditReport, IncrementalAnalysisSession
from repro.analysis.dynsum import DynSum
from repro.analysis.norefine import NoRefine
from repro.analysis.ppta import PptaResult, run_ppta
from repro.analysis.refinepts import RefinePts
from repro.analysis.stasum import StaSum
from repro.analysis.summaries import (
    BoundedSummaryCache,
    CacheStats,
    SummaryBackend,
    SummaryCache,
    SummaryStore,
)
from repro.analysis.trace import QueryTracer, TraceStep, format_trace

__all__ = [
    "AliasResult",
    "AnalysisConfig",
    "BoundedSummaryCache",
    "CacheStats",
    "EditReport",
    "IncrementalAnalysisSession",
    "ContextInsensitivePta",
    "DemandPointsToAnalysis",
    "DynSum",
    "NoRefine",
    "PptaResult",
    "QueryResult",
    "RefinePts",
    "QueryTracer",
    "StaSum",
    "TraceStep",
    "format_trace",
    "SummaryBackend",
    "SummaryCache",
    "SummaryStore",
    "run_ppta",
]
