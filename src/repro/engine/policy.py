"""Per-engine policy objects: analysis choice, budget, cache bounds.

A :class:`PointsToEngine` is configured once, with an immutable
:class:`EnginePolicy`, instead of threading budget/cache/analysis options
through every call site.  The policy names one of the repo's analyses
(``DYNSUM``, ``STASUM``, ``REFINEPTS``, ``NOREFINE``, ``CIPTA``), carries
the :class:`~repro.analysis.base.AnalysisConfig` tunables, and — for the
summary-based analyses — a :class:`CachePolicy` choosing between the
paper's unbounded ``Cache`` and the size-capped LRU store a long-running
host needs.
"""

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.analysis.base import AnalysisConfig
from repro.analysis.cipta import ContextInsensitivePta
from repro.analysis.ppta import TRAVERSAL_IMPLS
from repro.analysis.dynsum import DynSum
from repro.analysis.norefine import NoRefine
from repro.analysis.refinepts import RefinePts
from repro.analysis.stasum import StaSum
from repro.analysis.summaries import make_summary_store
from repro.cfl.budget import DEFAULT_BUDGET

#: Registry of engine-drivable analyses, keyed by their Table 2 names.
ANALYSES = {
    cls.name: cls
    for cls in (DynSum, StaSum, RefinePts, NoRefine, ContextInsensitivePta)
}


def resolve_analysis(name):
    """Map an analysis name (any case, ``-``/``_`` tolerated) to its class."""
    key = name.upper().replace("-", "").replace("_", "")
    try:
        return ANALYSES[key]
    except KeyError:
        known = ", ".join(sorted(ANALYSES))
        raise KeyError(f"unknown analysis {name!r}; known: {known}") from None


@dataclass(frozen=True)
class CachePolicy:
    """Bounding and backend policy for the summary store.

    Both limits ``None`` (the default) selects the paper's unbounded
    :class:`~repro.analysis.summaries.SummaryCache`; setting either picks
    the LRU :class:`~repro.analysis.summaries.BoundedSummaryCache`.  LRU
    is the only capacity policy: evicting a memo moves only cost, and
    LRU was the fastest policy measured on bounded Figure-4 replays.

    ``remote`` joins the store to a shared cache service: a tuple of
    ``"host:port"`` addresses, one per shard server, in shard order
    (what ``repro-cached`` prints on startup).  The local store the
    other knobs configure becomes the **local tier** of a
    :class:`~repro.cacheserver.client.RemoteSummaryCache`.  Every
    query, alias check and batch prefetches each shard's new entries in
    one round trip, treats a local miss as final, and flushes its new
    summaries per shard at its end, so it costs O(shards) round trips
    (a single ``query()`` or ``alias()`` is a one-query batch).
    Misses, timeouts or a dead service fall back to local computation
    — answers are identical with the service up, down, or killed
    mid-batch.
    ``remote_timeout`` is the per-operation socket timeout in seconds.
    """

    max_entries: Optional[int] = None
    max_facts: Optional[int] = None
    remote: Optional[Tuple[str, ...]] = None
    remote_timeout: float = 1.0
    #: Unified retry/backoff for the remote tier: a
    #: :class:`~repro.cacheserver.faults.RetryPolicy` (frozen, so the
    #: cache policy stays hashable) driving every shard link's circuit
    #: breaker — jittered exponential backoff instead of the legacy
    #: fixed interval.  ``None`` derives one from ``remote_timeout``.
    retry: Optional[object] = None
    #: Deterministic fault injection for the remote tier's client side:
    #: a :class:`~repro.cacheserver.faults.FaultSchedule` or a spec
    #: string (the ``--faults`` grammar).  ``None`` (production) defers
    #: to the ``REPRO_FAULTS`` environment variable, itself normally
    #: unset.  Injected faults flow through exactly the fail-open paths
    #: real network failures take, so answers are unchanged — only
    #: ``stats()``'s ``faults``/``degraded`` accounting shows the chaos.
    fault_schedule: Optional[object] = None

    def __post_init__(self):
        if self.fault_schedule is not None and self.remote is None:
            raise ValueError(
                "CachePolicy(fault_schedule=...) injects faults into the "
                "remote tier; it needs remote=... shard addresses"
            )
        if self.retry is not None and self.remote is None:
            raise ValueError(
                "CachePolicy(retry=...) drives the remote tier's shard "
                "links; it needs remote=... shard addresses"
            )
        if self.remote is not None:
            # Tolerate a list (or any iterable of addresses); the policy
            # itself must stay hashable, so normalise to a tuple.
            object.__setattr__(self, "remote", tuple(self.remote))
            if not self.remote:
                raise ValueError("remote=() names no shard servers; use None")

    @property
    def bounded(self):
        return self.max_entries is not None or self.max_facts is not None

    def make_store(self):
        """Instantiate the configured store."""
        store = make_summary_store(self.max_entries, self.max_facts)
        if self.remote is not None:
            # Imported lazily: repro.cacheserver rides the repro.api
            # package, which imports the engine — a module-level import
            # here would be circular.
            from repro.cacheserver.client import RemoteSummaryCache

            return RemoteSummaryCache(
                self.remote,
                local=store,
                timeout=self.remote_timeout,
                retry=self.retry,
                fault_schedule=self.fault_schedule,
            )
        return store


@dataclass(frozen=True)
class EnginePolicy:
    """Everything a :class:`~repro.engine.core.PointsToEngine` is allowed
    to decide on the caller's behalf.

    ``dedupe`` and ``reorder`` are the batch scheduler's defaults (both
    overridable per ``query_batch`` call): deduplication collapses
    repeated (node, context) queries onto one traversal, and reordering
    groups a batch's queries by method so consecutive queries hit
    still-warm summaries — which is what keeps hit rates high when the
    cache is LRU-bounded.  Reordering also plans across batches: the
    engine records, per method, how recently earlier batches touched
    it, and schedules a later batch's hottest methods first, so
    summaries still resident in a bounded store are re-used before
    colder work evicts them.  The shipped paper protocols disable both
    to stay faithful to the published query streams.
    """

    analysis: str = DynSum.name
    budget: int = DEFAULT_BUDGET
    max_field_depth: Optional[int] = None
    track_heap_contexts: bool = True
    cache: CachePolicy = field(default_factory=CachePolicy)
    dedupe: bool = True
    reorder: bool = True
    #: Which PPTA traversal implementation the engine's queries run
    #: under (``array``/``native``/``reference``).  ``None`` (the
    #: default) leaves the process-global selection alone — ``native``
    #: unless a :func:`repro.analysis.ppta.traversal_impl` scope says
    #: otherwise.  Setting it pins the impl for this engine's query
    #: paths only (applied as a scoped override around each
    #: query/batch, not a global mutation).  The ``native`` impl
    #: degrades to ``array`` silently when the kernel cannot load or
    #: does not mirror the engine's summary store — answers never
    #: change, and ``stats()`` reports the reason as
    #: ``native_unavailable``.
    traversal_impl: Optional[str] = None
    #: Path to a :mod:`repro.api.snapshot` summary-snapshot file; when
    #: set, a freshly constructed engine replays the snapshot's entries
    #: into its summary store before answering any query, so a restarted
    #: host (or CI run) begins warm.  Entries that no longer resolve in
    #: the engine's PAG are skipped — summaries are pure memos, so a
    #: partial warm start can only change cost, never answers.
    warm_start: Optional[str] = None

    def __post_init__(self):
        if (
            self.traversal_impl is not None
            and self.traversal_impl not in TRAVERSAL_IMPLS
        ):
            known = ", ".join(sorted(TRAVERSAL_IMPLS))
            raise ValueError(
                f"unknown traversal impl {self.traversal_impl!r}; "
                f"known: {known}"
            )

    def analysis_class(self):
        return resolve_analysis(self.analysis)

    def make_store(self):
        """The summary store the cache policy configures."""
        return self.cache.make_store()

    def analysis_config(self):
        return AnalysisConfig(
            budget=self.budget,
            max_field_depth=self.max_field_depth,
            track_heap_contexts=self.track_heap_contexts,
        )

    def make_analysis(self, pag, cache=None):
        """Instantiate the configured analysis over ``pag``.

        ``cache`` overrides the cache policy (used to share one summary
        store between engines modelling one host process).
        """
        cls = self.analysis_class()
        config = self.analysis_config()
        if cls is DynSum:
            return cls(pag, config, cache=cache or self.make_store())
        return cls(pag, config)
