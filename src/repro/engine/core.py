"""The :class:`PointsToEngine` — one session-oriented front door.

Every analysis in the repo answers one query at a time; the engine turns
that into the service a long-running host (the paper's IDE/JIT scenario,
Sections 1 and 5.3) actually needs:

* ``engine.query(v)`` / ``engine.query_name(m, v)`` — single demand
  queries, by PAG node or by name;
* ``engine.query_batch(vs)`` — the batch path: requests are deduplicated,
  ordered for summary-cache warmth, executed one after another on the
  calling thread, and fanned back out in request order, with per-batch
  stats mirroring the Figure 4/5 protocol;
* ``engine.alias(a, b)`` — may-alias queries;
* ``engine.run_client(cls)`` — a whole client workload through the batch
  path;
* ``engine.edit_session()`` — code edits that patch the PAG in place and
  invalidate only the summaries they can stale (program-backed DYNSUM
  engines);
* ``engine.stats()`` — a point-in-time snapshot of query, step and cache
  accounting;
* ``engine.save_cache(path)`` and ``EnginePolicy(warm_start=path)`` —
  summary persistence via :mod:`repro.api.snapshot`: summaries are pure
  memos keyed by nominal node identity, so a restarted host or CI run
  replays them and begins warm.

Which analysis runs, its budget, and whether the summary cache is
unbounded or LRU-capped are all decided by the engine's immutable
:class:`~repro.engine.policy.EnginePolicy`.  The engine is the seam the
multi-process serving tiers build on: callers own sessions and policies,
never analysis internals.
"""

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

from repro.analysis.dynsum import DynSum
from repro.analysis.incremental import IncrementalAnalysisSession
from repro.analysis.ppta import active_traversal_impl, traversal_impl
from repro.cfl.stacks import EMPTY_STACK
from repro.engine.policy import EnginePolicy
from repro.engine.scheduler import (
    BatchResult,
    BatchStats,
    as_spec,
    plan_batch,
    spec_method,
)
from repro.engine.session import EditSession
from repro.util.errors import IRError
from repro.util.timer import Timer


@dataclass(frozen=True)
class EngineStats:
    """Snapshot of an engine's lifetime accounting.

    ``queries`` counts answered requests (deduplicated requests count —
    they were answered); ``executed`` counts traversals actually run.
    ``cache`` is a :class:`~repro.analysis.summaries.CacheStats` snapshot
    or ``None`` for cache-less analyses.
    """

    analysis: str
    queries: int
    executed: int
    batches: int
    deduped: int
    #: Steps/incomplete are accumulated by the engine itself, so they
    #: exclude any traffic a wrapped analysis answered before the engine
    #: existed.
    steps: int
    incomplete: int
    edits: int
    #: Snapshot of the summary store (it outlives edits, so its probe
    #: counters span every program version).
    cache: object = None
    #: Warm-start provenance: summaries replayed into (skipped out of)
    #: the store from ``EnginePolicy(warm_start=...)``, zero otherwise.
    warm_loaded: int = 0
    warm_skipped: int = 0
    #: Shared-cache provenance: a
    #: :class:`~repro.api.protocol.RemoteStoreStats` when the store is
    #: remote-backed (hit/miss/fallback counters of the service
    #: traffic), ``None`` for purely local stores.
    remote: object = None
    #: The PPTA traversal implementation this engine's queries run
    #: under: the policy's ``traversal_impl`` when pinned, else the
    #: process-global selection at snapshot time.
    traversal_impl: str = "native"
    #: Why the native kernel cannot serve this engine (``None`` when it
    #: can, or when the engine is not running under the ``native``
    #: impl).  A non-``None`` reason means the ``native`` selection is
    #: silently degrading to ``array`` — same answers, Python speed.
    native_unavailable: object = None

    @property
    def dedup_rate(self):
        return self.deduped / self.queries if self.queries else 0.0


def _store_batch(cache):
    """Run the body between ``cache``'s batch hooks, when it has them.

    Every query, alias check, batch and warm start runs this way.  A
    remote store's ``begin_batch`` prefetches the shards and its
    ``end_batch`` flushes what the body published, so the body costs
    O(shards) round trips; purely local stores define neither and pay
    nothing.  ``end_batch`` runs even when the body raises."""
    if getattr(cache, "begin_batch", None) is None:
        return nullcontext()
    return _hooked_batch(cache)


@contextmanager
def _hooked_batch(cache):
    cache.begin_batch()
    try:
        yield
    finally:
        cache.end_batch()


class PointsToEngine:
    """Batched, shared-cache query engine over one program's PAG."""

    def __init__(self, pag=None, policy=None, *, program=None, analysis=None):
        if sum(x is not None for x in (pag, program, analysis)) != 1:
            raise IRError(
                "construct a PointsToEngine from exactly one of: a PAG, "
                "a finalized program (program=...), or an existing "
                "analysis instance (analysis=...)"
            )
        if analysis is not None and policy is None:
            policy = EnginePolicy(analysis=analysis.name)
        self.policy = policy or EnginePolicy()
        self._incremental = None
        self._analysis = None
        if program is not None:
            if self.policy.analysis_class() is not DynSum:
                raise IRError(
                    "program-backed engines (edit support) require the "
                    "DYNSUM analysis; build a PAG yourself for "
                    f"{self.policy.analysis}"
                )
            self._incremental = IncrementalAnalysisSession(
                program,
                self.policy.analysis_config(),
                cache=self.policy.make_store(),
            )
        elif analysis is not None:
            self._analysis = analysis
        else:
            self._analysis = self.policy.make_analysis(pag)
        #: Lifetime counters (see :meth:`stats`).
        self.queries_answered = 0
        self.queries_executed = 0
        self.batches_run = 0
        self.queries_deduped = 0
        self.steps_total = 0
        self.incomplete_total = 0
        #: Warm-start accounting: summaries replayed into (skipped out
        #: of) the store from ``policy.warm_start``, zero otherwise.
        self.warm_loaded = 0
        self.warm_skipped = 0
        #: Cross-batch warmth statistics (method -> recency stamp) —
        #: the scheduler's carryover input; see ``query_batch``.
        self._method_warmth = {}
        self._warmth_clock = 0
        if self.policy.warm_start is not None:
            self._warm_start(self.policy.warm_start)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def wrap(cls, analysis, policy=None):
        """An engine fronting an existing analysis instance.

        The bench harness uses this to route the paper's protocols —
        which construct and share analysis objects — through the engine
        without changing what is measured.
        """
        return cls(analysis=analysis, policy=policy)

    @classmethod
    def for_program(cls, program, policy=None):
        """A program-backed engine: supports :meth:`edit_session`."""
        return cls(program=program, policy=policy)

    # ------------------------------------------------------------------
    # the session surface
    # ------------------------------------------------------------------
    @property
    def analysis(self):
        if self._incremental is not None:
            return self._incremental.analysis
        return self._analysis

    @property
    def pag(self):
        if self._incremental is not None:
            return self._incremental.pag
        return self._analysis.pag

    @property
    def cache(self):
        """The summary store, or ``None`` for cache-less analyses."""
        return getattr(self.analysis, "cache", None)

    @property
    def program(self):
        return self._incremental.program if self._incremental is not None else None

    def _traversal(self):
        """The scoped traversal-impl override for one query or batch.

        A pinned ``policy.traversal_impl`` is applied around each
        execution rather than mutated globally at construction, so two
        engines with different pins coexist in one process as long as
        one thread drives them — the underlying selection is
        process-global, like :func:`~repro.analysis.ppta.traversal_impl`
        itself.
        """
        if self.policy.traversal_impl is None:
            return nullcontext()
        return traversal_impl(self.policy.traversal_impl)

    def query(self, item, context=EMPTY_STACK, client=None):
        """Answer one points-to query.

        ``item`` may be a PAG node, a ``(method_qname, var_name)`` pair,
        a client :class:`~repro.clients.base.Query`, or a
        :class:`~repro.engine.scheduler.QuerySpec`.  The query runs
        between the store's batch hooks, as a one-query batch would.
        """
        spec = as_spec(item, self.pag, context)
        with self._traversal(), _store_batch(self.cache):
            result = self.analysis.points_to(
                spec.node, spec.context, client if client is not None else spec.client
            )
        self.queries_answered += 1
        self.queries_executed += 1
        self.steps_total += result.steps
        if not result.complete:
            self.incomplete_total += 1
        return result

    def query_name(self, method_qname, var_name, context=EMPTY_STACK, client=None):
        """Convenience wrapper resolving the PAG node by name."""
        return self.query((method_qname, var_name), context, client)

    def alias(self, a, b, context1=EMPTY_STACK, context2=EMPTY_STACK):
        """May-alias query between two variables (nodes or name pairs),
        run between the store's batch hooks."""
        node_a = as_spec(a, self.pag).node
        node_b = as_spec(b, self.pag).node
        self.queries_answered += 2
        self.queries_executed += 2
        with self._traversal(), _store_batch(self.cache):
            result = self.analysis.may_alias(node_a, node_b, context1, context2)
        self.steps_total += result.steps
        if result.verdict is None:
            self.incomplete_total += 1
        return result

    def query_batch(self, items, context=EMPTY_STACK, dedupe=None, reorder=None):
        """Answer a batch of queries; results align with request order.

        ``dedupe``/``reorder`` default to the engine policy.  The planned
        traversals run one after another on the calling thread, between
        the store's ``begin_batch``/``end_batch`` hooks.  Batching never
        changes answers — deduplicated requests share the identical
        result a sequential run would produce, and ordering only decides
        which traversals find the summary cache warm.  Returns a
        :class:`~repro.engine.scheduler.BatchResult` whose ``stats``
        mirror one batch of the Figure 4/5 protocol; each result's own
        ``stats`` covers exactly its traversal's cache probes.
        """
        dedupe = self.policy.dedupe if dedupe is None else dedupe
        reorder = self.policy.reorder if reorder is None else reorder
        pag = self.pag
        analysis = self.analysis
        specs = [as_spec(item, pag, context) for item in items]
        plan = plan_batch(
            specs,
            dedupe=dedupe,
            reorder=reorder,
            include_client=analysis.uses_client_predicate,
            warmth=self._method_warmth if reorder else None,
        )
        cache = self.cache
        hits_before = cache.hits if cache is not None else 0
        misses_before = cache.misses if cache is not None else 0
        evictions_before = getattr(cache, "evictions", 0) if cache is not None else 0
        summaries_before = len(cache) if cache is not None else 0
        steps_before = analysis.total_steps
        unique_results = [None] * len(plan.unique)

        # The store's batch hooks run INSIDE the timer: a remote
        # store's prefetch and flush round trips are this batch's cost,
        # and moving wire work out of the measurement window would make
        # batching look free.
        timer = Timer()
        with timer, self._traversal(), _store_batch(cache):
            for index in plan.order:
                spec = plan.unique[index]
                unique_results[index] = analysis.points_to(
                    spec.node, spec.context, spec.client
                )
        results = [unique_results[index] for index in plan.assignment]
        complete = sum(1 for r in unique_results if r.complete)
        stats = BatchStats(
            n_requests=plan.n_requests,
            n_unique=plan.n_unique,
            reordered=plan.reordered,
            steps=analysis.total_steps - steps_before,
            time_sec=timer.elapsed,
            complete=complete,
            incomplete=len(unique_results) - complete,
            cache_hits=(cache.hits - hits_before) if cache is not None else 0,
            cache_misses=(cache.misses - misses_before) if cache is not None else 0,
            summaries_before=summaries_before,
            summaries_after=len(cache) if cache is not None else 0,
            evictions=(
                (getattr(cache, "evictions", 0) - evictions_before)
                if cache is not None
                else 0
            ),
        )
        self.batches_run += 1
        self.queries_answered += plan.n_requests
        self.queries_executed += plan.n_unique
        self.queries_deduped += plan.n_deduped
        self.steps_total += stats.steps
        self.incomplete_total += stats.incomplete
        # Stamp this batch's traffic in execution order: the methods
        # executed last are the warmest at the next batch's planning
        # time (their summaries were touched most recently), so they
        # get the highest stamps and run first next time.
        for index in plan.order:
            self._warmth_clock += 1
            self._method_warmth[spec_method(plan.unique[index])] = self._warmth_clock
        return BatchResult(results, stats, plan)

    def run_client(self, client_or_cls, queries=None, **batch_kwargs):
        """Run a client workload through the batch path.

        Returns ``(verdicts, batch_result)``: one verdict per query, in
        the client's query order, plus the batch accounting.
        """
        client = (
            client_or_cls(self.pag)
            if isinstance(client_or_cls, type)
            else client_or_cls
        )
        return client.run_engine(self, queries, **batch_kwargs)

    # ------------------------------------------------------------------
    # persistence: summary snapshots (the repro.api.snapshot format)
    # ------------------------------------------------------------------
    def _require_cache(self, verb):
        cache = self.cache
        if cache is None:
            raise IRError(
                f"cannot {verb} a summary snapshot: analysis "
                f"{self.analysis.name} has no summary store"
            )
        return cache

    def _warm_start(self, path):
        """Replay a saved snapshot into the (fresh) summary store.

        Entries that no longer resolve in this engine's PAG are skipped
        — summaries are pure memos, so a partial warm start affects cost
        only.  The store's counters are untouched: warm-started entries
        answer future probes as hits, which is the whole point.  The
        replay runs between the store's batch hooks, so a remote store
        publishes it in one flush per shard.  The traversal image is
        compiled from this PAG on the first query, as on a cold start.
        """
        from repro.api.snapshot import load_snapshot

        cache = self._require_cache("warm-start from")
        snapshot = load_snapshot(path)
        with _store_batch(cache):
            self.warm_loaded, self.warm_skipped = snapshot.load_into(
                cache, self.pag, strict=False
            )

    def save_cache(self, path):
        """Write the summary store to ``path`` as a
        :class:`~repro.api.snapshot.SummarySnapshot` (canonical JSON).
        A later engine — same process or the next one — warms from it
        via ``EnginePolicy(warm_start=path)``.  Returns the snapshot."""
        from repro.api.snapshot import save_store

        return save_store(self._require_cache("save"), path)

    # ------------------------------------------------------------------
    # maintenance: edits and invalidation
    # ------------------------------------------------------------------
    def invalidate_method(self, method_qname):
        """Drop cached summaries of one method (0 for cache-less
        analyses); answers are unaffected, only recomputation cost."""
        invalidate = getattr(self.analysis, "invalidate_method", None)
        return invalidate(method_qname) if invalidate is not None else 0

    def edit_session(self):
        """An :class:`~repro.engine.session.EditSession` for applying
        code edits.  Requires a program-backed engine (``for_program``)."""
        if self._incremental is None:
            raise IRError(
                "edit sessions need a program-backed engine; construct "
                "with PointsToEngine.for_program(program) or "
                "PointsToEngine(program=...)"
            )
        return EditSession(self)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def stats(self):
        """A point-in-time :class:`EngineStats` snapshot.

        Steps and incomplete counts are the engine's own accumulation,
        so they keep growing across edits and never include pre-wrap
        traffic.
        """
        cache = self.cache
        remote_stats = getattr(cache, "remote_stats", None)
        impl = self.policy.traversal_impl or active_traversal_impl()
        native_unavailable = None
        if impl == "native":
            # Imported lazily: the probe is only meaningful (and the
            # kernel only worth loading) when native is actually the
            # selected impl.
            from repro.native.session import native_unavailable_reason

            native_unavailable = native_unavailable_reason(self.pag, cache)
        return EngineStats(
            analysis=self.analysis.name,
            queries=self.queries_answered,
            executed=self.queries_executed,
            batches=self.batches_run,
            deduped=self.queries_deduped,
            steps=self.steps_total,
            incomplete=self.incomplete_total,
            edits=self._incremental.edit_count if self._incremental else 0,
            cache=cache.stats_snapshot() if cache is not None else None,
            warm_loaded=self.warm_loaded,
            warm_skipped=self.warm_skipped,
            remote=remote_stats() if remote_stats is not None else None,
            traversal_impl=impl,
            native_unavailable=native_unavailable,
        )

    def __repr__(self):
        return (
            f"PointsToEngine({self.policy.analysis}, "
            f"{self.queries_answered} queries, {self.batches_run} batches)"
        )
