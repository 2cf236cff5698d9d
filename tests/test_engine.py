"""Tests for the engine layer: scheduler, policies, batch semantics.

The acceptance properties from the engine's design brief:

* ``query_batch`` over the Figure-4 workload (and over every shipped
  example program) produces **identical** points-to sets to sequential
  queries, while reporting a strictly higher summary-cache hit rate
  than cold per-query runs;
* a bounded cache honours its size cap without changing any answer.
"""

import pytest

from repro import (
    AnalysisConfig,
    BoundedSummaryCache,
    CachePolicy,
    DynSum,
    EnginePolicy,
    PointsToEngine,
    SummaryCache,
    build_pag,
    parse_program,
)
from repro.bench.runner import bench_analysis_config
from repro.bench.suite import load_benchmark
from repro.clients import ALL_CLIENTS, SafeCastClient
from repro.engine import QuerySpec, as_spec, plan_batch, resolve_analysis
from repro.engine.scheduler import warmth_key
from repro.util.errors import IRError

from conftest import EXAMPLE_PROGRAMS

SOURCE = """
class Animal { }
class Dog extends Animal { }
class Cat extends Animal { }

class Kennel {
  field occupant;
  method put(a) { this.occupant = a; }
  method get() {
    r = this.occupant;
    return r;
  }
}

class Main {
  static method main() {
    dogHouse = new Kennel;
    catHouse = new Kennel;
    rex = new Dog;
    tom = new Cat;
    dogHouse.put(rex);
    catHouse.put(tom);
    d = dogHouse.get();
    c = catHouse.get();
    sure = (Dog) d;
    oops = (Dog) c;
  }
}
"""


@pytest.fixture(scope="module")
def pag():
    return build_pag(parse_program(SOURCE))


@pytest.fixture(scope="module")
def figure4_instance():
    """One of the paper's Figure 4 programs (soot-c), test-sized."""
    return load_benchmark("soot-c", scale=0.5)


class TestScheduler:
    def test_dedupe_collapses_repeats(self, pag):
        d = pag.find_local("Main.main", "d")
        c = pag.find_local("Main.main", "c")
        plan = plan_batch([QuerySpec(d), QuerySpec(c), QuerySpec(d)])
        assert plan.n_requests == 3
        assert plan.n_unique == 2
        assert plan.n_deduped == 1
        assert plan.assignment[0] == plan.assignment[2]

    def test_no_dedupe_keeps_everything(self, pag):
        d = pag.find_local("Main.main", "d")
        plan = plan_batch([QuerySpec(d), QuerySpec(d)], dedupe=False)
        assert plan.n_unique == 2

    def test_reorder_groups_by_method(self, pag):
        specs = [
            QuerySpec(pag.find_local("Main.main", "d")),
            QuerySpec(pag.find_local("Kennel.get", "r")),
            QuerySpec(pag.find_local("Main.main", "c")),
        ]
        plan = plan_batch(specs, reorder=True)
        ordered = [warmth_key(plan.unique[i])[0] for i in plan.order]
        assert ordered == sorted(ordered)

    def test_no_reorder_preserves_order(self, pag):
        specs = [
            QuerySpec(pag.find_local("Main.main", "d")),
            QuerySpec(pag.find_local("Kennel.get", "r")),
        ]
        plan = plan_batch(specs, reorder=False)
        assert plan.order == [0, 1]
        assert not plan.reordered

    def test_untokenised_predicates_never_merge(self, pag):
        d = pag.find_local("Main.main", "d")
        plan = plan_batch(
            [QuerySpec(d, client=lambda objs: True), QuerySpec(d, client=lambda objs: False)]
        )
        assert plan.n_unique == 2

    def test_tokenised_predicates_merge_on_token(self, pag):
        d = pag.find_local("Main.main", "d")
        specs = [
            QuerySpec(d, client=lambda objs: True, token=("SafeCast", ("Dog",))),
            QuerySpec(d, client=lambda objs: True, token=("SafeCast", ("Dog",))),
            QuerySpec(d, client=lambda objs: True, token=("SafeCast", ("Cat",))),
        ]
        plan = plan_batch(specs, include_client=True)
        assert plan.n_unique == 2
        # Predicate-blind analyses may merge all three:
        assert plan_batch(specs, include_client=False).n_unique == 1

    def test_as_spec_normalises(self, pag):
        d = pag.find_local("Main.main", "d")
        assert as_spec(d, pag).node is d
        assert as_spec(("Main.main", "d"), pag).node is d
        spec = QuerySpec(d)
        assert as_spec(spec, pag) is spec
        query = SafeCastClient(pag).queries()[0]
        from_query = as_spec(query, pag)
        assert from_query.origin is query
        assert from_query.token == (query.client, query.payload)

    def test_as_spec_rejects_mixed_tuple(self, pag):
        """Regression: ("A.m", context_stack) used to slip through as a
        QuerySpec whose node was the bare string, deferring the failure
        to an AttributeError deep inside the traversal."""
        from repro.cfl.stacks import EMPTY_STACK

        with pytest.raises(IRError) as exc:
            as_spec(("Main.main", EMPTY_STACK), pag)
        message = str(exc.value)
        assert "cannot normalise batch item" in message
        assert "(method_qname, var_name)" in message
        assert "pag.find_local" in message
        # The engine surfaces the same clear error, not an AttributeError.
        with pytest.raises(IRError, match="cannot normalise batch item"):
            PointsToEngine(pag).query(("Main.main", EMPTY_STACK))


class TestPolicy:
    def test_resolve_analysis_names(self):
        assert resolve_analysis("dynsum").name == "DYNSUM"
        assert resolve_analysis("RefinePts").name == "REFINEPTS"
        with pytest.raises(KeyError):
            resolve_analysis("quake3")

    def test_cache_policy_selects_store(self):
        from repro import SummaryCache

        assert isinstance(CachePolicy().make_store(), SummaryCache)
        bounded = CachePolicy(max_entries=4).make_store()
        assert isinstance(bounded, BoundedSummaryCache)
        assert bounded.max_entries == 4

    def test_engine_per_analysis(self, pag):
        for name in ("DYNSUM", "STASUM", "REFINEPTS", "NOREFINE"):
            engine = PointsToEngine(pag, EnginePolicy(analysis=name))
            result = engine.query_name("Main.main", "d")
            assert sorted(o.class_name for o in result.objects) == ["Dog"]
        # CIPTA is context-insensitive: the two kennels conflate.
        cipta = PointsToEngine(pag, EnginePolicy(analysis="CIPTA"))
        merged = cipta.query_name("Main.main", "d")
        assert sorted(o.class_name for o in merged.objects) == ["Cat", "Dog"]

    def test_exactly_one_source_required(self, pag):
        with pytest.raises(IRError):
            PointsToEngine()
        with pytest.raises(IRError):
            PointsToEngine(pag, analysis=DynSum(pag))


class TestEngineBasics:
    def test_query_matches_analysis(self, pag):
        engine = PointsToEngine(pag)
        direct = DynSum(pag).points_to_name("Main.main", "d")
        assert engine.query_name("Main.main", "d").pairs == direct.pairs

    def test_alias(self, pag):
        engine = PointsToEngine(pag)
        assert engine.alias(("Main.main", "d"), ("Main.main", "rex")).verdict is True
        assert engine.alias(("Main.main", "d"), ("Main.main", "tom")).verdict is False

    def test_batch_results_align_with_requests(self, pag):
        engine = PointsToEngine(pag)
        batch = engine.query_batch(
            [("Main.main", "c"), ("Main.main", "d"), ("Main.main", "c")]
        )
        classes = [sorted(o.class_name for o in r.objects) for r in batch]
        assert classes == [["Cat"], ["Dog"], ["Cat"]]
        assert batch.results[0] is batch.results[2]  # deduplicated
        assert batch.stats.n_deduped == 1

    def test_run_client_matches_direct_run(self, pag):
        engine = PointsToEngine(pag)
        verdicts, batch = engine.run_client(SafeCastClient)
        direct = SafeCastClient(pag).run(DynSum(pag))
        assert [v.status for v in verdicts] == [v.status for v in direct]
        assert batch.stats.n_requests == len(direct)

    def test_invalidate_method(self, pag):
        engine = PointsToEngine(pag)
        before = engine.query_name("Main.main", "d")
        assert engine.invalidate_method("Kennel.get") > 0
        assert engine.query_name("Main.main", "d").pairs == before.pairs
        # Cache-less analyses no-op instead of failing:
        assert PointsToEngine(pag, EnginePolicy(analysis="NOREFINE")).invalidate_method(
            "Kennel.get"
        ) == 0

    def test_stats_snapshot(self, pag):
        engine = PointsToEngine(pag)
        engine.query_name("Main.main", "d")
        engine.query_batch([("Main.main", "d"), ("Main.main", "d")])
        stats = engine.stats()
        assert stats.analysis == "DYNSUM"
        assert stats.queries == 3
        assert stats.executed == 2  # batch deduped to one traversal
        assert stats.batches == 1
        assert stats.deduped == 1
        assert stats.cache is not None and stats.cache.entries > 0

    def test_edit_session_requires_program(self, pag):
        with pytest.raises(IRError):
            PointsToEngine(pag).edit_session()

    def test_edit_session_flow(self):
        engine = PointsToEngine.for_program(
            parse_program(SOURCE), EnginePolicy(cache=CachePolicy(max_entries=64))
        )
        session = engine.edit_session()
        before = engine.query_name("Main.main", "d")
        steps_before_edit = engine.stats().steps
        assert steps_before_edit > 0
        report = session.edit("Kennel.put", lambda method: None)
        assert session.edit_count == 1
        assert report.migrated > 0
        # The live store survives the edit, capacity policy and all.
        assert type(engine.cache) is BoundedSummaryCache
        assert engine.cache.max_entries == 64
        assert report.migrated == len(engine.cache)
        after = engine.query_name("Main.main", "d")
        assert sorted(repr(o) for o in after.objects) == sorted(
            repr(o) for o in before.objects
        )
        stats = engine.stats()
        assert stats.edits == 1
        # Lifetime accounting survives the analysis swap an edit performs.
        assert stats.steps > steps_before_edit
        assert stats.queries == 2

    def test_wrap_does_not_inherit_pre_engine_traffic(self, pag):
        analysis = DynSum(pag)
        analysis.points_to_name("Main.main", "d")  # pre-engine traffic
        engine = PointsToEngine.wrap(analysis)
        assert engine.stats().steps == 0
        engine.query_name("Main.main", "c")
        assert 0 < engine.stats().steps < analysis.total_steps


class _HookedCache(SummaryCache):
    """A plain store with batch hooks that log the probes (hits plus
    misses) and entries the store held when each hook ran."""

    def __init__(self):
        super().__init__()
        self.events = []

    def begin_batch(self):
        self.events.append(("begin", self.hits + self.misses, len(self)))

    def end_batch(self):
        self.events.append(("end", self.hits + self.misses, len(self)))


class TestBatchLoop:
    """``query_batch`` runs its planned traversals one after another on
    the calling thread, between the store's batch hooks; ``query`` and
    ``alias`` run between them too."""

    def test_hooks_bracket_every_traversal(self, pag):
        cache = _HookedCache()
        engine = PointsToEngine.wrap(DynSum(pag, cache=cache))
        batch = engine.query_batch(
            [("Main.main", "d"), ("Main.main", "c"), ("Kennel.get", "r")]
        )
        assert batch.stats.probes > 0
        assert cache.events == [
            ("begin", 0, 0),
            ("end", batch.stats.probes, batch.stats.summaries_after),
        ]

    def test_single_queries_and_alias_checks_are_one_query_batches(self, pag):
        cache = _HookedCache()
        engine = PointsToEngine.wrap(DynSum(pag, cache=cache))
        engine.query_name("Main.main", "d")
        probes, entries = cache.hits + cache.misses, len(cache)
        assert probes > 0
        engine.alias(("Main.main", "d"), ("Main.main", "c"))
        assert cache.events == [
            ("begin", 0, 0),
            ("end", probes, entries),
            ("begin", probes, entries),
            ("end", cache.hits + cache.misses, len(cache)),
        ]
        assert engine.stats().batches == 0

    def test_failing_traversal_propagates_and_still_ends_the_batch(self, pag):
        cache = _HookedCache()
        analysis = DynSum(pag, cache=cache)
        engine = PointsToEngine.wrap(analysis)
        answer = analysis.points_to
        calls = []

        def second_call_fails(node, context, client):
            calls.append(node)
            if len(calls) == 2:
                raise RuntimeError("traversal failed")
            return answer(node, context, client)

        analysis.points_to = second_call_fails
        items = [("Main.main", "d"), ("Main.main", "c"), ("Main.main", "rex")]
        with pytest.raises(RuntimeError, match="traversal failed"):
            engine.query_batch(items, reorder=False)
        assert len(calls) == 2  # the loop stops at the failure
        assert [event for event, _probes, _entries in cache.events] == [
            "begin", "end",
        ]
        assert engine.stats().batches == 0
        del analysis.points_to
        batch = engine.query_batch(items, reorder=False)
        classes = [sorted(o.class_name for o in r.objects) for r in batch]
        assert classes == [["Dog"], ["Cat"], ["Dog"]]
        assert engine.stats().batches == 1

    def test_reordered_batch_results_align_with_requests(self, pag):
        nodes = [
            pag.find_local("Main.main", "d"),
            pag.find_local("Kennel.get", "r"),
            pag.find_local("Main.main", "c"),
            pag.find_local("Kennel.put", "a"),
            pag.find_local("Main.main", "rex"),
        ]
        batch = PointsToEngine(pag).query_batch(nodes, dedupe=False, reorder=True)
        assert batch.stats.reordered
        assert [result.query for result in batch] == nodes
        reference = DynSum(pag)
        for node, result in zip(nodes, batch):
            assert result.pairs == reference.points_to(node).pairs, node

    def test_second_batch_reports_deltas_over_a_warm_store(self, pag):
        engine = PointsToEngine(pag)
        nodes = sorted(
            pag.local_var_nodes(), key=lambda n: (str(n.method), str(n.name))
        )
        first = engine.query_batch(nodes)
        second = engine.query_batch(nodes)
        store = engine.cache.stats_snapshot()
        assert first.stats.summaries_before == 0
        assert second.stats.summaries_before == first.stats.summaries_after
        assert second.stats.summaries_after == len(engine.cache)
        assert first.stats.probes + second.stats.probes == store.probes
        assert first.stats.cache_hits + second.stats.cache_hits == store.hits
        assert second.stats.steps < first.stats.steps
        assert engine.stats().steps == first.stats.steps + second.stats.steps
        for cold, warm in zip(first.results, second.results):
            assert warm.pairs == cold.pairs

    def test_cacheless_analysis_batches_without_store_traffic(self, pag):
        engine = PointsToEngine(pag, EnginePolicy(analysis="NOREFINE"))
        assert engine.cache is None
        batch = engine.query_batch([("Main.main", "d"), ("Main.main", "c")])
        stats = batch.stats
        assert (stats.cache_hits, stats.cache_misses, stats.evictions) == (0, 0, 0)
        assert (stats.summaries_before, stats.summaries_after) == (0, 0)
        assert stats.steps == engine.analysis.total_steps > 0
        classes = [sorted(o.class_name for o in r.objects) for r in batch]
        assert classes == [["Dog"], ["Cat"]]


def _workload(instance, client_cls):
    client = client_cls(instance.pag)
    return client, client.queries()


class TestAcceptance:
    """The engine's contract over a Figure-4 workload."""

    @pytest.mark.parametrize("client_cls", ALL_CLIENTS, ids=lambda c: c.name)
    def test_batch_equals_sequential(self, figure4_instance, client_cls):
        """Batched answers (dedup + reorder + shared cache) are identical
        to one-at-a-time queries on a fresh analysis."""
        instance = figure4_instance
        client, queries = _workload(instance, client_cls)

        engine = PointsToEngine(
            instance.pag, EnginePolicy(max_field_depth=16)
        )
        verdicts, batch = engine.run_client(client, queries)

        sequential = DynSum(instance.pag, bench_analysis_config())
        for query, batched in zip(queries, batch.results):
            reference = sequential.points_to(
                query.node(instance.pag), client=client.predicate(query)
            )
            assert batched.pairs == reference.pairs, query
            assert batched.complete == reference.complete, query
        assert [v.status for v in verdicts] == [
            v.status for v in client.run(DynSum(instance.pag, bench_analysis_config()))
        ]

    def test_batch_hit_rate_beats_cold_per_query(self, figure4_instance):
        """The shared-cache batch must report a strictly higher summary
        hit rate than cold per-query runs (fresh cache every query)."""
        instance = figure4_instance
        client, queries = _workload(instance, SafeCastClient)

        engine = PointsToEngine(instance.pag, EnginePolicy(max_field_depth=16))
        _verdicts, batch = engine.run_client(client, queries)

        cold_hits = cold_probes = 0
        for query in queries:
            cold = DynSum(instance.pag, bench_analysis_config())
            cold.points_to(query.node(instance.pag), client=client.predicate(query))
            cold_hits += cold.cache.hits
            cold_probes += cold.cache.hits + cold.cache.misses
        cold_rate = cold_hits / cold_probes if cold_probes else 0.0

        assert batch.stats.probes > 0
        assert batch.stats.hit_rate > cold_rate

    def test_bounded_cache_honours_cap_without_changing_answers(
        self, figure4_instance
    ):
        instance = figure4_instance
        client, queries = _workload(instance, SafeCastClient)

        cap = 32
        bounded_engine = PointsToEngine(
            instance.pag,
            EnginePolicy(max_field_depth=16, cache=CachePolicy(max_entries=cap)),
        )
        _verdicts, bounded = bounded_engine.run_client(client, queries)
        assert len(bounded_engine.cache) <= cap
        assert bounded_engine.cache.evictions > 0  # the cap actually bit

        reference = DynSum(instance.pag, bench_analysis_config())
        for query, result in zip(queries, bounded.results):
            expected = reference.points_to(
                query.node(instance.pag), client=client.predicate(query)
            )
            assert result.pairs == expected.pairs, query

    @pytest.mark.parametrize(
        "cache",
        [
            CachePolicy(),
            CachePolicy(max_entries=32),
            CachePolicy(max_facts=64),
        ],
        ids=["plain", "bounded", "facts-bounded"],
    )
    def test_per_result_probe_stats_sum_to_batch(self, figure4_instance, cache):
        """Each result's own ``stats`` counts its traversal's cache
        probes alone: over a ``dedupe=False`` batch they sum to the
        batch's probe deltas."""
        instance = figure4_instance
        client, queries = _workload(instance, SafeCastClient)
        engine = PointsToEngine(
            instance.pag, EnginePolicy(max_field_depth=16, cache=cache)
        )
        _verdicts, batch = engine.run_client(client, queries, dedupe=False)
        stats = batch.stats
        assert len(batch.results) == stats.n_unique == len(queries)
        assert stats.cache_hits > 0 and stats.cache_misses > 0
        # The batch's deltas are the store's own totals: the engine was
        # fresh, and nothing else probed.
        assert stats.probes == engine.cache.stats_snapshot().probes
        assert stats.summaries_before == 0
        assert stats.summaries_after == len(engine.cache)
        assert sum(r.stats["cache_hits"] for r in batch.results) == stats.cache_hits
        assert (
            sum(r.stats["cache_misses"] for r in batch.results)
            == stats.cache_misses
        )


#: Stores for the example-program battery.  The caps are tiny, so the
#: bounded stores evict on every shipped example.
EXAMPLE_CACHES = {
    "plain": CachePolicy(),
    "bounded": CachePolicy(max_entries=2),
    "facts-bounded": CachePolicy(max_facts=2),
}


class TestExamplePrograms:
    @pytest.mark.parametrize("name", sorted(EXAMPLE_PROGRAMS))
    @pytest.mark.parametrize("cache", sorted(EXAMPLE_CACHES))
    def test_batch_equals_sequential_on_example(self, cache, name):
        """Over every query a shipped example admits, a batch (dedupe,
        reorder, shared store, evictions) answers element-wise like
        one-at-a-time queries on a fresh unbounded analysis."""
        pag = build_pag(parse_program(EXAMPLE_PROGRAMS[name]))
        workload = sorted(
            pag.local_var_nodes(), key=lambda n: (str(n.method), str(n.name))
        )
        assert workload  # every shipped example has local variables
        engine = PointsToEngine(pag, EnginePolicy(cache=EXAMPLE_CACHES[cache]))
        batch = engine.query_batch(workload)
        reference = DynSum(pag, engine.analysis.config)
        assert len(batch) == len(workload)
        for node, result in zip(workload, batch.results):
            expected = reference.points_to(node)
            assert result.pairs == expected.pairs, node
            assert result.complete == expected.complete, node
        store = engine.cache
        if store.max_entries is not None:
            assert len(store) <= store.max_entries
        if store.max_facts is not None:
            # Exact, up to one oversized resident.
            assert store.total_facts() <= store.max_facts or len(store) == 1
        if store.max_entries is not None or store.max_facts is not None:
            assert batch.stats.evictions > 0
