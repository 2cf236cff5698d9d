"""Tests for the bounded (LRU) summary cache and its composition with
method-granular invalidation and live analyses.

The load-bearing property throughout: a summary is a pure memo, so
*neither eviction nor invalidation may ever change an answer* — only the
cost of recomputing it.
"""

import importlib
import inspect
import random

import pytest

from repro import (
    AnalysisConfig,
    BoundedSummaryCache,
    CachePolicy,
    DynSum,
    IncrementalAnalysisSession,
    PointsToEngine,
    SummaryCache,
    build_pag,
    parse_program,
)
from repro.analysis.ppta import PptaResult
from repro.bench.batching import split_batches
from repro.bench.runner import bench_engine_policy
from repro.bench.suite import load_benchmark
from repro.cfl.rsm import S1
from repro.cfl.stacks import EMPTY_STACK
from repro.pag.nodes import LocalNode

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
  }
}
"""


def node(method="C.m", name="x"):
    return LocalNode(method, name)


def summary(n_objects=1):
    return PptaResult(tuple(f"o{i}" for i in range(n_objects)), ())


@pytest.fixture(scope="module")
def pag():
    return build_pag(parse_program(SOURCE))


class TestLruOrder:
    def test_evicts_least_recently_used(self):
        cache = BoundedSummaryCache(max_entries=2)
        a, b, c = node(name="a"), node(name="b"), node(name="c")
        cache.store(a, EMPTY_STACK, S1, summary())
        cache.store(b, EMPTY_STACK, S1, summary())
        cache.store(c, EMPTY_STACK, S1, summary())  # evicts a
        assert (a, EMPTY_STACK, S1) not in cache
        assert (b, EMPTY_STACK, S1) in cache
        assert (c, EMPTY_STACK, S1) in cache
        assert cache.evictions == 1

    def test_lookup_refreshes_recency(self):
        cache = BoundedSummaryCache(max_entries=2)
        a, b, c = node(name="a"), node(name="b"), node(name="c")
        cache.store(a, EMPTY_STACK, S1, summary())
        cache.store(b, EMPTY_STACK, S1, summary())
        cache.lookup(a, EMPTY_STACK, S1)  # a is now most recent
        cache.store(c, EMPTY_STACK, S1, summary())  # evicts b, not a
        assert (a, EMPTY_STACK, S1) in cache
        assert (b, EMPTY_STACK, S1) not in cache

    def test_duplicate_store_refreshes_recency(self):
        """Regression: re-storing a resident summary must refresh LRU
        recency — a hot, just-recomputed summary that happened to be
        stored twice used to stay in its stale slot and get evicted
        first."""
        cache = BoundedSummaryCache(max_entries=2)
        a, b, c = node(name="a"), node(name="b"), node(name="c")
        cache.store(a, EMPTY_STACK, S1, summary())
        cache.store(b, EMPTY_STACK, S1, summary())
        cache.store(a, EMPTY_STACK, S1, summary())  # a is now most recent
        cache.store(c, EMPTY_STACK, S1, summary())  # must evict b, not a
        assert (a, EMPTY_STACK, S1) in cache
        assert (b, EMPTY_STACK, S1) not in cache
        assert (c, EMPTY_STACK, S1) in cache
        # The duplicate store kept the store's accounting intact.
        assert len(cache) == 2
        assert cache.evictions == 1

    def test_entries_iterate_lru_first(self):
        cache = BoundedSummaryCache(max_entries=3)
        a, b = node(name="a"), node(name="b")
        cache.store(a, EMPTY_STACK, S1, summary())
        cache.store(b, EMPTY_STACK, S1, summary())
        cache.lookup(a, EMPTY_STACK, S1)
        first_key, _ = next(iter(cache.entries()))
        assert first_key[0] is b

    @pytest.mark.parametrize(
        "caps",
        [
            {"max_entries": 6},
            {"max_facts": 12},
            {"max_entries": 6, "max_facts": 12},
        ],
        ids=["entries", "facts", "both"],
    )
    def test_matches_a_reference_model_on_a_random_workload(self, caps):
        """A seeded mix of stores (new keys, equal and differing
        payloads), hits, misses and method invalidations, replayed on a
        dict model of the LRU rule: after every op both hold the same
        keys in the same order (coldest first), the same fact total and
        the same eviction count."""
        rng = random.Random(20260728)
        cache = BoundedSummaryCache(**caps)
        max_entries = caps.get("max_entries")
        max_facts = caps.get("max_facts")
        keys = [
            (node(method, f"v{i}"), EMPTY_STACK, S1)
            for method in ("A.m", "B.n")
            for i in range(8)
        ]
        model = {}  # key -> facts, coldest first
        evictions = 0
        for op in range(800):
            key = rng.choice(keys)
            roll = rng.random()
            if roll < 0.5:
                size = 1 + rng.randrange(4)
                cache.store(*key, summary(size))
                model.pop(key, None)
                model[key] = size
                while len(model) > 1 and (
                    (max_entries is not None and len(model) > max_entries)
                    or (max_facts is not None and sum(model.values()) > max_facts)
                ):
                    del model[next(iter(model))]
                    evictions += 1
            elif roll < 0.92:
                hit = cache.lookup(*key)
                assert (hit is not None) == (key in model), op
                if key in model:
                    model[key] = model.pop(key)
            else:
                method = key[0].method
                gone = [k for k in model if k[0].method == method]
                assert cache.invalidate_method(method) == len(gone), op
                for k in gone:
                    del model[k]
            coldest = [k for k, _ in cache.entries_by_recency(hottest_first=False)]
            assert coldest == list(model), op
            assert cache.total_facts() == sum(model.values())
            assert cache.evictions == evictions
        assert evictions > 0


class TestSizeCaps:
    def test_entry_cap_enforced(self):
        cache = BoundedSummaryCache(max_entries=3)
        for i in range(10):
            cache.store(node(name=f"v{i}"), EMPTY_STACK, S1, summary())
        assert len(cache) == 3
        assert cache.evictions == 7

    def test_fact_cap_enforced(self):
        cache = BoundedSummaryCache(max_facts=10)
        for i in range(10):
            cache.store(node(name=f"v{i}"), EMPTY_STACK, S1, summary(3))
        assert cache.total_facts() <= 10

    def test_single_oversized_entry_is_kept(self):
        cache = BoundedSummaryCache(max_facts=2)
        cache.store(node(name="big"), EMPTY_STACK, S1, summary(50))
        assert len(cache) == 1  # keeping it beats thrashing

    def test_invalid_caps_rejected(self):
        with pytest.raises(ValueError):
            BoundedSummaryCache(max_entries=0)
        with pytest.raises(ValueError):
            BoundedSummaryCache(max_facts=0)

    def test_stats_snapshot_accounting(self):
        cache = BoundedSummaryCache(max_entries=2)
        nodes = [node(name=f"v{i}") for i in range(4)]
        for key_node in nodes:
            cache.store(key_node, EMPTY_STACK, S1, summary(2))
        cache.lookup(nodes[3], EMPTY_STACK, S1)
        cache.lookup(nodes[0], EMPTY_STACK, S1)  # evicted -> miss
        snap = cache.stats_snapshot()
        assert snap.entries == 2
        assert snap.facts == 4
        assert snap.evictions == 2
        assert snap.hits == 1 and snap.misses == 1
        assert snap.hit_rate == 0.5
        assert snap.bounded and snap.max_entries == 2
        assert snap.approx_bytes > 0


class TestEvictionNeverChangesAnswers:
    def test_requery_after_eviction_equals_pre_eviction(self, pag):
        """Re-querying after (forced) eviction must reproduce the exact
        pre-eviction result: same pairs, same completeness."""
        unbounded = DynSum(pag, AnalysisConfig())
        tiny = DynSum(pag, AnalysisConfig(), cache=BoundedSummaryCache(max_entries=1))
        queries = [("Main.main", "d"), ("Main.main", "c"), ("Main.main", "rex")]
        baseline = {}
        for method, var in queries:
            baseline[(method, var)] = unbounded.points_to_name(method, var)
        # Two warm passes over the tiny cache: constant eviction churn.
        for _round in range(2):
            for method, var in queries:
                result = tiny.points_to_name(method, var)
                expected = baseline[(method, var)]
                assert result.pairs == expected.pairs, (method, var)
                assert result.complete == expected.complete
        assert tiny.cache.evictions > 0  # the cap actually bit

    def test_cap_holds_during_analysis(self, pag):
        cache = BoundedSummaryCache(max_entries=2)
        analysis = DynSum(pag, AnalysisConfig(), cache=cache)
        for var in ("d", "c"):
            analysis.points_to_name("Main.main", var)
            assert len(cache) <= 2

    @pytest.mark.parametrize(
        "name, client_name, cap",
        [("jython", "NullDeref", 400), ("soot-c", "SafeCast", 200)],
    )
    def test_bounded_figure4_replay_answers_like_unbounded(
        self, name, client_name, cap
    ):
        """A Figure-4 client's queries in 10 batches on one engine,
        under a fact cap far below the unbounded store's size: every
        verdict equals the unbounded engine's, the cap holds, and the
        evictions cost recomputation steps, never answers."""
        from repro.clients import ALL_CLIENTS

        client_cls = {cls.name: cls for cls in ALL_CLIENTS}[client_name]
        instance = load_benchmark(name, scale=1.0)
        client = client_cls(instance.pag)
        batches = split_batches(client.queries(), 10)
        runs = {}
        for label, cache in (
            ("unbounded", CachePolicy()),
            ("bounded", CachePolicy(max_facts=cap)),
        ):
            engine = PointsToEngine(instance.pag, bench_engine_policy(cache=cache))
            steps, verdicts = 0, []
            for batch in batches:
                batch_verdicts, result = client.run_engine(
                    engine, batch, dedupe=False, reorder=False
                )
                steps += result.stats.steps
                verdicts.extend(batch_verdicts)
            runs[label] = (verdicts, steps, engine.cache)
        (plain, plain_steps, plain_store), (capped, capped_steps, store) = (
            runs["unbounded"], runs["bounded"]
        )
        assert capped == plain
        assert plain_store.total_facts() > cap
        assert store.total_facts() <= cap
        assert store.evictions > 0
        assert capped_steps > plain_steps


class TestInvalidationAndEviction:
    def test_invalidate_counts_only_resident_entries(self):
        """Entries the LRU policy already evicted are not double-counted
        (nor resurrected) by a later method invalidation."""
        cache = BoundedSummaryCache(max_entries=2)
        for i in range(5):
            cache.store(node("C.m", f"v{i}"), EMPTY_STACK, S1, summary())
        assert cache.evictions == 3
        assert cache.invalidate_method("C.m") == 2
        assert len(cache) == 0
        assert cache.invalidate_method("C.m") == 0

    def test_eviction_unindexes_method(self):
        cache = BoundedSummaryCache(max_entries=1)
        cache.store(node("C.m", "a"), EMPTY_STACK, S1, summary())
        cache.store(node("D.n", "b"), EMPTY_STACK, S1, summary())  # evicts C.m
        assert cache.invalidate_method("C.m") == 0
        assert cache.invalidate_method("D.n") == 1

    def test_fact_cap_evictions_and_invalidation_compose(self):
        """Under a fact cap, a wide insert evicts several residents at
        once; a later invalidation drops only the survivors of that
        method, and the method index keeps no evicted key."""
        cache = BoundedSummaryCache(max_facts=6)
        for i in range(3):
            cache.store(node("C.m", f"v{i}"), EMPTY_STACK, S1, summary(2))
        cache.store(node("D.n", "w"), EMPTY_STACK, S1, summary(4))  # evicts 2
        assert cache.evictions == 2
        assert (len(cache), cache.total_facts()) == (2, 6)
        assert cache.invalidate_method("C.m") == 1
        assert cache.invalidated == 1
        assert (len(cache), cache.total_facts()) == (1, 4)
        assert "C.m" not in cache._by_method
        assert cache.invalidate_method("D.n") == 1
        assert cache._by_method == {} and cache.total_facts() == 0

    def test_invalidate_then_requery_same_answer(self, pag):
        cache = BoundedSummaryCache(max_entries=4)
        analysis = DynSum(pag, AnalysisConfig(), cache=cache)
        before = analysis.points_to_name("Main.main", "d")
        analysis.invalidate_method("Kennel.get")
        after = analysis.points_to_name("Main.main", "d")
        assert after.pairs == before.pairs

    def test_incremental_session_preserves_cache_policy(self):
        """An edit patches the PAG in place; the live cache keeps its
        bounds, and answers must be unchanged."""
        session = IncrementalAnalysisSession(
            parse_program(SOURCE), cache=BoundedSummaryCache(max_entries=8)
        )
        before = session.points_to_name("Main.main", "d")
        session.edit("Kennel.put", lambda method: None)
        cache = session.analysis.cache
        assert isinstance(cache, BoundedSummaryCache)
        assert cache.max_entries == 8
        after = session.points_to_name("Main.main", "d")
        # Node identity is per-PAG, so compare by stable labels.
        assert sorted(repr(o) for o in after.objects) == sorted(
            repr(o) for o in before.objects
        )


class TestOnePolicy:
    """LRU is the only capacity policy: no layer takes an ``eviction``
    argument, and a caller that still passes one fails loudly."""

    def test_no_layer_takes_an_eviction_argument(self):
        from repro.analysis.summaries import make_summary_store
        from repro.api.snapshot import SummarySnapshot
        from repro.cacheserver.server import (
            CacheCluster,
            ShardDispatcher,
            ShardServer,
        )
        from repro.cacheserver.store import WireSummaryStore

        for layer in (
            CachePolicy,
            make_summary_store,
            WireSummaryStore,
            ShardDispatcher,
            ShardServer,
            CacheCluster.spawn,
            SummarySnapshot,
        ):
            assert "eviction" not in inspect.signature(layer).parameters, layer
        with pytest.raises(TypeError):
            CachePolicy(eviction="lru")
        assert type(CachePolicy(max_facts=100).make_store()) is BoundedSummaryCache

    @pytest.mark.parametrize(
        "module, argv",
        [
            ("repro.cacheserver.cli", []),
            ("repro.api.service", ["--program", "absent.pir"]),
            ("repro.cacheserver.workload", ["--program", "absent.pir"]),
        ],
        ids=["repro-cached", "repro-serve", "workload"],
    )
    def test_clis_reject_the_eviction_flag(self, capsys, module, argv):
        with pytest.raises(SystemExit) as exited:
            importlib.import_module(module).main([*argv, "--eviction", "lru"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "unrecognized arguments: --eviction lru" in err
