"""Tests for the bounded (LRU) summary cache and its composition with
method-granular invalidation and live analyses.

The load-bearing property throughout: a summary is a pure memo, so
*neither eviction nor invalidation may ever change an answer* — only the
cost of recomputing it.
"""

import pytest

from repro import (
    AnalysisConfig,
    BoundedSummaryCache,
    DynSum,
    IncrementalAnalysisSession,
    SummaryCache,
    build_pag,
    parse_program,
)
from repro.analysis.ppta import PptaResult
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
