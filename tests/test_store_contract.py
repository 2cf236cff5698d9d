"""One shared battery for every summary-store backend.

The engine treats every :class:`~repro.analysis.summaries
.SummaryBackend` as interchangeable — ``lookup``/``store``/
``invalidate_method``/``entries_by_recency``/``stats_snapshot`` with
exactly reconciling accounting.  This suite runs the same battery
against both local backends (unbounded and LRU-bounded, under both
caps and under a fact cap alone) **and** the remote-backed store stub
over live in-process shard servers — over each local-tier policy — so
no backend's surface can silently drift: a method added to the base
contract fails here until every backend grows it.  A seeded
differential then drives a local bounded store and a shard's wire store
through one op mix, under each kind of cap, and requires the same
residents after every op.
"""

import random

import pytest

from repro import BoundedSummaryCache, SummaryCache
from repro.analysis.ppta import PptaResult
from repro.analysis.summaries import SummaryStore
from repro.api.snapshot import entry_to_wire, key_to_wire
from repro.cacheserver.client import RemoteSummaryCache
from repro.cacheserver.server import ShardServer
from repro.cacheserver.store import WireSummaryStore, canonical_key, entry_key
from repro.cfl.rsm import S1, S2
from repro.cfl.stacks import EMPTY_STACK
from repro.pag.nodes import LocalNode, ObjectNode


def _bounded():
    return BoundedSummaryCache(max_entries=64, max_facts=4096)


def _facts_bounded():
    """LRU under a fact ceiling alone: no entry cap to fall back on."""
    return BoundedSummaryCache(max_facts=4096)


def _empty_like(store):
    """A fresh, empty store with ``store``'s policy and topology."""
    local = getattr(store, "local_tier", store)
    if isinstance(local, BoundedSummaryCache):
        fresh = type(local)(max_entries=local.max_entries, max_facts=local.max_facts)
    else:
        fresh = SummaryCache()
    if local is store:
        return fresh
    return RemoteSummaryCache(store.addresses, local=fresh, timeout=2.0)


#: name -> (factory, is_lru): caps are generous enough that the battery
#: never evicts, so accounting assertions hold for every variant alike.
STORE_VARIANTS = {
    "unbounded": (SummaryCache, False),
    "bounded": (_bounded, True),
    "facts-bounded": (_facts_bounded, True),
}

#: Remote-backed variants, each built per test over two fresh shard
#: servers: name -> (local-tier factory, is_lru).  The bounded ones
#: carry the local tier that ``CachePolicy(remote=..., max_entries=...)``
#: wraps.
REMOTE_VARIANTS = {
    "remote": (SummaryCache, False),
    "remote-bounded": (_bounded, True),
    "remote-facts-bounded": (_facts_bounded, True),
}

VARIANT_NAMES = sorted([*STORE_VARIANTS, *REMOTE_VARIANTS])


@pytest.fixture(params=VARIANT_NAMES, ids=VARIANT_NAMES)
def variant(request):
    if request.param in STORE_VARIANTS:
        factory, is_lru = STORE_VARIANTS[request.param]
        yield factory(), is_lru
        return
    local_factory, is_lru = REMOTE_VARIANTS[request.param]
    servers = [ShardServer(i, 2).start() for i in range(2)]
    store = RemoteSummaryCache(
        tuple(s.address for s in servers), local=local_factory(), timeout=2.0
    )
    yield store, is_lru
    store.close()
    for server in servers:
        server.stop()


# PAG nodes compare by identity (the PAG interns them); the battery
# interns its fixtures the same way, so summaries built twice from the
# same spec are value-equal — as in production, where every summary for
# a key is computed over one program's interned nodes.
_NODES = {}
_OBJECTS = {}


def node(method="C.m", name="x"):
    return _NODES.setdefault((method, name), LocalNode(method, name))


def obj(i=0, method="C.m"):
    return _OBJECTS.setdefault((i, method), ObjectNode(f"o{i}", "Thing", method))


def summary(n_objects=1, n_boundaries=0, method="C.m"):
    return PptaResult(
        tuple(obj(i, method) for i in range(n_objects)),
        tuple(
            (node(method, f"b{i}"), EMPTY_STACK, S2) for i in range(n_boundaries)
        ),
    )


class TestContract:
    def test_lookup_miss_then_hit(self, variant):
        store, _lru = variant
        key_node = node()
        assert store.lookup(key_node, EMPTY_STACK, S1) is None
        memo = summary()
        store.store(key_node, EMPTY_STACK, S1, memo)
        assert store.lookup(key_node, EMPTY_STACK, S1) is memo
        assert (store.hits, store.misses) == (1, 1)
        assert (key_node, EMPTY_STACK, S1) in store
        assert len(store) == 1

    def test_duplicate_store_keeps_entry_and_accounting(self, variant):
        store, _lru = variant
        key_node = node()
        memo = summary(n_objects=3)
        assert store.store(key_node, EMPTY_STACK, S1, memo) is True
        # Equal re-store: kept, recency refreshed, contents unchanged.
        assert store.store(key_node, EMPTY_STACK, S1, summary(n_objects=3)) is False
        assert len(store) == 1
        assert store.total_facts() == 3
        assert store.lookup(key_node, EMPTY_STACK, S1) is memo

    def test_equal_restore_keeps_the_larger_steps(self, variant):
        # Steps are cost metadata, not payload: an equal re-store folds
        # its count into the resident (the larger wins), as shards do.
        store, _lru = variant
        key_node = node()
        memo = PptaResult((obj(),), (), steps=5)
        store.store(key_node, EMPTY_STACK, S1, memo)
        for steps in (9, 2):
            again = PptaResult((obj(),), (), steps=steps)
            assert store.store(key_node, EMPTY_STACK, S1, again) is False
        assert store.lookup(key_node, EMPTY_STACK, S1) is memo
        assert memo.steps == 9

    def test_differing_store_replaces_the_resident_memo(self, variant):
        # The cross-program-version self-heal rule, uniform across
        # backends: a publish that disagrees with the resident entry
        # (possible only around an edit the store missed) wins.
        store, _lru = variant
        key_node = node()
        store.store(key_node, EMPTY_STACK, S1, summary(n_objects=3))
        fresh = summary(n_objects=1)
        assert store.store(key_node, EMPTY_STACK, S1, fresh) is True
        assert len(store) == 1
        assert store.total_facts() == 1
        assert store.lookup(key_node, EMPTY_STACK, S1) is fresh

    def test_invalidate_method_drops_exactly_its_keys(self, variant):
        store, _lru = variant
        for i in range(3):
            store.store(node("A.m", f"v{i}"), EMPTY_STACK, S1, summary(method="A.m"))
        survivor = node("B.n", "z")
        store.store(survivor, EMPTY_STACK, S2, summary(method="B.n"))
        assert store.invalidate_method("A.m") == 3
        assert store.invalidated == 3
        assert len(store) == 1
        assert (survivor, EMPTY_STACK, S2) in store
        assert store.invalidate_method("A.m") == 0
        # Dropped keys miss again (and recompute can be re-stored).
        assert store.lookup(node("A.m", "v0"), EMPTY_STACK, S1) is None

    def test_entries_by_recency_lists_everything_both_ways(self, variant):
        store, _lru = variant
        nodes = [node("A.m", f"v{i}") for i in range(5)]
        for key_node in nodes:
            store.store(key_node, EMPTY_STACK, S1, summary(method="A.m"))
        coldest = [key for key, _ in store.entries_by_recency(hottest_first=False)]
        hottest = [key for key, _ in store.entries_by_recency(hottest_first=True)]
        assert len(coldest) == len(hottest) == len(store) == 5
        assert set(coldest) == set(hottest)
        assert hottest == list(reversed(coldest))

    def test_lru_recency_follows_lookups(self, variant):
        store, is_lru = variant
        nodes = [node("A.m", f"v{i}") for i in range(3)]
        for key_node in nodes:
            store.store(key_node, EMPTY_STACK, S1, summary(method="A.m"))
        store.lookup(nodes[0], EMPTY_STACK, S1)
        hottest = [key for key, _ in store.entries_by_recency(hottest_first=True)]
        if is_lru:
            assert hottest[0] == (nodes[0], EMPTY_STACK, S1)
        else:
            # Documented fallback: insertion order stands in for recency.
            assert hottest[0] == (nodes[2], EMPTY_STACK, S1)

    def test_stats_snapshot_reconciles(self, variant):
        store, _lru = variant
        for i in range(4):
            store.store(
                node("A.m", f"v{i}"), EMPTY_STACK, S1,
                summary(n_objects=2, n_boundaries=1, method="A.m"),
            )
        store.store(node("B.n", "w"), EMPTY_STACK, S2, summary(method="B.n"))
        for probe in ("v0", "v1", "nope"):
            store.lookup(node("A.m", probe), EMPTY_STACK, S1)
        store.invalidate_method("B.n")
        snap = store.stats_snapshot()
        assert snap.entries == len(store)
        assert snap.facts == store.total_facts()
        assert snap.facts == sum(s.size for _key, s in store.entries())
        assert snap.hits + snap.misses == snap.probes == 3
        assert snap.hit_rate == snap.hits / snap.probes
        assert snap.invalidated == 1
        assert snap.approx_bytes == store.approx_bytes()
        assert snap.max_entries == store.max_entries
        assert snap.max_facts == store.max_facts
        assert snap.bounded == (
            store.max_entries is not None or store.max_facts is not None
        )

    def test_clear_resets_everything(self, variant):
        store, _lru = variant
        store.store(node(), EMPTY_STACK, S1, summary())
        store.lookup(node(), EMPTY_STACK, S1)
        store.clear()
        snap = store.stats_snapshot()
        assert len(store) == 0
        assert (snap.entries, snap.facts, snap.hits, snap.misses) == (0, 0, 0, 0)
        assert store.summary_point_count() == 0

    def test_restore_counters_round_trips_accounting(self, variant):
        store, _lru = variant
        store.store(node("A.m", "v"), EMPTY_STACK, S1, summary(method="A.m"))
        store.lookup(node("A.m", "v"), EMPTY_STACK, S1)
        store.lookup(node("A.m", "w"), EMPTY_STACK, S1)
        # Nonzero invalidation accounting, so a backend that forgets to
        # restore the non-probe counters cannot pass by accident.
        store.store(node("B.n", "z"), EMPTY_STACK, S2, summary(method="B.n"))
        assert store.invalidate_method("B.n") == 1
        clone = _empty_like(store)
        try:
            for (key_node, stack, state), memo in store.entries_by_recency(
                hottest_first=False
            ):
                clone.store(key_node, stack, state, memo)
            clone.restore_counters(store.stats_snapshot())
            assert clone.stats_snapshot() == store.stats_snapshot()
        finally:
            if clone is not store and hasattr(clone, "close"):
                clone.close()


@pytest.mark.parametrize(
    "mirror_factory",
    [
        lambda: RemoteSummaryCache(("127.0.0.1:1",)),  # never connected
    ],
    ids=["remote"],
)
def test_mirrors_cover_the_summary_store_surface(mirror_factory):
    """Every public attribute of the base contract must exist on every
    mirror backend — the drift guard this suite is named for."""
    mirror = mirror_factory()
    public = [name for name in vars(SummaryStore) if not name.startswith("_")]
    public += ["__len__", "__contains__", "hits", "misses", "evictions",
               "invalidated", "stats_snapshot", "bind_pag"]
    missing = [name for name in public if not hasattr(mirror, name)]
    assert not missing, f"{type(mirror).__name__} lacks {missing}"


class _TierPair:
    """A local bounded store and a shard's :class:`WireSummaryStore` at
    the same caps, driven in lockstep: after every op both must hold
    the same keys."""

    def __init__(self, **caps):
        self.local = BoundedSummaryCache(**caps)
        self.shard = WireSummaryStore(**caps)

    def store(self, key, memo):
        self.local.store(*key, memo)
        self.shard.store(entry_to_wire(*key, memo))
        self.check()

    def lookup(self, key):
        hit = self.local.lookup(*key)
        assert (hit is None) == (self.shard.lookup(key_to_wire(*key)) is None)
        self.check()

    def check(self):
        residents = {
            canonical_key(key_to_wire(*key)) for key, _memo in self.local.entries()
        }
        assert residents == {
            entry_key(entry) for entry in self.shard.entries_for_methods()
        }
        assert self.local.evictions == self.shard.evictions


def _tier_memo(key, width, steps):
    return PptaResult(
        tuple(obj(i, key[0].method) for i in range(width)), (), steps=steps
    )


#: name -> the caps of both sides of a :class:`_TierPair`.  Each bites
#: under the op mix below: 14 keys of 1 to 4 facts.
TIER_CAPS = {
    "both": {"max_entries": 8, "max_facts": 20},
    "entries": {"max_entries": 8},
    "facts": {"max_facts": 20},
}


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("caps", sorted(TIER_CAPS))
def test_local_and_shard_stores_keep_the_same_residents(caps, seed):
    """One seeded store/lookup mix through a :class:`_TierPair`.
    Re-stores mostly carry an equal payload with a fresh step count;
    the many hits reorder recency on both sides, and a payload that
    grows or shrinks moves the fact total a fact cap watches."""
    rng = random.Random(seed)
    pair = _TierPair(**TIER_CAPS[caps])
    keys = [
        (node(f"D.m{i % 3}", f"v{i}"), EMPTY_STACK, S1) for i in range(14)
    ]
    for op in range(3000):
        key = rng.choice(keys)
        # Store-heavy stretches alternate with hit-heavy ones.
        if rng.random() < (0.45 if op // 250 % 2 else 0.02):
            # Mostly the key's own payload; now and then a differing one.
            width = 1 + keys.index(key) % 4
            if rng.random() < 0.1:
                width = 1 + rng.randrange(4)
            pair.store(key, _tier_memo(key, width, rng.randrange(1, 400)))
        else:
            pair.lookup(key)
    assert pair.local.evictions > 0
    limits = TIER_CAPS[caps]
    assert len(pair.local) <= limits.get("max_entries", len(keys))
    assert pair.local.total_facts() <= limits.get("max_facts", 4 * len(keys))
