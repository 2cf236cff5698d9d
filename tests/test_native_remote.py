"""The native kernel serves a remote store's local tier in a batch.

Between ``begin_batch`` and ``end_batch`` a remote store reads the
shards only through its ``fetch-methods`` prefetch: a local-tier miss
is a miss outright and sends no ``lookup`` round trip, whichever
prefetches answered and whether the tier evicted.  So the kernel may
probe a mirror of a plain local tier instead of the ``array`` loop
probing the remote store.  The kernel's new summaries go into the tier
and, in computation order, to the store's write buffer for the
end-of-batch flush.

The differential drives engines pinned ``native``, ``array`` and
``reference``, each over its own fresh in-process 2-shard
``ShardServer`` fleet, through a cold session, a warm session on a
fresh engine, an invalidate and a requery.  Answers, per-query and
engine step counts, hit/miss and remote traffic counters, and the
entries each flush sent must be equal across impls; the native
engine's tier must hold a live mirror.  A batch that starts with one
shard stopped also runs on the kernel and matches ``reference``.  The
read-rule tests pin that no batch looks a miss up — not after a
corrupted prefetch answer, not after a bounded tier evicted — while a
miss outside a batch still is.  A dropped remote engine frees its
tier, and so the kernel mirror of it, without waiting for the cyclic
GC.
"""

import gc
import weakref

import pytest

from repro.analysis.ppta import PptaResult
from repro.analysis.summaries import BoundedSummaryCache
from repro.api.codec import decode_request
from repro.api.protocol import BatchStoreRequest, LookupRequest, MethodEntriesRequest
from repro.bench.generator import GeneratorConfig, generate_program
from repro.cacheserver.client import RemoteSummaryCache
from repro.cacheserver.faults import FaultRule, FaultSchedule
from repro.cacheserver.server import ShardServer
from repro.cfl.rsm import S1
from repro.cfl.stacks import EMPTY_STACK
from repro.clients import NullDerefClient, SafeCastClient
from repro.engine.core import PointsToEngine
from repro.engine.policy import CachePolicy, EnginePolicy
from repro.native import availability
from repro.pag.builder import build_pag
from repro.pag.graph import PAG

CONFIG = GeneratorConfig(
    seed=3, domain_classes=4, data_classes=3, layers=2, cast_density=0.6
)

IMPLS = ("native", "array", "reference")


class Fleet:
    """Two in-process shard servers."""

    def __init__(self, shards=2):
        self.servers = [ShardServer(i, shards).start() for i in range(shards)]
        self.addresses = tuple(server.address for server in self.servers)

    def stop(self):
        for server in self.servers:
            server.stop()


@pytest.fixture
def fleets():
    started = []

    def start(shards=2):
        fleet = Fleet(shards)
        started.append(fleet)
        return fleet

    yield start
    for fleet in started:
        fleet.stop()


def remote_engine(fleet, impl=None, fault_schedule=None):
    """A fresh engine over its own PAG (the way a separate process
    builds one), joined to ``fleet``."""
    return PointsToEngine(
        build_pag(generate_program(CONFIG)),
        EnginePolicy(
            traversal_impl=impl,
            max_field_depth=16,
            cache=CachePolicy(
                remote=fleet.addresses,
                remote_timeout=5.0,
                fault_schedule=fault_schedule,
            ),
        ),
    )


def record_flights(engine):
    """Log every request line the engine's store sends, per flight, as
    ``(shard, [decoded request, ...])``."""
    flights = []
    for link in engine.cache._links:
        send = link.request_many

        def request_many(lines, send=send, shard=link.shard_index):
            flights.append((shard, [decode_request(line) for line in lines]))
            return send(lines)

        link.request_many = request_many
    return flights


def sent_to(flights, kind):
    """The shards that received at least one ``kind`` request."""
    return {
        shard
        for shard, flight in flights
        for request in flight
        if isinstance(request, kind)
    }


def flushed(flights):
    """What each ``batch-store`` flush sent: ``(shard, entries, epochs)``."""
    return [
        (
            shard,
            [entry for request in flight for entry in request.entries],
            [epoch for request in flight for epoch in request.epochs],
        )
        for shard, flight in flights
        if isinstance(flight[0], BatchStoreRequest)
    ]


def observe(engine, flights):
    """Run both client streams as batches; everything that must match
    across impls, by name."""
    del flights[:]
    per_query = []
    for cls in (SafeCastClient, NullDerefClient):
        client = cls(engine.pag)
        batch = engine.query_batch(
            client.specs(client.queries()), dedupe=False, reorder=False
        )
        per_query.extend(
            (r.complete, r.steps, sorted(map(repr, r.pairs)))
            for r in batch.results
        )
    stats = engine.stats()
    remote = stats.remote
    return {
        "per_query": per_query,
        "steps": stats.steps,
        "hits": stats.cache.hits,
        "misses": stats.cache.misses,
        "entries": stats.cache.entries,
        "remote_hits": remote.remote_hits,
        "remote_misses": remote.remote_misses,
        "stores": remote.stores,
        "round_trips": remote.round_trips,
        "prefetched": remote.prefetched,
        "flushed": flushed(flights),
    }


def live_mirror(engine):
    """The native engine's kernel session over its local tier (so a
    parity check cannot pass with the kernel never reached)."""
    memo = engine.cache.local_tier._native_memo
    assert memo is not None and memo[1] is not None, "native mirror refused"
    assert memo[1].live() > 0
    return memo[1]


@pytest.fixture
def require_kernel():
    ok, reason = availability()
    if not ok:
        pytest.skip(f"native kernel unavailable: {reason}")


# ----------------------------------------------------------------------
# the differential
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("require_kernel")
def test_remote_sessions_match_across_impls(fleets):
    rows = {}
    mirrors = []
    for impl in IMPLS:
        fleet = fleets()
        cold = remote_engine(fleet, impl)
        cold_flights = record_flights(cold)
        cold_row = observe(cold, cold_flights)
        warm = remote_engine(fleet, impl)
        warm_flights = record_flights(warm)
        warm_row = observe(warm, warm_flights)
        method = max(
            sorted(warm.cache.local_tier._by_method),
            key=lambda m: len(warm.cache.local_tier._by_method[m]),
        )
        dropped = warm.invalidate_method(method)
        requery_row = observe(warm, warm_flights)
        rows[impl] = (cold_row, warm_row, dropped, requery_row)
        if impl == "native":
            mirrors = [live_mirror(cold), live_mirror(warm)]
            assert warm.stats().native_unavailable is None
    assert rows["native"] == rows["reference"]
    assert rows["array"] == rows["reference"]
    cold, warm, dropped, requery = rows["reference"]
    # No session looked a probe up: the prefetch answered every shard.
    for row in (cold, warm, requery):
        assert row["remote_hits"] + row["remote_misses"] == 0
    # The cold session computed and published ...
    assert cold["stores"] == cold["misses"] > 0 and cold["flushed"]
    # ... the warm one was served by its prefetch alone ...
    assert warm["prefetched"] > 0 and warm["misses"] == 0
    assert not warm["flushed"]
    # ... and the requery recomputed the invalidated method and flushed
    # it at the method's new epoch.
    assert dropped > 0 and requery["misses"] > 0
    assert requery["flushed"]
    epochs = {epoch for _shard, _entries, sent in requery["flushed"] for epoch in sent}
    assert epochs == {1}
    assert all(mirror.live() > 0 for mirror in mirrors)


@pytest.mark.usefixtures("require_kernel")
def test_a_batch_with_a_shard_down_runs_on_the_kernel_and_matches(fleets):
    rows = {}
    for impl in IMPLS:
        fleet = fleets()
        publisher = remote_engine(fleet, impl)
        observe(publisher, record_flights(publisher))
        fleet.servers[1].stop()
        engine = remote_engine(fleet, impl)
        flights = record_flights(engine)
        row = observe(engine, flights)
        # Answers, steps and probe counts; the down shard's error
        # counts depend on its breaker's wall-clock backoff.
        rows[impl] = [
            row[name] for name in ("per_query", "steps", "hits", "misses")
        ]
        assert not sent_to(flights, LookupRequest)
        if impl == "native":
            # The failed prefetch does not keep the batch off the kernel.
            live_mirror(engine)
            assert engine.stats().native_unavailable is None
    assert rows["native"] == rows["reference"]
    assert rows["array"] == rows["reference"]


# ----------------------------------------------------------------------
# the read rule: a batch reads the shards only through its prefetch
# ----------------------------------------------------------------------
def test_a_cold_pipelined_batch_sends_no_lookup(fleets):
    engine = remote_engine(fleets())
    flights = record_flights(engine)
    client = SafeCastClient(engine.pag)
    engine.query_batch(client.specs(client.queries()), dedupe=False, reorder=False)
    remote = engine.stats().remote
    assert remote.remote_hits + remote.remote_misses == 0
    assert not sent_to(flights, LookupRequest)
    prefetches = [
        shard
        for shard, flight in flights
        if isinstance(flight[0], MethodEntriesRequest)
    ]
    assert sorted(prefetches) == [0, 1]
    assert remote.round_trips == len(prefetches) + len(flushed(flights)) == len(flights)
    assert remote.stores > 0 and engine.stats().cache.misses > 0


def test_a_shard_whose_prefetch_failed_is_not_looked_up(fleets):
    fleet = fleets()
    publisher = remote_engine(fleet)
    client = SafeCastClient(publisher.pag)
    publisher.query_batch(client.specs(client.queries()), dedupe=False, reorder=False)
    # Shard 1's prefetch answer arrives corrupted: a decode failure,
    # not a transport one, so its link would still carry lookups.
    schedule = FaultSchedule(
        seed=0, rate=0.0, rules=(FaultRule("corrupt", 0, shard=1),)
    )
    reader = remote_engine(fleet, fault_schedule=schedule)
    flights = record_flights(reader)
    want = publisher.query_batch(client.queries(), dedupe=False, reorder=False)
    got = reader.query_batch(
        SafeCastClient(reader.pag).queries(), dedupe=False, reorder=False
    )
    assert [sorted(map(repr, r.pairs)) for r in got.results] == [
        sorted(map(repr, r.pairs)) for r in want.results
    ]
    remote = reader.stats().remote
    assert remote.faults == 1 and remote.remote_errors == 1
    assert not sent_to(flights, LookupRequest)
    assert remote.remote_hits + remote.remote_misses == 0


def test_an_evicted_key_is_a_miss_in_a_batch_and_looked_up_outside(fleets):
    fleet = fleets(shards=1)
    pag = PAG()
    nodes = [pag.local_var("A.m", f"x{i}") for i in range(3)]

    def summary(steps):
        return PptaResult((), (), steps=steps)

    publisher = RemoteSummaryCache(fleet.addresses, timeout=5.0)
    reader = RemoteSummaryCache(
        fleet.addresses,
        local=BoundedSummaryCache(max_entries=2),
        timeout=5.0,
    )
    try:
        publisher.bind_pag(pag)
        reader.bind_pag(pag)
        for node in nodes[:2]:
            publisher.store(node, EMPTY_STACK, S1, summary(3))
        reader.begin_batch()
        assert reader.remote_stats().prefetched == 2
        # A local compute fills the 2-entry tier past its cap, evicting
        # the coldest prefetched entry, which the shard still holds.
        reader.store(nodes[2], EMPTY_STACK, S1, summary(5))
        assert reader.local_tier.evictions == 1
        evicted = next(
            node for node in nodes[:2] if (node, EMPTY_STACK, S1) not in reader
        )
        # Inside the batch the evicted key is a miss, with no round trip.
        trips = reader.remote_stats().round_trips
        assert reader.lookup(evicted, EMPTY_STACK, S1) is None
        remote = reader.remote_stats()
        assert remote.round_trips == trips
        assert remote.remote_hits + remote.remote_misses == 0
        reader.end_batch()
        # Outside a batch the same key is looked up, and the shard has it.
        assert reader.lookup(evicted, EMPTY_STACK, S1) is not None
        assert reader.remote_stats().remote_hits == 1
    finally:
        publisher.close()
        reader.close()


def test_a_dropped_remote_engine_frees_its_tier_without_the_cyclic_gc(fleets):
    engine = remote_engine(fleets())
    client = SafeCastClient(engine.pag)
    engine.query_batch(client.specs(client.queries()))
    tier = weakref.ref(engine.cache.local_tier)
    engine.cache.close()
    gc.disable()
    try:
        del engine
        assert tier() is None
    finally:
        gc.enable()
