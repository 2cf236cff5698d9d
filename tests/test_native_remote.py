"""The native kernel serves a remote store's local tier.

A remote store reads the shards only through its ``fetch-methods``
prefetch at ``begin_batch``: a local-tier miss is a miss outright and
sends no ``lookup`` round trip, whichever prefetches answered and
whether the tier evicted, in a batch or outside one.  So the kernel may
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
read-rule tests pin that no miss is looked up — not after a corrupted
prefetch answer, not after a bounded tier evicted, not outside a
batch.  A dropped remote engine frees its
tier, and so the kernel mirror of it, without waiting for the cyclic
GC.

Held frames: a framed prefetch into a plain, empty tier, in a batch
on the kernel, goes into the tier's kernel mirror in one call, and the
tier builds no summary until something reads one.  The lockstep
differential drives a held-path engine (``native``), a per-entry
engine (``array``) and the ``reference`` oracle through seeded
operations — batches, a query outside a batch, an invalidate, a
clear, snapshot save and load, every introspection call, a query the
kernel refuses, a full recompile and a reconnect seed — each of them
first meeting held entries.  After every operation the three tiers
list the same entries in the same order, with equal counts, answers
and steps.  Each engine has its own fleet, warmed alike, so what one
flushes never reaches another's prefetch.  The lockstep runs on rows
at the 2 bytes a shard packs this program's values in, and again on
rows packed at 4 and 8 bytes, as a shard packs them once a value (a
step count, say) passes 32,767 or int32.  Every case the kernel
refuses to hold takes the per-entry path with identical results, at
each width.
"""

import dataclasses
import gc
import random
import subprocess
import sys
import weakref
from collections import Counter

import pytest

from conftest import child_env, packed_at
from repro.analysis.ppta import PptaResult
from repro.analysis.summaries import BoundedSummaryCache
from repro.api.codec import decode_request, encode
from repro.api.protocol import (
    BatchStoreRequest,
    LookupRequest,
    MethodEntriesRequest,
    StoreRequest,
)
from repro.api.snapshot import (
    ROW_TYPECODES,
    SummarySnapshot,
    entry_to_wire,
    frame_rows,
    pack_frame,
    pack_rows,
)
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

    def __init__(self, shards=2, cls=ShardServer):
        self.servers = [cls(i, shards).start() for i in range(shards)]
        self.addresses = tuple(server.address for server in self.servers)

    def stop(self):
        for server in self.servers:
            server.stop()


@pytest.fixture
def fleets():
    started = []

    def start(shards=2, cls=ShardServer):
        fleet = Fleet(shards, cls)
        started.append(fleet)
        return fleet

    yield start
    for fleet in started:
        fleet.stop()


#: The remote stores the running test opened: its finalizer
#: (:func:`close_remote_stores`) closes them.
OPENED = []


def remote_engine(fleet, impl=None, fault_schedule=None):
    """A fresh engine over its own PAG (the way a separate process
    builds one), joined to ``fleet``."""
    engine = PointsToEngine(
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
    OPENED.append(engine.cache)
    return engine


@pytest.fixture(autouse=True)
def close_remote_stores():
    """Close every shard link a test opened, so an unclosed socket
    under ``python -X dev`` can only be the client's own leak."""
    yield
    while OPENED:
        OPENED.pop().close()


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


def sent_to_each(flights, kind):
    """How many ``kind`` requests each shard received, by shard."""
    return Counter(
        shard
        for shard, flight in flights
        for request in flight
        if isinstance(request, kind)
    ).values()


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
        per_method = Counter(
            key[0].method
            for key, _summary in warm.cache.entries()
            if key[0].method is not None
        )
        method = max(sorted(per_method), key=per_method.__getitem__)
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


@pytest.mark.usefixtures("require_kernel")
def test_single_queries_and_alias_checks_are_one_query_batches(fleets):
    """``query()`` and ``alias()`` on a remote engine send the shards
    only ``fetch-methods`` and ``batch-store`` lines (and ``invalidate``
    for an edit), run on the kernel over a plain tier, answer like a
    local engine, and take equal steps under every impl on fleets
    warmed alike."""
    rows = {}
    for impl in IMPLS:
        engine = remote_engine(warm_fleet(fleets), impl)
        flights = record_flights(engine)
        names = program_locals(engine.pag)[::3]
        got = answers([engine.query_name(*name) for name in names])
        alias = engine.alias(names[0], names[1])
        engine.invalidate_method(names[0][0])
        got += answers([engine.query_name(*name) for name in names[:8]])
        kinds = {type(request).__name__ for _shard, flight in flights for request in flight}
        assert kinds == {"MethodEntriesRequest", "BatchStoreRequest", "InvalidateRequest"}
        # One prefetch per shard per call.
        calls = len(names) + 1 + 8
        assert sorted(sent_to_each(flights, MethodEntriesRequest)) == [calls, calls]
        stats = engine.stats()
        remote = stats.remote
        assert remote.remote_hits + remote.remote_misses == 0
        rows[impl] = (
            got, alias.verdict, alias.steps, stats.steps,
            stats.cache.hits, stats.cache.misses, remote.stores,
        )
        if impl == "native":
            live_mirror(engine)
            assert stats.native_unavailable is None
        local = PointsToEngine(
            build_pag(generate_program(CONFIG)),
            EnginePolicy(traversal_impl=impl, max_field_depth=16),
        )
        want = answers([local.query_name(*name) for name in names])
        want += answers([local.query_name(*name) for name in names[:8]])
        assert [(c, p) for c, _s, p in got] == [(c, p) for c, _s, p in want]
        assert local.alias(names[0], names[1]).verdict == alias.verdict
    assert rows["native"] == rows["reference"]
    assert rows["array"] == rows["reference"]


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


def test_an_evicted_key_is_a_miss_in_a_batch_and_outside(fleets):
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
        # A publish waits for the flush: nothing reached the shard yet.
        assert len(fleet.servers[0].store) == 0
        publisher.end_batch()
        assert len(fleet.servers[0].store) == 2
        assert publisher.remote_stats().stores == 2
        reader.begin_batch()
        assert reader.remote_stats().prefetched == 2
        # A local compute fills the 2-entry tier past its cap, evicting
        # the coldest prefetched entry, which the shard still holds.
        reader.store(nodes[2], EMPTY_STACK, S1, summary(5))
        assert reader.local_tier.evictions == 1
        evicted = next(
            node for node in nodes[:2] if (node, EMPTY_STACK, S1) not in reader
        )
        # The evicted key is a miss, with no round trip, inside the
        # batch and after it.
        trips = reader.remote_stats().round_trips
        assert reader.lookup(evicted, EMPTY_STACK, S1) is None
        assert reader.remote_stats().round_trips == trips
        reader.end_batch()
        trips = reader.remote_stats().round_trips
        assert reader.lookup(evicted, EMPTY_STACK, S1) is None
        remote = reader.remote_stats()
        assert remote.round_trips == trips
        assert remote.remote_hits + remote.remote_misses == 0
    finally:
        publisher.close()
        reader.close()


def test_a_dropped_remote_engine_frees_its_tier_without_the_cyclic_gc(fleets):
    engine = remote_engine(fleets())
    client = SafeCastClient(engine.pag)
    engine.query_batch(client.specs(client.queries()))
    tier = weakref.ref(engine.cache.local_tier)
    engine.cache.close()
    OPENED.remove(engine.cache)  # closed: the finalizer must not keep it
    gc.disable()
    try:
        del engine
        assert tier() is None
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# held frames
# ----------------------------------------------------------------------
def program_locals(pag):
    return sorted(
        (method, node.name)
        for method in pag.methods()
        for node in pag.nodes_of_method(method)
        if node.is_local_var
    )


def warm_fleet(fleets, cls=ShardServer):
    """A fleet holding what a cold native session published."""
    fleet = fleets(cls=cls)
    publisher = remote_engine(fleet, "native")
    try:
        observe(publisher, record_flights(publisher))
    finally:
        publisher.cache.close()
    return fleet


def tier_entries(tier):
    """The tier's entries as ``entries()`` lists them, nominally, held
    ones included — without building them."""
    pairs = [pair for block in tier._held_blocks for pair in block.build()]
    pairs += tier._entries.items()
    return [entry_to_wire(*key, summary) for key, summary in pairs]


def answers(results):
    return [(r.complete, r.steps, sorted(map(repr, r.pairs))) for r in results]


def run_op(engine, op, rng):
    """Apply one lockstep operation; what it returned, comparably."""
    pag = engine.pag
    cache = engine.cache
    names = program_locals(pag)
    if op == "batch":
        queries = rng.sample(names, rng.randint(5, 40))
        return answers(engine.query_batch(queries, dedupe=False, reorder=False).results)
    if op == "query":
        return answers([engine.query_name(*rng.choice(names))])
    if op == "invalidate":
        return engine.invalidate_method(rng.choice(sorted(pag.methods())))
    if op == "clear":
        return cache.clear()
    if op == "snapshot":
        text = SummarySnapshot.capture(cache).dumps()
        cache.local_tier.clear()
        SummarySnapshot.loads(text).load_into(cache.local_tier, pag)
        return text
    if op == "entries":
        return [entry_to_wire(*key, summary) for key, summary in cache.entries()]
    if op == "recency":
        return [
            entry_to_wire(*key, summary)
            for key, summary in cache.entries_by_recency(hottest_first=rng.random() < 0.5)
        ]
    if op == "contains":
        return [(pag.find_local(*name), EMPTY_STACK, S1) in cache for name in names]
    if op == "points":
        return cache.summary_point_count()
    if op == "refused":
        # A call site past int32: the kernel cannot carry this context,
        # so the batch reruns on the array loop over the remote store.
        node = pag.find_local(*rng.choice(names))
        batch = engine.query_batch([(node, EMPTY_STACK.push(2**40))])
        return answers(batch.results)
    if op == "recompile":
        # A new edge: the next native query compiles a new image and
        # builds a new kernel graph, so the tier's session is replaced.
        pag.add_assign(pag.local_var("Zz.m", "a"), pag.local_var("Zz.m", "b"))
        return answers(engine.query_batch(rng.sample(names, 10)).results)
    if op == "reseed":
        # Each link reconnects and seeds its shard from the tier.
        for link in cache._links:
            link.close()
        return [None if s is None else s.stats.entries for s in cache.shard_stats()]
    raise AssertionError(op)


LOCKSTEP_OPS = (
    "query", "invalidate", "clear", "snapshot", "entries", "recency",
    "contains", "points", "refused", "recompile", "reseed", "batch",
)


def check_lockstep(engines):
    tiers = [engine.cache.local_tier for engine in engines]
    views = [tier_entries(tier) for tier in tiers]
    assert views[0] == views[1] == views[2]
    counts = [
        (
            len(engine.cache),
            engine.cache.total_facts(),
            engine.cache.approx_bytes(),
            engine.cache.stats_snapshot(),
            # Line sizes carry each fleet's incarnation number.
            dataclasses.replace(
                engine.cache.remote_stats(), breaker_state=(), prefetch_bytes=0
            ),
            engine.stats().steps,
        )
        for engine in engines
    ]
    assert counts[0] == counts[1] == counts[2]
    assert not tiers[1]._held_blocks and not tiers[2]._held_blocks


def lockstep(fleets, seed, cls=ShardServer, width=2):
    """The held-frames lockstep over fleets of ``cls``, whose answers'
    rows arrive packed at ``width`` bytes: every held block keeps them
    in an array of that width's typecode."""
    rng = random.Random(seed)
    engines = [remote_engine(warm_fleet(fleets, cls), impl) for impl in IMPLS]
    held = engines[0].cache.local_tier
    met_held = set()
    try:
        plan = []
        for op in rng.sample(LOCKSTEP_OPS, len(LOCKSTEP_OPS)):
            plan += ["clear", "batch", op]
        plan += [rng.choice(LOCKSTEP_OPS) for _ in range(8)]
        for op in plan:
            if held._held_blocks:
                met_held.add(op)
                assert {b.rows.typecode for b in held._held_blocks} == {
                    ROW_TYPECODES[width]
                }
            state = rng.getstate()
            results = []
            for engine in engines:
                rng.setstate(state)
                results.append(run_op(engine, op, rng))
            assert results[0] == results[1] == results[2], op
            check_lockstep(engines)
        assert engines[0].stats().native_unavailable is None
    finally:
        for engine in engines:
            engine.cache.close()
    # Every operation met held entries, and so did every build path.
    assert met_held >= set(LOCKSTEP_OPS) - {"batch"}
    assert held.held > 0 and held.built > 0
    assert engines[1].cache.local_tier.held == 0


@pytest.mark.usefixtures("require_kernel")
@pytest.mark.parametrize("seed", [0, 1])
def test_held_frames_lockstep(fleets, seed):
    """A shard packs this program's rows at 2 bytes."""
    lockstep(fleets, seed)


@pytest.mark.usefixtures("require_kernel")
@pytest.mark.parametrize("width", [4, 8])
def test_held_frames_lockstep_at_a_wider_width(fleets, width):
    """Rows packed at 4 or 8 bytes: the kernel walks them at that
    width."""

    class Shard(RewritingShard):
        pass

    Shard.width = width
    lockstep(fleets, 0, Shard, width)


@pytest.mark.usefixtures("require_kernel")
def test_a_warm_session_holds_its_prefetch_and_builds_nothing(fleets):
    fleet = warm_fleet(fleets)
    want = remote_engine(fleet, "array")
    engine = remote_engine(fleet, "native")
    try:
        rows = [observe(e, record_flights(e)) for e in (want, engine)]
        tier = engine.cache.local_tier
        assert rows[0] == rows[1]
        assert tier.held == rows[1]["prefetched"] > 0 and tier.built == 0
        assert len(tier) == len(want.cache.local_tier) and not tier._entries
        # The kernel holds every entry; Python built none of them.
        assert live_mirror(engine).live() == len(tier)
        assert tier_entries(tier) == tier_entries(want.cache.local_tier)
        assert [entry_to_wire(*key, memo) for key, memo in tier.entries()] == [
            entry_to_wire(*key, memo) for key, memo in want.cache.entries()
        ]
        assert tier.built == tier.held and tier._held_count == 0
    finally:
        want.cache.close()
        engine.cache.close()


class RewritingShard(ShardServer):
    """A shard whose framed ``fetch-methods`` answers are rebuilt from
    their nominal entries and epochs after ``rewrite(entries, epochs)``
    (both lists, edited in place), then framed again and passed
    through ``reframe(frame)``; with a ``width``, the rows of every
    framed answer are then packed at that many bytes."""

    rewrite = None
    reframe = None
    width = None

    def _dispatch(self, request):
        response = super()._dispatch(request)
        frame = getattr(response, "frame", None)
        if frame is None or (self.rewrite is None and self.width is None):
            return response
        epochs = response.epochs
        if self.rewrite is not None:
            nominal = super()._dispatch(
                dataclasses.replace(request, protocol_version="1.7")
            )
            entries = [dict(entry) for entry in nominal.entries]
            epochs = list(nominal.epochs)
            type(self).rewrite(entries, epochs)
            frame = pack_frame(entries)
            if self.reframe is not None:
                frame = type(self).reframe(frame)
        if self.width is not None:
            frame = dataclasses.replace(
                frame, packed=packed_at(frame_rows(frame), self.width)
            )
        return dataclasses.replace(response, frame=frame, epochs=tuple(epochs))


def _past_int64(entries, epochs):
    epochs[:] = [2**63] + [0] * (len(entries) - 1)


def _short_epochs(entries, epochs):
    epochs[:] = [0] * (len(entries) - 1)


def _long_epochs(entries, epochs):
    epochs[:] = [0] * (len(entries) + 1)


def _foreign_key_stack(entries, epochs):
    entries[0]["stack"] = [["no_such_field", 0]]


def _foreign_boundary_stack(entries, epochs):
    first = entries[0]
    first["boundaries"] = [
        *first["boundaries"],
        {"node": first["node"], "stack": [["no_such_field", 1]], "state": 2},
    ]


def _repeated_key(entries, epochs):
    entries.append(dict(entries[0]))
    if epochs:
        epochs.append(epochs[0])


def _unresolved(entries, epochs):
    entries[0]["node"] = {**entries[0]["node"], "name": "no_such_local"}


def _newer_epoch(entries, epochs):
    epochs[:] = [1] + [0] * (len(entries) - 1)


def _same(entries, epochs):
    pass


def _damaged(frame):
    rows = (len(frame.nodes), *frame_rows(frame)[1:])
    return dataclasses.replace(frame, packed=pack_rows(rows))


#: ``(rewrite, reframe, held)``: whether the native engine still holds
#: the answer (a skipped entry is the adoption filter, not a refusal).
#: Packed rows cannot carry a value past int64; an epoch can, and the
#: kernel does not take it.
FRAME_CASES = {
    "damaged": (_same, _damaged, False),
    "past-int64": (_past_int64, None, False),
    "short-epochs": (_short_epochs, None, False),
    "long-epochs": (_long_epochs, None, False),
    "foreign-key-stack": (_foreign_key_stack, None, False),
    "foreign-boundary-stack": (_foreign_boundary_stack, None, False),
    "repeated-key": (_repeated_key, None, False),
    "unresolved": (_unresolved, None, True),
    "newer-epoch": (_newer_epoch, None, True),
}


@pytest.mark.usefixtures("require_kernel")
@pytest.mark.parametrize("case", sorted(FRAME_CASES))
def test_a_frame_the_kernel_does_not_hold_takes_the_per_entry_path(fleets, case):
    not_held(fleets, case)


@pytest.mark.usefixtures("require_kernel")
@pytest.mark.parametrize("width", [4, 8])
@pytest.mark.parametrize("case", sorted(FRAME_CASES))
def test_wider_rows_the_kernel_does_not_hold_take_the_per_entry_path(
    fleets, case, width
):
    not_held(fleets, case, width)


def not_held(fleets, case, width=None):
    """One :data:`FRAME_CASES` case, its rows packed at ``width`` bytes
    (at the shard's own width when ``None``): the native engine matches
    the per-entry one."""
    rewrite, reframe, holds = FRAME_CASES[case]

    class Shard(RewritingShard):
        pass

    Shard.width = width
    rows = []
    tiers = []
    for impl in ("native", "array"):
        fleet = warm_fleet(fleets, Shard)
        Shard.rewrite, Shard.reframe = rewrite, reframe
        engine = remote_engine(fleet, impl)
        try:
            flights = record_flights(engine)
            rows.append((observe(engine, flights), engine.stats().remote))
            tiers.append(engine.cache.local_tier)
            assert not sent_to(flights, LookupRequest)
        finally:
            engine.cache.close()
            Shard.rewrite = Shard.reframe = None
    (row, remote), (want_row, want_remote) = rows
    assert row == want_row
    assert dataclasses.replace(remote, breaker_state=(), prefetch_bytes=0) == (
        dataclasses.replace(want_remote, breaker_state=(), prefetch_bytes=0)
    )
    assert tier_entries(tiers[0]) == tier_entries(tiers[1])
    assert (tiers[0].held > 0) == holds and tiers[1].held == 0
    if case in ("damaged", "short-epochs", "long-epochs"):
        # Refused whole, on both paths: each shard's every answer.
        assert remote.remote_errors == remote.degraded > 0
        assert remote.prefetched == 0
    elif case in ("past-int64", "unresolved", "newer-epoch"):
        assert remote.unresolved > 0  # the first entry of each answer


@pytest.mark.usefixtures("require_kernel")
@pytest.mark.parametrize(
    "variant",
    ["array", "reference", "bounded", "facts-bounded", "not-empty", "no-kernel"],
)
def test_a_tier_the_kernel_does_not_hold_for_takes_the_per_entry_path(
    fleets, monkeypatch, variant
):
    fleet = warm_fleet(fleets)
    impl = variant if variant in ("array", "reference") else "native"
    caps = {
        "bounded": {"max_entries": 10_000},
        "facts-bounded": {"max_facts": 100_000},
    }.get(variant, {})
    policy = EnginePolicy(
        traversal_impl=impl,
        max_field_depth=16,
        cache=CachePolicy(remote=fleet.addresses, remote_timeout=5.0, **caps),
    )
    engine = PointsToEngine(build_pag(generate_program(CONFIG)), policy)
    # The per-entry path over the same kind of tier.
    want = PointsToEngine(
        build_pag(generate_program(CONFIG)),
        dataclasses.replace(policy, traversal_impl="array"),
    )
    OPENED.extend((engine.cache, want.cache))
    try:
        tier = engine.cache.local_tier
        if variant == "not-empty":
            # One summary the tier computed before its first prefetch.
            for other in (engine, want):
                name = program_locals(other.pag)[0]
                other.cache.local_tier.store(
                    other.pag.find_local(*name), EMPTY_STACK, S1,
                    PptaResult((), (), steps=1),
                )
        if variant == "no-kernel":
            from repro.native import session as native_session

            monkeypatch.setattr(native_session, "graph_for", lambda pag: None)
        rows = [observe(e, record_flights(e)) for e in (engine, want)]
        assert rows[0] == rows[1]
        assert tier.held == 0
        assert tier_entries(tier) == tier_entries(want.cache.local_tier)
    finally:
        want.cache.close()
        engine.cache.close()


@pytest.mark.usefixtures("require_kernel")
def test_a_delta_with_a_key_already_held_takes_the_per_entry_path(fleets):
    """A summary replaced on its shard after a session held it comes
    back in the next delta while the tier's dict is still empty: the
    kernel refuses the key it holds, and the per-entry path builds the
    held entries and replaces that one."""
    rows = []
    tiers = []
    for impl in ("native", "array"):
        fleet = warm_fleet(fleets)
        engine = remote_engine(fleet, impl)
        flights = record_flights(engine)
        first = observe(engine, flights)
        tier = engine.cache.local_tier
        assert first["misses"] == 0  # served by the prefetch alone
        # Another client replaces one resident summary.
        server = fleet.servers[0]
        entry = dict(server.store.entries_for_methods()[0])
        entry["objects"] = []
        entry["boundaries"] = []
        server.handle_line(encode(StoreRequest(entry=entry)))
        held, built = tier.held, tier.built
        second = observe(engine, flights)
        rows.append((first, second, held, built))
        tiers.append(tier)
    (first, second, held, built), (want_first, want_second, _, _) = rows
    assert (first, second) == (want_first, want_second)
    assert second["prefetched"] - first["prefetched"] == 1
    assert tier_entries(tiers[0]) == tier_entries(tiers[1])
    assert held > 0 and built == 0  # the first batch held both dumps
    assert tiers[0].held == held and tiers[0].built == held  # no second hold
    assert tiers[1].held == 0


def test_a_shard_process_does_not_load_the_kernel_binding():
    """The held path imports the kernel binding only when a client
    prefetches: a shard process (the cluster launcher, its CLI, its
    server) loads no ``repro.native`` module."""
    probe = (
        "import sys, repro.cacheserver, repro.cacheserver.cli, "
        "repro.cacheserver.server\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.native')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert out.strip() == "[]"


@pytest.mark.usefixtures("require_kernel")
@pytest.mark.parametrize("how", ["oom", "drop"])
def test_held_entries_are_built_before_their_session_goes(fleets, monkeypatch, how):
    """Held entries live in one kernel session: a retired (kernel OOM)
    or dropped mirror builds them first, so the tier lists what the
    per-entry path would, and answers stay the same on the array loop
    the batch falls back to."""
    want = remote_engine(warm_fleet(fleets), "array")
    engine = remote_engine(warm_fleet(fleets), "native")
    names = program_locals(engine.pag)
    tier = engine.cache.local_tier
    for e in (want, engine):
        e.cache.begin_batch()
        e.cache.end_batch()
    want_rows = answers(want.query_batch(names).results)
    assert tier._held_blocks and tier.built == 0
    if how == "drop":
        tier._drop_native_mirror()
        assert not tier._held_blocks and tier._native_memo is None
    else:
        from ctypes import POINTER

        from repro.native import session as native_session
        from repro.native.binding import RkDynResult

        lib = tier._native_memo[0].lib
        monkeypatch.setattr(lib, "rk_dynsum", lambda *args: POINTER(RkDynResult)())
        retire = native_session._retire
        held_at_retire = []

        def watched(ng, cache):
            outcome = retire(ng, cache)
            held_at_retire.append(bool(cache._held_blocks))
            return outcome

        monkeypatch.setattr(native_session, "_retire", watched)
    rows = answers(engine.query_batch(names).results)
    if how == "oom":
        assert held_at_retire == [False]  # built before the session went
    assert not tier._held_blocks and tier.built == tier.held > 0
    assert rows == want_rows
    assert tier_entries(tier) == tier_entries(want.cache.local_tier)
    if how == "oom":
        assert tier._native_memo is None  # retired with the broken graph
