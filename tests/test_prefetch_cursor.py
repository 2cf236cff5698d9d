"""The incremental prefetch cursor (protocol 1.7), on every shard tier.

A pipelined batch prefetches from each shard with ``fetch-methods``.
A backend's first fetch is the full dump; each later one presents the
shard's ``(incarnation, cursor)`` and gets only the entries stored or
replaced since.  Pinned here, against in-process shard servers and a
live 2-shard fleet of ``repro-cached`` shard processes
(``CacheCluster.spawn``, what the launcher runs):

* a warm backend's second batch prefetches nothing when nothing changed;
* an entry another client publishes between batches arrives in the
  next delta;
* after a shard restarts blank, the next prefetch is a full dump;
* entries republished at a new epoch after ``invalidate_method`` are
  adopted, and entries skipped for an epoch mismatch are offered again
  once this client's epoch moves;
* a sender that keeps no cursor (a 1.6 shard) keeps answering with
  full dumps;

and answers stay element-wise identical to a local engine throughout.
"""

import dataclasses
import os
import pathlib
import random
from collections import Counter

import pytest

import repro
from repro import CachePolicy, EnginePolicy, PointsToEngine, build_pag
from repro.api.codec import decode_request, encode
from repro.api.protocol import MethodEntriesRequest, MethodEntriesResponse
from repro.bench.generator import GeneratorConfig, generate_program
from repro.cacheserver.client import ShardUnavailable
from repro.cacheserver.server import CacheCluster, ShardServer
from repro.cacheserver.store import WireSummaryStore, entry_key

SRC_DIR = pathlib.Path(repro.__file__).resolve().parent.parent

CONFIG = GeneratorConfig(seed=3, domain_classes=2, data_classes=2, layers=1)


def program_pag():
    """A fresh PAG of the test program — every engine gets its own, the
    way separate processes would."""
    return build_pag(generate_program(CONFIG))


def all_locals(pag):
    return sorted(
        (qname, node.name)
        for qname in pag.methods()
        for node in pag.nodes_of_method(qname)
        if node.is_local_var
    )


QUERIES = all_locals(program_pag())
#: Two query sets over disjoint methods: the second reaches summaries
#: the first never computed.
FIRST = [q for q in QUERIES if q[0] < "Comp1"]
SECOND = [q for q in QUERIES if q[0] >= "Comp1"]


def canonical(result):
    return (
        result.complete,
        frozenset((str(obj.object_id), ctx.to_tuple()) for obj, ctx in result.pairs),
    )


LOCAL = {}


def assert_local_answers(engine, queries):
    """Run one batch; its answers must equal a local engine's."""
    key = tuple(queries)
    if key not in LOCAL:
        local = PointsToEngine(program_pag(), EnginePolicy())
        LOCAL[key] = [canonical(r) for r in local.query_batch(queries)]
    assert [canonical(r) for r in engine.query_batch(queries)] == LOCAL[key]


#: The remote stores the running test opened: its finalizer
#: (:func:`close_remote_stores`) closes them.
OPENED = []


def remote_engine(addresses):
    engine = PointsToEngine(
        program_pag(),
        EnginePolicy(
            cache=CachePolicy(remote=tuple(addresses), remote_timeout=5.0),
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


def batch_delta(engine, queries):
    """``(prefetched, misses, unresolved)`` added by one batch."""
    before_remote = engine.stats().remote
    before_misses = engine.stats().cache.misses
    assert_local_answers(engine, queries)
    after_remote = engine.stats().remote
    return (
        after_remote.prefetched - before_remote.prefetched,
        engine.stats().cache.misses - before_misses,
        after_remote.unresolved - before_remote.unresolved,
    )


def resident(engine):
    """Entries resident on each shard, shard-ordered (over the wire)."""
    return [snapshot.stats.entries for snapshot in engine.cache.shard_stats()]


# ----------------------------------------------------------------------
# the fleets
# ----------------------------------------------------------------------
class InProcessFleet:
    """Two in-process shard servers."""

    def __init__(self):
        self.servers = [ShardServer(index, 2).start() for index in range(2)]
        self.addresses = tuple(server.address for server in self.servers)

    def restart_blank(self, clients):
        # The respawn primitive: same address, blank store, and a new
        # incarnation; live connections survive, so nothing reseeds.
        for server in self.servers:
            server.store.restart_blank()

    def stop(self):
        for server in self.servers:
            server.stop()


class LiveFleet:
    """Two shard-server processes, as ``repro-cached --shards 2`` runs."""

    def __init__(self):
        self.cluster = CacheCluster.spawn(shards=2)
        self.addresses = self.cluster.addresses

    def restart_blank(self, clients):
        for index in range(len(self.addresses)):
            self.cluster.restart_shard(index)
        # The clients' sockets died with the old processes: drop them,
        # so each client's next exchange reconnects and seeds.
        for engine in clients:
            for link in engine.cache._links:
                link.close()

    def stop(self):
        self.cluster.stop()
        assert not any(self.cluster.alive())


@pytest.fixture(params=["threaded", "live"])
def fleet(request, monkeypatch):
    if request.param == "live":
        existing = os.environ.get("PYTHONPATH", "")
        monkeypatch.setenv(
            "PYTHONPATH", str(SRC_DIR) + (os.pathsep + existing if existing else "")
        )
        fleet = LiveFleet()
    else:
        fleet = InProcessFleet()
    yield fleet
    fleet.stop()


def publish(addresses, queries=QUERIES, epochs=None):
    """A client that computes ``queries`` and publishes what it
    computed at its batch's end; returns the engine."""
    engine = remote_engine(addresses)
    if epochs:
        engine.cache.adopt_epochs(epochs)
    assert_local_answers(engine, queries)
    return engine


def busiest_method(engine):
    return Counter(
        getattr(node, "method", None) for (node, _s, _st), _v in engine.cache.entries()
    ).most_common(1)[0][0]


# ----------------------------------------------------------------------
# the cursor contract, per tier
# ----------------------------------------------------------------------
class TestCursorContract:
    def test_warm_second_batch_prefetches_nothing(self, fleet):
        publish(fleet.addresses)
        reader = remote_engine(fleet.addresses)
        first, _misses, _unresolved = batch_delta(reader, QUERIES)
        assert first == sum(resident(reader)) > 0  # the full dump
        round_trips = reader.stats().remote.round_trips
        second, _misses, _unresolved = batch_delta(reader, QUERIES)
        assert second == 0
        # Still one fetch-methods exchange per shard (nothing to flush).
        assert reader.stats().remote.round_trips - round_trips == len(fleet.addresses)

    def test_another_clients_publish_arrives_in_the_next_delta(self, fleet):
        publish(fleet.addresses, FIRST)
        reader = remote_engine(fleet.addresses)
        batch_delta(reader, FIRST)
        assert batch_delta(reader, FIRST)[0] == 0
        before = sum(resident(reader))
        publish(fleet.addresses, SECOND)  # a second client computes new summaries
        new = sum(resident(reader)) - before
        assert new > 0
        prefetched, misses, _unresolved = batch_delta(reader, SECOND)
        assert prefetched == new  # exactly what was published since
        # Everything SECOND needs arrived with the delta.
        warm_misses = batch_delta(reader, SECOND)[1]
        assert misses == warm_misses

    def test_restart_makes_the_next_prefetch_a_full_dump(self, fleet):
        publish(fleet.addresses)
        reader = remote_engine(fleet.addresses)
        batch_delta(reader, QUERIES)
        assert batch_delta(reader, QUERIES)[0] == 0
        fleet.restart_blank([reader])
        # Republished into the blank shards under their new
        # incarnation, at sequence stamps the reader's old cursor
        # already passed.
        publish(fleet.addresses)
        prefetched, _misses, _unresolved = batch_delta(reader, QUERIES)
        assert prefetched == sum(resident(reader)) > 0

    def test_entries_republished_after_invalidate_are_adopted(self, fleet):
        publish(fleet.addresses)
        reader = remote_engine(fleet.addresses)
        batch_delta(reader, QUERIES)
        warm_misses = batch_delta(reader, QUERIES)[1]
        method = busiest_method(reader)
        reader.invalidate_method(method)
        epoch = reader.cache.method_epoch(method)
        # A client that observed the same edit republishes the method.
        publish(fleet.addresses, epochs={method: epoch})
        _prefetched, misses, unresolved = batch_delta(reader, QUERIES)
        assert unresolved == 0
        assert misses == warm_misses  # nothing recomputed locally

    @pytest.mark.parametrize("how", ["adopt_epochs", "unreachable_invalidate"])
    def test_entries_skipped_for_an_epoch_mismatch_are_offered_again(
        self, fleet, how, monkeypatch
    ):
        from repro.analysis.summaries import shard_for_method

        writer = publish(fleet.addresses)
        reader = remote_engine(fleet.addresses)
        batch_delta(reader, QUERIES)
        batch_delta(reader, QUERIES)
        method = busiest_method(writer)
        shard = shard_for_method(method, len(fleet.addresses))
        # The writer edits the method and republishes it at epoch 1...
        writer.invalidate_method(method)
        assert_local_answers(writer, QUERIES)
        # ...and the reader, still at epoch 0, skips those entries.
        _prefetched, _misses, unresolved = batch_delta(reader, QUERIES)
        assert unresolved > 0
        # Now the reader's epoch for the method moves to 1 without the
        # shard moving past it.
        if how == "adopt_epochs":
            reader.cache.adopt_epochs({method: 1})
        else:
            def unreachable(*_args):
                raise ShardUnavailable("shard unreachable")

            with monkeypatch.context() as patch:
                patch.setattr(reader.cache, "_exchange", unreachable)
                reader.invalidate_method(method)
            assert reader.stats().remote.invalidation_errors == 1
        assert reader.cache.method_epoch(method) == 1
        # The owning shard's next answer is a full dump, so the skipped
        # entries are adopted now.
        prefetched, _misses, unresolved = batch_delta(reader, QUERIES)
        assert unresolved == 0
        assert prefetched == resident(reader)[shard] > 0


# ----------------------------------------------------------------------
# senders that keep no cursor
# ----------------------------------------------------------------------
class CursorlessShard(ShardServer):
    """Answers ``fetch-methods`` the way a 1.6 shard does: full dumps
    with no incarnation.  Records the cursor each request carried."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.presented = []

    def _dispatch(self, request):
        response = super()._dispatch(request)
        if isinstance(response, MethodEntriesResponse):
            self.presented.append((request.incarnation, request.since))
            return dataclasses.replace(response, incarnation=None, cursor=0)
        return response


class TestCursorlessSenders:
    def test_a_shard_without_cursors_keeps_full_dumps(self):
        servers = [CursorlessShard(index, 2).start() for index in range(2)]
        try:
            addresses = [server.address for server in servers]
            publish(addresses)
            reader = remote_engine(addresses)
            total = sum(len(server.store) for server in servers)
            assert batch_delta(reader, QUERIES)[0] == total
            assert batch_delta(reader, QUERIES)[0] == total
            assert all(seen == (None, 0) for s in servers for seen in s.presented)
        finally:
            for server in servers:
                server.stop()

    def test_a_request_without_a_cursor_carries_no_cursor_fields(self):
        # A 1.6 shard rejects unknown request fields: the cursor-less
        # form must not mention them at all.
        line = encode(MethodEntriesRequest(fingerprint=7))
        assert '"incarnation"' not in line and '"since"' not in line
        assert decode_request(line) == MethodEntriesRequest(fingerprint=7)
        cursor = MethodEntriesRequest(incarnation=5, since=9)
        assert decode_request(encode(cursor)) == cursor


# ----------------------------------------------------------------------
# the store's stamps, without a socket
# ----------------------------------------------------------------------
def wire_entry(name, objects=1, method="A.m"):
    return {
        "node": {"kind": "local", "method": method, "name": name},
        "stack": [],
        "state": 1,
        "objects": [
            {"kind": "object", "id": f"o{i}@{method}", "class": "Thing",
             "method": method}
            for i in range(objects)
        ],
        "boundaries": [],
        "steps": 3,
    }


class TestStoreStamps:
    def test_delta_holds_inserts_and_replacements_only(self):
        store = WireSummaryStore()
        store.store(wire_entry("a"))
        store.store(wire_entry("b"))
        entries, _epochs, incarnation, cursor, _version = store.fetch()
        assert [e["node"]["name"] for e in entries] == ["a", "b"]
        assert cursor == 2
        store.store(wire_entry("a"))  # equal re-store: recency only
        store.store(dict(wire_entry("b"), steps=9))  # steps-only: no stamp
        assert store.fetch(incarnation=incarnation, since=cursor)[0] == []
        store.store(wire_entry("a", objects=2))  # payload replaced
        store.store(wire_entry("c"))
        delta, _epochs, _inc, newer, _version = store.fetch(
            incarnation=incarnation, since=cursor
        )
        assert [(e["node"]["name"], len(e["objects"])) for e in delta] == [
            ("a", 2), ("c", 1),
        ]
        assert newer == 4

    def test_foreign_or_future_cursors_get_the_full_dump(self):
        store = WireSummaryStore()
        store.store(wire_entry("a"))
        incarnation = store.incarnation
        assert len(store.fetch(incarnation=incarnation + 1, since=1)[0]) == 1
        assert len(store.fetch(incarnation=incarnation, since=99)[0]) == 1
        assert len(store.fetch(incarnation=None, since=1)[0]) == 1

    def test_restart_blank_draws_a_new_incarnation(self):
        store = WireSummaryStore()
        store.store(wire_entry("a"))
        old = store.incarnation
        store.restart_blank()
        assert store.incarnation != old
        store.store(wire_entry("b"))
        entries, _epochs, incarnation, cursor, _version = store.fetch(
            incarnation=old, since=1
        )
        assert [e["node"]["name"] for e in entries] == ["b"]
        assert (incarnation, cursor) == (store.incarnation, 1)

    def test_clear_and_eviction_keep_stamps_monotonic(self):
        store = WireSummaryStore(max_entries=2)
        for name in "abc":
            store.store(wire_entry(name))  # "a" is evicted
        _entries, _epochs, incarnation, cursor, _version = store.fetch()
        assert cursor == 3
        store.clear()
        assert store.incarnation == incarnation
        store.store(wire_entry("d"))
        delta = store.fetch(incarnation=incarnation, since=cursor)[0]
        assert [e["node"]["name"] for e in delta] == ["d"]

    @pytest.mark.parametrize(
        "capacity, most",
        [({"max_entries": 4}, 4), ({"max_facts": 8}, 8)],
        ids=["entries", "facts"],
    )
    def test_deltas_track_residents_through_evictions_and_invalidations(
        self, capacity, most
    ):
        """A seeded mix of stores, hits, invalidations and delta fetches
        on a small LRU store, capped by entries or by facts (at most
        ``most`` residents either way: every entry holds a fact).  Each
        delta holds exactly the residents stamped after its cursor,
        oldest stamp first; the stamps of evicted and invalidated keys
        are skipped, and pruned so they never outnumber residents by
        more than the slack."""
        rng = random.Random(7)
        store = WireSummaryStore(**capacity)
        incarnation = store.incarnation
        seq = 0
        stamped = {}  # canonical key -> the stamp of its last insert
        cursors = [0]
        for _op in range(400):
            roll = rng.random()
            method = f"A.m{rng.randrange(3)}"
            entry = dict(
                wire_entry(f"v{rng.randrange(48)}", 1 + rng.randrange(3), method),
                steps=rng.randrange(1, 400),
            )
            epoch = store.method_epoch(method)  # a client that saw every edit
            if roll < 0.5:
                if store.store(entry, epoch=epoch):
                    seq += 1
                    stamped[entry_key(entry)] = seq
            elif roll < 0.7:
                key = {k: entry[k] for k in ("node", "stack", "state")}
                store.lookup(key, epoch=epoch)
            elif roll < 0.78:
                store.invalidate_method(method)
            else:
                since = rng.choice(cursors)
                delta, _epochs, inc, cursor, _version = store.fetch(
                    incarnation=incarnation, since=since
                )
                assert (inc, cursor) == (incarnation, seq)
                residents = {entry_key(e) for e in store.fetch()[0]}
                want = sorted(
                    (key for key in residents if stamped[key] > since),
                    key=stamped.get,
                )
                assert [entry_key(e) for e in delta] == want
                cursors.append(cursor)
            assert len(store._seqs) <= 2 * len(store) + 64
            assert len(store) <= most
        assert store.evictions > 0 and store.invalidated > 0
        # More keys were stamped than the bound admits: pruning ran.
        assert len(stamped) > 2 * most + 64
