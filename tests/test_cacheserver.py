"""The shared cache service, in-process: servers, client stub, protocol.

The acceptance property of the whole subsystem: an engine whose summary
store is a :class:`~repro.cacheserver.client.RemoteSummaryCache` returns
**element-wise identical** answers to a plain local engine — on every
shipped example program and the Figure-4 workload — with the service
up, down from the start, or killed mid-batch.  Summaries are pure
memos; the service can only move cost.

Shard servers here run as in-process background threads (the transport
is real TCP either way); the multi-process deployment — real server
processes, real client processes, cross-process invalidation — is
covered by ``tests/test_shared_cache_proc.py``.
"""

import sys
from types import SimpleNamespace

import pytest

from repro import (
    CachePolicy,
    EnginePolicy,
    PointsToEngine,
    build_pag,
    parse_program,
)
from repro.analysis.ppta import PptaResult
from repro.analysis.summaries import BoundedSummaryCache, shard_for_method
from repro.api.codec import decode_response, encode
from repro.api.protocol import (
    ErrorResponse,
    InvalidateResponse,
    LookupRequest,
    LookupResponse,
    QueryRequest,
    StatsRequest,
    StatsResponse,
    StoreRequest,
    StoreResponse,
    StoreStatsRequest,
    StoreStatsResponse,
)
from repro.bench.runner import bench_engine_policy
from repro.bench.suite import load_benchmark
from repro.cacheserver.client import RemoteSummaryCache, ShardLink, ShardUnavailable
from repro.cacheserver.faults import RetryPolicy
from repro.cacheserver.server import ShardServer
from repro.cacheserver.store import WireSummaryStore
from repro.cfl.rsm import S1
from repro.cfl.stacks import EMPTY_STACK
from repro.clients import SafeCastClient
from repro.pag.csr import pag_fingerprint
from repro.pag.nodes import LocalNode, ObjectNode

from conftest import EXAMPLE_PROGRAMS, FIGURE2_SOURCE, child_env, serve_listen

SRC = """
class Thing { }
class Other { }
class Helper {
  static method make() { t = new Thing; u = t; return u; }
}
class Main {
  static method main() {
    a = Helper::make();
    b = a;
    o = new Other;
  }
}
"""


def canonical(result):
    return (
        result.complete,
        frozenset((str(obj.object_id), ctx.to_tuple()) for obj, ctx in result.pairs),
    )


def all_locals(pag):
    """Every queryable (method, var) pair of a PAG, deterministically."""
    queries = []
    for qname in sorted(pag.methods()):
        for node in pag.nodes_of_method(qname):
            if node.is_local_var:
                queries.append((qname, node.name))
    return sorted(queries)


#: The remote stores the running test opened: its finalizer
#: (:func:`close_remote_stores`) closes them.
OPENED = []


def opened(engine):
    """``engine``, its remote store registered for closing."""
    OPENED.append(engine.cache)
    return engine


@pytest.fixture(autouse=True)
def close_remote_stores():
    """Close every shard link a test opened, so an unclosed socket
    under ``python -X dev`` can only be the client's own leak."""
    yield
    while OPENED:
        OPENED.pop().close()


@pytest.fixture
def cluster():
    """Two in-process shard servers; stopped (hard) on teardown."""
    servers = [ShardServer(i, 2).start() for i in range(2)]
    yield servers
    for server in servers:
        server.stop()


def remote_policy(servers, **cache_kwargs):
    return EnginePolicy(
        cache=CachePolicy(
            remote=tuple(s.address for s in servers), remote_timeout=2.0,
            **cache_kwargs,
        ),
    )


# ----------------------------------------------------------------------
# the wire store (server side)
# ----------------------------------------------------------------------
def wire_entry(method="A.m", name="x", steps=5, objects=1):
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
        "steps": steps,
    }


def wire_key(entry):
    return {"node": entry["node"], "stack": entry["stack"], "state": entry["state"]}


class TestWireSummaryStore:
    def test_miss_store_hit_and_accounting(self):
        store = WireSummaryStore()
        entry = wire_entry()
        assert store.lookup(wire_key(entry)) is None
        assert store.store(entry) is True
        assert store.store(entry) is False  # resident: recency only
        assert store.lookup(wire_key(entry)) == entry
        snap = store.stats_snapshot()
        assert (snap.hits, snap.misses, snap.entries, snap.facts) == (1, 1, 1, 1)

    def test_invalidate_method_is_exact(self):
        store = WireSummaryStore()
        for i in range(3):
            store.store(wire_entry(name=f"v{i}"))
        store.store(wire_entry(method="B.n"))
        assert store.invalidate_method("A.m") == 3
        assert store.invalidate_method("A.m") == 0
        assert len(store) == 1
        assert store.lookup(wire_key(wire_entry())) is None

    def test_lru_capacity(self):
        store = WireSummaryStore(max_entries=2)
        for i in range(3):
            store.store(wire_entry(name=f"v{i}"))
        assert len(store) == 2
        assert store.evictions == 1
        assert store.lookup(wire_key(wire_entry(name="v0"))) is None
        assert store.lookup(wire_key(wire_entry(name="v2"))) is not None

    def test_differing_payload_replaces_stale_resident_entry(self):
        """The self-heal path: a shard that missed an invalidation must
        accept an edited client's fresher publish for the same key."""
        store = WireSummaryStore()
        stale = wire_entry(objects=2, steps=5)
        fresh = wire_entry(objects=1, steps=9)
        assert store.store(stale) is True
        assert store.store(fresh) is True  # replaced, not ignored
        assert store.lookup(wire_key(fresh)) == fresh
        assert store.total_facts() == 1
        assert store.invalidate_method("A.m") == 1

    def test_steps_only_difference_is_not_an_edit(self):
        """`steps` is cost metadata, not payload: a steps=0 republish
        (legacy snapshot replay) must not replace the entry or lower
        its step count — and a better estimate is adopted."""
        store = WireSummaryStore(max_entries=8)
        computed = wire_entry(steps=50)
        assert store.store(computed) is True
        legacy = wire_entry(steps=0)
        assert store.store(legacy) is False  # same payload: no edit
        assert store.lookup(wire_key(computed))["steps"] == 50
        better = wire_entry(steps=80)
        assert store.store(better) is False
        assert store.lookup(wire_key(computed))["steps"] == 80


# ----------------------------------------------------------------------
# the shard server's dispatch (transport-independent)
# ----------------------------------------------------------------------
class TestShardServerDispatch:
    def make_server(self, shard=0, shards=1):
        server = ShardServer(shard, shards)
        server.stop()  # dispatch only; free the port immediately
        return server

    def exchange(self, server, request):
        return decode_response(server.handle_line(encode(request)))

    def test_store_lookup_invalidate_stats_cycle(self):
        server = self.make_server()
        entry = wire_entry()
        stored = self.exchange(server, StoreRequest(entry=entry))
        assert isinstance(stored, StoreResponse) and stored.stored
        found = self.exchange(server, LookupRequest(key=wire_key(entry)))
        assert isinstance(found, LookupResponse)
        assert found.found and found.entry == entry
        from repro.api.protocol import InvalidateRequest

        dropped = self.exchange(server, InvalidateRequest(method="A.m"))
        assert isinstance(dropped, InvalidateResponse) and dropped.dropped == 1
        missing = self.exchange(server, LookupRequest(key=wire_key(entry)))
        assert not missing.found
        stats = self.exchange(server, StoreStatsRequest())
        assert isinstance(stats, StoreStatsResponse)
        assert (stats.shard, stats.shards) == (0, 1)
        assert stats.stats.entries == 0 and stats.stats.invalidated == 1

    def test_validating_wire_stacks_builds_no_stack(self):
        """A shard never reads a ``Stack``: storing and looking up
        entries whose stacks no process has seen, singly and batched,
        interns no token and pushes no stack node."""
        from repro.api.protocol import BatchLookupRequest, BatchStoreRequest
        from repro.cfl import stacks

        server = self.make_server()
        entries = []
        for i in range(8):
            entry = wire_entry(name=f"v{i}")
            entry["stack"] = [[f"shard-only-f{i}", 0], [f"shard-only-g{i}", 1]]
            entry["boundaries"] = [{
                "node": entry["node"],
                "stack": [[f"shard-only-b{i}", 1]],
                "state": 2,
            }]
            entries.append(entry)
        tokens = dict(stacks._TOKENS)
        children = dict(EMPTY_STACK._children)
        for entry in entries[:4]:
            stored = self.exchange(server, StoreRequest(entry=entry))
            assert isinstance(stored, StoreResponse) and stored.stored
            found = self.exchange(server, LookupRequest(key=wire_key(entry)))
            assert found.found and found.entry == entry
        stored = self.exchange(server, BatchStoreRequest(entries=tuple(entries[4:])))
        assert stored.stored == (True,) * 4
        found = self.exchange(
            server, BatchLookupRequest(keys=tuple(wire_key(e) for e in entries[4:]))
        )
        assert list(found.entries) == entries[4:]
        assert stacks._TOKENS == tokens
        assert EMPTY_STACK._children == children

    def test_wrong_shard_is_refused_loudly(self):
        from repro.analysis.summaries import shard_for_method

        owner = shard_for_method("A.m", 2)
        server = self.make_server(shard=1 - owner, shards=2)
        response = self.exchange(server, StoreRequest(entry=wire_entry()))
        assert isinstance(response, ErrorResponse)
        assert response.code == "wrong-shard"

    def test_shard_for_method_is_crc32_of_the_name(self):
        """Every process and every ``PYTHONHASHSEED`` routes a method to
        the same shard; a method-less key routes like ``""``."""
        # zlib.crc32(b"A.m") == 3055364652
        assert [shard_for_method("A.m", n) for n in (1, 2, 3, 5)] == [
            3055364652 % n for n in (1, 2, 3, 5)
        ]
        assert shard_for_method(None, 7) == shard_for_method("", 7) == 0

    def test_malformed_payloads_become_typed_errors(self):
        server = self.make_server()
        for line in (
            "not json",
            '{"kind":"store","entry":{"nope":1},"protocol_version":"1.1"}',
            '{"kind":"lookup","key":[],"protocol_version":"1.1"}',
            '{"kind":"store","entry":null,"protocol_version":"1.1"}',
        ):
            response = decode_response(server.handle_line(line))
            assert isinstance(response, ErrorResponse)

    @pytest.mark.parametrize("kind", ['["query"]', "{}"], ids=["array", "object"])
    def test_non_string_kind_is_a_typed_error(self, kind):
        server = self.make_server()
        line = '{"kind":%s,"protocol_version":"1.7"}' % kind
        response = decode_response(server.handle_line(line))
        assert isinstance(response, ErrorResponse)
        assert response.code == "unknown-kind"
        stats = self.exchange(server, StoreStatsRequest())
        assert isinstance(stats, StoreStatsResponse)

    def test_engine_vocabulary_is_refused(self):
        server = self.make_server()
        response = self.exchange(
            server, QueryRequest(method="Main.main", var="a")
        )
        assert isinstance(response, ErrorResponse)
        assert response.code == "invalid-request"
        assert "store-level" in response.message


class TestRemoteRouting:
    """The client stub routes every key by its node's method, so one
    method's summaries (the invalidation unit) live on one shard."""

    N_SHARDS = 4

    @pytest.fixture
    def fleet(self):
        servers = [ShardServer(i, self.N_SHARDS).start() for i in range(self.N_SHARDS)]
        store = RemoteSummaryCache(tuple(s.address for s in servers), timeout=2.0)
        yield store, servers
        store.close()
        for server in servers:
            server.stop()

    @staticmethod
    def publish(store, method, name):
        memo = PptaResult((ObjectNode("o", "Thing", method),), ())
        store.store(LocalNode(method, name), EMPTY_STACK, S1, memo)
        store.end_batch()  # a publish waits for the flush

    def test_one_methods_keys_land_on_its_owner(self, fleet):
        store, servers = fleet
        for i in range(6):
            self.publish(store, "A.m", f"v{i}")
        owner = shard_for_method("A.m", self.N_SHARDS)
        assert [len(s.store) for s in servers] == [
            6 if index == owner else 0 for index in range(self.N_SHARDS)
        ]

    def test_methods_spread_over_the_fleet(self, fleet):
        store, servers = fleet
        methods = [f"Class{i}.m" for i in range(32)]
        for method in methods:
            self.publish(store, method, "v")
        owners = [shard_for_method(method, self.N_SHARDS) for method in methods]
        assert [len(s.store) for s in servers] == [
            owners.count(index) for index in range(self.N_SHARDS)
        ]
        assert len(set(owners)) > 1

    def test_invalidate_reaches_only_the_owner(self, fleet):
        store, servers = fleet
        methods = [f"Class{i}.m" for i in range(32)]
        for method in methods:
            self.publish(store, method, "v")
        self.publish(store, "Class0.m", "w")
        owner = shard_for_method("Class0.m", self.N_SHARDS)
        sizes = [len(s.store) for s in servers]
        assert store.invalidate_method("Class0.m") == 2
        assert [s.store.invalidated for s in servers] == [
            2 if index == owner else 0 for index in range(self.N_SHARDS)
        ]
        assert [len(s.store) for s in servers] == [
            size - 2 if index == owner else size
            for index, size in enumerate(sizes)
        ]


# ----------------------------------------------------------------------
# the client stub + engine: identity under every service condition
# ----------------------------------------------------------------------
class TestRemoteEngineIdentity:
    def test_example_programs_identical_and_second_client_warm(self):
        # One cluster *per program*: the service contract is one program
        # per cluster — summaries are keyed nominally, so two different
        # programs sharing shard servers would poison each other (their
        # `Main.main` keys collide).  tests below reuse a cluster only
        # within one program.
        for label, source in EXAMPLE_PROGRAMS.items():
            servers = [ShardServer(i, 2).start() for i in range(2)]
            self._check_one_program(label, source, servers)
            for server in servers:
                server.stop()

    def _check_one_program(self, label, source, cluster):
        plain = PointsToEngine(
            build_pag(parse_program(source)), EnginePolicy()
        )
        first = opened(PointsToEngine(
            build_pag(parse_program(source)), remote_policy(cluster)
        ))
        second = opened(PointsToEngine(
            build_pag(parse_program(source)), remote_policy(cluster)
        ))
        queries = all_locals(plain.pag)
        baseline = plain.query_batch(queries)
        cold = first.query_batch(queries)
        warm = second.query_batch(queries)
        for b, c, w in zip(baseline, cold, warm):
            assert canonical(c) == canonical(b), label
            assert canonical(w) == canonical(b), label
        # The second client answered some probes from the service and
        # therefore did strictly less traversal work.
        if baseline.stats.steps:
            assert warm.stats.steps <= cold.stats.steps
        remote = second.stats().remote
        assert remote is not None and remote.remote_errors == 0

    def test_figure4_workload_with_service_killed_mid_batch(self, cluster):
        instance = load_benchmark("soot-c", scale=0.3)
        client = SafeCastClient(instance.pag)
        queries = client.queries()
        half = len(queries) // 2

        plain = PointsToEngine(instance.pag, bench_engine_policy())
        _pv, plain_batch1 = client.run_engine(
            plain, queries[:half], dedupe=False, reorder=False
        )
        _pv, plain_batch2 = client.run_engine(
            plain, queries[half:], dedupe=False, reorder=False
        )

        remote_cache = CachePolicy(
            remote=tuple(s.address for s in cluster), remote_timeout=0.5
        )
        engine = PointsToEngine(
            instance.pag, bench_engine_policy(cache=remote_cache)
        )
        _v1, batch1 = client.run_engine(
            engine, queries[:half], dedupe=False, reorder=False
        )
        # Kill the whole service between the halves: every later remote
        # op fails and falls back to local compute.
        for server in cluster:
            server.stop()
        _v2, batch2 = client.run_engine(
            engine, queries[half:], dedupe=False, reorder=False
        )
        for mine, theirs in zip(batch1.results, plain_batch1.results):
            assert canonical(mine) == canonical(theirs)
        for mine, theirs in zip(batch2.results, plain_batch2.results):
            assert canonical(mine) == canonical(theirs)
        remote = engine.stats().remote
        assert remote.remote_errors > 0  # the kill was actually felt

    def test_service_down_from_the_start(self):
        pag = build_pag(parse_program(SRC))
        # Nothing listens on these ports (port 1 is root-only, port 9 discard).
        policy = EnginePolicy(
            cache=CachePolicy(
                remote=("127.0.0.1:1", "127.0.0.1:9"), remote_timeout=0.2
            ),
        )
        engine = PointsToEngine(pag, policy)
        plain = PointsToEngine(
            build_pag(parse_program(SRC)), EnginePolicy()
        )
        queries = all_locals(plain.pag)
        down = engine.query_batch(queries)
        baseline = plain.query_batch(queries)
        for mine, theirs in zip(down, baseline):
            assert canonical(mine) == canonical(theirs)
        remote = engine.stats().remote
        assert remote.remote_hits == 0
        assert remote.remote_errors > 0

    def test_backoff_bounds_failed_remote_traffic(self):
        link = ShardLink(
            "127.0.0.1:9", timeout=0.2, retry=RetryPolicy.from_interval(60.0)
        )
        with pytest.raises(ShardUnavailable):
            link.request("{}")
        # Within the backoff window the link fails fast, without a
        # second connection attempt (which would pay the timeout again).
        with pytest.raises(ShardUnavailable, match="backing off"):
            link.request("{}")

    def test_invalidation_propagates_between_in_process_clients(self, cluster):
        source = SRC
        engine_a = PointsToEngine(
            build_pag(parse_program(source)), remote_policy(cluster)
        )
        engine_b = PointsToEngine(
            build_pag(parse_program(source)), remote_policy(cluster)
        )
        # A computes and publishes; B (fresh local tier) is served by its
        # prefetch of what A flushed.
        engine_a.query_name("Helper.make", "u")
        assert engine_b.query_name("Helper.make", "u")
        assert engine_b.stats().remote.prefetched > 0
        assert engine_b.stats().cache.misses == 0
        # A edits Helper.make -> invalidates through the store -> the
        # owning shard drops.  A fresh client (no stale local tier) must
        # observe the drop: its prefetch brings none of the method's
        # summaries, so it computes them.
        dropped = engine_a.invalidate_method("Helper.make")
        assert dropped > 0
        assert engine_a.stats().remote.invalidations > 0
        engine_c = PointsToEngine(
            build_pag(parse_program(source)), remote_policy(cluster)
        )
        engine_c.query_name("Helper.make", "u")
        assert engine_c.stats().cache.misses > 0
        for engine in (engine_a, engine_b, engine_c):
            remote = engine.stats().remote
            assert remote.remote_hits + remote.remote_misses == 0
            engine.cache.close()

    def test_save_cache_snapshots_the_local_tier(self, cluster, tmp_path):
        """A remote-backed engine's snapshot is its process-local view
        (the local tier); the servers' contents belong to the service."""
        from repro.api.snapshot import load_snapshot

        engine = opened(PointsToEngine(
            build_pag(parse_program(SRC)), remote_policy(cluster, max_entries=32)
        ))
        engine.query_batch(all_locals(engine.pag))
        path = tmp_path / "local-tier.json"
        snapshot = engine.save_cache(path)
        assert len(snapshot.entries) == len(engine.cache.local_tier)
        reloaded = load_snapshot(path)
        assert reloaded.stats.max_entries == 32

    def test_warm_start_snapshot_seeds_the_service(self, cluster, tmp_path):
        """EnginePolicy(warm_start=...) over a remote store replays the
        snapshot through store() between the store's batch hooks, so one
        snapshot file warms the whole service in one flush per shard
        instead of one store round trip per entry."""

        def jython_pag():
            return load_benchmark("jython", scale=0.3).pag

        pag = jython_pag()
        donor = PointsToEngine(pag, EnginePolicy())
        donor.query_batch(all_locals(pag))
        path = tmp_path / "seed.json"
        donor.save_cache(path)

        seeder = opened(PointsToEngine(
            jython_pag(),
            EnginePolicy(
                cache=CachePolicy(
                    remote=tuple(s.address for s in cluster), remote_timeout=2.0
                ),
                warm_start=str(path),
            ),
        ))
        assert seeder.warm_loaded > 100
        served = sum(len(s.store) for s in cluster)
        assert served == seeder.warm_loaded
        seeded = seeder.stats().remote
        assert seeded.stores == seeder.warm_loaded
        # One prefetch and one flush per shard.
        assert seeded.round_trips <= 2 * len(cluster)
        # A fresh client now answers from the service without computing:
        # its batch prefetch fills its tier.
        reader = opened(PointsToEngine(jython_pag(), remote_policy(cluster)))
        reader.query_batch(all_locals(reader.pag))
        assert reader.stats().remote.prefetched == seeder.warm_loaded
        assert reader.stats().cache.hits > 0

    def test_warm_start_onto_a_downed_service_loads_the_local_tier(
        self, tmp_path
    ):
        """A warm start whose shards are all down still fills the local
        tier and answers like a plain engine: the replay's one flush per
        shard fails open, so the dead service costs one fall-open per
        shard and hook, not one per snapshot entry."""
        pag = load_benchmark("jython", scale=0.3).pag
        donor = PointsToEngine(pag, EnginePolicy())
        queries = all_locals(pag)
        baseline = donor.query_batch(queries)
        path = tmp_path / "seed.json"
        donor.save_cache(path)

        # Nothing listens on these ports (port 1 is root-only, port 9 discard).
        engine = PointsToEngine(
            load_benchmark("jython", scale=0.3).pag,
            EnginePolicy(
                cache=CachePolicy(
                    remote=("127.0.0.1:1", "127.0.0.1:9"), remote_timeout=0.2
                ),
                warm_start=str(path),
            ),
        )
        assert engine.warm_loaded > 100
        assert engine.warm_skipped == 0
        assert len(engine.cache.local_tier) == engine.warm_loaded
        remote = engine.stats().remote
        assert remote.stores == 0
        assert remote.store_errors == engine.warm_loaded
        # At most one failed prefetch and one failed flush per shard.
        assert 0 < remote.degraded <= 2 * remote.shards

        batch = engine.query_batch(queries)
        for mine, theirs in zip(batch, baseline):
            assert canonical(mine) == canonical(theirs)
        assert engine.stats().cache.hits > 0


# ----------------------------------------------------------------------
# engine integration details
# ----------------------------------------------------------------------
class TestEngineWiring:
    def test_cache_policy_normalises_and_validates(self):
        policy = CachePolicy(remote=["h:1", "h:2"])
        assert policy.remote == ("h:1", "h:2")
        with pytest.raises(ValueError):
            CachePolicy(remote=())

    def test_make_store_wraps_remote_around_local_policy(self):
        policy = CachePolicy(remote=("127.0.0.1:1",), max_entries=8)
        store = policy.make_store()
        assert isinstance(store, RemoteSummaryCache)
        assert store.local_tier.max_entries == 8
        assert type(store.local_tier) is BoundedSummaryCache

    def test_edit_session_invalidates_through_the_service(self, cluster):
        from repro.ir.parser import parse_program as parse

        program = parse(SRC)
        engine = opened(PointsToEngine.for_program(program, remote_policy(cluster)))
        engine.query_name("Helper.make", "u")
        engine.query_name("Main.main", "b")  # a summary that survives the edit
        served_before = sum(len(s.store) for s in cluster)
        assert served_before > 0
        stores_before = engine.cache.remote_stats().stores
        fingerprint_before = engine.cache._fingerprint

        def new_body(m):
            m.alloc("t", "Other").ret("t")

        engine.edit_session().replace_body("Helper.make", new_body)
        # The owning shard no longer serves Helper.make summaries.
        owners = [s for s in cluster if s.store.invalidated > 0]
        assert owners, "no shard observed the invalidation"
        # Surviving summaries stay resident in the live local tier; the
        # edit publishes nothing (the servers already hold them) and
        # re-binds the store to the edited PAG's fingerprint.
        assert len(engine.cache.local_tier) > 0  # something survived
        assert engine.cache.remote_stats().stores == stores_before
        assert engine.cache._fingerprint == pag_fingerprint(engine.pag)
        assert engine.cache._fingerprint != fingerprint_before
        # Post-edit answers are correct (fresh computation, new class).
        result = engine.query_name("Helper.make", "t")
        assert {obj.class_name for obj, _ in result.pairs} == {"Other"}


# ----------------------------------------------------------------------
# the wire service surface: provenance counters + store-level ops
# ----------------------------------------------------------------------
class TestServiceSurface:
    def test_stats_response_carries_cache_provenance(self, cluster, tmp_path):
        import json

        from repro.api.service import PointsToService

        # Warm-start a remote-backed engine from a snapshot, then serve
        # traffic: a repro-serve client must be able to observe where
        # its answers came from.
        pag = build_pag(parse_program(SRC))
        donor = PointsToEngine(pag, EnginePolicy())
        donor.query_batch(all_locals(pag))
        path = tmp_path / "warm.json"
        donor.save_cache(path)

        engine = opened(PointsToEngine(
            build_pag(parse_program(SRC)),
            EnginePolicy(
                cache=CachePolicy(
                    remote=tuple(s.address for s in cluster), remote_timeout=2.0
                ),
                warm_start=str(path),
            ),
        ))
        engine.query_name("Main.main", "b")
        service = PointsToService(engine)
        line = service.handle_line('{"kind":"stats","protocol_version":"1.0"}')
        payload = json.loads(line)
        assert payload["kind"] == "stats-result"
        assert payload["warm_loaded"] == engine.warm_loaded > 0
        assert payload["warm_skipped"] == 0
        remote = payload["remote"]
        assert remote["shards"] == 2
        assert remote["stores"] == engine.warm_loaded  # write-through seed
        # Decodes on the client side of the wire, too.
        from repro.api.protocol import StatsResponse

        decoded = decode_response(line)
        assert isinstance(decoded, StatsResponse)
        assert decoded.remote.stores == engine.warm_loaded

    @pytest.mark.parametrize(
        "cache_kwargs, want",
        [
            ({}, None),
            (
                {"max_entries": 64},
                "RemoteSummaryCache over a BoundedSummaryCache local tier "
                "runs on the array loop",
            ),
            (
                {"max_facts": 4096},
                "RemoteSummaryCache over a BoundedSummaryCache local tier "
                "runs on the array loop",
            ),
        ],
        ids=["pipelined", "bounded-tier", "facts-bounded-tier"],
    )
    def test_remote_engine_stats_say_whether_native_serves_it(
        self, cluster, cache_kwargs, want
    ):
        """The kernel serves a remote store over a plain local tier in
        its batches; a remote store over any other tier answers on the
        array loop, and the stats name the cause (a kernelless host
        reports its binding reason first)."""
        from repro.analysis.ppta import traversal_impl
        from repro.native import availability

        engine = opened(PointsToEngine(
            build_pag(parse_program(SRC)), remote_policy(cluster, **cache_kwargs)
        ))
        with traversal_impl("native"):
            engine.query_name("Main.main", "b")
            stats = engine.stats()
        ok, reason = availability()
        assert stats.traversal_impl == "native"
        assert stats.native_unavailable == (want if ok else reason)

    def test_plain_engine_stats_have_no_remote_section(self):
        import json

        from repro.api.service import PointsToService

        engine = PointsToEngine(
            build_pag(parse_program(SRC)), EnginePolicy()
        )
        service = PointsToService(engine)
        payload = json.loads(
            service.handle_line('{"kind":"stats","protocol_version":"1.1"}')
        )
        assert payload["remote"] is None
        assert payload["warm_loaded"] == 0


# ----------------------------------------------------------------------
# the repro-cached client REPL (scripted exchanges)
# ----------------------------------------------------------------------
class TestReplMode:
    def test_scripted_exchange_routes_and_reports(self, cluster):
        import io

        from repro.cacheserver.cli import _connect_repl

        entry = wire_entry()
        lines = [
            encode(StoreRequest(entry=entry)),
            encode(LookupRequest(key=wire_key(entry))),
            encode(StoreStatsRequest()),
            "garbage",
        ]
        args = SimpleNamespace(
            connect=",".join(s.address for s in cluster), timeout=2.0
        )
        out = io.StringIO()
        code = _connect_repl(args, input_stream=io.StringIO("\n".join(lines)),
                             output_stream=out)
        assert code == 0
        responses = [decode_response(line) for line in out.getvalue().splitlines()]
        assert isinstance(responses[0], StoreResponse) and responses[0].stored
        assert isinstance(responses[1], LookupResponse) and responses[1].found
        # store-stats fans out: one response per shard, then the error.
        stats = [r for r in responses if isinstance(r, StoreStatsResponse)]
        assert [s.shard for s in stats] == [0, 1]
        assert sum(s.stats.entries for s in stats) == 1
        assert isinstance(responses[-1], ErrorResponse)


# ----------------------------------------------------------------------
# protocol 1.2: batched ops, pipelining, and the round-trip counter
# ----------------------------------------------------------------------
class TestBatchedOpsDispatch:
    def make_server(self, shard=0, shards=1):
        server = ShardServer(shard, shards)
        server.stop()  # dispatch only; free the port immediately
        return server

    def exchange(self, server, request):
        return decode_response(server.handle_line(encode(request)))

    def test_batch_store_lookup_invalidate_cycle(self):
        from repro.api.protocol import (
            BatchInvalidateRequest,
            BatchInvalidateResponse,
            BatchLookupRequest,
            BatchLookupResponse,
            BatchStoreRequest,
            BatchStoreResponse,
        )

        server = self.make_server()
        entries = [wire_entry(name=f"v{i}") for i in range(3)]
        stored = self.exchange(server, BatchStoreRequest(entries=tuple(entries)))
        assert isinstance(stored, BatchStoreResponse)
        assert stored.stored == (True, True, True)
        # Re-store: all resident and equal -> recency only.
        stored = self.exchange(server, BatchStoreRequest(entries=tuple(entries)))
        assert stored.stored == (False, False, False)
        keys = tuple(wire_key(e) for e in entries) + (
            wire_key(wire_entry(name="missing")),
        )
        found = self.exchange(server, BatchLookupRequest(keys=keys))
        assert isinstance(found, BatchLookupResponse)
        assert list(found.entries[:3]) == entries
        assert found.entries[3] is None
        dropped = self.exchange(
            server, BatchInvalidateRequest(methods=("A.m", "B.n"))
        )
        assert isinstance(dropped, BatchInvalidateResponse)
        assert dropped.dropped == (3, 0)

    def test_fetch_methods_all_and_filtered(self):
        """At 1.7 the answer is nominal, labelled with this build's
        version; at this build's version it is framed, its rows packed
        (protocol 1.10), and resolves to the same entries in the same
        order."""
        import json

        from repro.api.protocol import (
            PROTOCOL_VERSION,
            MethodEntriesRequest,
            MethodEntriesResponse,
        )
        from repro.api.snapshot import resolve_frame, resolve_wire_entry

        server = self.make_server()
        a = wire_entry(name="x")
        b = wire_entry(method="B.n", name="y")
        for entry in (a, b):
            self.exchange(server, StoreRequest(entry=entry))
        line = server.handle_line(
            encode(MethodEntriesRequest(protocol_version="1.7"))
        )
        entries = ",".join(
            json.dumps(entry, sort_keys=True, separators=(",", ":"))
            for entry in (a, b)  # coldest-first
        )
        assert line == (
            f'{{"cursor":2,"entries":[{entries}],"epochs":[],'
            f'"incarnation":{server.store.incarnation},'
            f'"kind":"fetch-methods-result","protocol_version":"{PROTOCOL_VERSION}"}}'
        )
        only_b = self.exchange(
            server, MethodEntriesRequest(methods=("B.n",), protocol_version="1.7")
        )
        assert list(only_b.entries) == [b]
        pag = SimpleNamespace(
            find_local=lambda method, name: (method, name),
            object_node=lambda label: SimpleNamespace(
                class_name="Thing", label=label
            ),
        )

        def view(resolved):
            node, stack, state, summary = resolved
            return node, stack, state, summary.objects, summary.steps

        for methods, want in ((None, [a, b]), (("B.n",), [b])):
            framed = self.exchange(server, MethodEntriesRequest(methods=methods))
            assert isinstance(framed, MethodEntriesResponse)
            assert framed.entries == () and framed.frame is not None
            assert framed.protocol_version == PROTOCOL_VERSION
            assert [view(r) for r in resolve_frame(pag, framed.frame)] == [
                view(resolve_wire_entry(pag, entry)) for entry in want
            ]

    def test_batched_ownership_is_checked_per_element(self):
        from repro.analysis.summaries import shard_for_method
        from repro.api.protocol import BatchStoreRequest

        owner = shard_for_method("A.m", 2)
        server = self.make_server(shard=1 - owner, shards=2)
        response = self.exchange(
            server, BatchStoreRequest(entries=(wire_entry(),))
        )
        assert isinstance(response, ErrorResponse)
        assert response.code == "wrong-shard"
        assert len(server.store) == 0  # nothing partially applied

    def test_request_many_pipelines_one_flight(self, cluster):
        link = ShardLink(cluster[0].address, timeout=2.0)
        try:
            entry = wire_entry(method=self._owned_method(cluster, 0))
            lines = [
                encode(StoreRequest(entry=entry)),
                encode(LookupRequest(key=wire_key(entry))),
            ]
            responses = [decode_response(r) for r in link.request_many(lines)]
            assert isinstance(responses[0], StoreResponse)
            assert isinstance(responses[1], LookupResponse)
            assert responses[1].found
        finally:
            link.close()

    @staticmethod
    def _owned_method(servers, shard):
        from repro.analysis.summaries import shard_for_method

        index = 0
        while True:
            method = f"M{index}.m"
            if shard_for_method(method, len(servers)) == shard:
                return method
            index += 1


class TestPipelinedRemoteBatches:
    """The acceptance property: a warm batch costs O(shards) wire round
    trips — observable through the ``remote.round_trips`` counter —
    with answers element-wise identical to local and to single queries,
    each of which runs as a one-query batch."""

    def _policy(self, servers):
        from repro.bench.runner import BENCH_FIELD_DEPTH_LIMIT

        return EnginePolicy(
            max_field_depth=BENCH_FIELD_DEPTH_LIMIT,
            cache=CachePolicy(
                remote=tuple(s.address for s in servers), remote_timeout=2.0
            ),
        )

    def test_round_trips_counter_counts_exchanges(self, cluster):
        from collections import Counter

        from repro.api.codec import decode_request

        instance = load_benchmark("jython", scale=0.4)
        client = SafeCastClient(instance.pag)
        engine = PointsToEngine(instance.pag, self._policy(cluster))
        flights = Counter()
        for link in engine.cache._links:
            send = link.request_many

            def request_many(lines, send=send):
                flights[type(decode_request(lines[0])).__name__] += 1
                return send(lines)

            link.request_many = request_many
        queries = client.queries()
        try:
            for query in queries:
                engine.query(query)
        finally:
            engine.cache.close()
        stats = engine.stats().remote
        # Each single query is a one-query batch: one prefetch per
        # shard, then one flush per shard it published to.  No lookup
        # and no single store is ever sent.
        assert set(flights) == {"MethodEntriesRequest", "BatchStoreRequest"}
        assert flights["MethodEntriesRequest"] == len(cluster) * len(queries)
        assert stats.round_trips == sum(flights.values())
        assert stats.remote_hits + stats.remote_misses == 0
        assert stats.stores > 0

    def test_warm_pipelined_batch_is_o_shards_round_trips(self, cluster):
        instance = load_benchmark("jython", scale=0.4)
        client = SafeCastClient(instance.pag)

        local = PointsToEngine(
            instance.pag,
            EnginePolicy(max_field_depth=16),
        )
        _v, local_batch = client.run_engine(local, dedupe=False, reorder=False)
        digest = [canonical(r) for r in local_batch.results]

        # Cold publisher: prefetch finds nothing, the flush publishes
        # every computed summary in one batch-store per shard.
        cold = PointsToEngine(instance.pag, self._policy(cluster))
        _v, cold_batch = client.run_engine(cold, dedupe=False, reorder=False)
        cold_stats = cold.stats().remote
        assert [canonical(r) for r in cold_batch.results] == digest
        assert cold_stats.stores > 0
        assert cold_stats.remote_errors == 0

        # Warm reader: one fetch-methods round trip per shard warms the
        # tier; every probe then hits locally.
        warm = PointsToEngine(instance.pag, self._policy(cluster))
        _v, warm_batch = client.run_engine(warm, dedupe=False, reorder=False)
        warm_stats = warm.stats().remote
        assert [canonical(r) for r in warm_batch.results] == digest
        assert warm_stats.prefetched > 0
        assert warm_stats.remote_errors == 0
        # THE acceptance bound: <= (#shards x constant), not one round
        # trip per method lookup.  The constant covers prefetch + flush.
        assert warm_stats.round_trips <= 4 * len(cluster)
        # Single queries on a fresh engine are one-query batches: each
        # costs one prefetch per shard, and on a warm fleet nothing is
        # computed, so nothing is flushed.
        single = PointsToEngine(instance.pag, self._policy(cluster))
        queries = client.queries()
        single_results = [single.query(query) for query in queries]
        single_stats = single.stats().remote
        assert [canonical(r) for r in single_results] == digest
        assert single_stats.prefetched == warm_stats.prefetched
        assert single_stats.remote_hits + single_stats.remote_misses == 0
        assert single.stats().cache.misses == 0
        assert single_stats.round_trips == len(cluster) * len(queries)
        for engine in (cold, warm, single):
            engine.cache.close()

    def test_workload_over_an_evicting_tier_sends_no_lookup(
        self, cluster, capsys
    ):
        """``python -m repro.cacheserver.workload`` over an 8-entry
        client tier: the tier evicts (the report's ``cache.evictions``),
        yet no batch looks a miss up, and the answers equal a local
        run's."""
        import json

        from repro.cacheserver.workload import main

        def report(*extra):
            argv = [
                "--benchmark", "jython", "--scale", "0.3",
                "--client", "NullDeref", "--rounds", "2", *extra,
            ]
            assert main(argv) == 0
            return json.loads(capsys.readouterr().out)

        local = report()
        addresses = ",".join(s.address for s in cluster)
        bounded = report("--remote", addresses, "--max-entries", "8")
        assert bounded["digest"] == local["digest"]
        assert bounded["cache"]["evictions"] > 0
        remote = bounded["remote"]
        assert remote["remote_hits"] + remote["remote_misses"] == 0
        assert remote["remote_errors"] == 0
        assert remote["stores"] > 0
        # The second round's prefetch reads back what the first flushed.
        assert remote["prefetched"] > 0

    def test_invalidate_purges_buffered_writes(self, cluster):
        """An edit mid-batch must not let the end-of-batch flush
        republish the edited method's pre-edit summaries."""
        from repro.analysis.summaries import SummaryCache
        from repro.analysis.ppta import PptaResult
        from repro.cfl.rsm import S1
        from repro.cfl.stacks import EMPTY_STACK
        from repro.pag.graph import PAG

        pag = PAG()
        node = pag.local_var("A.m", "x")
        cache = RemoteSummaryCache(
            tuple(s.address for s in cluster),
            local=SummaryCache(),
            timeout=2.0,
        )
        try:
            cache.bind_pag(pag)
            cache.begin_batch()
            cache.store(node, EMPTY_STACK, S1, PptaResult((), ()))
            dropped = cache.invalidate_method("A.m")
            assert dropped == 1  # the local tier entry
            cache.end_batch()
            stats = cache.remote_stats()
            assert stats.stores == 0  # buffered publish was purged
            assert len(cluster[0].store) == 0 and len(cluster[1].store) == 0
        finally:
            cache.close()


# ----------------------------------------------------------------------
# protocol 1.4: per-method consistency epochs + program fingerprints
# ----------------------------------------------------------------------
class TestEpochConsistency:
    def test_stale_write_through_is_refused(self):
        from repro.cacheserver.store import StaleEpochRejection

        store = WireSummaryStore()
        entry = wire_entry()
        assert store.store(entry, epoch=0) is True
        store.invalidate_method("A.m", epoch=1)
        # A client that never applied the edit publishes at epoch 0:
        # refused — a pre-edit memo can never overwrite a post-edit one.
        with pytest.raises(StaleEpochRejection) as excinfo:
            store.store(entry, epoch=0)
        assert excinfo.value.method == "A.m"
        assert (excinfo.value.sent, excinfo.value.current) == (0, 1)
        assert store.stale_rejections == 1
        # Its lookups are answered with a miss, never an old payload.
        assert store.lookup(wire_key(entry), epoch=0) is None
        # The edited client (epoch 1) proceeds normally.
        assert store.store(entry, epoch=1) is True
        assert store.lookup(wire_key(entry), epoch=1) == entry

    def test_ahead_client_makes_the_server_adopt(self):
        """A shard that missed an invalidation (restarted blank and got
        re-seeded old state, or was down during the edit) self-heals on
        first contact with an ahead client: the method's residue drops
        and the newer epoch is adopted."""
        store = WireSummaryStore()
        stale = wire_entry(objects=2)
        store.store(stale, epoch=0)
        fresh = wire_entry(objects=1)
        assert store.store(fresh, epoch=3) is True
        assert store.method_epoch("A.m") == 3
        assert store.lookup(wire_key(fresh), epoch=3) == fresh
        # ...and the epoch-0 world is now refused outright.
        assert store.lookup(wire_key(stale), epoch=0) is None

    def test_same_epoch_fingerprint_arbitration(self):
        from repro.cacheserver.store import StaleEpochRejection

        store = WireSummaryStore()
        assert store.store(wire_entry(), epoch=0, fingerprint=111) is True
        # Same epoch, different program: two clients disagree about the
        # code — the first presenter pinned the fingerprint, the other
        # is refused (it must re-invalidate to roll its edit forward).
        with pytest.raises(StaleEpochRejection):
            store.store(wire_entry(objects=2), epoch=0, fingerprint=222)
        assert store.lookup(wire_key(wire_entry()), epoch=0, fingerprint=222) is None
        # An invalidate clears the pin: the next presenter pins anew.
        store.invalidate_method("A.m", epoch=1)
        assert store.store(wire_entry(objects=2), epoch=1, fingerprint=222) is True

    def test_dispatch_returns_typed_stale_epoch(self, cluster):
        from repro.analysis.summaries import shard_for_method
        from repro.api.protocol import (
            BatchStoreRequest,
            BatchStoreResponse,
            InvalidateRequest,
            StaleEpochResponse,
        )

        owner = cluster[shard_for_method("A.m", 2)]
        ack = decode_response(
            owner.handle_line(encode(InvalidateRequest(method="A.m", epoch=1)))
        )
        assert isinstance(ack, InvalidateResponse)
        refusal = decode_response(
            owner.handle_line(encode(StoreRequest(entry=wire_entry(), epoch=0)))
        )
        assert isinstance(refusal, StaleEpochResponse)
        assert refusal.method == "A.m"
        assert (refusal.sent, refusal.current) == (0, 1)
        # Batched stores refuse stale *elements*, not the whole line.
        batch = decode_response(
            owner.handle_line(
                encode(
                    BatchStoreRequest(
                        entries=(wire_entry(name="a"), wire_entry(name="b")),
                        epochs=(1, 0),
                    )
                )
            )
        )
        assert isinstance(batch, BatchStoreResponse)
        assert batch.stale == (False, True)
        assert batch.stored[1] is False

    def test_lagging_client_cannot_resurrect_pre_edit_memos(self, cluster):
        """The adversarial mixed-version schedule: A publishes, A edits
        (invalidates); C — a client that never applied the edit — joins
        at the pre-edit epoch.  C's recomputed write-throughs for the
        edited method must be refused (``epoch_rejections``), and C's
        answers stay element-wise identical to a plain local engine."""
        from repro.analysis.summaries import shard_for_method

        engine_a = opened(PointsToEngine(
            build_pag(parse_program(SRC)), remote_policy(cluster)
        ))
        engine_a.query_batch(all_locals(engine_a.pag))
        assert engine_a.invalidate_method("Helper.make") > 0

        engine_c = opened(PointsToEngine(
            build_pag(parse_program(SRC)), remote_policy(cluster)
        ))
        plain = PointsToEngine(
            build_pag(parse_program(SRC)), EnginePolicy()
        )
        queries = all_locals(plain.pag)
        got = engine_c.query_batch(queries)
        want = plain.query_batch(queries)
        for mine, theirs in zip(got, want):
            assert canonical(mine) == canonical(theirs)
        remote_c = engine_c.stats().remote
        assert remote_c.epoch_rejections > 0
        # The refusals worked: the owning shard still serves no
        # Helper.make summaries at the post-edit epoch.
        owner = cluster[shard_for_method("Helper.make", 2)]
        entries, _epochs = owner.store.entries_with_epochs()
        assert all(
            entry["node"].get("method") != "Helper.make" for entry in entries
        )
        assert owner.store.stale_rejections > 0


# ----------------------------------------------------------------------
# the line server: the one socket transport
# ----------------------------------------------------------------------
@pytest.fixture(params=["shard", "listen"])
def line_endpoint(request, tmp_path):
    """``((host, port), kind, answer)`` of a served line transport — an
    in-process shard, or the ``repro-serve --listen`` mount in a child
    process — with a stats kind it answers and the answer's class: the
    shard speaks the store-level vocabulary, ``repro-serve`` the
    engine's."""
    if request.param == "shard":
        server = ShardServer(0, 1).start()
        yield (server.host, server.port), "store-stats", StoreStatsResponse
        server.stop()
    else:
        with serve_listen(tmp_path, FIGURE2_SOURCE) as (_proc, address):
            yield address, "stats", StatsResponse


def stats_line(kind):
    return b'{"kind":"%s","protocol_version":"1.8"}\n' % kind.encode()


class TestLineServer:
    @pytest.mark.parametrize(
        "line, code",
        [
            (b'{"kind":"%s\xff","protocol_version":"1.8"}', "unknown-kind"),
            (b'{"kind":["query"],"protocol_version":"1.7"}', "unknown-kind"),
            (b'{"kind":"%s","id":1,"protocol_version":"1.8"}', "invalid-request"),
        ],
        ids=["non-utf8", "non-string-kind", "tagged"],
    )
    def test_a_bad_line_gets_a_typed_error_and_the_next_is_answered(
        self, line_endpoint, line, code
    ):
        import socket

        address, kind, answer = line_endpoint
        if b"%s" in line:
            line = line % kind.encode()
        sock = socket.create_connection(address, timeout=10.0)
        with sock, sock.makefile("rb") as reader:
            sock.sendall(line + b"\n" + stats_line(kind))
            first = decode_response(reader.readline().decode("utf-8"))
            second = decode_response(reader.readline().decode("utf-8"))
        assert isinstance(first, ErrorResponse) and first.code == code
        assert isinstance(second, answer)

    def test_an_over_long_line_drops_only_its_connection(self, line_endpoint):
        import socket

        from repro.cacheserver.server import MAX_LINE_BYTES

        address, kind, answer = line_endpoint
        hog = socket.create_connection(address, timeout=10.0)
        with hog:
            try:
                hog.sendall(b"x" * (MAX_LINE_BYTES + 1))
                closed = hog.recv(1) == b""
            except ConnectionResetError:
                closed = True
        assert closed
        sock = socket.create_connection(address, timeout=10.0)
        with sock, sock.makefile("rb") as reader:
            sock.sendall(stats_line(kind))
            reply = decode_response(reader.readline().decode("utf-8"))
        assert isinstance(reply, answer)

    def test_reconnect_reseeds_a_restarted_blank_server(self):
        """Kill the server, restart it blank on the same port: the
        client's next exchange reconnects and replays its tier snapshot
        in the same flight — the blank server is re-warmed."""
        server = ShardServer(0, 1).start()
        engine = PointsToEngine(
            build_pag(parse_program(SRC)), remote_policy([server])
        )
        engine.query_batch(all_locals(engine.pag))
        served = len(server.store)
        assert served > 0
        port = server.port
        server.stop()

        replacement = ShardServer(0, 1, port=port).start()
        try:
            assert len(replacement.store) == 0
            link = engine.cache._links[0]
            # The old socket died with the old server: the first op
            # fails (and falls open), arming the backoff — clear it so
            # the next op reconnects immediately.
            with pytest.raises(ShardUnavailable):
                link.request(encode(StoreStatsRequest()))
            link.breaker.reset()
            response = decode_response(link.request(encode(StoreStatsRequest())))
            assert isinstance(response, StoreStatsResponse)
            assert response.stats.entries == served
            remote = engine.cache.remote_stats()
            assert remote.reconnects == 1
            assert remote.seeded_entries == served
        finally:
            engine.cache.close()
            replacement.stop()

    def test_a_client_may_connect_before_serving_starts(self):
        """The socket listens from construction: a connect that races
        ahead of the accept loop is queued by the kernel, then served."""
        import socket as socket_mod

        server = ShardServer(0, 1)  # bound and listening, not serving
        try:
            sock = socket_mod.create_connection(
                (server.host, server.port), timeout=5.0
            )
            server.start()
            sock.sendall(stats_line("store-stats"))
            reader = sock.makefile("r", encoding="utf-8")
            assert isinstance(decode_response(reader.readline()), StoreStatsResponse)
            reader.close()
            sock.close()
        finally:
            server.stop()

    @pytest.mark.parametrize(
        "argv, request_obj",
        [
            (
                ["repro.cacheserver", "--serve-shard", "0", "--shards", "1"],
                StoreStatsRequest(),
            ),
            (
                [
                    "repro.api.service", "--benchmark", "jython",
                    "--scale", "0.4", "--listen", "127.0.0.1:0",
                ],
                StatsRequest(),
            ),
        ],
        ids=["repro-cached", "repro-serve"],
    )
    def test_announced_listener_accepts_the_first_connect(self, argv, request_obj):
        """A client that connects once, right after the announce line,
        is served — no retry loop needed."""
        import json as json_mod
        import socket as socket_mod
        import subprocess

        proc = subprocess.Popen(
            [sys.executable, "-m", *argv],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=child_env(),
        )
        try:
            announce = json_mod.loads(proc.stdout.readline())
            assert announce["event"] == "listening"
            sock = socket_mod.create_connection(
                (announce["host"], announce["port"]), timeout=10.0
            )
            sock.sendall((encode(request_obj) + "\n").encode("utf-8"))
            reader = sock.makefile("r", encoding="utf-8")
            assert not isinstance(decode_response(reader.readline()), ErrorResponse)
            reader.close()
            sock.close()
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def test_a_full_flush_chunk_of_generator_summaries_is_stored(self):
        """One ``FLUSH_CHUNK``-entry ``batch-store`` line of generator
        summaries runs past 64 KiB; the shard must still store every
        entry of the flush."""
        from repro.api.protocol import BatchStoreRequest
        from repro.clients import NullDerefClient
        from repro.perf.harness import GENERATOR_CONFIG

        instance = load_benchmark("jython", config=GENERATOR_CONFIG)
        local = PointsToEngine(
            instance.pag, EnginePolicy(max_field_depth=16)
        )
        client = NullDerefClient(instance.pag)
        local.query_batch(client.specs(client.queries()), dedupe=False, reorder=False)
        server = ShardServer(0, 1).start()
        cache = RemoteSummaryCache((server.address,), timeout=5.0)
        try:
            cache.bind_pag(instance.pag)
            cache.begin_batch()
            for (node, stack, state), summary in local.cache.entries():
                cache.store(node, stack, state, summary)
            cache.end_batch()  # the coalesced, FLUSH_CHUNK-chunked flush
            remote = cache.remote_stats()
            assert remote.store_errors == 0 and remote.degraded == 0
            assert remote.stores == len(local.cache) == len(server.store)
            entries, _epochs = server.store.entries_with_epochs()
            chunk = RemoteSummaryCache.FLUSH_CHUNK
            longest = max(
                len(encode(BatchStoreRequest(entries=tuple(entries[i:i + chunk]))))
                for i in range(0, len(entries), chunk)
            )
            assert longest > 64 * 1024
        finally:
            cache.close()
            server.stop()


class TestLongFlights:
    """A pipelined flight longer than the socket buffers can hold.

    A shard answers a flight line by line.  A client that wrote the
    whole flight before reading let the answers pile up until the
    shard blocked on its writes and stopped reading, while the client
    blocked on the rest of its flight: a big ``batch-store`` flush then
    timed out and every entry counted as a ``store_error``.  Shrinking
    the client's socket buffers reproduces with 12,000 entries what a
    full 36,778-entry flush hit at the default sizes.
    """

    ENTRIES = 12_000

    @pytest.fixture
    def small_buffers(self, monkeypatch):
        import socket

        connect = socket.create_connection

        def create_connection(*args, **kwargs):
            sock = connect(*args, **kwargs)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            return sock

        monkeypatch.setattr(socket, "create_connection", create_connection)
        monkeypatch.setattr(RemoteSummaryCache, "FLUSH_CHUNK", 32)

    def test_a_long_batch_store_flush_lands_whole(self, small_buffers):
        from repro.analysis.ppta import PptaResult
        from repro.bench.generator import GeneratorConfig, generate_program
        from repro.cfl.rsm import FAM_LOAD, S1
        from repro.cfl.stacks import EMPTY_STACK, intern_token

        pag = build_pag(
            generate_program(
                GeneratorConfig(seed=3, domain_classes=4, data_classes=3, layers=2)
            )
        )
        nodes = sorted(pag.local_var_nodes(), key=lambda node: node.sort_key)
        obj = min(pag.object_nodes(), key=lambda node: node.sort_key)
        stacks = [EMPTY_STACK]
        while len(stacks) * len(nodes) < self.ENTRIES:
            token = intern_token(f"f{len(stacks)}", FAM_LOAD)
            stacks.append(stacks[-1].push(token))
        summary = PptaResult((obj,), (), steps=1)
        server = ShardServer(0, 1).start()
        cache = RemoteSummaryCache((server.address,), timeout=2.0)
        try:
            cache.bind_pag(pag)
            cache.begin_batch()
            before = cache.remote_stats().round_trips
            for i in range(self.ENTRIES):
                cache.store(nodes[i % len(nodes)], stacks[i // len(nodes)], S1, summary)
            cache.end_batch()
            stats = cache.remote_stats()
            assert stats.store_errors == 0
            assert stats.stores == self.ENTRIES
            assert stats.round_trips - before == 1  # one flight, one round trip
            assert server.store.stats_snapshot().entries == self.ENTRIES
        finally:
            cache.close()
            server.stop()
