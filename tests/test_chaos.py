"""Chaos soak battery: deterministic fault injection over real workloads.

The acceptance property of the whole robustness layer: under ANY
seeded fault schedule — connect refusals, timeouts, mid-flight
disconnects, truncated and corrupted response lines, delays, blank
server restarts — an engine backed by the shared cache service returns
**element-wise identical** answers to a fault-free run.  Summaries are
pure memos; faults can only move cost, never answers.

Every schedule here is a pure function of its seed: a red run replays
exactly with the same spec, which is the entire point of
:mod:`repro.cacheserver.faults` over ad-hoc monkeypatching.

The battery covers every fault kind on the shard server, the Figure-4
workload plus a synthetic generator program,
the circuit breaker's bounded-cost guarantee under a dead fleet (with
a controllable clock — no wall-clock flakiness), the per-link jitter
that prevents reconnect storms, and the hostile reconnect-and-seed
paths (corrupted seed lines, a shard dying mid-seed, stale-epoch
refusals during seeding).
"""

import pytest

from repro import CachePolicy, PointsToEngine, build_pag, parse_program
from repro.api.codec import decode_response, encode
from repro.api.protocol import (
    RemoteStoreStats,
    StatsResponse,
    StoreStatsRequest,
    StoreStatsResponse,
)
from repro.bench.generator import GeneratorConfig
from repro.bench.runner import bench_engine_policy
from repro.bench.suite import load_benchmark
from repro.cacheserver.client import ShardLink, ShardUnavailable
from repro.cacheserver.faults import (
    BREAKER_OPEN,
    CLIENT_KINDS,
    SERVER_KINDS,
    FaultInjector,
    FaultRule,
    FaultSchedule,
    RetryPolicy,
    corrupt_line,
)
from repro.cacheserver.server import ShardServer
from repro.cacheserver.store import entry_method
from repro.clients import SafeCastClient

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

#: Fast backoff so chaos runs recover within the test budget; the
#: schedule's determinism is unaffected (jitter is seeded, not random).
CHAOS_RETRY = RetryPolicy(initial=0.01, max_delay=0.05)

#: One schedule per client-side fault kind, each with an explicit rule
#: forcing its kind at op 1 — ``faults_injected > 0`` is guaranteed by
#: construction, not by hoping the rate draws fire — plus a mixed
#: high-rate schedule.  8 seeds, every client kind covered.
CLIENT_SCHEDULES = [
    FaultSchedule(
        seed=index,
        rate=0.2,
        kinds=(kind,),
        rules=(FaultRule(kind, 1),),
    )
    for index, kind in enumerate(CLIENT_KINDS)
] + [
    FaultSchedule(
        seed=99,
        rate=0.35,
        kinds=CLIENT_KINDS,
        rules=(FaultRule("disconnect", 1),),
    )
]

#: One schedule per server-side fault kind (includes blank-restart,
#: which only makes sense server-side), same forced-rule construction.
SERVER_SCHEDULES = [
    FaultSchedule(
        seed=50 + index,
        rate=0.15,
        kinds=(kind,),
        rules=(FaultRule(kind, 1),),
    )
    for index, kind in enumerate(SERVER_KINDS)
]


def canonical(result):
    return (
        result.complete,
        frozenset(
            (str(obj.object_id), ctx.to_tuple()) for obj, ctx in result.pairs
        ),
    )


def run_workload(instance, servers=None, fault_schedule=None):
    """One SafeCast pass over ``instance``; canonical answers + engine."""
    if servers is None:
        policy = bench_engine_policy()
    else:
        policy = bench_engine_policy(
            cache=CachePolicy(
                remote=tuple(server.address for server in servers),
                remote_timeout=1.0,
                retry=CHAOS_RETRY,
                fault_schedule=fault_schedule,
            )
        )
    engine = PointsToEngine(instance.pag, policy)
    client = SafeCastClient(instance.pag)
    try:
        _verdicts, batch = client.run_engine(engine, dedupe=False, reorder=False)
    finally:
        close = getattr(engine.cache, "close", None)
        if close is not None:
            close()  # the pass is over; its stats stay readable
    return [canonical(result) for result in batch.results], engine


@pytest.fixture(scope="module")
def figure4():
    instance = load_benchmark("jython", scale=0.3)
    answers, _engine = run_workload(instance)
    return instance, answers


@pytest.fixture(scope="module")
def generated():
    config = GeneratorConfig(
        seed=7,
        domain_classes=4,
        data_classes=3,
        box_variants=2,
        fields_per_class=2,
        workers_per_class=2,
        stmts_per_worker=4,
    )
    instance = load_benchmark("jython", config=config)
    answers, _engine = run_workload(instance)
    return instance, answers


class FakeClock:
    """A hand-advanced monotonic clock for breaker/backoff tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# the headline soak: every fault kind, identical answers
# ----------------------------------------------------------------------
class TestChaosIdentity:
    def test_client_fault_battery_figure4(self, figure4):
        instance, baseline = figure4
        for schedule in CLIENT_SCHEDULES:
            servers = [ShardServer(i, 2).start() for i in range(2)]
            try:
                answers, engine = run_workload(
                    instance, servers, fault_schedule=schedule
                )
                remote = engine.stats().remote
            finally:
                for server in servers:
                    server.stop()
            spec = schedule.to_spec()
            assert answers == baseline, spec
            assert remote.faults > 0, spec
            # Every injected fault that cost an answer was accounted as
            # a fall-open decision (delays cost nothing and truncation
            # of a response the op retried may heal, so >=, not ==).
            assert remote.degraded >= 0, spec
            assert len(remote.breaker_state) == 2, spec

    def test_server_fault_battery_figure4(self, figure4):
        instance, baseline = figure4
        for schedule in SERVER_SCHEDULES:
            servers = [
                ShardServer(i, 2, faults=schedule).start() for i in range(2)
            ]
            try:
                answers, engine = run_workload(instance, servers)
                injected = sum(
                    server.faults.total_injected() for server in servers
                )
                remote = engine.stats().remote
            finally:
                for server in servers:
                    server.stop()
            spec = schedule.to_spec()
            assert answers == baseline, spec
            assert injected > 0, spec
            assert remote is not None, spec

    def test_generator_workload_under_mixed_chaos(self, generated):
        instance, baseline = generated
        client_schedule = CLIENT_SCHEDULES[-1]
        server_schedule = SERVER_SCHEDULES[-1]  # blank-restart
        servers = [
            ShardServer(i, 2, faults=server_schedule).start()
            for i in range(2)
        ]
        try:
            answers, engine = run_workload(
                instance, servers, fault_schedule=client_schedule
            )
            remote = engine.stats().remote
        finally:
            for server in servers:
                server.stop()
        assert answers == baseline
        assert remote.faults > 0

    def test_schedules_cover_every_fault_kind(self):
        covered = set()
        for schedule in CLIENT_SCHEDULES + SERVER_SCHEDULES:
            covered.update(schedule.kinds)
        assert covered == set(CLIENT_KINDS) | set(SERVER_KINDS)
        assert len(CLIENT_SCHEDULES) + len(SERVER_SCHEDULES) >= 8
        seeds = [s.seed for s in CLIENT_SCHEDULES + SERVER_SCHEDULES]
        assert len(seeds) == len(set(seeds))

    def test_schedule_specs_round_trip(self):
        for schedule in CLIENT_SCHEDULES + SERVER_SCHEDULES:
            assert FaultSchedule.parse(schedule.to_spec()) == schedule


# ----------------------------------------------------------------------
# breaker: bounded error cost against a dead fleet
# ----------------------------------------------------------------------
class TestBreakerBounds:
    def test_dead_fleet_attempts_bounded_by_backoff_ladder(self):
        """With every shard down, a link makes at most
        ``attempts_within(window)`` real connection attempts per window:
        one probe per backoff cycle, everything else fails fast."""
        retry = RetryPolicy(initial=0.05, multiplier=2.0, max_delay=2.0)
        clock = FakeClock()
        # connect-refused at rate 1.0: every *allowed* attempt is
        # refused before touching the network, and the injector's op
        # count is exactly the number of real attempts made.
        injector = FaultInjector(
            FaultSchedule(seed=1, rate=1.0, kinds=("connect-refused",)),
            side="client",
        )
        link = ShardLink(
            "127.0.0.1:9", timeout=0.2, retry=retry,
            faults=injector, clock=clock,
        )
        window = 60.0
        while clock.now < window:
            with pytest.raises(ShardUnavailable):
                link.request("{}")
            clock.now += 0.01
        attempts = injector.total_injected()
        bound = retry.attempts_within(window, key=link.breaker.key)
        assert 0 < attempts <= bound + 1
        # And the ladder is dramatically tighter than hammering: 6000
        # calls were made, only a backoff-ladder's worth hit the wire.
        assert attempts < 100
        assert link.breaker.state == BREAKER_OPEN
        assert link.breaker.trips == attempts

    def test_two_links_do_not_retry_in_lockstep(self):
        """Satellite regression: sibling links share a failure instant
        but NOT a reopen instant — the jitter key is the address, so a
        cluster-wide outage does not produce a reconnect storm."""
        retry = RetryPolicy(initial=0.5, multiplier=2.0, max_delay=8.0)
        clock = FakeClock()
        a = ShardLink("127.0.0.1:40001", retry=retry, clock=clock)
        b = ShardLink("127.0.0.1:40002", retry=retry, clock=clock)
        a.breaker.record_failure()
        b.breaker.record_failure()
        assert a.breaker.state == b.breaker.state == BREAKER_OPEN
        assert a.breaker.opened_until != b.breaker.opened_until
        # The divergence is structural, not a one-cycle accident.
        delays_a = [retry.delay_for(c, key=a.breaker.key) for c in range(6)]
        delays_b = [retry.delay_for(c, key=b.breaker.key) for c in range(6)]
        assert delays_a != delays_b

    def test_half_open_probe_recovers_a_healed_link(self):
        retry = RetryPolicy(initial=0.05, multiplier=2.0, max_delay=1.0)
        clock = FakeClock()
        server = ShardServer(0, 1).start()
        try:
            link = ShardLink(
                server.address, timeout=2.0, retry=retry, clock=clock
            )
            link.breaker.record_failure()
            assert not link.breaker.allow()
            # Advance past the open window: the next call is the single
            # half-open probe, and a live server closes the breaker.
            clock.now = link.breaker.opened_until + 0.001
            response = decode_response(
                link.request(encode(StoreStatsRequest()))
            )
            assert isinstance(response, StoreStatsResponse)
            assert link.breaker.state == "closed"
            assert link.breaker.probes >= 1
            link.close()
        finally:
            server.stop()


# ----------------------------------------------------------------------
# hostile reconnect-and-seed
# ----------------------------------------------------------------------
def _warm_engine_against(server):
    from repro import EnginePolicy

    pag = build_pag(parse_program(SRC))
    policy = EnginePolicy(
        cache=CachePolicy(
            remote=(server.address,), remote_timeout=2.0, retry=CHAOS_RETRY
        ),
    )
    engine = PointsToEngine(pag, policy)
    plain = PointsToEngine(
        build_pag(parse_program(SRC)), EnginePolicy()
    )
    queries = []
    for qname in sorted(pag.methods()):
        for node in pag.nodes_of_method(qname):
            if node.is_local_var:
                queries.append((qname, node.name))
    queries = sorted(queries)
    baseline = [canonical(r) for r in plain.query_batch(queries)]
    warm = [canonical(r) for r in engine.query_batch(queries)]
    assert warm == baseline
    return engine, queries, baseline


class TestHostileSeeding:
    def _restart_blank(self, server):
        port = server.port
        server.stop()
        return ShardServer(0, 1, port=port).start()

    def test_corrupted_seed_lines_do_not_poison_answers(self):
        server = ShardServer(0, 1).start()
        engine, queries, baseline = _warm_engine_against(server)
        replacement = self._restart_blank(server)
        try:
            link = engine.cache._links[0]
            original = link.seed_provider
            link.seed_provider = lambda: [
                corrupt_line(line) for line in original()
            ]
            with pytest.raises(ShardUnavailable):
                link.request(encode(StoreStatsRequest()))
            link.breaker.reset()
            # The reconnect flight carries garbage seed lines; the
            # server answers each with a typed error, the seed ack
            # degrades gracefully, and the triggering request still
            # succeeds.
            response = decode_response(
                link.request(encode(StoreStatsRequest()))
            )
            assert isinstance(response, StoreStatsResponse)
            remote = engine.cache.remote_stats()
            assert remote.reconnects == 1
            assert remote.seeded_entries == 0  # nothing adoptable landed
            answers = [canonical(r) for r in engine.query_batch(queries)]
            assert answers == baseline
        finally:
            engine.cache.close()
            replacement.stop()

    def test_shard_dying_mid_seed_falls_open_then_recovers(self):
        server = ShardServer(0, 1).start()
        engine, queries, baseline = _warm_engine_against(server)
        served = len(server.store)
        assert served > 0
        replacement = self._restart_blank(server)
        try:
            link = engine.cache._links[0]
            with pytest.raises(ShardUnavailable):
                link.request(encode(StoreStatsRequest()))
            link.breaker.reset()
            original = link.seed_provider

            def dying_provider():
                # The replacement dies while the client assembles its seed
                # flight: the exchange must fail cleanly (no partial seed
                # adopted), and the *next* recovery must still seed fully.
                lines = list(original())
                replacement.stop()
                return lines

            link.seed_provider = dying_provider
            with pytest.raises(ShardUnavailable):
                link.request(encode(StoreStatsRequest()))
            link.seed_provider = original
            answers = [canonical(r) for r in engine.query_batch(queries)]
            assert answers == baseline
            # Second replacement on the same port: recovery re-seeds fully.
            second = ShardServer(0, 1, port=replacement.port).start()
            try:
                link.breaker.reset()
                response = decode_response(
                    link.request(encode(StoreStatsRequest()))
                )
                assert isinstance(response, StoreStatsResponse)
                assert response.stats.entries == served
            finally:
                second.stop()
        finally:
            engine.cache.close()

    def test_stale_epoch_refusal_during_seeding(self):
        server = ShardServer(0, 1).start()
        engine, queries, baseline = _warm_engine_against(server)
        seeded_methods = sorted(
            {
                entry_method(entry)
                for entry in server.store.entries_for_methods()
            }
        )
        assert seeded_methods
        replacement = self._restart_blank(server)
        try:
            # The replacement comes back with one method's epoch far
            # ahead of this client's view (another client edited while
            # we were away): seeds for it are refused stale-epoch, the
            # rest land, and answers never regress.
            replacement.store.invalidate_method(seeded_methods[0], epoch=5)
            link = engine.cache._links[0]
            with pytest.raises(ShardUnavailable):
                link.request(encode(StoreStatsRequest()))
            link.breaker.reset()
            response = decode_response(
                link.request(encode(StoreStatsRequest()))
            )
            assert isinstance(response, StoreStatsResponse)
            remote = engine.cache.remote_stats()
            assert remote.reconnects == 1
            answers = [canonical(r) for r in engine.query_batch(queries)]
            assert answers == baseline
        finally:
            engine.cache.close()
            replacement.stop()


# ----------------------------------------------------------------------
# protocol 1.6 stats rows, through the wire
# ----------------------------------------------------------------------
def _stats_response(remote):
    return StatsResponse(
        analysis="ppta", queries=1, executed=1, batches=1, deduped=0,
        steps=1, incomplete=0, edits=0, remote=remote,
    )


class TestFailureStatsOnTheWire:
    def test_remote_stats_rows_round_trip(self):
        stats = RemoteStoreStats(
            shards=2,
            remote_hits=3,
            faults=7,
            degraded=4,
            breaker_state=("open", "closed"),
        )
        decoded = decode_response(
            encode(_stats_response(remote=stats))
        )
        assert isinstance(decoded, StatsResponse)
        assert decoded.remote.faults == 7
        assert decoded.remote.degraded == 4
        assert decoded.remote.breaker_state == ("open", "closed")

    def test_live_engine_reports_breaker_and_degraded_rows(self):
        schedule = FaultSchedule(
            seed=3, rate=0.0, rules=(FaultRule("disconnect", 1),)
        )
        server = ShardServer(0, 1).start()
        try:
            instance = load_benchmark("jython", scale=0.1)
            _answers, engine = run_workload(
                instance, [server], fault_schedule=schedule
            )
            stats = engine.stats()
            decoded = decode_response(
                encode(_stats_response(remote=stats.remote))
            )
            assert decoded.remote.faults >= 1
            assert decoded.remote.degraded >= 1
            assert decoded.remote.breaker_state[0] in (
                "closed", "open", "half-open",
            )
        finally:
            server.stop()


# ----------------------------------------------------------------------
# no orphans: every chaos server releases its port on stop
# ----------------------------------------------------------------------
class TestNoOrphans:
    def test_chaos_server_stop_releases_the_port(self):
        import socket

        schedule = SERVER_SCHEDULES[0]
        server = ShardServer(0, 1, faults=schedule).start()
        link = ShardLink(server.address, timeout=2.0, retry=CHAOS_RETRY)
        try:
            link.request(encode(StoreStatsRequest()))
        except ShardUnavailable:
            pass  # the schedule may fault the very first op
        link.close()
        host, port = server.host, server.port
        server.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
