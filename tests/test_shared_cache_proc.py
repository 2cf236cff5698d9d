"""The shared cache service, multi-process: the deployment the paper's
economics scale to.

Real shard-server *processes* (spawned via ``python -m repro.cacheserver
--serve-shard``, exactly what ``repro-cached`` launches) serve real
client *processes* (``python -m repro.cacheserver.workload``) over TCP.
Pinned here:

* answers are element-wise identical across process boundaries — every
  client process, warm or cold, reproduces the single-process engine's
  canonical results on the Figure-4 workload;
* a warm second client (fresh process, empty local tier, warm service)
  completes in **< 75 %** of the cold client's traversal steps — the
  acceptance bar of ``benchmarks/BENCH_shared.json``;
* invalidation propagates: an edit applied in one client process drops
  the owning shard server's entries, and a later client process
  observes the drop at its prefetch (fewer entries fetched than a
  pristine service offered), while the epoch guard refuses its flushed
  write-throughs for the edited method;
* killing the server processes mid-workload degrades to local compute
  with identical answers;
* the cluster never leaks: stopping it leaves no live child processes.

These tests cost a few subprocess spawns each; the in-process twin
(``tests/test_cacheserver.py``) covers the fine-grained semantics.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro import CachePolicy, PointsToEngine
from repro.bench.runner import bench_engine_policy
from repro.bench.suite import load_benchmark
from repro.cacheserver.server import CacheCluster
from repro.cacheserver.workload import canonical_results
from repro.clients import SafeCastClient
from repro.native import availability

SRC_DIR = pathlib.Path(repro.__file__).resolve().parent.parent

BENCHMARK = "soot-c"
SCALE = "0.3"
CLIENT = "SafeCast"


@pytest.fixture
def proc_env(monkeypatch):
    """Make `python -m repro...` resolvable in every child process."""
    existing = os.environ.get("PYTHONPATH", "")
    merged = str(SRC_DIR) + (os.pathsep + existing if existing else "")
    monkeypatch.setenv("PYTHONPATH", merged)
    return dict(os.environ, PYTHONPATH=merged)


@pytest.fixture
def cluster(proc_env):
    with CacheCluster.spawn(shards=2) as cluster:
        assert all(cluster.alive())
        yield cluster
    assert not any(cluster.alive()), "cluster.stop() left live shard processes"


def run_client_process(env, cluster=None, results=None, invalidate=None):
    cmd = [
        sys.executable, "-m", "repro.cacheserver.workload",
        "--benchmark", BENCHMARK, "--scale", SCALE, "--client", CLIENT,
    ]
    if cluster is not None:
        cmd += ["--remote", ",".join(cluster.addresses)]
    if results is not None:
        cmd += ["--results", str(results)]
    if invalidate is not None:
        cmd += ["--invalidate", invalidate]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def baseline_canonical():
    """The single-process engine's answers for the same workload."""
    instance = load_benchmark(BENCHMARK, scale=float(SCALE))
    client = SafeCastClient(instance.pag)
    engine = PointsToEngine(instance.pag, bench_engine_policy())
    _verdicts, batch = client.run_engine(engine, dedupe=False, reorder=False)
    return canonical_results(batch.results), batch.stats.steps, engine


def cached_method_of(engine):
    """Some method that actually holds cached summaries (to invalidate)."""
    for (node, _stack, _state), _summary in engine.cache.entries():
        if node.method is not None:
            return node.method
    raise AssertionError("workload cached nothing?")


class TestMultiProcessDeployment:
    def test_two_clients_identical_answers_and_warm_ratio(
        self, cluster, proc_env, tmp_path
    ):
        base, base_steps, _engine = baseline_canonical()

        cold = run_client_process(
            proc_env, cluster, results=tmp_path / "cold.json"
        )
        warm = run_client_process(
            proc_env, cluster, results=tmp_path / "warm.json"
        )

        # Element-wise identity across all three processes.
        cold_results = json.loads((tmp_path / "cold.json").read_text())
        warm_results = json.loads((tmp_path / "warm.json").read_text())
        assert cold_results == base
        assert warm_results == base

        # The cold client computed everything itself (and published via
        # the default pipelined batch-store flush); the warm client was
        # served by the shard processes — pipelined by default, its
        # batch prefetch fills the tier in O(shards) round trips.
        assert cold["steps"][0] == base_steps
        assert cold["remote"]["remote_hits"] == 0
        assert cold["remote"]["stores"] > 0
        # Each batch's prefetch answered both shards, so the cold client
        # looked no probe up either, and — with the kernel loaded — both
        # clients ran on it.
        assert cold["remote"]["remote_misses"] == 0
        if availability()[0]:
            assert cold["native_unavailable"] is None
            assert warm["native_unavailable"] is None
        assert warm["remote"]["prefetched"] > 0
        assert warm["remote"]["remote_misses"] == 0
        assert warm["remote"]["remote_errors"] == 0
        # O(shards): one prefetch exchange per shard plus one flush
        # flight per shard with writes — not one trip per lookup.
        assert warm["remote"]["round_trips"] <= 2 * len(cluster.addresses)

        # The acceptance bar: warm second client < 75% of cold steps.
        assert warm["steps"][0] < 0.75 * cold["steps"][0]

    def test_invalidation_propagates_across_processes(
        self, cluster, proc_env, tmp_path
    ):
        base, _steps, engine = baseline_canonical()
        victim = cached_method_of(engine)

        # Every client runs its workload as one batch, so what it
        # publishes becomes visible at the batch's flush.
        # A populates; B confirms a pristine warm service: its prefetch
        # serves every probe it needs.
        run_client_process(proc_env, cluster)
        warm = run_client_process(proc_env, cluster)
        assert warm["remote"]["remote_errors"] == 0
        warm_prefetched = warm["remote"]["prefetched"]
        assert warm_prefetched > 0

        # An "edit" in one client process: run, then invalidate the
        # victim method through the store (what an engine edit does).
        editor = run_client_process(proc_env, cluster, invalidate=victim)
        assert editor["remote"]["invalidations"] == 1
        assert editor["remote"]["invalidation_errors"] == 0

        # A later client process observes the drop at its prefetch: the
        # victim's entries are gone, so it fetches fewer entries and
        # recomputes the victim's -- and the answers are still exactly
        # the baseline's.  The observer never applied the edit, so it
        # is *behind* the victim's epoch: its flushed write-throughs for
        # the victim are refused by the epoch guard instead of
        # resurrecting possibly-pre-edit memos on the shard.
        observer = run_client_process(
            proc_env, cluster, results=tmp_path / "observer.json"
        )
        assert observer["remote"]["prefetched"] < warm_prefetched
        assert observer["remote"]["epoch_rejections"] > 0
        assert json.loads((tmp_path / "observer.json").read_text()) == base

    def test_shard_restart_self_heals_with_identical_answers(
        self, cluster, proc_env, tmp_path
    ):
        """Kill every shard mid-deployment and restart it *blank* on
        the same port: the surviving client's links reconnect-and-seed
        (replaying their tier snapshots), so a fresh client is served
        warm again — with answers element-wise identical throughout."""
        from repro.api.codec import decode_response, encode
        from repro.api.protocol import StoreStatsRequest
        from repro.cacheserver.client import ShardUnavailable

        base, base_steps, _engine = baseline_canonical()
        instance = load_benchmark(BENCHMARK, scale=float(SCALE))
        client = SafeCastClient(instance.pag)
        # Generous timeout: the reconnect flight replays the whole tier
        # snapshot, and each chunk's response read gets one timeout
        # window — a loaded CI box must not turn seeding into a flake.
        # (The dead-socket failure below is a connection reset, not a
        # timeout, so it stays fast regardless.)
        engine = PointsToEngine(
            instance.pag,
            bench_engine_policy(
                cache=CachePolicy(remote=cluster.addresses, remote_timeout=10.0)
            ),
        )
        _v, first = client.run_engine(engine, dedupe=False, reorder=False)
        assert canonical_results(first.results) == base

        for index in range(len(cluster.addresses)):
            cluster.restart_shard(index)
        assert all(cluster.alive())

        # The links' sockets died with the old processes: the first op
        # on each link fails (and falls open, like any outage), arming
        # the retry backoff — clear it so the very next op reconnects
        # now instead of after the interval.
        links = engine.cache._links
        for link in links:
            with pytest.raises(ShardUnavailable):
                link.request(encode(StoreStatsRequest()))
            link.breaker.reset()

        # The next exchange per link reconnects, and the reconnect
        # replays the tier's seed snapshot in the same flight — the
        # blank shards are re-warmed, not served into the ground.
        seeded_totals = 0
        for link in links:
            response = decode_response(link.request(encode(StoreStatsRequest())))
            seeded_totals += response.stats.entries
        assert seeded_totals > 0
        remote = engine.cache.remote_stats()
        assert remote.reconnects == len(links)
        assert remote.seeded_entries > 0
        assert remote.seeded_entries == seeded_totals

        # A fresh client process is served by the re-seeded service:
        # the warm-client steps bar holds again, answers identical.
        healed = run_client_process(
            proc_env, cluster, results=tmp_path / "healed.json"
        )
        assert json.loads((tmp_path / "healed.json").read_text()) == base
        assert healed["remote"]["prefetched"] > 0
        assert healed["remote"]["remote_errors"] == 0
        assert healed["steps"][0] < 0.75 * base_steps

    def test_mid_workload_kill_falls_back_with_identical_answers(
        self, cluster, proc_env
    ):
        instance = load_benchmark(BENCHMARK, scale=float(SCALE))
        client = SafeCastClient(instance.pag)
        queries = client.queries()
        half = len(queries) // 2

        plain = PointsToEngine(instance.pag, bench_engine_policy())
        _v, plain1 = client.run_engine(plain, queries[:half], dedupe=False,
                                       reorder=False)
        _v, plain2 = client.run_engine(plain, queries[half:], dedupe=False,
                                       reorder=False)

        engine = PointsToEngine(
            instance.pag,
            bench_engine_policy(
                cache=CachePolicy(remote=cluster.addresses, remote_timeout=0.5)
            ),
        )
        _v, mine1 = client.run_engine(engine, queries[:half], dedupe=False,
                                      reorder=False)
        cluster.kill()  # SIGKILL: no goodbye, sockets just die
        assert not any(cluster.alive())
        _v, mine2 = client.run_engine(engine, queries[half:], dedupe=False,
                                      reorder=False)

        assert canonical_results(mine1.results) == canonical_results(
            plain1.results
        )
        assert canonical_results(mine2.results) == canonical_results(
            plain2.results
        )
        assert engine.stats().remote.remote_errors > 0


def test_a_shard_that_exits_before_announcing_fails_the_spawn_at_once(
    proc_env, monkeypatch
):
    """A child that refuses its options (``max_entries=0``) exits with
    code 2 before it announces: the spawn fails at once naming that
    code, not after the announce timeout, and leaves no child running."""
    import time

    from repro.cacheserver import server

    children = []
    real_popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        children.append(real_popen(*args, **kwargs))
        return children[-1]

    monkeypatch.setattr(server.subprocess, "Popen", recording_popen)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="exited with code 2 before announcing"):
        CacheCluster.spawn(shards=1, max_entries=0)
    assert time.monotonic() - started < server.SPAWN_TIMEOUT_SEC / 3
    assert len(children) == 1
    assert children[0].returncode == 2 and children[0].stdout.closed
