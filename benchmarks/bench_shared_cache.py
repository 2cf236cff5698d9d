"""Shared cache service — multi-process warm-client step reduction.

The deployment protocol of the process-level cache service: for each
Figure-4 benchmark, a 2-shard server cluster is spawned (real
processes, via ``python -m repro.cacheserver --serve-shard``) and two
analysis *processes* replay the SafeCast paper-protocol workload
(``python -m repro.cacheserver.workload``) against it:

* **cold** — first client: empty service, every summary computed
  locally and published in the batch's end-of-batch flush;
* **warm** — second client: fresh process, empty local tier, warm
  service — summaries arrive in the batch's prefetch instead of being
  recomputed.

Asserted per benchmark: all clients' answers are element-wise identical
to a single-process engine's (the canonical-results digest), the warm
client saw zero remote errors, completed in **< 75 %** of the cold
client's steps — the acceptance bar of the shared-cache milestone —
and read the shards only through its prefetch: O(shards) round trips
and no lookup.  Reported per client: steps, step ratio and remote
prefetch/store/round-trip traffic.  The client processes are not
timed: a whole ``subprocess.run`` is mostly interpreter start-up, and
e2ebench's ``shared-threaded`` workload times this deployment shape in
process.

A second protocol sweeps the **serving tier**: a warm cluster serves
1/4/16/64 concurrent pipelined clients, each with one connection (so
one server thread) per shard, recording wall-clock and round trips per
client count.

Set ``REPRO_WRITE_BASELINE=1`` to (re)write ``BENCH_shared.json``.
Its step, store, hit and round-trip counts are exact; the wall-clock
fields — the in-process ``single_process`` row and the concurrency
sweep — vary by host.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.bench.runner import bench_engine_policy
from repro.bench.suite import load_benchmark
from repro.cacheserver.server import CacheCluster
from repro.cacheserver.workload import canonical_results, results_digest
from repro.clients import SafeCastClient
from repro.engine import PointsToEngine

from conftest import FIGURE_BENCHMARKS, SCALE, perf_fields

BASELINE_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_shared.json"

_ROWS = []


def _run_client_process(addresses, name):
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [
        sys.executable, "-m", "repro.cacheserver.workload",
        "--benchmark", name, "--scale", str(SCALE),
        "--client", "SafeCast", "--remote", ",".join(addresses),
    ]
    proc = subprocess.run(
        command, capture_output=True, text=True, env=env, timeout=580,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", FIGURE_BENCHMARKS)
def test_shared_cache_warm_client(benchmark, figure_instances, name):
    instance = figure_instances[name]
    client = SafeCastClient(instance.pag)
    engine = PointsToEngine(instance.pag, bench_engine_policy())
    _verdicts, batch = client.run_engine(engine, dedupe=False, reorder=False)
    single_digest = results_digest(canonical_results(batch.results))

    def deployment():
        with CacheCluster.spawn(shards=2) as cluster:
            cold = _run_client_process(cluster.addresses, name)
            warm = _run_client_process(cluster.addresses, name)
        assert not any(cluster.alive())
        return cold, warm

    cold, warm = benchmark.pedantic(deployment, rounds=1, iterations=1)

    # Element-wise identity across the process boundary, both clients.
    assert cold["digest"] == single_digest
    assert warm["digest"] == single_digest
    assert warm["remote"]["remote_errors"] == 0
    # The acceptance bar: a warm second client rides the service.
    assert warm["steps"][0] < 0.75 * cold["steps"][0]
    # Its batch reads the shards only through its prefetch: O(shards)
    # round trips (prefetch + flush), no lookup.
    assert warm["remote"]["prefetched"] > 0
    assert warm["remote"]["round_trips"] <= 2 * 2
    assert warm["remote"]["remote_hits"] + warm["remote"]["remote_misses"] == 0

    _ROWS.append(
        {
            "benchmark": name,
            "client": "SafeCast",
            "n_queries": cold["n_queries"],
            "shards": 2,
            "single_process": perf_fields(batch.stats),
            "cold": {
                "steps": cold["steps"][0],
                "stores": cold["remote"]["stores"],
                "round_trips": cold["remote"]["round_trips"],
            },
            "warm": {
                "steps": warm["steps"][0],
                "prefetched": warm["remote"]["prefetched"],
                "remote_hits": warm["remote"]["remote_hits"],
                "remote_misses": warm["remote"]["remote_misses"],
                "round_trips": warm["remote"]["round_trips"],
            },
            "step_ratio": round(warm["steps"][0] / cold["steps"][0], 4),
        }
    )


def _concurrent_pipelined_clients(addresses, pag, n_clients):
    """``n_clients`` pipelined clients (each its own connection, each a
    full prefetch + flush cycle) hammering the cluster at once from
    this process.  Returns (wall_sec, per-client RemoteStoreStats)."""
    import threading

    from repro.cacheserver.client import RemoteSummaryCache

    stats = [None] * n_clients
    errors = []

    def one_client(slot):
        try:
            cache = RemoteSummaryCache(addresses, timeout=10.0)
            cache.bind_pag(pag)
            cache.begin_batch()
            cache.end_batch()
            stats[slot] = cache.remote_stats()
            cache.close()
        except Exception as exc:  # surfaced below: threads must not die silently
            errors.append(exc)

    threads = [
        threading.Thread(target=one_client, args=(slot,))
        for slot in range(n_clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    wall = time.perf_counter() - started
    assert not errors, errors
    assert all(s is not None for s in stats)
    return wall, stats


_SWEEP = {}

#: Concurrent clients per sweep step; at 64, 64 client threads and 128
#: connection threads run at once.
SWEEP_CLIENTS = (1, 4, 16, 64)


def test_concurrency_sweep(benchmark, figure_instances):
    """The serving-tier scaling protocol: a warm 2-shard cluster serves
    1 / 4 / 16 / 64 concurrent pipelined clients.  Wall-clock and round
    trips are recorded per client count."""
    from repro.engine import CachePolicy

    name = FIGURE_BENCHMARKS[0]
    instance = figure_instances[name]
    client = SafeCastClient(instance.pag)

    def sweep():
        rows = {}
        with CacheCluster.spawn(shards=2) as cluster:
            # Seed the service once so every sweep client runs warm —
            # the sweep measures the serving tier, not the analysis.
            seeder = PointsToEngine(
                instance.pag,
                bench_engine_policy(
                    cache=CachePolicy(
                        remote=cluster.addresses, remote_timeout=10.0
                    )
                ),
            )
            client.run_engine(seeder, dedupe=False, reorder=False)
            seeded = sum(
                1 for _ in seeder.cache.local_tier.entries()
            )
            assert seeded > 0
            for n_clients in SWEEP_CLIENTS:
                wall, stats = _concurrent_pipelined_clients(
                    cluster.addresses, instance.pag, n_clients
                )
                prefetched = [s.prefetched for s in stats]
                assert all(count > 0 for count in prefetched)
                assert len(set(prefetched)) == 1  # every client saw the same service
                rows[str(n_clients)] = {
                    "wall_sec": wall,
                    "round_trips_per_client": stats[0].round_trips,
                    "prefetched_per_client": prefetched[0],
                }
        assert not any(cluster.alive())
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # O(shards) pipelined cost regardless of client count.
    for row in rows.values():
        assert row["round_trips_per_client"] <= 2 * 2
    _SWEEP.update(
        {
            "benchmark": name,
            "shards": 2,
            "clients": list(SWEEP_CLIENTS),
            "rows": rows,
        }
    )


def test_print_shared_cache(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _ROWS:
        pytest.skip("series did not run")
    header = (
        f"{'benchmark':10s} {'queries':>7s} {'cold steps':>10s} "
        f"{'warm steps':>10s} {'ratio':>6s} {'warm rt':>8s} "
        f"{'prefetched':>10s} {'published':>9s}"
    )
    print("\n\nShared cache service — 2 shard processes, 2 client processes")
    print(header)
    print("-" * len(header))
    for row in _ROWS:
        print(
            f"{row['benchmark']:10s} {row['n_queries']:>7d} "
            f"{row['cold']['steps']:>10d} {row['warm']['steps']:>10d} "
            f"{row['step_ratio']:>6.2f} {row['warm']['round_trips']:>8d} "
            f"{row['warm']['prefetched']:>10d} "
            f"{row['cold']['stores']:>9d}"
        )
    if _SWEEP:
        print(
            "\nServing-tier sweep — warm 2-shard cluster, "
            f"{_SWEEP['benchmark']}, concurrent pipelined clients"
        )
        print(f"{'clients':>7s} {'sec':>7s}")
        for n in _SWEEP["clients"]:
            print(f"{n:>7d} {_SWEEP['rows'][str(n)]['wall_sec']:>7.3f}")
    if os.environ.get("REPRO_WRITE_BASELINE"):
        payload = {
            "protocol": "bench_shared_cache",
            "scale": SCALE,
            "rows": _ROWS,
        }
        if _SWEEP:
            payload["concurrency_sweep"] = _SWEEP
        BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote baseline {BASELINE_PATH}")
