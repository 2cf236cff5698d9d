"""One analysis *process* of a shared-cache deployment, scriptable.

``python -m repro.cacheserver.workload`` builds an engine (over a named
synthetic benchmark or a PIR program file), optionally joins a shard
cluster (``--remote``), replays a client workload through the paper's
protocol (published query stream: no dedup, no reorder, sequential),
and prints one JSON report: deterministic step counts per round, a
canonical digest of every answer (so answers can be compared
element-wise *across processes*), the traversal impl the engine ran
under (with ``native_unavailable``, why the kernel did not serve it),
and the engine/remote accounting.

This is the client half of the multi-process integration tests, the
``benchmarks/bench_shared_cache.py`` protocol, and the CI smoke job —
one honest subprocess instead of three ad-hoc scripts.
"""

import argparse
import hashlib
import json
import sys

from repro.bench.runner import bench_engine_policy
from repro.clients import ALL_CLIENTS
from repro.engine import CachePolicy, PointsToEngine

CLIENTS = {cls.name: cls for cls in ALL_CLIENTS}


def canonical_results(results):
    """A JSON-stable form of a batch's answers: per query, completeness
    plus the sorted ``(object id, class, context)`` pairs.  Equal
    canonical forms mean element-wise identical answers."""
    return [
        {
            "complete": result.complete,
            "pairs": sorted(
                [str(obj.object_id), obj.class_name, list(ctx.to_tuple())]
                for obj, ctx in result.pairs
            ),
        }
        for result in results
    ]


def results_digest(canonical):
    return hashlib.sha256(
        json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def _wait_for_cluster(addresses, deadline_sec):
    """Block until every shard accepts a TCP connection, with the same
    jittered-backoff policy the serving client uses (one ladder, not a
    bespoke sleep loop).  Raises ``ShardUnavailable`` at the deadline —
    a workload told to wait for a cluster that never comes up should
    fail loudly, not silently measure the local fallback."""
    import socket

    from repro.cacheserver.client import ShardUnavailable
    from repro.cacheserver.faults import RetryPolicy, wait_until

    pending = list(addresses)

    def probe():
        still = []
        for address in pending:
            host, port = address.rsplit(":", 1)
            try:
                with socket.create_connection((host, int(port)), timeout=0.25):
                    pass
            except OSError:
                still.append(address)
        pending[:] = still
        return not pending

    policy = RetryPolicy(initial=0.05, max_delay=0.5, deadline=deadline_sec)
    if not wait_until(probe, policy):
        raise ShardUnavailable(
            f"cluster not reachable within {deadline_sec}s: "
            + ",".join(pending)
        )


def build_engine(args):
    if args.benchmark is not None:
        from repro.bench.suite import load_benchmark

        instance = load_benchmark(args.benchmark, scale=args.scale)
        pag = instance.pag
    else:
        from repro.ir.parser import parse_program
        from repro.pag.builder import build_pag

        with open(args.program, "r", encoding="utf-8") as handle:
            source = handle.read()
        pag = build_pag(parse_program(source, entry=args.entry))
    remote = None
    if args.remote:
        from repro.cacheserver.client import parse_addresses

        remote = parse_addresses(args.remote)
        if args.wait_remote:
            _wait_for_cluster(remote, args.wait_remote)
    cache = CachePolicy(
        max_entries=args.max_entries,
        max_facts=args.max_facts,
        remote=remote,
        remote_timeout=args.remote_timeout,
        fault_schedule=args.faults if remote else None,
    )
    # The paper protocol's policy (field-depth k-limit) —
    # the same numbers every other benchmark in the repo reports.
    return PointsToEngine(pag, bench_engine_policy(cache=cache)), pag


def run(args):
    engine, pag = build_engine(args)
    try:
        return _run(args, engine, pag)
    finally:
        close = getattr(engine.cache, "close", None)
        if close is not None:
            close()  # a remote store's shard links


def _run(args, engine, pag):
    client = CLIENTS[args.client](pag)
    rounds = []
    canonical = None
    for _ in range(args.rounds):
        _verdicts, batch = client.run_engine(engine, dedupe=False, reorder=False)
        canonical = canonical_results(batch.results)
        rounds.append(
            {
                "steps": batch.stats.steps,
                "hit_rate": round(batch.stats.hit_rate, 4),
                "digest": results_digest(canonical),
            }
        )
    invalidated = None
    if args.invalidate is not None:
        invalidated = engine.invalidate_method(args.invalidate)
    stats = engine.stats()
    report = {
        "workload": args.benchmark or args.program,
        "client": args.client,
        "n_queries": len(canonical) if canonical is not None else 0,
        "rounds": rounds,
        "steps": [r["steps"] for r in rounds],
        "digest": rounds[-1]["digest"] if rounds else None,
        "invalidated": invalidated,
        "traversal_impl": stats.traversal_impl,
        "native_unavailable": stats.native_unavailable,
        "cache": {
            "hits": stats.cache.hits,
            "misses": stats.cache.misses,
            "entries": stats.cache.entries,
            "evictions": stats.cache.evictions,
        }
        if stats.cache is not None
        else None,
        "remote": {
            "shards": stats.remote.shards,
            "remote_hits": stats.remote.remote_hits,
            "remote_misses": stats.remote.remote_misses,
            "remote_errors": stats.remote.remote_errors,
            "unresolved": stats.remote.unresolved,
            "stores": stats.remote.stores,
            "store_errors": stats.remote.store_errors,
            "invalidations": stats.remote.invalidations,
            "invalidation_errors": stats.remote.invalidation_errors,
            "round_trips": stats.remote.round_trips,
            "prefetched": stats.remote.prefetched,
            "epoch_rejections": stats.remote.epoch_rejections,
            "reconnects": stats.remote.reconnects,
            "seeded_entries": stats.remote.seeded_entries,
            "faults": stats.remote.faults,
            "degraded": stats.remote.degraded,
            "breaker_state": list(stats.remote.breaker_state),
        }
        if stats.remote is not None
        else None,
    }
    if args.results is not None:
        with open(args.results, "w", encoding="utf-8") as handle:
            json.dump(canonical, handle, sort_keys=True)
            handle.write("\n")
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.cacheserver.workload",
        description="run one client workload as one analysis process",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--benchmark", metavar="NAME", default=None)
    source.add_argument("--program", metavar="PATH", default=None)
    parser.add_argument("--entry", default="Main.main")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--client", default="SafeCast", choices=sorted(CLIENTS)
    )
    parser.add_argument("--remote", metavar="ADDR,ADDR,...", default=None)
    parser.add_argument("--remote-timeout", type=float, default=2.0)
    parser.add_argument(
        "--wait-remote",
        type=float,
        metavar="SECONDS",
        default=0.0,
        help="wait up to SECONDS for every shard to accept connections "
        "before the workload starts (jittered backoff; fails loudly at "
        "the deadline instead of silently measuring the local fallback)",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="deterministic client-side fault injection, e.g. "
        "'seed=7,rate=0.1,kinds=disconnect|read-timeout' (see "
        "repro.cacheserver.faults.FaultSchedule.parse; the REPRO_FAULTS "
        "environment variable applies when this flag is absent)",
    )
    parser.add_argument("--max-entries", type=int, default=None)
    parser.add_argument("--max-facts", type=int, default=None)
    parser.add_argument(
        "--rounds", type=int, default=1, help="workload repetitions (default 1)"
    )
    parser.add_argument(
        "--invalidate",
        metavar="METHOD",
        default=None,
        help="invalidate one method after the workload (edit simulation)",
    )
    parser.add_argument(
        "--results",
        metavar="PATH",
        default=None,
        help="write the canonical answers to PATH for exact comparison",
    )
    args = parser.parse_args(argv)
    json.dump(run(args), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
