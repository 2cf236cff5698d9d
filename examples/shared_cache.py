"""Shared summary-cache service: many processes, one warm cache.

Spawns a 2-shard cache cluster (real server processes, exactly what
``repro-cached --shards 2`` launches), then runs two independent
engines against it — modelling two analysis processes working on the
same program.  The first computes and publishes; the second is served
by the shard servers — its batch prefetches what the first published,
one round trip per shard — and traverses a fraction of the steps.  Killing
the cluster mid-session demonstrates the fail-open guarantee: answers
never change, only cost.

Run:  PYTHONPATH=src python examples/shared_cache.py
"""

from repro import CachePolicy, EnginePolicy, PointsToEngine, build_pag, parse_program
from repro.cacheserver import CacheCluster

SHARED_CACHE_SOURCE = """
class Document { }
class Cache { }
class Parser {
  method parse() {
    d = new Document;
    return d;
  }
}
class Indexer {
  method index(p) {
    doc = p.parse();
    return doc;
  }
}
class Main {
  static method main() {
    parser = new Parser;
    indexer = new Indexer;
    d1 = indexer.index(parser);
    d2 = parser.parse();
    c = new Cache;
  }
}
"""

QUERIES = [
    ("Main.main", "d1"),
    ("Main.main", "d2"),
    ("Indexer.index", "doc"),
    ("Parser.parse", "d"),
]


def fresh_engine(addresses):
    """One 'analysis process': its own PAG, its own local tier, shared
    shard servers."""
    return PointsToEngine(
        build_pag(parse_program(SHARED_CACHE_SOURCE)),
        EnginePolicy(cache=CachePolicy(remote=addresses, remote_timeout=2.0)),
    )


def show(label, engine, batch):
    remote = engine.stats().remote
    print(
        f"{label}: steps={batch.stats.steps:3d}  "
        f"prefetched={remote.prefetched}  round trips={remote.round_trips}  "
        f"errors={remote.remote_errors}  published={remote.stores}"
    )
    return {
        (query, frozenset(str(obj.object_id) for obj, _ in result.pairs))
        for query, result in zip(QUERIES, batch.results)
    }


def main():
    with CacheCluster.spawn(shards=2) as cluster:
        print(f"cluster up: {', '.join(cluster.addresses)}\n")

        first = fresh_engine(cluster.addresses)
        answers_cold = show("client 1 (cold service)", first, first.query_batch(QUERIES))

        second = fresh_engine(cluster.addresses)
        answers_warm = show("client 2 (warm service)", second, second.query_batch(QUERIES))
        assert answers_warm == answers_cold

        print("\nkilling the cluster mid-session ...")
        cluster.kill()
        third = fresh_engine(cluster.addresses)
        answers_down = show("client 3 (service dead)", third, third.query_batch(QUERIES))
        assert answers_down == answers_cold
        print("\nanswers identical in all three regimes — the service only moves cost")


if __name__ == "__main__":
    main()
