"""The process-level shared summary-cache service.

An engine runs each batch on its calling thread; this package shares
DYNSUM summaries **across analysis processes** instead.  It is built on
two earlier layers: summaries travel in the :mod:`repro.api.snapshot`
entry format over the store-level ops of the versioned wire protocol
(``lookup``/``store``/``invalidate``/``store-stats``), and the service
is partitioned by a stable CRC-32 of the key node's method
(:func:`~repro.analysis.summaries.shard_for_method`) — one shard-server
*process* per partition, and the method is the invalidation
granularity, so an edit touches exactly one shard.

Three pieces:

* :class:`~repro.cacheserver.server.ShardServer` — one shard: a
  JSON-lines socket server, a thread per connection (the
  :class:`~repro.cacheserver.server.LineServer` transport, which
  ``repro-serve --listen`` mounts too), over a method-indexed,
  optionally bounded wire-form store (:class:`~repro.cacheserver.store.WireSummaryStore`),
  which keeps its entries in the engine's own LRU
  :class:`~repro.analysis.summaries.BoundedSummaryCache`, so a shard
  evicts, counts and versions summaries with the same code as a local
  store.  It is program-agnostic: entries are stored in wire form, so
  one service can back any number of clients analysing the same
  program.
  :class:`~repro.cacheserver.server.CacheCluster` spawns N of them as
  child processes (the ``repro-cached`` launcher rides it).
* :class:`~repro.cacheserver.client.RemoteSummaryCache` — the
  client-side store stub: a
  :class:`~repro.analysis.summaries.SummaryBackend` whose lookups probe
  a local tier that prefetches fill (one ``fetch-methods`` round trip
  per shard at the start of every query, alias check and batch) and
  whose new summaries go out in one ``batch-store`` flush per shard at
  its end.  Misses, timeouts and dead servers fall back to local computation —
  summaries are pure memos, so answers are element-wise identical with
  the service up, down, or killed mid-batch; only cost moves.
  Engines opt in with ``CachePolicy(remote=(addr, ...))``.
* the ``repro-cached`` console entry point
  (:mod:`repro.cacheserver.cli`) — cluster launcher, single-shard
  server, and a JSON-lines client REPL for scripted exchanges.
"""

from repro.cacheserver.client import (
    RemoteSummaryCache,
    ShardLink,
    ShardUnavailable,
    parse_addresses,
)
from repro.cacheserver.server import CacheCluster, ShardServer
from repro.cacheserver.store import WireSummaryStore, canonical_key

__all__ = [
    "CacheCluster",
    "RemoteSummaryCache",
    "ShardLink",
    "ShardServer",
    "ShardUnavailable",
    "WireSummaryStore",
    "canonical_key",
    "parse_addresses",
]
