"""``repro-cached`` — operate the shared summary-cache service.

Three modes, one binary:

* **cluster launcher** (default): spawn N shard-server processes, print
  one ``{"event":"listening",...}`` JSON line per shard plus a final
  ``{"event":"ready","addresses":[...]}`` line, then serve until stdin
  reaches EOF (or SIGTERM/SIGINT) — at which point every child is
  terminated before exiting, so the launcher can never leak orphans::

      $ repro-cached --shards 2
      {"event": "listening", "host": "127.0.0.1", "port": 40001, ...}
      {"event": "listening", "host": "127.0.0.1", "port": 40002, ...}
      {"event": "ready", "addresses": ["127.0.0.1:40001", "127.0.0.1:40002"]}

  Clients join with ``CachePolicy(remote=...)`` or
  ``repro-serve --remote addr,addr``.

* **single shard** (``--serve-shard I``): run one shard server in this
  process — what the launcher's children run, and what a process
  supervisor (systemd, k8s) would run one-per-pod.

* **client REPL** (``--connect addr,addr``): read store-level requests
  as JSON lines on stdin, route each to the owning shard (the same
  CRC-32 partition the engines use), write responses to stdout — the
  scripted-exchange tool the CI smoke job drives.  ``store-stats`` is a
  fan-out: one response line per shard.
"""

import argparse
import json
import os
import signal
import sys

from repro.api.codec import decode_request, encode
from repro.api.protocol import (
    PROTOCOL_VERSION,
    BatchInvalidateRequest,
    BatchLookupRequest,
    BatchStoreRequest,
    ErrorResponse,
    InvalidateRequest,
    LookupRequest,
    MethodEntriesRequest,
    StoreRequest,
    StoreStatsRequest,
    WireError,
)
from repro.api.snapshot import check_entry, check_key
from repro.cacheserver.client import ShardLink, ShardUnavailable, parse_addresses
from repro.cacheserver.server import CacheCluster, ShardServer, _listening_line
from repro.cacheserver.store import entry_method


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-cached",
        description=(
            "Shared summary-cache service for points-to engines "
            f"(protocol {PROTOCOL_VERSION}): launch a shard cluster, run "
            "one shard server, or script store-level exchanges."
        ),
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--serve-shard",
        type=int,
        metavar="INDEX",
        default=None,
        help="run one shard server in this process (blocks)",
    )
    mode.add_argument(
        "--connect",
        metavar="ADDR,ADDR,...",
        default=None,
        help="client REPL against a running cluster (stdin JSON lines)",
    )
    parser.add_argument(
        "--shards", type=int, default=2, help="shard count (default 2)"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="--serve-shard port (0 = OS pick)"
    )
    parser.add_argument("--max-entries", type=int, default=None)
    parser.add_argument("--max-facts", type=int, default=None)
    parser.add_argument(
        "--timeout", type=float, default=1.0, help="--connect socket timeout"
    )
    # Accepted and ignored: every shard serves a thread per connection,
    # and launch commands written when this flag chose that still pass it.
    parser.add_argument("--threaded", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help=(
            "deterministic server-side fault injection, e.g. "
            "'seed=7,rate=0.1,kinds=disconnect|corrupt' (see "
            "repro.cacheserver.faults.FaultSchedule.parse; defaults to "
            "the REPRO_FAULTS environment variable; applies to "
            "--serve-shard and to the children a launcher spawns)"
        ),
    )
    return parser


def _resolve_faults(args):
    """The ``--faults`` spec (or ``REPRO_FAULTS``), parsed; exits loudly
    on a malformed spec — a chaos run that silently injected nothing
    would defeat its purpose."""
    from repro.cacheserver.faults import FaultSchedule

    spec = args.faults if args.faults is not None else os.environ.get("REPRO_FAULTS", "")
    spec = spec.strip()
    return FaultSchedule.parse(spec) if spec else None


# ----------------------------------------------------------------------
# mode: one shard server (the launcher's child / the pod entry point)
# ----------------------------------------------------------------------
def _serve_shard(args):
    try:
        server = ShardServer(
            args.serve_shard,
            args.shards,
            host=args.host,
            port=args.port,
            max_entries=args.max_entries,
            max_facts=args.max_facts,
            faults=_resolve_faults(args),
        )
    except (ValueError, OSError) as exc:
        print(f"repro-cached: {exc}", file=sys.stderr)
        return 2
    print(_listening_line(server, pid=os.getpid()))
    sys.stdout.flush()

    def shutdown(signum, frame):
        server.stop()  # serve_forever then returns

    signal.signal(signal.SIGTERM, shutdown)
    signal.signal(signal.SIGINT, shutdown)
    server.serve_forever()
    return 0


# ----------------------------------------------------------------------
# mode: cluster launcher
# ----------------------------------------------------------------------
def _launch_cluster(args):
    # Handlers first: a SIGTERM/SIGINT that lands *during* spawn turns
    # into SystemExit, which spawn's own BaseException cleanup and the
    # finally below both honour — the launcher can never leak children.
    def shutdown(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, shutdown)
    signal.signal(signal.SIGINT, shutdown)
    try:
        cluster = CacheCluster.spawn(
            shards=args.shards,
            host=args.host,
            max_entries=args.max_entries,
            max_facts=args.max_facts,
            faults=_resolve_faults(args),
        )
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"repro-cached: {exc}", file=sys.stderr)
        return 2
    try:
        # Re-emit the children's own announce lines: the format lives in
        # one place (_listening_line, printed by --serve-shard).
        for info in cluster.announcements:
            print(json.dumps(info, sort_keys=True))
        print(
            json.dumps(
                {"event": "ready", "addresses": list(cluster.addresses)},
                sort_keys=True,
            )
        )
        sys.stdout.flush()
        # Serve until the operator hangs up: stdin EOF is the polite
        # shutdown signal (what the CI job and tests use).
        for _line in sys.stdin:
            pass
        return 0
    finally:
        cluster.stop()
        print(
            json.dumps({"event": "stopped", "shards": args.shards}, sort_keys=True),
            file=sys.stderr,
        )


# ----------------------------------------------------------------------
# mode: client REPL (scripted exchanges)
# ----------------------------------------------------------------------
def _route(request, n_shards):
    """The shard index that owns this request (validates the payload
    enough to route it); ``None`` means broadcast (store-stats, and
    fetch-methods with no method filter).

    Batched ops (protocol 1.2) route like their single-op forms; every
    element must belong to the same shard — the REPL is a scripting
    tool, and a mixed-shard batch would be refused server-side as
    ``wrong-shard`` anyway, so it is refused here with a clearer
    message.
    """
    from repro.analysis.summaries import shard_for_method

    def one(method):
        return shard_for_method(method, n_shards)

    def same_shard(methods, what):
        shards = {one(method) for method in methods}
        if len(shards) != 1:
            raise WireError(
                "invalid-request",
                f"a batched {what} must target one shard per line; "
                f"split the batch by owning shard",
            )
        return shards.pop()

    if isinstance(request, LookupRequest):
        return one(entry_method(check_key(request.key, "lookup.key")))
    if isinstance(request, StoreRequest):
        check_entry(request.entry, "store.entry")
        return one(entry_method(request.entry))
    if isinstance(request, InvalidateRequest):
        return one(request.method)
    if isinstance(request, StoreStatsRequest):
        return None
    if isinstance(request, BatchLookupRequest):
        if not request.keys:
            raise WireError("invalid-request", "batch-lookup names no keys")
        return same_shard(
            [
                entry_method(check_key(key, f"batch-lookup.keys[{i}]"))
                for i, key in enumerate(request.keys)
            ],
            "lookup",
        )
    if isinstance(request, BatchStoreRequest):
        if not request.entries:
            raise WireError("invalid-request", "batch-store names no entries")
        methods = []
        for i, entry in enumerate(request.entries):
            check_entry(entry, f"batch-store.entries[{i}]")
            methods.append(entry_method(entry))
        return same_shard(methods, "store")
    if isinstance(request, BatchInvalidateRequest):
        if not request.methods:
            raise WireError("invalid-request", "batch-invalidate names no methods")
        return same_shard(request.methods, "invalidate")
    if isinstance(request, MethodEntriesRequest):
        if request.methods is None:
            return None  # broadcast: every shard dumps its entries
        if not request.methods:
            raise WireError("invalid-request", "fetch-methods names no methods")
        return same_shard(request.methods, "fetch-methods")
    raise WireError(
        "invalid-request",
        f"the store REPL routes store-level ops only, not "
        f"{type(request).__name__}",
    )


def _connect_repl(args, input_stream=None, output_stream=None):
    input_stream = input_stream or sys.stdin
    output_stream = output_stream or sys.stdout
    try:
        addresses = parse_addresses(args.connect)
    except ValueError as exc:
        print(f"repro-cached: {exc}", file=sys.stderr)
        return 2
    links = [ShardLink(address, timeout=args.timeout) for address in addresses]

    def emit(line):
        output_stream.write(line.strip())
        output_stream.write("\n")
        output_stream.flush()

    for line in input_stream:
        line = line.strip()
        if not line:
            continue
        try:
            request = decode_request(line)
            shard = _route(request, len(links))
        except WireError as exc:
            emit(encode(ErrorResponse(code=exc.code, message=str(exc))))
            continue
        targets = links if shard is None else [links[shard]]
        for link in targets:
            try:
                emit(link.request(line))
            except ShardUnavailable as exc:
                emit(
                    encode(
                        ErrorResponse(code="shard-unavailable", message=str(exc))
                    )
                )
    for link in links:
        link.close()
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.serve_shard is not None:
        return _serve_shard(args)
    if args.connect is not None:
        return _connect_repl(args)
    return _launch_cluster(args)


if __name__ == "__main__":
    raise SystemExit(main())
