"""The service façade: decoded wire requests in, typed responses out.

:class:`PointsToService` sits between the wire and a
:class:`~repro.engine.core.PointsToEngine`: it resolves nominal node
references, runs queries/batches/alias checks/invalidations through the
engine's ordinary session surface, attaches client verdicts when a
request names one of the registered analysis clients, and renders every
failure as a structured :class:`~repro.api.protocol.ErrorResponse` — by
construction, no input reachable over the wire can surface a Python
traceback.  It answers the engine vocabulary only: a store-level kind
(``lookup``, ``store``, ``store-stats``, the ``batch-*`` forms,
``fetch-methods``) is a shard server's (``repro-cached``) and gets an
``invalid-request`` error, so no wire client can read or rewrite the
served engine's summary store.

Two transports ship here:

* :meth:`PointsToService.handle` / :meth:`handle_line` — embed the
  service in any host (tests drive these directly);
* :meth:`serve` + :func:`main` — a JSON-lines stdio loop, installed as
  the ``repro-serve`` console script: one request per line on stdin, one
  response per line on stdout, diagnostics on stderr.  With
  ``--listen HOST:PORT`` the same lines travel over TCP instead, on the
  cache service's :class:`~repro.cacheserver.server.LineServer`.

.. code-block:: console

   $ repro-serve --program vector.pir
   {"kind":"query","method":"Main.main","var":"s1","protocol_version":"1.0"}
   {"complete":true,"kind":"query-result","objects":[...],...}
"""

import argparse
import sys

from repro.api.codec import decode_request, encode
from repro.api.protocol import (
    KIND_OF,
    PROTOCOL_VERSION,
    REQUEST_KINDS,
    AliasRequest,
    AliasResponse,
    BatchRequest,
    BatchResponse,
    ErrorResponse,
    InvalidateRequest,
    InvalidateResponse,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    StatsRequest,
    StatsResponse,
    WireError,
    WireObject,
)
from repro.analysis.ppta import TRAVERSAL_IMPLS
from repro.cfl.budget import DEFAULT_BUDGET
from repro.cfl.stacks import Stack
from repro.clients import ALL_CLIENTS
from repro.clients.base import Query
from repro.engine import CachePolicy, EnginePolicy, PointsToEngine
from repro.engine.scheduler import QuerySpec
from repro.util.errors import IRError

#: Client classes addressable over the wire, by their Table 4 names.
CLIENT_REGISTRY = {cls.name: cls for cls in ALL_CLIENTS}


def _wire_objects(result):
    """A :class:`~repro.analysis.base.QueryResult`'s pairs as sorted
    :class:`WireObject`\\ s (one per object, contexts grouped)."""
    by_obj = {}
    for obj, ctx in result.pairs:
        by_obj.setdefault(obj, []).append(ctx.to_tuple())
    return tuple(
        WireObject(
            id=str(obj.object_id),
            class_name=obj.class_name,
            contexts=tuple(sorted(by_obj[obj])),
        )
        for obj in sorted(by_obj, key=lambda o: str(o.object_id))
    )


class PointsToService:
    """Dispatches decoded protocol requests to one engine."""

    def __init__(self, engine):
        self.engine = engine
        self._clients = {}

    @classmethod
    def for_program(cls, program, policy=None):
        """A service over a freshly built engine for ``program``."""
        from repro.pag.builder import build_pag

        return cls(PointsToEngine(build_pag(program), policy))

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle(self, request):
        """Answer one decoded request; every failure becomes a typed
        :class:`ErrorResponse` (tracebacks stop here)."""
        try:
            return self._dispatch(request)
        except WireError as exc:
            return ErrorResponse(code=exc.code, message=str(exc))
        except IRError as exc:
            return ErrorResponse(code="unknown-node", message=str(exc))
        except Exception as exc:  # the no-traceback guarantee of the wire
            return ErrorResponse(
                code="internal-error", message=f"{type(exc).__name__}: {exc}"
            )

    def handle_line(self, line):
        """Decode one request line, dispatch, encode the response."""
        try:
            request = decode_request(line)
        except WireError as exc:
            return encode(ErrorResponse(code=exc.code, message=str(exc)))
        return encode(self.handle(request))

    def serve(self, input_stream, output_stream):
        """The JSON-lines loop: one request per line, one response per
        line, until EOF.  Blank lines are ignored."""
        for line in input_stream:
            line = line.strip()
            if not line:
                continue
            output_stream.write(self.handle_line(line))
            output_stream.write("\n")
            output_stream.flush()

    def _dispatch(self, request):
        if isinstance(request, QueryRequest):
            return self._handle_query(request)
        if isinstance(request, BatchRequest):
            return self._handle_batch(request)
        if isinstance(request, AliasRequest):
            return self._handle_alias(request)
        if isinstance(request, InvalidateRequest):
            dropped = self.engine.invalidate_method(request.method)
            return InvalidateResponse(method=request.method, dropped=dropped)
        if isinstance(request, StatsRequest):
            return self._handle_stats()
        kind = KIND_OF.get(type(request))
        if kind not in REQUEST_KINDS:
            raise ProtocolError(
                "unknown-kind", f"cannot dispatch {type(request).__name__}"
            )
        # Every other request kind addresses a summary store: the
        # engine's own is nobody else's to read or write.
        raise ProtocolError(
            "invalid-request",
            f"repro-serve speaks the engine vocabulary only (query/batch/"
            f"alias/invalidate/stats), not the store-level {kind!r}; send "
            "that to a repro-cached shard",
        )

    # ------------------------------------------------------------------
    # per-kind handlers
    # ------------------------------------------------------------------
    def _client(self, name):
        instance = self._clients.get(name)
        if instance is None:
            cls = CLIENT_REGISTRY.get(name)
            if cls is None:
                known = ", ".join(sorted(CLIENT_REGISTRY))
                raise WireError(
                    "unknown-client", f"unknown client {name!r}; known: {known}"
                )
            instance = self._clients[name] = cls(self.engine.pag)
        return instance

    def _spec(self, request):
        """A scheduler :class:`QuerySpec` for one :class:`QueryRequest`,
        with the client predicate and dedup token bundled when the
        request names a client.  Returns ``(spec, client, query)``."""
        node = self.engine.pag.find_local(request.method, request.var)
        context = Stack.of(*request.context)
        if request.client is None:
            return QuerySpec(node, context), None, None
        client = self._client(request.client)
        query = Query(
            client=request.client,
            method=request.method,
            var=request.var,
            payload=tuple(request.payload),
        )
        try:
            predicate = client.predicate(query)
        except Exception as exc:
            raise ProtocolError(
                "invalid-request",
                f"client {request.client!r} rejects payload "
                f"{request.payload!r}: {exc}",
            ) from None
        return (
            QuerySpec(
                node,
                context,
                client=predicate,
                token=(query.client, query.payload),
                origin=query,
            ),
            client,
            query,
        )

    def _query_response(self, result, client=None, query=None):
        verdict = None
        if client is not None:
            verdict = client.verdict(query, result).to_wire()
        return QueryResponse(
            objects=_wire_objects(result),
            complete=result.complete,
            steps=result.steps,
            verdict=verdict,
        )

    def _handle_query(self, request):
        spec, client, query = self._spec(request)
        result = self.engine.query(spec)
        return self._query_response(result, client, query)

    def _handle_batch(self, request):
        specs, clients, queries = [], [], []
        for item in request.queries:
            spec, client, query = self._spec(item)
            specs.append(spec)
            clients.append(client)
            queries.append(query)
        batch = self.engine.query_batch(
            specs, dedupe=request.dedupe, reorder=request.reorder
        )
        results = tuple(
            self._query_response(result, client, query)
            for result, client, query in zip(batch.results, clients, queries)
        )
        return BatchResponse(results=results, stats=batch.stats)

    def _handle_alias(self, request):
        result = self.engine.alias(
            (request.method1, request.var1),
            (request.method2, request.var2),
            Stack.of(*request.context1),
            Stack.of(*request.context2),
        )
        witnesses = tuple(sorted(str(obj.object_id) for obj in result.witnesses))
        return AliasResponse(
            verdict=result.verdict, witnesses=witnesses, steps=result.steps
        )

    def _handle_stats(self):
        stats = self.engine.stats()
        return StatsResponse(
            analysis=stats.analysis,
            queries=stats.queries,
            executed=stats.executed,
            batches=stats.batches,
            deduped=stats.deduped,
            steps=stats.steps,
            incomplete=stats.incomplete,
            edits=stats.edits,
            cache=stats.cache,
            warm_loaded=stats.warm_loaded,
            warm_skipped=stats.warm_skipped,
            remote=stats.remote,
            traversal_impl=stats.traversal_impl,
            native_unavailable=stats.native_unavailable,
        )

    def __repr__(self):
        return f"PointsToService({self.engine!r})"


# ----------------------------------------------------------------------
# the `repro-serve` console entry point
# ----------------------------------------------------------------------
def _build_engine(args):
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
    policy = EnginePolicy(
        analysis=args.analysis,
        budget=args.budget,
        max_field_depth=args.max_field_depth,
        cache=CachePolicy(
            max_entries=args.max_entries,
            max_facts=args.max_facts,
            remote=remote,
            remote_timeout=args.remote_timeout,
        ),
        warm_start=args.warm_start,
        traversal_impl=args.traversal_impl,
    )
    return PointsToEngine(pag, policy)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve points-to queries over JSON lines (protocol "
            f"{PROTOCOL_VERSION}): one request per stdin line, one "
            "response per stdout line."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--program", metavar="PATH", help="PIR source file to serve")
    source.add_argument(
        "--benchmark", metavar="NAME", help="serve a named synthetic benchmark"
    )
    parser.add_argument(
        "--entry", default="Main.main", help="program entry point (default Main.main)"
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="benchmark size multiplier"
    )
    parser.add_argument("--analysis", default="DYNSUM", help="analysis to serve")
    parser.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET, help="per-query step budget"
    )
    parser.add_argument("--max-field-depth", type=int, default=None)
    parser.add_argument("--max-entries", type=int, default=None)
    parser.add_argument("--max-facts", type=int, default=None)
    parser.add_argument(
        "--remote",
        metavar="ADDR,ADDR,...",
        default=None,
        help=(
            "join a shared summary-cache service: comma-separated "
            "host:port shard-server addresses, in shard order (what "
            "repro-cached prints)"
        ),
    )
    parser.add_argument(
        "--remote-timeout",
        type=float,
        default=1.0,
        help="per-operation socket timeout for the shared cache (seconds)",
    )
    parser.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help=(
            "serve the same protocol over TCP instead of stdio, a thread "
            "per connection and one request at a time (port 0 = OS pick)"
        ),
    )
    parser.add_argument(
        "--warm-start",
        metavar="PATH",
        default=None,
        help="summary snapshot to preload before serving",
    )
    parser.add_argument(
        "--save-cache",
        metavar="PATH",
        default=None,
        help="write a summary snapshot to PATH on EOF",
    )
    parser.add_argument(
        "--traversal-impl",
        choices=sorted(TRAVERSAL_IMPLS),
        default=None,
        help="pin the served engine's PPTA traversal implementation "
        "(default: the process default)",
    )
    args = parser.parse_args(argv)

    try:
        engine = _build_engine(args)
        if args.save_cache is not None:
            # Fail before serving, not at EOF: cache-less analyses have
            # nothing to save (same check save_cache itself performs).
            engine._require_cache("save")
    except (WireError, IRError, OSError, KeyError, ValueError) as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2
    if engine.warm_loaded or engine.warm_skipped:
        print(
            f"repro-serve: warm start loaded {engine.warm_loaded} "
            f"summaries ({engine.warm_skipped} skipped)",
            file=sys.stderr,
        )
    print(
        f"repro-serve: serving {args.analysis} over "
        f"{args.benchmark or args.program} (protocol {PROTOCOL_VERSION})",
        file=sys.stderr,
    )
    service = PointsToService(engine)

    def run_transport():
        if args.listen is None:
            service.serve(sys.stdin, sys.stdout)
            return 0
        import json
        import signal
        import threading

        from repro.cacheserver.server import LineServer

        host, _, port = args.listen.rpartition(":")
        if not host or not port.isdigit():
            print(
                f"repro-serve: --listen wants HOST:PORT, got {args.listen!r}",
                file=sys.stderr,
            )
            return 2
        # PointsToService wraps a single engine with no internal
        # locking: the connection threads take turns through this lock.
        lock = threading.Lock()

        def handle_line(line):
            with lock:
                return service.handle_line(line)

        server = LineServer(handle_line, host=host, port=int(port))
        # The impl rides the announce line: the default depends on a C
        # compiler being present, so an operator can see a host that
        # answers on the pure-Python fallback.
        stats = engine.stats()
        print(
            json.dumps(
                {
                    "event": "listening",
                    "host": server.host,
                    "port": server.port,
                    "protocol": PROTOCOL_VERSION,
                    "traversal_impl": stats.traversal_impl,
                    "native_unavailable": stats.native_unavailable,
                },
                sort_keys=True,
            )
        )
        sys.stdout.flush()

        def shutdown(signum, frame):
            server.stop()  # serve_forever then returns

        signal.signal(signal.SIGTERM, shutdown)
        signal.signal(signal.SIGINT, shutdown)
        server.serve_forever()
        # Held until exit: the snapshot --save-cache writes must see no
        # request in flight, and a connection thread still holding a
        # read line must not start one.
        lock.acquire()
        return 0

    status = run_transport()
    if status:
        return status
    if args.save_cache is not None:
        try:
            snapshot = engine.save_cache(args.save_cache)
        except (WireError, IRError, OSError) as exc:
            print(f"repro-serve: {exc}", file=sys.stderr)
            return 2
        print(
            f"repro-serve: saved {len(snapshot.entries)} summaries "
            f"to {args.save_cache}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
