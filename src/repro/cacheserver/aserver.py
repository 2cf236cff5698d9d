"""The asyncio serving tier: one event loop per process, many clients.

The thread-per-connection transport in :mod:`repro.cacheserver.server`
costs one OS thread per client — fine for a handful, hopeless for a
fleet.  :class:`AsyncLineServer` serves the same JSON-lines protocol
from a **single event loop**: non-blocking reads and writes, a
per-connection write lock with ``drain()`` backpressure (a slow reader
stalls only its own responses, never the loop), and **connection
multiplexing** — a client may put many requests in flight on one
socket by tagging each line with a transport-level ``"id"`` key
(protocol 1.4); tagged requests are dispatched concurrently and each
response carries its request's id back, so correlation survives
out-of-order completion.  Untagged lines keep the classic strict
request/response order, which is what the pipelined
:class:`~repro.cacheserver.client.ShardLink` relies on.

``stop()`` drains gracefully: the listener closes first, in-flight
requests get a bounded grace period to finish writing, and only then
are connections torn down — a restarting shard never truncates a
response mid-line.

:class:`AsyncShardServer` is the shard-server assembly — the exact
:class:`~repro.cacheserver.server.ShardDispatcher` semantics (epochs,
ownership checks, typed errors) behind the async transport — and
``repro-serve --listen`` mounts a whole
:class:`~repro.api.service.PointsToService` on the same machinery, so
the engine service scales the same way the cache tier does.
"""

import asyncio
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.api.codec import attach_response_id, encode, split_request_id
from repro.api.protocol import ErrorResponse, ProtocolError
from repro.cacheserver.faults import InjectedDisconnect
from repro.cacheserver.server import ShardDispatcher

#: How long ``stop()`` waits for in-flight requests to finish writing.
DRAIN_TIMEOUT_SEC = 2.0

#: Dispatch threads per server.  Dispatch runs *off* the event loop so a
#: handler that blocks (or waits on another in-flight request) can never
#: stall reads — a handful of workers is plenty for CPU-light handlers.
DEFAULT_DISPATCH_WORKERS = 4

#: The longest request line a connection accepts.  asyncio's default
#: (64 KiB) is smaller than one ``FLUSH_CHUNK``-entry ``batch-store``
#: of ordinary summaries (~140 KB for the generator programs); a longer
#: line drops the connection, and the client falls open.
MAX_LINE_BYTES = 16 * 1024 * 1024

#: Pending-connection backlog of the listening socket.
LISTEN_BACKLOG = 128


class AsyncLineServer:
    """A JSON-lines TCP server over one asyncio event loop.

    ``handle_line`` is any ``str -> str`` dispatcher (a
    :class:`~repro.cacheserver.server.ShardDispatcher`'s or a
    :class:`~repro.api.service.PointsToService`'s) — the transport owns
    sockets, ids, backpressure and drain; the dispatcher owns meaning.

    The listening socket is bound *and listening* in ``__init__``
    (``port=0`` = OS pick), so :attr:`address` is printable before
    serving starts and a client that connects as soon as it is
    announced is queued by the kernel instead of refused — the launcher
    announce contract of the threaded tier, kept.
    """

    def __init__(
        self,
        handle_line,
        host="127.0.0.1",
        port=0,
        dispatch_workers=DEFAULT_DISPATCH_WORKERS,
    ):
        self._handle_line = handle_line
        self._dispatch_workers = max(1, int(dispatch_workers))
        self._executor = None  # created inside the loop
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(LISTEN_BACKLOG)
        self.host, self.port = self._sock.getsockname()[:2]
        self._loop = None
        self._stop_event = None  # created inside the loop
        self._thread = None
        self._started = threading.Event()
        self._finished = threading.Event()
        self._stop_requested = False
        self._conn_tasks = set()
        self._inflight = set()

    @property
    def address(self):
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self._dispatch_workers,
            thread_name_prefix="repro-dispatch",
        )
        if self._stop_requested:  # stop() raced ahead of startup
            self._stop_event.set()
        server = await asyncio.start_server(
            self._serve_connection,
            sock=self._sock,
            limit=MAX_LINE_BYTES,
            backlog=LISTEN_BACKLOG,
        )
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            # Graceful drain: stop accepting, let in-flight requests
            # finish writing (bounded), then drop the connections.
            server.close()
            await server.wait_closed()
            if self._inflight:
                await asyncio.wait(
                    tuple(self._inflight), timeout=DRAIN_TIMEOUT_SEC
                )
            for task in tuple(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(
                    *tuple(self._conn_tasks), return_exceptions=True
                )
            self._executor.shutdown(wait=False)

    async def _serve_connection(self, reader, writer):
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        write_lock = asyncio.Lock()
        pending = set()
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                try:
                    stripped, rid = split_request_id(line)
                except ProtocolError as exc:
                    await self._write(
                        writer,
                        write_lock,
                        encode(ErrorResponse(code=exc.code, message=str(exc))),
                    )
                    continue
                if rid is None:
                    # Untagged: strict in-order request/response.
                    await self._respond(writer, write_lock, stripped, None)
                else:
                    # Tagged: many in flight, correlated by id.
                    flight = asyncio.ensure_future(
                        self._respond(writer, write_lock, stripped, rid)
                    )
                    pending.add(flight)
                    flight.add_done_callback(pending.discard)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass  # client went away mid-line
        except ValueError:
            pass  # a line over MAX_LINE_BYTES: drop the connection
        except asyncio.CancelledError:
            pass  # drain timeout expired during stop()
        finally:
            for flight in tuple(pending):
                flight.cancel()
            self._conn_tasks.discard(task)
            try:
                writer.close()
            except (OSError, RuntimeError):
                pass  # socket already dead / loop tearing down

    async def _respond(self, writer, write_lock, line, rid):
        flight = asyncio.current_task()
        self._inflight.add(flight)
        try:
            # Dispatch on the worker pool, never inline on the loop: an
            # inline handler that blocked (or, multiplexed, waited on a
            # request *behind* it in the read order) would wedge every
            # connection.  ShardDispatcher is already thread-safe — the
            # thread-per-connection tier drives it from many threads.
            result = await self._loop.run_in_executor(
                self._executor, self._handle_line, line
            )
            await self._write(writer, write_lock, attach_response_id(result, rid))
        except InjectedDisconnect:
            # Fault injection: drop the whole connection mid-flight, the
            # way a crashed shard would — not just this response.
            try:
                writer.close()
            except (OSError, RuntimeError):
                pass
        except (ConnectionError, OSError):
            pass
        except RuntimeError:
            pass  # executor shut down mid-drain; response is abandoned
        finally:
            self._inflight.discard(flight)

    @staticmethod
    async def _write(writer, write_lock, response):
        # The lock keeps concurrent in-flight responses line-atomic;
        # drain() is the per-connection backpressure — a slow reader
        # parks only the tasks answering *it*.
        async with write_lock:
            writer.write(response.encode("utf-8") + b"\n")
            await writer.drain()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self):
        """Run the event loop on the calling thread until :meth:`stop`
        (the child-process mode of ``repro-cached --serve-shard``)."""
        try:
            asyncio.run(self._main())
        finally:
            self._finished.set()

    def start(self):
        """Serve on a background thread (in-process embedding, tests)."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        self._started.wait(timeout=10.0)
        return self

    def stop(self):
        """Request a graceful drain and stop; thread-safe, idempotent,
        callable from signal handlers and from outside the loop."""
        self._stop_requested = True
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:
                pass  # loop already closed between the check and the call
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=DRAIN_TIMEOUT_SEC + 5.0)
        if self._loop is None:
            # Never served: the pre-bound listener still owns the port.
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()


class AsyncShardServer(ShardDispatcher):
    """One shard of the cache service on the asyncio tier: the same
    dispatch (and therefore the same epoch/ownership/error semantics)
    as the threaded :class:`~repro.cacheserver.server.ShardServer`,
    served from one event loop however many clients connect."""

    def __init__(
        self,
        shard_index,
        n_shards,
        host="127.0.0.1",
        port=0,
        max_entries=None,
        max_facts=None,
        eviction="lru",
        dispatch_workers=DEFAULT_DISPATCH_WORKERS,
        faults=None,
    ):
        super().__init__(
            shard_index,
            n_shards,
            max_entries=max_entries,
            max_facts=max_facts,
            eviction=eviction,
            faults=faults,
        )
        self.transport = AsyncLineServer(
            self.handle_line,
            host=host,
            port=port,
            dispatch_workers=dispatch_workers,
        )

    @property
    def host(self):
        return self.transport.host

    @property
    def port(self):
        return self.transport.port

    @property
    def address(self):
        return self.transport.address

    def start(self):
        self.transport.start()
        return self

    def serve_forever(self):
        self.transport.serve_forever()

    def stop(self):
        self.transport.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()

    def __repr__(self):
        return (
            f"AsyncShardServer(shard {self.shard_index}/{self.n_shards} on "
            f"{self.address}, {len(self.store)} entries)"
        )
