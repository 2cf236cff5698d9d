"""Shard servers: the service side of the shared summary cache.

One :class:`ShardServer` owns one slice of the CRC-32 method partition
(:func:`~repro.analysis.summaries.shard_for_method`) and speaks the
store-level ops of the :mod:`repro.api` protocol over a JSON-lines
socket — one request per line, one response per line, concurrent
clients each on their own connection thread.  A request whose key
belongs to a different shard is answered with a ``wrong-shard`` error
rather than silently stored: the partition is part of the contract, and
a routing bug should be loud.

:class:`LineServer` is that transport on its own — bind and listen, the
accept loop, a thread per connection, ``stop()`` — and it is the one
socket server in the package: ``repro-serve --listen`` mounts a
:class:`~repro.api.service.PointsToService` on it as well.

:class:`CacheCluster` is the operational unit: it spawns N shard-server
*processes* (``python -m repro.cacheserver --serve-shard I``), collects
their listening addresses in shard order — exactly the tuple a client
passes to ``CachePolicy(remote=...)`` — and owns their lifetime.  The
``repro-cached`` console script is a thin CLI over it.
"""

import json
import socket
import subprocess
import sys
import threading
import time
from collections import namedtuple

from repro.analysis.summaries import shard_for_method
from repro.api.codec import decode_request, encode
from repro.api.protocol import (
    FRAME_VERSION,
    BatchInvalidateRequest,
    BatchInvalidateResponse,
    BatchLookupRequest,
    BatchLookupResponse,
    BatchStoreRequest,
    BatchStoreResponse,
    ErrorResponse,
    InvalidateRequest,
    InvalidateResponse,
    LookupRequest,
    LookupResponse,
    MethodEntriesRequest,
    MethodEntriesResponse,
    ProtocolError,
    StoreRequest,
    StoreResponse,
    StoreStatsRequest,
    StoreStatsResponse,
    WireError,
    split_version,
)
from repro.api.snapshot import check_entry, check_key, pack_frame
from repro.cacheserver.faults import (
    FaultInjector,
    InjectedDisconnect,
    coerce_schedule,
    corrupt_line,
    truncate_line,
)
from repro.cacheserver.store import (
    StaleEpochRejection,
    WireSummaryStore,
    entry_method,
)
from repro.api.protocol import StaleEpochResponse

#: How long ``CacheCluster.spawn`` waits for a child's listening line.
SPAWN_TIMEOUT_SEC = 30.0

#: The longest request line a connection accepts, newline included.
#: One ``FLUSH_CHUNK``-entry ``batch-store`` of generator summaries runs
#: past 64 KiB; a longer line than this drops its connection (the client
#: falls open) instead of making the server buffer without bound.
MAX_LINE_BYTES = 16 * 1024 * 1024

#: Pending-connection backlog of a listening socket.
LISTEN_BACKLOG = 128

#: A dispatcher's last framed full-dump ``fetch-methods`` answer: the
#: store version it was scanned at, what the request asked
#: (``(methods, fingerprint)``), the response and its encoded line.
_KeptDump = namedtuple("_KeptDump", "version query response line")


class ShardDispatcher:
    """The transport-independent half of a shard server: one
    :class:`~repro.cacheserver.store.WireSummaryStore` plus the
    line-level request dispatch.  :class:`ShardServer` serves it over a
    :class:`LineServer`; the unit tests drive :meth:`handle_line`
    directly with no socket at all.

    A ``fetch-methods`` request of :data:`FRAME_VERSION` or later gets
    a frame, and an older one nominal entries (see
    :class:`~repro.api.protocol.MethodEntriesResponse`).  The
    dispatcher keeps its last framed full-dump answer, encoded, with
    the store :attr:`~WireSummaryStore.version` it was scanned at.  A
    framed full dump asking for the same methods and fingerprint while
    the version stands is answered with that line: no scan, no pack and
    no encode.  A warm fleet is read-mostly, so each fresh engine's
    first prefetch costs a shard one version check.  An older
    requester's full dump is scanned every time and never replaces the
    kept line.  ``dumps_packed`` and ``dumps_kept`` count the full
    dumps answered each way.
    """

    def __init__(
        self,
        shard_index,
        n_shards,
        max_entries=None,
        max_facts=None,
        faults=None,
    ):
        if not 0 <= shard_index < n_shards:
            raise ValueError(
                f"shard_index {shard_index} out of range for {n_shards} shard(s)"
            )
        self.shard_index = shard_index
        self.n_shards = n_shards
        self.store = WireSummaryStore(max_entries=max_entries, max_facts=max_facts)
        # Server-side fault injection (``repro-cached --faults SPEC``):
        # a FaultInjector, FaultSchedule or spec string; ``None`` (the
        # production value) injects nothing.
        if faults is not None and not isinstance(faults, FaultInjector):
            faults = FaultInjector(coerce_schedule(faults), side="server")
        self.faults = faults
        # Published whole under the lock and read without it: a reader
        # sees one answer or the next, never half of one.
        self._kept_lock = threading.Lock()
        self._kept = None  # guarded-by: _kept_lock — a _KeptDump
        self.dumps_packed = 0  # guarded-by: _kept_lock
        self.dumps_kept = 0  # guarded-by: _kept_lock

    # ------------------------------------------------------------------
    # dispatch (transport-independent; unit tests drive this directly)
    # ------------------------------------------------------------------
    def handle_line(self, line):
        """Decode one request line, dispatch, encode the response —
        every failure becomes a typed error line, never a traceback.

        Fault injection lives HERE, on the transport-independent seam:
        ``delay`` stalls before dispatch, ``blank-restart`` wipes the
        store (the observable state of a freshly restarted shard
        process) and then serves the request against the blank store,
        ``disconnect`` raises :class:`InjectedDisconnect` for the
        transport to drop the connection, and ``truncate``/``corrupt``
        mutate the encoded response so the client's decoder must refuse
        it and fall open.  They damage the outgoing line only, never
        the kept full dump.
        """
        action = (
            self.faults.begin_op(self.shard_index)
            if self.faults is not None
            else None
        )
        if action == "disconnect":
            raise InjectedDisconnect("disconnect", f"shard {self.shard_index}")
        if action == "delay":
            time.sleep(self.faults.delay_sec)
        elif action == "blank-restart":
            self.store.restart_blank()
        response = self._handle_line_inner(line)
        if action == "truncate":
            return truncate_line(response)
        if action == "corrupt":
            return corrupt_line(response)
        return response

    def _handle_line_inner(self, line):
        try:
            request = decode_request(line)
        except WireError as exc:
            return encode(ErrorResponse(code=exc.code, message=str(exc)))
        try:
            response = self._dispatch(request)
            kept = self._kept
            if kept is not None and response is kept.response:
                return kept.line
            return encode(response)
        except WireError as exc:
            return encode(ErrorResponse(code=exc.code, message=str(exc)))
        except Exception as exc:  # same no-traceback guarantee as the wire
            return encode(
                ErrorResponse(
                    code="internal-error", message=f"{type(exc).__name__}: {exc}"
                )
            )

    def _check_ownership(self, method):
        owner = shard_for_method(method, self.n_shards)
        if owner != self.shard_index:
            raise WireError(
                "wrong-shard",
                f"method {method!r} belongs to shard {owner}, not "
                f"{self.shard_index} (of {self.n_shards})",
            )

    @staticmethod
    def _check_epochs(request, count, path):
        """A batch's ``epochs`` must be absent (pre-1.4) or aligned."""
        if request.epochs and len(request.epochs) != count:
            raise ProtocolError(
                "invalid-request",
                f"{path}: epochs must align with the batch "
                f"({len(request.epochs)} epochs for {count} element(s))",
            )

    def _dispatch(self, request):
        if isinstance(request, LookupRequest):
            key = check_key(request.key, "lookup.key")
            self._check_ownership(entry_method(key))
            entry = self.store.lookup(
                key, epoch=request.epoch, fingerprint=request.fingerprint
            )
            if entry is None:
                return LookupResponse(found=False)
            return LookupResponse(found=True, entry=entry)
        if isinstance(request, StoreRequest):
            check_entry(request.entry, "store.entry")
            self._check_ownership(entry_method(request.entry))
            try:
                stored = self.store.store(
                    request.entry,
                    epoch=request.epoch,
                    fingerprint=request.fingerprint,
                )
            except StaleEpochRejection as stale:
                return StaleEpochResponse(
                    method=stale.method, sent=stale.sent, current=stale.current
                )
            return StoreResponse(stored=stored)
        if isinstance(request, InvalidateRequest):
            self._check_ownership(request.method)
            dropped = self.store.invalidate_method(
                request.method, epoch=request.epoch
            )
            return InvalidateResponse(method=request.method, dropped=dropped)
        if isinstance(request, StoreStatsRequest):
            return StoreStatsResponse(
                shard=self.shard_index,
                shards=self.n_shards,
                stats=self.store.stats_snapshot(),
            )
        # Batched ops (protocol 1.2): validate + ownership-check every
        # element first, then hand the whole batch to the store, which
        # applies it under ONE lock acquisition.
        if isinstance(request, BatchLookupRequest):
            self._check_epochs(request, len(request.keys), "batch-lookup")
            for i, key in enumerate(request.keys):
                check_key(key, f"batch-lookup.keys[{i}]")
                self._check_ownership(entry_method(key))
            entries = self.store.lookup_many(
                request.keys,
                epochs=request.epochs,
                fingerprint=request.fingerprint,
            )
            return BatchLookupResponse(entries=tuple(entries))
        if isinstance(request, BatchStoreRequest):
            self._check_epochs(request, len(request.entries), "batch-store")
            for i, entry in enumerate(request.entries):
                check_entry(entry, f"batch-store.entries[{i}]")
                self._check_ownership(entry_method(entry))
            stored, stale = self.store.store_many(
                request.entries,
                epochs=request.epochs,
                fingerprint=request.fingerprint,
            )
            return BatchStoreResponse(
                stored=tuple(stored),
                stale=tuple(stale) if any(stale) else (),
            )
        if isinstance(request, BatchInvalidateRequest):
            self._check_epochs(request, len(request.methods), "batch-invalidate")
            for method in request.methods:
                self._check_ownership(method)
            dropped = self.store.invalidate_many(
                request.methods, epochs=request.epochs
            )
            return BatchInvalidateResponse(dropped=tuple(dropped))
        if isinstance(request, MethodEntriesRequest):
            return self._fetch_methods(request)
        raise ProtocolError(
            "invalid-request",
            f"shard servers speak store-level ops only "
            f"(lookup/store/invalidate/store-stats and their 1.2 "
            f"batched forms), not {type(request).__name__}",
        )

    def _fetch_methods(self, request):
        """The ``fetch-methods`` answer: for a framed request, the kept
        full dump while it stands, else a fresh scan, kept when it is a
        framed full dump."""
        if request.methods is not None:
            for method in request.methods:
                self._check_ownership(method)
        framed = split_version(request.protocol_version) >= FRAME_VERSION
        query = (request.methods, request.fingerprint)
        kept = self._kept
        # Equal versions mean equal dumps, and the store still has the
        # kept answer's incarnation and cursor, which tell whether this
        # request asks for a delta.  A match linearizes at this read.
        if (
            framed
            and kept is not None
            and kept.version == self.store.version
            and kept.query == query
            and not (
                request.incarnation == kept.response.incarnation
                and 0 <= request.since <= kept.response.cursor
            )
        ):
            with self._kept_lock:
                self.dumps_kept += 1
            return kept.response
        # Incremental (protocol 1.7): a cursor from this store's
        # current incarnation gets only what was stamped since.
        entries, epochs, incarnation, cursor, version = self.store.fetch(
            request.methods,
            fingerprint=request.fingerprint,
            incarnation=request.incarnation,
            since=request.since,
        )
        epochs = tuple(epochs) if any(epochs) else ()
        # Framed for a requester that reads frames, when there is
        # anything to frame; an older one, and an empty answer, get
        # nominal entries.  The store shares equal references, so
        # packing is an identity lookup per reference.
        frame = pack_frame(entries) if framed and entries else None
        response = MethodEntriesResponse(
            entries=tuple(entries) if frame is None else (),
            epochs=epochs,
            incarnation=incarnation,
            cursor=cursor,
            frame=frame,
        )
        if version is None:  # a delta is never kept
            return response
        kept = _KeptDump(version, query, response, encode(response)) if framed else None
        with self._kept_lock:
            self.dumps_packed += 1
            # Only a framed dump is kept, and not one whose scan lost a
            # race to a newer one.
            if kept is not None and (self._kept is None or self._kept.version <= version):
                self._kept = kept
        return response


class LineServer:
    """A JSON-lines TCP server with a thread per connection.

    ``handle_line`` is any ``str -> str`` dispatcher: a
    :class:`ShardDispatcher`'s, or ``repro-serve --listen``'s
    :class:`~repro.api.service.PointsToService` behind one lock.  The
    transport owns sockets and threads; the dispatcher owns meaning.
    Each connection is answered in order, one response line per request
    line.  Bytes that are not UTF-8 decode to U+FFFD, so the dispatcher
    answers them with a typed error and the connection goes on.  A line
    longer than :data:`MAX_LINE_BYTES` drops its connection, and so
    does a dispatcher that raises ``OSError`` (an injected disconnect).

    The socket is bound *and listening* in ``__init__`` (``port=0`` =
    OS pick), so :attr:`address` is printable before serving starts and
    a client that connects as soon as it is announced is queued by the
    kernel instead of refused.
    """

    def __init__(self, handle_line, host="127.0.0.1", port=0):
        self._handle_line = handle_line
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen(LISTEN_BACKLOG)
        except OSError:
            self._listener.close()
            raise
        # A bare close() does not take a listener down while another
        # thread sits in accept(): the in-flight syscall keeps the
        # kernel socket alive and the port keeps accepting.  A short
        # accept timeout bounds how long that window can last; stop()
        # additionally shutdown()s the listener to wake the loop now.
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()[:2]
        self._shutdown = threading.Event()
        self._accept_thread = None
        # Taken by connection threads and stop() only, never by the
        # accept loop: stop() may run in a signal handler on that thread.
        self._conn_lock = threading.Lock()
        self._connections = set()  # guarded-by: _conn_lock

    @property
    def address(self):
        return f"{self.host}:{self.port}"

    def _serve_connection(self, conn):
        with self._conn_lock:
            self._connections.add(conn)
        try:
            conn.settimeout(None)
            with conn.makefile("rb") as reader:
                # Checked after registering: a stop() that listed the
                # connections before this one joined has set the flag.
                while not self._shutdown.is_set():
                    raw = reader.readline(MAX_LINE_BYTES + 1)
                    if not raw or len(raw) > MAX_LINE_BYTES:
                        break  # the client hung up, or sent an over-long line
                    line = raw.decode("utf-8", errors="replace").strip()
                    if line:
                        conn.sendall(self._handle_line(line).encode("utf-8") + b"\n")
        except (OSError, ValueError):
            pass  # client went away mid-line (or stop() closed us)
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def serve_forever(self):
        """Accept on the calling thread until :meth:`stop` (the child
        process mode of ``repro-cached --serve-shard`` and of
        ``repro-serve --listen``)."""
        while not self._shutdown.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue  # periodic shutdown-flag check
            except OSError:
                break  # listener closed by stop()
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def start(self):
        """Serve in a background thread (in-process embedding, tests)."""
        self._accept_thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._accept_thread.start()
        return self

    def stop(self):
        """Stop accepting and drop every open connection — after this
        returns, clients see refused connects and closed streams, the
        same failure surface a killed server process presents.  Safe to
        call from a signal handler on the serving thread."""
        self._shutdown.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._conn_lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)


class ShardServer(ShardDispatcher):
    """One shard of the cache service: the :class:`ShardDispatcher`
    served by a :class:`LineServer`, a thread per connection.

    ``port=0`` (the default) lets the OS pick a free port; the bound
    address is available as :attr:`address` before :meth:`start` /
    :meth:`serve_forever` is called, so launchers can print it first.
    """

    def __init__(
        self,
        shard_index,
        n_shards,
        host="127.0.0.1",
        port=0,
        max_entries=None,
        max_facts=None,
        faults=None,
    ):
        super().__init__(
            shard_index,
            n_shards,
            max_entries=max_entries,
            max_facts=max_facts,
            faults=faults,
        )
        self.transport = LineServer(self.handle_line, host=host, port=port)
        self.host, self.port = self.transport.host, self.transport.port

    @property
    def address(self):
        return self.transport.address

    def start(self):
        """Serve in a background thread (in-process embedding, tests)."""
        self.transport.start()
        return self

    def serve_forever(self):
        """Serve on the calling thread until :meth:`stop`."""
        self.transport.serve_forever()

    def stop(self):
        """See :meth:`LineServer.stop`."""
        self.transport.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()

    def __repr__(self):
        return (
            f"ShardServer(shard {self.shard_index}/{self.n_shards} on "
            f"{self.address}, {len(self.store)} entries)"
        )


def _listening_line(server, pid):
    return json.dumps(
        {
            "event": "listening",
            "shard": server.shard_index,
            "shards": server.n_shards,
            "host": server.host,
            "port": server.port,
            "pid": pid,
        },
        sort_keys=True,
    )


class CacheCluster:
    """N shard-server processes, spawned and owned as one unit.

    ``addresses`` is in shard order — pass it straight to
    ``CachePolicy(remote=cluster.addresses)``.  The cluster is a context
    manager; :meth:`stop` terminates the children politely and kills
    stragglers, so a test or launcher can guarantee no orphans.
    """

    def __init__(self, processes, addresses, announcements=None):
        self.processes = list(processes)
        self.addresses = tuple(addresses)
        #: Each child's parsed ``{"event": "listening", ...}`` line, in
        #: shard order — the single source launchers re-emit, so the
        #: announce format exists in exactly one place
        #: (:func:`_listening_line`).
        self.announcements = list(announcements or ())

    @classmethod
    def spawn(
        cls,
        shards=2,
        host="127.0.0.1",
        max_entries=None,
        max_facts=None,
        python=None,
        faults=None,
    ):
        """Spawn ``shards`` shard-server child processes on ``host``.

        Each child picks a free port and announces it as a JSON line on
        stdout; spawn blocks until every child has announced (or died —
        then the whole cluster is torn down and the failure raised).
        ``faults`` (a :class:`~repro.cacheserver.faults.FaultSchedule`
        or spec string) makes every child inject server-side faults
        deterministically — the chaos-soak battery's server leg.
        """
        python = python or sys.executable
        cluster = None
        schedule = coerce_schedule(faults)
        faults_spec = schedule.to_spec() if schedule is not None else None
        processes, addresses, announcements = [], [], []
        try:
            for index in range(shards):
                proc, info = cls._spawn_child(
                    python, index, shards, host, 0,
                    max_entries, max_facts, faults_spec,
                )
                processes.append(proc)
                addresses.append(f"{info['host']}:{info['port']}")
                announcements.append(info)
        except BaseException:
            # BaseException on purpose: a Ctrl-C / SystemExit while the
            # cluster is half-spawned must not leak the children that
            # already started.
            cls(processes, addresses).stop()
            raise
        cluster = cls(processes, addresses, announcements)
        cluster._spawn_opts = {
            "python": python,
            "shards": shards,
            "host": host,
            "max_entries": max_entries,
            "max_facts": max_facts,
            "faults": faults_spec,
        }
        return cluster

    @staticmethod
    def _spawn_child(
        python, index, shards, host, port,
        max_entries, max_facts, faults_spec=None,
    ):
        cmd = [
            python,
            "-m",
            "repro.cacheserver",
            "--serve-shard",
            str(index),
            "--shards",
            str(shards),
            "--host",
            host,
            "--port",
            str(port),
        ]
        if max_entries is not None:
            cmd += ["--max-entries", str(max_entries)]
        if max_facts is not None:
            cmd += ["--max-facts", str(max_facts)]
        if faults_spec:
            cmd += ["--faults", faults_spec]
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, encoding="utf-8"
        )
        try:
            info = json.loads(_readline_with_timeout(proc, SPAWN_TIMEOUT_SEC))
            if info.get("event") != "listening":
                raise RuntimeError(f"shard {index} announced {info!r}")
        except BaseException:
            # The caller never sees this child, so it cannot stop it.
            proc.kill()
            proc.wait()
            proc.stdout.close()
            raise
        return proc, info

    def restart_shard(self, index, timeout=5.0):
        """Kill shard ``index`` (if still alive) and respawn it *blank*
        on the same port — the failure-injection primitive behind the
        reconnect-and-seed tests.  Only clusters created by
        :meth:`spawn` can restart (the spawn options are replayed)."""
        opts = getattr(self, "_spawn_opts", None)
        if opts is None:
            raise RuntimeError("restart_shard needs a spawn()-created cluster")
        proc = self.processes[index]
        if proc.poll() is None:
            proc.kill()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        if proc.stdout is not None:
            proc.stdout.close()
        host, port = self.addresses[index].rsplit(":", 1)
        fresh, info = self._spawn_child(
            opts["python"], index, opts["shards"], host, int(port),
            opts["max_entries"], opts["max_facts"], opts["faults"],
        )
        self.processes[index] = fresh
        if index < len(self.announcements):
            self.announcements[index] = info
        return fresh

    def alive(self):
        """Liveness per shard (True = the child process is running)."""
        return [proc.poll() is None for proc in self.processes]

    def kill(self):
        """Hard-kill every shard immediately (failure-injection tests)."""
        for proc in self.processes:
            if proc.poll() is None:
                proc.kill()
        self._reap()

    def stop(self, timeout=5.0):
        """Terminate every shard; kill whatever ignores SIGTERM."""
        for proc in self.processes:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.processes:
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
        self._reap()

    def _reap(self):
        for proc in self.processes:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                pass
            if proc.stdout is not None:
                proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()

    def __repr__(self):
        up = sum(self.alive())
        return f"CacheCluster({up}/{len(self.processes)} shards up)"


def _readline_with_timeout(proc, timeout):
    """One stdout line from a child, or a RuntimeError if it dies or
    stalls — a crashed shard must fail the spawn, not hang it."""
    result = {}

    def read():
        result["line"] = proc.stdout.readline()

    thread = threading.Thread(target=read, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise RuntimeError(
            f"shard server (pid {proc.pid}) did not announce a listening "
            f"address within {timeout}s (exit code {proc.poll()})"
        )
    line = result.get("line", "")
    if not line:
        # End of output: the child is exiting, so reap it for its code.
        try:
            code = proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            raise RuntimeError(
                f"shard server (pid {proc.pid}) closed its output "
                "without announcing a listening address"
            ) from None
        raise RuntimeError(
            f"shard server (pid {proc.pid}) exited with code {code} "
            "before announcing"
        )
    return line
