"""The client side of the shared cache: ``RemoteSummaryCache``.

A :class:`~repro.analysis.summaries.SummaryBackend` that fronts a
cluster of shard servers.  The routing is the same CRC-32 method
partition the servers were spawned with, so every key has exactly one
owner; entries travel in the :mod:`repro.api.snapshot` wire format and
are resolved back to PAG nodes here (the backend learns its PAG via
:meth:`RemoteSummaryCache.bind_pag`, which DYNSUM calls on attach).

Correctness stance — the part the tests pin down:

* **fallback, always.**  A remote miss, a timeout, a refused
  connection, a server killed mid-batch, a malformed response, or an
  entry that no longer resolves in this client's PAG all degrade to
  ``lookup() -> None`` — i.e. to local computation.  Summaries are pure
  memos, so the service can only ever move *cost*; answers are
  element-wise identical with the service up, down, or dying.
* **local tier.**  Prefetched entries (and local computes, via
  ``store``) land in a process-local store, which answers every
  probe.  The tier has the same lifetime and semantics as the purely
  local cache it replaces: a process observes *its own* edits
  immediately (``invalidate_method`` clears the tier **and** the owning
  shard), and other processes observe them at their next shard fetch.
  A client that never applied an edit keeps serving its own pre-edit
  memos from the tier — exactly as it would have with no service at
  all, which is the consistency contract of the in-process cache too.
* **epoch-hardened consistency (protocol 1.4).**  Every store-level op
  carries the client's per-method **consistency epoch** (bumped by
  each ``invalidate_method``) plus its program fingerprint.  The shard
  rules close the mixed-version windows the pre-1.4 tier documented
  as caveats: a server *behind* a client's epoch drops the method's
  residue and adopts (a shard that missed an invalidate self-heals on
  first contact); a client *behind* the server has its flushed
  summaries refused one by one (``stale`` flags, counted in
  ``epoch_rejections``) — a pre-edit summary can never overwrite a
  post-edit one, and a prefetch only adopts entries whose epoch
  matches this client's view.  On **reconnect** to a shard
  that dropped (restarted blank, network blip), the link replays a
  seed snapshot of the local tier's entries for that shard in the same
  flight as the first request (``reconnects``/``seeded_entries``), so
  a blank shard is re-warmed instead of serving misses forever.
* **breaker-bounded backoff, not retry storms.**  A failed shard link
  is torn down and its per-link :class:`~repro.cacheserver.faults.CircuitBreaker`
  opens: requests fail fast until the jittered-exponential
  :class:`~repro.cacheserver.faults.RetryPolicy` window lapses, then a
  single half-open probe decides whether the circuit closes again.  A
  dead fleet costs at most one connect attempt per link per backoff
  window, and the per-address jitter keys keep N links from probing in
  lockstep.  Every fall-open decision — any path that degrades to
  local computation — additionally counts ``degraded``, and injected
  faults (:class:`~repro.cacheserver.faults.FaultSchedule`) count
  ``faults``, so a chaos run can prove the fail-open ladder was
  actually exercised.
* **the shards are read only through a prefetch.**  The engine runs
  every query, alias check, batch and warm start between the store's
  batch hooks, so each costs O(shards) round trips (protocol 1.2):
  ``begin_batch`` prefetches from each shard in one ``fetch-methods``
  exchange, and publishes queue for per-shard ``batch-store`` flushes
  at ``end_batch`` (or :meth:`RemoteSummaryCache.close`).  The
  prefetch is incremental (protocol 1.7): a backend's first fetch from
  a shard is the whole shard store, every later one presents the
  shard's ``(incarnation, cursor)`` and carries only the entries
  published or replaced since — so a warm batch also decodes O(new
  entries), not O(resident entries).  A shard frames its answer
  (protocol 1.10): each distinct node reference once, the field
  stacks as a trie, plus the entry rows, packed into one base64
  string, validated and resolved in one pass.  That frame is the one
  form this client reads entries in: a damaged frame, an answer whose
  ``epochs`` do not align with its entries, and any other form
  (nominal entries, integer rows, a frame labelled before 1.10, as
  shards of earlier builds send) are refused whole and fall open.  A
  frame for a plain, empty local
  tier, on the kernel, is *held*: its rows go into the tier's kernel
  mirror in one call, and no Python summary is built until something
  reads one (:func:`repro.native.session.hold_frame`).  A local miss
  is final and sends no ``lookup``, whichever prefetches answered and
  whether the local tier evicted, and a publish is never sent on its
  own: a call costs its prefetch and flush flights only, and with a
  plain local tier it runs on the native kernel, which mirrors that
  tier (:func:`repro.native.session.explore_native`).  Every failure
  falls open, and an ``invalidate_method`` purges the edited method's
  queued publishes before reaching the shard, so a flush can never
  resurrect pre-edit memos.  Shards still answer ``lookup`` and
  ``store`` (the ``repro-cached --connect`` REPL and older clients send
  them); this client does not.

Accounting: the backend keeps its own hit/miss counters (a hit =
answered from the local tier; a miss = the caller must compute), and a
:class:`~repro.api.protocol.RemoteStoreStats` of the service traffic —
surfaced through ``EngineStats.remote`` and the ``stats`` wire op so
clients can observe cache provenance.
"""

import selectors
import socket
import threading
import time
import weakref

from repro.analysis.ppta import active_traversal_impl
from repro.analysis.summaries import (
    CacheStats,
    SummaryBackend,
    SummaryCache,
    shard_for_method,
)
from repro.api.codec import decode_response, encode
from repro.api.protocol import (
    FRAME_VERSION,
    BatchStoreRequest,
    BatchStoreResponse,
    InvalidateRequest,
    InvalidateResponse,
    MethodEntriesRequest,
    MethodEntriesResponse,
    ProtocolError,
    RemoteStoreStats,
    SnapshotError,
    StoreStatsResponse,
    StoreStatsRequest,
    WireError,
    split_version,
)
from repro.api.snapshot import (
    entry_to_wire,
    frame_rows,
    resolve_frame,
    resolve_frame_tables,
)
from repro.cacheserver.faults import (
    CircuitBreaker,
    FaultError,
    FaultInjector,
    FaultSchedule,
    InjectedDisconnect,
    InjectedFault,
    InjectedTimeout,
    RetryPolicy,
    coerce_schedule,
    corrupt_line,
    truncate_line,
)
from zlib import crc32


class ShardUnavailable(Exception):
    """A shard link could not complete one request (connection refused,
    timeout, mid-stream disconnect, or backing off after one of those)."""


def parse_addresses(text):
    """The shard-ordered address tuple from a comma-separated
    ``host:port`` list — the format ``repro-cached`` prints and every
    ``--remote``/``--connect`` flag accepts.  Raises ``ValueError``
    when the list names no shards."""
    addresses = tuple(
        address.strip() for address in text.split(",") if address.strip()
    )
    if not addresses:
        raise ValueError(f"no shard addresses in {text!r}")
    return addresses


class ShardLink:
    """One persistent JSON-lines connection to one shard server.

    Lazily connected, serialized by a lock, reused across batches (the
    connection is process state — no reconnect-per-op path exists), torn
    down on any transport error.  Failures feed a per-link
    :class:`~repro.cacheserver.faults.CircuitBreaker`: while the
    circuit is open every request fails fast with
    :class:`ShardUnavailable` instead of re-paying the connect timeout,
    and when the (jittered, exponential) backoff window lapses exactly
    one caller becomes the half-open probe.  Without a ``retry`` policy
    the windows derive from ``timeout``
    (:meth:`~repro.cacheserver.faults.RetryPolicy.from_interval`).

    :meth:`request_many` pipelines several request lines into one
    flight, so a chunked bulk operation still costs a single network
    round trip.  A flight is written in windows of at most
    :data:`WINDOW_BYTES`, reading whatever responses have arrived in
    between: the shard answers line by line, and unread answers would
    otherwise fill the socket buffers until the shard stopped reading
    the flight and both sides stalled.

    **Reconnect-and-seed**: when the link re-establishes a connection
    it had before (the shard restarted, or the network blipped), it
    asks its ``seed_provider`` — installed by
    :class:`RemoteSummaryCache` — for request lines that re-warm the
    shard from the client's local tier, and prepends them to the same
    flight; ``on_seed`` then sees the seed responses.  A shard that
    came back *blank* is re-seeded instead of serving misses until the
    fleet recomputes everything; a shard that never dropped just
    re-adopts entries it already holds (stores are idempotent).
    """

    #: Largest single write of a flight (see above).
    WINDOW_BYTES = 64 * 1024

    def __init__(self, address, timeout=1.0, retry=None, faults=None,
                 shard_index=0, clock=None):
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"shard address must be 'host:port', got {address!r}")
        self.address = address
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        if retry is None:
            retry = RetryPolicy.from_interval(timeout)
        self.retry_policy = retry
        # The jitter key is the address hash: deterministic for this
        # link, different from its siblings' — no lockstep retries.
        self.breaker = CircuitBreaker(
            retry=retry, clock=clock, key=crc32(address.encode())
        )
        #: Client-side fault injector shared across a backend's links
        #: (``None`` in production).
        self.faults = faults
        self.shard_index = shard_index
        self.seed_failures = 0  # seed flights abandoned before sending
        self._lock = threading.Lock()
        self._sock = None
        self._reader = None
        self._ever_connected = False
        #: ``() -> iterable of request lines`` replayed on reconnect
        #: (not on first connect); ``None`` disables seeding.
        self.seed_provider = None
        #: ``(seed_lines, response_lines) -> None`` — accounting hook.
        self.on_seed = None

    def request(self, line):
        """Send one request line, return the response line."""
        return self.request_many((line,))[0]

    def request_many(self, lines):
        """Pipeline many request lines in one flight; aligned responses.

        The whole exchange is one lock hold and one round trip (early
        responses are read between the flight's write windows): the
        server answers in order, so response *i* belongs to line *i*.
        Any transport failure tears the link down (no partial
        results — the caller cannot tell which ops landed, the same
        contract a single failed :meth:`request` has).
        """
        with self._lock:
            if not self.breaker.allow():
                # Fail fast while the circuit is open.  No attempt is
                # made, so this does not count as a breaker failure.
                raise ShardUnavailable(
                    f"{self.address}: circuit open, backing off after failure"
                )
            action = (
                self.faults.begin_op(self.shard_index)
                if self.faults is not None
                else None
            )
            try:
                if action == "connect-refused":
                    self._teardown()
                    raise InjectedFault("connect-refused", self.address)
                seed_lines = ()
                if self._sock is None:
                    reconnecting = self._ever_connected
                    self._connect()
                    self._ever_connected = True
                    if reconnecting and self.seed_provider is not None:
                        try:
                            seed_lines = tuple(self.seed_provider())
                        except (FaultError, OSError, SnapshotError, ProtocolError):
                            # Seeding is best-effort re-warming; a
                            # provider failure must not fail the
                            # triggering request.
                            self.seed_failures += 1
                            seed_lines = ()
                if action == "delay":
                    time.sleep(self.faults.delay_sec)
                flight = list(seed_lines) + list(lines)
                payload = "".join(line + "\n" for line in flight).encode("utf-8")
                if action == "write-timeout":
                    raise InjectedTimeout("write-timeout", self.address)
                responses = self._send(payload, len(flight))
                if action == "read-timeout":
                    raise InjectedTimeout("read-timeout", self.address)
                if action == "disconnect":
                    raise InjectedDisconnect("disconnect", self.address)
                while len(responses) < len(flight):
                    responses.append(self._read_response())
                if action in ("truncate", "corrupt") and len(responses) > len(seed_lines):
                    # Mutate the first *payload* response: the caller's
                    # decoder must reject it and fall open.
                    mutate = truncate_line if action == "truncate" else corrupt_line
                    responses[len(seed_lines)] = mutate(responses[len(seed_lines)])
                if seed_lines and self.on_seed is not None:
                    try:
                        self.on_seed(seed_lines, responses[: len(seed_lines)])
                    except (FaultError, OSError, SnapshotError, ProtocolError, WireError):
                        # Accounting must never fail the request.
                        self.seed_failures += 1
                self.breaker.record_success()
                return responses[len(seed_lines):]
            except OSError as exc:
                self._teardown()
                self.breaker.record_failure()
                raise ShardUnavailable(f"{self.address}: {exc}") from None

    def _send(self, payload, count):
        """Write ``payload`` (``count`` request lines); returns the
        responses read while writing."""
        sock = self._sock
        window = self.WINDOW_BYTES
        responses = []
        view = memoryview(payload)
        sent = 0
        with selectors.DefaultSelector() as selector:
            selector.register(sock, selectors.EVENT_READ | selectors.EVENT_WRITE)
            while sent < len(view):
                ready = selector.select(self.timeout)
                if not ready:
                    raise socket.timeout("flight write timed out")
                events = ready[0][1]
                if events & selectors.EVENT_READ and len(responses) < count:
                    responses.append(self._read_response())
                if events & selectors.EVENT_WRITE:
                    sent += sock.send(view[sent : sent + window])
        return responses

    def _read_response(self):
        response = self._reader.readline()
        if not response:
            raise OSError("connection closed by shard server")
        return response

    def _connect(self):
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.settimeout(self.timeout)
        self._sock = sock
        self._reader = sock.makefile("r", encoding="utf-8", newline="\n")

    def _teardown(self):
        for closer in (self._reader, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._sock = None
        self._reader = None

    def close(self):
        with self._lock:
            self._teardown()

    def __repr__(self):
        state = "connected" if self._sock is not None else "idle"
        return f"ShardLink({self.address}, {state})"


class RemoteSummaryCache(SummaryBackend):
    """A summary backend served by shard-server processes.

    ``addresses`` is the cluster's shard-ordered ``host:port`` tuple
    (``CacheCluster.addresses``, or what ``repro-cached`` printed);
    ``local`` is the local tier — any local backend, defaulting
    to an unbounded :class:`~repro.analysis.summaries.SummaryCache`.
    Summaries route to shard servers by
    :func:`~repro.analysis.summaries.shard_for_method`.
    """

    #: Entries per pipelined ``batch-store`` line; larger flushes are
    #: chunked and the chunks sent in ONE flight via ``request_many``.
    FLUSH_CHUNK = 256

    def __init__(self, addresses, local=None, timeout=1.0, retry=None,
                 fault_schedule=None):
        addresses = tuple(addresses)
        if not addresses:
            raise ValueError("RemoteSummaryCache needs at least one shard address")
        self.addresses = addresses
        self.n_shards = len(addresses)
        self.timeout = timeout
        self.retry_policy = retry
        self.local_tier = local if local is not None else SummaryCache()
        schedule = coerce_schedule(fault_schedule)
        if schedule is None:
            schedule = FaultSchedule.from_env()
        self._faults = (
            FaultInjector(schedule, side="client")
            if schedule is not None
            else None
        )
        self._links = tuple(
            ShardLink(
                address,
                timeout=timeout,
                retry=retry,
                faults=self._faults,
                shard_index=index,
            )
            for index, address in enumerate(addresses)
        )
        self._pag = None
        self._fingerprint = None
        self._stats_lock = threading.Lock()
        self._hits = 0  # guarded-by: _stats_lock
        self._misses = 0  # guarded-by: _stats_lock
        # ``remote_hits``/``remote_misses`` stay at their default 0:
        # this client sends no ``lookup``.
        self._remote = {  # guarded-by: _stats_lock
            "remote_errors": 0,
            "unresolved": 0,
            "stores": 0,
            "store_errors": 0,
            "invalidations": 0,
            "invalidation_errors": 0,
            "round_trips": 0,
            "prefetched": 0,
            "epoch_rejections": 0,
            "reconnects": 0,
            "seeded_entries": 0,
            "degraded": 0,
            "prefetch_bytes": 0,
        }
        self._buffer_lock = threading.Lock()
        self._write_buffers = tuple(  # guarded-by: _buffer_lock
            [] for _ in range(self.n_shards)
        )
        # Incremental prefetch (protocol 1.7): per shard, the
        # ``(incarnation, cursor)`` of the last decoded fetch (``None``
        # = next fetch is a full dump), and a reset generation so a
        # fetch already in flight when a reset lands cannot advance
        # past it.
        self._cursor_lock = threading.Lock()
        self._cursors = [None] * self.n_shards  # guarded-by: _cursor_lock
        self._cursor_resets = [0] * self.n_shards  # guarded-by: _cursor_lock
        # Reconnect-and-seed: each link re-warms a restarted shard from
        # this client's tier and epochs.
        for index, link in enumerate(self._links):
            link.seed_provider, link.on_seed = self._seed_hooks(index)

    # ------------------------------------------------------------------
    # backend plumbing
    # ------------------------------------------------------------------
    @property
    def max_entries(self):
        return self.local_tier.max_entries

    @property
    def max_facts(self):
        return self.local_tier.max_facts

    @property
    def hits(self):
        return self._hits

    @property
    def misses(self):
        return self._misses

    @property
    def evictions(self):
        return self.local_tier.evictions

    @property
    def invalidated(self):
        return self.local_tier.invalidated

    def bind_pag(self, pag):
        self._pag = pag
        # Entries skipped as unresolvable may resolve in this PAG, and
        # the fingerprint filter may change: fetch everything again.
        self._reset_cursors(range(self.n_shards))
        # The program fingerprint rides every store-level op (protocol
        # 1.4) so shards can arbitrate same-epoch traffic from clients
        # that disagree about the program.  Fingerprint-less operation
        # (a PAG the hash cannot walk) stays legal — it just waives the
        # same-epoch arbitration, never correctness.
        try:
            from repro.pag.csr import pag_fingerprint

            self._fingerprint = pag_fingerprint(pag)
        except Exception:
            self._fingerprint = None
            self._bump("degraded")

    def _bump(self, *names):
        with self._stats_lock:
            for name in names:
                if name == "hit":
                    self._hits += 1
                elif name == "miss":
                    self._misses += 1
                else:
                    self._remote[name] += 1

    def _bump_n(self, name, count):
        if count:
            with self._stats_lock:
                self._remote[name] += count

    def _link_for(self, method_qname):
        return self._links[shard_for_method(method_qname, self.n_shards)]

    def _exchange(self, method_qname, request):
        """One request/response with the shard owning ``method_qname``
        (see :meth:`_exchange_link`)."""
        return self._exchange_link(self._link_for(method_qname), request)

    def _exchange_link(self, link, request):
        """One request/response on ``link``, decoded; raises
        :class:`ShardUnavailable` or :class:`ProtocolError` on failure.
        Every completed exchange counts one ``round_trips``, and a
        ``fetch-methods-result`` line its size in ``prefetch_bytes``."""
        line = link.request(encode(request))
        self._bump("round_trips")
        response = decode_response(line)
        if isinstance(response, MethodEntriesResponse):
            self._bump_n("prefetch_bytes", len(line))
        return response

    # ------------------------------------------------------------------
    # the cache contract
    # ------------------------------------------------------------------
    def lookup(self, node, field_stack, state):
        """The local tier's summary, or ``None`` (the caller computes).

        A local miss is final: this store reads the shards only through
        :meth:`begin_batch`'s prefetch, so a miss sends no ``lookup``.
        Summaries are memos, so a key the prefetch did not bring can
        only cost a recompute, never change an answer."""
        summary = self.local_tier.lookup(node, field_stack, state)
        self._bump("miss" if summary is None else "hit")
        return summary

    def count_probes(self, hits, misses):
        """Account ``hits`` and ``misses`` probes answered without this
        store's :meth:`lookup` — the native kernel's, off the mirrored
        local tier."""
        with self._stats_lock:
            self._hits += hits
            self._misses += misses

    def store(self, node, field_stack, state, ppta_result):
        stored = self.local_tier.store(node, field_stack, state, ppta_result)
        self.publish(node, field_stack, state, ppta_result)
        return stored

    def publish(self, node, field_stack, state, ppta_result):
        """Queue one summary for its owning shard — the half of
        :meth:`store` after the local tier took it, and all the native
        kernel calls for a summary it inserted into the tier itself.
        The queue goes out at :meth:`end_batch` (or :meth:`close`), each
        summary with its method's epoch *at publish time*: a later
        invalidate of the method purges it, so the pair stays coherent.
        Best effort: a failed publish only means other clients
        recompute this memo themselves."""
        try:
            entry = entry_to_wire(node, field_stack, state, ppta_result)
        except SnapshotError:
            self._bump("store_errors", "degraded")
            return
        method = getattr(node, "method", None)
        epoch = self.method_epoch(method)
        index = shard_for_method(method, self.n_shards)
        with self._buffer_lock:
            self._write_buffers[index].append((entry, epoch))

    def invalidate_method(self, method_qname):
        """Drop one method's summaries locally **and** on its owning
        shard server, so other clients observe the edit at their next
        fetch.  Returns the *local* entries dropped — the same
        process-resident count every other backend reports (an edit's
        report counts it as ``dropped``); the remote acknowledgement is
        counted in :meth:`remote_stats` (``invalidations`` vs.
        ``invalidation_errors``)."""
        # Bump this client's consistency epoch *first*: everything sent
        # for the method from here on (including the wire invalidate
        # below) carries the post-edit epoch, and any pre-edit traffic
        # still in flight elsewhere is now refusable server-side.
        epoch = self.bump_epoch(method_qname)
        index = shard_for_method(method_qname, self.n_shards)
        # Entries the owning shard offered earlier and the prefetch
        # skipped for an epoch mismatch may match now: re-offer them.
        self._reset_cursors((index,))
        # Queued publishes of the edited method are stale now — purge
        # them so the flush cannot resurrect pre-edit memos after the
        # invalidate below.
        with self._buffer_lock:
            buffer = self._write_buffers[index]
            buffer[:] = [
                (entry, entry_epoch)
                for entry, entry_epoch in buffer
                if entry["node"].get("method") != method_qname
            ]
        dropped = self.local_tier.invalidate_method(method_qname)
        try:
            response = self._exchange(
                method_qname,
                InvalidateRequest(method=method_qname, epoch=epoch),
            )
        except (ShardUnavailable, ProtocolError):
            self._bump("invalidation_errors", "degraded")
            return dropped
        if isinstance(response, InvalidateResponse):
            self._bump("invalidations")
        else:
            self._bump("invalidation_errors", "degraded")
        return dropped

    # ------------------------------------------------------------------
    # batch hooks (protocol 1.2 pipelining) — the engine calls these
    # around every query, alias check, batch and warm start
    # ------------------------------------------------------------------
    def begin_batch(self):
        """Start a batch: prefetch from each shard in one
        ``fetch-methods`` round trip per shard, filling the local tier.
        Every failure falls open exactly like a local miss.

        The prefetch is incremental (protocol 1.7).  This backend's
        first fetch from a shard dumps the *whole* shard store
        (``methods=None``: traversals reach methods transitively, so
        the batch's root methods under-approximate what will be
        probed).  Every later fetch presents the shard's
        ``(incarnation, cursor)`` and receives only the entries this
        client and other clients published or replaced since, so a warm
        batch pays for what is new, not for what the tier already
        holds.  A restarted shard answers under a new incarnation, and
        a sender that keeps no cursor (null incarnation) answers every
        fetch with the full dump.  The cursor resets, making the next
        fetch a full dump, whenever what this client would adopt may
        have changed: an epoch change for a method the shard owns
        (:meth:`invalidate_method`, :meth:`adopt_epochs`), a new PAG
        (:meth:`bind_pag`), or a cleared tier (:meth:`clear`).

        The prefetch is this store's only read of the shards: a local
        miss sends no ``lookup`` (see :meth:`lookup`), even for a shard
        whose prefetch failed or an entry a bounded local tier evicted,
        and with a plain local tier the batch runs on the native kernel.
        """
        if self._pag is not None:
            for index, link in enumerate(self._links):
                self._prefetch(index, link)

    def _prefetch(self, index, link):
        """One shard's ``fetch-methods`` exchange, adopted into the
        local tier.  A shard answers this build's requests with a frame
        (its packed rows decoded once into one ``array``), resolved by
        :func:`~repro.api.snapshot.resolve_frame` or held in the
        kernel (:meth:`_hold`), or with no entries at all.  Any other
        answer is refused whole, like a damaged frame: nominal entries,
        a frame without ``packed`` or under a label before 1.10 (a shard
        of an earlier build), or non-empty ``epochs`` that do not hold
        one epoch per entry.  The shard's cursor advances only after an
        answer was decoded and, when framed, validated, and only when
        no reset landed while it was in flight."""
        with self._cursor_lock:
            cursor = self._cursors[index]
            generation = self._cursor_resets[index]
        incarnation, since = cursor if cursor is not None else (None, 0)
        try:
            response = self._exchange_link(
                link,
                MethodEntriesRequest(
                    methods=None,
                    fingerprint=self._fingerprint,
                    incarnation=incarnation,
                    since=since,
                ),
            )
        except (ShardUnavailable, ProtocolError):
            self._bump("remote_errors", "degraded")
            return
        if not isinstance(response, MethodEntriesResponse):
            self._bump("remote_errors", "degraded")
            return
        epochs = response.epochs
        frame = response.frame
        held = None
        entries = ()
        try:
            # Entries arrive in a 1.10 frame, which resolves in one
            # pass; any damage, and any other form, refuses the answer
            # whole, like an undecodable one.
            if response.entries or (
                frame is not None
                and split_version(response.protocol_version) < FRAME_VERSION
            ):
                raise SnapshotError("prefetch: entries are read only from a 1.10 frame")
            if frame is not None:
                rows = frame_rows(frame, "prefetch.frame")
                tables = resolve_frame_tables(self._pag, frame, "prefetch.frame")
                held = self._hold(tables, rows, epochs)
                if held is None:
                    entries = resolve_frame(
                        self._pag, frame, "prefetch.frame", tables, rows
                    )
        except SnapshotError:
            self._bump("remote_errors", "degraded")
            return
        if held is not None:
            adopted, skipped = held
            self._bump_n("unresolved", skipped)
        elif epochs and len(epochs) != len(entries):
            self._bump("remote_errors", "degraded")
            return
        else:
            adopted = self._adopt(entries, epochs)
        self._bump_n("prefetched", adopted)
        with self._cursor_lock:
            if self._cursor_resets[index] == generation:
                self._cursors[index] = (
                    None
                    if response.incarnation is None
                    else (response.incarnation, response.cursor)
                )

    def _adopt(self, resolved_entries, epochs):
        """Store resolved prefetch entries in the local tier; returns
        how many.  An entry is adopted only when it resolved and its
        epoch (``epochs`` aligns one per entry, or is empty: all 0)
        matches this client's view of its method: an entry computed for
        a program version this client has not caught up to (or has
        moved past) must not enter the tier."""
        adopted = 0
        for position, resolved in enumerate(resolved_entries):
            if resolved is None:
                self._bump("unresolved")
                continue
            node, stack, state, summary = resolved
            method = getattr(node, "method", None)
            server_epoch = epochs[position] if epochs else 0
            if server_epoch != self.method_epoch(method):
                self._bump("unresolved")
                continue
            self.local_tier.store(node, stack, state, summary)
            adopted += 1
        return adopted

    def _hold(self, tables, rows, epochs):
        """Hold a frame's entries in the local tier's kernel mirror
        (:func:`repro.native.session.hold_frame`): ``(adopted,
        skipped)``, or ``None`` for the per-entry path.  Only a plain
        tier with no Python entries, on the kernel, is offered a
        frame."""
        tier = self.local_tier
        if (
            type(tier) is not SummaryCache
            or tier._entries
            or active_traversal_impl() != "native"
        ):
            return None
        # Deferred: a shard process, which never prefetches, must not
        # load the kernel binding.
        from repro.native.session import hold_frame

        held = hold_frame(tier, self._pag, tables, rows, epochs, self.method_epochs())
        return held if type(held) is tuple else None  # else: why not held

    def _reset_cursors(self, shards):
        """Make the next prefetch from each of ``shards`` a full dump."""
        with self._cursor_lock:
            for index in shards:
                self._cursors[index] = None
                self._cursor_resets[index] += 1

    def adopt_epochs(self, epochs):
        """Merge ``epochs`` in (see
        :meth:`~repro.analysis.summaries.SummaryBackend.adopt_epochs`);
        each shard owning a method whose epoch moved re-offers its
        entries at the next prefetch."""
        before = self.method_epochs()
        super().adopt_epochs(epochs)
        self._reset_cursors(
            {
                shard_for_method(method, self.n_shards)
                for method, epoch in self.method_epochs().items()
                if before.get(method, 0) != epoch
            }
        )

    def end_batch(self):
        """Flush the queued publishes: per shard one ``batch-store``
        line (chunked past :data:`FLUSH_CHUNK`, the chunks pipelined in
        one flight)."""
        with self._buffer_lock:
            pending = [list(buffer) for buffer in self._write_buffers]
            for buffer in self._write_buffers:
                buffer.clear()
        for index, buffered in enumerate(pending):
            if not buffered:
                continue
            link = self._links[index]
            chunks = [
                buffered[i:i + self.FLUSH_CHUNK]
                for i in range(0, len(buffered), self.FLUSH_CHUNK)
            ]
            lines = [
                encode(
                    BatchStoreRequest(
                        entries=tuple(entry for entry, _ in chunk),
                        epochs=tuple(epoch for _, epoch in chunk),
                        fingerprint=self._fingerprint,
                    )
                )
                for chunk in chunks
            ]
            try:
                responses = link.request_many(lines)
                self._bump("round_trips")
            except ShardUnavailable:
                self._bump("degraded")
                self._bump_n("store_errors", len(buffered))
                continue
            for chunk, line in zip(chunks, responses):
                try:
                    response = decode_response(line)
                except ProtocolError:
                    self._bump("degraded")
                    self._bump_n("store_errors", len(chunk))
                    continue
                if isinstance(response, BatchStoreResponse):
                    # Per-element verdicts: a stale element was refused
                    # by the epoch guard, the rest were stored.
                    stale = sum(1 for flag in response.stale if flag)
                    self._bump_n("epoch_rejections", stale)
                    self._bump_n("stores", len(chunk) - stale)
                else:
                    self._bump("degraded")
                    self._bump_n("store_errors", len(chunk))

    # ------------------------------------------------------------------
    # reconnect-and-seed (protocol 1.4): re-warm a restarted shard
    # ------------------------------------------------------------------
    def _seed_hooks(self, index):
        """Shard ``index``'s link's ``(seed_provider, on_seed)``.  They
        hold this backend weakly: a link that referred back to it would
        keep a dropped backend — its local tier and any kernel mirror of
        that tier — alive until the cyclic GC ran."""
        backend = weakref.ref(self)

        def provide():
            owner = backend()
            return () if owner is None else owner._seed_lines(index)

        def ack(seed_lines, response_lines):
            owner = backend()
            if owner is not None:
                owner._seed_ack(seed_lines, response_lines)

        return provide, ack

    def _seed_lines(self, index):
        """The ``batch-store`` request lines that re-warm shard
        ``index`` from this client's local tier — what the link
        prepends to its first flight after a reconnect.  Entries carry
        their method's current epoch and this client's fingerprint, so
        a seed can never smuggle stale memos past the epoch guard."""
        self._bump("reconnects")
        if self._pag is None:
            return ()
        entries = []
        epochs = []
        for (node, stack, state), summary in list(self.local_tier.entries()):
            method = getattr(node, "method", None)
            if shard_for_method(method, self.n_shards) != index:
                continue
            try:
                entry = entry_to_wire(node, stack, state, summary)
            except SnapshotError:
                self._bump("degraded")
                continue
            entries.append(entry)
            epochs.append(self.method_epoch(method))
        lines = []
        for i in range(0, len(entries), self.FLUSH_CHUNK):
            lines.append(
                encode(
                    BatchStoreRequest(
                        entries=tuple(entries[i:i + self.FLUSH_CHUNK]),
                        epochs=tuple(epochs[i:i + self.FLUSH_CHUNK]),
                        fingerprint=self._fingerprint,
                    )
                )
            )
        return lines

    def _seed_ack(self, seed_lines, response_lines):
        """Account the seed flight: every accepted element re-warmed
        the shard (``seeded_entries``); refused elements hit the epoch
        guard (``epoch_rejections``).  Seeds ride the triggering
        request's flight, so they cost no extra ``round_trips``."""
        for line in response_lines:
            try:
                response = decode_response(line)
            except ProtocolError:
                self._bump("degraded")
                continue
            if isinstance(response, BatchStoreResponse):
                stale = sum(1 for flag in response.stale if flag)
                self._bump_n("epoch_rejections", stale)
                self._bump_n("seeded_entries", len(response.stored) - stale)

    def clear(self):
        """Forget the local tier and this backend's counters.  The
        service is deliberately untouched: it belongs to every client;
        use :meth:`invalidate_method` for targeted shared drops.  The
        next prefetch refills the tier with full dumps."""
        self.local_tier.clear()
        self._reset_cursors(range(self.n_shards))
        with self._stats_lock:
            self._hits = 0
            self._misses = 0
            for name in self._remote:
                self._remote[name] = 0

    # ------------------------------------------------------------------
    # introspection: the local tier's business
    # ------------------------------------------------------------------
    def entries(self):
        return self.local_tier.entries()

    def entries_by_recency(self, hottest_first=True):
        return self.local_tier.entries_by_recency(hottest_first)

    def __len__(self):
        return len(self.local_tier)

    def __contains__(self, key):
        return key in self.local_tier

    def summary_point_count(self):
        return self.local_tier.summary_point_count()

    def total_facts(self):
        return self.local_tier.total_facts()

    def approx_bytes(self):
        return self.local_tier.approx_bytes()

    def stats_snapshot(self):
        """This process's view: resident entries are the local tier's;
        hits count answers from either tier, misses count fall-throughs
        to local compute."""
        return CacheStats(
            entries=len(self.local_tier),
            facts=self.local_tier.total_facts(),
            hits=self._hits,
            misses=self._misses,
            evictions=self.local_tier.evictions,
            invalidated=self.local_tier.invalidated,
            approx_bytes=self.local_tier.approx_bytes(),
            max_entries=self.local_tier.max_entries,
            max_facts=self.local_tier.max_facts,
        )

    def restore_counters(self, stats):
        with self._stats_lock:
            self._hits = stats.hits
            self._misses = stats.misses
        # Evictions/invalidated are reported from the local tier (see
        # stats_snapshot), so the round-trip contract needs them
        # restored there, not here.
        self.local_tier.restore_counters(stats)

    def remote_stats(self):
        """The service-traffic accounting, as wire-ready
        :class:`~repro.api.protocol.RemoteStoreStats`.  Protocol 1.6
        rows: ``faults`` (injected by the client-side schedule),
        ``degraded`` (fall-open decisions) and per-link
        ``breaker_state``."""
        faults = self._faults.total_injected() if self._faults is not None else 0
        breaker_state = tuple(link.breaker.state for link in self._links)
        with self._stats_lock:
            return RemoteStoreStats(
                shards=self.n_shards,
                faults=faults,
                breaker_state=breaker_state,
                **self._remote,
            )

    def shard_stats(self):
        """Live per-shard :class:`~repro.api.protocol.StoreStatsResponse`
        from every reachable server (``None`` for unreachable shards) —
        the observability hook dashboards and the REPL use."""
        snapshots = []
        for index, link in enumerate(self._links):
            try:
                response = self._exchange_link(link, StoreStatsRequest())
            except (ShardUnavailable, ProtocolError, WireError):
                self._bump("degraded")
                snapshots.append(None)
                continue
            snapshots.append(
                response if isinstance(response, StoreStatsResponse) else None
            )
        return snapshots

    def close(self):
        self.end_batch()  # publish whatever is still queued
        for link in self._links:
            link.close()

    def __repr__(self):
        return (
            f"RemoteSummaryCache({self.n_shards} shard(s), "
            f"{len(self.local_tier)} local entries, hits={self._hits}, "
            f"misses={self._misses})"
        )
