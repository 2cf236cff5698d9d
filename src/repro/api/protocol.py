"""The versioned wire protocol: typed requests, responses, and errors.

Everything the engine can be asked over a process boundary is a frozen
dataclass here, and every message carries ``protocol_version``.  The
paper's premise — DYNSUM summaries are pure, context-independent memos —
makes the engine's whole surface *serializable*: queries name PAG nodes
nominally (``(method, var)``), results name objects by their stable
allocation labels, and summary stores round-trip through
:mod:`repro.api.snapshot`.  This module is the vocabulary; the canonical
JSON encoding and strict validation live in :mod:`repro.api.codec`, and
the dispatcher in :mod:`repro.api.service`.

Versioning policy
-----------------
``PROTOCOL_VERSION`` is ``"<major>.<minor>"``.  A decoder accepts any
message whose *major* version matches its own (minor revisions may only
add optional fields); a major mismatch is rejected with a structured
:class:`ErrorResponse` — never a traceback.  The pair of decode rules
that makes minor drift actually safe: request decoding rejects unknown
fields (servers never guess), response decoding ignores them (clients
built before a minor revision keep decoding the new server's replies).  The summary-snapshot format
(:data:`repro.api.snapshot.SNAPSHOT_VERSION`) is versioned separately:
snapshots are durable artifacts with a different compatibility lifetime
than request/response traffic.

Request vocabulary
------------------
``query``       one points-to query, optionally with a client verdict;
``batch``       many queries as one scheduled batch;
``alias``       a may-alias check between two variables;
``invalidate``  drop one method's cached summaries (the IDE edit hook,
                and the store-level ``invalidate_method`` op);
``stats``       the engine's lifetime accounting.

Store-level vocabulary (protocol 1.1)
-------------------------------------
A shard server's summary store is addressable over the wire — this is
what the :mod:`repro.cacheserver` shard servers speak, and only they:
:class:`~repro.api.service.PointsToService` refuses these kinds with an
``invalid-request`` error, so its engine's store stays its own:

``lookup``       probe for one summary by its context-free key;
``store``        insert one completed summary;
``store-stats``  one store's :class:`~repro.analysis.summaries.CacheStats`;

plus ``invalidate`` with an epoch, the batched forms of 1.2
(``batch-lookup``/``batch-store``/``batch-invalidate``) and
``fetch-methods``.  An engine's
:class:`~repro.cacheserver.client.RemoteSummaryCache` sends only
``fetch-methods``, ``batch-store`` and ``invalidate``; shards still
answer ``lookup`` and ``store`` for the ``repro-cached --connect`` REPL
and older clients.

Keys and summaries travel in the **snapshot entry format** of
:mod:`repro.api.snapshot` (nominal node references, wire field stacks) —
one serialization for durable snapshots and live cache traffic.  Those
fields are annotated ``Any``: the codec carries them opaquely and the
dispatcher validates them with the snapshot checkers before trusting
them.

Field types are honest: the codec compiles each message's decoder and
encoder from the dataclass annotations (``Optional[int]`` really means
int-or-null on the wire), so these classes are simultaneously the Python
API and the wire schema.
"""

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.analysis.summaries import CacheStats
from repro.engine.scheduler import BatchStats

#: The protocol spoken by this build — "<major>.<minor>".  1.10 packs
#: a frame's rows: ``packed`` carries them as one base64 string (a
#: width byte, then every value as a little-endian signed integer of
#: that width: 2, 4 or 8 bytes, the smallest that holds every value)
#: beside an empty ``rows``.  A shard answers a ``fetch-methods``
#: request of 1.10 or later with such a frame, and any older one with
#: nominal entries, the one form every 1.x client reads; both are
#: labelled ``PROTOCOL_VERSION``, like every other response.  A client
#: reads only that frame, or an answer with no entries, and refuses
#: any other answer whole.  1.9 wrote a frame's field stacks as a
#: trie: each ``stacks`` row is ``[parent, field, family]``, one token
#: pushed onto a stack named earlier, and stack ``0`` is the empty
#: stack; its integer rows are withdrawn (a 1.9 request gets nominal
#: entries).  1.8 framed ``fetch-methods`` answers (a
#: :class:`SummaryFrame`: each distinct node reference and field stack
#: once, plus flat integer rows that index them) and added
#: ``prefetch_bytes`` to the remote stats; its flat stack table is
#: withdrawn (a 1.8 request gets nominal entries).  1.7 makes
#: ``fetch-methods`` incremental: a request may present the
#: ``incarnation``/``since`` cursor of an earlier answer, and a shard
#: whose store still runs under that incarnation returns only the
#: entries stamped after ``since``; every ``fetch-methods-result`` from
#: a shard carries its store's ``incarnation`` and the ``cursor`` to
#: present next.  1.6 adds
#: the failure-semantics rows to the remote stats on ``stats-result``:
#: ``faults`` (transport faults injected by a deterministic
#: :class:`~repro.cacheserver.faults.FaultSchedule` — zero in
#: production), ``degraded`` (fall-open decisions: every time the
#: client answered from local computation because the service path
#: failed), and ``breaker_state`` (each shard link's circuit-breaker
#: state, shard-ordered).  1.5 adds
#: ``traversal_impl``/``native_unavailable`` to ``stats-result``: which
#: PPTA traversal implementation the engine's queries run under, and —
#: when that is ``native`` — why the compiled kernel cannot serve (null
#: when it can; a non-null reason means the engine silently degraded to
#: the pure-Python ``array`` impl with identical answers).  1.4 adds the
#: consistency epoch to every store-level op (``epoch``/``fingerprint``
#: on ``lookup``/``store``/``invalidate``, aligned ``epochs`` tuples on
#: the batch forms), the typed ``stale-epoch`` rejection for
#: behind-the-times write-throughs, per-entry ``epochs`` on
#: ``fetch-methods-result``, aligned ``stale`` flags on
#: ``batch-stored``, the ``epoch_rejections``/``reconnects``/
#: ``seeded_entries`` counters on the remote stats; it also added a
#: transport-level ``id`` envelope for request multiplexing, since
#: withdrawn: a line carrying an ``id`` key is an ``invalid-request``
#: on every transport.  1.3 added a ``stats-result`` flag for a
#: snapshot-borne CSR traversal image adopted at warm start; snapshots
#: no longer carry images, so the flag is withdrawn and not sent
#: (responses ignore unknown fields, so a peer that still sends it
#: decodes fine).  1.2 added the batched store-level ops
#: (``batch-lookup``/``batch-store``/``batch-invalidate``/
#: ``fetch-methods``) that amortise round trips, plus
#: ``round_trips``/``prefetched`` on the remote stats; 1.1 added the
#: store-level ops (``lookup``/``store``/``store-stats``) and the
#: warm-start/remote counters on ``stats-result``; 1.0 traffic decodes
#: unchanged.
PROTOCOL_VERSION = "1.10"

#: The first minor whose ``fetch-methods`` answers carry a frame, as
#: its request's ``protocol_version`` and the answer's compare through
#: :func:`split_version` (as text, ``"1.10"`` sorts before ``"1.9"``).
FRAME_VERSION = (1, 10)


#: Field metadata key: :func:`repro.api.codec.encode` leaves the field
#: out while it holds its default.
OMIT_DEFAULT = "omit_default"


def omitted_unless_set(default):
    """A field a minor revision added, encoded only when set.

    Servers reject unknown request fields, so a request field that is
    always encoded would make every request of its kind undecodable for
    the previous minor's servers.  Left at ``default``, it is absent
    from the encoded message: those servers still decode the request,
    and a response keeps the previous minor's bytes but for its
    ``protocol_version``.
    """
    return field(default=default, metadata={OMIT_DEFAULT: True})


def split_version(version):
    """``"1.0" -> (1, 0)``; raises :class:`ProtocolError` on junk."""
    parts = str(version).split(".")
    if len(parts) != 2:
        raise ProtocolError(
            "invalid-request",
            f"protocol_version must look like '<major>.<minor>', got {version!r}",
        )
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ProtocolError(
            "invalid-request",
            f"protocol_version must be numeric, got {version!r}",
        ) from None


#: This build's major version, parsed once.
_MAJOR = split_version(PROTOCOL_VERSION)[0]


def check_version(version):
    """Reject a major-version mismatch (minor drift is compatible)."""
    major, _minor = split_version(version)
    if major != _MAJOR:
        raise ProtocolError(
            "unsupported-version",
            f"protocol major version {major} is not supported "
            f"(this build speaks {PROTOCOL_VERSION})",
        )


# ----------------------------------------------------------------------
# typed errors — the only failure surface the wire API exposes
# ----------------------------------------------------------------------
class WireError(Exception):
    """Base of every error the wire layer raises deliberately.

    ``code`` is the machine-readable error class carried into the
    :class:`ErrorResponse`; the message is the human-readable detail.
    A host embedding the service can catch this one type.
    """

    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


class ProtocolError(WireError):
    """A request that cannot be decoded: malformed JSON, unknown kind,
    unsupported major version, missing/unknown/ill-typed fields."""


class SnapshotError(WireError):
    """A summary snapshot that cannot be trusted: structural damage,
    version mismatch, stats that disagree with the recorded entries, or
    (under strict restore) entries that no longer resolve in the PAG."""

    def __init__(self, message, code="snapshot-invalid"):
        super().__init__(code, message)


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryRequest:
    """One points-to query for local ``var`` of ``method``.

    ``context`` is the calling-context stack, bottom-to-top, as call-site
    ids.  ``client``/``payload`` optionally name one of the registered
    analysis clients (``SafeCast``/``NullDeref``/``FactoryM``) and its
    query payload; the response then carries that client's verdict.
    """

    method: str
    var: str
    context: Tuple[int, ...] = ()
    client: Optional[str] = None
    payload: Tuple[str, ...] = ()
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class BatchRequest:
    """Many queries answered as one scheduled batch.

    ``dedupe``/``reorder`` override the engine policy when not null —
    the same levers ``query_batch`` exposes in-process.
    """

    queries: Tuple[QueryRequest, ...]
    dedupe: Optional[bool] = None
    reorder: Optional[bool] = None
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class AliasRequest:
    """May-alias check between two named variables."""

    method1: str
    var1: str
    method2: str
    var2: str
    context1: Tuple[int, ...] = ()
    context2: Tuple[int, ...] = ()
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class InvalidateRequest:
    """Drop one method's cached summaries (the host-side edit hook).

    ``epoch`` (protocol 1.4) is the client's post-edit epoch for the
    method; a store applies ``max(server_epoch + 1, epoch)`` so even an
    epoch-less 1.3 client still advances the method's version and
    shakes stale write-throughs out.  ``fingerprint`` names the
    client's program version (see :class:`LookupRequest`).
    """

    method: str
    epoch: int = 0
    fingerprint: Optional[int] = None
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class StatsRequest:
    """Ask for the engine's lifetime accounting snapshot."""

    protocol_version: str = PROTOCOL_VERSION


# ----------------------------------------------------------------------
# store-level requests — the cache-service vocabulary
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LookupRequest:
    """Probe a summary store for one context-free key.

    ``key`` is ``{"node": <node ref>, "stack": <wire stack>, "state":
    1|2}`` in the snapshot entry format (see
    :func:`repro.api.snapshot.check_key`).

    ``epoch`` (protocol 1.4) is the client's consistency epoch for the
    key's method — a monotonic int bumped by every invalidation.  A
    server behind the client's epoch drops the method's entries and
    adopts it (self-heal for a missed invalidate); a client behind the
    server's epoch is answered with a miss, never a stale entry.
    ``fingerprint`` is the client's program fingerprint
    (:func:`repro.pag.csr.pag_fingerprint`) guarding against two
    *different programs* colliding at an equal epoch.
    """

    key: Any
    epoch: int = 0
    fingerprint: Optional[int] = None
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class StoreRequest:
    """Insert one completed summary, as a full snapshot entry (see
    :func:`repro.api.snapshot.check_entry`).  Only fully computed
    summaries may travel — the same rule the in-process contract has.

    ``epoch``/``fingerprint`` (protocol 1.4) version the write: a store
    whose epoch for the entry's method is *ahead* of the client's
    rejects the write-through with a typed ``stale-epoch`` response
    instead of silently accepting a pre-edit summary.
    """

    entry: Any
    epoch: int = 0
    fingerprint: Optional[int] = None
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class StoreStatsRequest:
    """Ask a summary store for its accounting snapshot."""

    protocol_version: str = PROTOCOL_VERSION


# ----------------------------------------------------------------------
# batched store-level requests (protocol 1.2) — one line, one round
# trip, many ops; servers dispatch each batch under a single store-lock
# acquisition
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchLookupRequest:
    """Probe a summary store for many context-free keys at once.

    ``keys`` items follow :func:`repro.api.snapshot.check_key`.  The
    response aligns entry-for-key with this tuple.

    ``epochs`` (protocol 1.4), when non-empty, aligns a consistency
    epoch with each key (empty means epoch 0 for every key — the 1.3
    wire form); ``fingerprint`` is the client's program fingerprint.
    """

    keys: Tuple[Any, ...]
    epochs: Tuple[int, ...] = ()
    fingerprint: Optional[int] = None
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class BatchStoreRequest:
    """Insert many completed summaries in one exchange (the write-
    coalescing flush of a pipelined client).  ``entries`` items follow
    :func:`repro.api.snapshot.check_entry`.

    ``epochs``/``fingerprint`` (protocol 1.4) version each write as in
    :class:`StoreRequest`; a stale element is rejected *individually*
    (flagged in the aligned ``stale`` tuple of the response) rather
    than failing the whole flush.
    """

    entries: Tuple[Any, ...]
    epochs: Tuple[int, ...] = ()
    fingerprint: Optional[int] = None
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class BatchInvalidateRequest:
    """Drop the cached summaries of many methods in one exchange.

    ``epochs``/``fingerprint`` (protocol 1.4) align a post-edit epoch
    with each method, as in :class:`InvalidateRequest`.
    """

    methods: Tuple[str, ...]
    epochs: Tuple[int, ...] = ()
    fingerprint: Optional[int] = None
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class MethodEntriesRequest:
    """Fetch every resident entry of the named methods — or of the
    whole store when ``methods`` is null.  The prefetch op: one round
    trip per shard warms a client's local tier for a whole batch.

    ``fingerprint`` (protocol 1.4) lets the server skip methods whose
    recorded program fingerprint disagrees with the requester's, so a
    prefetch never imports another program's same-named summaries.
    The response carries each entry's method epoch; the client adopts
    only entries whose epoch matches its own view.

    ``incarnation``/``since`` (protocol 1.7) are the cursor of an
    earlier answer from the same shard.  When the shard's store still
    runs under that incarnation, only entries stored or replaced after
    ``since`` come back; otherwise (null incarnation, a restarted
    shard) the answer is the full dump.  A cursor is only meaningful
    for the ``methods``/``fingerprint`` filter it was issued under.
    A request without a cursor carries neither field, so a 1.6 shard
    still answers it (with a full dump and no incarnation).
    """

    methods: Optional[Tuple[str, ...]] = None
    fingerprint: Optional[int] = None
    incarnation: Optional[int] = omitted_unless_set(None)
    since: int = omitted_unless_set(0)
    protocol_version: str = PROTOCOL_VERSION


# ----------------------------------------------------------------------
# responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WireObject:
    """One abstract object in a points-to answer.

    ``id`` is the allocation's stable label (``Program.finalize`` assigns
    them deterministically, so ids survive process restarts);
    ``contexts`` are the heap contexts under which the object was
    reached, each bottom-to-top.
    """

    id: str
    class_name: str
    contexts: Tuple[Tuple[int, ...], ...] = ()


@dataclass(frozen=True)
class WireVerdict:
    """A client's conclusion for one query, in wire form."""

    client: str
    status: str  # safe | violation | unknown
    offenders: Tuple[str, ...] = ()


@dataclass(frozen=True)
class QueryResponse:
    """Answer to one :class:`QueryRequest`.

    ``objects`` are sorted by id; ``complete`` is False when the query
    was cut off (budget/field-depth) and the set is a sound partial
    answer.
    """

    objects: Tuple[WireObject, ...]
    complete: bool
    steps: int
    verdict: Optional[WireVerdict] = None
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class BatchResponse:
    """Answers to a :class:`BatchRequest`, aligned with request order,
    plus the batch's Figure-4/5 accounting."""

    results: Tuple[QueryResponse, ...]
    stats: BatchStats
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class AliasResponse:
    """Answer to an :class:`AliasRequest`; ``verdict`` is true/false/null
    (null = some query was cut off and no witness appeared)."""

    verdict: Optional[bool]
    witnesses: Tuple[str, ...]
    steps: int
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class InvalidateResponse:
    """How many cached summaries an :class:`InvalidateRequest` dropped."""

    method: str
    dropped: int
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class BatchLookupResponse:
    """Aligned answers to a :class:`BatchLookupRequest`: one snapshot
    entry or null per requested key, in request order."""

    entries: Tuple[Any, ...]
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class BatchStoreResponse:
    """Aligned ``stored`` flags for a :class:`BatchStoreRequest` (the
    per-entry :class:`StoreResponse` rule).

    ``stale`` (protocol 1.4), when non-empty, aligns a flag with each
    entry: ``True`` marks a write-through the server rejected because
    its epoch lagged the method's — such an entry is never ``stored``.
    Empty means no element was rejected (and is what a 1.3 server
    sends).
    """

    stored: Tuple[bool, ...]
    stale: Tuple[bool, ...] = ()
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class BatchInvalidateResponse:
    """Aligned drop counts for a :class:`BatchInvalidateRequest`."""

    dropped: Tuple[int, ...]
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class SummaryFrame:
    """Summary entries, dictionary-coded (protocol 1.10).

    ``nodes`` holds node references as
    :func:`~repro.api.snapshot.node_to_wire` writes them, each distinct
    one once.  ``stacks`` is a trie of field stacks: row ``i`` is
    ``[parent, field, family]``, the stack ``parent`` names with the
    token ``(field, family)`` pushed on top.  Stack ``0`` is the empty
    stack and has no row; stack ``k >= 1`` is row ``k - 1``.  A row's
    ``parent`` is at most ``i`` (the empty stack or an earlier row), so
    one pass resolves the table; ``family`` is the integer 0 or 1.

    The row values are one run of integers per entry: ``node, stack,
    state, steps, n_objects, object..., n_boundaries, (node, stack,
    state)...``, where ``node``/``object`` index ``nodes`` and
    ``stack`` names a stack of ``stacks``.  They travel in ``packed``,
    one base64 string (standard alphabet, padded): a width byte of 2,
    4 or 8, then each value as a little-endian signed integer of that
    many bytes.  The width is the smallest that holds every value.
    ``rows`` is always empty; it stays on the wire because every 1.10
    decoder requires the field.
    :func:`~repro.api.snapshot.pack_frame` builds a frame and
    :func:`~repro.api.snapshot.resolve_frame` validates and resolves
    it.
    """

    nodes: Tuple[Any, ...]
    stacks: Tuple[Any, ...]
    rows: Tuple[int, ...]
    packed: Optional[str] = omitted_unless_set(None)


@dataclass(frozen=True)
class MethodEntriesResponse:
    """Answer to a :class:`MethodEntriesRequest`: every matching
    resident entry, coldest-first (replaying ``store`` preserves the
    shard's recency order, the snapshot convention).

    ``epochs`` (protocol 1.4), when non-empty, aligns each entry's
    method epoch at the server; clients adopt an entry only when that
    epoch equals their own view of the method, so a prefetch can never
    smuggle a stale summary past the consistency guard.

    ``incarnation``/``cursor`` (protocol 1.7) name the answering
    store's process incarnation and its newest sequence stamp at the
    time of the scan; a client presents them as ``incarnation``/
    ``since`` next time to receive only what is new.  A delta answer
    lists its entries oldest-stamp-first.  Null ``incarnation`` means
    the sender keeps no cursor (a 1.6 shard, or
    :class:`~repro.api.service.PointsToService`): every fetch is a
    full dump.

    ``frame`` (protocol 1.10) carries the entries dictionary-coded; a
    shard sends one exactly when the request's ``protocol_version`` is
    :data:`FRAME_VERSION` or later and there are entries to send, and
    nominal ``entries`` to an older requester.  A framed answer has
    empty ``entries``, its ``epochs`` align with the frame's entries,
    and the frame keeps the order the entries would have had.  Left
    out unless set, so an answer without a frame has a 1.7 answer's
    bytes but for its ``protocol_version``.  A client of this build
    reads entries only from a frame under a label of
    :data:`FRAME_VERSION` or later.
    """

    entries: Tuple[Any, ...]
    epochs: Tuple[int, ...] = ()
    incarnation: Optional[int] = None
    cursor: int = 0
    frame: Optional[SummaryFrame] = omitted_unless_set(None)
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class StaleEpochResponse:
    """A write-through the server refused because the client's epoch
    for ``method`` (``sent``) lags the server's (``current``): the
    entry was computed against a program version that has since been
    invalidated.  The sound reaction is to keep serving the local
    result and stop publishing the method until the client itself
    observes the edit.  Protocol 1.4."""

    method: str
    sent: int
    current: int
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class RemoteStoreStats:
    """Accounting of one client's remote summary-store traffic.

    Exposed so ``repro-serve`` clients can observe **cache provenance**:
    how many remote attempts degraded to the fallback path without an
    answer — transport failures/timeouts and undecodable answers
    (``remote_errors``) and served entries that no longer resolve in
    this client's PAG (``unresolved``).
    ``stores``/``store_errors``/``invalidations``/``invalidation_errors``
    count the write-side traffic the same way.  ``remote_hits`` and
    ``remote_misses`` counted per-key ``lookup`` answers; this build's
    client sends no ``lookup`` (it reads the shards only through
    prefetches), so they read 0 and stay for peers that read them.

    ``round_trips`` (protocol 1.2) counts wire exchanges — one per
    request/response flight, however many ops the line carried — so the
    win of batched ops and prefetching is directly observable: every
    query, alias check and batch costs O(shards) round trips.
    ``prefetched`` counts entries that arrived via ``fetch-methods``
    prefetches and were adopted into the local tier.

    Protocol 1.4 adds the consistency-epoch counters:
    ``epoch_rejections`` flushed summaries a server refused as stale
    (proof the guard fired), ``reconnects`` re-established shard links
    after a drop, and ``seeded_entries`` summaries replayed into a
    freshly reconnected (possibly blank-restarted) shard by the
    reconnect-and-seed snapshot.

    Protocol 1.6 adds the failure-semantics rows: ``faults`` counts
    transport faults injected by the client's deterministic
    :class:`~repro.cacheserver.faults.FaultSchedule` (zero in
    production — a nonzero value proves a chaos schedule actually
    fired); ``degraded`` counts fall-open decisions, i.e. every time
    the client answered from local computation because a service path
    failed (transport error, undecodable response, unresolvable entry,
    fingerprint-less operation); ``breaker_state`` is each shard
    link's circuit-breaker state (``closed``/``open``/``half-open``),
    shard-ordered.

    Protocol 1.8 adds ``prefetch_bytes``: the size of the
    ``fetch-methods-result`` lines the client decoded, so the cost of
    a prefetch per ``prefetched`` entry is observable.
    """

    shards: int
    remote_hits: int = 0
    remote_misses: int = 0
    remote_errors: int = 0
    unresolved: int = 0
    stores: int = 0
    store_errors: int = 0
    invalidations: int = 0
    invalidation_errors: int = 0
    round_trips: int = 0
    prefetched: int = 0
    epoch_rejections: int = 0
    reconnects: int = 0
    seeded_entries: int = 0
    faults: int = 0
    degraded: int = 0
    breaker_state: Tuple[str, ...] = ()
    prefetch_bytes: int = 0
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class StatsResponse:
    """The engine's lifetime accounting (mirrors
    :class:`~repro.engine.core.EngineStats`); ``cache`` is the summary
    store's :class:`~repro.analysis.summaries.CacheStats` or null for
    cache-less analyses.

    ``warm_loaded``/``warm_skipped`` report snapshot warm-start
    provenance; ``remote`` is the client-side shared-cache accounting
    (:class:`RemoteStoreStats`) or null when the engine's store is
    purely local.

    Protocol 1.5 adds ``traversal_impl`` — which PPTA traversal
    implementation the engine's queries run under
    (``array``/``native``/``reference``; peers before 1.5 ran
    ``fast``, the default when the field is absent) — and
    ``native_unavailable``: when the selection is ``native`` but the
    compiled kernel cannot serve, the reason (the engine silently
    degrades to the pure-Python ``array`` impl with identical answers);
    null when the kernel is live or the selection is not ``native``.
    """

    analysis: str
    queries: int
    executed: int
    batches: int
    deduped: int
    steps: int
    incomplete: int
    edits: int
    cache: Optional[CacheStats] = None
    warm_loaded: int = 0
    warm_skipped: int = 0
    remote: Optional[RemoteStoreStats] = None
    traversal_impl: str = "fast"
    native_unavailable: Optional[str] = None
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class LookupResponse:
    """Answer to a :class:`LookupRequest`: ``entry`` is the full snapshot
    entry when ``found``, null otherwise."""

    found: bool
    entry: Any = None
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class StoreResponse:
    """Whether a :class:`StoreRequest` changed the store's contents:
    ``True`` for a new key or for a differing summary replacing the
    resident one (the self-heal rule for invalidations a store missed),
    ``False`` when an equal summary was already resident — equal
    re-stores only refresh recency, exactly like the in-process
    contract."""

    stored: bool
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class StoreStatsResponse:
    """One summary store's accounting, with its place in the partition
    (``shard`` of ``shards``; ``0 of 1`` for an unsharded store)."""

    shard: int
    shards: int
    stats: CacheStats
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class ErrorResponse:
    """The one failure shape: a machine-readable ``code`` plus detail.

    Codes: ``malformed-json``, ``invalid-request``,
    ``unsupported-version``, ``unknown-kind``, ``unknown-node``,
    ``unknown-client``, ``snapshot-invalid``, ``internal-error``,
    ``wrong-shard`` (a store-level op routed to a shard server that does
    not own the key's method).
    """

    code: str
    message: str
    protocol_version: str = PROTOCOL_VERSION


#: kind discriminator <-> dataclass, for each direction of traffic.
REQUEST_KINDS = {
    "query": QueryRequest,
    "batch": BatchRequest,
    "alias": AliasRequest,
    "invalidate": InvalidateRequest,
    "stats": StatsRequest,
    "lookup": LookupRequest,
    "store": StoreRequest,
    "store-stats": StoreStatsRequest,
    "batch-lookup": BatchLookupRequest,
    "batch-store": BatchStoreRequest,
    "batch-invalidate": BatchInvalidateRequest,
    "fetch-methods": MethodEntriesRequest,
}

RESPONSE_KINDS = {
    "query-result": QueryResponse,
    "batch-result": BatchResponse,
    "alias-result": AliasResponse,
    "invalidated": InvalidateResponse,
    "stats-result": StatsResponse,
    "lookup-result": LookupResponse,
    "stored": StoreResponse,
    "store-stats-result": StoreStatsResponse,
    "batch-lookup-result": BatchLookupResponse,
    "batch-stored": BatchStoreResponse,
    "batch-invalidated": BatchInvalidateResponse,
    "fetch-methods-result": MethodEntriesResponse,
    "stale-epoch": StaleEpochResponse,
    "error": ErrorResponse,
}

#: Reverse map used by the encoder (requests and responses share it).
KIND_OF = {cls: kind for kind, cls in {**REQUEST_KINDS, **RESPONSE_KINDS}.items()}
