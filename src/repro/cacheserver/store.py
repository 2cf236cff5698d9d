"""The shard server's store: summaries in wire form, no PAG required.

A shard server must outlive any single client and serve clients whose
engines were built independently, so it cannot hold interned PAG node
objects — it keeps entries exactly as they travel: validated
:mod:`repro.api.snapshot` entry dicts, keyed by the canonical JSON of
their context-free key.  Resolution back to nodes happens client-side
(:func:`repro.api.snapshot.resolve_wire_entry`), where a PAG exists.

The entries live in the engine's own LRU store, a
:class:`~repro.analysis.summaries.BoundedSummaryCache`, keyed by an
interned per-method key node plus the canonical key, each behind a
small adapter that reads as a summary.  So
probe counting, the re-store rule, recency, eviction, method-indexed
invalidation, per-method epochs and the
:class:`~repro.analysis.summaries.CacheStats` a shard reports are the
engine's code and mean what they mean locally.  This layer adds only
the wire's state: the lock, program fingerprints, refused stale
write-throughs, and the prefetch cursor's sequence stamps.

Every inserted or payload-replaced entry is stamped with a sequence
number, monotonic under the store's random ``incarnation``; that pair
is the cursor an incremental prefetch (protocol 1.7) resumes from.

The store keeps one shared copy of each distinct node reference and
field stack its residents hold: an entry's references are swapped for
the shared copies before it becomes visible, and never mutated after.
So a framed prefetch answer (protocol 1.10,
:func:`~repro.api.snapshot.pack_frame`) finds each distinct reference
by identity, walks each distinct field stack into its trie once, and
the shard holds each reference once.

The store's :attr:`~WireSummaryStore.version` advances, under the lock,
with every operation that can change a full dump's bytes, so a server
can keep the line it encoded for the last full dump and send it again
while the version stands (see
:class:`~repro.cacheserver.server.ShardDispatcher`).
"""

import json
import os
import threading

from repro.analysis.summaries import BoundedSummaryCache
from repro.api.snapshot import ref_key


def canonical_key(key):
    """The canonical JSON of a wire store key — the dictionary key one
    summary has on every shard server, whatever client produced it."""
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


def entry_key(entry):
    """The canonical key of a full wire entry."""
    return canonical_key(
        {"node": entry["node"], "stack": entry["stack"], "state": entry["state"]}
    )


def entry_method(entry_or_key):
    """The method a wire entry/key belongs to (``None`` for globals) —
    the partition and invalidation granularity."""
    return entry_or_key["node"].get("method")


def _draw_incarnation():
    """A fresh random store incarnation: 48 bits, so a restarted
    process cannot plausibly reuse its predecessor's and the value
    stays exact as a JSON number everywhere.  (``os.urandom``, not
    ``secrets``: that import loads OpenSSL, megabytes per shard.)"""
    return int.from_bytes(os.urandom(6), "big")


#: How far the shared-copy table may exceed twice the distinct
#: references of the residents (see
#: :meth:`WireSummaryStore._check_shared_locked`).
SHARED_SLACK = 64


def _refs(entry):
    """Every node reference and field stack of a wire entry."""
    yield entry["node"]
    yield entry["stack"]
    yield from entry["objects"]
    for boundary in entry["boundaries"]:
        yield boundary["node"]
        yield boundary["stack"]


class _KeyNode:
    """A wire key's node as the inner store sees it: all a local store
    reads of a key node is its ``method`` (the invalidation index), and
    one interned instance per method keeps the key's hash an identity
    hash."""

    __slots__ = ("method",)

    def __init__(self, method):
        self.method = method


class _KeyNodes(dict):
    """``method -> _KeyNode``, interned on first use."""

    def __missing__(self, method):
        node = self[method] = _KeyNode(method)
        return node


class _Resident:
    """A wire entry as the inner store sees a summary: ``objects``,
    ``boundaries`` and ``size`` are the entry's, and ``steps`` writes
    through to the entry dict, so the larger count an equal-payload
    re-store keeps is the one later fetches serve."""

    __slots__ = ("entry", "objects", "boundaries", "size")

    def __init__(self, entry):
        self.entry = entry
        self.objects = entry["objects"]
        self.boundaries = entry["boundaries"]
        self.size = len(self.objects) + len(self.boundaries)

    @property
    def steps(self):
        return self.entry.get("steps", 0)

    @steps.setter
    def steps(self, steps):
        self.entry["steps"] = steps


class StaleEpochRejection(Exception):
    """A write-through refused because the client's consistency epoch
    for the entry's method lags the store's: the summary was computed
    against a program version an invalidation has since retired.  The
    server layer turns this into the typed ``stale-epoch`` response."""

    def __init__(self, method, sent, current):
        self.method = method
        self.sent = sent
        self.current = current
        super().__init__(
            f"stale write-through for {method!r}: client epoch {sent} "
            f"behind store epoch {current}"
        )


class WireSummaryStore:
    """A method-indexed, optionally bounded store of wire-form entries.

    Thread-safe: one lock guards every operation (a shard server runs
    one connection handler per client).  Capacity is the inner store's
    — the least-recently-used entry is the victim, and one pathological
    oversized entry is always admitted rather than thrashed.  An
    unbounded shard still runs on the recency-ordered LRU class, so a
    full dump is coldest-first.
    """

    def __init__(self, max_entries=None, max_facts=None):
        self._lock = threading.RLock()
        self._store = BoundedSummaryCache(  # guarded-by: _lock
            max_entries=max_entries, max_facts=max_facts
        )
        self._nodes = _KeyNodes()  # guarded-by: _lock
        # Consistency epochs (protocol 1.4) are the inner store's
        # per-method epochs; this maps method -> the program fingerprint
        # that pinned its current epoch (see `_sync_method_locked`).
        self._fprints = {}  # guarded-by: _lock
        #: Write-throughs refused as stale (the guard firing).
        self.stale_rejections = 0  # guarded-by: _lock
        # Incremental prefetch (protocol 1.7): the sequence stamp of
        # every key stored since, in ascending stamp order (a plain
        # dict: a restamp re-inserts at the end), so a delta scan walks
        # back from the newest stamp and stops at the cursor.  Keys the
        # inner store evicts or invalidates keep their stamp until
        # `_prune_seqs_locked` drops it; a scan skips them.
        self.incarnation = _draw_incarnation()  # guarded-by: _lock
        self._seq = 0  # guarded-by: _lock
        self._seqs = {}  # guarded-by: _lock — inner key -> stamp
        # The shared copies (`_share_locked`): `ref_key` -> reference.
        # `_released` bounds the references that left residency since
        # the table was last rebuilt (see `_check_shared_locked`).
        self._shared = {}  # guarded-by: _lock
        self._released = 0  # guarded-by: _lock
        #: Advanced by every operation that can change a full dump's
        #: bytes: its entries, their order or ``steps``, their epochs,
        #: the fingerprint filter, the incarnation or the cursor.  A
        #: plain miss leaves it.  Read lock-free; equal versions mean
        #: equal full dumps.
        self.version = 0  # guarded-by: _lock

    # The inner store's capacity policy and counters, read-only.
    max_entries = property(lambda self: self._store.max_entries)
    max_facts = property(lambda self: self._store.max_facts)
    hits = property(lambda self: self._store.hits)
    misses = property(lambda self: self._store.misses)
    evictions = property(lambda self: self._store.evictions)
    invalidated = property(lambda self: self._store.invalidated)

    # ------------------------------------------------------------------
    # the cache contract, keyed by canonical wire keys
    # ------------------------------------------------------------------
    def _sync_method_locked(self, method, epoch, fingerprint):
        """Reconcile one op's ``(epoch, fingerprint)`` with the store's
        view of ``method``; returns whether the op may proceed.

        * client **ahead** — the client observed an invalidation this
          shard missed (or the shard restarted blank): drop the
          method's residue, adopt the client's epoch and fingerprint,
          proceed.  This is the self-heal rule, now exact instead of
          per-entry best-effort.
        * client **behind** — refuse: a lookup is answered with a miss
          (sound — the client recomputes locally), a store raises
          :class:`StaleEpochRejection`.
        * **equal** epochs — the fingerprint arbitrates: the first
          client to present one pins the method's program version, and
          a differing fingerprint at the same epoch is a different
          program, refused the same way (two programs may never trade
          same-named summaries).  Fingerprint-less (pre-1.4) traffic
          always passes this half of the check.
        """
        current = self._store.method_epoch(method)
        if epoch > current:
            self._invalidate_locked(method, epoch)
            if fingerprint is not None:
                self._fprints[method] = fingerprint
            return True
        if epoch < current:
            return False
        if fingerprint is not None:
            recorded = self._fprints.get(method)
            if recorded is None:
                self._fprints[method] = fingerprint
                self.version += 1  # the fingerprint filter changed
            elif recorded != fingerprint:
                return False
        return True

    def method_epoch(self, method_qname):
        """The store's current consistency epoch for one method."""
        with self._lock:
            return self._store.method_epoch(method_qname)

    def lookup(self, key, epoch=0, fingerprint=None):
        """The resident entry for wire key ``key``, or ``None``.

        A key whose method the store knows at a *newer* epoch is a
        miss (never a stale entry); a key presented at a newer epoch
        than the store's drops the method's residue first.
        """
        with self._lock:
            return self._lookup_locked(key, epoch, fingerprint)

    def _lookup_locked(self, key, epoch, fingerprint):
        method = entry_method(key)
        if not self._sync_method_locked(method, epoch, fingerprint):
            self._store.misses += 1
            return None
        resident = self._store.lookup(self._nodes[method], canonical_key(key), None)
        if resident is None:
            return None
        self.version += 1  # a hit refreshes recency
        return resident.entry

    def store(self, entry, epoch=0, fingerprint=None):
        """Insert a *validated* wire entry.

        A resident entry with an **equal** payload (objects and
        boundaries) only gets its recency refreshed and keeps the
        larger ``steps`` (returns False — the in-process re-store
        rule): ``steps`` is cost metadata, so a steps-only difference
        never fakes an edit.  A resident entry with a *different*
        payload is **replaced** (returns True): summaries are pure
        memos, so two honest clients can only disagree across a program
        edit — and then the publish is fresher than whatever
        invalidation this shard may have missed.  This is what lets an
        edited client's write-through self-heal a shard that was
        unreachable during the invalidate.

        With epochs on the wire (protocol 1.4) the rule is exact: a
        write-through whose epoch *lags* the method's raises
        :class:`StaleEpochRejection` instead of being arbitrated by
        payload comparison.
        """
        method = entry_method(entry)
        with self._lock:
            if not self._sync_method_locked(method, epoch, fingerprint):
                self.stale_rejections += 1
                raise StaleEpochRejection(
                    method, epoch, self._store.method_epoch(method)
                )
            return self._store_locked(entry)

    def _store_locked(self, entry):
        # Even an equal-payload re-store refreshes recency and may raise
        # the resident's ``steps``.
        self.version += 1
        key = (self._nodes[entry_method(entry)], entry_key(entry), None)
        before = self._resident_refs_locked()
        resident = _Resident(entry)
        if not self._store.store(*key, resident):
            return False
        self._share_locked(entry)
        # What the residents' bound lost beyond the entry it gained left
        # residency: a replaced or an evicted entry.
        self._released += (
            before + 2 * (1 + resident.size) - self._resident_refs_locked()
        )
        self._check_shared_locked()
        self._seq += 1
        self._seqs.pop(key, None)
        self._seqs[key] = self._seq
        self._prune_seqs_locked()
        return True

    def _share_locked(self, entry):
        """Swap a just-stored entry's node references and field stacks
        for the store's shared copies, registering the new ones.  Runs
        under the lock that published the entry, so no reader sees the
        swap, and a shared reference is never mutated afterwards (a
        re-store only changes the entry's ``steps``)."""
        shared = self._shared

        def share(ref):
            key = ref_key(ref)
            return ref if key is None else shared.setdefault(key, ref)

        entry["node"] = share(entry["node"])
        entry["stack"] = share(entry["stack"])
        entry["objects"][:] = map(share, entry["objects"])
        for boundary in entry["boundaries"]:
            boundary["node"] = share(boundary["node"])
            boundary["stack"] = share(boundary["stack"])

    def _resident_refs_locked(self):
        """An upper bound on the references the residents hold: two per
        entry and per fact (a key is a node and a stack, an object one
        node, a boundary a node and a stack)."""
        return 2 * (len(self._store) + self._store.total_facts())

    def _check_shared_locked(self):
        """Rebuild the shared copies from the residents once the
        references released since the last rebuild could be half the
        table.  Each copy was held by a resident when it entered the
        table, and a released reference frees at most one copy, so the
        table never holds more than twice the residents' distinct
        references plus :data:`SHARED_SLACK`.  A table that only grows
        holds live copies only and is never rebuilt; otherwise a
        rebuild, one walk over the residents, needs half a table of
        releases first."""
        if 2 * self._released <= len(self._shared) + SHARED_SLACK:
            return
        shared = {}
        for resident in self._store._entries.values():
            for ref in _refs(resident.entry):
                key = ref_key(ref)
                if key is not None:
                    shared[key] = ref
        self._shared = shared
        self._released = 0

    def _prune_seqs_locked(self):
        """Drop the stamps of keys the inner store no longer holds, once
        they could outnumber its residents."""
        store = self._store
        if len(self._seqs) > 2 * len(store) + 64:
            self._seqs = {key: seq for key, seq in self._seqs.items() if key in store}

    def invalidate_method(self, method_qname, epoch=0):
        """Drop every entry of one method; returns the number dropped.

        The method's epoch advances to ``max(current + 1, epoch)`` —
        so even an epoch-less (pre-1.4) invalidate retires the version,
        and an epoch-carrying one lands the store exactly on the
        client's post-edit epoch.  The recorded fingerprint is cleared:
        the post-edit program is a version this store has not seen yet,
        and the first write-through at the new epoch will pin it.
        """
        with self._lock:
            return self._invalidate_locked(method_qname, epoch)

    def _invalidate_locked(self, method_qname, epoch=0):
        # The epoch moves even when nothing of the method is resident.
        self.version += 1
        before = self._resident_refs_locked()
        dropped = self._store.invalidate_method(method_qname)
        self._released += before - self._resident_refs_locked()
        self._check_shared_locked()
        self._store.adopt_epochs({method_qname: epoch})
        self._fprints.pop(method_qname, None)
        self._prune_seqs_locked()
        return dropped

    # ------------------------------------------------------------------
    # batched ops (protocol 1.2) — each runs under ONE lock acquisition,
    # which is the whole point: a pipelined client pays one round trip
    # and the server pays one lock round trip, however many ops arrived.
    # ------------------------------------------------------------------
    @staticmethod
    def _epoch_at(epochs, index):
        """The epoch aligned with batch element ``index`` (0 when the
        batch carried no epochs — the pre-1.4 wire form)."""
        return epochs[index] if index < len(epochs) else 0

    def lookup_many(self, keys, epochs=(), fingerprint=None):
        """Aligned entries (or ``None``) for many wire keys at once."""
        with self._lock:
            return [
                self._lookup_locked(key, self._epoch_at(epochs, i), fingerprint)
                for i, key in enumerate(keys)
            ]

    def store_many(self, entries, epochs=(), fingerprint=None):
        """Insert many validated wire entries in one lock acquisition;
        returns aligned ``(stored, stale)`` flag lists — a stale
        element is refused individually (never stored) instead of
        failing the whole flush."""
        with self._lock:
            stored, stale = [], []
            for i, entry in enumerate(entries):
                if not self._sync_method_locked(
                    entry_method(entry), self._epoch_at(epochs, i), fingerprint
                ):
                    self.stale_rejections += 1
                    stored.append(False)
                    stale.append(True)
                else:
                    stored.append(self._store_locked(entry))
                    stale.append(False)
            return stored, stale

    def invalidate_many(self, methods, epochs=()):
        """Drop many methods' entries; aligned per-method drop counts."""
        with self._lock:
            return [
                self._invalidate_locked(method, self._epoch_at(epochs, i))
                for i, method in enumerate(methods)
            ]

    def entries_for_methods(self, methods=None):
        """Every resident entry of ``methods`` (all methods when
        ``None``), coldest-first so a client replaying them through
        ``store`` reconstructs this shard's recency order."""
        return self.entries_with_epochs(methods)[0]

    def entries_with_epochs(self, methods=None, fingerprint=None):
        """:meth:`entries_for_methods` plus each entry's method epoch,
        as aligned ``(entries, epochs)`` lists — what the 1.4 prefetch
        serves, so a client can refuse entries whose epoch disagrees
        with its own view.  When the requester presents a
        ``fingerprint``, methods pinned to a *different* fingerprint
        are omitted entirely (a prefetch must never import another
        program's same-named summaries)."""
        return self.fetch(methods, fingerprint)[:2]

    def fetch(self, methods=None, fingerprint=None, incarnation=None, since=0):
        """The ``fetch-methods`` answer: ``(entries, epochs,
        incarnation, cursor, version)``.

        When ``incarnation`` names this store's current incarnation and
        ``since`` is a cursor it issued, only entries stamped after
        ``since`` are returned, oldest stamp first; otherwise the full
        :meth:`entries_with_epochs` dump, coldest-first.  Either way
        the filters of :meth:`entries_with_epochs` apply, and
        ``cursor`` is the newest stamp issued so far.  ``version`` is
        the :attr:`version` a full dump was scanned at (``None`` for a
        delta).  Both are read in the same lock hold as the scan: an
        entry stored in between would otherwise be skipped by every
        later delta, or its dump kept under a later version.
        """
        with self._lock:
            store = self._store
            delta = incarnation == self.incarnation and 0 <= since <= self._seq
            if delta:
                resident = store._entries
                fresh = []
                for key, seq in reversed(self._seqs.items()):
                    if seq <= since:
                        break
                    if key in resident:  # else evicted or invalidated since
                        fresh.append((key, resident[key]))
                fresh.reverse()
                candidates = fresh
            else:
                candidates = store.entries()
            wanted = None if methods is None else set(methods)
            entries, epochs = [], []
            for (node, _ckey, _state), value in candidates:
                method = node.method
                if wanted is not None and method not in wanted:
                    continue
                if fingerprint is not None:
                    recorded = self._fprints.get(method)
                    if recorded is not None and recorded != fingerprint:
                        continue
                entries.append(value.entry)
                epochs.append(store.method_epoch(method))
            version = None if delta else self.version
            return entries, epochs, self.incarnation, self._seq, version

    def clear(self):
        # Epochs and fingerprints survive a clear: they version the
        # *program*, not the resident entries.  So do the incarnation
        # and the sequence counter: every later store still gets a
        # stamp above any cursor already handed out.
        with self._lock:
            self.version += 1
            self._store.clear()
            self._seqs.clear()
            self._shared = {}
            self._released = 0
            self.stale_rejections = 0

    def restart_blank(self):
        """Forget *everything*, epochs and fingerprints included — the
        observable state of a freshly restarted shard process.  This is
        the ``blank-restart`` fault-injection primitive: unlike
        :meth:`clear` it resets the program version too, so clients
        ahead of the blank store self-heal it on first contact (the
        adopt-and-drop epoch rule), exactly as they would a respawned
        child.  A respawned process also draws a new incarnation, so
        every client's next prefetch is a full dump."""
        with self._lock:
            self.version += 1
            store = self._store
            self._store = type(store)(
                max_entries=store.max_entries, max_facts=store.max_facts
            )
            self._seqs.clear()
            self._fprints.clear()
            self._shared = {}
            self._released = 0
            self.stale_rejections = 0
            self.incarnation = _draw_incarnation()
            self._seq = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self):
        with self._lock:
            return len(self._store)

    def __contains__(self, key):
        with self._lock:
            return (
                self._nodes[entry_method(key)], canonical_key(key), None
            ) in self._store

    def total_facts(self):
        with self._lock:
            return self._store.total_facts()

    def approx_bytes(self):
        with self._lock:
            return self._store.approx_bytes()

    def stats_snapshot(self):
        with self._lock:
            return self._store.stats_snapshot()

    def __repr__(self):
        return (
            f"WireSummaryStore({len(self)} entries, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )
