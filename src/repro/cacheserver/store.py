"""The shard server's store: summaries in wire form, no PAG required.

A shard server must outlive any single client and serve clients whose
engines were built independently, so it cannot hold interned PAG node
objects — it keeps entries exactly as they travel: validated
:mod:`repro.api.snapshot` entry dicts, keyed by the canonical JSON of
their context-free key.  Resolution back to nodes happens client-side
(:func:`repro.api.snapshot.resolve_wire_entry`), where a PAG exists.

Semantics mirror the in-process :class:`~repro.analysis.summaries
.SummaryStore` contract — probe counting, method-indexed invalidation,
optional entry/fact ceilings with LRU or cost-aware eviction — so the
accounting a shard reports (:class:`~repro.analysis.summaries
.CacheStats`) means the same thing it means locally.

Every inserted or payload-replaced entry is stamped with a sequence
number, monotonic under the store's random ``incarnation``; that pair
is the cursor an incremental prefetch (protocol 1.7) resumes from.
"""

import heapq
import json
import os
import threading
from collections import OrderedDict

from repro.analysis.summaries import (
    ENTRY_OVERHEAD_BYTES,
    FACT_BYTES,
    CacheStats,
    check_eviction,
)


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


def _entry_facts(entry):
    return len(entry["objects"]) + len(entry["boundaries"])


def _entry_score(entry, facts):
    """Steps-to-recompute per byte — the cost-aware eviction rank (the
    wire-form twin of :func:`repro.analysis.summaries.entry_cost_score`)."""
    return entry.get("steps", 0) / (ENTRY_OVERHEAD_BYTES + facts * FACT_BYTES)


def _draw_incarnation():
    """A fresh random store incarnation: 48 bits, so a restarted
    process cannot plausibly reuse its predecessor's and the value
    stays exact as a JSON number everywhere.  (``os.urandom``, not
    ``secrets``: that import loads OpenSSL, megabytes per shard.)"""
    return int.from_bytes(os.urandom(6), "big")


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
    one connection handler per client).  Capacity follows the local
    stores' rules — least-recently-used victim by default,
    lowest-cost-per-byte under ``eviction="cost"``, and one pathological
    oversized entry is always admitted rather than thrashed.
    """

    def __init__(self, max_entries=None, max_facts=None, eviction="lru"):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_facts is not None and max_facts < 1:
            raise ValueError(f"max_facts must be >= 1, got {max_facts}")
        self.eviction = check_eviction(eviction)
        if eviction == "cost" and max_entries is None and max_facts is None:
            raise ValueError(
                "eviction='cost' needs a capacity ceiling (max_entries "
                "and/or max_facts); an unbounded store never evicts, so "
                "the policy would be silently inert"
            )
        self.max_entries = max_entries
        self.max_facts = max_facts
        self._lock = threading.RLock()
        self._entries = OrderedDict()  # guarded-by: _lock — key -> entry
        self._by_method = {}  # guarded-by: _lock
        self._facts = 0  # guarded-by: _lock
        # Consistency epochs (protocol 1.4): method -> the newest epoch
        # any client has presented, and the program fingerprint that
        # defined it.  Entries are only served/accepted at the current
        # epoch; see `_sync_method_locked` for the full rule.
        self._epochs = {}  # guarded-by: _lock
        self._fprints = {}  # guarded-by: _lock
        #: Write-throughs refused as stale (the guard firing).
        self.stale_rejections = 0  # guarded-by: _lock
        # Greedy-Dual state (eviction="cost"): see
        # CostAwareSummaryCache — same rule, wire-form entries, and the
        # same heap-backed victim index with lazy invalidation (rank is
        # authoritative; stale heap records are skipped on pop).
        self._clock = 0.0  # guarded-by: _lock
        self._rank = {}  # guarded-by: _lock
        self._heap = []  # guarded-by: _lock
        self._stamp = 0  # guarded-by: _lock
        # Incremental prefetch (protocol 1.7): each resident key's
        # sequence stamp, in ascending stamp order (a plain dict: a
        # restamp re-inserts at the end), so a delta scan walks back
        # from the newest stamp and stops at the cursor.
        self.incarnation = _draw_incarnation()  # guarded-by: _lock
        self._seq = 0  # guarded-by: _lock
        self._seqs = {}  # guarded-by: _lock — key -> stamp
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock
        self.invalidated = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    # the cache contract, keyed by canonical wire keys
    # ------------------------------------------------------------------
    def _refresh_locked(self, ckey, entry):
        """Recency + Greedy-Dual priority refresh for one resident key."""
        self._entries.move_to_end(ckey)
        if self.eviction == "cost":
            self._stamp += 1
            record = (
                self._clock + _entry_score(entry, _entry_facts(entry)),
                self._stamp,
                ckey,
            )
            self._rank[ckey] = record
            heapq.heappush(self._heap, record)
            # Compact here too, not only on eviction: hit-dominated
            # traffic pushes a record per refresh and would otherwise
            # grow the heap without bound.
            if len(self._heap) > 2 * len(self._rank) + 64:
                self._heap = sorted(self._rank.values())

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
        se = self._epochs.get(method, 0)
        if epoch > se:
            self._drop_method_locked(method)
            self._epochs[method] = epoch
            if fingerprint is None:
                self._fprints.pop(method, None)
            else:
                self._fprints[method] = fingerprint
            return True
        if epoch < se:
            return False
        if fingerprint is not None:
            recorded = self._fprints.get(method)
            if recorded is None:
                self._fprints[method] = fingerprint
            elif recorded != fingerprint:
                return False
        return True

    def method_epoch(self, method_qname):
        """The store's current consistency epoch for one method."""
        with self._lock:
            return self._epochs.get(method_qname, 0)

    def lookup(self, key, epoch=0, fingerprint=None):
        """The resident entry for wire key ``key``, or ``None``.

        A key whose method the store knows at a *newer* epoch is a
        miss (never a stale entry); a key presented at a newer epoch
        than the store's drops the method's residue first.
        """
        ckey = canonical_key(key)
        with self._lock:
            if not self._sync_method_locked(entry_method(key), epoch, fingerprint):
                self.misses += 1
                return None
            entry = self._entries.get(ckey)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
                self._refresh_locked(ckey, entry)
            return entry

    def store(self, entry, epoch=0, fingerprint=None):
        """Insert a *validated* wire entry.

        A resident **equal** entry only gets its recency refreshed
        (returns False — the in-process re-store rule).  A resident
        entry with a *different* payload is **replaced** (returns
        True): summaries are pure memos, so two honest clients can only
        disagree across a program edit — and then the publish is
        fresher than whatever invalidation this shard may have missed.
        This is what lets an edited client's write-through self-heal a
        shard that was unreachable during the invalidate.

        With epochs on the wire (protocol 1.4) the rule is exact: a
        write-through whose epoch *lags* the method's raises
        :class:`StaleEpochRejection` instead of being arbitrated by
        payload comparison.
        """
        with self._lock:
            if not self._sync_method_locked(entry_method(entry), epoch, fingerprint):
                self.stale_rejections += 1
                raise StaleEpochRejection(
                    entry_method(entry),
                    epoch,
                    self._epochs.get(entry_method(entry), 0),
                )
            return self._store_locked(entry)

    def _store_locked(self, entry):
        ckey = entry_key(entry)
        resident = self._entries.get(ckey)
        if resident is not None:
            # Equality is the *payload* — objects and boundaries —
            # exactly like the in-process rule.  `steps` is cost
            # metadata, not content: a steps-only difference (e.g. a
            # legacy snapshot replayed with steps=0) must not fake a
            # program edit; the better cost estimate is kept instead
            # so cost-aware eviction never loses information.
            if (
                resident["objects"] == entry["objects"]
                and resident["boundaries"] == entry["boundaries"]
            ):
                if entry.get("steps", 0) > resident.get("steps", 0):
                    resident["steps"] = entry.get("steps", 0)
                self._refresh_locked(ckey, resident)
                return False
            self._facts += _entry_facts(entry) - _entry_facts(resident)
            self._entries[ckey] = entry
            self._refresh_locked(ckey, entry)
            self._sequence_locked(ckey)
            self._enforce_capacity_locked()
            return True
        self._entries[ckey] = entry
        self._refresh_locked(ckey, entry)
        self._sequence_locked(ckey)
        self._facts += _entry_facts(entry)
        method = entry_method(entry)
        if method is not None:
            self._by_method.setdefault(method, set()).add(ckey)
        self._enforce_capacity_locked()
        return True

    def _sequence_locked(self, ckey):
        """Give ``ckey`` the next sequence stamp (moving it to the
        newest end of the stamp order)."""
        self._seq += 1
        self._seqs.pop(ckey, None)
        self._seqs[ckey] = self._seq

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
        self._epochs[method_qname] = max(self._epochs.get(method_qname, 0) + 1, epoch)
        self._fprints.pop(method_qname, None)
        return self._drop_method_locked(method_qname)

    def _drop_method_locked(self, method_qname):
        keys = self._by_method.pop(method_qname, ())
        dropped = 0
        for ckey in list(keys):
            if self._remove_locked(ckey) is not None:
                dropped += 1
        self.invalidated += dropped
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
            results = []
            for i, key in enumerate(keys):
                if not self._sync_method_locked(
                    entry_method(key), self._epoch_at(epochs, i), fingerprint
                ):
                    self.misses += 1
                    results.append(None)
                    continue
                ckey = canonical_key(key)
                entry = self._entries.get(ckey)
                if entry is None:
                    self.misses += 1
                else:
                    self.hits += 1
                    self._refresh_locked(ckey, entry)
                results.append(entry)
            return results

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
        incarnation, cursor)``.

        When ``incarnation`` names this store's current incarnation and
        ``since`` is a cursor it issued, only entries stamped after
        ``since`` are returned, oldest stamp first; otherwise the full
        :meth:`entries_with_epochs` dump, coldest-first.  Either way
        the filters of :meth:`entries_with_epochs` apply, and
        ``cursor`` is the newest stamp issued so far.  The cursor is
        read in the same lock hold as the scan: an entry stored in
        between would otherwise be skipped by every later delta.
        """
        with self._lock:
            if incarnation == self.incarnation and 0 <= since <= self._seq:
                fresh = []
                for ckey, seq in reversed(self._seqs.items()):
                    if seq <= since:
                        break
                    fresh.append(self._entries[ckey])
                fresh.reverse()
                candidates = fresh
            else:
                candidates = self._entries.values()
            wanted = None if methods is None else set(methods)
            entries, epochs = [], []
            for entry in candidates:
                method = entry_method(entry)
                if wanted is not None and method not in wanted:
                    continue
                if fingerprint is not None:
                    recorded = self._fprints.get(method)
                    if recorded is not None and recorded != fingerprint:
                        continue
                entries.append(entry)
                epochs.append(self._epochs.get(method, 0))
            return entries, epochs, self.incarnation, self._seq

    def clear(self):
        # Epochs and fingerprints survive a clear: they version the
        # *program*, not the resident entries.  So do the incarnation
        # and the sequence counter: every later store still gets a
        # stamp above any cursor already handed out.
        with self._lock:
            self._entries.clear()
            self._seqs.clear()
            self._by_method.clear()
            self._facts = 0
            self._clock = 0.0
            self._rank.clear()
            self._heap = []
            self._stamp = 0
            self.hits = self.misses = self.evictions = self.invalidated = 0
            self.stale_rejections = 0  # guarded-by: _lock

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
            self.clear()
            self._epochs.clear()
            self._fprints.clear()
            self.incarnation = _draw_incarnation()
            self._seq = 0

    # ------------------------------------------------------------------
    # capacity
    # ------------------------------------------------------------------
    def _remove_locked(self, ckey):
        entry = self._entries.pop(ckey, None)
        if entry is None:
            return None
        del self._seqs[ckey]
        self._rank.pop(ckey, None)
        self._facts -= _entry_facts(entry)
        method = entry_method(entry)
        if method is not None:
            keys = self._by_method.get(method)
            if keys is not None:
                keys.discard(ckey)
                if not keys:
                    del self._by_method[method]
        return entry

    def _over_capacity_locked(self):
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            return True
        if self.max_facts is not None and self._facts > self.max_facts:
            return True
        return False

    def _pick_victim_locked(self):
        if self.eviction == "cost":
            # Heap pop with lazy invalidation; priority ties resolve by
            # stamp = least-recently-refreshed, the LRU order the old
            # O(n) scan produced.
            heap = self._heap
            rank = self._rank
            while heap:
                record = heap[0]
                if rank.get(record[2]) is not record:
                    heapq.heappop(heap)  # stale: evicted or re-stamped
                    continue
                heapq.heappop(heap)
                self._clock = record[0]
                return record[2]
        return next(iter(self._entries))

    def _enforce_capacity_locked(self):
        while self._over_capacity_locked() and len(self._entries) > 1:
            self._remove_locked(self._pick_victim_locked())
            self.evictions += 1
        if len(self._heap) > 2 * len(self._rank) + 64:
            self._heap = sorted(self._rank.values())

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return canonical_key(key) in self._entries

    def total_facts(self):
        with self._lock:
            return self._facts

    def approx_bytes(self):
        with self._lock:
            return (
                len(self._entries) * ENTRY_OVERHEAD_BYTES
                + self._facts * FACT_BYTES
            )

    def stats_snapshot(self):
        with self._lock:
            return CacheStats(
                entries=len(self._entries),
                facts=self._facts,
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                invalidated=self.invalidated,
                approx_bytes=len(self._entries) * ENTRY_OVERHEAD_BYTES
                + self._facts * FACT_BYTES,
                max_entries=self.max_entries,
                max_facts=self.max_facts,
            )

    def __repr__(self):
        return (
            f"WireSummaryStore({len(self)} entries, hits={self.hits}, "
            f"misses={self.misses}, eviction={self.eviction!r})"
        )
