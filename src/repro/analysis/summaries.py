"""The DYNSUM summary cache (Algorithm 4's ``Cache``) — a backend-pluggable store layer.

Maps ``(node, field-stack, state)`` triples — deliberately **without** any
calling context — to completed :class:`~repro.analysis.ppta.PptaResult`
summaries.  Context-independence is the paper's key idea: the same local
summary serves every calling context of the method, and every later query.

Every store is a **backend** behind one explicit contract,
:class:`SummaryBackend` — the seam the engine, the incremental session,
the snapshot layer and the process-level cache service all program
against.  Two local backends ship here:

* :class:`SummaryCache` — the unbounded store of the paper's experiments
  (queries stop at a few thousand, so the cache never needs a ceiling);
* :class:`BoundedSummaryCache` — an LRU, size-capped store for the
  long-running IDE/JIT hosts of Sections 1 and 5.3, where query traffic
  is open-ended and memory is not.  Capacity can be capped by entry count
  and/or by total summary facts (a proxy for bytes; see
  :meth:`SummaryStore.approx_bytes`).  LRU is the only capacity policy:
  a summary is a memo, so a policy can move only cost, and LRU was the
  fastest policy measured on bounded Figure-4 replays.

A third backend lives out of tree:
:class:`repro.cacheserver.client.RemoteSummaryCache` speaks the same
contract but forwards traffic to shard-server *processes*, partitioned
by the key node's method (:func:`shard_for_method`, CRC-32), with a
local tier that prefetches fill — the engine cannot tell the difference, which
is the point of the seam.

A plain :class:`SummaryCache` that is a remote store's local tier may
also **hold** entries it has not built: a prefetched frame's rows go
straight into the tier's native-kernel mirror
(``repro.native.session.hold_frame``), and the store records the frame
block and counts its entries and facts, building no ``PptaResult``.
Counts (``len``, :meth:`~SummaryStore.total_facts`,
:meth:`~SummaryStore.approx_bytes`, :meth:`~SummaryStore.stats_snapshot`)
include held entries at no cost; every other reader or writer first
builds them, ahead of every entry the dict already holds, which is
where per-entry adoption would have put them.

Eviction is always *safe*: a summary is a pure memo of ``DSPOINTSTO``, so
dropping one never changes any answer — only the cost of recomputing it.
The same holds for :meth:`SummaryStore.invalidate_method`, the operation
an IDE/JIT host uses when code is edited: method-granular invalidation
and capacity eviction compose freely because both merely forget memos
(the test suite checks both properties).
"""

import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

#: Rough memory model for :meth:`SummaryStore.approx_bytes`: Python-object
#: overhead per cache entry (key tuple + dict slot + PptaResult shell) and
#: per summary fact (an object reference or a boundary triple).
ENTRY_OVERHEAD_BYTES = 240
FACT_BYTES = 96


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time snapshot of a store's accounting.

    ``facts`` is the Figure-5 unit (objects + boundary tuples held);
    ``approx_bytes`` applies the module's crude memory model so hosts can
    budget in bytes without a real profiler.
    """

    entries: int
    facts: int
    hits: int
    misses: int
    evictions: int
    invalidated: int
    approx_bytes: int
    max_entries: Optional[int] = None
    max_facts: Optional[int] = None

    @property
    def probes(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        """Fraction of probes answered from the cache (0.0 when unprobed)."""
        probes = self.probes
        return self.hits / probes if probes else 0.0

    @property
    def bounded(self):
        return self.max_entries is not None or self.max_facts is not None


class SummaryBackend:
    """The explicit store contract — every summary backend implements this.

    The engine layer (:class:`~repro.engine.core.PointsToEngine`), the
    incremental session, the snapshot codec and the cache service client
    only ever call what is declared here, so a backend can be an
    in-process dict, a capacity-bounded store, or a stub forwarding to
    shard-server processes without any caller changing.

    The contract splits into:

    * **the cache protocol** — :meth:`lookup`, :meth:`store`,
      :meth:`invalidate_method`, :meth:`clear` (Algorithm 4's surface
      plus the IDE edit hook; an edit invalidates through the live
      store, which outlives it);
    * **introspection** — :meth:`entries`, :meth:`entries_by_recency`,
      ``len()``, ``in``, :meth:`summary_point_count`,
      :meth:`total_facts`, :meth:`approx_bytes`, :meth:`stats_snapshot`,
      :meth:`restore_counters`;
    * **environment hooks** — :meth:`bind_pag`, called when the backend
      is attached to an analysis.  Local backends ignore it; a remote
      backend needs the PAG to resolve wire entries back to nodes.

    The contract does not ask for thread safety: the engine drives its
    store from the one thread that runs a batch.
    """

    #: Capacity limits (``None`` = unbounded).
    max_entries = None
    max_facts = None

    # -- the cache protocol -------------------------------------------
    def lookup(self, node, field_stack, state):
        raise NotImplementedError

    def store(self, node, field_stack, state, ppta_result):
        raise NotImplementedError

    def invalidate_method(self, method_qname):
        raise NotImplementedError

    def clear(self):
        raise NotImplementedError

    # -- consistency epochs -------------------------------------------
    # Every backend carries a per-method **consistency epoch**: a
    # monotonic int, starting at 0, bumped by each invalidation of the
    # method (the IDE edit hook).  The epoch names the program version
    # a method's summaries were computed against, so a distributed tier
    # (the shard servers of :mod:`repro.cacheserver`) can refuse
    # write-throughs from clients that have not observed an edit yet —
    # stale summaries are rejected at the wire instead of silently
    # overwriting fresher ones.  Epochs are *version* state, not cache
    # content: ``clear()`` keeps them, and invalidating an absent
    # method still bumps.

    def method_epoch(self, method_qname):
        """The current consistency epoch of ``method_qname`` (0 if the
        method was never invalidated)."""
        epochs = getattr(self, "_method_epochs", None)
        return 0 if epochs is None else epochs.get(method_qname, 0)

    def bump_epoch(self, method_qname):
        """Advance ``method_qname``'s epoch by one; returns the new
        value.  Called by :meth:`invalidate_method` — an edit *is* an
        epoch bump."""
        epochs = getattr(self, "_method_epochs", None)
        if epochs is None:
            epochs = {}
            self._method_epochs = epochs
        epochs[method_qname] = new = epochs.get(method_qname, 0) + 1
        return new

    def method_epochs(self):
        """A snapshot of every non-zero method epoch (dict copy)."""
        return dict(getattr(self, "_method_epochs", None) or {})

    def adopt_epochs(self, epochs):
        """Merge ``epochs`` in, keeping the larger value per method."""
        if not epochs:
            return
        mine = getattr(self, "_method_epochs", None)
        if mine is None:
            mine = {}
            self._method_epochs = mine
        for method, epoch in epochs.items():
            if epoch > mine.get(method, 0):
                mine[method] = epoch

    # -- environment hooks --------------------------------------------
    def bind_pag(self, pag):
        """Attach the PAG the backend's summaries are anchored in.

        Called by :class:`~repro.analysis.dynsum.DynSum` on construction,
        and by the incremental session after every edit (the patched PAG
        has a new fingerprint).  Local backends store plain node objects
        and need nothing; a remote backend uses the PAG to resolve
        wire-form entries it fetches from shard servers.
        """

    # -- introspection -------------------------------------------------
    def entries(self):
        raise NotImplementedError

    def entries_by_recency(self, hottest_first=True):
        raise NotImplementedError

    def __len__(self):
        raise NotImplementedError

    def summary_point_count(self):
        raise NotImplementedError

    def total_facts(self):
        raise NotImplementedError

    def approx_bytes(self):
        raise NotImplementedError

    def stats_snapshot(self):
        raise NotImplementedError

    def restore_counters(self, stats):
        raise NotImplementedError


class SummaryStore(SummaryBackend):
    """Shared container and bookkeeping of the in-process backends.

    Subclasses choose the container (:meth:`_make_container`) and the
    capacity policy (:meth:`_touch` / :meth:`_enforce_capacity`); all
    the accounting — hit/miss counts, per-method index, fact totals,
    eviction and invalidation counters — lives here so stores stay
    interchangeable behind :class:`~repro.analysis.dynsum.DynSum` and
    the engine layer.
    """

    def __init__(self):
        self._entries = self._make_container()
        self._by_method = {}
        self._facts = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0
        #: Probe memo of DYNSUM's ``array`` loop: ``(CsrImage,
        #: {packed key: summary})``, the packed key being ``stack uid *
        #: stride + index * 4 + state`` in that image's numbering — an
        #: int-keyed mirror of a *subset* of ``_entries``, valid only for
        #: that image.  Any removal or replacement resets it to ``None``;
        #: only the plain unbounded cache ever populates it.
        self._probe_memo = None
        #: The native kernel's mirror of this cache: ``(CsrImage,
        #: _NativeSession-or-None)`` (see ``repro.native.session``).
        self._native_memo = None
        #: While a mirror exists, the keys inserted, replaced or removed
        #: since its last sync, in order (``None`` otherwise — a store
        #: without a mirror pays one attribute test per change).  The
        #: next native query drains it: resident keys are put again,
        #: removed ones deleted from the kernel's index.  It never
        #: outgrows the store (see ``_drop_native_mirror``).
        self._native_journal = None
        #: Held frame blocks (``repro.api.snapshot.HeldFrame``), in
        #: adoption order: entries the kernel mirror holds and the dict
        #: does not, ``_held_count`` of them.  Their facts are in
        #: ``_facts`` already.  Only a plain ``SummaryCache`` whose dict
        #: was empty takes a block (see :meth:`_hold`).
        self._held_blocks = ()
        self._held_count = 0
        #: Work counters, never reset: entries taken held, and held
        #: entries later built in Python.
        self.held = 0
        self.built = 0

    # ------------------------------------------------------------------
    # policy hooks
    # ------------------------------------------------------------------
    def _make_container(self):
        return {}

    def _touch(self, key):
        """Record a hit on ``key`` (recency bookkeeping; no-op here)."""

    # ------------------------------------------------------------------
    # held entries (a plain SummaryCache tier's prefetched frames)
    # ------------------------------------------------------------------
    def _hold(self, block):
        """Count ``block``'s entries as resident without building them.

        The caller (``repro.native.session.hold_frame``) committed them
        to this store's kernel mirror; no key of theirs is in the dict
        or in an earlier block.  The first reader or writer that needs
        the entries themselves builds them (:meth:`_build_held`)."""
        self._held_blocks += (block,)
        self._held_count += block.count
        self._facts += block.facts
        self.held += block.count

    def _build_held(self):
        """Build every held entry into the dict, in adoption order,
        ahead of the entries already there (summaries the kernel
        computed since), and index them by method.  Nothing journals:
        the kernel mirror holds them already."""
        blocks = self._held_blocks
        self._held_blocks = ()
        self._held_count = 0
        entries = self._entries
        later = list(entries.items())
        entries.clear()
        by_method = self._by_method
        for block in blocks:
            for key, summary in block.build():
                entries[key] = summary
                method = key[0].method
                if method is not None:
                    by_method.setdefault(method, set()).add(key)
            self.built += block.count
        entries.update(later)

    def _enforce_capacity(self):
        """Evict until within capacity (no-op for unbounded stores)."""

    # ------------------------------------------------------------------
    # the cache contract (Algorithm 4 lines 5-9 call these)
    # ------------------------------------------------------------------
    def lookup(self, node, field_stack, state):
        """Return the cached summary or ``None`` (and count the probe)."""
        key = (node, field_stack, state)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
            self._touch(key)
        return entry

    def store(self, node, field_stack, state, ppta_result):
        """Insert a completed summary; returns True when the store's
        contents changed (new key, or a differing summary replaced).

        Only fully computed summaries may be stored — a PPTA aborted by
        budget exhaustion must be discarded by the caller, mirroring the
        paper's observation that ad-hoc caches cannot hold unresolved
        points-to sets.

        Re-storing a resident key with an **equal** summary keeps the
        existing entry (within one process the two are always equal —
        summaries are pure memos of ``DSPOINTSTO``) but *refreshes its
        recency*: the caller just recomputed it, which is exactly the
        evidence an LRU policy keys eviction on.  Equality is the
        payload; ``steps`` is cost metadata, so the resident takes the
        larger of the two step counts in place.  A **differing**
        summary replaces the resident one: that can only happen when
        the store is fed across a program-version boundary (wire-level
        ``store`` ops, warm starts over an edited program), and there
        the incoming publish is the fresher truth — the self-heal rule
        the shard servers rely on (their
        :class:`~repro.cacheserver.store.WireSummaryStore` runs on these
        stores).
        """
        key = (node, field_stack, state)
        resident = self._entries.get(key)
        if resident is not None:
            if (
                resident.objects == ppta_result.objects
                and resident.boundaries == ppta_result.boundaries
            ):
                if ppta_result.steps > resident.steps:
                    resident.steps = ppta_result.steps
                self._touch(key)
                return False
            self._probe_memo = None  # the replaced summary may be memoed
            self._facts += ppta_result.size - resident.size
            self._entries[key] = ppta_result
            self._touch(key)
        else:
            self._entries[key] = ppta_result
            self._facts += ppta_result.size
            if node.method is not None:
                self._by_method.setdefault(node.method, set()).add(key)
        journal = self._native_journal
        if journal is not None:
            journal.append(key)
            if len(journal) > len(self):
                self._drop_native_mirror()
        self._enforce_capacity()
        return True

    def _remove(self, key):
        """Drop one entry and unindex it; returns the removed summary."""
        if self._held_blocks:
            self._build_held()
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        self._probe_memo = None  # the dropped summary may be memoed
        journal = self._native_journal
        if journal is not None:
            journal.append(key)
            if len(journal) > len(self):
                self._drop_native_mirror()
        self._facts -= entry.size
        method = key[0].method
        if method is not None:
            keys = self._by_method.get(method)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_method[method]
        return entry

    def invalidate_method(self, method_qname):
        """Drop every summary keyed in ``method_qname``.

        PPTA summaries only mention nodes of one method (local edges never
        leave it), so removing the keys of that method removes all facts
        that could be stale after the method's body changes.  Entries the
        capacity policy already evicted are gone from the index, so they
        are neither double-counted nor resurrected.  Returns the number
        of entries dropped.  The method's consistency epoch advances
        whether or not anything was resident — the edit happened either
        way.
        """
        self.bump_epoch(method_qname)
        if self._held_blocks:
            self._build_held()
        keys = self._by_method.pop(method_qname, ())
        dropped = sum(1 for key in list(keys) if self._remove(key) is not None)
        self.invalidated += dropped
        return dropped

    def clear(self):
        self._entries.clear()
        self._held_blocks = ()
        self._held_count = 0
        self._by_method.clear()
        self._facts = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0
        self._probe_memo = None
        self._drop_native_mirror()

    def _drop_native_mirror(self):
        """Forget the kernel mirror and its journal; the next native
        query bulk-imports the store afresh.  Also how a journal that
        no native query drains (the impl switched, or the kernel
        refused the image) stays bounded: once it outgrows the store,
        replaying it would cost more than a fresh import anyway.  Held
        entries live only in that mirror, so they are built first."""
        if self._held_blocks:
            self._build_held()
        self._native_memo = None
        self._native_journal = None

    def restore_counters(self, stats):
        """Overwrite the probe/eviction/invalidation counters from a
        :class:`CacheStats` — the restore hook of
        :mod:`repro.api.snapshot`, so a deserialized store reports the
        same lifetime accounting it was saved with.  Entry/fact totals
        are never restored this way; they always derive from the
        resident entries."""
        self.hits = stats.hits
        self.misses = stats.misses
        self.evictions = stats.evictions
        self.invalidated = stats.invalidated

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def entries(self):
        """Iterate ``((node, field_stack, state), summary)`` pairs in
        storage order (least-recently-used first for LRU stores)."""
        if self._held_blocks:
            self._build_held()
        return iter(self._entries.items())

    def entries_by_recency(self, hottest_first=True):
        """Entries ordered by recency — most-recently-used first when
        ``hottest_first``.  For LRU stores storage order *is* recency
        order; unbounded stores fall back to insertion order (newest
        entries stand in for hottest)."""
        if self._held_blocks:
            self._build_held()
        items = list(self._entries.items())
        return reversed(items) if hottest_first else iter(items)

    def __len__(self):
        """Number of summaries — the paper's Figure 5 metric ("the number
        of summaries computed is available as the size of Cache") —
        held ones included."""
        return len(self._entries) + self._held_count

    def summary_point_count(self):
        """Distinct ``(node, direction)`` pairs holding a summary.

        This is the unit comparable with STASUM's offline table: one
        STASUM summary per boundary point covers *all* field stacks in
        delta form, whereas the dynamic cache partitions the same point
        across the concrete stacks queries actually produced.  Figure 5
        therefore normalises summarised points, not raw cache keys.
        """
        if self._held_blocks:
            self._build_held()
        return len({(node, state) for node, _stack, state in self._entries})

    def __contains__(self, key):
        if self._held_blocks:
            self._build_held()
        return key in self._entries

    def total_facts(self):
        """Sum of summary sizes (objects + boundary tuples)."""
        return self._facts

    def approx_bytes(self):
        """Estimated resident size under the module's memory model."""
        return len(self) * ENTRY_OVERHEAD_BYTES + self._facts * FACT_BYTES

    def stats_snapshot(self):
        """An immutable :class:`CacheStats` for dashboards and tests."""
        return CacheStats(
            entries=len(self),
            facts=self._facts,
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            invalidated=self.invalidated,
            approx_bytes=self.approx_bytes(),
            max_entries=self.max_entries,
            max_facts=self.max_facts,
        )

    def __repr__(self):
        return (
            f"{type(self).__name__}({len(self)} summaries, "
            f"hits={self.hits}, misses={self.misses})"
        )


class SummaryCache(SummaryStore):
    """Unbounded cross-query store of PPTA summaries — the paper's
    ``Cache``, suitable for closed workloads like the shipped benchmark
    protocols."""

    def lookup(self, node, field_stack, state):
        """Unbounded-store specialisation: no recency to refresh, so the
        probe is one dict get plus a counter.  A miss while entries are
        held builds them and probes again (a hit needs no build)."""
        entry = self._entries.get((node, field_stack, state))
        if entry is None:
            if self._held_blocks:
                self._build_held()
                return self.lookup(node, field_stack, state)
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def store(self, node, field_stack, state, ppta_result):
        """Unbounded-store specialisation of :meth:`SummaryStore.store`:
        same contract and accounting, minus the recency/capacity hooks
        that are no-ops without a ceiling.  A key the dict lacks while
        entries are held builds them first (it may be one of them)."""
        key = (node, field_stack, state)
        entries = self._entries
        resident = entries.get(key)
        if resident is None and self._held_blocks:
            self._build_held()
            resident = entries.get(key)
        if resident is not None:
            if (
                resident.objects == ppta_result.objects
                and resident.boundaries == ppta_result.boundaries
            ):
                if ppta_result.steps > resident.steps:
                    resident.steps = ppta_result.steps
                return False
            self._probe_memo = None  # the replaced summary may be memoed
            self._facts += ppta_result.size - resident.size
            entries[key] = ppta_result
        else:
            entries[key] = ppta_result
            self._facts += ppta_result.size
            if node.method is not None:
                self._by_method.setdefault(node.method, set()).add(key)
        journal = self._native_journal
        if journal is not None:
            journal.append(key)
            if len(journal) > len(entries) + self._held_count:
                self._drop_native_mirror()
        return True


class BoundedSummaryCache(SummaryStore):
    """LRU summary store with entry- and/or fact-count ceilings.

    ``max_entries`` caps the number of cached summaries; ``max_facts``
    caps the total number of facts they hold (the byte proxy).  On
    insertion the least-recently-used entries are evicted until both
    ceilings hold again; lookups refresh recency.  One pathological
    summary larger than ``max_facts`` on its own is kept (evicting it
    immediately would only thrash), so the fact ceiling is honoured up to
    a single resident entry — the entry ceiling is always exact.
    """

    def __init__(self, max_entries=None, max_facts=None):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_facts is not None and max_facts < 1:
            raise ValueError(f"max_facts must be >= 1, got {max_facts}")
        self.max_entries = max_entries
        self.max_facts = max_facts
        super().__init__()

    def _make_container(self):
        return OrderedDict()

    def _touch(self, key):
        self._entries.move_to_end(key)

    def _enforce_capacity(self):
        """Evict least-recently-used entries while a ceiling is exceeded
        and more than one entry is resident."""
        entries = self._entries
        while (
            (self.max_entries is not None and len(entries) > self.max_entries)
            or (self.max_facts is not None and self._facts > self.max_facts)
        ) and len(entries) > 1:
            self._remove(next(iter(entries)))
            self.evictions += 1

    def __repr__(self):
        caps = []
        if self.max_entries is not None:
            caps.append(f"max_entries={self.max_entries}")
        if self.max_facts is not None:
            caps.append(f"max_facts={self.max_facts}")
        cap = ", ".join(caps) or "unbounded"
        return (
            f"{type(self).__name__}({len(self._entries)} summaries, {cap}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )


def make_summary_store(max_entries=None, max_facts=None):
    """An empty local store: a :class:`BoundedSummaryCache` under a
    ceiling, else the unbounded :class:`SummaryCache`."""
    if max_entries is None and max_facts is None:
        return SummaryCache()
    return BoundedSummaryCache(max_entries=max_entries, max_facts=max_facts)


def shard_for_method(method_qname, n_shards):
    """Stable shard index for a method name.

    Uses CRC-32 rather than :func:`hash` so the partition — and hence
    per-shard statistics — is identical across processes and
    ``PYTHONHASHSEED`` values.
    """
    return zlib.crc32(str(method_qname or "").encode("utf-8")) % n_shards
