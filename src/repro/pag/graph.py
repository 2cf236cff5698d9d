"""The Pointer Assignment Graph data structure.

All adjacency is stored in **value-flow direction** and exposed in both
directions, because demand traversals walk backward (state S1, computing
``pointsTo``) and forward (state S2, tracking an object):

====================  =======================================  =============
accessor              edges returned                           direction
====================  =======================================  =============
``new_sources(v)``    ``o --new--> v``                          into ``v``
``new_target(o)``     the unique ``o --new--> v``               out of ``o``
``assign_sources``    ``x --assign--> v``                       into ``v``
``assign_targets``    ``v --assign--> x``                       out of ``v``
``load_into(v)``      ``b --load(f)--> v`` as ``(b, f)``        into ``v``
``load_from(b)``      ``b --load(f)--> t`` as ``(f, t)``        out of ``b``
``store_into(b)``     ``x --store(f)--> b`` as ``(x, f)``       into ``b``
``store_from(x)``     ``x --store(f)--> b`` as ``(f, b)``       out of ``x``
``entry_into(p)``     ``a --entry_i--> p`` as ``(a, i)``        into ``p``
``entry_from(a)``     ``a --entry_i--> p`` as ``(i, p)``        out of ``a``
``exit_into(t)``      ``r --exit_i--> t`` as ``(r, i)``         into ``t``
``exit_from(r)``      ``r --exit_i--> t`` as ``(i, t)``         out of ``r``
``global_sources``    ``x --assignglobal--> v``                 into ``v``
``global_targets``    ``v --assignglobal--> x``                 out of ``v``
====================  =======================================  =============

Plus field-indexed views ``loads_of_field(f)`` / ``stores_of_field(f)``
used by REFINEPTS's field-based match edges, and the boundary predicates
``has_global_in`` / ``has_global_out`` / ``has_local_edges`` used by the
PPTA of DYNSUM.
"""

from repro.pag.edges import (
    ALL_EDGE_KINDS,
    ASSIGN,
    ASSIGN_GLOBAL,
    ENTRY,
    EXIT,
    LOAD,
    NEW,
    STORE,
)
from repro.cfl.rsm import FAM_LOAD, FAM_STORE
from repro.cfl.stacks import intern_token
from repro.pag.csr import ROW_DICTS
from repro.pag.nodes import GlobalNode, LocalNode, ObjectNode
from repro.util.errors import IRError

_EMPTY = ()


class NodeAdjacency:
    """Precompiled adjacency record for one PAG node.

    The accessor-based PAG surface costs a traversal 8+ method calls
    (each a dict probe) per visited state.  A record folds everything
    one state expansion of STASUM, REFINEPTS or NOREFINE needs into a
    single dict lookup plus attribute reads:

    * local edges, each field equal to its accessor's tuple (same
      orientation and order), except that ``load_into`` items are
      ``(base, field, token)`` and ``store_from`` items ``(field, base,
      token)``, where ``token`` is the interned ``(field, family)`` push
      entry, so the inner loops never build stack-entry tuples;
    * the boundary predicates (``has_global_in`` / ``has_global_out`` /
      ``has_local_edges``) as plain booleans;
    * the global edges the worklists cross (entry/exit/assignglobal,
      both directions).

    Records are immutable snapshots: :meth:`PAG.adjacency` compiles the
    map lazily and every edge insertion invalidates it.
    """

    __slots__ = (
        "new_sources",
        "assign_sources",
        "assign_targets",
        "load_into",
        "load_from",
        "store_into",
        "store_from",
        "has_global_in",
        "has_global_out",
        "has_local_edges",
        "exit_into",
        "entry_into",
        "global_sources",
        "entry_from",
        "exit_from",
        "global_targets",
    )

    def __init__(self):
        self.new_sources = _EMPTY
        self.assign_sources = _EMPTY
        self.assign_targets = _EMPTY
        self.load_into = _EMPTY
        self.load_from = _EMPTY
        self.store_into = _EMPTY
        self.store_from = _EMPTY
        self.has_global_in = False
        self.has_global_out = False
        self.has_local_edges = False
        self.exit_into = _EMPTY
        self.entry_into = _EMPTY
        self.global_sources = _EMPTY
        self.entry_from = _EMPTY
        self.exit_from = _EMPTY
        self.global_targets = _EMPTY


#: Shared record for nodes with no edges at all (e.g. a freshly interned
#: variable): every field empty, every predicate False.
EMPTY_ADJACENCY = NodeAdjacency()


class PAG:
    """A finished pointer assignment graph.

    Build one with :func:`repro.pag.builder.build_pag`; direct use of the
    mutating ``add_*`` methods is for tests and synthetic graphs.
    """

    def __init__(self, program=None, call_graph=None, hierarchy=None):
        self.program = program
        self.call_graph = call_graph
        self.hierarchy = hierarchy

        self._locals = {}
        self._globals = {}
        self._objects = {}
        self._method_nodes = {}

        self._new_in = {}
        self._new_out = {}
        self._assign_in = {}
        self._assign_out = {}
        self._load_in = {}
        self._load_out = {}
        self._store_in = {}
        self._store_out = {}
        self._entry_in = {}
        self._entry_out = {}
        self._exit_in = {}
        self._exit_out = {}
        self._global_in = {}
        self._global_out = {}

        self._loads_by_field = {}
        self._stores_by_field = {}

        self._edge_counts = {kind: 0 for kind in ALL_EDGE_KINDS}
        self._edge_seen = set()
        self._recursive_sites = set()
        #: Edge segments (see :meth:`replace_method_edges`) of the methods
        #: regenerated so far, so the next edit of one diffs in order.
        self._segments = {}
        #: Lazily built: method -> its position in program order.
        self._method_rank = None
        #: Lazily compiled node -> NodeAdjacency map (see
        #: :meth:`adjacency`); any edge insertion resets it.
        self._adjacency = None
        #: Lazily built CSR image (see :meth:`csr`); reset by edge
        #: insertion and by :meth:`mark_recursive_site` (the image folds
        #: the recursive bit into its cross-op codes).
        self._csr = None
        #: After :meth:`replace_method_edges`: ``(image, changed,
        #: dropped)`` — the last image and the nodes edits changed since
        #: — which :meth:`csr` patches instead of lowering afresh.
        self._csr_patch = None
        #: Memo of :func:`repro.pag.csr.pag_fingerprint`, reset by every
        #: edge change.
        self._fingerprint = None
        #: Compile counters: how often this graph was lowered (and how
        #: often its CSR image was patched instead).  The perf harness
        #: gates on them: one CSR compile and no adjacency compile for a
        #: warm start, one patch and no compile per edit.
        self.adjacency_compiles = 0
        self.csr_compiles = 0
        self.csr_patches = 0

    # ------------------------------------------------------------------
    # node interning
    # ------------------------------------------------------------------
    def local_var(self, method_qname, name):
        """The unique :class:`LocalNode` for ``name`` in ``method_qname``."""
        key = (method_qname, name)
        node = self._locals.get(key)
        if node is None:
            node = LocalNode(method_qname, name)
            self._locals[key] = node
            self._method_nodes.setdefault(method_qname, []).append(node)
        return node

    def global_var(self, class_name, field):
        """The unique :class:`GlobalNode` for static ``class_name::field``."""
        key = (class_name, field)
        node = self._globals.get(key)
        if node is None:
            node = GlobalNode(class_name, field)
            self._globals[key] = node
        return node

    def object_node(self, object_id, class_name=None, method_qname=None):
        """The unique :class:`ObjectNode` for an allocation.

        Lookup-only when ``class_name`` is omitted.  A known label whose
        class differs from ``class_name`` is re-interned as a new node.
        """
        node = self._objects.get(object_id)
        if node is None or (class_name is not None and node.class_name != class_name):
            # A relabelled allocation (an edit inserted one earlier in
            # its method) gets a fresh node: a node's class never changes.
            if class_name is None:
                raise IRError(f"unknown object {object_id!r}")
            node = ObjectNode(object_id, class_name, method_qname)
            self._objects[object_id] = node
            if method_qname is not None:
                self._method_nodes.setdefault(method_qname, []).append(node)
        return node

    def find_local(self, method_qname, name):
        """Lookup-only variant of :meth:`local_var`; raises if absent."""
        try:
            return self._locals[(method_qname, name)]
        except KeyError:
            raise IRError(f"no PAG node for local {name!r} in {method_qname}") from None

    def find_global(self, class_name, field):
        """Lookup-only variant of :meth:`global_var`; raises if absent."""
        try:
            return self._globals[(class_name, field)]
        except KeyError:
            raise IRError(
                f"no PAG node for static field {class_name}::{field}"
            ) from None

    # ------------------------------------------------------------------
    # edge insertion (deduplicating)
    # ------------------------------------------------------------------
    def _note_edge(self, kind, signature):
        if signature in self._edge_seen:
            return False
        self._edge_seen.add(signature)
        self._edge_counts[kind] += 1
        self._adjacency = None
        self._csr = self._csr_patch = self._fingerprint = None
        return True

    def add_new(self, obj, target):
        """``obj --new--> target``; each object has exactly one such edge."""
        if not self._note_edge(NEW, (NEW, obj, target)):
            return
        existing = self._new_out.get(obj)
        if existing is not None and existing is not target:
            raise IRError(f"object {obj!r} already flows to {existing!r}")
        self._new_out[obj] = target
        self._new_in.setdefault(target, []).append(obj)

    def add_assign(self, source, target):
        """``source --assign--> target`` (local copy)."""
        if not self._note_edge(ASSIGN, (ASSIGN, source, target)):
            return
        self._assign_out.setdefault(source, []).append(target)
        self._assign_in.setdefault(target, []).append(source)

    def add_load(self, base, field, target):
        """``base --load(field)--> target`` for ``target = base.field``."""
        if not self._note_edge(LOAD, (LOAD, base, field, target)):
            return
        self._load_out.setdefault(base, []).append((field, target))
        self._load_in.setdefault(target, []).append((base, field))
        self._loads_by_field.setdefault(field, []).append((base, target))

    def add_store(self, value, field, base):
        """``value --store(field)--> base`` for ``base.field = value``."""
        if not self._note_edge(STORE, (STORE, value, field, base)):
            return
        self._store_out.setdefault(value, []).append((field, base))
        self._store_in.setdefault(base, []).append((value, field))
        self._stores_by_field.setdefault(field, []).append((value, base))

    def add_global_assign(self, source, target):
        """``source --assignglobal--> target`` (static read/write)."""
        if not self._note_edge(ASSIGN_GLOBAL, (ASSIGN_GLOBAL, source, target)):
            return
        self._global_out.setdefault(source, []).append(target)
        self._global_in.setdefault(target, []).append(source)

    def add_entry(self, actual, site_id, formal):
        """``actual --entry_i--> formal`` (parameter passing at site i)."""
        if not self._note_edge(ENTRY, (ENTRY, actual, site_id, formal)):
            return
        self._entry_out.setdefault(actual, []).append((site_id, formal))
        self._entry_in.setdefault(formal, []).append((actual, site_id))

    def add_exit(self, retvar, site_id, target):
        """``retvar --exit_i--> target`` (method return at site i)."""
        if not self._note_edge(EXIT, (EXIT, retvar, site_id, target)):
            return
        self._exit_out.setdefault(retvar, []).append((site_id, target))
        self._exit_in.setdefault(target, []).append((retvar, site_id))

    def mark_recursive_site(self, site_id):
        """Record that ``site_id`` participates in recursion; its
        entry/exit edges are crossed context-insensitively."""
        if site_id not in self._recursive_sites:
            self._recursive_sites.add(site_id)
            # Adjacency records test recursiveness live, but the CSR
            # image bakes it into its cross-op codes.
            self._csr = self._csr_patch = self._fingerprint = None

    def set_recursive_sites(self, sites):
        """Replace the recursive-site set (an edit changed the call
        graph); resets the CSR image only when the set changed."""
        sites = set(sites)
        if sites != self._recursive_sites:
            self._recursive_sites = sites
            self._csr = self._csr_patch = self._fingerprint = None

    # ------------------------------------------------------------------
    # incremental maintenance: per-method edge segments
    # ------------------------------------------------------------------
    def replace_method_edges(self, segments, segment_of):
        """Swap the edges of some methods for new ones, in place.

        Every edge is emitted by exactly one method's statements — its
        *owner* (:func:`edge_owner`) — so the edges of a program split
        into per-method **segments**.  ``segments`` maps each method to
        regenerate to its new segment: edge signatures (the tuples
        ``_note_edge`` deduplicates on) in the order
        :func:`~repro.pag.builder.build_pag` emits them, an empty list
        for an unreachable method.  ``segment_of(method)`` yields the
        current segment of any other method; it is consulted only when
        an edge dict's key moves into that method's run of keys.

        A fresh build appends edges segment by segment in program
        order, so every edge dict keeps its keys ordered by the position
        of their first item, and every item list by position, where a
        position is (owner's rank in program order, index in the
        owner's segment).  This method restores exactly that order, so
        the dicts and :func:`~repro.pag.csr.pag_fingerprint` equal a
        fresh build's.  Only the keys the changed edges touch are
        re-sorted; a dict is rebuilt (at C speed) only when one of its
        keys has to move.  Nodes left without any edge are dropped.
        The nodes whose CSR rows changed — the touched keys and the
        dropped nodes — are passed on to the next :meth:`csr`, which
        patches the last image with them.  Returns ``(removed, added)``
        edge signatures.
        """
        rank = self._ranks()
        seq = {}
        removed, added = [], []
        reordered = set()  # owners whose kept edges may have moved
        for qname, new in segments.items():
            seq.update(zip(new, range(len(new))))
            old = self._segments.get(qname)
            if old is None:
                old = self._owned_edges(qname)
                reordered.add(qname)
            new_set = set(new)
            old_set = set(old)
            if qname not in reordered and [e for e in old if e in new_set] != [
                e for e in new if e in old_set
            ]:
                reordered.add(qname)
            if qname in reordered:
                removed += old
                added += new
            else:
                removed += [e for e in old if e not in new_set]
                added += [e for e in new if e not in old_set]
        touched = {}
        for sig in removed:
            self._edge_seen.discard(sig)
            self._edge_counts[sig[0]] -= 1
            for name, key, item in _edge_entries(sig):
                edges = getattr(self, name)
                first = touched.setdefault(name, {})
                if key not in first:
                    first[key] = _first_item(edges, key)
                if name == "_new_out":
                    del edges[key]
                    continue
                items = edges[key]
                items.remove(item)
                if not items:
                    del edges[key]
        for sig in added:
            self._edge_seen.add(sig)
            self._edge_counts[sig[0]] += 1
            for name, key, item in _edge_entries(sig):
                edges = getattr(self, name)
                first = touched.setdefault(name, {})
                if key not in first:
                    first[key] = _first_item(edges, key)
                if name == "_new_out":
                    edges[key] = item
                else:
                    edges.setdefault(key, []).append(item)
        generated = dict(segments)
        for name, firsts in touched.items():
            self._reorder(name, firsts, rank, seq, segments, reordered, generated, segment_of)
        for qname, new in segments.items():
            if new:
                self._segments[qname] = tuple(new)
            else:
                self._segments.pop(qname, None)
        if removed or added:
            dropped = self._drop_isolated(
                {sig[1] for sig in removed} | {sig[-1] for sig in removed}
            )
            self._adjacency = None
            self._fingerprint = None
            changed = [
                key for name, firsts in touched.items() if name in ROW_DICTS
                for key in firsts
            ]
            image = self._csr
            if image is not None:
                self._csr = None
                self._csr_patch = (image, dict.fromkeys(changed), set(dropped))
            elif self._csr_patch is not None:
                self._csr_patch[1].update(dict.fromkeys(changed))
                self._csr_patch[2].update(dropped)
        return removed, added

    def _ranks(self):
        rank = self._method_rank
        if rank is None:
            rank = self._method_rank = {
                method.qualified_name: index
                for index, method in enumerate(self.program.methods())
            }
        return rank

    def _owned_edges(self, qname):
        """The signatures of every edge ``qname`` owns, found through
        its nodes (unordered)."""
        edges = []
        for node in self._method_nodes.get(qname, _EMPTY):
            if node.is_object:
                target = self._new_out.get(node)
                if target is not None:
                    edges.append((NEW, node, target))
                continue
            edges += [(ASSIGN, node, t) for t in self._assign_out.get(node, _EMPTY)]
            edges += [(LOAD, node, f, t) for f, t in self._load_out.get(node, _EMPTY)]
            edges += [(STORE, node, f, b) for f, b in self._store_out.get(node, _EMPTY)]
            edges += [(ASSIGN_GLOBAL, node, g) for g in self._global_out.get(node, _EMPTY)]
            edges += [(ASSIGN_GLOBAL, g, node) for g in self._global_in.get(node, _EMPTY)]
            edges += [(ENTRY, node, i, p) for i, p in self._entry_out.get(node, _EMPTY)]
            edges += [(EXIT, r, i, node) for r, i in self._exit_in.get(node, _EMPTY)]
        return edges

    def _reorder(self, name, firsts, rank, seq, segments, reordered, generated, segment_of):
        """Restore build order in edge dict ``name`` after the keys in
        ``firsts`` (key -> first item before the change, or ``_ABSENT``)
        had items removed or appended."""
        edges = getattr(self, name)
        signature = _SIGNATURE[name]
        dirty = set()
        for key, was_first in firsts.items():
            if key not in edges:
                continue
            if name != "_new_out":
                items = edges[key]
                if len(items) > 1:
                    ordered = sorted(
                        enumerate(items),
                        key=lambda pair: _position(
                            signature(key, pair[1]), pair[0], rank, seq, segments
                        ),
                    )
                    items[:] = [item for _index, item in ordered]
            first = _first_item(edges, key)
            owner = edge_owner(signature(key, first))
            if was_first is _ABSENT or was_first != first or owner in reordered:
                dirty.add(owner)
        if not dirty:
            return
        blocks = {}
        for owner in dirty:
            segment = generated.get(owner)
            if segment is None:
                segment = generated[owner] = segment_of(owner)
            block = []
            seen = set()
            for sig in segment:
                for entry_name, key, _item in _edge_entries(sig):
                    if entry_name != name or key in seen or key not in edges:
                        continue
                    seen.add(key)
                    if edge_owner(signature(key, _first_item(edges, key))) == owner:
                        block.append(key)
            blocks[owner] = block
        placed = set()
        for block in blocks.values():
            placed.update(block)
        order = [key for key in edges if key not in placed]

        def first_rank(key):
            return rank[edge_owner(signature(key, _first_item(edges, key)))]

        for owner in sorted(blocks, key=rank.__getitem__, reverse=True):
            target = rank[owner]
            lo, hi = 0, len(order)
            while lo < hi:
                mid = (lo + hi) // 2
                if first_rank(order[mid]) < target:
                    lo = mid + 1
                else:
                    hi = mid
            order[lo:lo] = blocks[owner]
        if order != list(edges):
            rebuilt = [(key, edges[key]) for key in order]
            edges.clear()
            edges.update(rebuilt)

    def _drop_isolated(self, candidates):
        """Forget the nodes among ``candidates`` that no edge touches;
        returns them."""
        dropped = []
        for node in candidates:
            if any(node in edges for edges in self._direction_dicts()):
                continue
            dropped.append(node)
            if node.is_local_var:
                table, key = self._locals, (node.method, node.name)
            elif node.is_object:
                table, key = self._objects, node.object_id
            else:
                table, key = self._globals, (node.class_name, node.field)
            if table.get(key) is node:
                del table[key]
            owned = self._method_nodes.get(node.method)
            if owned is not None and node in owned:
                owned.remove(node)
                if not owned:
                    del self._method_nodes[node.method]
        return dropped

    def _direction_dicts(self):
        return (
            self._new_in, self._new_out, self._assign_in, self._assign_out,
            self._load_in, self._load_out, self._store_in, self._store_out,
            self._entry_in, self._entry_out, self._exit_in, self._exit_out,
            self._global_in, self._global_out,
        )

    def clear_edges(self):
        """Drop every edge and the recursive-site set, keeping the node
        objects (a full re-derivation re-adds edges through ``add_*``
        and then :meth:`prune_nodes`)."""
        for edges in self._direction_dicts():
            edges.clear()
        self._loads_by_field.clear()
        self._stores_by_field.clear()
        self._edge_counts = {kind: 0 for kind in ALL_EDGE_KINDS}
        self._edge_seen = set()
        self._recursive_sites = set()
        self._segments = {}
        self._adjacency = None
        self._csr = self._csr_patch = self._fingerprint = None

    def prune_nodes(self):
        """Forget every node no edge touches."""
        nodes = list(self._locals.values()) + list(self._globals.values())
        nodes += list(self._objects.values())
        for owned in self._method_nodes.values():
            nodes += owned
        self._drop_isolated(set(nodes))

    # ------------------------------------------------------------------
    # adjacency accessors (value-flow direction documented per method)
    # ------------------------------------------------------------------
    def new_sources(self, var):
        return self._new_in.get(var, _EMPTY)

    def new_target(self, obj):
        return self._new_out.get(obj)

    def assign_sources(self, var):
        return self._assign_in.get(var, _EMPTY)

    def assign_targets(self, var):
        return self._assign_out.get(var, _EMPTY)

    def load_into(self, var):
        return self._load_in.get(var, _EMPTY)

    def load_from(self, base):
        return self._load_out.get(base, _EMPTY)

    def store_into(self, base):
        return self._store_in.get(base, _EMPTY)

    def store_from(self, value):
        return self._store_out.get(value, _EMPTY)

    def entry_into(self, formal):
        return self._entry_in.get(formal, _EMPTY)

    def entry_from(self, actual):
        return self._entry_out.get(actual, _EMPTY)

    def exit_into(self, target):
        return self._exit_in.get(target, _EMPTY)

    def exit_from(self, retvar):
        return self._exit_out.get(retvar, _EMPTY)

    def global_sources(self, var):
        return self._global_in.get(var, _EMPTY)

    def global_targets(self, var):
        return self._global_out.get(var, _EMPTY)

    def loads_of_field(self, field):
        """All ``(base, target)`` load edges labelled ``field``."""
        return self._loads_by_field.get(field, _EMPTY)

    def stores_of_field(self, field):
        """All ``(value, base)`` store edges labelled ``field``."""
        return self._stores_by_field.get(field, _EMPTY)

    # ------------------------------------------------------------------
    # boundary predicates used by the PPTA
    # ------------------------------------------------------------------
    def has_global_in(self, var):
        """True when a global edge flows *into* ``var`` (S1 boundary)."""
        return (
            var in self._global_in or var in self._entry_in or var in self._exit_in
        )

    def has_global_out(self, var):
        """True when a global edge flows *out of* ``var`` (S2 boundary)."""
        return (
            var in self._global_out or var in self._entry_out or var in self._exit_out
        )

    def has_local_edges(self, var):
        """True when ``var`` touches any local edge — the guard for
        skipping the PPTA entirely (Section 4.3)."""
        return (
            var in self._new_in
            or var in self._assign_in
            or var in self._assign_out
            or var in self._load_in
            or var in self._load_out
            or var in self._store_in
            or var in self._store_out
        )

    def is_recursive_site(self, site_id):
        return site_id in self._recursive_sites

    def recursive_sites(self):
        """The live set of recursive call-site ids (the CSR compile folds
        it into its cross-op codes)."""
        return self._recursive_sites

    # ------------------------------------------------------------------
    # compiled views (records for the baselines, CSR for DYNSUM)
    # ------------------------------------------------------------------
    def adjacency(self):
        """The node -> :class:`NodeAdjacency` map, compiled on demand.

        Nodes without any edge are deliberately absent — callers use
        ``adjacency().get(node)`` with :data:`EMPTY_ADJACENCY` as the
        fallback, so interning a new variable after compilation needs no
        invalidation.  Any ``add_*`` edge insertion resets the map.
        """
        compiled = self._adjacency
        if compiled is None:
            compiled = self._compile_adjacency()
            self._adjacency = compiled
            self.adjacency_compiles += 1
        return compiled

    def csr(self):
        """The CSR traversal image (:class:`~repro.pag.csr.CsrImage`),
        built on demand.

        After :meth:`replace_method_edges` (an edit) the last image is
        *patched* (:func:`~repro.pag.csr.patch_csr`): surviving nodes
        keep their indices, so the image equals a fresh compile's up to
        node numbering.  Everything else compiles the whole graph
        afresh (:func:`~repro.pag.csr.compile_csr`): the first call, any
        ``add_*`` edge insertion, a changed recursive-site set (the
        image folds the recursive bit into its cross-op codes), a full
        re-derivation, and compaction once a patch would leave more
        dead rows than live ones.  Token and field ids come from the
        process-global intern pool, so neither path renumbers them.
        """
        image = self._csr
        if image is None:
            from repro.pag.csr import compile_csr, patch_csr

            pending, self._csr_patch = self._csr_patch, None
            if pending is not None:
                image = patch_csr(self, *pending)
            if image is None:
                image = compile_csr(self)
                self.csr_compiles += 1
            else:
                self.csr_patches += 1
            self._csr = image
        return image

    def _compile_adjacency(self):
        records = {}

        def record(node):
            rec = records.get(node)
            if rec is None:
                rec = NodeAdjacency()
                records[node] = rec
            return rec

        for target, sources in self._new_in.items():
            record(target).new_sources = tuple(sources)
        for target, sources in self._assign_in.items():
            record(target).assign_sources = tuple(sources)
        for source, targets in self._assign_out.items():
            record(source).assign_targets = tuple(targets)
        for target, pairs in self._load_in.items():
            record(target).load_into = tuple(
                (base, field, intern_token(field, FAM_LOAD))
                for base, field in pairs
            )
        for base, pairs in self._load_out.items():
            record(base).load_from = tuple(pairs)
        for base, pairs in self._store_in.items():
            record(base).store_into = tuple(pairs)
        for value, pairs in self._store_out.items():
            record(value).store_from = tuple(
                (field, base, intern_token(field, FAM_STORE))
                for field, base in pairs
            )
        for target, pairs in self._exit_in.items():
            record(target).exit_into = tuple(pairs)
        for formal, pairs in self._entry_in.items():
            record(formal).entry_into = tuple(pairs)
        for target, sources in self._global_in.items():
            record(target).global_sources = tuple(sources)
        for actual, pairs in self._entry_out.items():
            record(actual).entry_from = tuple(pairs)
        for retvar, pairs in self._exit_out.items():
            record(retvar).exit_from = tuple(pairs)
        for source, targets in self._global_out.items():
            record(source).global_targets = tuple(targets)

        # The boundary predicates, as key sets of the edge dicts (what
        # has_global_in/has_global_out/has_local_edges probe per node).
        global_in = set().union(self._global_in, self._entry_in, self._exit_in)
        global_out = set().union(self._global_out, self._entry_out, self._exit_out)
        local = set().union(
            self._new_in, self._assign_in, self._assign_out, self._load_in,
            self._load_out, self._store_in, self._store_out,
        )
        for node, rec in records.items():
            rec.has_global_in = node in global_in
            rec.has_global_out = node in global_out
            rec.has_local_edges = node in local
        return records

    # ------------------------------------------------------------------
    # whole-graph views
    # ------------------------------------------------------------------
    def local_var_nodes(self):
        return list(self._locals.values())

    def global_var_nodes(self):
        return list(self._globals.values())

    def object_nodes(self):
        return list(self._objects.values())

    def nodes_of_method(self, method_qname):
        """All V and O nodes owned by ``method_qname``."""
        return list(self._method_nodes.get(method_qname, _EMPTY))

    def methods(self):
        return list(self._method_nodes)

    def edge_counts(self):
        """Edge counts by kind (deduplicated edges)."""
        return dict(self._edge_counts)

    def node_counts(self):
        return {
            "O": len(self._objects),
            "V": len(self._locals),
            "G": len(self._globals),
        }

    def locality(self):
        """Fraction of local edges among all edges — Table 3's metric."""
        counts = self._edge_counts
        local = counts[NEW] + counts[ASSIGN] + counts[LOAD] + counts[STORE]
        total = sum(counts.values())
        return local / total if total else 0.0

    def iter_edges(self):
        """Yield ``(kind, source, label, target)`` for every edge; the
        label is a field name, a call-site id, or ``None``."""
        for obj, target in self._new_out.items():
            yield NEW, obj, None, target
        for source, targets in self._assign_out.items():
            for target in targets:
                yield ASSIGN, source, None, target
        for base, pairs in self._load_out.items():
            for field, target in pairs:
                yield LOAD, base, field, target
        for value, pairs in self._store_out.items():
            for field, base in pairs:
                yield STORE, value, field, base
        for source, targets in self._global_out.items():
            for target in targets:
                yield ASSIGN_GLOBAL, source, None, target
        for actual, pairs in self._entry_out.items():
            for site_id, formal in pairs:
                yield ENTRY, actual, site_id, formal
        for retvar, pairs in self._exit_out.items():
            for site_id, target in pairs:
                yield EXIT, retvar, site_id, target

    def __repr__(self):
        nodes = self.node_counts()
        return (
            f"PAG(V={nodes['V']}, G={nodes['G']}, O={nodes['O']}, "
            f"edges={sum(self._edge_counts.values())}, "
            f"locality={self.locality():.1%})"
        )


# ----------------------------------------------------------------------
# edge signatures: where each edge lives, and who owns it
# ----------------------------------------------------------------------
_ABSENT = object()


def _first_item(edges, key):
    value = edges.get(key, _ABSENT)
    if value is _ABSENT or not isinstance(value, list):
        return value  # ``_new_out`` maps an object to its one target
    return value[0]


def edge_owner(sig):
    """The method whose statements emit the edge with signature ``sig``
    (the caller, for ``entry``/``exit`` edges)."""
    kind = sig[0]
    if kind == NEW or kind == ASSIGN_GLOBAL:
        return sig[1].method or sig[2].method
    if kind == EXIT:
        return sig[3].method
    return sig[1].method


def _edge_entries(sig):
    """``(dict name, key, item)`` for every dict an edge is stored in."""
    kind = sig[0]
    if kind == NEW:
        return (("_new_out", sig[1], sig[2]), ("_new_in", sig[2], sig[1]))
    if kind == ASSIGN:
        return (("_assign_out", sig[1], sig[2]), ("_assign_in", sig[2], sig[1]))
    if kind == ASSIGN_GLOBAL:
        return (("_global_out", sig[1], sig[2]), ("_global_in", sig[2], sig[1]))
    a, label, b = sig[1], sig[2], sig[3]
    if kind == LOAD:
        return (
            ("_load_out", a, (label, b)),
            ("_load_in", b, (a, label)),
            ("_loads_by_field", label, (a, b)),
        )
    if kind == STORE:
        return (
            ("_store_out", a, (label, b)),
            ("_store_in", b, (a, label)),
            ("_stores_by_field", label, (a, b)),
        )
    if kind == ENTRY:
        return (("_entry_out", a, (label, b)), ("_entry_in", b, (a, label)))
    return (("_exit_out", a, (label, b)), ("_exit_in", b, (a, label)))


#: Edge dict name -> ``(key, item) -> signature``.
_SIGNATURE = {
    "_new_out": lambda k, v: (NEW, k, v),
    "_new_in": lambda k, v: (NEW, v, k),
    "_assign_out": lambda k, v: (ASSIGN, k, v),
    "_assign_in": lambda k, v: (ASSIGN, v, k),
    "_global_out": lambda k, v: (ASSIGN_GLOBAL, k, v),
    "_global_in": lambda k, v: (ASSIGN_GLOBAL, v, k),
    "_load_out": lambda k, v: (LOAD, k, v[0], v[1]),
    "_load_in": lambda k, v: (LOAD, v[0], v[1], k),
    "_loads_by_field": lambda k, v: (LOAD, v[0], k, v[1]),
    "_store_out": lambda k, v: (STORE, k, v[0], v[1]),
    "_store_in": lambda k, v: (STORE, v[0], v[1], k),
    "_stores_by_field": lambda k, v: (STORE, v[0], k, v[1]),
    "_entry_out": lambda k, v: (ENTRY, k, v[0], v[1]),
    "_entry_in": lambda k, v: (ENTRY, v[0], v[1], k),
    "_exit_out": lambda k, v: (EXIT, k, v[0], v[1]),
    "_exit_in": lambda k, v: (EXIT, v[0], v[1], k),
}


def _position(sig, index, rank, seq, segments):
    """Sort key of an item: its owner's rank, then its index in the
    owner's new segment — or, for an owner left unchanged, its current
    index (those items keep their relative order)."""
    owner = edge_owner(sig)
    return (rank[owner], seq[sig] if owner in segments else index)
