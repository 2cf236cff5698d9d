"""Andersen-style whole-program points-to analysis with on-the-fly call graph.

This is the Spark substitute (Lhoták & Hendren, CC'03): a
context-insensitive, field-sensitive, subset-based points-to analysis that

* discovers the reachable part of the program starting from the entry
  method, resolving virtual calls as receiver points-to sets grow
  (Table 3's caption: "reachable parts ... determined using a call graph
  constructed on the fly with Andersen-style analysis");
* produces the :class:`~repro.callgraph.graph.CallGraph` that the PAG
  builder uses for ``entry_i``/``exit_i`` edges;
* serves as the soundness oracle in tests — every context-sensitive demand
  answer must be a subset of the Andersen answer.

Implementation: a classic difference-propagation worklist.  Variables are
keyed by tuples — ``("L", method, var)`` for locals, ``("G", cls, fld)``
for statics, ``("F", object_id, fld)`` for heap fields.  Objects are
``(object_id, class_name)`` pairs, numbered densely as they are first
allocated, and a points-to set is an int bitmask over those numbers, so
a solver kept alive across edits stays small.

A kept solver follows method-body edits (:meth:`AndersenAnalysis.update`)
instead of re-solving.  Every successor edge carries the number of
constraints that justify it (statements, call links, and field edges
derived from a base's points-to set), so retracting a statement removes
exactly the edges nothing else justifies.  Added constraints propagate
into the existing fixpoint (monotone).  Removed ones reset the keys
forward-reachable from them, reseed those keys from their unaffected
predecessors and allocation sites, and run the worklist again.  An edit
that costs the call graph an edge is refused (``update`` returns
``None``): the caller solves afresh.
"""

import sys
from collections import Counter, deque

from repro.ir.ast import NULL_CLASS, THIS
from repro.ir.types import ClassHierarchy
from repro.util.errors import IRError


def local_key(method_qname, var):
    """Variable key for a local of a method."""
    return ("L", method_qname, var)


def global_key(class_name, field):
    """Variable key for a static field."""
    return ("G", class_name, field)


def field_key(object_id, field):
    """Variable key for an instance field of an abstract object."""
    return ("F", object_id, field)


def method_constraints(method):
    """The solver's view of ``method``'s body: one value tuple per
    statement, in statement order.  Raises :class:`IRError` on an unknown
    statement kind — before any solver state is touched."""
    out = []
    for stmt in method.statements:
        kind = stmt.kind
        if kind in ("alloc", "null"):
            out.append(("new", stmt.target, (stmt.object_id, stmt.class_name)))
        elif kind in ("copy", "cast"):
            out.append(("copy", stmt.source, stmt.target))
        elif kind == "load":
            out.append(("load", stmt.base, stmt.field, stmt.target))
        elif kind == "store":
            out.append(("store", stmt.base, stmt.field, stmt.source))
        elif kind == "staticget":
            out.append(("sget", stmt.class_name, stmt.field, stmt.target))
        elif kind == "staticput":
            out.append(("sput", stmt.class_name, stmt.field, stmt.source))
        elif kind == "call":
            out.append((
                "call", stmt.site_id, stmt.receiver, stmt.class_name,
                stmt.method_name, tuple(stmt.args), stmt.target,
            ))
        elif kind == "return":
            out.append(("ret", stmt.source))
        else:
            raise IRError(f"unknown statement kind {kind!r}")
    return out


class AndersenResult:
    """Read-only view of a solved Andersen analysis (it follows the
    solver's later :meth:`~AndersenAnalysis.update` calls)."""

    def __init__(self, solver):
        self._solver = solver
        self.program = solver.program
        self.hierarchy = solver.hierarchy
        self.call_graph = solver.call_graph

    def points_to(self, key):
        """Points-to set of a variable key: ``{(object_id, class_name)}``."""
        solver = self._solver
        return set(solver._objects_of(solver._pts.get(key, 0)))

    def points_to_local(self, method_qname, var):
        return self.points_to(local_key(method_qname, var))

    def points_to_global(self, class_name, field):
        return self.points_to(global_key(class_name, field))

    def points_to_field(self, object_id, field):
        return self.points_to(field_key(object_id, field))

    @property
    def reachable_methods(self):
        return self.call_graph.reachable_methods

    @property
    def instantiated_classes(self):
        return {cls for cls, count in self._solver._instantiated.items() if count}

    def variable_keys(self):
        """All variable keys with a non-empty points-to set."""
        return list(self._solver._pts)


class AndersenDelta:
    """What one :meth:`AndersenAnalysis.update` changed for the PAG: call
    sites that gained targets, methods that became reachable, and
    whether the edited method's return statements changed."""

    __slots__ = ("sites", "methods", "returns_changed")

    def __init__(self, sites=(), methods=(), returns_changed=False):
        self.sites = set(sites)
        self.methods = set(methods)
        self.returns_changed = returns_changed


class AndersenAnalysis:
    """Run with :meth:`solve`; construct once per program.  A solved
    instance can follow body edits through :meth:`update`."""

    def __init__(self, program):
        if not program.is_finalized:
            raise IRError("program must be finalized before analysis")
        self.program = program
        self.hierarchy = ClassHierarchy(program)
        self._pts = {}  # key -> object bitmask (absent when empty)
        self._succ = {}  # key -> {successor key: justification count}
        self._load_cons = {}
        self._store_cons = {}
        self._vcalls = {}
        self._seeds = {}  # key -> bitmask of the allocations assigned to it
        self._objects = []  # bit -> (object_id, class_name)
        self._object_bits = {}
        self._null_mask = 0
        self._linked = set()
        self._method_cons = {}  # processed method -> its constraints
        self._site_calls = {}  # site id -> (caller qname, call constraint)
        self._pending = {}
        self._worklist = deque()
        self._instantiated = Counter()
        self.call_graph = None  # set in solve()
        #: While an update runs: the links and methods it added.
        self._log = None
        #: One tuple per variable key, shared by every structure above.
        self._keys = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def solve(self):
        """Run to fixpoint and return an :class:`AndersenResult`."""
        from repro.callgraph.graph import CallGraph

        self.call_graph = CallGraph(self.program.entry)
        entry = self.program.entry_method
        self.call_graph.add_method(entry.qualified_name)
        self._process_method(entry)
        self._drain()
        return AndersenResult(self)

    def update(self, method_qname):
        """Patch the fixpoint after ``method_qname``'s body changed (the
        program already re-finalized, with every call site keeping its
        id).  Returns an :class:`AndersenDelta`, or ``None`` when the
        edit cost the call graph an edge — this solver is then stale and
        the caller must solve afresh."""
        method = self.program.lookup_method(method_qname)
        method_qname = sys.intern(method.qualified_name)
        new = method_constraints(method)
        if method_qname not in self._method_cons:
            return AndersenDelta()  # unreachable: nothing solved reads it
        old = self._method_cons[method_qname]
        # Callers emit one exit edge per return, in return order, so a
        # reordering alone already changes their PAG segments.
        returns_changed = [c for c in old if c[0] == "ret"] != [
            c for c in new if c[0] == "ret"
        ]
        old_count, new_count = Counter(old), Counter(new)
        removed = list((old_count - new_count).elements())
        added = list((new_count - old_count).elements())
        if not removed and not added:
            self._method_cons[method_qname] = new
            return AndersenDelta(returns_changed=returns_changed)
        self._log = log = ([], [])
        try:
            damaged = set()
            unlinked = set()
            # Return edges follow _method_cons of the callee, so retract
            # removed returns while every link still sees them, then
            # unlink removed calls against the kept returns.
            for cons in removed:
                if cons[0] == "ret":
                    self._retract_return(method_qname, cons, damaged)
            self._method_cons[method_qname] = list((old_count & new_count).elements())
            for cons in removed:
                if cons[0] != "ret":
                    self._retract(method_qname, cons, damaged, unlinked)
            region = self._reset(damaged)
            self._method_cons[method_qname] = new
            for cons in added:
                if cons[0] == "ret":
                    self._add_return(method_qname, cons)
            for cons in added:
                if cons[0] != "ret":
                    self._process_cons(method_qname, cons)
            self._drain()
        finally:
            self._log = None
        if self._lost_links(unlinked, region):
            return None
        links, methods = log
        return AndersenDelta(
            sites={site for site, callee in links if (site, callee) not in unlinked},
            methods=methods,
            returns_changed=returns_changed,
        )

    # ------------------------------------------------------------------
    # core worklist operations
    # ------------------------------------------------------------------
    def _local(self, method_qname, var):
        key = ("L", method_qname, var)
        return self._keys.setdefault(key, key)

    def _global(self, class_name, field):
        key = ("G", class_name, field)
        return self._keys.setdefault(key, key)

    def _field(self, object_id, field):
        key = ("F", object_id, field)
        return self._keys.setdefault(key, key)

    def _object_bit(self, obj):
        bit = self._object_bits.get(obj)
        if bit is None:
            bit = self._object_bits[obj] = len(self._objects)
            self._objects.append(obj)
            if obj[1] == NULL_CLASS:
                self._null_mask |= 1 << bit
        return bit

    def _objects_of(self, bits):
        """The ``(object_id, class_name)`` pairs of a bitmask."""
        objects = self._objects
        out = []
        while bits:
            low = bits & -bits
            out.append(objects[low.bit_length() - 1])
            bits ^= low
        return out

    def _add_objects(self, key, bits):
        current = self._pts.get(key, 0)
        new = bits & ~current
        if not new:
            return
        self._pts[key] = current | new
        pending = self._pending.get(key)
        if pending is None:
            self._pending[key] = new
            self._worklist.append(key)
        else:
            self._pending[key] = pending | new

    def _add_edge(self, src, dst):
        successors = self._succ.get(src)
        if successors is None:
            successors = self._succ[src] = {}
        count = successors.get(dst)
        if count:
            successors[dst] = count + 1
            return
        successors[dst] = 1
        existing = self._pts.get(src)
        if existing:
            self._add_objects(dst, existing)

    def _remove_edge(self, src, dst, damaged):
        """Drop one justification of ``src -> dst``; the last one takes
        the edge, and ``dst`` may then lose objects."""
        successors = self._succ[src]
        count = successors[dst] - 1
        if count:
            successors[dst] = count
            return
        del successors[dst]
        if not successors:
            del self._succ[src]
        damaged.add(dst)

    def _drain(self):
        while self._worklist:
            key = self._worklist.popleft()
            delta = self._pending.pop(key, None)
            if delta:
                self._propagate_from(key, delta)

    def _propagate_from(self, key, delta):
        for successor in self._succ.get(key, ()):
            self._add_objects(successor, delta)
        live = delta & ~self._null_mask
        if not live:
            return
        loads = self._load_cons.get(key)
        stores = self._store_cons.get(key)
        vcalls = self._vcalls.get(key)
        if not (loads or stores or vcalls):
            return
        objects = self._objects_of(live)
        for field, target in loads or ():
            for obj in objects:
                self._add_edge(self._field(obj[0], field), target)
        for field, source in stores or ():
            for obj in objects:
                self._add_edge(source, self._field(obj[0], field))
        for caller, call in vcalls or ():
            for obj in objects:
                callee = self.hierarchy.dispatch(obj[1], call[4])
                if callee is not None:
                    self._link_call(caller, call, callee)

    # ------------------------------------------------------------------
    # constraint generation
    # ------------------------------------------------------------------
    def _process_method(self, method):
        qname = sys.intern(method.qualified_name)
        if qname in self._method_cons:
            return
        constraints = self._method_cons[qname] = method_constraints(method)
        if self._log is not None:
            self._log[1].append(qname)
        for cons in constraints:
            self._process_cons(qname, cons)

    def _process_cons(self, qname, cons):
        kind = cons[0]
        if kind == "new":
            obj = cons[2]
            if obj[1] != NULL_CLASS:
                self._instantiated[obj[1]] += 1
            bit = 1 << self._object_bit(obj)
            key = self._local(qname, cons[1])
            self._seeds[key] = self._seeds.get(key, 0) | bit
            self._add_objects(key, bit)
        elif kind == "copy":
            self._add_edge(self._local(qname, cons[1]), self._local(qname, cons[2]))
        elif kind == "load":
            base = self._local(qname, cons[1])
            target = self._local(qname, cons[3])
            self._load_cons.setdefault(base, []).append((cons[2], target))
            for obj in self._settled_objects(base):
                self._add_edge(self._field(obj[0], cons[2]), target)
        elif kind == "store":
            base = self._local(qname, cons[1])
            source = self._local(qname, cons[3])
            self._store_cons.setdefault(base, []).append((cons[2], source))
            for obj in self._settled_objects(base):
                self._add_edge(source, self._field(obj[0], cons[2]))
        elif kind == "sget":
            self._add_edge(self._global(cons[1], cons[2]), self._local(qname, cons[3]))
        elif kind == "sput":
            self._add_edge(self._local(qname, cons[3]), self._global(cons[1], cons[2]))
        elif kind == "call":
            self._process_call(qname, cons)
        # "ret": linked per call site in _link_call

    def _live_objects(self, key):
        """The non-null objects of ``key``'s points-to set."""
        return self._objects_of(self._pts.get(key, 0) & ~self._null_mask)

    def _settled_objects(self, key):
        """The non-null objects ``key`` has already propagated.  A new
        constraint on ``key`` handles only these; the worklist brings it
        the pending rest, so each (constraint, object) pair justifies its
        derived edge exactly once."""
        unsettled = self._null_mask | self._pending.get(key, 0)
        return self._objects_of(self._pts.get(key, 0) & ~unsettled)

    def _process_call(self, qname, call):
        self._site_calls[call[1]] = (qname, call)
        if call[2] is not None:
            receiver = self._local(qname, call[2])
            self._vcalls.setdefault(receiver, []).append((qname, call))
            for obj in self._settled_objects(receiver):
                callee = self.hierarchy.dispatch(obj[1], call[4])
                if callee is not None:
                    self._link_call(qname, call, callee)
        else:
            callee = self.hierarchy.dispatch(call[3], call[4])
            if callee is not None and callee.is_static:
                self._link_call(qname, call, callee)

    def _call_edges(self, caller, call, callee):
        """The ``(src, dst)`` edges one link justifies: actuals to
        formals, and each return of the callee to the call target."""
        callee_qname = sys.intern(callee.qualified_name)
        edges = []
        if call[2] is not None and not callee.is_static:
            edges.append((self._local(caller, call[2]), self._local(callee_qname, THIS)))
        for actual, formal in zip(call[5], callee.params):
            edges.append((self._local(caller, actual), self._local(callee_qname, formal)))
        if call[6] is not None:
            target = self._local(caller, call[6])
            for cons in self._method_cons[callee_qname]:
                if cons[0] == "ret":
                    edges.append((self._local(callee_qname, cons[1]), target))
        return edges

    def _link_call(self, caller, call, callee):
        """Wire actuals to formals and returns to the call target."""
        key = (call[1], sys.intern(callee.qualified_name))
        if key in self._linked:
            return
        self._linked.add(key)
        if self._log is not None:
            self._log[0].append(key)
        self.call_graph.add_edge(call[1], caller, key[1])
        self._process_method(callee)
        for src, dst in self._call_edges(caller, call, callee):
            self._add_edge(src, dst)

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def _links_into(self, qname):
        """``(caller, call)`` of every linked site that may call ``qname``."""
        return [self._site_calls[site] for site in sorted(self.call_graph.call_sites_into(qname))]

    def _retract_return(self, qname, cons, damaged):
        source = self._local(qname, cons[1])
        for caller, call in self._links_into(qname):
            if call[6] is not None:
                self._remove_edge(source, self._local(caller, call[6]), damaged)

    def _add_return(self, qname, cons):
        source = self._local(qname, cons[1])
        for caller, call in self._links_into(qname):
            if call[6] is not None:
                self._add_edge(source, self._local(caller, call[6]))

    def _retract(self, qname, cons, damaged, unlinked):
        """Undo what :meth:`_process_cons` did for one removed constraint."""
        kind = cons[0]
        if kind == "new":
            obj = cons[2]
            if obj[1] != NULL_CLASS:
                self._instantiated[obj[1]] -= 1
            key = self._local(qname, cons[1])
            seeds = self._seeds[key] & ~(1 << self._object_bits[obj])
            if seeds:
                self._seeds[key] = seeds
            else:
                del self._seeds[key]
            damaged.add(key)
        elif kind == "copy":
            self._remove_edge(self._local(qname, cons[1]), self._local(qname, cons[2]), damaged)
        elif kind == "load":
            base = self._local(qname, cons[1])
            target = self._local(qname, cons[3])
            self._drop_entry(self._load_cons, base, (cons[2], target))
            for obj in self._live_objects(base):
                self._remove_edge(self._field(obj[0], cons[2]), target, damaged)
        elif kind == "store":
            base = self._local(qname, cons[1])
            source = self._local(qname, cons[3])
            self._drop_entry(self._store_cons, base, (cons[2], source))
            for obj in self._live_objects(base):
                self._remove_edge(source, self._field(obj[0], cons[2]), damaged)
        elif kind == "sget":
            self._remove_edge(
                self._global(cons[1], cons[2]), self._local(qname, cons[3]), damaged
            )
        elif kind == "sput":
            self._remove_edge(
                self._local(qname, cons[3]), self._global(cons[1], cons[2]), damaged
            )
        elif kind == "call":
            site = cons[1]
            del self._site_calls[site]
            if cons[2] is not None:
                self._drop_entry(self._vcalls, self._local(qname, cons[2]), (qname, cons))
            for callee_qname in sorted(self.call_graph.targets(site)):
                callee = self.program.lookup_method(callee_qname)
                for src, dst in self._call_edges(qname, cons, callee):
                    self._remove_edge(src, dst, damaged)
                self._linked.discard((site, callee_qname))
                self.call_graph.remove_edge(site, callee_qname)
                unlinked.add((site, callee_qname))

    @staticmethod
    def _drop_entry(index, key, entry):
        entries = index[key]
        entries.remove(entry)
        if not entries:
            del index[key]

    def _reset(self, damaged):
        """Empty every key whose points-to set may depend on a retracted
        constraint, drop the field edges derived from those keys as
        bases, and reseed them.  Returns the reset region."""
        pts = self._pts
        null = self._null_mask
        region = set()
        stack = list(damaged)
        while stack:
            key = stack.pop()
            if key in region:
                continue
            region.add(key)
            stack.extend(self._succ.get(key, ()))
            stack.extend(target for _field, target in self._load_cons.get(key, ()))
            stores = self._store_cons.get(key)
            if stores:
                objects = self._objects_of(pts.get(key, 0) & ~null)
                stack.extend(
                    self._field(obj[0], field) for field, _source in stores for obj in objects
                )
        in_region = set()  # targets of these edges are reset already
        for key in region:
            objects = self._objects_of(pts.pop(key, 0) & ~null)
            self._pending.pop(key, None)
            for field, target in self._load_cons.get(key, ()):
                for obj in objects:
                    self._remove_edge(self._field(obj[0], field), target, in_region)
            for field, source in self._store_cons.get(key, ()):
                for obj in objects:
                    self._remove_edge(source, self._field(obj[0], field), in_region)
        if not region:
            return region
        for key in region:
            seeds = self._seeds.get(key)
            if seeds:
                self._add_objects(key, seeds)
        for src, successors in self._succ.items():
            bits = pts.get(src)
            if bits and src not in region and not region.isdisjoint(successors):
                for dst in successors:
                    if dst in region:
                        self._add_objects(dst, bits)
        return region

    def _lost_links(self, unlinked, region):
        """Did the update cost the call graph an edge?  A retracted call
        must be re-linked to every old target, and a reset receiver must
        still dispatch to every target linked on it."""
        if any(link not in self._linked for link in unlinked):
            return True
        for receiver in region:
            calls = self._vcalls.get(receiver)
            if not calls:
                continue
            classes = {obj[1] for obj in self._live_objects(receiver)}
            for _caller, call in calls:
                dispatched = {
                    callee.qualified_name
                    for callee in (self.hierarchy.dispatch(cls, call[4]) for cls in classes)
                    if callee is not None
                }
                if not self.call_graph.targets(call[1]) <= dispatched:
                    return True
        return False
