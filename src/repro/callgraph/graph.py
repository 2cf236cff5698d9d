"""Call-graph data structure shared by Andersen and RTA construction.

A call graph maps each call site (by its unique id) to the set of target
methods, records which methods are reachable from the entry, and computes
the strongly connected components of the method-level graph.  Call sites
whose caller and callee share an SCC are *recursive*; the demand analyses
treat those sites context-insensitively ("recursion cycles collapsed",
Section 5.1), which keeps context stacks finite.
"""


class CallGraph:
    """Resolved call edges plus reachability and recursion information.

    Methods are identified by their qualified name (``"Class.method"``).
    """

    def __init__(self, entry):
        self.entry = entry
        self._reachable = set()
        self._targets = {}
        self._callers = {}
        self._site_caller = {}
        #: caller -> its call sites with at least one target, so the
        #: method-level successor map is one pass over the sites.
        self._sites_of = {}
        self._scc_of = None
        self._recursive_sites = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_method(self, qualified_name):
        """Mark ``qualified_name`` reachable."""
        if qualified_name not in self._reachable:
            self._reachable.add(qualified_name)
            self._invalidate()

    def add_edge(self, site_id, caller, callee):
        """Record that call site ``site_id`` (in ``caller``) may invoke
        ``callee``.  Returns True when the edge is new."""
        self._site_caller[site_id] = caller
        self._sites_of.setdefault(caller, set()).add(site_id)
        targets = self._targets.setdefault(site_id, set())
        if callee in targets:
            return False
        targets.add(callee)
        self._callers.setdefault(callee, set()).add(site_id)
        self.add_method(caller)
        self.add_method(callee)
        self._invalidate()
        return True

    def remove_edge(self, site_id, callee):
        """Forget that ``site_id`` may invoke ``callee`` (an incremental
        solver retracting a call).  Reachability is left as it is; a site
        left without targets is forgotten entirely."""
        targets = self._targets.get(site_id)
        if targets is None or callee not in targets:
            return
        targets.discard(callee)
        callers = self._callers[callee]
        callers.discard(site_id)
        if not callers:
            del self._callers[callee]
        if not targets:
            del self._targets[site_id]
            caller = self._site_caller.pop(site_id)
            sites = self._sites_of[caller]
            sites.discard(site_id)
            if not sites:
                del self._sites_of[caller]
        self._invalidate()

    def _invalidate(self):
        self._scc_of = None
        self._recursive_sites = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def reachable_methods(self):
        """Set of reachable method qualified names."""
        return set(self._reachable)

    def is_reachable(self, qualified_name):
        return qualified_name in self._reachable

    def targets(self, site_id):
        """Target methods of a call site (empty when unresolved)."""
        return set(self._targets.get(site_id, ()))

    def caller_of_site(self, site_id):
        return self._site_caller.get(site_id)

    def call_sites_into(self, qualified_name):
        """Call-site ids that may invoke ``qualified_name``."""
        return set(self._callers.get(qualified_name, ()))

    def edges(self):
        """Iterate ``(site_id, caller, callee)`` triples deterministically."""
        for site_id in sorted(self._targets):
            caller = self._site_caller[site_id]
            for callee in sorted(self._targets[site_id]):
                yield site_id, caller, callee

    def method_successors(self, qualified_name):
        """Methods directly called from ``qualified_name``."""
        result = set()
        for site_id in self._sites_of.get(qualified_name, ()):
            result.update(self._targets[site_id])
        return result

    # ------------------------------------------------------------------
    # recursion (SCC collapse)
    # ------------------------------------------------------------------
    def _compute_sccs(self):
        """Iterative Tarjan over the method-level graph."""
        successors = {}
        for site_id, targets in self._targets.items():
            successors.setdefault(self._site_caller[site_id], set()).update(targets)
        successors = {m: sorted(callees) for m, callees in successors.items()}
        index_of = {}
        lowlink = {}
        on_stack = set()
        stack = []
        scc_of = {}
        counter = [0]
        scc_count = [0]

        for root in sorted(self._reachable):
            if root in index_of:
                continue
            work = [(root, iter(successors.get(root, ())))]
            index_of[root] = lowlink[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, child_iter = work[-1]
                advanced = False
                for child in child_iter:
                    if child not in index_of:
                        index_of[child] = lowlink[child] = counter[0]
                        counter[0] += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(successors.get(child, ()))))
                        advanced = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index_of[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index_of[node]:
                    scc_id = scc_count[0]
                    scc_count[0] += 1
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc_of[member] = scc_id
                        if member == node:
                            break
        self._scc_of = scc_of

    def scc_of(self, qualified_name):
        """SCC id of a reachable method."""
        if self._scc_of is None:
            self._compute_sccs()
        return self._scc_of[qualified_name]

    @property
    def recursive_sites(self):
        """Call-site ids participating in recursion (caller and some
        callee in the same SCC, or a self-call)."""
        if self._recursive_sites is None:
            if self._scc_of is None:
                self._compute_sccs()
            sites = set()
            for site_id, targets in self._targets.items():
                caller = self._site_caller[site_id]
                caller_scc = self._scc_of.get(caller)
                for callee in targets:
                    if callee == caller or self._scc_of.get(callee) == caller_scc:
                        sites.add(site_id)
                        break
            self._recursive_sites = sites
        return set(self._recursive_sites)

    def __repr__(self):
        n_edges = sum(len(t) for t in self._targets.values())
        return (
            f"CallGraph(entry={self.entry!r}, methods={len(self._reachable)}, "
            f"edges={n_edges})"
        )
