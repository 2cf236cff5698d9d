"""Edit sessions — the engine's IDE/JIT maintenance surface.

The paper motivates DYNSUM for hosts where "the program undergoes
constantly a lot of changes" (Sections 1, 5.3, 7).  An
:class:`EditSession` is how such a host talks to the engine: it applies
method-body edits through the underlying
:class:`~repro.analysis.incremental.IncrementalAnalysisSession` (which
patches the Andersen fixpoint and the PAG in place and invalidates, in
the live store, exactly the summaries an edit can stale), or cheaply
invalidates a method's summaries without reparsing anything.  A failed
edit leaves the engine as it was.  Queries keep flowing through the engine the
whole time — post-edit answers are identical to a cold start, only
cheaper, and the session keeps the transcript of what each edit cost.
"""


class EditSession:
    """A transcript of edits applied to a program-backed engine.

    Obtained from :meth:`~repro.engine.core.PointsToEngine.edit_session`;
    many sessions may be open at once (they share the engine's state —
    the transcript is per session, the effects are global).
    """

    __slots__ = ("engine", "reports")

    def __init__(self, engine):
        self.engine = engine
        #: :class:`~repro.analysis.incremental.EditReport` per edit, in
        #: application order.
        self.reports = []

    # ------------------------------------------------------------------
    # edits (delegation to the incremental machinery)
    # ------------------------------------------------------------------
    def replace_body(self, method_qname, build_fn):
        """Replace ``method_qname``'s statements and re-analyse.

        ``build_fn`` receives a fresh
        :class:`~repro.ir.builder.MethodBuilder` over the emptied method.
        Returns the :class:`~repro.analysis.incremental.EditReport`.
        """
        report = self.engine._incremental.replace_body(method_qname, build_fn)
        self.reports.append(report)
        return report

    def edit(self, method_qname, mutate_fn):
        """Arbitrary in-place mutation (``mutate_fn(method)``) followed by
        re-analysis."""
        report = self.engine._incremental.edit(method_qname, mutate_fn)
        self.reports.append(report)
        return report

    def invalidate(self, method_qname):
        """Drop one method's cached summaries without touching the
        program — the lighter hammer for hosts that track their own
        dirtiness.  Returns the number of summaries dropped."""
        return self.engine.invalidate_method(method_qname)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def edit_count(self):
        return len(self.reports)

    @property
    def summary_count(self):
        return self.engine._incremental.summary_count

    def __repr__(self):
        return f"EditSession({self.edit_count} edit(s), {self.engine!r})"
