"""The query engine layer: batched, shared-cache, session-oriented.

Hosts construct one :class:`PointsToEngine` per program and issue all
traffic — single queries, query batches, alias checks, whole client
workloads, code edits — through it:

.. code-block:: python

    from repro.engine import CachePolicy, EnginePolicy, PointsToEngine

    engine = PointsToEngine.for_program(
        program,
        EnginePolicy(cache=CachePolicy(max_entries=4096)),
    )
    batch = engine.query_batch([("Main.main", "d"), ("Main.main", "c")])
    print(batch.stats.hit_rate, engine.stats())

The engine owns the analysis (chosen by
:class:`~repro.engine.policy.EnginePolicy`), the summary store (bounded
and/or remote, per :class:`~repro.engine.policy.CachePolicy`), the
batch scheduler (:mod:`repro.engine.scheduler`) and the edit machinery
(:mod:`repro.engine.session`).  A batch runs its planned traversals on
the calling thread.
"""

from repro.engine.core import EngineStats, PointsToEngine
from repro.engine.policy import ANALYSES, CachePolicy, EnginePolicy, resolve_analysis
from repro.engine.scheduler import (
    BatchPlan,
    BatchResult,
    BatchStats,
    QuerySpec,
    as_spec,
    plan_batch,
)
from repro.engine.session import EditSession

__all__ = [
    "ANALYSES",
    "BatchPlan",
    "BatchResult",
    "BatchStats",
    "CachePolicy",
    "EditSession",
    "EnginePolicy",
    "EngineStats",
    "PointsToEngine",
    "QuerySpec",
    "as_spec",
    "plan_batch",
    "resolve_analysis",
]
