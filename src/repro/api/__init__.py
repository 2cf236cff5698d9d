"""The versioned wire API: serializable queries, results, and summaries.

This package is the engine's external surface — everything a process
boundary needs to speak points-to:

* :mod:`repro.api.protocol` — frozen, versioned request/response
  dataclasses (the engine vocabulary ``query``/``batch``/``alias``/
  ``invalidate``/``stats`` plus, since 1.1, the store-level ops
  ``lookup``/``store``/``store-stats`` the cache service speaks) and
  the typed error hierarchy;
* :mod:`repro.api.codec` — canonical JSON with strict,
  annotation-derived validation (malformed input yields a typed
  :class:`ProtocolError`, never a traceback);
* :mod:`repro.api.snapshot` — the ``SummarySnapshot`` format:
  summary stores round-trip to JSON preserving entries, LRU recency,
  capacity policy, and counters (the warm-start/persistence seam);
* :mod:`repro.api.service` — :class:`PointsToService`, dispatching
  decoded requests to a :class:`~repro.engine.core.PointsToEngine`,
  plus the ``repro-serve`` JSON-lines stdio server.

.. code-block:: python

    from repro.api import PointsToService, decode_request, encode

    service = PointsToService(engine)
    print(service.handle_line('{"kind":"stats","protocol_version":"1.0"}'))

    engine.save_cache("cache.json")                     # persistence...
    warm = EnginePolicy(warm_start="cache.json")        # ...and warm start
"""

import importlib

from repro.api.codec import decode_request, decode_response, encode, to_wire
from repro.api.protocol import (
    PROTOCOL_VERSION,
    REQUEST_KINDS,
    RESPONSE_KINDS,
    AliasRequest,
    AliasResponse,
    BatchRequest,
    BatchResponse,
    ErrorResponse,
    InvalidateRequest,
    InvalidateResponse,
    LookupRequest,
    LookupResponse,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    RemoteStoreStats,
    SnapshotError,
    StatsRequest,
    StatsResponse,
    StoreRequest,
    StoreResponse,
    StoreStatsRequest,
    StoreStatsResponse,
    WireError,
    WireObject,
    WireVerdict,
    check_version,
)
from repro.api.snapshot import (
    SNAPSHOT_VERSION,
    SummarySnapshot,
    load_snapshot,
    load_store,
    save_store,
)

#: Names exported lazily (PEP 562), by the module that defines them.
#: ``python -m repro.api.service`` (``repro-serve`` run from a checkout)
#: imports this package first; importing the service here would load it
#: once under its own name and then run it again as ``__main__``.
_LAZY = {
    "CLIENT_REGISTRY": "repro.api.service",
    "PointsToService": "repro.api.service",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "AliasRequest",
    "AliasResponse",
    "BatchRequest",
    "BatchResponse",
    "CLIENT_REGISTRY",
    "ErrorResponse",
    "InvalidateRequest",
    "InvalidateResponse",
    "LookupRequest",
    "LookupResponse",
    "PROTOCOL_VERSION",
    "PointsToService",
    "ProtocolError",
    "QueryRequest",
    "QueryResponse",
    "REQUEST_KINDS",
    "RESPONSE_KINDS",
    "RemoteStoreStats",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "StatsRequest",
    "StatsResponse",
    "StoreRequest",
    "StoreResponse",
    "StoreStatsRequest",
    "StoreStatsResponse",
    "SummarySnapshot",
    "WireError",
    "WireObject",
    "WireVerdict",
    "check_version",
    "decode_request",
    "decode_response",
    "encode",
    "load_snapshot",
    "load_store",
    "save_store",
    "to_wire",
]
