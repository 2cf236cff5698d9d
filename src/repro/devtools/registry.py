"""The registries behind the codebase-specific lint rules.

``repro-lint`` rules are deliberately *not* generic: each one encodes
an invariant this repo already relies on, and the registries below are
the single place where "which code is under that invariant" lives.

* :data:`HOT_FUNCTIONS` — the traversal inner loops kept at the
  CPython dispatch floor.  **HOT001** checks everything inside their
  loop bodies; the perf-smoke CI job cross-checks the registry against
  what ``repro-perf`` actually measures (see
  :func:`repro.perf.harness.measured_hot_functions`), so a renamed or
  newly-hot function cannot silently escape the rule.  To register a
  new hot function, add ``"src-relative/path.py":
  (HotFunction("QualName"),)`` here *and* list it in the harness's
  measured map if ``repro-perf`` times it.  Entries with
  ``impl="native"`` name C kernel drivers (``kernel.c``): they are
  hot — the perf cross-check still covers them — but HOT001's
  Python-bytecode hygiene checks do not apply; the rule instead
  verifies the registered symbol exists in the C source.
* :data:`ERROR_DISCIPLINE_PREFIXES` — the wire/serving paths where a
  broad ``except`` must re-raise or produce a typed
  :class:`~repro.api.protocol.WireError` / ``ErrorResponse``
  (**ERR001**).

Guarded fields (**LOCK001**) are *not* registered here: they are
declared in place with a ``# guarded-by: <lock_attr>`` comment on the
``self.<field> = ...`` line, which keeps the declaration next to the
lock it names.
"""

from typing import Dict, NamedTuple, Tuple


class HotFunction(NamedTuple):
    """One registered hot function.

    ``name`` is the qualified name (``Class.method`` for methods, bare
    names for module-level functions, C symbol names for native
    entries); ``impl`` is ``"python"`` for CPython loop bodies HOT001
    checks hygienically, ``"native"`` for C kernel drivers it only
    existence-checks.
    """

    name: str
    impl: str = "python"


#: Hot traversal functions, keyed by path relative to the repo root.
HOT_FUNCTIONS: Dict[str, Tuple[HotFunction, ...]] = {
    "src/repro/analysis/ppta.py": (HotFunction("_run_ppta_array"),),
    "src/repro/analysis/dynsum.py": (HotFunction("DynSum._explore_array"),),
    "src/repro/native/kernel.c": (
        HotFunction("rk_ppta", impl="native"),
        HotFunction("rk_dynsum", impl="native"),
    ),
}

#: Path prefixes that count as wire/serving code for ERR001.
ERROR_DISCIPLINE_PREFIXES: Tuple[str, ...] = (
    "src/repro/api/",
    "src/repro/cacheserver/",
)

#: Path prefixes where ERR002 requires every fail-open except site to
#: account the degradation in a stats counter (the serving client and
#: its service-side siblings — the layer whose correctness stance is
#: "degrade to local computation, observably").
FAIL_OPEN_PREFIXES: Tuple[str, ...] = ("src/repro/cacheserver/",)

#: Where WIRE001 finds the protocol schema and its consumers.
WIRE_PROTOCOL_SUFFIX = "api/protocol.py"
WIRE_SERVICE_SUFFIX = "api/service.py"


def hot_function_ids() -> Tuple[str, ...]:
    """Every registered hot function as ``"path::QualName"``, sorted —
    the exchange format the perf harness's measured map is compared
    against in CI and in ``tests/test_lint_rules.py``."""
    ids = []
    for path, functions in HOT_FUNCTIONS.items():
        for function in functions:
            ids.append(f"{path}::{function.name}")
    return tuple(sorted(ids))
