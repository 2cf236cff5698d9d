"""Self-hosted developer tooling: the ``repro-lint`` static-analysis
pass that mechanizes this repo's concurrency, hot-path, error and
wire-protocol invariants (a static-analysis reproduction should dogfood
its own discipline).

Entry points: the ``repro-lint`` console script
(:func:`repro.devtools.cli.main`), or programmatically::

    from repro.devtools import ALL_RULES, collect_findings, load_project

    project = load_project(Path("."), [Path("src")])
    findings = collect_findings(project, list(ALL_RULES.values()))
"""

import importlib
from typing import Any

from repro.devtools.analyzer import (
    BaselineError,
    Finding,
    Module,
    Project,
    Rule,
    collect_findings,
    load_baseline,
    load_project,
    split_findings,
    write_baseline,
)
from repro.devtools.registry import HOT_FUNCTIONS, HotFunction, hot_function_ids

#: Names exported lazily (PEP 562), by the module that defines them.
#: ``python -m repro.devtools.cli`` (``repro-lint`` run from a checkout)
#: imports this package first; importing the CLI here would load it
#: once under its own name and then run it again as ``__main__``.
_LAZY = {
    "ALL_RULES": "repro.devtools.cli",
    "main": "repro.devtools.cli",
}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "ALL_RULES",
    "BaselineError",
    "Finding",
    "HOT_FUNCTIONS",
    "HotFunction",
    "Module",
    "Project",
    "Rule",
    "collect_findings",
    "hot_function_ids",
    "load_baseline",
    "load_project",
    "main",
    "split_findings",
    "write_baseline",
]
