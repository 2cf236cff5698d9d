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
from repro.devtools.cli import ALL_RULES, main
from repro.devtools.registry import HOT_FUNCTIONS, HotFunction, hot_function_ids

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
