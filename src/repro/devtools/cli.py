"""The ``repro-lint`` console entry point.

Exit codes: ``0`` clean (every finding suppressed or baselined), ``1``
unsuppressed findings, ``2`` usage or baseline-config error.  See the
README's "Static analysis & code health" section for the rule
catalogue and the suppression/baseline workflow.
"""

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.devtools.analyzer import (
    BaselineError,
    Finding,
    Rule,
    collect_findings,
    load_baseline,
    load_project,
    split_findings,
    write_baseline,
)
from repro.devtools.rules_err import FailOpenAccounting, TypedErrorDiscipline
from repro.devtools.rules_hot import HotLoopHygiene
from repro.devtools.rules_lock import LockDiscipline
from repro.devtools.rules_wire import ProtocolDrift

#: Every shipped rule, in catalogue order.
ALL_RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in (
        LockDiscipline(),
        HotLoopHygiene(),
        ProtocolDrift(),
        TypedErrorDiscipline(),
        FailOpenAccounting(),
    )
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Self-hosted static analysis for this repo's concurrency, "
            "hot-path, error-handling and wire-protocol invariants."
        ),
    )
    parser.add_argument(
        "--root",
        default=".",
        help="project root (baseline + README resolve against it; "
        "default: cwd)",
    )
    parser.add_argument(
        "--paths",
        nargs="+",
        default=None,
        help="files/directories to lint (default: <root>/src)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE",
        help="run only this rule id (repeatable)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON path (default: <root>/lint-baseline.json)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate the baseline from current findings (existing "
        "justifications are kept; new entries get a TODO the loader "
        "refuses, forcing review)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report on stdout",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)

    if args.list_rules:
        for rule_id, rule in sorted(ALL_RULES.items()):
            print(f"{rule_id}  {rule.summary}")
        return 0

    if args.rule:
        unknown = [rule_id for rule_id in args.rule if rule_id not in ALL_RULES]
        if unknown:
            print(
                f"repro-lint: unknown rule(s) {', '.join(unknown)} "
                f"(known: {', '.join(sorted(ALL_RULES))})",
                file=sys.stderr,
            )
            return 2
        rules: List[Rule] = [ALL_RULES[rule_id] for rule_id in args.rule]
    else:
        rules = list(ALL_RULES.values())

    root = Path(args.root)
    if not root.is_dir():
        print(f"repro-lint: --root {args.root!r} is not a directory",
              file=sys.stderr)
        return 2
    paths = (
        [Path(p) for p in args.paths]
        if args.paths
        else [root / "src"]
    )
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(
            f"repro-lint: no such path(s): {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    baseline_path = (
        Path(args.baseline) if args.baseline else root / "lint-baseline.json"
    )

    project = load_project(root, paths)
    findings = collect_findings(project, rules)

    if args.write_baseline:
        try:
            existing = load_baseline(baseline_path)
        except BaselineError:
            existing = {}
        write_baseline(baseline_path, findings, existing)
        print(
            f"repro-lint: wrote {len(findings)} finding(s) to "
            f"{baseline_path}"
        )
        return 0

    try:
        baseline = load_baseline(baseline_path)
    except BaselineError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    fresh, suppressed, baselined = split_findings(project, findings, baseline)

    if args.json:
        report = {
            "root": str(project.root),
            "rules": sorted(rule.id for rule in rules),
            "counts": {
                "fresh": len(fresh),
                "suppressed": len(suppressed),
                "baselined": len(baselined),
            },
            "findings": [finding.to_json() for finding in fresh],
            "baselined": [finding.to_json() for finding in baselined],
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for finding in fresh:
            print(finding.format())
        summary = (
            f"repro-lint: {len(fresh)} finding(s), "
            f"{len(suppressed)} suppressed, {len(baselined)} baselined"
        )
        print(summary, file=sys.stderr)

    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main())
