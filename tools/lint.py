#!/usr/bin/env python
"""Commit-time gate for the project's static-analysis pass.

Usage::

    python tools/lint.py                      # lint src/
    python tools/lint.py --rules determinism  # one family (or rule id)
    python tools/lint.py --list-rules         # the catalog
    python tools/lint.py tests/lint_fixtures/badtree
    python tools/lint.py --json               # machine-readable report

Exit codes: 0 — no unsuppressed finding (justified suppressions are
counted but do not gate); 2 — at least one unsuppressed finding; 1 —
usage or internal error.  The analysis package, ``lintkit``, sits beside
this script and is imported from here.  See docs/STATIC_ANALYSIS.md for
the rule catalog and suppression policy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from lintkit import LintEngine, all_rules, select_rules

REPO_ROOT = Path(__file__).resolve().parent.parent


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="tools/lint.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "roots",
        nargs="*",
        type=Path,
        help="directories containing the top-level package dir "
        "(default: <repo>/src)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids or families to run "
        "(default: all)",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    return parser.parse_args(argv)


def _list_rules() -> int:
    for rule in all_rules():
        print(f"{rule.rule_id}  [{rule.family}/{rule.severity}]")
        print(f"    {rule.description}")
        print(f"    enforces: {rule.citation}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if args.list_rules:
        return _list_rules()

    roots = args.roots or [REPO_ROOT / "src"]
    for root in roots:
        if not root.is_dir():
            print(f"error: not a directory: {root}", file=sys.stderr)
            return 1
    try:
        rules = select_rules(args.rules.split(",")) if args.rules else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result = LintEngine(roots, rules=rules).run()
    if args.json:
        payload = {
            "summary": result.summary(),
            "violations": [dataclasses.asdict(v) for v in result.violations],
            "suppressed": [dataclasses.asdict(v) for v in result.suppressed],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for violation in result.violations:
            print(violation.render())
        print(result.summary())
    return 2 if result.violations else 0


if __name__ == "__main__":
    sys.exit(main())
