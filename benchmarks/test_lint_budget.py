"""Runtime budget guard for the static-analysis pass.

The lint gate runs at commit time and in every CI job, so its latency is
a developer-facing cost: if a new rule (or a CFG/dataflow change in
``tools/lintkit/flow``) makes the full-tree run crawl, the gate stops being
something people run before every commit.  This guard re-times the
full-tree engine run — all rules, flow analyses included — and fails
when the **best-of-3** wall time exceeds a committed budget.

The budget is deliberately generous (the measured run sits around 1.7 s
for ~110 files on the reference host; the budget is 15 s) because shared
hosts carry multi-x ambient load, while the regressions this lane exists
to catch — an accidentally quadratic dataflow worklist, a cache that
stopped caching, a rule that re-parses every module — are order-of-
magnitude blowups that sail past any plausible tolerance.

``time.perf_counter`` is the sanctioned duration timer
(docs/STATIC_ANALYSIS.md, ``determinism-wall-clock``).

Run with the bench lane::

    PYTHONPATH=src pytest benchmarks/test_lint_budget.py -m bench

Knob: ``REPRO_LINT_BUDGET_SECONDS`` overrides the budget on hosts much
slower than the reference machine.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from .conftest import record, run_once

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

# The linter is a development tool beside its gate script, not part of
# ``repro``.
sys.path.append(str(REPO_ROOT / "tools"))
from lintkit import LintEngine  # noqa: E402

BUDGET_SECONDS = float(os.environ.get("REPRO_LINT_BUDGET_SECONDS", "15.0"))
REPETITIONS = 3


def _full_tree_run() -> tuple[float, int]:
    """One full-tree engine run; returns (seconds, files scanned)."""
    start = time.perf_counter()
    result = LintEngine([SRC_ROOT]).run()
    return time.perf_counter() - start, result.files_scanned


def test_full_tree_lint_stays_within_budget(benchmark):
    timings = []
    files = 0
    for _ in range(REPETITIONS):
        seconds, files = _full_tree_run()
        timings.append(seconds)
    best = min(timings)

    def report():
        return best

    run_once(benchmark, report)
    record(
        benchmark,
        f"lint budget: best-of-{REPETITIONS} {best:.3f}s over {files} "
        f"file(s), budget {BUDGET_SECONDS:.1f}s",
        best_seconds=best,
        files_scanned=files,
        budget_seconds=BUDGET_SECONDS,
    )

    assert files > 50, (
        f"engine scanned only {files} files — the budget guard is no "
        "longer timing the real tree"
    )
    assert best <= BUDGET_SECONDS, (
        f"full-tree lint best-of-{REPETITIONS} took {best:.2f}s, over the "
        f"{BUDGET_SECONDS:.1f}s budget; a rule or flow analysis has "
        "regressed (set REPRO_LINT_BUDGET_SECONDS on slow hosts)"
    )
