"""Project-specific static analysis: the runtime disciplines, enforced
at commit time.

The reproduction depends on three disciplines — byte-deterministic
replays (golden traces, the fixed-seed differential oracle),
zero-overhead-off module-slot hooks, and the DESIGN.md layering
direction — that the tests enforce at *runtime*.  This package enforces them *statically*: an AST pass over
``src/repro`` with one rule family per discipline (plus API hygiene),
structured :class:`~lintkit.violations.LintViolation` reports
mirroring ``repro.verify``'s shape, and inline suppressions that require
a justification.

It is a development tool, not part of the shipped ``repro`` package: it
lives beside its gate script in ``tools/`` and imports nothing from
``repro`` — it must be able to analyse a tree it could never import.

Entry points:

* ``python tools/lint.py`` — the gate (exit 2 on any unsuppressed
  finding);
* ``pytest -q -m lint`` — the conformance lane (rule fixtures, canaries,
  suppression mechanics);
* :func:`check_source` — lint a snippet in-process (used by the tests).

The catalog and suppression policy are documented in
``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

from .engine import LintEngine, LintResult, check_source
from .rules import Rule, all_rules, select_rules
from .violations import ERROR, WARNING, LintViolation

__all__ = [
    "ERROR",
    "LintEngine",
    "LintResult",
    "LintViolation",
    "Rule",
    "WARNING",
    "all_rules",
    "check_source",
    "select_rules",
]
