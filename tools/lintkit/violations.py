"""Structured lint findings.

Every rule in :mod:`lintkit.rules` reduces a broken discipline to one
or more :class:`LintViolation` records — deliberately the same shape as
:class:`repro.verify.report.ViolationReport`: which rule fired, which
discipline/citation it enforces, where, and a human-readable message.
The runtime layer reports *observed* invariant breaks; this layer reports
the *source patterns* that would eventually cause them.

This module imports nothing from the rest of the package (same leaf
discipline as ``repro.verify.report``) so tools and tests can use the
report types without dragging the engine along.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Severity levels.  Both gate ``tools/lint.py`` (an unsuppressed
#: finding of any severity exits 2); the level records how certain the
#: rule is that the finding is a real discipline break rather than a
#: smell.
ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True, slots=True)
class LintViolation:
    """One discipline break, pinned to its rule, citation, and location.

    ``path`` is the file path relative to the scanned root (posix
    separators, so reports are platform-stable); ``source`` is the
    stripped text of the offending line.
    """

    rule: str                 # e.g. "determinism-wall-clock"
    severity: str             # ERROR or WARNING
    discipline: str           # e.g. "determinism"
    citation: str             # which document/contract the rule enforces
    path: str                 # root-relative posix path
    line: int                 # 1-based
    col: int                  # 0-based, as reported by ast
    message: str              # human-readable description
    source: str = ""          # stripped source line

    def render(self) -> str:
        head = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )
        parts = [head, f"  discipline: {self.discipline} ({self.citation})"]
        if self.source:
            parts.append(f"  > {self.source}")
        return "\n".join(parts)


def sort_key(violation: LintViolation) -> tuple[str, int, int, str]:
    """Deterministic report order: by file, then position, then rule."""
    return (violation.path, violation.line, violation.col, violation.rule)
