"""Structured invariant-violation reports.

Every checker in :mod:`repro.verify` reduces a failed proof obligation to
one or more :class:`ViolationReport` records: which checker fired, which
paper statement it enforces, the offending IDs, the session seed, and a
minimal repro snippet.  :class:`InvariantViolation` carries a batch of
reports and survives a pickle round-trip with every report intact.

This module deliberately imports nothing from the rest of the package so
the hot paths (``repro.core.tmesh``) can import the hook layer without
touching protocol code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple


@dataclass(frozen=True, slots=True)
class ViolationReport:
    """One broken invariant, pinned to its paper citation and context.

    ``offending_ids`` are stringified :class:`~repro.core.ids.Id` values
    (strings keep the report self-contained and trivially picklable);
    ``seed`` is the session/scenario seed when the caller knows it, and
    ``repro`` is a minimal snippet (or command line) that reproduces the
    violating scenario.
    """

    checker: str                       # e.g. "exactly-once"
    citation: str                      # e.g. "Theorem 1"
    detail: str                        # human-readable description
    offending_ids: Tuple[str, ...] = ()
    seed: Optional[int] = None
    repro: Optional[str] = None

    def render(self) -> str:
        parts = [f"[{self.checker}] ({self.citation}) {self.detail}"]
        if self.offending_ids:
            parts.append(f"  offending IDs: {', '.join(self.offending_ids)}")
        if self.seed is not None:
            parts.append(f"  seed: {self.seed}")
        if self.repro:
            parts.append(f"  repro: {self.repro}")
        return "\n".join(parts)


def _render_reports(reports: Sequence[ViolationReport], context: str) -> str:
    head = f"{len(reports)} invariant violation(s)"
    if context:
        head += f" in {context}"
    return "\n".join([head] + [r.render() for r in reports])


class InvariantViolation(Exception):
    """A batch of invariant violations, raised by the verification layer.

    The exception pickles by reconstructing itself from its reports;
    without that, the default exception pickle would rebuild it from
    ``args`` and read the rendered message's characters as its reports.
    """

    def __init__(
        self,
        reports: Iterable[ViolationReport],
        context: str = "",
    ):
        self.reports: Tuple[ViolationReport, ...] = tuple(reports)
        self.context = context
        super().__init__(_render_reports(self.reports, context))

    def __reduce__(self):
        return (type(self), (self.reports, self.context))

    @property
    def checkers(self) -> Tuple[str, ...]:
        """Names of the checkers that fired, in report order."""
        return tuple(r.checker for r in self.reports)
