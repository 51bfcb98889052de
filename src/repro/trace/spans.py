"""Span records: the building block of a structured trace.

A span is one named unit of work with a parent (forming a tree), an
integer ID assigned in creation order, and a flat attribute dict.  Spans
carry **no wall-clock timestamps**: every field is a deterministic
function of the traced scenario (simulated time, seeds, counts), which is
what makes a normalized trace a byte-stable regression artifact — the
same seed produces the same bytes, run after run and process after
process (see ``tests/test_trace_golden.py``).

This module deliberately imports nothing from the rest of the package so
the hot modules (``repro.core.tmesh``, ``repro.net.eventloop``) can import
the trace hook layer without dragging protocol code along.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

#: Serialization format version, bumped when the normalized byte layout
#: changes (golden fixtures must be regenerated then).
TRACE_VERSION = 1

#: The root sentinel: spans with this parent are top-level.
ROOT = -1


@dataclass(slots=True)
class Span:
    """One node of the span tree.

    ``span_id`` values are assigned sequentially by the owning context,
    so creation order and ID order coincide; ``parent`` is another span's
    ID or :data:`ROOT`.  ``attrs`` values are plain scalars (str, int,
    float, bool) — anything else is stringified at serialization time.

    Slotted: traces allocate one of these per T-mesh receipt, so the
    per-instance dict matters at the paper's 1024-member scale
    (``benchmarks/test_trace_overhead.py``).
    """

    span_id: int
    parent: int
    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def as_record(self) -> Dict[str, Any]:
        return {
            "kind": "span",
            "id": self.span_id,
            "parent": self.parent,
            "name": self.name,
            "attrs": {k: _scalar(v) for k, v in self.attrs.items()},
        }


def _scalar(value: Any) -> Any:
    """Clamp an attribute value to a JSON-stable scalar."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def dumps(record: Dict[str, Any]) -> str:
    """The one serialization everybody uses: sorted keys, no whitespace,
    ASCII-safe escapes — byte-stable for equal inputs."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def well_nested_problems(spans: Iterable[Span]) -> List[str]:
    """Structural defects of a span list: IDs must be sequential from 0,
    every parent must be an earlier span (or :data:`ROOT`), so the
    relation is acyclic and the tree well-nested by construction.
    Returns human-readable problem strings (empty = well-formed)."""
    problems: List[str] = []
    seen: Dict[int, Span] = {}
    for index, span in enumerate(spans):
        if span.span_id != index:
            problems.append(
                f"span #{index} has id {span.span_id} (ids must be "
                "sequential in creation order)"
            )
        if span.parent != ROOT and span.parent not in seen:
            problems.append(
                f"span {span.span_id} ({span.name}) has parent "
                f"{span.parent} which is not an earlier span"
            )
        if span.parent == span.span_id:
            problems.append(f"span {span.span_id} is its own parent")
        seen[span.span_id] = span
    return problems


def children_index(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    """Parent ID -> children, in creation order (:data:`ROOT` for tops)."""
    index: Dict[int, List[Span]] = {}
    for span in spans:
        index.setdefault(span.parent, []).append(span)
    return index


def span_depths(spans: List[Span]) -> Dict[int, int]:
    """Span ID -> depth (top-level spans are depth 0).  Relies on parents
    preceding children, which :func:`well_nested_problems` enforces."""
    depths: Dict[int, int] = {}
    for span in spans:
        depths[span.span_id] = (
            0 if span.parent == ROOT else depths[span.parent] + 1
        )
    return depths


def freeze_spans(spans: List[Span]) -> Tuple[Tuple[int, int, str, Tuple[Tuple[str, Any], ...]], ...]:
    """A picklable, immutable snapshot of a span list (used to ship a
    forked worker's trace back to the parent process)."""
    return tuple(
        (s.span_id, s.parent, s.name, tuple(sorted(s.attrs.items())))
        for s in spans
    )


def thaw_spans(frozen) -> List[Span]:
    return [
        Span(span_id, parent, name, dict(attrs))
        for span_id, parent, name, attrs in frozen
    ]
