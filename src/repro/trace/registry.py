"""Counters, gauges, and histograms with deterministic export.

The registry is the metrics half of :mod:`repro.trace`: instrumented
call sites bump counters (messages forwarded, duplicate suppressions,
repair retries, keys encrypted), set gauges, and feed histograms, and the
exporters in :mod:`repro.metrics.export` render the result either as
Prometheus text exposition format or as JSONL rows appended to the trace.

Determinism contract: rendering sorts by ``(name, labels)`` and never
touches wall-clock time, so two runs of the same seeded scenario export
byte-identical metric blocks.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .spans import dumps

#: Default histogram bucket upper bounds (ms-ish magnitudes; the last
#: implicit bucket is +Inf).  Frozen so committed golden traces and the
#: Prometheus exposition stay stable.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _prom_name(name: str) -> str:
    """Prometheus metric names allow ``[a-zA-Z_:][a-zA-Z0-9_:]*``; dotted
    registry names map dots (and anything else) to underscores."""
    sanitized = "".join(
        c if c.isalnum() or c in "_:" else "_" for c in name
    )
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] in "_:"):
        sanitized = "_" + sanitized
    return sanitized


def _prom_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _prom_labels(labels: LabelKey) -> str:
    if not labels:
        return ""
    body = ",".join(f'{_prom_name(k)}="{v}"' for k, v in labels)
    return "{" + body + "}"


@dataclass
class _Histogram:
    buckets: Tuple[float, ...]
    counts: List[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)  # + the +Inf bucket

    def observe(self, value: float) -> None:
        # bisect_left finds the first bound >= value, i.e. the smallest
        # bucket with value <= bound; past-the-end is the +Inf slot.
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1


class MetricsRegistry:
    """A process-local metrics store.

    Counters accumulate, gauges keep the last value set, histograms keep
    fixed-bucket counts plus sum and count.  All three are keyed by
    ``(name, sorted labels)``.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], float] = {}
        self._gauges: Dict[Tuple[str, LabelKey], float] = {}
        self._histograms: Dict[Tuple[str, LabelKey], _Histogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        key = (name, _label_key(labels))
        self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        self._gauges[(name, _label_key(labels))] = value

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Tuple[float, ...]] = None,
        **labels: Any,
    ) -> None:
        key = (name, _label_key(labels))
        hist = self._histograms.get(key)
        if hist is None:
            hist = _Histogram(tuple(buckets) if buckets else DEFAULT_BUCKETS)
            self._histograms[key] = hist
        elif buckets is not None and tuple(buckets) != hist.buckets:
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{hist.buckets}, got {tuple(buckets)}"
            )
        hist.observe(value)

    def histogram(
        self,
        name: str,
        buckets: Optional[Tuple[float, ...]] = None,
        **labels: Any,
    ) -> _Histogram:
        """The named histogram itself, created on first use — hot loops
        hoist this once and call ``observe`` on it directly, skipping the
        per-observation key construction."""
        key = (name, _label_key(labels))
        hist = self._histograms.get(key)
        if hist is None:
            hist = _Histogram(tuple(buckets) if buckets else DEFAULT_BUCKETS)
            self._histograms[key] = hist
        elif buckets is not None and tuple(buckets) != hist.buckets:
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{hist.buckets}, got {tuple(buckets)}"
            )
        return hist

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels: Any) -> float:
        return self._counters.get((name, _label_key(labels)), 0)

    def gauge_value(self, name: str, **labels: Any) -> Optional[float]:
        return self._gauges.get((name, _label_key(labels)))

    def histogram_stats(self, name: str, **labels: Any) -> Optional[Dict[str, float]]:
        hist = self._histograms.get((name, _label_key(labels)))
        if hist is None:
            return None
        return {"count": hist.count, "sum": hist.total}

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def jsonl_lines(self) -> List[str]:
        """One deterministic JSON line per metric, sorted by kind, name,
        labels — the metric block of a normalized trace."""
        lines: List[str] = []
        for (name, labels), value in sorted(self._counters.items()):
            lines.append(dumps({
                "kind": "counter", "name": name,
                "labels": dict(labels), "value": value,
            }))
        for (name, labels), value in sorted(self._gauges.items()):
            lines.append(dumps({
                "kind": "gauge", "name": name,
                "labels": dict(labels), "value": value,
            }))
        for (name, labels), hist in sorted(self._histograms.items()):
            lines.append(dumps({
                "kind": "histogram", "name": name,
                "labels": dict(labels),
                "buckets": list(hist.buckets),
                "counts": list(hist.counts),
                "sum": hist.total,
                "count": hist.count,
            }))
        return lines

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format, grouped by metric family
        and sorted, ending with a newline (as the wire format requires)."""
        lines: List[str] = []
        families: Dict[str, List[str]] = {}

        for (name, labels), value in sorted(self._counters.items()):
            fam = _prom_name(name)
            families.setdefault(f"counter {fam}", []).append(
                f"{fam}{_prom_labels(labels)} {_prom_value(float(value))}"
            )
        for (name, labels), value in sorted(self._gauges.items()):
            fam = _prom_name(name)
            families.setdefault(f"gauge {fam}", []).append(
                f"{fam}{_prom_labels(labels)} {_prom_value(float(value))}"
            )
        for (name, labels), hist in sorted(self._histograms.items()):
            fam = _prom_name(name)
            rows = families.setdefault(f"histogram {fam}", [])
            cumulative = 0
            bounds = [repr(b) for b in hist.buckets] + ["+Inf"]
            for bound, bucket_count in zip(bounds, hist.counts):
                cumulative += bucket_count
                le = (("le", bound),) + tuple(labels)
                rows.append(
                    f"{fam}_bucket{_prom_labels(le)} {cumulative}"
                )
            rows.append(f"{fam}_sum{_prom_labels(labels)} {_prom_value(hist.total)}")
            rows.append(f"{fam}_count{_prom_labels(labels)} {hist.count}")

        for family in sorted(families):
            kind, fam = family.split(" ", 1)
            lines.append(f"# TYPE {fam} {kind}")
            lines.extend(families[family])
        return "\n".join(lines) + "\n" if lines else ""
