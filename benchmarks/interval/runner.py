"""Run one workload in this process: untraced for the end-to-end
metrics, or traced for the per-layer ledger."""

from __future__ import annotations

import gc
import math
import time
from typing import List, Optional

from repro.perf.rss import peak_rss_bytes
from repro.perf.workloads import calibrate

from . import metrics
from .tracing import Tracer, format_ledger, install
from .workloads import WORKLOADS, Sample, Workload

#: Cycles of a traced run, and of the untraced reference cycles that run
#: just before the wrappers go in (for ``bench.trace_overhead_ratio``).
TRACE_CYCLES = 3


def _cycle_count(workload: Workload, scale: float) -> int:
    return max(1, math.floor(workload.cycles * scale + 0.5))


def _run_cycles(
    workload: Workload, first: int, count: int, deadline: Optional[float]
) -> List[Sample]:
    samples: List[Sample] = []
    for index in range(first, first + count):
        if workload.tracer is not None:
            workload.tracer.cycle = index - first
        samples.append(workload.cycle(index))
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return samples


def _settle() -> None:
    # Set-up garbage is collected and the survivors frozen out of later
    # collections; the collector stays on for the measured cycles.
    gc.collect()
    gc.freeze()


def run(
    name: str,
    seed: int,
    trace: bool = False,
    seconds: Optional[float] = None,
    cycles_scale: float = 1.0,
    smoke: bool = False,
    trace_path: Optional[str] = None,
) -> dict:
    """One run of one workload; returns its result record."""
    workload = WORKLOADS[name](seed, smoke=smoke)
    try:
        if trace:
            return _run_traced(workload, cycles_scale, trace_path)
        return _run_untraced(workload, seconds, cycles_scale)
    finally:
        workload.teardown()


def _timed_setup(workload: Workload) -> float:
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def _run_untraced(
    workload: Workload, seconds: Optional[float], cycles_scale: float
) -> dict:
    setup_seconds = [_timed_setup(workload)]
    _settle()
    count = _cycle_count(workload, cycles_scale)
    deadline = None if seconds is None else time.perf_counter() + seconds
    samples = _run_cycles(workload, 0, count, deadline)
    problems = workload.finish()
    peak = peak_rss_bytes()
    # The remaining set-ups only steady ``setup_s``; they run after the
    # peak is read so that it stays the footprint of one world.
    for _ in range(1, workload.setups):
        workload.teardown()
        setup_seconds.append(_timed_setup(workload))
    values = metrics.end_to_end(samples, setup_seconds, peak, problems)
    return _record(workload, False, samples, problems, values)


def _run_traced(
    workload: Workload, cycles_scale: float, trace_path: Optional[str]
) -> dict:
    setup_parts = workload.setup()
    _settle()
    # The repo's fixed pure-Python spin: reads machine drift between two
    # result sets, not anything about the code under test.
    spin = calibrate(repeats=5)["median_ms"]
    count = min(TRACE_CYCLES, _cycle_count(workload, cycles_scale))
    reference = _run_cycles(workload, 0, count, None)
    tracer = Tracer()
    install(tracer)
    workload.tracer = tracer
    samples = _run_cycles(workload, count, count, None)
    workload.tracer = None
    problems = workload.finish()
    values = metrics.per_layer(tracer, samples, reference, setup_parts, spin)
    record = _record(
        workload,
        True,
        reference + samples,
        problems,
        {name: {"value": value} for name, value in values.items()},
    )
    record["cycles"] = len(samples)
    record["ledger"] = tracer.ledger()
    record["ledger_text"] = format_ledger(record["ledger"], len(samples))
    if trace_path is not None:
        tracer.dump(trace_path, workload.name, workload.seed)
        record["trace_file"] = trace_path
    return record


def _record(
    workload: Workload,
    traced: bool,
    samples: List[Sample],
    problems: List[str],
    values: dict,
) -> dict:
    attempted = sum(s.attempted for s in samples) + 1
    failed = sum(s.failed for s in samples) + (1 if problems else 0)
    notes = [p[:240] for s in samples for p in s.problems] + [p[:240] for p in problems]
    table = metrics.BY_NAME
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": int(traced),
        "members": workload.members,
        "cycles": len(samples),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "problems": notes[:20],
        "metrics": {
            name: None if value is None else {**value, "unit": table[name].unit}
            for name, value in values.items()
        },
    }
