"""Overhead guard for the tracing hooks (docs/OBSERVABILITY.md).

Two contracts:

* **off = free** — with no :class:`~repro.trace.TraceContext` installed,
  the instrumented ``rekey_session`` at the paper's headline 1024 users
  must stay within the ordinary perf-regression envelope
  (:func:`benchmarks.conftest.limit`) of the median committed in
  ``BENCH.json``: the hooks are a single module-slot read per session,
  so disabling tracing costs nothing measurable.
* **on = bounded** — with tracing installed (hop spans and histograms
  included, the worst case) the same workload must stay within a
  documented multiple of its untraced time, measured back-to-back in
  this process so machine speed cancels out.

The enabled-path bound has its own knob, ``REPRO_TRACE_OVERHEAD``
(default 2.5x), because span construction is real work — the bound
documents it instead of pretending it away.

Run with the bench lane::

    PYTHONPATH=src pytest benchmarks/test_trace_overhead.py -m bench
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import committed, limit
from repro.perf.workloads import WORKLOADS, measure
from repro.trace import TraceContext, hooks, tracing

#: Allowed slowdown of rekey@1024 with full tracing (hop spans +
#: histograms) vs untraced, measured back to back.  Documented in
#: docs/OBSERVABILITY.md; loose because span dicts for 1024 receipts are
#: genuine allocation work.
TRACE_OVERHEAD = float(os.environ.get("REPRO_TRACE_OVERHEAD", "2.5"))

WORKLOAD = WORKLOADS["rekey_session_1024"]


@pytest.fixture(scope="module")
def rekey_fn():
    fn = WORKLOAD.setup({})
    fn()  # warm caches the way the baseline driver does
    return fn


def test_tracing_off_is_free(rekey_fn, calibration_ms):
    """With the slot empty, instrumented rekey@1024 stays within the
    committed perf envelope — the observability layer costs nothing when
    off."""
    assert hooks.ACTIVE is None  # the contract under test
    entry = committed(WORKLOAD.name)
    now_ms = measure(rekey_fn, WORKLOAD.repeats)["min_ms"]
    bound = limit(entry, "median_ms", calibration_ms)
    assert now_ms <= bound, (
        f"rekey@1024 with tracing hooks compiled in but OFF took "
        f"{now_ms:.3f} ms best-of-{WORKLOAD.repeats} vs committed median "
        f"{entry['median_ms']:.3f} ms (limit {bound:.3f} ms): the disabled "
        f"hook path must stay a single slot read per session"
    )


def test_tracing_on_within_documented_bound(rekey_fn):
    """Full tracing (hop spans + delay histograms for 1024 members)
    slows rekey@1024 by at most REPRO_TRACE_OVERHEAD x, measured back to
    back so the machine cancels out."""
    off_ms = measure(rekey_fn, WORKLOAD.repeats)["min_ms"]
    with tracing(seed=0, label="overhead"):
        on_ms = measure(rekey_fn, WORKLOAD.repeats)["min_ms"]
    assert on_ms <= off_ms * TRACE_OVERHEAD, (
        f"traced rekey@1024 took {on_ms:.3f} ms vs {off_ms:.3f} ms "
        f"untraced ({on_ms / off_ms:.2f}x > allowed {TRACE_OVERHEAD:.2f}x); "
        f"either trim the hot observation path or raise the documented "
        f"bound (REPRO_TRACE_OVERHEAD / docs/OBSERVABILITY.md)"
    )


def test_hops_off_mode_cheaper_than_full(rekey_fn):
    """``hops=False`` (counters only) must not be slower than full
    tracing — it exists so very large sessions can keep the counters and
    skip the per-receipt span allocation."""
    previous = hooks.ACTIVE
    assert previous is None
    hooks.ACTIVE = TraceContext(hops=False)
    try:
        lean_ms = measure(rekey_fn, WORKLOAD.repeats)["min_ms"]
    finally:
        hooks.ACTIVE = previous
    with tracing(seed=0):
        full_ms = measure(rekey_fn, WORKLOAD.repeats)["min_ms"]
    # Generous slack: both are fast, and the claim is only "not slower".
    assert lean_ms <= full_ms * 1.25, (
        f"hops=False ({lean_ms:.3f} ms) slower than full tracing "
        f"({full_ms:.3f} ms)"
    )
