"""Perf-regression guard for the micro workloads.

Re-times every *micro* workload from :mod:`repro.perf.workloads` with the
same methodology as ``tools/perf_baseline.py`` and fails when its
**best-of-N** time exceeds :func:`benchmarks.conftest.limit` of the
median committed in ``BENCH.json`` (+75 %, scaled by the entry's own
calibration).  The minimum is compared rather than the median because
shared hosts suffer ambient load spikes that inflate medians but rarely
every repetition; a genuine code regression raises the minimum too.

Run with the bench lane::

    PYTHONPATH=src pytest benchmarks/test_perf_regression.py -m bench

Refresh the committed numbers with ``python tools/perf_baseline.py``
after intentional changes.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import committed, limit
from repro.perf.workloads import WORKLOADS, measure

MICRO_NAMES = [name for name, w in WORKLOADS.items() if w.micro]


@pytest.fixture(scope="module")
def shared_ctx():
    return {}


@pytest.mark.parametrize("name", MICRO_NAMES)
def test_micro_workload_not_regressed(name, shared_ctx, calibration_ms):
    entry = committed(name)
    workload = WORKLOADS[name]
    fn = workload.setup(shared_ctx)
    fn()  # warm caches the same way the baseline driver does
    now_ms = measure(fn, workload.repeats)["min_ms"]

    bound = limit(entry, "median_ms", calibration_ms)
    assert now_ms <= bound, (
        f"{name} regressed: best-of-{workload.repeats} {now_ms:.3f} ms vs "
        f"committed median {entry['median_ms']:.3f} ms (limit {bound:.3f} ms); "
        f"if intentional, refresh with tools/perf_baseline.py"
    )


def test_user_stress_index_beats_scan(shared_ctx):
    """The src-indexed ``user_stress`` sweep is O(E) where the reference
    scan is O(U x E): at 1024 members the index must win by more than 5x
    (the gap is about three orders of magnitude; equality of the two is
    ``tests/test_perf_equivalence.py``'s job)."""
    from repro.core.tmesh import rekey_session
    from repro.perf.workloads import _group

    topology, group = _group(shared_ctx, 1024)
    session = rekey_session(group.server_table, group.tables, topology)
    members = list(session.receipts)
    indexed_ms = measure(
        lambda: [session.user_stress(m) for m in members], 3
    )["min_ms"]
    scan_ms = measure(
        lambda: [session.user_stress_scan(m) for m in members], 1
    )["min_ms"]
    assert scan_ms > 5 * indexed_ms, (
        f"index no faster than scan: {indexed_ms:.3f} ms vs {scan_ms:.3f} ms"
    )
