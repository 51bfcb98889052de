"""Peak-RSS guard for the scale-ladder rungs (docs/PERFORMANCE.md).

Re-measures the peak resident set size of the 10k and 100k rungs — each
in a fresh child process, because ``ru_maxrss`` is a process-lifetime
high-water mark — and fails when a peak regresses past the bounds
committed in ``BENCH_PR9.json``.  Memory is far more stable than timing,
so the default tolerance is +50% (``REPRO_RSS_TOLERANCE``): the failure
mode this lane guards against is structural — per-member Python objects
sneaking back into the streaming path turn tens of MB into GB, not into
+50%.

The 1M rung is opt-in (``REPRO_SCALE_1M=1``): it additionally asserts
the hard < 2 GB ceiling from the scale-ladder design, which is what
makes a million-member rekey session viable on a laptop.

Run with the bench lane::

    PYTHONPATH=src pytest benchmarks/test_scale_rss.py -m bench
    REPRO_SCALE_1M=1 PYTHONPATH=src pytest benchmarks/test_scale_rss.py -m bench

Refresh the committed numbers after intentional changes::

    PYTHONPATH=src python tools/perf_baseline.py --out BENCH_PR9.json \
        --rss --only rekey_session_10k rekey_session_100k_stream \
        rekey_session_1m_stream
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.perf.rss import measure_peak_rss
from repro.perf.workloads import WORKLOADS

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_PR9.json"
TOLERANCE = float(os.environ.get("REPRO_RSS_TOLERANCE", "0.5"))

#: The guarded rungs: every scale workload with a committed RSS bound.
GUARDED = [
    "rekey_session_10k",
    "rekey_session_100k_stream",
]

#: Hard ceiling for the opt-in 1M rung (docs/PERFORMANCE.md).
ONE_M_CEILING_BYTES = 2 * 1024**3


def _committed_rss(name: str) -> int:
    if not BENCH_FILE.exists():
        pytest.skip(
            f"{BENCH_FILE.name} not committed; refresh with "
            "tools/perf_baseline.py --rss"
        )
    entry = json.loads(BENCH_FILE.read_text())["ops"].get(name)
    if not entry or not entry.get("rss"):
        pytest.skip(f"no committed RSS bound for {name}")
    return int(entry["rss"]["peak_rss_bytes"])


def _mib(n: int) -> str:
    return f"{n / 1024**2:.1f} MiB"


@pytest.mark.parametrize("name", GUARDED)
def test_scale_rung_rss_not_regressed(name):
    committed = _committed_rss(name)
    assert name in WORKLOADS
    peak = int(measure_peak_rss(name)["peak_rss_bytes"])
    limit = int(committed * (1.0 + TOLERANCE))
    assert peak <= limit, (
        f"{name} peak RSS regressed: {_mib(peak)} vs committed "
        f"{_mib(committed)} (+{TOLERANCE:.0%} tolerance = {_mib(limit)}); "
        "if intentional, refresh BENCH_PR9.json with "
        "tools/perf_baseline.py --rss"
    )


@pytest.mark.skipif(
    not os.environ.get("REPRO_SCALE_1M"),
    reason="1M rung is opt-in: set REPRO_SCALE_1M=1",
)
def test_one_million_member_rung():
    """The headline claim of the scale ladder: a 1M-member rekey session
    completes under the streaming plan with peak RSS < 2 GB and no
    materialized all-pairs RTT matrix (the synthesized topology refuses
    to build one past ``max_dense_hosts``)."""
    name = "rekey_session_1m_stream"
    peak = int(measure_peak_rss(name)["peak_rss_bytes"])
    assert peak < ONE_M_CEILING_BYTES, (
        f"1M rung peak RSS {_mib(peak)} breaches the "
        f"{_mib(ONE_M_CEILING_BYTES)} ceiling"
    )
    committed = _committed_rss(name)
    limit = int(committed * (1.0 + TOLERANCE))
    assert peak <= limit, (
        f"{name} peak RSS regressed: {_mib(peak)} vs committed "
        f"{_mib(committed)} (+{TOLERANCE:.0%} tolerance = {_mib(limit)})"
    )
