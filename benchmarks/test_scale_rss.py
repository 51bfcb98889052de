"""Peak-RSS guard for the scale-ladder rungs (docs/PERFORMANCE.md).

Re-measures the peak resident set size of the 10k and 100k rungs — each
in a fresh child process, because ``ru_maxrss`` is a process-lifetime
high-water mark — and fails when a peak exceeds
:func:`benchmarks.conftest.limit` of the ``peak_rss_bytes`` committed in
``BENCH.json`` (+50 %).  Memory is far more stable than timing: the
failure mode this lane guards against is structural — per-member Python
objects sneaking back into the streaming path turn tens of MB into GB,
not into +50 %.

The 1M rung is opt-in (``REPRO_SCALE_1M=1``): it additionally asserts
the hard < 2 GB ceiling from the scale-ladder design, which is what
makes a million-member rekey session viable on a laptop.

Run with the bench lane::

    PYTHONPATH=src pytest benchmarks/test_scale_rss.py -m bench
    REPRO_SCALE_1M=1 PYTHONPATH=src pytest benchmarks/test_scale_rss.py -m bench

Refresh the committed bounds after intentional changes::

    python tools/perf_baseline.py --rss --only rekey_session_10k \
        rekey_session_100k_stream rekey_session_1m_stream
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import committed, limit
from repro.perf.rss import measure_peak_rss

#: The rungs guarded on every bench run.
GUARDED = ["rekey_session_10k", "rekey_session_100k_stream"]

#: The opt-in rung and its hard ceiling (docs/PERFORMANCE.md).
ONE_M = "rekey_session_1m_stream"
ONE_M_CEILING_BYTES = 2 * 1024**3


def _mib(n: float) -> str:
    return f"{n / 1024**2:.1f} MiB"


def _assert_within_committed(name: str, peak: int) -> None:
    entry = committed(name)
    bound = limit(entry, "peak_rss_bytes")
    assert peak <= bound, (
        f"{name} peak RSS regressed: {_mib(peak)} vs committed "
        f"{_mib(entry['peak_rss_bytes'])} (limit {_mib(bound)}); if "
        "intentional, refresh BENCH.json with tools/perf_baseline.py --rss"
    )


@pytest.mark.parametrize("name", GUARDED)
def test_scale_rung_rss_not_regressed(name):
    _assert_within_committed(name, int(measure_peak_rss(name)["peak_rss_bytes"]))


@pytest.mark.skipif(
    not os.environ.get("REPRO_SCALE_1M"),
    reason="1M rung is opt-in: set REPRO_SCALE_1M=1",
)
def test_one_million_member_rung():
    """The headline claim of the scale ladder: a 1M-member rekey session
    completes under the streaming plan with peak RSS < 2 GB and no
    materialized all-pairs RTT matrix (the synthesized topology refuses
    to build one past ``max_dense_hosts``)."""
    peak = int(measure_peak_rss(ONE_M)["peak_rss_bytes"])
    assert peak < ONE_M_CEILING_BYTES, (
        f"1M rung peak RSS {_mib(peak)} breaches the "
        f"{_mib(ONE_M_CEILING_BYTES)} ceiling"
    )
    _assert_within_committed(ONE_M, peak)
