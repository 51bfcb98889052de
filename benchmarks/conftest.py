"""Benchmark configuration.

Each benchmark regenerates one table/figure of the paper at the scale
selected by ``REPRO_SCALE`` (``tiny`` / ``small`` / ``paper``; default
``small``).  The drivers are deterministic, so the interesting output is
the *shape* assertions plus the rendered rows recorded in
``benchmark.extra_info`` and printed for ``bench_output.txt``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.config import current_scale
from repro.perf.workloads import calibrate

#: The committed kernel baseline, written by ``tools/perf_baseline.py``.
BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH.json"

#: Allowed fractional regression per guarded field.  Timing is loose
#: because the ambient noise floor on shared hosts is about ±35 % even
#: for best-of-N while the guarded speed-ups are 3x-500x; memory is
#: structural (per-member Python objects turn tens of MB into GB).
TOLERANCE = {"median_ms": 0.75, "peak_rss_bytes": 0.5}

_CAPTURE_MANAGER = None


def pytest_configure(config):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = config.pluginmanager.getplugin("capturemanager")


def pytest_collection_modifyitems(items):
    """Everything under benchmarks/ belongs to the ``bench`` lane
    (``pytest benchmarks/ -m bench``), keeping it out of tier-1 runs."""
    for item in items:
        item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def scale():
    return current_scale()


@pytest.fixture(scope="session")
def calibration_ms():
    """This process's calibration spin, timed once per session."""
    return calibrate()["median_ms"]


def committed(name: str) -> dict:
    """The ``BENCH.json`` entry of workload ``name``; skips when absent."""
    if not BENCH_FILE.exists():
        pytest.skip(f"{BENCH_FILE.name} not committed; run tools/perf_baseline.py")
    entry = json.loads(BENCH_FILE.read_text())["ops"].get(name)
    if entry is None:
        pytest.skip(f"no committed {BENCH_FILE.name} entry for {name}")
    return entry


def limit(entry: dict, field: str, calibration_ms: float = 0.0) -> float:
    """The one guard rule: committed value x machine scale x (1 +
    tolerance).  The machine scale is how much slower this process's
    calibration is than the one stored with *this* entry, floored at 1.0
    so fast machines do not tighten the limit; memory passes no
    calibration and is not scaled."""
    scale = max(1.0, calibration_ms / entry["calibration_ms"])
    return entry[field] * scale * (1.0 + TOLERANCE[field])


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def record(benchmark, rendered: str, **extra):
    """Stash the figure's rendered rows in the benchmark report and print
    them so ``pytest benchmarks/ | tee bench_output.txt`` captures the
    regenerated rows/series.  Printing happens with pytest's capture
    suspended so the rows reach the terminal/tee for passing tests too."""
    benchmark.extra_info["figure"] = rendered
    for key, value in extra.items():
        benchmark.extra_info[key] = value
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print("\n" + rendered)
    else:
        print("\n" + rendered)
