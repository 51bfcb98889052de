"""The kernel baseline: ``BENCH.json``, its driver and its guard rule.

``tools/perf_baseline.py`` writes one entry per workload, each with the
calibration it was measured under; ``benchmarks/conftest.py`` holds the
one limit rule the bench lane applies to them.  These tests keep the
file complete and the partial refresh honest without timing anything
that matters.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from benchmarks.conftest import BENCH_FILE, limit
from benchmarks.test_scale_rss import GUARDED, ONE_M
from repro.perf.workloads import WORKLOADS

REPO_ROOT = Path(__file__).resolve().parent.parent

ENTRY_FIELDS = {"commit", "calibration_ms", "median_ms", "min_ms", "repeats"}


def load_driver():
    spec = importlib.util.spec_from_file_location(
        "perf_baseline", REPO_ROOT / "tools" / "perf_baseline.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCommittedFile:
    def test_one_entry_per_workload(self):
        ops = json.loads(BENCH_FILE.read_text())["ops"]
        expected = [n for n, w in WORKLOADS.items() if not w.optin] + [ONE_M]
        assert sorted(ops) == sorted(expected)

    def test_entries_carry_their_own_calibration(self):
        for name, entry in json.loads(BENCH_FILE.read_text())["ops"].items():
            assert ENTRY_FIELDS <= set(entry) <= ENTRY_FIELDS | {"peak_rss_bytes"}, name
            assert entry["repeats"] == WORKLOADS[name].repeats, name
            assert entry["min_ms"] <= entry["median_ms"], name

    def test_rss_guarded_rungs_carry_peak_rss(self):
        ops = json.loads(BENCH_FILE.read_text())["ops"]
        for name in GUARDED + [ONE_M]:
            assert ops[name]["peak_rss_bytes"] > 0, name


class TestPartialRefresh:
    def test_only_keeps_other_entries_in_their_own_regime(
        self, tmp_path, monkeypatch
    ):
        """Re-running ``--only X`` on a machine twice as slow must not
        move the limit of an untouched workload Y: Y is judged against
        the calibration it was measured under, not this run's."""
        driver = load_driver()
        monkeypatch.setattr(driver, "BENCH_FILE", tmp_path / "BENCH.json")
        spin_ms = [10.0]
        monkeypatch.setattr(driver, "calibrate", lambda: {"median_ms": spin_ms[0]})
        x, y = "split_predicate", "original_tree_batch"

        assert driver.main(["--only", x, y]) == 0
        first = json.loads(driver.BENCH_FILE.read_text())["ops"]
        now_ms = 15.0
        y_limit = limit(first[y], "median_ms", now_ms)

        spin_ms[0] = 20.0  # the same machine, now 2x slower
        assert driver.main(["--only", x]) == 0
        second = json.loads(driver.BENCH_FILE.read_text())["ops"]
        assert second[y] == first[y]
        assert limit(second[y], "median_ms", now_ms) == y_limit
        assert second[x]["calibration_ms"] == 20.0

    def test_unknown_workload_rejected(self, tmp_path, monkeypatch):
        driver = load_driver()
        monkeypatch.setattr(driver, "BENCH_FILE", tmp_path / "BENCH.json")
        with pytest.raises(SystemExit):
            driver.main(["--only", "no_such_workload"])
        assert not driver.BENCH_FILE.exists()
