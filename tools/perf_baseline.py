#!/usr/bin/env python
"""Measure the canonical perf workloads and write ``BENCH.json``.

Usage (from the repo root)::

    python tools/perf_baseline.py                          # every workload but the 1M rung
    python tools/perf_baseline.py --only split_session     # refresh one entry
    python tools/perf_baseline.py --rss --only rekey_session_10k

Each workload of :mod:`repro.perf.workloads` is built, warmed once and
timed in this process.  Its entry records the commit it was measured
at, the calibration spin timed just before it, the median and best-of-N
times, the repeat count and, with ``--rss``, the peak RSS of one run in
a fresh child process.  Entries not measured by this run are kept
exactly as committed, calibration included, so a partial refresh never
re-judges the others against a machine speed they were not measured
under.  The regression guard (``benchmarks/conftest.py``) scales each
entry by its own ``calibration_ms``; the git history of ``BENCH.json``
is the trajectory.  Opt-in workloads (the 1M rung) run only when named
with ``--only``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.perf.rss import measure_peak_rss  # noqa: E402
from repro.perf.workloads import WORKLOADS, calibrate, measure  # noqa: E402

BENCH_FILE = REPO_ROOT / "BENCH.json"


def _commit() -> str:
    """The checkout being measured, ``-dirty`` when it has local edits."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=7"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        nargs="+",
        default=None,
        help="measure only these workloads; every other entry is kept as committed",
    )
    parser.add_argument(
        "--rss",
        action="store_true",
        help="also record each measured workload's peak RSS (fresh child process)",
    )
    args = parser.parse_args(argv)

    names = args.only or [n for n, w in WORKLOADS.items() if not w.optin]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workloads: {unknown} (have {list(WORKLOADS)})")

    ops = json.loads(BENCH_FILE.read_text())["ops"] if BENCH_FILE.exists() else {}
    commit = _commit()
    ctx: dict = {}
    for name in names:
        workload = WORKLOADS[name]
        fn = workload.setup(ctx)
        fn()  # warm caches before timing
        calibration_ms = calibrate()["median_ms"]
        timing = measure(fn, workload.repeats)
        entry = {
            "commit": commit,
            "calibration_ms": calibration_ms,
            "median_ms": timing["median_ms"],
            "min_ms": timing["min_ms"],
            "repeats": workload.repeats,
        }
        note = ""
        if args.rss:
            entry["peak_rss_bytes"] = measure_peak_rss(name)["peak_rss_bytes"]
            note = f"   rss {entry['peak_rss_bytes'] / 1024**2:8.1f} MiB"
        ops[name] = entry
        print(
            f"{name:28s} median {entry['median_ms']:10.3f} ms   "
            f"min {entry['min_ms']:10.3f} ms   "
            f"calibration {calibration_ms:6.2f} ms{note}"
        )

    ordered = {name: ops[name] for name in WORKLOADS if name in ops}
    BENCH_FILE.write_text(json.dumps({"ops": ordered}, indent=2) + "\n")
    print(f"wrote {BENCH_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
