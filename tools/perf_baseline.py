#!/usr/bin/env python
"""Measure the canonical perf workloads and write ``BENCH_PR2.json``.

Usage (from the repo root)::

    python tools/perf_baseline.py                       # refresh post numbers
    python tools/perf_baseline.py --only fig7_experiment
    python tools/perf_baseline.py --pre-tree /path/to/old/src
    python tools/perf_baseline.py --out /tmp/bench.json \
        --compare BENCH_PR2.json                        # PR-over-PR speedups

``--compare`` prints per-workload speedup ratios against a previously
committed bench file and exits 2 if any shared workload regressed beyond
``REPRO_BENCH_TOLERANCE``.

The output records, per workload: the *pre-optimization* baseline
medians, the *post* medians measured now, and the speedup.  Both sides
are measured by :mod:`tools.bench_worker` subprocesses, **interleaved per
workload**, because timing on shared hosts drifts by tens of percent over
minutes — alternating keeps each pre/post pair in the same machine
regime, so the recorded speedups measure the code, not the weather.

``--pre-tree`` points at the ``src/`` of a pre-optimization checkout
(e.g. ``git worktree add /tmp/pre <seed-commit>`` then ``/tmp/pre/src``)
and re-measures the baseline live; without it the embedded pre medians
(measured against commit ``f09176b``) are used.  The workload definitions
live in :mod:`repro.perf.workloads` and are frozen so medians stay
comparable; ``benchmarks/test_perf_regression.py`` guards the micro
workloads against regressions relative to the committed file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.perf.workloads import WORKLOADS  # noqa: E402

#: Medians measured on the pre-optimization tree (commit f09176b) with the
#: exact workload definitions of repro.perf.workloads, paired in-regime
#: with the post run that produced the committed BENCH_PR2.json.
PRE_PR_BASELINE = {
    "rekey_session_1024": {"median_ms": 14.905480999914289, "ops_per_s": 67.0894149612314, "repeats": 15},
    "tmesh_session_128": {"median_ms": 1.4210660001481301, "ops_per_s": 703.6970836651931, "repeats": 15},
    "split_predicate": {"median_ms": 1.7657255002632155, "ops_per_s": 566.3394450898119, "repeats": 30},
    "split_session": {"median_ms": 4.261203999703866, "ops_per_s": 234.6754579385299, "repeats": 15},
    "user_stress_sweep_1024": {"median_ms": 165.246733999993, "ops_per_s": 6.051556819271492, "repeats": 7},
    "modified_tree_batch": {"median_ms": 308.5726975000398, "ops_per_s": 3.240727413999001, "repeats": 10},
    "original_tree_batch": {"median_ms": 0.5765595005868818, "ops_per_s": 1734.4263670654925, "repeats": 10},
    "id_assignment_join": {"median_ms": 2.3172340002020064, "ops_per_s": 431.5489932880427, "repeats": 10},
    "fig7_experiment": {"median_ms": 2728.725437999856, "ops_per_s": 0.3664714617579832, "repeats": 3},
    "build_group_256": {"median_ms": 1423.6197299997002, "ops_per_s": 0.7024347716789585, "repeats": 3},
}


class Worker:
    """A persistent ``tools/bench_worker.py`` subprocess bound to one
    source tree."""

    def __init__(self, src_tree: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_tree)
        self.proc = subprocess.Popen(
            [sys.executable, str(REPO_ROOT / "tools" / "bench_worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        ready = json.loads(self.proc.stdout.readline())
        self.workloads = set(ready.get("workloads", []))

    def ask(self, name: str):
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if "error" in reply:
            return None, reply["error"]
        return reply["result"], None

    def close(self) -> None:
        try:
            self.proc.stdin.write("exit\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, ValueError):
            pass
        self.proc.wait(timeout=30)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_PR2.json",
        help="where to write the results (default: repo-root BENCH_PR2.json)",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        help="a previously committed bench JSON (e.g. BENCH_PR2.json): "
        "print per-workload speedup ratios of its post medians over this "
        "run's, and exit 2 if any shared workload regressed beyond "
        "REPRO_BENCH_TOLERANCE (default 0.75, calibration-scaled)",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        help="measure only these workloads (entries for the others are "
        "copied from the existing output file when present)",
    )
    parser.add_argument(
        "--pre-tree",
        type=Path,
        default=None,
        help="src/ directory of a pre-optimization checkout; measures the "
        "baseline live (interleaved with post) instead of using the "
        "embedded pre medians",
    )
    parser.add_argument(
        "--pre-file",
        type=Path,
        default=None,
        help="JSON file of pre-optimization medians to use instead of the "
        "embedded baseline (ignored with --pre-tree)",
    )
    parser.add_argument(
        "--rss",
        action="store_true",
        help="also measure each workload's peak RSS in a fresh child "
        "process (one setup + one run) and record it as an 'rss' column; "
        "benchmarks/test_scale_rss.py guards these against BENCH_PR9.json",
    )
    args = parser.parse_args(argv)

    pre_static = dict(PRE_PR_BASELINE)
    if args.pre_file is not None:
        pre_static.update(json.loads(args.pre_file.read_text()))

    previous_ops = {}
    if args.only and args.output.exists():
        previous_ops = json.loads(args.output.read_text()).get("ops", {})

    if args.only:
        names = list(args.only)
    else:
        # Opt-in workloads (the 1M rung) only run when named explicitly.
        names = [n for n, w in WORKLOADS.items() if not w.optin]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workloads: {unknown} (have {list(WORKLOADS)})")

    post_worker = Worker(REPO_ROOT / "src")
    pre_worker = Worker(args.pre_tree) if args.pre_tree else None
    try:
        ops = {}
        for name, workload in WORKLOADS.items():
            if name not in names:
                if name in previous_ops:
                    ops[name] = previous_ops[name]
                continue
            if pre_worker is not None and name in pre_worker.workloads:
                pre, pre_err = pre_worker.ask(name)
                if pre_err:
                    print(f"{name}: pre-tree failed: {pre_err}", file=sys.stderr)
            elif pre_worker is not None:
                pre = None
            else:
                pre = pre_static.get(name)
            post, post_err = post_worker.ask(name)
            if post_err:
                print(f"{name}: failed: {post_err}", file=sys.stderr)
                return 1
            entry = {
                "group_size": workload.group_size,
                "micro": workload.micro,
                "pre": pre,
                "post": post,
            }
            if pre:
                entry["speedup"] = pre["median_ms"] / post["median_ms"]
            if args.rss:
                from repro.perf.rss import measure_peak_rss

                record = measure_peak_rss(name)
                entry["rss"] = {"peak_rss_bytes": record["peak_rss_bytes"]}
            ops[name] = entry
            speedup = entry.get("speedup")
            rss_note = ""
            if "rss" in entry:
                mib = entry["rss"]["peak_rss_bytes"] / (1024 * 1024)
                rss_note = f"   rss {mib:8.1f} MiB"
            print(
                f"{name:28s} post {post['median_ms']:10.3f} ms"
                + (f"   pre {pre['median_ms']:10.3f} ms" if pre else "")
                + (f"   speedup {speedup:5.2f}x" if speedup else "")
                + rss_note
            )

        calibration, _ = post_worker.ask("calibrate")
    finally:
        post_worker.close()
        if pre_worker is not None:
            pre_worker.close()

    payload = {
        "schema": "repro-bench-v1",
        "baseline_commit": "f09176b",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        # Pure-Python spin timed on the machine that produced the
        # medians; regression checks scale their limits by the ratio of a
        # fresh calibration to this one.
        "calibration": calibration,
        "ops": ops,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.compare is not None:
        return compare(json.loads(args.compare.read_text()), payload,
                       args.compare.name)
    return 0


def compare(old: dict, new: dict, old_name: str) -> int:
    """Per-workload speedup of ``new`` over ``old`` (ratio of post
    medians), with the regression lane's calibration scaling and
    tolerance.  Returns 2 when any shared workload regressed."""
    tolerance = float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.75"))
    old_cal = (old.get("calibration") or {}).get("median_ms")
    new_cal = (new.get("calibration") or {}).get("median_ms")
    # How much slower this machine/moment is than the one that produced
    # the old file; floored at 1.0 so fast machines don't read as wins.
    scale = max(1.0, new_cal / old_cal) if old_cal and new_cal else 1.0
    regressed = []
    print(f"\nspeedup vs {old_name} (machine scale {scale:.2f}):")
    for name, entry in new["ops"].items():
        old_entry = old.get("ops", {}).get(name)
        old_post = (old_entry or {}).get("post")
        post = entry.get("post")
        if not old_post or not post:
            print(f"{name:28s} (no {old_name} post median; skipped)")
            continue
        ratio = old_post["median_ms"] / post["median_ms"]
        limit = old_post["median_ms"] * scale * (1.0 + tolerance)
        flag = ""
        if post["median_ms"] > limit:
            regressed.append(name)
            flag = "  REGRESSED"
        print(
            f"{name:28s} {old_post['median_ms']:10.3f} ms -> "
            f"{post['median_ms']:10.3f} ms   {ratio:6.2f}x{flag}"
        )
    if regressed:
        print(
            f"regressions beyond +{tolerance:.0%} tolerance: {regressed}",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
