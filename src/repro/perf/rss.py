"""Peak-RSS measurement for the memory rungs of the scale ladder.

``ru_maxrss`` is a *process-lifetime* high-water mark: once any code in
a process has touched N bytes, every later reading reports at least N.
Measuring a workload's footprint therefore requires a fresh child
process per workload — :func:`measure_peak_rss` spawns
``python -m repro.perf.rss <workload>``, the child builds the workload's
fixture, runs it once, and prints its own high-water mark as JSON.

The committed bounds are the ``peak_rss_bytes`` entries of
``BENCH.json`` (``tools/perf_baseline.py --rss``);
``benchmarks/test_scale_rss.py`` re-measures the 10k/100k rungs and
fails when a peak regresses past the committed number (the opt-in 1M
rung additionally asserts the < 2 GB ceiling from docs/PERFORMANCE.md).
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from typing import Dict


def peak_rss_bytes() -> int:
    """This process's peak resident set size since exec, in bytes.

    On Linux this reads ``VmHWM`` from ``/proc/self/status`` rather than
    ``getrusage``: ``ru_maxrss`` survives ``exec`` and therefore still
    holds the *forking parent's* peak (all of its pages are briefly
    resident in the child between fork and exec), which made children
    spawned from a fat pytest process report the parent's footprint.
    ``VmHWM`` lives in the ``mm`` that ``exec`` replaces, so it counts
    only this program's own allocations.  ``ru_maxrss`` is the fallback
    (kilobytes on Linux, bytes on macOS)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


def measure_peak_rss(workload_name: str, timeout: float = 600.0) -> Dict[str, object]:
    """Peak RSS of one workload, measured in a fresh child process.

    Returns the child's ``{"workload", "peak_rss_bytes"}`` record.
    Raises ``RuntimeError`` when the child fails."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else os.pathsep.join([src_dir, existing])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.perf.rss", workload_name],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"RSS child for {workload_name!r} failed "
            f"(exit {proc.returncode}):\n{proc.stderr}"
        )
    # The workload may print to stdout; the record is the last line.
    line = proc.stdout.strip().splitlines()[-1]
    record = json.loads(line)
    if record.get("workload") != workload_name:
        raise RuntimeError(
            f"RSS child answered for {record.get('workload')!r}, "
            f"expected {workload_name!r}"
        )
    return record


def _child_main(workload_name: str) -> int:
    from .workloads import WORKLOADS

    workload = WORKLOADS.get(workload_name)
    if workload is None:
        print(
            f"unknown workload {workload_name!r}; known: "
            f"{', '.join(sorted(WORKLOADS))}",
            file=sys.stderr,
        )
        return 1
    ctx: dict = {}
    fn = workload.setup(ctx)
    fn()
    print(
        json.dumps(
            {"workload": workload_name, "peak_rss_bytes": peak_rss_bytes()}
        )
    )
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: python -m repro.perf.rss <workload>", file=sys.stderr)
        sys.exit(2)
    sys.exit(_child_main(sys.argv[1]))
