"""Command line of the rekey-interval benchmark.

``--workload NAME`` runs one workload in this process (the driver's
contract: a fresh process per run, one JSON object as the last line of
standard output).  ``--workload all`` runs each workload in a fresh child
process, one after the other.  ``--agree A.json B.json`` compares two
stored result sets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[2]
MAIN = Path(__file__).resolve().with_name("__main__.py")
SCRATCH = ROOT / ".bench_out" / "interval"


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.interval", description=__doc__
    )
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=20)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="stop starting new cycles after this much measuring",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        type=int,
        const=1,
        default=0,
        choices=(0, 1),
        help="1: traced run, per-layer metrics; 0: untraced, end to end",
    )
    parser.add_argument("--out", help="result file; the run is appended to it")
    parser.add_argument("--cycles-scale", type=float, default=1.0)
    parser.add_argument(
        "--smoke", action="store_true", help="down-scaled sizes (test_smoke.py)"
    )
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if not args.agree and not args.workload:
        parser.error("--workload or --agree is required")
    return args


# ----------------------------------------------------------------------
# Result files
# ----------------------------------------------------------------------
def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "network": "host loopback interface (127.0.0.1), no real link",
    }


def merge_into(path: str, records: List[dict]) -> None:
    """Append records to a result file (a *set* of runs: ``--agree``
    takes medians over the runs a set holds per workload); the ledger
    text stays out of the file."""
    target = Path(path)
    stored = {"schema": 1, "runs": []}
    if target.exists():
        stored = json.loads(target.read_text())
    stored["environment"] = environment()
    stored["runs"] += [
        {k: v for k, v in record.items() if k != "ledger_text"} for record in records
    ]
    stored["runs"].sort(key=lambda r: (r["workload"], r["trace"]))
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def trace_path_for(args: argparse.Namespace, workload: str) -> str:
    if args.out:
        base = Path(args.out)
        return str(base.with_name(f"{base.stem}.{workload}.trace.json"))
    SCRATCH.mkdir(parents=True, exist_ok=True)
    return str(SCRATCH / f"{workload}.trace.json")


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def print_record(record: dict) -> None:
    kind = "per-layer (traced)" if record["trace"] else "end-to-end (untraced)"
    print(
        f"== {record['workload']}  seed {record['seed']}  {kind}  "
        f"members {record['members']}  cycles {record['cycles']}"
    )
    for name, value in record["metrics"].items():
        if value is None:
            print(f"  {name:<52} {'—':>14}")
            continue
        spread = ""
        if "n" in value:
            spread = f"  n={value['n']}"
            if value["q1"] != value["q3"]:
                spread += f"  q1={value['q1']:.6g} q3={value['q3']:.6g}"
        print(f"  {name:<52} {value['value']:>14.6g} {value['unit']:<6}{spread}")
    print(
        f"  checks: attempted {record['attempted']}  failed {record['failed']}  "
        f"correct {record['correct']}"
    )
    for problem in record["problems"]:
        print(f"  ! {problem}")
    if record.get("ledger_text"):
        print(record["ledger_text"])
    if record.get("trace_file"):
        print(f"  trace written to {record['trace_file']}")


def contract_line(record: dict) -> str:
    """The driver's last line: exactly the metrics BENCHMARK.json lists
    for this kind of run."""
    from .metrics import END_TO_END

    if record["trace"]:
        names = list(record["metrics"])
    else:
        names = [m.name for m in END_TO_END if m.driver]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {
                    "value": record["metrics"][name]["value"],
                    "unit": record["metrics"][name]["unit"],
                }
                for name in names
            },
        }
    )


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace) -> int:
    from .runner import run
    from .workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    record = run(
        args.workload,
        args.seed,
        trace=bool(args.trace),
        seconds=args.seconds,
        cycles_scale=args.cycles_scale,
        smoke=args.smoke,
        trace_path=trace_path_for(args, args.workload) if args.trace else None,
    )
    print_record(record)
    if args.out:
        merge_into(args.out, [record])
    print(contract_line(record))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh child process, so none inherits another's
    heap, caches or peak RSS.  The children append to ``--out``
    themselves, one after the other."""
    from .workloads import WORKLOADS

    attempted = failed = 0
    for name in WORKLOADS:
        command = [
            sys.executable,
            str(MAIN),
            "--workload", name,
            "--seed", str(args.seed),
            "--trace", str(args.trace),
            "--cycles-scale", str(args.cycles_scale),
        ]  # fmt: skip
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.smoke:
            command.append("--smoke")
        if args.out:
            command += ["--out", args.out]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        report, _, contract = child.stdout.rstrip("\n").rpartition("\n")
        print(report, flush=True)
        if child.returncode != 0:
            print(f"{name}: child exited {child.returncode}", file=sys.stderr)
            return child.returncode
        totals = json.loads(contract)
        attempted += totals["attempted"]
        failed += totals["failed"]
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "workloads": len(WORKLOADS),
            }
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.agree:
        from .agree import agree

        return agree(*args.agree)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)
