"""``--agree A.json B.json``: do two result sets of one code agree?

A set holds one or more runs per workload; each metric is compared by its
median over the set's runs.  Timing metrics agree when neither set is
worse than the other by more than the metric's bound (``BENCHMARK.json``
where it lists the metric, :mod:`.metrics` otherwise).  Exact metrics —
encryption counts, virtual-clock latencies, failed share, and per-layer
counts — must be equal in every run of both sets on the workloads that
run on the seeded virtual clock; ``service_churn_128`` crosses real
sockets, so there they get their bound like a timing.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from .cli import ROOT
from .metrics import BY_NAME, END_TO_END, quartiles

#: The one workload whose event order depends on the host's socket timing.
WALL_CLOCKED = ("service_churn_128",)


def _bounds() -> Dict[str, float]:
    bounds = {m.name: m.bound for m in END_TO_END}
    manifest = ROOT / "BENCHMARK.json"
    if manifest.exists():
        for entry in json.loads(manifest.read_text())["end_to_end"]:
            bounds[entry["name"]] = entry["bound"]
    return bounds


def _load(path: str) -> Dict[Tuple[str, int], List[dict]]:
    sets: Dict[Tuple[str, int], List[dict]] = defaultdict(list)
    for run in json.loads(Path(path).read_text())["runs"]:
        sets[(run["workload"], run["trace"])].append(run)
    return sets


def _summary(runs: List[dict], name: str) -> dict:
    """Median, quartiles and n of one metric over a set's runs; a set of
    one run shows that run's own per-cycle quartiles."""
    values = [run["metrics"][name] for run in runs]
    if len(values) == 1:
        return {"q1": values[0]["value"], "q3": values[0]["value"], "n": 1, **values[0]}
    return quartiles([v["value"] for v in values])


def _cell(value: dict) -> str:
    return f"{value['value']:.6g} [{value['q1']:.6g}, {value['q3']:.6g}] n={value['n']}"


def agree(path_a: str, path_b: str) -> int:
    """Print one row per workload and metric; return 1 on disagreement."""
    a_sets, b_sets = _load(path_a), _load(path_b)
    bounds = _bounds()
    disagreements = compared = 0
    for key in sorted(set(a_sets) | set(b_sets)):
        workload, traced = key
        if key not in a_sets or key not in b_sets:
            missing = path_a if key not in a_sets else path_b
            print(f"{workload} trace={traced}: not in {missing}")
            disagreements += 1
            continue
        a, b = a_sets[key], b_sets[key]
        if len({(r["seed"], r["cycles"]) for r in a + b}) != 1:
            print(f"{workload}: runs differ in seed or cycle count; not comparable")
            disagreements += 1
            continue
        print(
            f"== {workload}  {'per-layer counts' if traced else 'end to end'}  "
            f"A: {len(a)} run(s)  B: {len(b)} run(s)"
        )
        for name, first in a[0]["metrics"].items():
            metric = BY_NAME[name]
            if first is None or (traced and metric.unit != "count"):
                continue  # n/a here; traced wall times carry the wrappers' cost
            exact = (traced or metric.exact) and workload not in WALL_CLOCKED
            sum_a, sum_b = _summary(a, name), _summary(b, name)
            if exact:
                ok = len({r["metrics"][name]["value"] for r in a + b}) == 1
                rule = "equal"
            else:
                bound = bounds.get(name, 0.10)
                low, high = sorted((sum_a["value"], sum_b["value"]))
                ok = high <= low * (1.0 + bound) if low > 0 else high == low
                rule = f"within {bound:.0%}"
            compared += 1
            disagreements += not ok
            print(
                f"  {name:<48} {metric.unit:<6} A {_cell(sum_a):<44} "
                f"B {_cell(sum_b):<44} {rule:<12} {'ok' if ok else 'DISAGREE'}"
            )
    print(f"{compared} comparisons, {disagreements} disagreements")
    return 1 if disagreements else 0
