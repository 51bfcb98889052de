"""Canonical fixed-seed golden-trace workloads.

A golden trace is a normalized trace (see :meth:`repro.trace.hooks.
TraceContext.render`) of a frozen workload, committed under
``tests/fixtures/`` and compared **byte-exact** by
``tests/test_trace_golden.py``.  Because every traced quantity is a
deterministic function of the scenario seed, any byte difference means
observable protocol behaviour changed — the trace is a regression
artifact, exactly like the fixed-seed oracle suite of
``tools/check_invariants.py``.

Workloads:

* :func:`rekey256_trace` — a 256-member GT-ITM group serving one plain
  and one :class:`~repro.core.tmesh.SessionPlan` rekey multicast, plus
  the batch rekey of its modified key tree (covers the ``tmesh`` and
  ``keytree`` hooks).
* :func:`fig7_trace` — the Fig. 7 rekey-latency workload (GT-ITM, T-mesh
  vs NICE) through :func:`~repro.experiments.latency_experiments.
  run_latency_experiment`, two replications traced into one context.

Regenerate the fixtures after an *intentional* behaviour change::

    PYTHONPATH=src python -m repro.trace.golden --write tests/fixtures
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .hooks import tracing

#: Frozen workload parameters — changing these invalidates the fixtures.
REKEY_USERS = 256
FIG7_USERS = 128
FIG7_RUNS = 2
GOLDEN_SEED = 7


def rekey256_trace(seed: int = GOLDEN_SEED, users: int = REKEY_USERS) -> str:
    """Normalized trace of the fixed-seed 256-member rekey workload."""
    from ..core.tmesh import plan_session, rekey_session
    from ..experiments.common import build_group, build_topology
    from ..keytree.modified_tree import ModifiedKeyTree

    with tracing(seed=seed, label=f"golden-rekey{users}") as ctx:
        topology = build_topology("gtitm", users, seed=seed)
        group = build_group(topology, users, seed=seed)
        rekey_session(group.server_table, group.tables, topology)
        plan = plan_session(group.server_table, group.tables)
        rekey_session(group.server_table, group.tables, topology, plan=plan)
        tree = ModifiedKeyTree(group.scheme)
        for uid in sorted(group.records):
            tree.request_join(uid)
        tree.process_batch()
    return ctx.render()


def fig7_trace(
    seed: int = GOLDEN_SEED, users: int = FIG7_USERS, runs: int = FIG7_RUNS
) -> str:
    """Normalized trace of the Fig. 7 rekey-latency workload."""
    from ..experiments.latency_experiments import run_latency_experiment

    with tracing(seed=seed, label="golden-fig7") as ctx:
        run_latency_experiment(
            "Fig 7 (traced)", "gtitm", users, mode="rekey",
            runs=runs, seed=seed,
        )
    return ctx.render()


#: fixture file name -> generator of its normalized text.
GOLDEN_TRACES: Dict[str, Callable[[], str]] = {
    "trace_rekey256.jsonl": rekey256_trace,
    "trace_fig7.jsonl": fig7_trace,
}


def compare_traces(expected: str, actual: str) -> List[str]:
    """Byte-exact comparison of two normalized traces.

    Returns human-readable differences (empty list = identical).  The
    first differing line is named so a golden mismatch points straight at
    the span or metric that moved."""
    if expected == actual:
        return []
    problems: List[str] = []
    expected_lines = expected.splitlines()
    actual_lines = actual.splitlines()
    if len(expected_lines) != len(actual_lines):
        problems.append(
            f"line count differs: expected {len(expected_lines)}, "
            f"got {len(actual_lines)}"
        )
    for index, (want, got) in enumerate(zip(expected_lines, actual_lines)):
        if want != got:
            problems.append(
                f"first difference at line {index + 1}:\n"
                f"  expected: {want}\n"
                f"  actual:   {got}"
            )
            break
    else:
        if not problems:
            # Same common prefix but different trailing bytes (e.g. a
            # missing final newline).
            problems.append("traces differ only in trailing bytes")
    return problems


def main(argv=None) -> int:
    """Regenerate the committed golden fixtures."""
    import argparse
    import pathlib

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", metavar="DIR", required=True,
        help="directory to write the golden fixtures into",
    )
    args = parser.parse_args(argv)
    out = pathlib.Path(args.write)
    out.mkdir(parents=True, exist_ok=True)
    for name, generate in GOLDEN_TRACES.items():
        path = out / name
        path.write_text(generate(), encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
