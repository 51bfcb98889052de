"""Canonical perf workloads shared by the baseline driver and the bench lane.

``tools/perf_baseline.py`` times every workload here and records the
results in ``BENCH.json``; ``benchmarks/test_perf_regression.py``
re-times the cheap micro workloads and fails when a best-of-N time
regresses past the committed median (``benchmarks/conftest.py`` holds
the one limit rule).  Keeping one registry guarantees both sides time
the *same* operation with the same inputs.

The workload definitions (seeds, sizes, repeat counts) are frozen so
medians stay comparable across commits; the git history of
``BENCH.json`` is the trajectory.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np


def measure(fn: Callable[[], object], repeats: int, inner: int = 1) -> Dict[str, object]:
    """Median wall-clock time of ``fn`` over ``repeats`` runs.

    The collector is paused around each timed call (as pytest-benchmark
    does) so GC pauses triggered by garbage from *other* workloads'
    fixtures don't land inside the timing window."""
    times = []
    gc_was_enabled = gc.isenabled()
    gc.collect()
    try:
        for _ in range(repeats):
            if gc_was_enabled:
                gc.disable()
            t0 = time.perf_counter()
            for _ in range(inner):
                fn()
            elapsed = time.perf_counter() - t0
            if gc_was_enabled:
                gc.enable()
            times.append(elapsed / inner)
    finally:
        if gc_was_enabled:
            gc.enable()
    med = statistics.median(times)
    return {
        "median_ms": med * 1e3,
        # Best-of-N: a lower bound on the true cost, robust to ambient
        # load spikes — what the regression guard compares.
        "min_ms": min(times) * 1e3,
        "ops_per_s": (1.0 / med) if med else None,
        "repeats": repeats,
    }


def calibrate(repeats: int = 11) -> Dict[str, object]:
    """Median time of a fixed pure-Python spin, used to normalize
    committed medians for the current machine's speed.

    Timing on shared hosts drifts by tens of percent between runs; the
    regression guard scales each limit by the ratio of the current
    calibration to the one stored with that committed median, so a
    globally slower machine does not read as a code regression."""

    def spin():
        acc = 0
        for i in range(200_000):
            acc += i * i
        return acc

    spin()
    return measure(spin, repeats)


@dataclass(frozen=True)
class Workload:
    """One named timed operation.

    ``setup(ctx)`` receives a shared mutable context dict (so expensive
    fixtures like a 1024-user group are built once per process) and
    returns the zero-argument callable to time.
    """

    name: str
    repeats: int
    setup: Callable[[dict], Callable[[], object]]
    micro: bool = True  # cheap enough for the regression lane
    # Too expensive to run implicitly (the 1M rung): baseline and bench
    # drivers skip it unless named explicitly / opted in via env.
    optin: bool = False


def _group(ctx: dict, num_users: int, seed: int = 20):
    key = ("group", num_users, seed)
    if key not in ctx:
        from ..experiments.common import build_group, build_topology

        topology = build_topology("gtitm", num_users, seed=seed)
        ctx[key] = (topology, build_group(topology, num_users, seed=seed))
    return ctx[key]


def _setup_rekey_1024(ctx: dict) -> Callable[[], object]:
    from ..core.tmesh import rekey_session

    topology, group = _group(ctx, 1024)
    return lambda: rekey_session(group.server_table, group.tables, topology)


def _setup_planned_rekey_1024(ctx: dict) -> Callable[[], object]:
    from ..core.tmesh import plan_session, rekey_session

    topology, group = _group(ctx, 1024)
    plan = plan_session(group.server_table, group.tables)
    return lambda: rekey_session(
        group.server_table, group.tables, topology, plan=plan
    )


def _setup_tmesh_128(ctx: dict) -> Callable[[], object]:
    from ..core.tmesh import rekey_session

    topology, group = _group(ctx, 128)
    return lambda: rekey_session(group.server_table, group.tables, topology)


def _setup_split_predicate(ctx: dict) -> Callable[[], object]:
    from ..core.ids import Id
    from ..core.splitting import next_hop_needs

    hop = Id([17, 3, 200, 9, 1])
    encryption_ids = [Id([17, 3]), Id([18]), Id([17, 3, 200, 9, 1]), Id([])]

    def pred():
        hits = 0
        for _ in range(250):
            for e in encryption_ids:
                hits += next_hop_needs(e, hop, 2)
        return hits

    return pred


def _rekey_message_128(ctx: dict):
    if "message128" not in ctx:
        from ..keytree.modified_tree import ModifiedKeyTree

        _, group = _group(ctx, 128)
        tree = ModifiedKeyTree(group.scheme)
        for uid in group.user_ids:
            tree.request_join(uid)
        tree.process_batch()
        rng = np.random.default_rng(20)
        for i in rng.choice(128, size=32, replace=False):
            tree.request_leave(list(group.user_ids)[int(i)])
        ctx["message128"] = tree.process_batch()
    return ctx["message128"]


def _setup_split_session(ctx: dict) -> Callable[[], object]:
    from ..core.splitting import run_split_rekey
    from ..core.tmesh import rekey_session

    topology, group = _group(ctx, 128)
    message = _rekey_message_128(ctx)
    session = rekey_session(group.server_table, group.tables, topology)
    return lambda: run_split_rekey(session, message)


def _setup_user_stress_sweep(ctx: dict) -> Callable[[], object]:
    from ..core.tmesh import rekey_session

    topology, group = _group(ctx, 1024)
    session = rekey_session(group.server_table, group.tables, topology)

    def sweep():
        total = 0
        for member in session.receipts:
            total += session.user_stress(member)
        return total

    return sweep


def _setup_modified_tree_batch(ctx: dict) -> Callable[[], object]:
    from ..core.ids import Id, PAPER_SCHEME
    from ..keytree.modified_tree import ModifiedKeyTree

    ids = [Id([a, b, 0, 0, 0]) for a in range(16) for b in range(16)]

    def batch():
        tree = ModifiedKeyTree(PAPER_SCHEME)
        for uid in ids:
            tree.request_join(uid)
        tree.process_batch()
        for uid in ids[::4]:
            tree.request_leave(uid)
        return tree.process_batch().rekey_cost

    return batch


def _setup_original_tree_batch(ctx: dict) -> Callable[[], object]:
    from ..keytree.original_tree import OriginalKeyTree

    def batch():
        tree = OriginalKeyTree(degree=4)
        tree.initialize_balanced(list(range(256)))
        for u in range(64):
            tree.request_leave(u)
        for j in range(64):
            tree.request_join(f"n{j}")
        return tree.process_batch(np.random.default_rng(0)).rekey_cost

    return batch


def _setup_id_assignment_join(ctx: dict) -> Callable[[], object]:
    topology, group = _group(ctx, 128)

    def one_join():
        outcome = group.assigner.determine_prefix(
            100,
            topology.access_rtt(100),
            topology,
            group.query,
            group.records[next(iter(group.records))],
        )
        return len(outcome.determined_prefix)

    return one_join


def _scale_world(ctx: dict, num_users: int, seed: int = 20):
    key = ("scale", num_users, seed)
    if key not in ctx:
        from .scale import build_scale_world

        ctx[key] = build_scale_world(num_users, seed=seed)
    return ctx[key]


def _setup_rekey_10k(ctx: dict) -> Callable[[], object]:
    from ..core.tmesh import rekey_session

    topology, server_table, tables = _scale_world(ctx, 10_000)
    return lambda: rekey_session(server_table, tables, topology)


def _array_world(ctx: dict, num_users: int, seed: int = 20):
    key = ("array_world", num_users, seed)
    if key not in ctx:
        from .scale import build_array_world

        ctx[key] = build_array_world(num_users, seed=seed)
    return ctx[key]


def _setup_stream_rekey_100k(ctx: dict) -> Callable[[], object]:
    from .scale import run_streaming_rekey

    world = _array_world(ctx, 100_000)
    return lambda: run_streaming_rekey(world)


def _setup_stream_rekey_1m(ctx: dict) -> Callable[[], object]:
    from .scale import run_streaming_rekey

    world = _array_world(ctx, 1_000_000)
    return lambda: run_streaming_rekey(world)


def _setup_fig7(ctx: dict) -> Callable[[], object]:
    from ..experiments.latency_experiments import run_latency_experiment

    return lambda: run_latency_experiment(
        "Fig 7", "gtitm", 256, mode="rekey", runs=2, seed=7
    )


def _setup_build_group_256(ctx: dict) -> Callable[[], object]:
    from ..experiments.common import build_group, build_topology

    return lambda: build_group(
        build_topology("gtitm", 256, seed=20), 256, seed=20
    )


def _setup_distributed_join_64(ctx: dict) -> Callable[[], object]:
    """64 message-level joins in one wave (1 ms apart, so their Section
    3.1 phases overlap), then the close that announces them, on a pinned
    small GT-ITM graph (independent of ``REPRO_SCALE``)."""
    from ..distributed import DistributedGroup
    from ..experiments.common import build_topology
    from ..experiments.config import SMALL_GTITM

    key = ("join_topology", 64)
    if key not in ctx:
        ctx[key] = build_topology("gtitm", 64, seed=20, gtitm_params=SMALL_GTITM)
    topology = ctx[key]

    def join_wave():
        world = DistributedGroup(topology, server_host=64, seed=20)
        for host in range(64):
            world.schedule_join(host, at=1.0 + host)
        world.run()
        world.end_interval(at=world.scheduler.now + 1.0)
        world.run()
        return len(world.active_users())

    return join_wave


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("rekey_session_1024", 15, _setup_rekey_1024),
        Workload("planned_rekey_session_1024", 15, _setup_planned_rekey_1024),
        Workload("tmesh_session_128", 15, _setup_tmesh_128),
        Workload("split_predicate", 30, _setup_split_predicate),
        Workload("split_session", 15, _setup_split_session),
        Workload("user_stress_sweep_1024", 7, _setup_user_stress_sweep),
        Workload("modified_tree_batch", 10, _setup_modified_tree_batch),
        Workload("original_tree_batch", 10, _setup_original_tree_batch),
        Workload("id_assignment_join", 10, _setup_id_assignment_join),
        Workload("distributed_join_64", 7, _setup_distributed_join_64),
        Workload("rekey_session_10k", 5, _setup_rekey_10k, micro=False),
        Workload(
            "rekey_session_100k_stream", 5, _setup_stream_rekey_100k, micro=False
        ),
        Workload(
            "rekey_session_1m_stream",
            3,
            _setup_stream_rekey_1m,
            micro=False,
            optin=True,
        ),
        Workload("fig7_experiment", 3, _setup_fig7, micro=False),
        Workload("build_group_256", 3, _setup_build_group_256, micro=False),
    )
}
