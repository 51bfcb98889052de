"""Drivers for Figs. 6–11: rekey/data path latency, T-mesh vs NICE.

Figs. 6–8 (rekey): the key server multicasts a rekey message after all
joins terminate — in T-mesh via the FORWARD routine from its one-row
table, in NICE by unicasting to the NICE root (the topological center)
and flowing top-down.  Figs. 9–11 (data): a random user is the sender.

Each run permutes the join order (the paper varies joining times across
its 100 runs) and collects the three Section-4.1 metrics for every user;
results are ranked per run and averaged per rank across runs, which is
exactly how the paper builds its Fig. 6 curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..alm.nice import nice_multicast
from ..core.tmesh import data_session, rekey_session
from ..metrics.latency import LatencySample, alm_latency, tmesh_latency
from ..metrics.stats import RankedRuns, ranked_across_runs
from ..net.topology import Topology
from .common import build_group, build_nice, build_topology, join_order, server_host_of
from .config import SCHEME


@dataclass
class SchemeLatency:
    """Multi-run latency results for one multicast scheme."""

    stress: RankedRuns
    app_delay: RankedRuns
    rdp: RankedRuns

    def fraction_rdp_below(self, threshold: float) -> float:
        return float(np.mean(self.rdp.mean <= threshold))

    def median_delay(self) -> float:
        return float(np.median(self.app_delay.mean))

    def p95_stress(self) -> float:
        return float(np.percentile(self.stress.mean, 95))


@dataclass
class LatencyComparison:
    """One latency figure: T-mesh vs NICE on one topology/size."""

    figure: str
    mode: str  # "rekey" | "data"
    topology_kind: str
    num_users: int
    runs: int
    tmesh: SchemeLatency
    nice: SchemeLatency

    def headlines(self) -> Dict[str, float]:
        """The quantities the paper quotes in its Fig. 6 discussion."""
        return {
            "tmesh_rdp_lt2": self.tmesh.fraction_rdp_below(2.0),
            "tmesh_rdp_lt3": self.tmesh.fraction_rdp_below(3.0),
            "nice_rdp_lt2": self.nice.fraction_rdp_below(2.0),
            "nice_rdp_lt3": self.nice.fraction_rdp_below(3.0),
            "tmesh_median_delay_ms": self.tmesh.median_delay(),
            "nice_median_delay_ms": self.nice.median_delay(),
            "tmesh_p95_stress": self.tmesh.p95_stress(),
            "nice_p95_stress": self.nice.p95_stress(),
        }

    def render(self) -> str:
        h = self.headlines()
        lines = [
            f"{self.figure} — {self.mode} path latency "
            f"({self.topology_kind}, {self.num_users} users, {self.runs} runs)",
            f"{'metric':38s} {'T-mesh':>10s} {'NICE':>10s}",
            f"{'users with RDP < 2':38s} {h['tmesh_rdp_lt2']:>9.0%} {h['nice_rdp_lt2']:>9.0%}",
            f"{'users with RDP < 3':38s} {h['tmesh_rdp_lt3']:>9.0%} {h['nice_rdp_lt3']:>9.0%}",
            f"{'median app-layer delay (ms)':38s} {h['tmesh_median_delay_ms']:>10.1f} {h['nice_median_delay_ms']:>10.1f}",
            f"{'95th-pct user stress':38s} {h['tmesh_p95_stress']:>10.1f} {h['nice_p95_stress']:>10.1f}",
        ]
        return "\n".join(lines)


def replication_seeds(seed: int, runs: int) -> List[int]:
    """The per-run seeds a latency figure derives from its base seed
    (run ``r`` gets ``seed + 1000 * (r + 1)``)."""
    return [seed + 1000 * (run + 1) for run in range(runs)]


def _latency_run(
    run_seed: int,
    topology: Topology,
    num_users: int,
    mode: str,
    scheme,
    thresholds: Optional[Sequence[float]],
    server: int,
) -> Tuple[np.ndarray, ...]:
    """One replication of a latency figure, a pure function of its seed
    and the run-invariant inputs."""
    order = join_order(num_users, run_seed)
    group = build_group(
        topology, num_users, run_seed, scheme=scheme, thresholds=thresholds
    )
    hierarchy = build_nice(topology, order, run_seed)
    rng = np.random.default_rng(run_seed + 7)

    if mode == "rekey":
        t_sess = rekey_session(group.server_table, group.tables, topology)
        n_sess = nice_multicast(hierarchy, topology, server_host=server)
    else:
        sender_host = int(order[int(rng.integers(0, len(order)))])
        sender_id = next(
            uid for uid, rec in group.records.items() if rec.host == sender_host
        )
        t_sess = data_session(sender_id, group.tables, topology)
        n_sess = nice_multicast(hierarchy, topology, source_host=sender_host)

    t_sample = tmesh_latency(t_sess, topology)
    n_sample = alm_latency(n_sess, topology)
    return (
        t_sample.stress,
        t_sample.app_delay,
        t_sample.rdp,
        n_sample.stress,
        n_sample.app_delay,
        n_sample.rdp,
    )


def run_latency_experiment(
    figure: str,
    topology_kind: str,
    num_users: int,
    mode: str = "rekey",
    runs: int = 3,
    seed: int = 0,
    scheme=SCHEME,
    thresholds: Optional[Sequence[float]] = None,
) -> LatencyComparison:
    """Run one of Figs. 6–11.

    ``mode="rekey"`` sources the multicast at the key server;
    ``mode="data"`` at a random user.  The topology is fixed across runs;
    the join order (and data sender) varies per run.
    """
    if mode not in ("rekey", "data"):
        raise ValueError(f"mode must be rekey or data, got {mode!r}")
    topology = build_topology(topology_kind, num_users, seed)
    server = server_host_of(topology)
    results = [
        _latency_run(
            run_seed, topology, num_users, mode, scheme, thresholds, server
        )
        for run_seed in replication_seeds(seed, runs)
    ]
    t_stress = [r[0] for r in results]
    t_delay = [r[1] for r in results]
    t_rdp = [r[2] for r in results]
    n_stress = [r[3] for r in results]
    n_delay = [r[4] for r in results]
    n_rdp = [r[5] for r in results]

    return LatencyComparison(
        figure=figure,
        mode=mode,
        topology_kind=topology_kind,
        num_users=num_users,
        runs=runs,
        tmesh=SchemeLatency(
            ranked_across_runs(t_stress),
            ranked_across_runs(t_delay),
            ranked_across_runs(t_rdp),
        ),
        nice=SchemeLatency(
            ranked_across_runs(n_stress),
            ranked_across_runs(n_delay),
            ranked_across_runs(n_rdp),
        ),
    )
