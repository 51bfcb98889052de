"""Seeded soak/chaos harness over the live service (docs/SERVICE.md).

One :class:`SoakHarness` run is a sequence of *cycles*.  Each cycle is
one rekey interval's worth of seeded workload — joins and leaves drawn
from a churn profile, optional chaos (fault-plan crash windows paired
with silent node crashes), the protocol's probe/recovery/refill rounds —
drained to quiescence.  Every ``checkpoint_every`` cycles the harness
converges (repeating recovery rounds until tables are 1-consistent and
every member holds every announced interval) and runs the
:meth:`~repro.service.server.RekeyService.checkpoint` invariant audit.
A scrape loop snapshots the metrics registry each cycle (Prometheus
text + JSONL, optionally written via :mod:`repro.metrics.export`).
The run ends with a graceful shutdown and a state snapshot; with
``restart_at_cycle`` set, the harness additionally restarts mid-run
from a live snapshot and proves the key-tree state survived
byte-identically.

Churn profiles (all rates are per-interval expectations, modulated per
cycle):

* ``steady`` — constant join/leave pressure;
* ``flash-crowd`` — a quiet baseline with 12x bursts two cycles out of
  every eight (the flash crowd arrives, then churns out);
* ``diurnal`` — a cosine day/night cycle with period 12 cycles.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..faults.plan import FaultPlan
from ..net.topology import Topology
from ..trace import hooks as _trace_hooks
from .server import RekeyService


@dataclass(frozen=True)
class ChurnProfile:
    """Per-interval workload rates plus their cycle modulation."""

    name: str
    join_rate: float
    leave_rate: float
    modulation: str  # "steady" | "flash" | "diurnal"

    def multiplier(self, cycle: int) -> float:
        if self.modulation == "flash":
            return 12.0 if cycle % 8 in (3, 4) else 0.5
        if self.modulation == "diurnal":
            return 0.25 + 1.75 * (
                0.5 - 0.5 * math.cos(2.0 * math.pi * cycle / 12.0)
            )
        return 1.0


PROFILES: Dict[str, ChurnProfile] = {
    "steady": ChurnProfile("steady", 2.0, 1.5, "steady"),
    "flash-crowd": ChurnProfile("flash-crowd", 1.0, 0.8, "flash"),
    "diurnal": ChurnProfile("diurnal", 2.0, 1.8, "diurnal"),
}


class ScrapeLoop:
    """Collects live metrics snapshots from the active trace context —
    Prometheus text and normalized JSONL — and optionally writes them
    through :mod:`repro.metrics.export`.  Also the fixture the
    metrics-under-concurrency tests drive mid-session."""

    def __init__(self, out_dir: Optional[str] = None):
        self.out_dir = out_dir
        self.prometheus_snapshots: List[str] = []
        self.jsonl_snapshots: List[List[str]] = []

    def scrape(self) -> str:
        tctx = _trace_hooks.ACTIVE
        if tctx is None:
            return ""
        text = tctx.registry.to_prometheus_text()
        self.prometheus_snapshots.append(text)
        self.jsonl_snapshots.append(list(tctx.registry.jsonl_lines()))
        if self.out_dir is not None:
            from ..metrics.export import write_prometheus

            write_prometheus(
                str(Path(self.out_dir) / "metrics.prom"), tctx.registry
            )
        return text


@dataclass
class SoakReport:
    """What one soak run did and found."""

    cycles: int = 0
    joins: int = 0
    leaves: int = 0
    crashes: int = 0
    intervals: int = 0
    checkpoints: int = 0
    convergence_rounds: int = 0
    restarts: int = 0
    restart_state_match: bool = True
    events: int = 0
    frames_sent: int = 0
    frames_delivered: int = 0
    messages_sent: int = 0
    messages_dropped: int = 0
    scrapes: int = 0
    snapshot_bytes: int = 0
    active_members: int = 0
    violations: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"cycles={self.cycles} intervals={self.intervals} "
            f"checkpoints={self.checkpoints} "
            f"(+{self.convergence_rounds} convergence rounds)",
            f"workload: {self.joins} joins, {self.leaves} leaves, "
            f"{self.crashes} crashes; {self.active_members} members active "
            f"at shutdown",
            f"engine: {self.events} events, {self.messages_sent} messages "
            f"({self.messages_dropped} dropped), "
            f"{self.frames_sent} frames over streams "
            f"({self.frames_delivered} delivered)",
            f"scrapes={self.scrapes} snapshot={self.snapshot_bytes}B "
            f"restarts={self.restarts} "
            f"restart_state_match={self.restart_state_match}",
        ]
        if self.violations:
            lines.append(f"VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"  {v}" for v in self.violations)
        else:
            lines.append("zero verify violations at every checkpoint")
        return "\n".join(lines)


def chaos_plan(
    seed: int, drop_rate: float = 0.03, delay_rate: float = 0.1
) -> FaultPlan:
    """The default soak fault plan: background loss plus jittery links.
    Crash windows are added live, per cycle, by the harness (they must
    line up with the silently crashing node)."""
    plan = FaultPlan(seed=seed)
    if drop_rate > 0:
        plan.drop(rate=drop_rate)
    if delay_rate > 0:
        plan.delay(rate=delay_rate, jitter=30.0)
    return plan


class SoakHarness:
    """Drive a :class:`RekeyService` with seeded churn and chaos."""

    #: Convergence rounds per checkpoint before the audit must pass.
    MAX_CONVERGENCE_ROUNDS = 8

    def __init__(
        self,
        topology: Topology,
        server_host: int,
        seed: int = 7,
        profile: str = "steady",
        interval_ms: float = 512.0,
        checkpoint_every: int = 4,
        chaos: bool = False,
        drop_rate: float = 0.03,
        crash_every: int = 6,
        realtime: bool = True,
        time_scale: float = 1e-5,
        use_sockets: bool = True,
        scrape_dir: Optional[str] = None,
        snapshot_path: Optional[str] = None,
        restart_at_cycle: Optional[int] = None,
        metrics_http: bool = False,
    ):
        self.topology = topology
        self.server_host = server_host
        self.seed = seed
        self.profile = PROFILES[profile]
        self.interval_ms = interval_ms
        self.checkpoint_every = checkpoint_every
        self.chaos = chaos
        self.crash_every = crash_every
        self.realtime = realtime
        self.time_scale = time_scale
        self.use_sockets = use_sockets
        self.snapshot_path = snapshot_path
        self.restart_at_cycle = restart_at_cycle
        self.metrics_http = metrics_http
        self.plan = chaos_plan(seed, drop_rate=drop_rate) if chaos else None
        self.rng = np.random.default_rng(seed)
        self.scrape_loop = ScrapeLoop(scrape_dir)
        self.report = SoakReport()
        self._events_base = 0
        self.service = self._build_service(snapshot=None)

    def _build_service(self, snapshot: Optional[bytes]) -> RekeyService:
        return RekeyService(
            self.topology,
            self.server_host,
            seed=self.seed,
            fault_plan=self.plan,
            realtime=self.realtime,
            time_scale=self.time_scale,
            use_sockets=self.use_sockets,
            snapshot=snapshot,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        seconds: Optional[float] = None,
        cycles: Optional[int] = None,
    ) -> SoakReport:
        """Soak until the wall-clock budget (``seconds``, measured with
        the sanctioned reporting clock) or the cycle budget runs out —
        at least one cycle always runs.  Returns the report; verify
        violations are collected per checkpoint (and also leave the run
        marked failed) rather than aborting the soak."""
        if seconds is None and cycles is None:
            cycles = 1
        service = self.service
        service.start()
        if self.metrics_http:
            service.start_metrics_http()
        started = time.perf_counter()
        cycle = 0
        while True:
            if cycles is not None and cycle >= cycles:
                break
            if (
                seconds is not None
                and cycle > 0
                and time.perf_counter() - started >= seconds
            ):
                break
            self._run_cycle(cycle)
            if (cycle + 1) % self.checkpoint_every == 0:
                self._checkpoint()
            self.report.scrapes += 1 if self.scrape_loop.scrape() else 0
            if self.restart_at_cycle == cycle:
                self._restart()
            cycle += 1
        self.report.cycles = cycle
        self._checkpoint()
        self.report.scrapes += 1 if self.scrape_loop.scrape() else 0
        self._harvest_engine_counters()
        self.report.active_members = len(self.service.world.active_users())
        blob = self.service.shutdown(self.snapshot_path)
        self.report.snapshot_bytes = len(blob)
        return self.report

    # ------------------------------------------------------------------
    def _free_hosts(self) -> List[int]:
        transport = self.service.transport
        return [
            h
            for h in range(self.topology.num_hosts)
            if h != self.server_host and transport.node_at(h) is None
        ]

    def _active_hosts(self) -> List[int]:
        return sorted(u.host for u in self.service.world.active_users())

    def _pick(self, pool: List[int], count: int) -> List[int]:
        if count <= 0 or not pool:
            return []
        count = min(count, len(pool))
        picked = self.rng.choice(len(pool), size=count, replace=False)
        return [pool[i] for i in sorted(int(i) for i in picked)]

    def _run_cycle(self, cycle: int) -> None:
        service = self.service
        interval = self.interval_ms
        mult = self.profile.multiplier(cycle)
        join_hosts = self._pick(
            self._free_hosts(), int(self.rng.poisson(self.profile.join_rate * mult))
        )
        # Bootstrap pressure: never let the group die out entirely.
        if not self._active_hosts() and not join_hosts:
            join_hosts = self._pick(self._free_hosts(), 2)
        leave_hosts = self._pick(
            self._active_hosts(),
            int(self.rng.poisson(self.profile.leave_rate * mult)),
        )
        for host in join_hosts:
            service.join(host, delay=float(self.rng.uniform(0, 0.6 * interval)))
            self.report.joins += 1
        for host in leave_hosts:
            service.leave(host, delay=float(self.rng.uniform(0, 0.6 * interval)))
            self.report.leaves += 1
        if (
            self.chaos
            and self.crash_every > 0
            and cycle % self.crash_every == self.crash_every - 1
        ):
            victims = self._pick(
                [h for h in self._active_hosts() if h not in leave_hosts], 1
            )
            for host in victims:
                at = float(self.rng.uniform(0.1 * interval, 0.5 * interval))
                # The declarative crash window makes in-flight traffic to
                # the victim drop; the scheduled detach is the crash.
                self.plan.crash(
                    host,
                    at=service.scheduler.now + at,
                    until=service.scheduler.now + at + 64 * interval,
                )
                service.crash(host, delay=at)
                self.report.crashes += 1
        service.probe_round(delay=0.7 * interval)
        service.recovery_round(delay=0.8 * interval)
        service.refill_sweep(delay=0.85 * interval)
        service.end_interval(delay=interval)
        self.report.intervals += 1
        service.drain()

    # ------------------------------------------------------------------
    def _checkpoint(self) -> None:
        """Converge, then audit.  A join whose protocol straddled an
        interval boundary leaves tables legitimately unconverged until
        the next announcement, and under chaos the protocol's own repair
        machinery (probe -> failure notice -> eviction, reference-[31]
        recovery, refill sweeps) needs bounded extra rounds before the
        invariants are theorems again (:meth:`DistributedGroup.
        converge`)."""
        world = self.service.world
        intervals = len(world.intervals)
        self.report.convergence_rounds += world.converge(
            self.MAX_CONVERGENCE_ROUNDS, self.interval_ms
        )
        self.report.intervals += len(world.intervals) - intervals
        try:
            self.service.checkpoint()
            self.report.checkpoints += 1
        except Exception as exc:  # InvariantViolation: record, keep soaking
            self.report.violations.append(str(exc))

    # ------------------------------------------------------------------
    def _harvest_engine_counters(self) -> None:
        scheduler = self.service.scheduler
        transport = self.service.transport
        self.report.events = self._events_base + scheduler.events_processed
        self.report.frames_sent += transport.frames_sent
        self.report.frames_delivered += transport.frames_delivered
        self.report.messages_sent += transport.stats.sent
        self.report.messages_dropped += transport.stats.dropped

    def _restart(self) -> None:
        """Graceful shutdown mid-soak, then resume a fresh service from
        the snapshot: the key-tree state must survive byte-identically
        (canonical serialization), absent members are evicted, and the
        soak continues against the restarted service."""
        old = self.service
        old.drain()
        pre_state = old.world.server.key_tree_state()
        pre_interval = old.world.server.interval
        self._harvest_engine_counters()
        blob = old.shutdown()
        self._events_base = self.report.events
        service = self._build_service(snapshot=blob)
        post_state = service.world.server.key_tree_state()
        if post_state != pre_state:
            self.report.restart_state_match = False
            self.report.violations.append(
                "restart: restored key-tree state differs from snapshot"
            )
        if service.world.server.interval != pre_interval:
            self.report.violations.append(
                "restart: interval counter did not survive the snapshot"
            )
        service.start()
        if self.metrics_http:
            service.start_metrics_http()
        service.evict_absent_members()
        service.end_interval(delay=self.interval_ms)
        self.report.intervals += 1
        self.service = service
        service.drain()
        self.report.restarts += 1
