"""The six workloads.

Every workload is a closed loop with one client on one thread: the next
operation is issued only after the previous one returned (synchronous
stack) or the world drained to quiescence (message-level stacks).  A
*cycle* is a churn phase followed by the interval close; both are timed
with ``time.perf_counter`` and both end quiescent.  The checks after each
close are untimed.

All randomness comes from :func:`derive`: the stacks are handed generated
inputs (topologies, seeds, host picks, fault plans) and never see the
benchmark seed or a workload name.  Each workload's *world* — topology,
join order, server and key seeds — is part of its definition and is
derived from ``WORLD_SEED``; ``--seed`` drives what happens to that world
afterwards: who leaves, which hosts join, which packets are lost.  (With
the world itself drawn from ``--seed``, ten seeds spread
``ops_per_s`` by 22 % and the virtual-clock latency by 17 % on
``secure_churn_1024`` — differences between groups, not between
commits.)
"""

from __future__ import annotations

import pickle
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.alm.reliable import ReliableSession
from repro.core.group import SecureGroup
from repro.core.tmesh import rekey_session
from repro.distributed import DistributedGroup
from repro.experiments.common import build_group, build_topology, server_host_of
from repro.experiments.config import SMALL_GTITM
from repro.faults import FaultPlan
from repro.keytree.modified_tree import ModifiedKeyTree
from repro.perf import scale
from repro.service import RekeyService
from repro.verify import InvariantViolation

from .tracing import Tracer

clock = time.perf_counter


#: The repo's canonical seed (every ``BENCH_PR*.json`` workload uses it).
WORLD_SEED = 20


def derive(seed: int, label: str) -> int:
    """An independent 32-bit seed for one purpose, a pure function of the
    benchmark seed and the purpose's name."""
    entropy = [seed, zlib.crc32(label.encode("ascii"))]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass
class Sample:
    """What one cycle measured and what its checks found."""

    churn_s: float = 0.0
    churn_ops: int = 0
    close_s: float = 0.0
    join_s: List[float] = field(default_factory=list)
    leave_s: List[float] = field(default_factory=list)
    #: Virtual-clock ms from the interval close to the last delivery.
    sim_ms: float = 0.0
    #: Encryptions in the interval's rekey message; None where the stack
    #: has no rekey message (the streaming array path).
    enc: Optional[int] = None
    #: Operations in ``ops_per_s``: membership changes where the workload
    #: has them, rekey sessions where it does not.
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Counts read from the stacks' public counters at phase boundaries,
    #: reported by the traced run only.
    layer: Dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def fail(self, what: str, who) -> None:
        who = list(who)
        self.failed += len(who)
        if who:
            self.problems.append(f"{what}: {', '.join(map(str, who[:4]))}")


class _Timed:
    """Wall time of one phase; also the phase's root span when traced."""

    __slots__ = ("tracer", "name", "seconds", "_start", "_span")

    def __init__(self, tracer: Optional[Tracer], name: str):
        self.tracer = tracer
        self.name = name
        self.seconds = 0.0

    def __enter__(self) -> "_Timed":
        tracer = self.tracer
        if tracer is not None:
            tracer.phase = self.name
            tracer.on = True
            self._span = tracer.begin(self.name)
        self._start = clock()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = clock() - self._start
        tracer = self.tracer
        if tracer is not None:
            tracer.end(self._span)
            tracer.on = False
            tracer.phase = ""


class Workload:
    """One workload: ``setup()`` builds the world, ``cycle(i)`` runs and
    checks one cycle, ``finish()`` audits the final state."""

    name = ""
    #: Cycles of a full untraced run (``--cycles-scale`` multiplies it).
    cycles = 1
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups = 1
    #: Member count of the full workload and of the smoke pass.
    size = 0
    smoke_size = 0

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.members = self.smoke_size if smoke else self.size
        self.tracer: Optional[Tracer] = None

    def derive(self, label: str) -> int:
        """A seed for something that happens to the world."""
        return derive(self.seed, label)

    def world_seed(self, label: str) -> int:
        """A seed for a part of the world itself."""
        return derive(WORLD_SEED, f"{self.name}/{label}")

    def timed(self, name: str) -> _Timed:
        return _Timed(self.tracer, name)

    def setup(self) -> Tuple[float, float]:
        """Build the world; returns ``(topology_s, members_s)``."""
        raise NotImplementedError

    def cycle(self, index: int) -> Sample:
        raise NotImplementedError

    def finish(self) -> List[str]:
        """End-of-run audit; returns the problems found."""
        return []

    def teardown(self) -> None:
        """Release sockets and loops (set-up may run more than once)."""


def _topology(workload: Workload, hosts: int):
    return build_topology(
        "gtitm", hosts, seed=workload.world_seed("topology"), gtitm_params=SMALL_GTITM
    )


# ----------------------------------------------------------------------
# SecureGroup: the synchronous stack with real keys
# ----------------------------------------------------------------------
class _Secure(Workload):
    size = 1024
    smoke_size = 64

    def _build(self, initial: int) -> Tuple[float, float]:
        burst = self.members // 16
        start = clock()
        # One spare host beyond the largest population, as in
        # build_topology("gtitm", 1089) for 1024 members + 64 joiners.
        topology = _topology(self, self.members + burst + 1)
        built = clock()
        self.burst = burst
        self.rng = np.random.default_rng(self.derive("churn"))
        self.loss_rng = np.random.default_rng(self.world_seed("loss"))
        self.group = SecureGroup(
            topology, server_host_of(topology), seed=self.world_seed("server")
        )
        order = np.random.default_rng(self.world_seed("members"))
        hosts = [int(h) for h in order.permutation(topology.num_hosts - 1)]
        for host in hosts[:initial]:
            self.group.join(host)
        self.group.end_interval(loss_rng=self.loss_rng)
        self.free = hosts[initial:]
        return built - start, clock() - built

    def _join_burst(self, sample: Sample) -> list:
        self.rng.shuffle(self.free)
        hosts, self.free = self.free[: self.burst], self.free[self.burst :]
        joined = []
        for host in hosts:
            begin = clock()
            joined.append(self.group.join(host))
            sample.join_s.append(clock() - begin)
        return joined

    def _leave_all(self, sample: Sample, user_ids) -> list:
        departed = []
        for user_id in user_ids:
            begin = clock()
            departed.append(self.group.leave(user_id))
            sample.leave_s.append(clock() - begin)
        self.free.extend(member.host for member in departed)
        return departed

    def _close(self, sample: Sample, joined, departed) -> None:
        group = self.group
        with self.timed("bench.close") as close:
            report = group.end_interval(loss_rng=self.loss_rng)
        sample.close_s += close.seconds
        sample.enc = (sample.enc or 0) + report.rekey_cost

        # Untimed checks.  Replaying the session over the tables the close
        # just used gives each member's delivery time and copy count.
        members = group.members
        session = rekey_session(
            group.membership.server_table, group.membership.tables, group.topology
        )
        receipts = session.receipts
        sample.sim_ms += max(r.arrival_time for r in receipts.values())
        sample.attempted += len(members) + len(departed) + len(joined)
        sample.fail(
            "stale keys",
            sorted({p.split(":", 1)[0] for p in group.verify_member_keys()}),
        )
        sample.fail(
            "not exactly one copy",
            [
                uid
                for uid in members
                if uid not in receipts
                or uid in session.duplicate_copies
                or uid not in report.delivered_encryptions
            ],
        )
        sample.fail(
            "departed member unwrapped keys",
            [m.user_id for m in departed if m.apply_rekey(report.message) > 0],
        )
        sample.fail(
            "join did not complete",
            [m.user_id for m in joined if members.get(m.user_id) is not m],
        )
        delivered = report.delivered_encryptions
        sample.layer["receipts"] += len(receipts)
        sample.layer["enc_received_mean"] += sum(delivered.values()) / max(
            1, len(delivered)
        )


class SecureChurn(_Secure):
    name = "secure_churn_1024"
    cycles = 6

    def setup(self) -> Tuple[float, float]:
        return self._build(self.members)

    def cycle(self, index: int) -> Sample:
        sample = Sample()
        ids = list(self.group.members)
        picks = self.rng.choice(len(ids), self.burst, replace=False)
        leavers = [ids[int(i)] for i in picks]
        with self.timed("bench.churn") as churn:
            # Joins go first.  The server hands a joiner any free ID, and
            # the key tree takes a join under an ID that left earlier in
            # the same interval for a rejoin: the u-node keeps its key,
            # so the departed holder could read the interval's message.
            # While the leavers still hold their IDs that cannot happen.
            joined = self._join_burst(sample)
            departed = self._leave_all(sample, leavers)
        sample.churn_s = churn.seconds
        sample.churn_ops = sample.ops = 2 * self.burst
        self._close(sample, joined, departed)
        return sample


class SecureFlash(_Secure):
    name = "secure_flash_1024"
    cycles = 6

    def setup(self) -> Tuple[float, float]:
        return self._build(self.members - self.members // 16)

    def cycle(self, index: int) -> Sample:
        sample = Sample()
        with self.timed("bench.churn") as churn:
            joined = self._join_burst(sample)
        sample.churn_s = churn.seconds
        self._close(sample, joined, [])
        # One contiguous block of the sorted-ID order: neighbours in the ID
        # tree share key paths, so the key tree has little to do while the
        # tables that pointed into the block cascade repairs.  What a block
        # costs depends on where it lies (0.8-3.7 s for 64 leaves), so
        # cycle k always takes the block at rank k/cycles and a run walks
        # the whole ID space; the seed decides which hosts had joined.
        ids = sorted(self.group.members, key=lambda uid: uid.digits)
        slots = len(ids) - self.burst + 1
        offset = index % self.cycles * slots // self.cycles
        with self.timed("bench.churn") as churn:
            departed = self._leave_all(sample, ids[offset : offset + self.burst])
        sample.churn_s += churn.seconds
        sample.churn_ops = sample.ops = 2 * self.burst
        self._close(sample, [], departed)
        return sample


# ----------------------------------------------------------------------
# DistributedGroup / RekeyService: the message-level protocol
# ----------------------------------------------------------------------
class _Protocol(Workload):
    waves = 4
    #: The stack's own 1-consistency audit walks every slot of every
    #: table (0.7 s at 256 members, more than a cycle), so it runs on
    #: every AUDIT_EVERY-th cycle and once more in ``finish()``.  Tables
    #: are not repaired between intervals, so a gap outlives the cycle
    #: that made it; the per-cycle delivery check sees its effect at once.
    AUDIT_EVERY = 6

    # The two stacks expose the same operations under different spellings.
    def _open(self, topology) -> None:
        raise NotImplementedError

    def _join(self, host: int, delay: float):
        raise NotImplementedError

    def _leave(self, host: int, delay: float) -> None:
        raise NotImplementedError

    def _end_interval(self, delay: float) -> None:
        raise NotImplementedError

    def _drain(self, joining=()) -> None:
        raise NotImplementedError

    def _wire(self) -> Tuple[int, int]:
        """``(frames written to streams, deliveries that skipped them)``."""
        return 0, 0

    def setup(self) -> Tuple[float, float]:
        self.churn = max(1, self.members // 16)
        start = clock()
        topology = _topology(self, self.members + 2 * self.churn)
        built = clock()
        self.rng = np.random.default_rng(self.derive("churn"))
        self._open(topology)
        order = np.random.default_rng(self.world_seed("members"))
        hosts = [int(h) for h in order.permutation(topology.num_hosts - 1)]
        wave = self.members // self.waves
        for w in range(self.waves):
            nodes = [
                self._join(host, 1.0 + n)
                for n, host in enumerate(hosts[w * wave : (w + 1) * wave])
            ]
            self._drain(nodes)
            self._end_interval(1.0)
            self._drain()
        self.free = hosts[self.waves * wave :]
        self.departed_ids = set()
        return built - start, clock() - built

    def cycle(self, index: int) -> Sample:
        sample = Sample()
        world = self.world
        stats, scheduler = world.transport.stats, world.scheduler
        active = sorted(user.host for user in world.active_users())
        picks = self.rng.choice(len(active), self.churn, replace=False)
        leavers = [active[int(i)] for i in picks]
        # Joins also refill what withdrawn joiners (below) left short.
        wanted = self.churn + self.members - len(active)
        self.rng.shuffle(self.free)
        joiners, self.free = self.free[:wanted], self.free[wanted:]

        sent, wire_start = stats.sent, self._wire()
        with self.timed("bench.churn") as churn:
            for n, host in enumerate(leavers):
                self._leave(host, 1.0 + n)
            nodes = [self._join(host, 1.0 + n) for n, host in enumerate(joiners)]
            self._drain(nodes)
            # Members keep a tombstone for every ID that ever left and
            # refuse to store a record under it, so a joiner the server
            # hands a departed member's ID would never be served.  Such a
            # joiner withdraws before the close (one more leave).
            withdrawn = [n.host for n in nodes if n.user_id in self.departed_ids]
            if withdrawn:
                for host in withdrawn:
                    self._leave(host, 1.0)
                self._drain()
        sample.churn_s = churn.seconds
        sample.churn_ops = sample.ops = len(leavers) + len(nodes) + len(withdrawn)
        sample.layer["messages_churn"] = stats.sent - sent
        sample.layer["withdrawn_joins"] = len(withdrawn)
        leavers += withdrawn
        self.departed_ids.update(world.users[host].user_id for host in leavers)

        sent, events = stats.sent, scheduler.events_processed
        wire_churned = self._wire()
        with self.timed("bench.close") as close:
            self._end_interval(1.0)
            self._drain()
        sample.close_s = close.seconds
        sample.layer["messages_close"] = stats.sent - sent
        sample.layer["events_close"] = scheduler.events_processed - events
        wire_closed = self._wire()
        sample.layer["frames_close"] = wire_closed[0] - wire_churned[0]
        sample.layer["frames"] = wire_closed[0] - wire_start[0]
        sample.layer["local_deliveries"] = wire_closed[1] - wire_start[1]

        # Untimed checks.
        log = world.intervals[-1]
        sample.sim_ms = scheduler.now - log.time
        sample.enc = len(log.update.encryptions)
        report = world.delivery_report(log.update.interval)
        members = world.active_users()
        sample.attempted = len(members) + len(leavers) + len(nodes)
        sample.fail(
            "not exactly one copy of the interval",
            [
                user.user_id
                for user in members
                if user.user_id not in report["received"]
                or user.user_id in report["duplicates"]
            ],
        )
        if index % self.AUDIT_EVERY == 0:
            sample.fail(
                "tables not 1-consistent",
                sorted({p.split(":", 1)[0] for p in world.check_one_consistency()}),
            )
        stuck = [h for h in leavers if world.transport.node_at(h) is not None]
        sample.fail("departed member still attached", stuck)
        sample.fail(
            "join did not complete", [n.host for n in nodes if not n.joined]
        )
        self.free.extend(h for h in leavers if h not in stuck)
        received = [report["encryptions"][user.user_id] for user in members]
        sample.layer["enc_received_mean"] = sum(received) / max(1, len(received))
        return sample


class DistributedChurn(_Protocol):
    name = "distributed_churn_256"
    cycles = 16
    setups = 2
    size = 256
    smoke_size = 32

    def _open(self, topology) -> None:
        self.world = DistributedGroup(
            topology,
            server_host_of(topology),
            seed=self.world_seed("server"),
            backend="simulator",
        )

    def _join(self, host: int, delay: float):
        return self.world.schedule_join(host, at=self.world.scheduler.now + delay)

    def _leave(self, host: int, delay: float) -> None:
        self.world.schedule_leave_of_host(host, at=self.world.scheduler.now + delay)

    def _end_interval(self, delay: float) -> None:
        self.world.end_interval(at=self.world.scheduler.now + delay)

    def _drain(self, joining=()) -> None:
        self.world.run()

    def finish(self) -> List[str]:
        try:
            self.world.verify_invariants()
        except InvariantViolation as violation:
            return [str(violation)]
        return []


class ServiceChurn(_Protocol):
    name = "service_churn_128"
    cycles = 18
    setups = 2
    size = 128
    smoke_size = 16

    #: Virtual ms between clock ticks while joins are in progress.  The
    #: deterministic drive fires the next timer as soon as the previous
    #: one returned, so when only far-off timers remain it jumps the
    #: clock past frames still on the wire and a joiner's 5000 ms query
    #: time-out fires before the answer is read.  A live service has a
    #: clock that ticks; this is that clock, on the virtual time line.
    TICK_MS = 1.0
    #: Virtual ms after which a join is given up as stuck.
    JOIN_DEADLINE_MS = 120_000.0

    service: Optional[RekeyService] = None

    def _open(self, topology) -> None:
        self.service = RekeyService(
            topology,
            server_host_of(topology),
            seed=self.world_seed("server"),
            use_sockets=True,
            realtime=False,
        )
        self.service.start()
        if not self.service.use_sockets:
            # RekeyService falls back to in-process delivery; this
            # workload exists to cross the loopback interface.
            raise RuntimeError("hub socket could not bind on 127.0.0.1")
        self.world = self.service.world

    def _join(self, host: int, delay: float):
        return self.service.join(host, delay=delay)

    def _leave(self, host: int, delay: float) -> None:
        self.service.leave(host, delay=delay)

    def _end_interval(self, delay: float) -> None:
        self.service.end_interval(delay=delay)

    def _drain(self, joining=()) -> None:
        if joining:
            scheduler = self.service.scheduler
            deadline = scheduler.now + self.JOIN_DEADLINE_MS

            def tick() -> None:
                if scheduler.now < deadline and not all(n.joined for n in joining):
                    scheduler.call_later(self.TICK_MS, tick)

            scheduler.call_later(self.TICK_MS, tick)
        self.service.drain()

    def _wire(self) -> Tuple[int, int]:
        transport = self.service.transport
        return transport.frames_sent, transport.local_deliveries

    def finish(self) -> List[str]:
        try:
            self.service.checkpoint()
        except InvariantViolation as violation:
            return [str(violation)]
        return []

    def teardown(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None


# ----------------------------------------------------------------------
# ReliableSession under loss / the streaming array path
# ----------------------------------------------------------------------
class LossyRepair(Workload):
    name = "lossy_repair_1024"
    cycles = 20
    size = 1024
    smoke_size = 64
    payloads = 8
    drop_rate = 0.05

    def setup(self) -> Tuple[float, float]:
        start = clock()
        self.topology = _topology(self, self.members)
        built = clock()
        self.group = build_group(
            self.topology, self.members, seed=self.world_seed("group")
        )
        # One crypto-mode rekey message for a batch of leaves, cut into
        # payloads; the tables stay static, the message is only freight.
        tree = ModifiedKeyTree(
            self.group.scheme,
            crypto=True,
            rng=np.random.default_rng(self.world_seed("keys")),
        )
        ids = list(self.group.user_ids)
        for user_id in ids:
            tree.request_join(user_id)
        tree.process_batch()
        rng = np.random.default_rng(self.world_seed("leavers"))
        for i in rng.choice(len(ids), max(1, self.members // 16), replace=False):
            tree.request_leave(ids[int(i)])
        message = tree.process_batch()
        encryptions, parts = message.encryptions, self.payloads
        self.message = message
        # Payloads travel as bytes, as they would on a wire; the session
        # hashes every delivered payload when it counts duplicates.
        self.parts = [
            pickle.dumps(
                encryptions[p * len(encryptions) // parts : (p + 1) * len(encryptions) // parts]
            )
            for p in range(parts)
        ]
        return built - start, clock() - built

    def cycle(self, index: int) -> Sample:
        sample = Sample(ops=1, attempted=1, enc=self.message.rekey_cost)
        plan = FaultPlan(self.derive(f"faults-{index}")).drop(self.drop_rate)
        with self.timed("bench.churn") as build:
            session = ReliableSession(
                self.group.tables, self.group.server_table, self.topology, plan=plan
            )
        sample.churn_s = build.seconds
        events = session.scheduler.events_processed
        with self.timed("bench.close") as close:
            outcome = session.multicast(self.parts)
        sample.close_s = close.seconds
        sample.sim_ms = session.scheduler.now
        short = outcome.members_short()
        if short or outcome.duplicates_surfaced:
            sample.fail("reliable session short or duplicated", [index])
        stats = outcome.stats
        sample.layer.update(
            events_close=session.scheduler.events_processed - events,
            nacks=stats.nacks_sent,
            retransmissions=stats.retransmissions,
            source_repairs=stats.source_repairs,
            heartbeats=stats.heartbeats_sent,
            duplicates_suppressed=stats.duplicates_suppressed,
            gave_up=stats.gave_up,
            data_sent=stats.data_sent,
            data_delivered=stats.data_delivered,
            drops=plan.stats.drops,
        )
        return sample


class StreamRekey(Workload):
    name = "stream_rekey_1m"
    cycles = 12
    setups = 3
    size = 1_000_000
    smoke_size = 10_000

    def setup(self) -> Tuple[float, float]:
        # The array world builds coordinates and codes in one call, so
        # all of set-up is "members".
        self.first_digest: Optional[str] = None
        start = clock()
        self.array_world = scale.build_array_world(self.members, seed=self.derive("world"))
        return 0.0, clock() - start

    def cycle(self, index: int) -> Sample:
        sample = Sample(ops=1, attempted=1)
        with self.timed("bench.close") as close:
            # Through the module, so a traced run's rebinding is seen.
            summary = scale.run_streaming_rekey(self.array_world)
        sample.close_s = close.seconds
        sample.sim_ms = summary.max_arrival
        if self.first_digest is None:
            self.first_digest = summary.digest
        if (
            summary.num_receipts != self.members
            or summary.num_duplicates != 0
            or summary.digest != self.first_digest
        ):
            sample.fail("streaming session wrong", [index])
        sample.layer["stream_receipts"] = summary.num_receipts
        return sample

    def teardown(self) -> None:
        self.array_world = None  # so a repeated set-up does not hold two


WORKLOADS = {
    cls.name: cls
    for cls in (
        SecureChurn,
        SecureFlash,
        DistributedChurn,
        ServiceChurn,
        LossyRepair,
        StreamRekey,
    )
}
