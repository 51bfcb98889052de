"""Orchestration for the message-level protocol: schedule joins/leaves at
simulated times, run rekey intervals, and audit the emergent state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.id_assignment import PAPER_THRESHOLDS
from ..core.id_tree import IdTree
from ..core.ids import Id, IdScheme, PAPER_SCHEME
from ..faults.plan import FaultPlan, FaultStats
from ..net.scheduling import SchedulingBackend, create_backend
from ..net.topology import Topology
from ..trace import hooks as _trace_hooks
from ..verify import hooks as _verify_hooks
from .messages import MembershipUpdate
from .nodes import ServerNode, UserNode


@dataclass
class IntervalLog:
    """What one rekey interval announced."""

    update: MembershipUpdate
    time: float


class DistributedGroup:
    """A key server plus user nodes exchanging real protocol messages.

    Typical use::

        world = DistributedGroup(topology, server_host=n)
        world.schedule_join(host=3, at=10.0)
        world.schedule_leave_of_host(3, at=500.0)
        world.end_interval(at=512.0)
        world.run()
        assert world.check_one_consistency() == []
    """

    def __init__(
        self,
        topology: Topology,
        server_host: int,
        scheme: IdScheme = PAPER_SCHEME,
        thresholds: Tuple[float, ...] = PAPER_THRESHOLDS,
        k: int = 4,
        seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        backend: "str | SchedulingBackend" = "simulator",
    ):
        self.scheme = scheme
        self.thresholds = thresholds
        self.k = k
        if isinstance(backend, str):
            backend = create_backend(backend, topology)
        self.backend = backend
        self.scheduler = backend.scheduler
        self.transport = backend.transport
        self.transport.install_faults(fault_plan)
        self.fault_plan = fault_plan
        self.server = ServerNode(self.transport, server_host, scheme, k=k, seed=seed)
        self.users: Dict[int, UserNode] = {}
        self.intervals: List[IntervalLog] = []

    # ------------------------------------------------------------------
    def schedule_join(self, host: int, at: float) -> UserNode:
        """Create a user node and schedule its join protocol at ``at``."""
        node = UserNode(
            self.transport,
            host,
            self.server.host,
            self.scheme,
            self.thresholds,
            k=self.k,
        )
        self.users[host] = node
        self.scheduler.schedule_at(at, node.start_join)
        return node

    def schedule_leave_of_host(self, host: int, at: float) -> None:
        self.scheduler.schedule_at(at, self.users[host].start_leave)

    def schedule_crash(self, host: int, at: float) -> None:
        """Silent failure: the node detaches without any protocol; other
        members must detect it by missed pings (Section 3.2)."""
        self.scheduler.schedule_at(at, self.users[host].detach)

    def schedule_probe_round(self, at: float) -> None:
        """Every attached user runs one liveness-probe round at ``at``."""

        def fire() -> None:
            for user in self.users.values():
                if self.transport.node_at(user.host) is user:
                    user.probe_neighbors()

        self.scheduler.schedule_at(at, fire)

    def schedule_recovery_round(self, at: float) -> None:
        """Every attached member asks the server at ``at`` for interval
        announcements it missed (reference-[31] unicast recovery).  The
        request/response unicasts are themselves subject to any installed
        fault plan, so schedule a few rounds to converge under loss."""

        def fire() -> None:
            for user in self.users.values():
                if self.transport.node_at(user.host) is user:
                    user.request_recovery()

        self.scheduler.schedule_at(at, fire)

    def schedule_refill_sweep(self, at: float) -> None:
        """Every attached user runs one anti-entropy refill round at
        ``at``, re-querying region mates for any empty table entry (the
        repair path for announcements lost to an installed fault plan)."""

        def fire() -> None:
            for user in self.users.values():
                if self.transport.node_at(user.host) is user:
                    user.refill_sweep()

        self.scheduler.schedule_at(at, fire)

    def end_interval(self, at: float) -> None:
        """Schedule an interval end (batch rekey + announcement)."""

        def fire() -> None:
            update = self.server.end_interval()
            self.intervals.append(IntervalLog(update, self.scheduler.now))
            tctx = _trace_hooks.ACTIVE
            if tctx is not None:
                tctx.observe_interval(update, self.scheduler.now)

        self.scheduler.schedule_at(at, fire)

    def run(self, until: Optional[float] = None) -> None:
        tctx = _trace_hooks.ACTIVE
        if tctx is None:
            self.scheduler.run(until=until)
        else:
            # Snapshot the network's message pump around the drain so the
            # span carries this run's traffic, not the world's lifetime
            # totals.
            stats = self.transport.stats
            before = (stats.sent, stats.delivered, stats.dropped)
            with tctx.span(
                "distributed.run", users=len(self.users)
            ) as span:
                self.scheduler.run(until=until)
                span.set(
                    messages_sent=stats.sent - before[0],
                    messages_delivered=stats.delivered - before[1],
                    messages_dropped=stats.dropped - before[2],
                    intervals=len(self.intervals),
                    now_ms=self.scheduler.now,
                )
            tctx.registry.inc("distributed.messages_sent", stats.sent - before[0])
            tctx.registry.inc(
                "distributed.messages_delivered", stats.delivered - before[1]
            )
            tctx.registry.inc(
                "distributed.messages_dropped", stats.dropped - before[2]
            )
        if until is None:
            # The world is quiescent (queue drained): let an installed
            # verification context audit the emergent state.  Announcement
            # unicasts are all delivered by now, so 1-consistency is a
            # theorem here — but only without injected faults, whose
            # losses legitimately leave tables stale until the recovery
            # rounds run.
            ctx = _verify_hooks.ACTIVE
            if ctx is not None and self.fault_plan is None:
                ctx.observe_distributed(self)

    def verify_invariants(self) -> None:
        """Audit the current world state with a one-shot verification
        context, raising :class:`repro.verify.InvariantViolation` on any
        broken invariant.  Unlike the automatic post-:meth:`run` hook
        this ignores the installed context and checks unconditionally."""
        from ..verify import VerificationContext

        VerificationContext(oracle=False).observe_distributed(self)

    @property
    def fault_stats(self) -> FaultStats:
        """What the installed fault plan injected (all-zero without one)."""
        if self.fault_plan is None:
            return FaultStats()
        return self.fault_plan.stats

    # ------------------------------------------------------------------
    # Audits
    # ------------------------------------------------------------------
    def active_users(self) -> List[UserNode]:
        """Users that joined and have not departed."""
        return [
            u
            for u in self.users.values()
            if u.joined and self.transport.node_at(u.host) is u
        ]

    def check_one_consistency(self) -> List[str]:
        """1-consistency of the emergent tables (what Theorem 1 needs):
        for every active user, each (i, j)-entry is non-empty iff the
        corresponding ID subtree has other members, every stored record
        belongs to the right subtree, and no departed user lingers."""
        problems: List[str] = []
        active = self.active_users()
        tree = IdTree(self.scheme, [u.user_id for u in active])
        alive = {u.user_id for u in active}
        for user in active:
            table = user.table
            for i in range(self.scheme.num_digits):
                for j in range(self.scheme.base):
                    if j == user.user_id[i]:
                        if table.entry(i, j):
                            problems.append(
                                f"{user.user_id}: own-digit entry ({i},{j}) "
                                "not empty"
                            )
                        continue
                    subtree = tree.ij_subtree_root(user.user_id, i, j)
                    population = tree.subtree_size(subtree)
                    records = table.entry(i, j)
                    if population and not records:
                        problems.append(
                            f"{user.user_id}: entry ({i},{j}) empty but "
                            f"subtree has {population} members"
                        )
                    for record in records:
                        if record.user_id not in alive:
                            problems.append(
                                f"{user.user_id}: stale record "
                                f"{record.user_id} in ({i},{j})"
                            )
                        elif not subtree.is_prefix_of(record.user_id):
                            problems.append(
                                f"{user.user_id}: record {record.user_id} "
                                f"outside subtree {subtree}"
                            )
        return problems

    def delivery_report(self, interval: int) -> Dict[str, object]:
        """How one interval's multicast went: who received it, copy
        counts, and encryption loads — for Theorem-1-style assertions on
        the wire-level protocol."""
        copies = {
            u.user_id: u.copies_received.count(interval)
            for u in self.users.values()
            if u.joined
        }
        return {
            "received": {uid for uid, c in copies.items() if c >= 1},
            "duplicates": {uid: c for uid, c in copies.items() if c > 1},
            "encryptions": {
                u.user_id: u.encryptions_received.get(interval, 0)
                for u in self.users.values()
                if u.joined
            },
        }
