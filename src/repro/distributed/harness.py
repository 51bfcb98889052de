"""Orchestration for the message-level protocol: schedule joins/leaves at
simulated times, run rekey intervals, and audit the emergent state.
"""

from __future__ import annotations

from collections import Counter
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

    def _schedule_each_member(self, at: float, action: str) -> None:
        """Every attached user runs its ``action`` method at ``at``."""

        def fire() -> None:
            for user in self.users.values():
                if self.transport.node_at(user.host) is user:
                    getattr(user, action)()

        self.scheduler.schedule_at(at, fire)

    def schedule_probe_round(self, at: float) -> None:
        """Every attached user runs one liveness-probe round at ``at``."""
        self._schedule_each_member(at, "probe_neighbors")

    def schedule_recovery_round(self, at: float) -> None:
        """Every attached member asks the server at ``at`` for interval
        announcements it missed (reference-[31] unicast recovery).  The
        request/response unicasts are themselves subject to any installed
        fault plan, so schedule a few rounds to converge under loss."""
        self._schedule_each_member(at, "request_recovery")

    def schedule_refill_sweep(self, at: float) -> None:
        """Every attached user runs one anti-entropy refill round at
        ``at``, re-querying region mates for any empty table entry (the
        repair path for announcements lost to an installed fault plan)."""
        self._schedule_each_member(at, "refill_sweep")

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

    def converge(self, rounds: int = 8, interval_ms: float = 512.0) -> int:
        """Bounded protocol-only repair (Section 3.2 failure recovery plus
        reference-[31] resync): drain, and while tables are not
        1-consistent or a member misses an announced interval, run one
        repair round and drain again, at most ``rounds`` times.  Returns
        the rounds that found gaps.

        A round flushes any pending announcement first, then probes
        twice, runs a recovery round and sweeps refills, so the newest
        interval's multicast (itself droppable) has its repair path
        inside the same round; an announcement at the tail would mint a
        fresh interval with no recovery behind it.  Probe evictions
        queued in one round are announced by the next round's flush.
        Needed under an installed fault plan, and on wall-clock drives
        where a join's last message can land after the announcement that
        should have carried it.  Every round is the protocol's own
        traffic, not oracle intervention."""
        server = self.server
        for used in range(rounds):
            self.run()
            if not self.check_one_consistency() and not self.missing_intervals():
                return used
            now = self.scheduler.now
            if (
                server._pending_joins
                or server._pending_leaves
                or server._pending_replacements
            ):
                self.end_interval(at=now + 0.05 * interval_ms)
            self.schedule_probe_round(at=now + 0.1 * interval_ms)
            self.schedule_probe_round(at=now + 0.4 * interval_ms)
            self.schedule_recovery_round(at=now + 0.7 * interval_ms)
            self.schedule_refill_sweep(at=now + 0.8 * interval_ms)
            self.run()
        self.run()
        return rounds

    def verify_invariants(self) -> None:
        """Audit the current world state with a one-shot verification
        context, raising :class:`repro.verify.InvariantViolation` on any
        broken invariant: :meth:`~repro.verify.VerificationContext.
        observe_distributed` (which picks the clean or the faulted
        regime) plus Section-2.4 key-tree agreement.  Unlike the
        automatic post-:meth:`run` hook this ignores the installed
        context and checks unconditionally."""
        from ..verify import VerificationContext

        context = VerificationContext(oracle=False)
        context.observe_distributed(self)
        context.observe_key_tree(self.server.key_tree)

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
        for every announced active user, each (i, j)-entry is non-empty
        iff the corresponding ID subtree has other announced active
        members, every stored record belongs to the right subtree, and
        no departed user lingers.  The membership is the server's
        announced set: a joiner that holds an ID but is not announced
        yet is in nobody's table, and no table can be faulted for it.

        Only slots that can hold a finding are visited: per row, the
        populated child digits of the user's level-i ancestor and the
        row's non-empty entries.  Findings come in (i, j) order."""
        problems: List[str] = []
        announced = self.server._announced
        members = [u for u in self.active_users() if u.user_id in announced]
        tree = IdTree(self.scheme, [u.user_id for u in members])
        alive = {u.user_id for u in members}
        for user in members:
            table, own = user.table, user.user_id
            filled: Dict[int, List[int]] = {}
            for i, j in table.slots():
                filled.setdefault(i, []).append(j)
            for i in range(self.scheme.num_digits):
                stem = own.prefix(i)
                digits = set(tree.child_digits(stem))
                digits.update(filled.get(i, ()))
                for j in sorted(digits):
                    records = table.entry(i, j)
                    if j == own[i]:
                        if records:
                            problems.append(
                                f"{own}: own-digit entry ({i},{j}) not empty"
                            )
                        continue
                    subtree = stem.extend(j)
                    population = tree.subtree_size(subtree)
                    if population and not records:
                        problems.append(
                            f"{own}: entry ({i},{j}) empty but "
                            f"subtree has {population} members"
                        )
                    for record in records:
                        if record.user_id not in alive:
                            problems.append(
                                f"{own}: stale record "
                                f"{record.user_id} in ({i},{j})"
                            )
                        elif not subtree.is_prefix_of(record.user_id):
                            problems.append(
                                f"{own}: record {record.user_id} "
                                f"outside subtree {subtree}"
                            )
        return problems

    def duplicates_by_interval(self) -> Dict[int, Dict[Id, int]]:
        """Per interval, the joined members that logged more than one
        copy of it, with their counts: :meth:`delivery_report`'s
        ``duplicates`` for every interval at once, in one pass over each
        member's copy log.  An ID held twice (handed out again) names its
        latest holder, as in :meth:`delivery_report`."""
        holders = {u.user_id: u for u in self.users.values() if u.joined}
        found: Dict[int, Dict[Id, int]] = {}
        for user_id, user in holders.items():
            for interval, count in Counter(user.copies_received).items():
                if count > 1:
                    found.setdefault(interval, {})[user_id] = count
        return found

    def missing_intervals(self) -> Dict[Id, List[int]]:
        """Recovery completeness (reference [31]): per active member with
        a gap, the announced intervals it does not hold.  A member holds
        an interval it logged a copy of and applied in order (up to its
        ``applied``).  It owes every interval from the update that
        announced its own record (ID, host and join time) onward; an
        earlier holder of a reused ID does not move that start back.  A
        member whose record is not announced yet owes nothing."""
        history = self.server._history
        announced_at: Dict[object, int] = {}
        for update in history:
            for record in update.joins + update.replacements:
                announced_at.setdefault(record, update.interval)
        missing: Dict[Id, List[int]] = {}
        for user in self.active_users():
            start = announced_at.get(user.record)
            if start is None:
                continue
            held = set(user.copies_received)
            applied = -1 if user.applied is None else user.applied
            gaps = [
                u.interval
                for u in history
                if u.interval >= start
                and (u.interval not in held or u.interval > applied)
            ]
            if gaps:
                missing[user.user_id] = gaps
        return missing

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
