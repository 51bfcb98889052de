"""Reliable T-mesh delivery: NACK-based selective repair over FORWARD.

Theorem 1 gives *exactly-once* delivery over 1-consistent tables — but
only without losses.  This module degrades that guarantee gracefully to
*at-least-once, deduplicated* under an injected
:class:`~repro.faults.FaultPlan` (or any lossy network), in the spirit of
NACK-oriented reliable multicast (NORM, RFC 5740):

* the source stamps every payload with a **sequence number**; a receiver
  tracks one stream per ``(source, forwarding level)`` — the level at
  which the T-mesh delivers the stream to it — and detects holes from
  the sequence numbers it does see;
* every data copy carries its burst's **watermark** (the highest
  sequence number sent), so one copy of anything reveals all of the
  burst's holes, trailing ones included;
* the watermark is **acknowledged hop by hop** (NORM's watermark ACK to
  ``CMD(FLUSH)``, scaled by the mesh's bounded fan-out): a member acks
  its upstream the first time a mesh copy shows it a watermark, and each
  forwarder — the source included — **heartbeats only its own next hops
  that have not acknowledged**, once per ``heartbeat_interval``, at most
  ``heartbeat_rounds`` times.  A node that first learns a watermark from
  a heartbeat relays it at once, so the subtree behind a member that
  lost every copy learns the burst's extent in one pass; retried per
  hop, the watermark survives drops that end a flood at its first one;
* a receiver with holes sends a **selective NACK** (the explicit list of
  missing sequence numbers) to its *upstream* — the neighbor it last
  heard the stream from — after a short reordering grace period, and
  retries with **exponential backoff**; after a few upstream attempts it
  escalates to the source itself, and a bounded retry budget guarantees
  the event queue always drains;
* every forwarder keeps a **bounded repair buffer** of the packets it has
  seen and answers NACKs with unicast retransmissions, so repair traffic
  stays inside the topological region the T-mesh already confines the
  stream to (local recovery);
* a repaired hole is **re-forwarded once** down the repairing node's own
  rows: when a forwarder recovers a packet its whole subtree was missing,
  the repair heals the subtree instead of stranding it behind further
  NACK rounds (NORM's local-repair multicast).  The per-node
  ``(source, seq)`` seen-set bounds this — each node forwards each packet
  at most once — and suppresses every duplicate before the application
  sees it, which is what keeps the application contract "exactly one
  delivered copy".

All repair accounting flows through
:class:`repro.metrics.faults.RepairStats` so experiments can report
delivery ratio and repair overhead as a function of loss rate.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ..core.ids import Id
from ..core.neighbor_table import NeighborTable, UserRecord
from ..faults.plan import FaultPlan
from ..metrics.faults import RepairStats
from ..net.scheduling import (
    SchedulingBackend,
    Transport,
    TransportNode,
    create_backend,
)
from ..net.topology import Topology
from ..trace import hooks as _trace_hooks


# ----------------------------------------------------------------------
# Wire messages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TmeshData:
    """One payload copy: multicast (first transmission, forwarded by
    FORWARD) or unicast repair (``retransmit=True``, never forwarded).
    ``highest_seq`` is the burst's watermark — the source has sent
    everything up to it — so any one copy reveals every hole."""

    source: Id
    source_host: int
    seq: int
    forward_level: int
    payload: Any
    highest_seq: int
    retransmit: bool = False


@dataclass(frozen=True)
class TmeshAck:
    """'I know the source has sent everything up to ``highest_seq``',
    said one hop up: the sender stops heartbeating this next hop, which
    now answers for its own holes and its own next hops."""

    source: Id
    highest_seq: int


@dataclass(frozen=True)
class TmeshHeartbeat:
    """The watermark alone, sent by a forwarder to one next hop that has
    not acknowledged it — NORM's flush command, per hop.  ``round`` is
    the sender's retry number on that edge (what the trace reports)."""

    source: Id
    source_host: int
    highest_seq: int
    forward_level: int
    round: int


@dataclass(frozen=True)
class TmeshNack:
    """Selective repair request: the explicit missing sequence numbers.
    Answered with unicast retransmissions by whoever buffers them."""

    source: Id
    source_host: int
    missing: Tuple[int, ...]


@dataclass(frozen=True)
class ReliabilityConfig:
    """Knobs of the repair protocol (simulated-time units are ms)."""

    #: reordering grace before the first NACK for a detected hole
    nack_delay: float = 10.0
    #: first retransmission timeout; doubles per retry (``backoff``)
    rto: float = 80.0
    backoff: float = 2.0
    #: NACKs aimed at the upstream before escalating to the source
    max_upstream_nacks: int = 3
    #: NACKs aimed at the source before giving the hole up
    max_source_nacks: int = 8
    #: heartbeats a forwarder spends on one next hop that stays silent
    heartbeat_rounds: int = 12
    #: wait for an acknowledgement before (re)sending a heartbeat
    heartbeat_interval: float = 50.0
    #: packets per source a node keeps for answering NACKs
    repair_buffer: int = 256
    #: master switch: ``False`` degrades to plain (lossy) FORWARD
    repair_enabled: bool = True
    #: route around next hops known down (Section 2.3's K > 1 recovery:
    #: the next neighbor of the same table entry replaces a dead primary)
    use_backups: bool = True


@dataclass
class _RepairState:
    """Per-source NACK retry state at one receiver."""

    attempts: int = 0
    event: Optional[object] = None  # pending NACK timer, if any


@dataclass
class _Watch:
    """One watermark this node answers for: acknowledged upstream, and
    owed to every next hop below ``level`` until that hop acknowledges."""

    highest: int
    level: int  # the forwarding level this node relays the stream from
    acked: Set[int] = field(default_factory=set)  # next-hop hosts
    rounds: int = 0  # heartbeats spent on each hop still silent
    event: Optional[object] = None  # pending heartbeat timer, if any


class ReliableTmeshNode(TransportNode):
    """A member (or the key server) speaking the reliable T-mesh
    protocol.  ``table`` is its neighbor table — one row for the key
    server, ``D`` rows for a user (Section 2.2).

    The node depends only on the scheduling seam: any
    :class:`~repro.net.scheduling.Transport` (and the
    :class:`~repro.net.scheduling.Scheduler` behind it) can carry the
    protocol — the discrete event simulator and the standalone event
    loop are interchangeable backends."""

    def __init__(
        self,
        transport: Transport,
        record: UserRecord,
        table: NeighborTable,
        config: Optional[ReliabilityConfig] = None,
        down_check=None,
    ):
        super().__init__(transport, record.host)
        self.record = record
        self.table = table
        self.config = config if config is not None else ReliabilityConfig()
        #: liveness oracle for Section-2.3 backup routing — models the
        #: probing-based failure detection of the distributed layer
        self._down_check = down_check if down_check is not None else (lambda host: False)
        self.stats = RepairStats()
        #: payloads handed to the application, per source, arrival order
        self.delivered: Dict[Id, List[Tuple[int, Any]]] = {}
        self._seen: Dict[Id, Set[int]] = {}
        self._buffer: Dict[Id, "OrderedDict[int, TmeshData]"] = {}
        self._upstream: Dict[Id, int] = {}
        self._level: Dict[Id, int] = {}  # (source, forwarding-level) stream
        self._highest: Dict[Id, int] = {}
        self._watches: Dict[Id, _Watch] = {}
        self._repairs: Dict[Id, _RepairState] = {}
        self._next_seq = 0  # when this node is a source

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def source_id(self) -> Id:
        return self.record.user_id

    def delivered_payloads(self, source: Id) -> List[Any]:
        """Application deliveries from ``source`` in sequence order."""
        return [p for _, p in sorted(self.delivered.get(source, []))]

    def missing_from(self, source: Id) -> List[int]:
        """Sequence numbers known missing (unrepaired holes)."""
        seen = self._seen.get(source, ())
        highest = self._highest.get(source, -1)
        return [s for s in range(highest + 1) if s not in seen]

    # ------------------------------------------------------------------
    # Sending (this node as the stream source)
    # ------------------------------------------------------------------
    def send_stream(self, payloads: List[Any]) -> Tuple[int, int]:
        """Multicast ``payloads`` reliably; returns the (first, last)
        sequence numbers used."""
        first = self._next_seq
        last = first + len(payloads) - 1
        source = self.source_id
        seen = self._seen.setdefault(source, set())
        self._highest[source] = last
        self._next_seq = last + 1
        for seq, payload in enumerate(payloads, first):
            msg = TmeshData(source, self.host, seq, 0, payload, last)
            seen.add(seq)
            self._remember(msg)
            self._forward(msg)
        if self.config.repair_enabled:
            self._watch_next_hops(source, self.host, last, 0, relay=False)
        return first, last

    # ------------------------------------------------------------------
    # FORWARD (Fig. 2) over the live network
    # ------------------------------------------------------------------
    def _next_hop(self, i: int, j: int, primary: UserRecord) -> Optional[UserRecord]:
        """The (i,j)-primary, or — when it is known down and backups are
        on — the closest live neighbor of the same entry (Section 2.3)."""
        if not self.config.use_backups or not self._down_check(primary.host):
            return primary
        return next(
            (r for r in self.table.entry(i, j) if not self._down_check(r.host)),
            None,
        )

    def _next_hops(self, level: int) -> Iterator[Tuple[int, List[int]]]:
        """What FORWARD sends to from forwarding level ``level``: per
        row, the level its copies carry and the hosts they go to."""
        if self.table.is_server_table:
            rows = range(0, 1 if level == 0 else 0)
        else:
            rows = range(level, self.table.scheme.num_digits)
        for i in rows:
            hosts = [
                nbr.host
                for j, primary in self.table.row_primaries(i)
                if (nbr := self._next_hop(i, j, primary)) is not None
            ]
            if hosts:
                yield i + 1, hosts

    def _forward(self, msg: TmeshData) -> None:
        for level, hosts in self._next_hops(msg.forward_level):
            copy = TmeshData(
                msg.source, msg.source_host, msg.seq, level, msg.payload, msg.highest_seq
            )
            self.stats.data_sent += len(hosts)
            for host in hosts:
                self.send(host, copy)

    # ------------------------------------------------------------------
    # Watermark: acknowledged hop by hop
    # ------------------------------------------------------------------
    def _watch_next_hops(
        self, source: Id, source_host: int, highest: int, level: int, relay: bool
    ) -> None:
        """Answer for watermark ``highest`` below this node: each next
        hop is heartbeated until it acknowledges or the per-hop budget
        is spent.  ``relay`` sends the first heartbeat now — the
        watermark came by heartbeat, so no data copy carries it down."""
        old = self._watches.get(source)
        if old is not None and old.event is not None:
            old.event.cancel()
        watch = self._watches[source] = _Watch(highest, level)
        if relay:
            self._watch_round(source, source_host, watch)
        else:
            hops = [h for _, hosts in self._next_hops(level) for h in hosts]
            self._await_acks(source, source_host, watch, hops)

    def _await_acks(
        self, source: Id, source_host: int, watch: _Watch, hops: List[int]
    ) -> None:
        """Look at ``hops`` again once the farthest one's acknowledgement
        is ``heartbeat_interval`` overdue: its round trip (the RTT this
        node measured when it took the neighbor into its table) comes
        first, or every edge longer than the interval would be
        heartbeated in a session that lost nothing."""
        if hops:
            rtt = self.transport.topology.rtt
            watch.event = self.scheduler.schedule(
                self.config.heartbeat_interval + max(rtt(self.host, h) for h in hops),
                partial(self._watch_round, source, source_host, watch),
            )

    def _watch_round(self, source: Id, source_host: int, watch: _Watch) -> None:
        """Heartbeat the next hops still silent, then wait for their
        acknowledgements again.  Hops are resolved afresh, so a backup
        takes over the edge of a primary that died meanwhile."""
        watch.event = None
        unacked = [
            (host, below)
            for below, hosts in self._next_hops(watch.level)
            for host in hosts
            if host not in watch.acked
        ]
        if not unacked:
            return
        spent = watch.rounds >= self.config.heartbeat_rounds
        # One slot read per *heartbeat round* — rounds only fire where an
        # acknowledgement is overdue, never on the fault-free path.
        tctx = _trace_hooks.ACTIVE
        if tctx is not None:
            tctx.event(
                "reliable.watermark_unacked" if spent else "reliable.watermark_round",
                source=str(source),
                hop_host=self.host,
                round=watch.rounds,
                unacked=",".join(str(host) for host, _ in unacked),
                time_ms=self.scheduler.now,
            )
            tctx.registry.inc(
                "reliable.watermarks_unacked" if spent else "reliable.watermark_rounds"
            )
        if spent:
            return  # the budget ran out on these edges; the record says so
        self.stats.heartbeats_sent += len(unacked)
        for host, below in unacked:
            self.send(
                host,
                TmeshHeartbeat(source, source_host, watch.highest, below, watch.rounds),
            )
        watch.rounds += 1
        self._await_acks(source, source_host, watch, [host for host, _ in unacked])

    # ------------------------------------------------------------------
    # Receive paths
    # ------------------------------------------------------------------
    def on_message(self, src: int, payload: Any) -> None:
        if isinstance(payload, TmeshData):
            self._on_data(src, payload)
        elif isinstance(payload, TmeshAck):
            watch = self._watches.get(payload.source)
            if watch is not None and payload.highest_seq >= watch.highest:
                watch.acked.add(src)
        elif isinstance(payload, TmeshNack):
            self._on_nack(src, payload)
        elif isinstance(payload, TmeshHeartbeat):
            self._on_heartbeat(src, payload)

    def _on_data(self, src: int, msg: TmeshData) -> None:
        source = msg.source
        self._upstream[source] = src
        seen = self._seen.setdefault(source, set())
        if msg.seq in seen:
            self.stats.duplicates_suppressed += 1
            return
        seen.add(msg.seq)
        self._remember(msg)
        self.stats.data_delivered += 1
        self.delivered.setdefault(source, []).append((msg.seq, msg.payload))
        if not msg.retransmit:
            # First delivery over the mesh fixes this node's
            # (source, forwarding-level) stream; repairs do not.
            self._level.setdefault(source, msg.forward_level)
            self._forward(msg)
            watch = self._watches.get(source)
            if (
                watch is None or msg.highest_seq > watch.highest
            ) and self.config.repair_enabled:
                # The first mesh copy to show a watermark: tell the
                # upstream it arrived, and answer for it downstream.
                self.stats.acks_sent += 1
                self.send(src, TmeshAck(source, msg.highest_seq))
                self._watch_next_hops(
                    source, msg.source_host, msg.highest_seq, msg.forward_level, relay=False
                )
        else:
            # A repaired hole heals the subtree: re-forward it once over
            # this node's own rows, as if it had arrived on the mesh.
            # The seen-set above bounds this to one forward per packet.
            level = self._level.get(source)
            if level is not None:
                self._forward(
                    TmeshData(
                        source, msg.source_host, msg.seq, level, msg.payload, msg.highest_seq
                    )
                )
        self._note_highest(source, msg.source_host, msg.highest_seq)

    def _on_heartbeat(self, src: int, hb: TmeshHeartbeat) -> None:
        source = hb.source
        self._upstream.setdefault(source, src)
        # A node that only ever hears heartbeats still learns its stream
        # level, so it can re-forward repaired packets downstream.
        level = self._level.setdefault(source, hb.forward_level)
        self.stats.acks_sent += 1
        self.send(src, TmeshAck(source, hb.highest_seq))
        watch = self._watches.get(source)
        if watch is None or hb.highest_seq > watch.highest:
            # News to this node, so news to everything below it.
            self._watch_next_hops(
                source, hb.source_host, hb.highest_seq, level, relay=True
            )
        self._note_highest(source, hb.source_host, hb.highest_seq)

    def _on_nack(self, src: int, nack: TmeshNack) -> None:
        """Serve what the repair buffer holds; keep chasing the rest
        ourselves so repairs cascade up the delivery tree."""
        buffer = self._buffer.get(nack.source, OrderedDict())
        unserved: List[int] = []
        for seq in nack.missing:
            held = buffer.get(seq)
            if held is not None:
                self.stats.retransmissions += 1
                self.send(
                    src,
                    TmeshData(
                        held.source,
                        held.source_host,
                        held.seq,
                        self.table.scheme.num_digits,
                        held.payload,
                        held.highest_seq,
                        retransmit=True,
                    ),
                )
            else:
                unserved.append(seq)
        if unserved and nack.source != self.source_id:
            self._note_highest(nack.source, nack.source_host, max(unserved))

    # ------------------------------------------------------------------
    # Hole detection and NACK scheduling
    # ------------------------------------------------------------------
    def _remember(self, msg: TmeshData) -> None:
        buffer = self._buffer.setdefault(msg.source, OrderedDict())
        buffer[msg.seq] = msg
        while len(buffer) > self.config.repair_buffer:
            buffer.popitem(last=False)

    def _note_highest(self, source: Id, source_host: int, seq: int) -> None:
        highest = self._highest.get(source, -1)
        if seq > highest:
            highest = self._highest[source] = seq
        if not self.config.repair_enabled or source == self.source_id:
            return
        state = self._repairs.get(source)
        # Everything seen is <= highest, so a full count means no hole.
        if len(self._seen.get(source, ())) > highest:
            if state is not None and state.event is not None:
                # The last hole just filled: the armed retry has nothing
                # left to ask for and must not hold the session open.
                state.event.cancel()
                state.event = None
                state.attempts = 0
            return
        if state is None:
            state = self._repairs[source] = _RepairState()
        if state.event is None:  # else a NACK round is already pending
            state.event = self.scheduler.schedule(
                self.config.nack_delay,
                partial(self._nack_round, source, source_host, state),
            )

    def _nack_round(self, source: Id, source_host: int, state: _RepairState) -> None:
        seen = self._seen.get(source, ())
        missing = tuple(
            s for s in range(self._highest[source] + 1) if s not in seen
        )
        config = self.config
        if state.attempts >= config.max_upstream_nacks + config.max_source_nacks:
            state.event = None
            self.stats.gave_up += len(missing)
            return
        if state.attempts < config.max_upstream_nacks and source in self._upstream:
            target = self._upstream[source]
            target_kind = "upstream"
        else:
            target = source_host
            target_kind = "source"
            self.stats.source_repairs += 1
        self.stats.nacks_sent += 1
        # One slot read per *repair round* — rounds only fire under
        # losses, so the fault-free path never reaches this.
        tctx = _trace_hooks.ACTIVE
        if tctx is not None:
            tctx.event(
                "reliable.nack_round",
                source=str(source),
                requester_host=self.host,
                attempt=state.attempts,
                missing=len(missing),
                target=target_kind,
                time_ms=self.scheduler.now,
            )
            tctx.registry.inc("reliable.nack_rounds")
        self.send(target, TmeshNack(source, source_host, missing))
        state.attempts += 1
        state.event = self.scheduler.schedule(
            config.rto * config.backoff ** min(state.attempts - 1, 6),
            partial(self._nack_round, source, source_host, state),
        )


# ----------------------------------------------------------------------
# Session orchestration
# ----------------------------------------------------------------------
@dataclass
class ReliableOutcome:
    """What one reliable multicast achieved, per member and in total."""

    source: Id
    payloads: List[Any]
    delivered: Dict[Id, List[Any]]  # member -> payloads in seq order
    missing: Dict[Id, List[int]]  # member -> unrepaired holes
    stats: RepairStats  # aggregated over every node
    per_node: Dict[Id, RepairStats]

    @property
    def expected_deliveries(self) -> int:
        return len(self.payloads) * len(self.delivered)

    @property
    def delivery_ratio(self) -> float:
        if self.expected_deliveries == 0:
            return 1.0
        achieved = sum(
            min(len(got), len(self.payloads)) for got in self.delivered.values()
        )
        return achieved / self.expected_deliveries

    @property
    def duplicates_surfaced(self) -> int:
        """Application-level double deliveries (the contract says 0)."""
        extra = 0
        for got in self.delivered.values():
            counts: Dict[Any, int] = {}
            for payload in got:
                counts[payload] = counts.get(payload, 0) + 1
            extra += sum(c - 1 for c in counts.values())
        return extra

    def members_short(self) -> List[Id]:
        """Members that did not receive every payload."""
        want = len(self.payloads)
        return sorted(
            uid for uid, got in self.delivered.items() if len(got) < want
        )


class ReliableSession:
    """Build a live mesh of :class:`ReliableTmeshNode` from a static
    table configuration and run reliable multicasts through a fault plan.

    ``tables`` maps every member ID to its neighbor table (as built by
    :func:`repro.core.neighbor_table.build_consistent_tables`);
    ``server_table`` is the key server's one-row table for rekey
    transport.  The session owns its scheduling backend — ``backend``
    names one (``"simulator"`` is the discrete event simulator,
    ``"eventloop"`` the standalone virtual-clock loop; see
    :mod:`repro.net.scheduling`) or passes a pre-assembled
    :class:`~repro.net.scheduling.SchedulingBackend`.  Outcomes and
    traces are byte-identical across conforming backends.
    """

    def __init__(
        self,
        tables: Dict[Id, NeighborTable],
        server_table: NeighborTable,
        topology: Topology,
        plan: Optional[FaultPlan] = None,
        config: Optional[ReliabilityConfig] = None,
        backend: "str | SchedulingBackend" = "simulator",
    ):
        self.config = config if config is not None else ReliabilityConfig()
        self.plan = plan
        if isinstance(backend, str):
            backend = create_backend(backend, topology)
        self.backend = backend
        self.scheduler = backend.scheduler
        self.transport = backend.transport
        self.transport.install_faults(plan)
        down_check = None
        if plan is not None and self.config.use_backups:
            # the liveness oracle backing Section-2.3 backup routing
            down_check = lambda host: plan.is_down(host, self.scheduler.now)
        self.nodes: Dict[Id, ReliableTmeshNode] = {
            uid: ReliableTmeshNode(
                self.transport, table.owner, table, self.config, down_check
            )
            for uid, table in tables.items()
        }
        self.server = ReliableTmeshNode(
            self.transport, server_table.owner, server_table, self.config, down_check
        )

    def multicast(
        self,
        payloads: List[Any],
        sender: Optional[Id] = None,
        until: Optional[float] = None,
        max_events: int = 2_000_000,
    ) -> ReliableOutcome:
        """Run one reliable session: rekey transport when ``sender`` is
        ``None`` (the key server sends), data transport otherwise."""
        source_node = self.server if sender is None else self.nodes[sender]
        tctx = _trace_hooks.ACTIVE
        if tctx is None:
            source_node.send_stream(list(payloads))
            self.scheduler.run(until=until, max_events=max_events)
            return self.collect(source_node.source_id, list(payloads))
        with tctx.span(
            "reliable.multicast",
            source=str(source_node.source_id),
            payloads=len(payloads),
            members=len(self.nodes),
            lossy=self.plan is not None,
        ) as span:
            source_node.send_stream(list(payloads))
            self.scheduler.run(until=until, max_events=max_events)
            outcome = self.collect(source_node.source_id, list(payloads))
            span.set(
                delivery_ratio=round(outcome.delivery_ratio, 6),
                members_short=len(outcome.members_short()),
                duplicates_surfaced=outcome.duplicates_surfaced,
            )
        tctx.observe_reliable(outcome)
        return outcome

    def collect(self, source: Id, payloads: List[Any]) -> ReliableOutcome:
        receivers = {
            uid: node for uid, node in self.nodes.items() if uid != source
        }
        total = RepairStats()
        per_node: Dict[Id, RepairStats] = {}
        for uid, node in self.nodes.items():
            per_node[uid] = node.stats
            total.add(node.stats)
        total.add(self.server.stats)
        return ReliableOutcome(
            source=source,
            payloads=payloads,
            delivered={
                uid: node.delivered_payloads(source)
                for uid, node in receivers.items()
            },
            missing={
                uid: node.missing_from(source)
                for uid, node in receivers.items()
            },
            stats=total,
            per_node=per_node,
        )
