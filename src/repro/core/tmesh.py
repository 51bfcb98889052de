"""T-mesh: the paper's multicast scheme (Section 2.3, Fig. 2).

A multicast session has a sender (the key server for rekey transport, a
user for data transport), a message, and every other member as receiver.
The message carries a ``forward_level`` field.  The sender is at
forwarding level 0; a user is at level ``i`` when it receives the message
with ``forward_level == i``.

``FORWARD`` (Fig. 2): the key server sends a copy with level 1 to each
``(0,j)``-primary neighbor; a user at level ``level`` sends, for each row
``i`` from ``level`` to ``D-1``, a copy with level ``i+1`` to each
``(i,j)``-primary neighbor.

Theorem 1: with 1-consistent tables and no losses, every member other than
the sender receives exactly one copy.  The session runner below records
enough to let the test suite check that theorem, Lemmas 1/2, and every
latency metric of Section 4.1 (user stress, application-layer delay, RDP).

One runner exists: :func:`forward_session`, Fig. 2 as an event queue
(failed hosts, backup neighbors, fault injection).  Every entry point
below — :func:`run_multicast`, :meth:`SessionPlan.run`,
:func:`rekey_session`, :func:`data_session` — is that loop plus the
verify/trace observation (docs/PERFORMANCE.md, "Why there is one
FORWARD").
"""

from __future__ import annotations

import heapq
from typing import Dict, List, NamedTuple, Optional, Tuple, TYPE_CHECKING

from ..net.topology import Topology
from ..trace import hooks as _trace_hooks
from ..verify import hooks as _verify_hooks
from .ids import Id, NULL_ID
from .neighbor_table import NeighborTable, UserRecord

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..faults.plan import FaultPlan


class OverlayEdge(NamedTuple):
    """One overlay hop of a multicast session.

    ``send_level`` is the row index ``s`` the sender used when it looked up
    the next hop: the next hop is an ``(s, j)``-primary neighbor of the
    sender and receives the message with ``forward_level = s + 1``
    (``s = 0`` rows for the key server).  The pair (edge, ``send_level``)
    is exactly what the splitting scheme's Theorem-2 predicate consumes.

    A ``NamedTuple`` rather than a dataclass: sessions create one edge per
    member, and tuple construction is the cheapest object creation Python
    offers on that hot path.
    """

    src: Id
    dst: Id
    src_host: int
    dst_host: int
    send_level: int
    send_time: float
    arrival_time: float


class Receipt(NamedTuple):
    """First delivery of the multicast message to one member."""

    member: Id
    host: int
    arrival_time: float  # application-layer delay from the sender (ms)
    forward_level: int
    upstream: Id


class SessionResult:
    """Everything observed during one multicast session.

    The per-member metric accessors (``user_stress``, ``out_edges``) are
    backed by a lazily built source-index over ``edges``, so sweeping a
    metric over all members is O(members + edges) instead of the
    O(members x edges) a per-member scan would cost.  The index is
    rebuilt transparently if ``edges`` grows after a lookup (repair
    layers append edges to finished sessions).
    """

    __slots__ = (
        "sender",
        "sender_host",
        "receipts",
        "edges",
        "duplicate_copies",
        "_src_index",
        "_src_index_size",
    )

    def __init__(
        self,
        sender: Id,
        sender_host: int,
        receipts: Optional[Dict[Id, Receipt]] = None,
        edges: Optional[List[OverlayEdge]] = None,
        duplicate_copies: Optional[Dict[Id, int]] = None,
    ):
        self.sender = sender
        self.sender_host = sender_host
        self.receipts: Dict[Id, Receipt] = {} if receipts is None else receipts
        self.edges: List[OverlayEdge] = [] if edges is None else edges
        self.duplicate_copies: Dict[Id, int] = (
            {} if duplicate_copies is None else duplicate_copies
        )
        self._src_index: Optional[Dict[Id, List[OverlayEdge]]] = None
        self._src_index_size = -1

    # Same equality the former dataclass had: payload fields compare,
    # caches don't, unhashable.
    def __eq__(self, other) -> bool:
        if not isinstance(other, SessionResult):
            return NotImplemented
        return (
            self.sender == other.sender
            and self.sender_host == other.sender_host
            and self.receipts == other.receipts
            and self.edges == other.edges
            and self.duplicate_copies == other.duplicate_copies
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"SessionResult(sender={self.sender!r}, "
            f"sender_host={self.sender_host!r}, receipts={self.receipts!r}, "
            f"edges={self.edges!r}, "
            f"duplicate_copies={self.duplicate_copies!r})"
        )

    # The payload crosses a process boundary; the source index is a
    # cache and is rebuilt on the other side.
    def __getstate__(self):
        return (
            self.sender,
            self.sender_host,
            self.receipts,
            self.edges,
            self.duplicate_copies,
        )

    def __setstate__(self, state) -> None:
        (
            self.sender,
            self.sender_host,
            self.receipts,
            self.edges,
            self.duplicate_copies,
        ) = state
        self._src_index = None
        self._src_index_size = -1

    def _edges_by_src(self) -> Dict[Id, List[OverlayEdge]]:
        index = self._src_index
        if index is None or self._src_index_size != len(self.edges):
            index = {}
            for e in self.edges:
                bucket = index.get(e.src)
                if bucket is None:
                    index[e.src] = [e]
                else:
                    bucket.append(e)
            self._src_index = index
            self._src_index_size = len(self.edges)
        return index

    # -- Section 4.1 metrics ------------------------------------------
    def user_stress(self, member: Id) -> int:
        """Number of messages the member forwards in the session."""
        bucket = self._edges_by_src().get(member)
        return len(bucket) if bucket else 0

    def app_delay(self, member: Id) -> float:
        """Latency from the sender's send to the member's first copy."""
        return self.receipts[member].arrival_time

    def rdp(self, member: Id, topology: Topology) -> float:
        """Relative delay penalty: application-layer delay over the
        one-way unicast delay from the sender to the member."""
        unicast = topology.one_way_delay(self.sender_host, self.receipts[member].host)
        if unicast <= 0:
            return 1.0
        return self.app_delay(member) / unicast

    def copies_received(self, member: Id) -> int:
        return (1 if member in self.receipts else 0) + self.duplicate_copies.get(
            member, 0
        )

    def out_edges(self, member: Id) -> List[OverlayEdge]:
        return list(self._edges_by_src().get(member, ()))

    # -- Reference implementations ------------------------------------
    # O(edges)-per-member scans kept for the equivalence tests and the
    # complexity micro-benchmark; semantically identical to the indexed
    # accessors above.
    def user_stress_scan(self, member: Id) -> int:
        return sum(1 for e in self.edges if e.src == member)

    def out_edges_scan(self, member: Id) -> List[OverlayEdge]:
        return [e for e in self.edges if e.src == member]

    def canonical_receipt_digest(self) -> str:
        """Hex blake2b over the canonical receipt rows (sorted by packed
        member code) — the dense-path half of the scale ladder's
        dense-vs-streaming bitwise equivalence check; see
        :mod:`repro.compute.arraytable`.  Raises ``ValueError`` for
        schemes whose IDs don't bit-pack."""
        from ..compute.arraytable import session_receipt_digest

        return session_receipt_digest(self)

    def downstream_users(self, member: Id) -> List[Id]:
        """All members below ``member`` in the session's delivery tree."""
        children: Dict[Id, List[Id]] = {}
        for e in self.edges:
            receipt = self.receipts.get(e.dst)
            # Only tree edges (the delivering copy) define downstream-ness.
            if receipt is not None and receipt.upstream == e.src:
                children.setdefault(e.src, []).append(e.dst)
        result: List[Id] = []
        stack = list(children.get(member, ()))
        while stack:
            node = stack.pop()
            result.append(node)
            stack.extend(children.get(node, ()))
        return result


def _observe_session(
    result: SessionResult,
    sender_table: NeighborTable,
    tables: Dict[Id, NeighborTable],
    topology: Topology,
    processing_delay: float,
    lossless: bool = True,
    planned: bool = False,
) -> SessionResult:
    """Show a finished session to the active verification and trace
    contexts (both are no-ops when off)."""
    ctx = _verify_hooks.ACTIVE
    if ctx is not None:
        ctx.observe_session(
            result,
            sender_table,
            tables,
            topology,
            processing_delay,
            lossless=lossless,
        )
    tctx = _trace_hooks.ACTIVE
    if tctx is not None:
        tctx.observe_session(result, topology, planned=planned)
    return result


def run_multicast(
    sender_table: NeighborTable,
    tables: Dict[Id, NeighborTable],
    topology: Topology,
    processing_delay: float = 0.0,
    failed_hosts: Optional[set] = None,
    use_backups: bool = False,
    fault_plan: Optional["FaultPlan"] = None,
) -> SessionResult:
    """Run one T-mesh multicast session and record its delivery tree.

    ``sender_table`` is the key server's one-row table for rekey transport
    or the sending user's table for data transport; ``tables`` maps every
    user ID to its neighbor table.  Each hop costs the topology's one-way
    delay plus ``processing_delay`` per forward.

    ``failed_hosts`` models crashed members whose records may still be in
    tables: a copy sent to a failed host is lost (and so is its whole
    subtree).  With ``use_backups=True``, forwarders apply the paper's
    K > 1 recovery (Section 2.3): on detecting a failed next hop they
    forward to the next neighbor in the same table entry instead.

    ``fault_plan`` subjects every overlay hop to an injected
    :class:`~repro.faults.FaultPlan` — drops lose the copy (and, without
    repair, its whole subtree), delays/reordering shift its arrival, and
    duplication enqueues extra copies (surfacing as
    ``duplicate_copies``).  This is the *unrepaired* transport; layer
    :class:`repro.alm.reliable.ReliableSession` on top for NACK repair.
    """
    result = forward_session(
        sender_table,
        tables,
        topology,
        processing_delay,
        failed_hosts,
        use_backups,
        fault_plan,
    )
    return _observe_session(
        result,
        sender_table,
        tables,
        topology,
        processing_delay,
        lossless=not failed_hosts and not use_backups and fault_plan is None,
    )


def forward_session(
    sender_table: NeighborTable,
    tables: Dict[Id, NeighborTable],
    topology: Topology,
    processing_delay: float = 0.0,
    failed_hosts: Optional[set] = None,
    use_backups: bool = False,
    fault_plan: Optional["FaultPlan"] = None,
) -> SessionResult:
    """Fig. 2 FORWARD as an event queue ordered by arrival time: the
    semantic definition of a session (arguments as in
    :func:`run_multicast`)."""
    sender = sender_table.owner
    sender_id = sender.user_id
    result = SessionResult(sender=sender_id, sender_host=sender.host)
    receipts = result.receipts
    duplicates = result.duplicate_copies
    edges_append = result.edges.append
    failed = failed_hosts if failed_hosts is not None else set()
    # Dense one-way delay rows when the topology has them (same values as
    # one_way_delay, just without a Python call per hop).
    ow_rows = topology.one_way_rows()
    one_way_delay = topology.one_way_delay
    tables_get = tables.get
    heappush = heapq.heappush
    heappop = heapq.heappop
    queue: List[Tuple[float, int, UserRecord, int, Id]] = []
    seq = 0  # tie-breaker for the heap
    # A sentinel receipt makes a copy sent back to the sender a duplicate
    # without an ``Id.__eq__`` call per delivery; removed on return.
    receipts[sender_id] = None

    # The sender holds the message at forwarding level 0 at time 0 (the
    # key server has the one row); every later forwarder is a member
    # taking its first copy off the queue at ``level``.
    num_digits = sender_table.scheme.num_digits
    rows = (0,) if sender_table.is_server_table else range(num_digits)
    member_id, member_host, table, now = sender_id, sender.host, sender_table, 0.0
    while True:
        # FORWARD (Fig. 2) for ``member_id``: one copy per primary of ``rows``.
        delays = ow_rows[member_host] if ow_rows is not None else None
        base = now + processing_delay
        for i in rows:
            for j, nbr in table.row_primaries(i):
                if use_backups and nbr.host in failed:
                    # K > 1 recovery: the closest live neighbor of the
                    # same (i,j) entry stands in for the failed primary.
                    nbr = next(
                        (r for r in table.entry(i, j) if r.host not in failed),
                        None,
                    )
                    if nbr is None:
                        continue
                nbr_host = nbr.host
                arrival = base + (
                    delays[nbr_host]
                    if delays is not None
                    else one_way_delay(member_host, nbr_host)
                )
                edges_append(
                    OverlayEdge(
                        member_id, nbr.user_id, member_host, nbr_host, i, now, arrival
                    )
                )
                if fault_plan is None:
                    heappush(queue, (arrival, seq, nbr, i + 1, member_id))
                    seq += 1
                    continue
                for extra in fault_plan.apply(member_host, nbr_host, None, now):
                    heappush(queue, (arrival + extra, seq, nbr, i + 1, member_id))
                    seq += 1
        # Deliver copies in arrival order until one is a first copy to a
        # member with rows left to forward, who goes next.
        while True:
            if not queue:
                del receipts[sender_id]
                return result
            now, _, member, level, upstream = heappop(queue)
            member_host = member.host
            if failed and member_host in failed:
                continue  # the copy is lost at a crashed member
            member_id = member.user_id
            if member_id in receipts:
                duplicates[member_id] = duplicates.get(member_id, 0) + 1
                continue  # Theorem 1 says this never fires with consistent tables
            receipts[member_id] = Receipt(
                member_id, member_host, now, level, upstream
            )
            if level < num_digits:
                table = tables_get(member_id)
                if table is not None:
                    rows = range(level, num_digits)
                    break


class SessionPlan:
    """A ``(sender_table, tables)`` pair to run fault-free sessions over.

    The figure experiments replay thousands of sessions in which only
    the topology delays (or the rekey message) change between batches.
    :meth:`run` reads the live tables, so a plan stays valid across
    joins and leaves, and produces a :class:`SessionResult` identical
    (receipts, edges, duplicates, and their ordering) to
    :func:`run_multicast` on the same inputs with no failures and no
    fault injection; traces mark its sessions ``planned``.
    """

    def __init__(self, sender_table: NeighborTable, tables: Dict[Id, NeighborTable]):
        self.sender_table = sender_table
        self.tables = tables

    def run(
        self, topology: Topology, processing_delay: float = 0.0
    ) -> SessionResult:
        """Run one fault-free session against ``topology``'s delays."""
        result = forward_session(
            self.sender_table, self.tables, topology, processing_delay
        )
        return _observe_session(
            result,
            self.sender_table,
            self.tables,
            topology,
            processing_delay,
            planned=True,
        )


def plan_session(
    sender_table: NeighborTable, tables: Dict[Id, NeighborTable]
) -> SessionPlan:
    """Build a :class:`SessionPlan` for repeated fault-free sessions."""
    return SessionPlan(sender_table, tables)


def rekey_session(
    server_table: NeighborTable,
    tables: Dict[Id, NeighborTable],
    topology: Topology,
    processing_delay: float = 0.0,
    plan: Optional[SessionPlan] = None,
) -> SessionResult:
    """A rekey-transport session: the key server is the sender.

    A :class:`SessionPlan` built over the same ``(server_table,
    tables)`` runs the identical session, marked ``planned`` in traces."""
    if not server_table.is_server_table:
        raise ValueError("rekey transport must be sourced at the key server")
    if plan is not None:
        if plan.sender_table is not server_table or plan.tables is not tables:
            raise ValueError("plan was built for a different server table or tables")
        return plan.run(topology, processing_delay)
    return run_multicast(server_table, tables, topology, processing_delay)


def data_session(
    sender_id: Id,
    tables: Dict[Id, NeighborTable],
    topology: Topology,
    processing_delay: float = 0.0,
) -> SessionResult:
    """A data-transport session: a particular user is the sender."""
    if sender_id == NULL_ID or sender_id not in tables:
        raise ValueError(f"sender {sender_id} is not a user in the group")
    return run_multicast(tables[sender_id], tables, topology, processing_delay)
