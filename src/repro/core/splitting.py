"""Rekey message splitting (Section 2.5, Fig. 5, Theorem 2).

Each member sends or forwards an encryption to a next hop if and only if
the encryption is needed by at least one user downstream of that hop.
Theorem 2 reduces the "needed downstream" test to pure prefix algebra on
IDs: for a next hop ``w`` reached from table row ``s`` (so ``w`` and all
its downstream users share the prefix ``w.ID[0:s]``, i.e. the first
``s+1`` digits), an encryption ``e`` is needed below iff ``e.ID`` is a
prefix of ``w.ID[0:s]`` or ``w.ID[0:s]`` is a prefix of ``e.ID``.

No member keeps any per-downstream-user state — this is the property that
distinguishes T-mesh splitting from splitting over a generic ALM tree
(Section 2.6).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..keytree.keys import Encryption, RekeyMessage
from ..net.routing import LinkStressCounter
from ..net.topology import Topology
from .ids import Id
from .tmesh import OverlayEdge, SessionResult


def next_hop_needs(encryption_id: Id, next_hop_id: Id, send_level: int) -> bool:
    """The Theorem-2 predicate: should an encryption be forwarded to an
    ``(s, j)``-neighbor ``w``?  True iff ``e.ID`` is a prefix of
    ``w.ID[0:s]`` or ``w.ID[0:s]`` is a prefix of ``e.ID`` (with
    ``w.ID[0:s]`` the first ``s+1`` digits, per the paper's notation)."""
    hop_prefix = next_hop_id.prefix(send_level + 1)
    return encryption_id.is_prefix_of(hop_prefix) or hop_prefix.is_prefix_of(
        encryption_id
    )


def split_for_next_hop(
    encryptions: Iterable[Encryption], next_hop_id: Id, send_level: int
) -> Tuple[Encryption, ...]:
    """REKEY-MESSAGE-SPLIT (Fig. 5): compose the separate message for one
    next hop from the encryptions the caller holds."""
    return tuple(
        e for e in encryptions if next_hop_needs(e.id, next_hop_id, send_level)
    )


@dataclass
class SplitSessionResult:
    """Bandwidth accounting of one rekey multicast with splitting applied.

    ``received`` / ``forwarded`` count *encryptions* per user, the
    quantities of Figs. 13(a) and (b); ``edge_loads`` records how many
    encryptions each overlay hop carried so per-network-link counts
    (Fig. 13(c)) can be charged along routed paths.
    """

    received: Dict[Id, int] = field(default_factory=dict)
    forwarded: Dict[Id, int] = field(default_factory=dict)
    edge_loads: List[Tuple[OverlayEdge, int]] = field(default_factory=list)
    received_sets: Dict[Id, Set[Encryption]] = field(default_factory=dict)
    #: What each member received, as one tuple in message order (filled
    #: by :func:`run_split_rekey` only).
    shares: Dict[Id, Tuple[Encryption, ...]] = field(default_factory=dict)

    def link_counts(self, topology: Topology) -> LinkStressCounter:
        """Charge every overlay hop's encryption count to the physical
        links on its routed path."""
        counter = LinkStressCounter(topology.num_links)
        for edge, load in self.edge_loads:
            if load > 0:
                counter.add_path(
                    topology.path_links(edge.src_host, edge.dst_host), load
                )
        return counter


class _MessageIndex:
    """A rekey message's encryptions located by ID, so that "which of
    them pass the Theorem-2 predicate for hop prefix ``p``" is a lookup:
    the IDs that are proper prefixes of ``p`` are one exact probe each,
    and the IDs ``p`` is a prefix of are one contiguous run of the IDs
    in digit order."""

    def __init__(self, encryptions: Sequence[Encryption]):
        self.encryptions = encryptions
        located = sorted(
            (encryption.encrypting_key_id.digits, position)
            for position, encryption in enumerate(encryptions)
        )
        self.ids = [digits for digits, _ in located]
        self.positions = [position for _, position in located]
        #: ID digits -> message positions of the encryptions with that ID.
        self.exact: Dict[Tuple[int, ...], List[int]] = {}
        for digits, position in located:
            self.exact.setdefault(digits, []).append(position)
        self._held: Dict[tuple, Tuple[Encryption, ...]] = {}
        self._prefix_positions: Dict[Tuple[int, ...], List[int]] = {}

    def held(self, holding: tuple) -> Tuple[Encryption, ...]:
        """The encryptions a holding stands for, in message order; each
        distinct holding is looked up once per message."""
        found = self._held.get(holding)
        if found is None:
            found = self._held[holding] = self._lookup(*holding)
        return found

    def _lookup(self, only_prefixes: bool, q: Tuple[int, ...]):
        if only_prefixes:
            positions = self._prefixes(q)
        else:
            ids = self.ids
            low = bisect_left(ids, q)
            # Every ID below q sorts before q's next sibling; bisect_left
            # keeps that sibling itself out.
            high = bisect_left(ids, q[:-1] + (q[-1] + 1,), low) if q else len(ids)
            positions = self.positions[low:high]
            if q:
                positions += self._prefixes(q[:-1])
        return tuple(map(self.encryptions.__getitem__, sorted(positions)))

    def _prefixes(self, q: Tuple[int, ...]) -> List[int]:
        """Message positions of the encryptions whose ID is a prefix of
        ``q``, shortest ID first; hops into sibling subtrees share it."""
        found = self._prefix_positions.get(q)
        if found is None:
            found = self.exact.get(q, [])
            if q:
                found = self._prefixes(q[:-1]) + found
            self._prefix_positions[q] = found
        return found


def _restrict(holding: tuple, hop: Tuple[int, ...]) -> tuple:
    """What is left of a holding after the Theorem-2 filter for hop
    prefix ``hop``.  A holding is ``(False, q)`` — every encryption whose
    ID is a prefix of ``q`` or has ``q`` as a prefix, i.e. what passes the
    filter for ``q`` — or ``(True, q)`` — only those whose ID is a prefix
    of ``q``.  Filtering either kind again yields one of the two kinds,
    whatever the hops are (nested or not), so a member's holding is
    never a collection to scan."""
    only_prefixes, q = holding
    if hop[: len(q)] == q:  # the hop lies below q
        return holding if only_prefixes else (False, hop)
    if q[: len(hop)] == hop:  # the hop lies above q
        return holding
    common = 0
    for a, b in zip(q, hop):
        if a != b:
            break
        common += 1
    return (True, q[:common])


def run_split_rekey(
    session: SessionResult,
    message: RekeyMessage,
    track_sets: bool = False,
) -> SplitSessionResult:
    """Apply the splitting scheme along a finished T-mesh session.

    Processes hops in arrival order, maintaining for every member what it
    actually received, and filtering each outgoing hop with the Theorem-2
    predicate *against that* — exactly what routine REKEY-MESSAGE-SPLIT
    (:func:`split_for_next_hop`) does at each forwarder, without running
    the predicate over every held encryption: see :func:`_restrict`.
    ``shares`` always carries each member's encryptions as one tuple in
    message order; with ``track_sets=True`` they are also retained as
    sets so tests can verify Corollary 1 encryption by encryption.
    """
    held = _MessageIndex(message.encryptions).held
    result = SplitSessionResult()
    receipts = session.receipts
    forwarded, received, shares = result.forwarded, result.received, result.shares
    charge = result.edge_loads.append
    # member -> its holding (see _restrict); None stands for nothing.
    holdings: Dict[Id, Optional[tuple]] = {session.sender: (False, ())}
    forwarded[session.sender] = 0
    for member in receipts:
        forwarded.setdefault(member, 0)
    # Hops sorted by send time give a causally consistent processing order.
    for edge in sorted(session.edges, key=attrgetter("send_time", "arrival_time")):
        src, dst = edge.src, edge.dst
        have = holdings.get(src)
        if have is None:
            # A duplicate-delivery artifact: the src never got a first
            # copy before "sending".  Cannot happen with consistent
            # tables.
            passed, carried = None, ()
        else:
            passed = _restrict(have, dst.digits[: edge.send_level + 1])
            carried = held(passed)
        load = len(carried)
        charge((edge, load))
        forwarded[src] = forwarded.get(src, 0) + load
        receipt = receipts.get(dst)
        if receipt is not None and receipt.upstream == src:
            holdings[dst] = passed
            received[dst] = load
            shares[dst] = carried
            if track_sets:
                result.received_sets[dst] = set(carried)
    return result


def run_packet_split_rekey(
    session: SessionResult,
    message: RekeyMessage,
    packet_size: int,
) -> SplitSessionResult:
    """Packet-level splitting (the alternative of Section 2.5).

    The rekey message is split and re-composed at *packet* granularity
    instead of encryption granularity: encryptions are packed
    ``packet_size`` to a packet, and a whole packet is forwarded to a next
    hop iff any of its encryptions passes the Theorem-2 predicate.  The
    paper notes this costs more bandwidth than encryption-level splitting;
    the ablation benchmark quantifies the gap.
    """
    if packet_size < 1:
        raise ValueError("packet_size must be >= 1")
    packets: List[Tuple[Encryption, ...]] = [
        tuple(message.encryptions[i : i + packet_size])
        for i in range(0, len(message.encryptions), packet_size)
    ]
    result = SplitSessionResult()
    holdings: Dict[Id, Tuple[Tuple[Encryption, ...], ...]] = {
        session.sender: tuple(packets)
    }
    result.forwarded[session.sender] = 0
    for member in session.receipts:
        result.forwarded.setdefault(member, 0)
    for edge in sorted(session.edges, key=lambda e: (e.send_time, e.arrival_time)):
        have = holdings.get(edge.src, ())
        carried = tuple(
            packet
            for packet in have
            if any(
                next_hop_needs(e.id, edge.dst, edge.send_level) for e in packet
            )
        )
        load = sum(len(p) for p in carried)
        result.edge_loads.append((edge, load))
        result.forwarded[edge.src] = result.forwarded.get(edge.src, 0) + load
        receipt = session.receipts.get(edge.dst)
        if receipt is not None and receipt.upstream == edge.src:
            holdings[edge.dst] = carried
            result.received[edge.dst] = load
    return result


def run_unsplit_rekey(
    session: SessionResult, message_size: int
) -> SplitSessionResult:
    """Bandwidth accounting when the whole rekey message is flooded to
    everyone (protocols without splitting): every member receives the full
    message once and forwards one full copy per out-edge."""
    result = SplitSessionResult()
    result.forwarded[session.sender] = 0
    for member in session.receipts:
        result.received[member] = message_size
        result.forwarded.setdefault(member, 0)
    for edge in session.edges:
        result.edge_loads.append((edge, message_size))
        result.forwarded[edge.src] = result.forwarded.get(edge.src, 0) + message_size
    return result
