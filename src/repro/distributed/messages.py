"""Wire messages of the distributed protocol (Section 3).

Every step of the paper's protocol description exchanges one of these
messages over the simulated network: join admission, record queries
(Section 3.1.1), RTT pings (3.1.2), prefix notification and ID
assignment (3.1.4), the batched membership/rekey multicast, and leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.ids import Id
from ..core.neighbor_table import UserRecord
from ..keytree.keys import Encryption


@dataclass(frozen=True)
class JoinRequest:
    """User -> server: please admit me (the SSL mutual authentication of
    Section 3.1 is modelled by the transport)."""


@dataclass(frozen=True)
class JoinGrant:
    """Server -> user: admission reply.

    For the group's first join it directly carries the assigned ID;
    otherwise it carries the record of a user already in the group to
    bootstrap the ID-determination protocol."""

    assigned: Optional[UserRecord]
    bootstrap: Optional[UserRecord]


@dataclass(frozen=True)
class QueryMsg:
    """User -> user: return your neighbors whose IDs carry this prefix
    (Section 3.1.1).  ``token`` routes the response back to the right
    phase/purpose at the querier."""

    target_prefix: Id
    token: Tuple


@dataclass(frozen=True)
class QueryResponse:
    """User -> user: the matching neighbor records."""

    records: Tuple[UserRecord, ...]
    token: Tuple


@dataclass(frozen=True)
class PingMsg:
    """RTT probe (Section 3.1.2)."""

    token: int


@dataclass(frozen=True)
class PongMsg:
    responder_record: Optional[UserRecord]
    token: int


@dataclass(frozen=True)
class FailureNotice:
    """User -> server: a neighbor stopped answering consecutive pings
    (Section 3.2).  The server treats a confirmed failure like a leave at
    the next interval end, so every table drops the dead record.  The
    notice names the whole record, not the ID: a reporter that missed the
    ID's departure may be probing an earlier holder of a reused ID."""

    failed: UserRecord
    reporter: Id


@dataclass(frozen=True)
class NotifyPrefix:
    """User -> server: the digits I determined myself (step 4)."""

    determined_prefix: Id


@dataclass(frozen=True)
class AssignedId:
    """Server -> user: your complete ID (and, in a full deployment, the
    keys on your key-tree path).  ``departed`` pairs every ID that ever
    left with the join time below which its records are stale: the
    current holder's, or infinity while the ID is free.  It lets the
    joiner purge records it collected of users that left while its
    collection phases were still running, and tell an ID's holder from
    an earlier one."""

    record: UserRecord
    departed: Tuple[Tuple[Id, float], ...] = ()


@dataclass(frozen=True)
class LeaveRequest:
    """User -> server: I am leaving; process me at the interval end.

    As in the Silk leave protocol, the leaver supplies its neighbor
    records so that entries it leaves empty elsewhere can be re-filled:
    by its own table's 1-consistency, the leaver knows a member of every
    non-empty subtree of its regions."""

    user_id: Id
    neighbor_records: Tuple[UserRecord, ...] = ()


@dataclass(frozen=True)
class MembershipUpdate:
    """The interval-end batch: joined records, departed IDs, replacement
    records contributed by the leavers, and the (split) rekey
    encryptions.  Multicast over T-mesh; departing users keep forwarding
    this final multicast — they cannot decrypt the new keys it carries —
    and detach afterwards."""

    interval: int
    joins: Tuple[UserRecord, ...]
    leaves: Tuple[Id, ...]
    encryptions: Tuple[Encryption, ...]
    replacements: Tuple[UserRecord, ...] = ()

    def carrying(
        self, encryptions: Tuple[Encryption, ...]
    ) -> "MembershipUpdate":
        """This update with another share of the rekey message (a per-hop
        split or a Lemma-3 filter).  The membership tuples are passed on
        as the same objects: ``wire.SectionMemo`` keys on their
        identity."""
        return MembershipUpdate(
            self.interval, self.joins, self.leaves, encryptions, self.replacements
        )

    def share_for(self, user_id: Optional[Id]) -> "MembershipUpdate":
        """This update with the encryptions Lemma 3 says ``user_id`` needs
        (none for an unknown member): what a unicast to one member
        carries."""
        if user_id is None:
            return self.carrying(())
        return self.carrying(
            tuple(e for e in self.encryptions if e.needed_by(user_id))
        )


@dataclass(frozen=True)
class RecoverRequest:
    """User -> server: I may have missed interval announcements (a lossy
    network dropped my multicast copy, taking a whole subtree's worth of
    membership updates with it); unicast me every update after
    ``last_interval``.  This is the paper's reference-[31] fallback: the
    key server keeps the announcement history and any member can resync
    from it."""

    last_interval: int


@dataclass(frozen=True)
class RecoverResponse:
    """Server -> user: the missed updates, oldest first, with each
    update's encryptions filtered down to what the requester needs
    (Lemma 3, as for the joiner unicast)."""

    updates: Tuple[MembershipUpdate, ...]


@dataclass(frozen=True)
class MulticastMsg:
    """A T-mesh multicast copy: payload plus the forward_level field of
    Fig. 2 (and the sender's row ``s`` for the Theorem-2 splitting
    predicate applied by forwarders)."""

    payload: MembershipUpdate
    forward_level: int
