"""Group membership: joins, leaves, and failure recovery (Section 3).

:class:`Group` is the live state the simulator maintains: the key server,
every user's record and neighbor table, the server's one-row table, and
the ID tree.  Joins run the full Section-3.1 ID assignment (collect /
measure / percentile-decide / server-complete) against the *current*
group via neighbor-table queries; tables are then maintained
K-consistently, the state the Silk join/leave protocols provably converge
to (the paper itself runs "the Silk protocols, but simplified to improve
simulation efficiency").

Failure recovery: a user detects a failed neighbor by missed pings, tells
the key server, and replaces the neighbor from the same table entry
(Section 3.2).  :meth:`Group.fail` models silent failure; table repair
happens lazily per-owner via :meth:`Group.repair_tables`, letting tests
measure how K > 1 masks failures between repairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..net.topology import Topology
from .id_assignment import AssignmentOutcome, IdAssigner, complete_user_id
from .id_tree import IdTree
from .ids import Id, IdScheme, NULL_ID
from .neighbor_table import NeighborTable, UserRecord, build_server_table

#: The paper's table redundancy parameter (Section 4).
PAPER_K = 4

#: Refill candidates of one leave / repair sweep: ID-subtree root ->
#: (records of the subtree's users, their hosts).
_Candidates = Dict[Id, Tuple[List[UserRecord], np.ndarray]]


@dataclass
class JoinResult:
    """Outcome of one join: the new record plus protocol bookkeeping."""

    record: UserRecord
    outcome: Optional[AssignmentOutcome]  # None for the first join


class Group:
    """Key server + users: membership, ID assignment, neighbor tables."""

    def __init__(
        self,
        scheme: IdScheme,
        topology: Topology,
        server_host: int,
        assigner: IdAssigner,
        k: int = PAPER_K,
        rng: Optional[np.random.Generator] = None,
    ):
        self.scheme = scheme
        self.topology = topology
        self.server_host = server_host
        self.assigner = assigner
        self.k = k
        # lint: disable=determinism-unseeded-rng -- interactive-use fallback; every driver/test threads a seeded Generator
        self.rng = rng if rng is not None else np.random.default_rng()
        self.id_tree = IdTree(scheme)
        self.records: Dict[Id, UserRecord] = {}
        self.tables: Dict[Id, NeighborTable] = {}
        self.server_table = build_server_table(
            scheme, server_host, (), self._rtt, k
        )
        self._clock = 0.0

    # ------------------------------------------------------------------
    def _rtt(self, a: int, b: int) -> float:
        return self.topology.rtt(a, b)

    @property
    def num_users(self) -> int:
        return len(self.records)

    @property
    def user_ids(self) -> List[Id]:
        return list(self.records)

    def record_of(self, user_id: Id) -> UserRecord:
        return self.records[user_id]

    # ------------------------------------------------------------------
    # The query service of Section 3.1.1
    # ------------------------------------------------------------------
    def query(
        self, responder: UserRecord, target_prefix: Id
    ) -> Sequence[UserRecord]:
        """A user's response to an ID-assignment query: all the neighbors
        in its table whose IDs have the target prefix
        (:meth:`NeighborTable.records_with_prefix`)."""
        table = self.tables.get(responder.user_id)
        if table is None:
            return ()
        return table.records_with_prefix(target_prefix.digits)

    # ------------------------------------------------------------------
    # Join
    # ------------------------------------------------------------------
    def join(self, host: int) -> JoinResult:
        """Admit the user at topology host ``host``: run ID assignment,
        insert the user into the ID tree, build its neighbor table, and
        update everyone else's tables."""
        self._clock += 1.0
        access = self.topology.access_rtt(host)
        if not self.records:
            # First join: D digits of "0" (Section 3.1).
            user_id = self.scheme.first_user_id()
            record = UserRecord(user_id, host, access, self._clock)
            self._admit(record)
            return JoinResult(record, None)

        bootstrap = self._random_record()
        outcome = self.assigner.determine_prefix(
            host, access, self.topology, self.query, bootstrap
        )
        user_id = complete_user_id(self.id_tree, outcome.determined_prefix, self.rng)
        record = UserRecord(user_id, host, access, self._clock)
        self._admit(record)
        return JoinResult(record, outcome)

    def _random_record(self) -> UserRecord:
        ids = list(self.records)
        return self.records[ids[int(self.rng.integers(0, len(ids)))]]

    def _admit(self, record: UserRecord) -> None:
        user_id = record.user_id
        digits = user_id.digits
        others = list(self.records.values())
        self.id_tree.add_user(user_id)
        self.records[user_id] = record
        # The new user's table is built from the current population, and
        # everyone else learns about the new user (the consistent state
        # the Silk join converges to).  A user sharing exactly i digits
        # with the newcomer files it under (i, newcomer[i]) and is filed
        # under (i, its own digit i), so the ID tree's prefix groups give
        # every slot without comparing digits table by table.  Both RTT
        # sweeps are batched against the topology's dense matrix when
        # available; operand orientation matches scalar rtt() calls.
        table = self.tables[user_id] = NeighborTable(self.scheme, record, self.k)
        row_of = {
            other_id: i
            for i in range(len(digits))
            for other_id in self.id_tree.users_diverging_at(user_id, i)
        }
        hosts = [other.host for other in others]
        out_rtts = self.topology.rtt_many(record.host, hosts).tolist()
        in_rtts = self.topology.rtt_to_many(record.host, hosts).tolist()
        # Offers stay in self.records order inside an entry (RTT ties keep
        # offer order) and entries are created in first-offer order
        # (all_records(), hence query(), reads them in that order).
        own: Dict[Tuple[int, int], List[Tuple[UserRecord, float]]] = {}
        for other, out_rtt, in_rtt in zip(others, out_rtts, in_rtts):
            other_id = other.user_id
            i = row_of[other_id]
            own.setdefault((i, other_id.digits[i]), []).append((other, out_rtt))
            self.tables[other_id].insert(record, in_rtt, (i, digits[i]))
        for slot, pairs in own.items():
            table.fill(slot, pairs)
        self.server_table.insert(record, self._rtt(self.server_host, record.host))

    # ------------------------------------------------------------------
    # Leave and failure
    # ------------------------------------------------------------------
    def leave(self, user_id: Id) -> None:
        """Graceful leave: the user has its record deleted from all tables
        (Silk leave protocol), with entries re-filled to stay
        K-consistent."""
        if user_id not in self.records:
            raise KeyError(f"user {user_id} not in group")
        departed = self.records.pop(user_id)
        self.id_tree.remove_user(user_id)
        self.tables.pop(user_id)
        candidates: _Candidates = {}
        for table in self.tables.values():
            if table.remove(user_id):
                self._refill(table, departed, candidates)
        if self.server_table.remove(user_id):
            self._refill(self.server_table, departed, candidates)

    def fail(self, user_id: Id) -> None:
        """Silent failure: the user vanishes but stale records remain in
        other tables until :meth:`repair_tables` runs (neighbors detect the
        failure by missed pings)."""
        if user_id not in self.records:
            raise KeyError(f"user {user_id} not in group")
        del self.records[user_id]
        self.id_tree.remove_user(user_id)
        self.tables.pop(user_id)

    def _refill(
        self, table: NeighborTable, departed: UserRecord, candidates: _Candidates
    ) -> None:
        """Re-fill the entry a departed user occupied with the closest
        remaining users of that ID subtree, offered in the iteration
        order of :meth:`IdTree.users_in_subtree` (RTT ties keep it).

        ``candidates`` memoises each subtree's records and hosts while
        membership stands still — one :meth:`leave` or one
        :meth:`repair_tables` sweep — and must not outlive it."""
        slot = table.slot_for(departed)
        # The owner shares slot[0] digits with the departed, so the
        # entry's subtree root is a prefix of the departed ID.
        subtree_root = departed.user_id.prefix(slot[0] + 1)
        found = candidates.get(subtree_root)
        if found is None:
            records = [
                self.records[candidate_id]
                for candidate_id in self.id_tree.users_in_subtree(subtree_root)
            ]
            hosts = np.array([r.host for r in records], dtype=np.intp)
            found = candidates[subtree_root] = (records, hosts)
        records, hosts = found
        if not records:
            return
        # Whatever precedes a candidate in (RTT, offer order) also precedes
        # it in the entry, so only the K closest can get in.
        rtts = self.topology.rtt_many(table.owner.host, hosts)
        closest = np.argsort(rtts, kind="stable")[: self.k]
        table.fill(
            slot,
            zip([records[c] for c in closest.tolist()], rtts[closest].tolist()),
        )

    def repair_tables(self) -> int:
        """Failure recovery sweep: drop records of vanished users from all
        tables and re-fill the holes.  Returns the number of stale records
        removed."""
        removed = 0
        candidates: _Candidates = {}
        for table in [*self.tables.values(), self.server_table]:
            for record in list(table.all_records()):
                if record.user_id not in self.records:
                    table.remove(record.user_id)
                    self._refill(table, record, candidates)
                    removed += 1
        return removed

    # ------------------------------------------------------------------
    def random_id_join(self, host: int) -> JoinResult:
        """Ablation: admit a user with a *random* ID instead of running
        the topology-aware protocol (the Pastry/Tapestry-style assignment
        discussed in Sections 2.6 and 5)."""
        self._clock += 1.0
        while True:
            user_id = self.scheme.random_user_id(self.rng)
            if user_id not in self.records:
                break
        record = UserRecord(
            user_id, host, self.topology.access_rtt(host), self._clock
        )
        self._admit(record)
        return JoinResult(record, None)
