"""Neighbor tables and K-consistency (Section 2.2, Definition 3).

A user's neighbor table has ``D`` rows of ``B`` entries.  The ``(i,j)``-
entry contains user records of up to ``K`` users belonging to the owner's
``(i,j)``-ID subtree, arranged in increasing order of their RTT to the
owner; the first is the *primary* neighbor.  The entry with ``j`` equal to
the owner's own ``i``-th digit is always empty.

The key server maintains a one-row table: its ``(0,j)``-entry holds the
``K`` users with the smallest RTT to the server among those whose 0th
digit is ``j``.

Tables are *K-consistent* (Definition 3) when every entry holds
``min(K, m)`` neighbors, ``m`` being the current population of the
corresponding ID subtree.  1-consistency is what Theorem 1's exactly-once
multicast delivery relies on; ``K > 1`` buys failure resilience.
"""

from __future__ import annotations

from bisect import bisect_left, insort_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .id_tree import IdTree
from .ids import Id, IdScheme


@dataclass(frozen=True)
class UserRecord:
    """What one member knows about another: the paper's *user record*
    (IP address — here a topology host index — plus ID and metadata).

    ``access_rtt`` is the RTT between the user and its gateway router,
    carried in each record copy so that others can compute gateway-to-
    gateway RTTs (Section 3.1.2).  ``join_time`` is the key-server clock
    value used for leader election in the cluster heuristic (Appendix B).
    """

    user_id: Id
    host: int
    access_rtt: float = 0.0
    join_time: float = 0.0


#: Sort key for (rtt, record) pairs; records themselves are not ordered,
#: so entries sort on RTT only (stable, preserving insertion order on ties).
_RTT_KEY = itemgetter(0)

#: Sort/search key for (digit, record) row pairs in StaticPrimaryTable.
_DIGIT_KEY = itemgetter(0)


@dataclass
class _Entry:
    """One (i,j)-entry: neighbors with their measured RTTs, sorted by
    increasing RTT.  ``ids`` mirrors the member IDs for O(1) duplicate
    checks on the insert hot path."""

    neighbors: List[Tuple[float, UserRecord]] = field(default_factory=list)
    ids: Set[Id] = field(default_factory=set)

    def records(self) -> List[UserRecord]:
        return [record for _, record in self.neighbors]

    def primary(self) -> Optional[UserRecord]:
        return self.neighbors[0][1] if self.neighbors else None


class NeighborTable:
    """A user's (or the key server's) neighbor table.

    ``_mutation_epoch`` is a class-wide counter bumped by every mutating
    operation on *any* table: the work counter
    ``tests/test_upkeep_work.py`` pins (an operation's cost in table
    mutations is the epoch's movement across it, and an unchanged epoch
    guarantees no table changed).

    The key server's table is modelled as a table whose owner ID is the
    null string: only row 0 is populated and no entry is skipped as "own
    digit" (the server has no digits).
    """

    _mutation_epoch = 0  # class-wide; see the docstring

    def __init__(self, scheme: IdScheme, owner: UserRecord, k: int):
        if k < 1:
            raise ValueError("K must be at least 1")
        self.scheme = scheme
        self.owner = owner
        self.k = k
        self._entries: Dict[Tuple[int, int], _Entry] = {}
        # Flat snapshot of all records, rebuilt lazily after mutations so
        # query() sweeps do not re-walk the entry dict each time.
        self._records_cache: Optional[Tuple[UserRecord, ...]] = None
        # Per-row primaries, rebuilt lazily after mutations: FORWARD asks
        # for the same rows once per session, and tables don't change
        # mid-session.
        self._primaries_cache: Dict[int, List[Tuple[int, UserRecord]]] = {}
        # Records of rows ``n`` and above, per ``n``: the answer to every
        # query whose prefix the owner's ID carries (records_with_prefix).
        # Paired with the ``_records_cache`` tuple it was built beside and
        # used only while that tuple is current, so code that drops
        # ``_records_cache`` without ``_invalidate`` drops it too.
        self._rows_from_cache: Tuple[
            Optional[Tuple[UserRecord, ...]],
            Optional[Dict[int, Tuple[UserRecord, ...]]],
        ] = (None, None)
        # Hot-path constants for slot_of and admits.  The server has no
        # digits, so no record's first digit matches its ``_own_first``.
        self._server_flag = owner.user_id.is_null
        self._own_digits = owner.user_id.digits
        self._own_first = self._own_digits[0] if self._own_digits else -1
        self._depth = scheme.num_digits

    # ------------------------------------------------------------------
    @property
    def is_server_table(self) -> bool:
        return self.owner.user_id.is_null

    @property
    def num_rows(self) -> int:
        return 1 if self.is_server_table else self.scheme.num_digits

    def _check_slot(self, i: int, j: int) -> None:
        if not 0 <= i < self.num_rows:
            raise IndexError(f"row {i} outside [0, {self.num_rows})")
        if not 0 <= j < self.scheme.base:
            raise IndexError(f"column {j} outside [0, B)")

    def entry(self, i: int, j: int) -> List[UserRecord]:
        """Records in the (i,j)-entry, closest first."""
        self._check_slot(i, j)
        e = self._entries.get((i, j))
        return e.records() if e else []

    def primary(self, i: int, j: int) -> Optional[UserRecord]:
        """The (i,j)-primary neighbor: first record of the entry."""
        self._check_slot(i, j)
        e = self._entries.get((i, j))
        return e.primary() if e else None

    def entry_rtts(self, i: int, j: int) -> List[float]:
        self._check_slot(i, j)
        e = self._entries.get((i, j))
        return [rtt for rtt, _ in e.neighbors] if e else []

    def row_primaries(self, i: int) -> List[Tuple[int, UserRecord]]:
        """``(j, primary neighbor)`` for every non-empty entry of row
        ``i``, in digit order.  This is what FORWARD iterates over —
        scanning only populated entries rather than all ``B`` columns.

        Cached per row until the next mutation; callers must not mutate
        the returned list."""
        pairs = self._primaries_cache.get(i)
        if pairs is None:
            pairs = [
                (j, e.neighbors[0][1])
                for (row, j), e in self._entries.items()
                if row == i and e.neighbors
            ]
            pairs.sort(key=lambda p: p[0])
            self._primaries_cache[i] = pairs
        return pairs

    def slot_for(self, record: UserRecord) -> Optional[Tuple[int, int]]:
        """The unique (i,j)-entry where a record belongs in this table, or
        ``None`` when it belongs nowhere (duplicate/own ID).

        A record for user ``w`` belongs to the entry ``(i, w.ID[i])`` where
        ``i`` is the length of the longest common prefix of the owner's and
        ``w``'s IDs — exactly the condition of Definition 3.
        """
        return self.slot_of(record.user_id)

    def slot_of(self, user_id: Id) -> Optional[Tuple[int, int]]:
        """:meth:`slot_for` by ID alone.  Every mutator files a record
        under this slot and no other, so :meth:`remove` and
        :meth:`contains` probe it alone."""
        rd = user_id.digits
        if self._server_flag:
            return (0, rd[0])
        i = 0
        for a, b in zip(self._own_digits, rd):
            if a != b:
                break
            i += 1
        if i >= self._depth:
            return None  # the owner itself (or a duplicate ID)
        return (i, rd[i])

    def admits(self, user_id: Id, rtt: float) -> Optional[Tuple[int, int]]:
        """The reject test of :meth:`insert`, touching nothing: the slot an
        offer of ``user_id`` at ``rtt`` would land in, or ``None`` when the
        table turns it away as it stands — a K-full entry whose K-th RTT
        is ``<= rtt``, an ID the entry already holds, or the owner's own ID.

        Further offers only lower a full entry's K-th RTT, so a rejection
        stands after them; a held ID stands rejected unless it is evicted
        and then offered below its old RTT.  A batch can therefore drop
        rejected offers up front and land the rest with :meth:`fill`.  The
        K-full test comes first because it hashes no ID.  Most user IDs
        differ from the owner's in digit 0, and those take the row-0 slot
        without the prefix walk.
        """
        first = user_id.digits[0]
        if first != self._own_first:
            slot = (0, first)
        else:
            slot = self.slot_of(user_id)
            if slot is None:
                return None
        e = self._entries.get(slot)
        if e is not None:
            neighbors = e.neighbors
            if len(neighbors) >= self.k and rtt >= neighbors[-1][0]:
                return None
            if user_id in e.ids:
                return None
        return slot

    def contains(self, user_id: Id) -> bool:
        e = self._entries.get(self.slot_of(user_id))
        return e is not None and user_id in e.ids

    def all_records(self) -> Iterator[UserRecord]:
        return iter(self._records())

    def _records(self) -> Tuple[UserRecord, ...]:
        cache = self._records_cache
        if cache is None:
            cache = tuple(
                [record for e in self._entries.values() for _, record in e.neighbors]
            )
            self._records_cache = cache
        return cache

    def records_with_prefix(
        self, digits: Tuple[int, ...]
    ) -> Tuple[UserRecord, ...]:
        """Every record whose ID starts with ``digits``, in
        :meth:`all_records` order: the Section 3.1.1 query service.

        Only entries the prefix can match are read.  With ``lcp`` the
        length of the common prefix of the owner's ID and ``digits``, a
        prefix that leaves the owner's subtree (``lcp < len(digits)``)
        can match only the ``(lcp, digits[lcp])``-entry; a prefix the
        owner's ID carries matches every record of rows ``len(digits)``
        and above, and nothing else.  The server's owner ID is null, so
        its table answers the empty prefix with everything and any other
        prefix from one row-0 entry.  Cached answers are shared; callers
        must not mutate them.
        """
        n = len(digits)
        lcp = 0
        for a, b in zip(self._own_digits, digits):
            if a != b:
                break
            lcp += 1
        if lcp < n:
            e = self._entries.get((lcp, digits[lcp]))
            if e is None:
                return ()
            if lcp + 1 == n:  # the entry's subtree is the prefix's
                return tuple([record for _, record in e.neighbors])
            return tuple(
                [r for _, r in e.neighbors if r.user_id.digits[:n] == digits]
            )
        records = self._records()
        if n == 0:
            return records
        built_beside, by_row = self._rows_from_cache
        if built_beside is not records:
            by_row = {}
            self._rows_from_cache = (records, by_row)
        found = by_row.get(n)
        if found is None:
            found = by_row[n] = tuple(
                [
                    record
                    for (row, _), e in self._entries.items()
                    if row >= n
                    for _, record in e.neighbors
                ]
            )
        return found

    def slots(self) -> Iterator[Tuple[int, int]]:
        """The ``(i, j)`` of every entry holding a record, in creation
        order (an entry left empty is dropped)."""
        return iter(self._entries)

    def num_neighbors(self) -> int:
        return sum(len(e.neighbors) for e in self._entries.values())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._records_cache = None
        self._rows_from_cache = (None, None)
        self._primaries_cache.clear()
        NeighborTable._mutation_epoch += 1

    def insert(
        self,
        record: UserRecord,
        rtt: float,
        slot: Optional[Tuple[int, int]] = None,
    ) -> bool:
        """Offer a record to the table; it is kept iff its entry has room
        or the record beats the entry's worst RTT.  Returns True iff the
        table changed — a duplicate or rejected offer touches nothing,
        caches and ``_mutation_epoch`` included.

        At equal RTT an existing neighbor beats the offer and an earlier
        offer beats a later one.  ``slot`` is the caller's already-known
        ``slot_for(record)``; it is trusted, not checked.
        """
        if slot is None:
            slot = self.slot_of(record.user_id)
            if slot is None:
                return False
        e = self._entries.get(slot)
        if e is None:
            e = self._entries[slot] = _Entry()
        else:
            if record.user_id in e.ids:
                return False
            neighbors = e.neighbors
            if len(neighbors) >= self.k:
                if rtt >= neighbors[-1][0]:
                    return False
                e.ids.discard(neighbors.pop()[1].user_id)
        insort_right(e.neighbors, (rtt, record), key=_RTT_KEY)
        e.ids.add(record.user_id)
        self._invalidate()
        return True

    def fill(
        self, slot: Tuple[int, int], pairs: Iterable[Tuple[UserRecord, float]]
    ) -> None:
        """Batch form of :meth:`insert` for one entry: offer many
        ``(record, rtt)`` pairs that all belong to ``slot`` (trusted, as
        in :meth:`insert`) — a new table's entry at construction, or the
        candidates for an entry a departure vacated.

        The entry is sorted once and truncated to ``K``, instead of once
        per offer.  Because the sort is stable and ties keep offer order
        behind the neighbors already there, the survivors and their order
        are exactly what the equivalent sequence of :meth:`insert` calls
        would leave — provided each user ID appears at most once in
        ``pairs`` (sequential inserts can re-admit an ID whose earlier
        record was already evicted, which a single batched pass cannot
        see).  IDs already in the entry are skipped; with nothing left to
        offer the table is not touched.
        """
        e = self._entries.get(slot)
        present = e.ids if e is not None else ()
        offers = [
            (rtt, record) for record, rtt in pairs if record.user_id not in present
        ]
        if not offers:
            return
        if e is None:
            e = self._entries[slot] = _Entry()
        neighbors = e.neighbors
        neighbors.extend(offers)
        neighbors.sort(key=_RTT_KEY)
        del neighbors[self.k :]
        e.ids = {record.user_id for _, record in neighbors}
        self._invalidate()

    def remove(self, user_id: Id) -> bool:
        """Delete a user's record (leave / failure); an entry left empty
        is dropped.  Returns True iff something was removed."""
        slot = self.slot_of(user_id)
        e = self._entries.get(slot)
        if e is None or user_id not in e.ids:
            return False
        kept = [(rtt, r) for rtt, r in e.neighbors if r.user_id != user_id]
        if kept:
            e.neighbors = kept
            e.ids.discard(user_id)
        else:
            del self._entries[slot]
        self._invalidate()
        return True


class StaticPrimaryTable:
    """An immutable K=1 neighbor table defined by shared row lists.

    The scale-ladder worlds (:mod:`repro.perf.scale`) derive perfectly
    1-consistent tables straight from the ID trie: entry ``(i, j)`` of
    any member with prefix ``p`` is a fixed representative of the
    ``p + j`` subtree.  Members sharing a prefix therefore share row
    lists — ``rows[i]`` is the fully materialized ``row_primaries(i)``
    result, ``[(j, record), ...]`` sorted by ``j`` with the owner's own
    digit already skipped — so a 10k-member world is a few MB instead
    of 10k full :class:`NeighborTable` objects.

    The class quacks like :class:`NeighborTable` as far as the FORWARD
    fan-out and the differential oracle read it (``scheme``, ``owner``,
    ``is_server_table``, ``row_primaries``, ``primary``, ``entry``) and
    never mutates.
    """

    def __init__(self, scheme: IdScheme, owner: UserRecord,
                 rows: "List[List[Tuple[int, UserRecord]]]"):
        self.scheme = scheme
        self.owner = owner
        self.k = 1
        self._rows = rows

    @property
    def is_server_table(self) -> bool:
        return self.owner.user_id.is_null

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    def row_primaries(self, i: int) -> List[Tuple[int, UserRecord]]:
        return self._rows[i]

    def primary(self, i: int, j: int) -> Optional[UserRecord]:
        """The (i,j)-primary, by binary search over the sorted row."""
        row = self._rows[i]
        pos = bisect_left(row, j, key=_DIGIT_KEY)
        if pos < len(row) and row[pos][0] == j:
            return row[pos][1]
        return None

    def entry(self, i: int, j: int) -> List[UserRecord]:
        record = self.primary(i, j)
        return [record] if record is not None else []


# ----------------------------------------------------------------------
# Consistency checking and oracle construction
# ----------------------------------------------------------------------
def check_k_consistency(
    tables: Dict[Id, NeighborTable],
    id_tree: IdTree,
    k: int,
) -> List[str]:
    """Verify Definition 3 over a set of user tables; returns violations
    (empty list when the tables are K-consistent)."""
    problems: List[str] = []
    scheme = id_tree.scheme
    for owner_id, table in tables.items():
        for i in range(scheme.num_digits):
            for j in range(scheme.base):
                records = table.entry(i, j)
                if j == owner_id[i]:
                    if records:
                        problems.append(
                            f"{owner_id}: ({i},{j})-entry must be empty"
                        )
                    continue
                m = id_tree.subtree_size(id_tree.ij_subtree_root(owner_id, i, j))
                want = min(k, m)
                if len(records) != want:
                    problems.append(
                        f"{owner_id}: ({i},{j})-entry has {len(records)} "
                        f"neighbors, wants min(K={k}, m={m}) = {want}"
                    )
                subtree_root = id_tree.ij_subtree_root(owner_id, i, j)
                for record in records:
                    if not subtree_root.is_prefix_of(record.user_id):
                        problems.append(
                            f"{owner_id}: ({i},{j})-entry holds {record.user_id} "
                            f"outside subtree {subtree_root}"
                        )
    return problems


def build_consistent_tables(
    scheme: IdScheme,
    records: Iterable[UserRecord],
    rtt: Callable[[int, int], float],
    k: int,
) -> Dict[Id, NeighborTable]:
    """Oracle construction of K-consistent tables for a static group.

    For every user and every (i,j)-entry, picks the ``min(K, m)`` users of
    the corresponding ID subtree with the smallest RTTs — the state the
    (Silk-based) join protocol provably converges to.  The paper uses a
    simplified Silk join in its simulator; we additionally maintain tables
    incrementally in :mod:`repro.core.membership`, and the test suite
    checks both against this oracle's consistency.
    """
    record_list = list(records)
    tables: Dict[Id, NeighborTable] = {}
    for owner in record_list:
        table = NeighborTable(scheme, owner, k)
        for other in record_list:
            if other.user_id == owner.user_id:
                continue
            table.insert(other, rtt(owner.host, other.host))
        tables[owner.user_id] = table
    return tables


def build_server_table(
    scheme: IdScheme,
    server_host: int,
    records: Iterable[UserRecord],
    rtt: Callable[[int, int], float],
    k: int,
) -> NeighborTable:
    """The key server's one-row table: per 0th digit ``j``, the ``K`` users
    closest to the server (Section 2.2)."""
    from .ids import NULL_ID

    table = NeighborTable(scheme, UserRecord(NULL_ID, server_host), k)
    for record in records:
        table.insert(record, rtt(server_host, record.host))
    return table
