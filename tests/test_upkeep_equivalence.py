"""Differential test of membership upkeep against the offer-everything
code it replaced.

``ReferenceTable`` and ``ReferenceGroup`` carry that code verbatim —
``insert`` appends, re-sorts and pops; ``remove`` walks every entry;
``_admit`` offers the newcomer to every table; ``_refill`` re-offers a
whole ID subtree per hole, one scalar RTT at a time.  Both
implementations are driven by the same seeded schedule of ``join`` /
``leave`` / ``fail`` / ``repair_tables``, and after every operation every
table must be *equal*: the same entries in the same creation order
(``all_records()``, hence ``Group.query``, reads them in that order), the
same ``(rtt, record)`` lists with the same floats in the same order, the
same ``ids`` mirrors.  The order inside an entry is decided by RTT ties,
so one topology is built to tie: hosts on an integer grid, several hosts
per grid point.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.id_assignment import IdAssigner
from repro.core.ids import NULL_ID, Id, IdScheme, PAPER_SCHEME
from repro.core.membership import Group
from repro.core.neighbor_table import (
    _RTT_KEY,
    NeighborTable,
    UserRecord,
    _Entry,
    check_k_consistency,
)
from repro.experiments.common import _default_thresholds
from repro.net.planetlab import MatrixTopology

GRID_SCHEME = IdScheme(num_digits=3, base=3)
KS = (1, 2, 4)


# ----------------------------------------------------------------------
# The reference: the replaced code, verbatim
# ----------------------------------------------------------------------
class ReferenceTable(NeighborTable):
    def insert(self, record, rtt):
        slot = self.slot_for(record)
        if slot is None:
            return False
        e = self._entries.get(slot)
        if e is None:
            e = self._entries[slot] = _Entry()
        elif record.user_id in e.ids:
            return False
        e.neighbors.append((rtt, record))
        e.neighbors.sort(key=_RTT_KEY)
        e.ids.add(record.user_id)
        self._records_cache = None
        self._primaries_cache.clear()
        NeighborTable._mutation_epoch += 1
        if len(e.neighbors) > self.k:
            dropped = e.neighbors.pop()
            e.ids.discard(dropped[1].user_id)
            return dropped[1].user_id != record.user_id
        return True

    def fill(self, pairs):
        entries = self._entries
        slot_for = self.slot_for
        for record, rtt in pairs:
            slot = slot_for(record)
            if slot is None:
                continue
            e = entries.get(slot)
            if e is None:
                e = entries[slot] = _Entry()
            elif record.user_id in e.ids:
                continue
            e.neighbors.append((rtt, record))
            e.ids.add(record.user_id)
        k = self.k
        for e in entries.values():
            neighbors = e.neighbors
            if len(neighbors) > 1:
                neighbors.sort(key=_RTT_KEY)
            if len(neighbors) > k:
                for _, dropped in neighbors[k:]:
                    e.ids.discard(dropped.user_id)
                del neighbors[k:]
        self._records_cache = None
        self._primaries_cache.clear()
        NeighborTable._mutation_epoch += 1

    def remove(self, user_id):
        removed = False
        for slot, e in list(self._entries.items()):
            if user_id not in e.ids:
                continue
            kept = [(rtt, r) for rtt, r in e.neighbors if r.user_id != user_id]
            removed = True
            if kept:
                e.neighbors = kept
                e.ids.discard(user_id)
            else:
                del self._entries[slot]
        if removed:
            self._records_cache = None
            self._primaries_cache.clear()
            NeighborTable._mutation_epoch += 1
        return removed


class ReferenceGroup(Group):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.server_table = ReferenceTable(
            self.scheme, UserRecord(NULL_ID, self.server_host), self.k
        )

    def _admit(self, record):
        user_id = record.user_id
        self.id_tree.add_user(user_id)
        self.records[user_id] = record
        table = ReferenceTable(self.scheme, record, self.k)
        others = [o for o in self.records.values() if o.user_id != user_id]
        if others:
            out_rtts = self.topology.rtt_many(
                record.host, [o.host for o in others]
            )
            table.fill(zip(others, map(float, out_rtts)))
        self.tables[user_id] = table
        other_tables = [
            t for oid, t in self.tables.items() if oid != user_id
        ]
        if other_tables:
            in_rtts = self.topology.rtt_to_many(
                record.host, [t.owner.host for t in other_tables]
            )
            for other_table, r in zip(other_tables, in_rtts):
                other_table.insert(record, float(r))
        self.server_table.insert(record, self._rtt(self.server_host, record.host))

    def leave(self, user_id):
        if user_id not in self.records:
            raise KeyError(f"user {user_id} not in group")
        departed = self.records.pop(user_id)
        self.id_tree.remove_user(user_id)
        self.tables.pop(user_id)
        for table in self.tables.values():
            if table.remove(user_id):
                self._refill(table, departed)
        if self.server_table.remove(user_id):
            self._refill(self.server_table, departed)

    def _refill(self, table, departed):
        slot = table.slot_for(departed)
        if slot is None:
            return
        i, j = slot
        if table.is_server_table:
            subtree_root = Id((j,))
        else:
            subtree_root = table.owner.user_id.prefix(i).extend(j)
        present = {r.user_id for r in table.entry(i, j)}
        for candidate_id in self.id_tree.users_in_subtree(subtree_root):
            if candidate_id not in present and candidate_id != table.owner.user_id:
                record = self.records[candidate_id]
                table.insert(record, self._rtt(table.owner.host, record.host))

    def repair_tables(self):
        removed = 0
        alive = set(self.records)
        for table in list(self.tables.values()) + [self.server_table]:
            for record in list(table.all_records()):
                if record.user_id not in alive:
                    table.remove(record.user_id)
                    self._refill(table, record)
                    removed += 1
        return removed


# ----------------------------------------------------------------------
# Worlds and comparison
# ----------------------------------------------------------------------
def grid_topology():
    """A 4x3 integer grid with three hosts on every point plus the key
    server: RTTs are multiples of 20 ms, co-located hosts are 0 ms apart
    and share every other RTT, so entries tie constantly."""
    points = np.array(
        [(x, y) for x in range(4) for y in range(3) for _ in range(3)] + [(1, 1)]
    )
    matrix = 20.0 * np.abs(points[:, None, :] - points[None, :, :]).sum(axis=2)
    return MatrixTopology(matrix)


def table_state(table):
    """Entries in creation order with their exact contents."""
    state = []
    for slot, e in table._entries.items():
        assert all(type(rtt) is float for rtt, _ in e.neighbors), (slot, e)
        assert e.ids == {r.user_id for _, r in e.neighbors}, (slot, e)
        state.append((slot, list(e.neighbors), set(e.ids)))
    return state


def group_state(group):
    return (
        [(uid, table_state(t)) for uid, t in group.tables.items()],
        table_state(group.server_table),
        list(group.records.items()),
    )


class Lockstep:
    """One schedule applied to both implementations, compared after
    every operation."""

    def __init__(self, topology, scheme, k, seed, capacity):
        self.group, self.reference = (
            cls(
                scheme,
                topology,
                server_host=topology.num_hosts - 1,
                assigner=IdAssigner(scheme, _default_thresholds(scheme)),
                k=k,
                rng=np.random.default_rng(seed),
            )
            for cls in (Group, ReferenceGroup)
        )
        self.free = list(range(topology.num_hosts - 1))
        self.capacity = capacity

    def _both(self, op, *args):
        results = [getattr(g, op)(*args) for g in (self.group, self.reference)]
        assert group_state(self.group) == group_state(self.reference), (op, args)
        return results

    def join(self, pick):
        if not self.free or len(self.group.records) >= self.capacity:
            return
        host = self.free.pop(pick % len(self.free))
        ours, theirs = self._both("join", host)
        assert ours.record == theirs.record

    def _depart(self, op, pick):
        ids = list(self.group.records)
        if len(ids) < 2:
            return
        victim = ids[pick % len(ids)]
        self.free.append(self.group.records[victim].host)
        self._both(op, victim)

    def leave(self, pick):
        self._depart("leave", pick)

    def fail(self, pick):
        self._depart("fail", pick)

    def repair_tables(self, pick=0):
        ours, theirs = self._both("repair_tables")
        assert ours == theirs
        group = self.group
        assert check_k_consistency(group.tables, group.id_tree, group.k) == []

    OPS = ("join", "join", "join", "leave", "leave", "fail", "repair_tables")


def run_seeded(topology, scheme, k, seed, steps, capacity):
    rng = np.random.default_rng(seed)
    world = Lockstep(topology, scheme, k, seed, capacity)
    for _ in range(capacity // 2):
        world.join(int(rng.integers(0, 1 << 30)))
    for _ in range(steps):
        op = Lockstep.OPS[int(rng.integers(0, len(Lockstep.OPS)))]
        getattr(world, op)(int(rng.integers(0, 1 << 30)))
    world.repair_tables()


# ----------------------------------------------------------------------
# Group level
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", KS)
def test_gtitm_schedule_matches_reference(gtitm, k):
    run_seeded(gtitm, PAPER_SCHEME, k, seed=11 + k, steps=150, capacity=40)


@pytest.mark.parametrize("k", KS)
def test_tie_grid_schedule_matches_reference(k):
    run_seeded(grid_topology(), GRID_SCHEME, k, seed=23 + k, steps=200, capacity=20)


def test_tie_grid_actually_ties():
    """The grid world is only worth its name if entries do hold equal
    RTTs (so that order inside an entry is decided by the tie rules)."""
    world = Lockstep(grid_topology(), GRID_SCHEME, 4, seed=5, capacity=20)
    for pick in range(20):
        world.join(7 * pick)
    tied = 0
    for table in world.group.tables.values():
        for e in table._entries.values():
            rtts = [rtt for rtt, _ in e.neighbors]
            tied += len(rtts) - len(set(rtts))
    assert tied > 20


@given(
    k=st.sampled_from(KS),
    seed=st.integers(0, 2**16),
    schedule=st.lists(
        st.tuples(st.sampled_from(Lockstep.OPS), st.integers(0, 1 << 16)),
        max_size=30,
    ),
)
@settings(max_examples=40, deadline=None)
def test_short_schedules_match_reference(k, seed, schedule):
    world = Lockstep(grid_topology(), GRID_SCHEME, k, seed, capacity=16)
    for op, pick in schedule:
        getattr(world, op)(pick)
    world.repair_tables()


def test_refill_candidates_do_not_outlive_the_operation():
    """Regression: a per-operation candidate list that survived ``leave``
    into ``repair_tables`` re-offered users of a subtree that had since
    emptied.  A leave, then the failure and repair of another member of
    the same subtree, must leave the tables K-consistent."""
    world = Lockstep(grid_topology(), GRID_SCHEME, 2, seed=3, capacity=20)
    for pick in range(12):
        world.join(5 * pick)
    group = world.group
    by_subtree = {}
    for uid in group.records:
        by_subtree.setdefault(uid.prefix(1), []).append(uid)
    mates = next(m for m in by_subtree.values() if len(m) >= 2)
    ids = list(group.records)
    world.leave(ids.index(mates[0]))
    ids = list(group.records)
    world.fail(ids.index(mates[1]))
    world.repair_tables()
    assert check_k_consistency(group.tables, group.id_tree, group.k) == []


# ----------------------------------------------------------------------
# Table level: the same calls, the same return values
# ----------------------------------------------------------------------
@given(
    k=st.sampled_from(KS),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_insert_and_remove_return_values_match_reference(k, seed):
    rng = np.random.default_rng(seed)
    owner = UserRecord(Id([0, 0, 0]), host=0)
    ours = NeighborTable(GRID_SCHEME, owner, k)
    theirs = ReferenceTable(GRID_SCHEME, owner, k)
    known = []
    for host in range(1, 60):
        if known and rng.random() < 0.3:
            uid = known[int(rng.integers(0, len(known)))]
            assert ours.remove(uid) == theirs.remove(uid)
        else:
            # Re-offers of a held or evicted ID and the owner's own ID
            # are part of the contract (both return False or re-admit).
            uid = Id(int(rng.integers(0, 3)) for _ in range(3))
            known.append(uid)
            rtt = float(rng.integers(0, 4))  # coarse values force ties
            record = UserRecord(uid, host=host)
            assert ours.insert(record, rtt) == theirs.insert(record, rtt)
            assert ours.contains(uid) == theirs.contains(uid)
        assert table_state(ours) == table_state(theirs)
        assert list(ours.all_records()) == list(theirs.all_records())


@pytest.mark.parametrize("server", [False, True])
def test_known_slot_insert_is_the_plain_insert(server):
    rng = np.random.default_rng(9)
    owner = UserRecord(NULL_ID if server else Id([1, 2, 0]), host=0)
    plain = NeighborTable(GRID_SCHEME, owner, 2)
    hinted = NeighborTable(GRID_SCHEME, owner, 2)
    for host in range(1, 80):
        record = UserRecord(Id(int(rng.integers(0, 3)) for _ in range(3)), host)
        slot = plain.slot_for(record)
        if slot is None:
            continue
        rtt = float(rng.integers(0, 5))
        assert hinted.insert(record, rtt, slot) == plain.insert(record, rtt)
        assert table_state(hinted) == table_state(plain)
