"""Work-proportionality guard for membership upkeep.

``NeighborTable._mutation_epoch`` moves once per table mutation, so its
delta over one ``join`` or ``leave`` counts the tables that operation
actually changed.  The counts are exact and repeat on every run; code
that goes back to offering every record to every table (each offer then
a mutation) moves the epoch by ~N per join and ~K*N per leave and fails
here without a wall clock.
"""

import pytest

from repro.core.ids import Id
from repro.core.neighbor_table import NeighborTable, UserRecord
from repro.experiments.common import build_group, build_topology
from repro.experiments.config import SMALL_GTITM

MEMBERS = 256
SPARE_HOSTS = 8


@pytest.fixture()
def group():
    topology = build_topology(
        "gtitm", MEMBERS + SPARE_HOSTS + 1, seed=20, gtitm_params=SMALL_GTITM
    )
    return build_group(topology, MEMBERS, seed=20, k=4)


def holders_of(group, user_id):
    tables = [*group.tables.values(), group.server_table]
    return sum(table.contains(user_id) for table in tables)


def test_rejected_offer_touches_nothing(group):
    table = next(
        t
        for t in group.tables.values()
        if any(len(e.neighbors) == t.k for e in t._entries.values())
    )
    slot, entry = next(
        (s, e) for s, e in table._entries.items() if len(e.neighbors) == table.k
    )
    i, j = slot
    worst_rtt = entry.neighbors[-1][0]
    # An unused ID of the same (i,j)-subtree, offered at the worst RTT:
    # the neighbor already there wins the tie.
    stem = table.owner.user_id.digits[:i] + (j,)
    stranger = next(
        uid
        for d in range(255, 0, -1)
        if (uid := Id(stem + (d,) * (5 - len(stem)))) not in group.records
    )
    records_cache = list(table.all_records())
    table.row_primaries(i)
    cached = (table._records_cache, dict(table._primaries_cache))
    epoch = NeighborTable._mutation_epoch
    before = list(entry.neighbors)

    assert table.slot_for(UserRecord(stranger, host=0)) == slot
    assert table.insert(UserRecord(stranger, host=0), worst_rtt) is False
    assert table.insert(UserRecord(stranger, host=0), worst_rtt + 1.0) is False
    assert table.insert(entry.neighbors[0][1], 0.0) is False  # duplicate

    assert NeighborTable._mutation_epoch == epoch
    assert table._records_cache is cached[0]
    assert table._primaries_cache == cached[1]
    assert entry.neighbors == before
    assert list(table.all_records()) == records_cache


def test_leave_moves_the_epoch_by_its_holders_only(group):
    for victim in list(group.records)[5::37]:
        holders = holders_of(group, victim)
        epoch = NeighborTable._mutation_epoch
        group.leave(victim)
        delta = NeighborTable._mutation_epoch - epoch
        # One removal per holder, at most one batched refill after it.
        assert holders <= delta <= 2 * holders, (victim, holders, delta)


def test_join_moves_the_epoch_by_the_tables_it_changed(group):
    for host in range(MEMBERS, MEMBERS + SPARE_HOSTS):
        epoch = NeighborTable._mutation_epoch
        user_id = group.join(host).record.user_id
        delta = NeighborTable._mutation_epoch - epoch
        # One fill per entry of the newcomer's table, one accepted offer
        # per table that took the newcomer in; rejected offers are free.
        own_entries = len(group.tables[user_id]._entries)
        assert delta == own_entries + holders_of(group, user_id), (host, delta)
        assert delta < MEMBERS
