"""The message-level audits: ``check_one_consistency`` against the
slot-by-slot loop it replaced, and copy accounting under duplication.

``reference_check_one_consistency`` is that loop verbatim: it visits all
``D x B`` slots of every member.  The current audit visits only the
populated child digits of each row's ancestor and the row's non-empty
entries; on damaged tables the two must report the same findings in
the same order.
"""

import pytest

from repro.core.id_tree import IdTree
from repro.distributed import DistributedGroup
from repro.distributed import messages as m
from repro.faults import FaultPlan
from repro.net import TransitStubParams, TransitStubTopology

PARAMS = TransitStubParams(
    transit_domains=3, transit_per_domain=3, stubs_per_transit=2, stub_size=6
)


def reference_check_one_consistency(world):
    problems = []
    announced = world.server._announced
    members = [u for u in world.active_users() if u.user_id in announced]
    tree = IdTree(world.scheme, [u.user_id for u in members])
    alive = {u.user_id for u in members}
    for user in members:
        table = user.table
        for i in range(world.scheme.num_digits):
            for j in range(world.scheme.base):
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


def settled_world(fault_plan=None, k=2):
    """24 members joined one at a time, one close, and a second interval
    of two leaves and two joins whose close is left to the caller."""
    topology = TransitStubTopology(num_hosts=41, params=PARAMS, seed=5)
    world = DistributedGroup(topology, server_host=40, seed=5, k=k)
    for host in range(24):
        world.schedule_join(host, at=1.0 + 300.0 * host)
    world.end_interval(at=8000.0)
    world.run()
    for n, host in enumerate((3, 11)):
        world.schedule_leave_of_host(host, at=8100.0 + n)
    for n, host in enumerate((30, 31)):
        world.schedule_join(host, at=8100.0 + 300.0 * n)
    world.run()
    world.transport.install_faults(fault_plan)
    return world


def close(world):
    sent = world.transport.stats.sent
    world.end_interval(at=world.scheduler.now + 1.0)
    world.run()
    return world.transport.stats.sent - sent


# ----------------------------------------------------------------------
# check_one_consistency
# ----------------------------------------------------------------------
def damage(world):
    """One of each finding, at different members: an emptied entry of a
    populated subtree, a departed member's record in the entry of an
    empty subtree (only the entry, not the ID tree, leads there), a
    record filed under the wrong entry, and a record in the owner's
    own-digit entry."""
    users = sorted(world.active_users(), key=lambda u: u.host)
    departed = next(
        u for u in world.users.values() if u.joined and u not in users
    ).record
    emptied, stale, misfiled, own_digit = users[:4]

    i, j = next(iter(emptied.table.slots()))
    for record in emptied.table.entry(i, j):
        emptied.table.remove(record.user_id)

    populated = {u.user_id[0] for u in users}
    unpopulated = min(set(range(world.scheme.base)) - populated)
    stale.table.insert(departed, 0.0, slot=(0, unpopulated))

    (i, j), (i2, j2) = list(misfiled.table.slots())[:2]
    stray = misfiled.table.entry(i2, j2)[0]
    misfiled.table.remove(stray.user_id)
    misfiled.table.insert(stray, 0.0, slot=(i, j))

    own = own_digit.user_id
    sibling = next(u for u in users if u.user_id[0] == own[0] and u is not own_digit)
    own_digit.table.insert(sibling.record, 0.0, slot=(0, own[0]))


def test_audit_equals_reference_on_damaged_tables():
    world = settled_world()
    close(world)
    assert world.check_one_consistency() == []
    assert reference_check_one_consistency(world) == []
    damage(world)
    problems = world.check_one_consistency()
    assert problems == reference_check_one_consistency(world)
    kinds = ("empty but", "stale record", "outside subtree", "own-digit entry")
    for kind in kinds:
        assert any(kind in p for p in problems), kind


def test_registered_but_unannounced_joiners_are_not_audited():
    """Before the second close, hosts 30 and 31 hold IDs the server has
    not announced, and no table holds them yet.  The audit runs over the
    server's announced set, so it reports nothing; over every active
    user it counted their subtrees as populated and reported the
    entries of their row-mates as empty (4 findings at this seed).
    After the close they are announced, in the tables and audited."""
    world = settled_world()
    joiners = {world.users[host].user_id for host in (30, 31)}
    assert all(world.users[host].joined for host in (30, 31))
    assert not joiners & world.server._announced

    def held():
        return {
            record.user_id
            for user in world.active_users()
            for record in user.table.all_records()
        }

    assert not joiners & held()
    assert world.check_one_consistency() == []
    assert reference_check_one_consistency(world) == []
    close(world)
    assert joiners <= world.server._announced
    assert joiners <= held()
    assert world.check_one_consistency() == []


# ----------------------------------------------------------------------
# Copy accounting
# ----------------------------------------------------------------------
def test_duplicated_copies_are_counted_and_not_forwarded():
    """Every interval copy is delivered twice: each member logs and
    counts both, forwards only the first, and the audits report every
    member as a duplicate receiver."""
    twice = FaultPlan(seed=1).duplicate(
        1.0, match=lambda src, dst, payload: isinstance(payload, m.MulticastMsg)
    )
    clean, duplicated = settled_world(), settled_world(twice)
    assert close(duplicated) == close(clean)  # no copy is re-forwarded
    interval = duplicated.intervals[-1].update.interval
    members = duplicated.active_users()
    for user, twin in zip(members, clean.active_users()):
        assert user.copies_received.count(interval) == 2
        assert user.copies_by_interval[interval] == 2
        assert user.stats.multicast_copies == twin.stats.multicast_copies + 1
    report = duplicated.delivery_report(interval)
    assert report["duplicates"] == {u.user_id: 2 for u in members}
    assert duplicated.duplicates_by_interval() == {interval: report["duplicates"]}
    assert clean.duplicates_by_interval() == {}
    assert twice.stats.duplicates > 0


@pytest.mark.parametrize("k", [1, 4])
def test_audits_hold_on_a_clean_close(k):
    world = settled_world(k=k)
    close(world)
    assert world.check_one_consistency() == []
    assert world.duplicates_by_interval() == {}
