"""Tests for the message-level protocol layer (Section 3 on the wire)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ids import NULL_ID
from repro.distributed import DistributedGroup
from repro.net import TransitStubParams, TransitStubTopology

PARAMS = TransitStubParams(
    transit_domains=3, transit_per_domain=3, stubs_per_transit=2, stub_size=6
)


def make_world(num_hosts=41, seed=5):
    topology = TransitStubTopology(num_hosts=num_hosts, params=PARAMS, seed=seed)
    return DistributedGroup(topology, server_host=num_hosts - 1, seed=seed)


class TestJoins:
    def test_first_join_gets_zero_id(self):
        world = make_world()
        node = world.schedule_join(0, at=1.0)
        world.run()
        assert node.joined
        assert node.user_id == world.scheme.first_user_id()

    def test_sequential_joins_converge(self):
        world = make_world()
        for i in range(10):
            world.schedule_join(i, at=1.0 + i * 300.0)
        world.end_interval(at=5000.0)
        world.run()
        assert len(world.active_users()) == 10
        assert world.check_one_consistency() == []

    def test_concurrent_joins_converge(self):
        """Joins landing within milliseconds of each other still yield
        1-consistent tables after the interval announcement."""
        world = make_world()
        for i in range(14):
            world.schedule_join(i, at=1.0 + i * 2.0)
        world.end_interval(at=5000.0)
        world.run()
        assert len(world.active_users()) == 14
        assert world.check_one_consistency() == []

    def test_unique_ids(self):
        world = make_world()
        for i in range(16):
            world.schedule_join(i, at=1.0 + i * 5.0)
        world.end_interval(at=5000.0)
        world.run()
        ids = [u.user_id for u in world.active_users()]
        assert len(set(ids)) == len(ids)

    def test_join_message_cost_is_modest(self):
        """The paper analyzes the joiner's cost as O(P * D * N^(1/D));
        for these sizes that is well under a hundred queries."""
        world = make_world()
        for i in range(12):
            world.schedule_join(i, at=1.0 + i * 300.0)
        world.end_interval(at=5000.0)
        world.run()
        for user in world.active_users():
            assert user.stats.queries_sent < 100
            assert user.stats.pings_sent < 200


class TestMulticastOnTheWire:
    def test_update_reaches_everyone_exactly_once(self):
        world = make_world()
        for i in range(12):
            world.schedule_join(i, at=1.0 + i * 200.0)
        world.end_interval(at=4000.0)
        # second interval: multicast flows over the now-populated tables
        for i in range(12, 18):
            world.schedule_join(i, at=4100.0 + i)
        world.end_interval(at=6000.0)
        world.run()
        report = world.delivery_report(1)
        active_ids = {u.user_id for u in world.active_users()}
        assert report["received"] >= active_ids
        assert report["duplicates"] == {}

    def test_splitting_on_the_wire(self):
        """Encryption counts received over the real protocol match
        Lemma 3: each member gets at least what it needs and far less
        than the full message."""
        world = make_world()
        for i in range(14):
            world.schedule_join(i, at=1.0 + i * 100.0)
        world.end_interval(at=3000.0)
        for host in (1, 4, 7):
            world.schedule_leave_of_host(host, at=3500.0)
        world.end_interval(at=5000.0)
        world.run()
        total = len(world.intervals[1].update.encryptions)
        assert total > 0
        report = world.delivery_report(1)
        loads = [
            count
            for uid, count in report["encryptions"].items()
            if uid in {u.user_id for u in world.active_users()}
        ]
        assert max(loads) <= total
        assert min(loads) >= 1  # everyone needs at least the group key

    def test_leavers_detach_after_final_forwarding(self):
        world = make_world()
        for i in range(10):
            world.schedule_join(i, at=1.0 + i * 200.0)
        world.end_interval(at=3000.0)
        world.schedule_leave_of_host(2, at=3200.0)
        world.end_interval(at=5000.0)
        world.run()
        leaver = world.users[2]
        assert world.transport.node_at(2) is not leaver  # detached
        assert leaver not in world.active_users()
        # and nobody's table still carries it
        assert world.check_one_consistency() == []


class TestChurn:
    @given(st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_random_churn_stays_consistent(self, seed):
        world = make_world(seed=7)
        rng = np.random.default_rng(seed)
        t = 1.0
        joined_hosts = []
        next_host = 0
        for interval in range(3):
            for _ in range(int(rng.integers(2, 7))):
                world.schedule_join(next_host, at=t)
                joined_hosts.append(next_host)
                next_host += 1
                t += float(rng.uniform(1.0, 300.0))
            if interval > 0 and joined_hosts:
                n_leave = int(rng.integers(0, min(3, len(joined_hosts))))
                for _ in range(n_leave):
                    host = joined_hosts.pop(int(rng.integers(0, len(joined_hosts))))
                    world.schedule_leave_of_host(host, at=t)
                    t += 10.0
            t += 1500.0
            world.end_interval(at=t)
            t += 500.0
        world.run()
        assert world.check_one_consistency() == []
        assert {u.host for u in world.active_users()} == set(joined_hosts)

    def test_emptied_entries_refilled_after_leaves(self):
        """With K=1 tables, a leave empties entries; refill queries must
        restore 1-consistency."""
        topology = TransitStubTopology(num_hosts=41, params=PARAMS, seed=9)
        world = DistributedGroup(topology, server_host=40, seed=9, k=1)
        for i in range(12):
            world.schedule_join(i, at=1.0 + i * 300.0)
        world.end_interval(at=5000.0)
        world.run()
        # leave a couple of users; with K=1 their entries go empty
        world.schedule_leave_of_host(3, at=5100.0)
        world.schedule_leave_of_host(6, at=5150.0)
        world.end_interval(at=7000.0)
        world.run()
        assert world.check_one_consistency() == []


class TestServerBehaviour:
    def test_server_tracks_id_tree(self):
        world = make_world()
        for i in range(8):
            world.schedule_join(i, at=1.0 + i * 150.0)
        world.end_interval(at=3000.0)
        world.run()
        assert len(world.server.id_tree) == 8
        assert set(world.server.records) == {
            u.user_id for u in world.active_users()
        }

    def test_rekey_message_matches_key_tree_batch(self):
        world = make_world()
        for i in range(8):
            world.schedule_join(i, at=1.0 + i * 150.0)
        world.end_interval(at=3000.0)
        world.run()
        update = world.intervals[0].update
        assert len(update.joins) == 8
        assert update.leaves == ()
        assert len(update.encryptions) > 0

    def test_interval_numbers_increase(self):
        world = make_world()
        world.schedule_join(0, at=1.0)
        world.end_interval(at=100.0)
        world.end_interval(at=200.0)
        world.run()
        assert [log.update.interval for log in world.intervals] == [0, 1]


class TestFailureDetection:
    """Section 3.2: failed neighbors are detected by consecutive missed
    pings, reported to the key server, and purged everywhere."""

    def _converged_world(self, seed=11, users=12):
        world = make_world(seed=seed)
        for i in range(users):
            world.schedule_join(i, at=1.0 + i * 250.0)
        world.end_interval(at=users * 250.0 + 2000.0)
        world.run()
        return world

    def test_crash_detected_and_purged(self):
        world = self._converged_world()
        t = world.scheduler.now
        world.schedule_crash(3, at=t + 100.0)
        # two probe rounds (failure_threshold = 2), spaced past timeouts
        world.schedule_probe_round(at=t + 200.0)
        world.schedule_probe_round(at=t + 12_000.0)
        world.end_interval(at=t + 30_000.0)
        world.run()
        crashed = world.users[3]
        assert crashed not in world.active_users()
        # the failure was announced: nobody's table holds the dead user
        assert world.check_one_consistency() == []
        assert crashed.user_id not in world.server.records

    def test_single_missed_round_is_not_a_failure(self):
        world = self._converged_world(seed=13)
        t = world.scheduler.now
        world.schedule_probe_round(at=t + 100.0)
        world.end_interval(at=t + 20_000.0)
        world.run()
        # nobody crashed, nobody was reported
        assert all(
            u.stats.failures_detected == 0 for u in world.active_users()
        )
        assert world.check_one_consistency() == []

    def test_detectors_notify_server(self):
        world = self._converged_world(seed=17)
        t = world.scheduler.now
        world.schedule_crash(5, at=t + 50.0)
        world.schedule_probe_round(at=t + 100.0)
        world.schedule_probe_round(at=t + 12_000.0)
        world.run()
        detectors = sum(
            1 for u in world.active_users() if u.stats.failures_detected > 0
        )
        assert detectors >= 1

    def test_multicast_complete_after_detection(self):
        world = self._converged_world(seed=19)
        t = world.scheduler.now
        world.schedule_crash(2, at=t + 50.0)
        world.schedule_crash(7, at=t + 60.0)
        world.schedule_probe_round(at=t + 100.0)
        world.schedule_probe_round(at=t + 12_000.0)
        world.end_interval(at=t + 30_000.0)
        # a second interval multicast flows over the repaired tables
        world.end_interval(at=t + 40_000.0)
        world.run()
        interval = world.intervals[-1].update.interval
        report = world.delivery_report(interval)
        active_ids = {u.user_id for u in world.active_users()}
        assert report["received"] >= active_ids
        assert not (set(report["duplicates"]) & active_ids)


@pytest.mark.faults
class TestLossRecovery:
    """Reference-[31] unicast recovery: a member whose interval
    announcement copies were dropped resyncs from the server's history."""

    def _world_dropping_multicast_to(self, victim_host, start=0.0):
        from repro.distributed import messages as m
        from repro.faults import FaultPlan

        plan = FaultPlan(seed=1).drop(
            1.0,
            dst=victim_host,
            start=start,
            match=lambda s, d, p: isinstance(p, m.MulticastMsg),
        )
        topology = TransitStubTopology(num_hosts=41, params=PARAMS, seed=5)
        return DistributedGroup(
            topology, server_host=40, seed=5, fault_plan=plan
        )

    def test_missed_announcements_recovered_by_unicast(self):
        # Host 0 never receives a multicast copy: it misses interval 0's
        # joins and interval 1's leave, then resyncs both by unicast.
        world = self._world_dropping_multicast_to(0)
        for i in range(8):
            world.schedule_join(i, at=1.0 + 300.0 * i)
        world.end_interval(at=5000.0)
        world.schedule_leave_of_host(3, at=6000.0)
        world.end_interval(at=7000.0)
        world.run(until=7900.0)
        victim = world.users[0]
        assert victim.copies_received == []
        problems = world.check_one_consistency()
        assert any(str(victim.user_id) in p for p in problems)

        world.schedule_recovery_round(at=8000.0)
        world.run()
        assert victim.stats.recovered_updates == 2
        assert sorted(victim.copies_received) == [0, 1]
        assert world.check_one_consistency() == []

    def test_recovery_applies_a_missed_departure(self):
        # Interval 0 reaches host 1 normally (it learns the leaver's
        # record); only interval 1's announcement is dropped.
        world = self._world_dropping_multicast_to(1, start=6500.0)
        for i in range(6):
            world.schedule_join(i, at=1.0 + 300.0 * i)
        world.end_interval(at=5000.0)
        leaver = world.users[4]
        world.schedule_leave_of_host(4, at=6000.0)
        world.end_interval(at=7000.0)
        world.run(until=7900.0)
        victim = world.users[1]
        stale = {r.user_id for r in victim.table.all_records()}
        assert leaver.user_id in stale  # the departure never reached it

        world.schedule_recovery_round(at=8000.0)
        world.run()
        fresh = {r.user_id for r in victim.table.all_records()}
        assert leaver.user_id not in fresh
        assert world.check_one_consistency() == []

    def test_late_joiner_requests_the_full_history(self):
        # A member that joined at interval 1 holds copies {1} only; its
        # recovery request must still pull interval 0 (contiguity from
        # zero), and re-applying known records is harmless.
        world = make_world()
        for i in range(4):
            world.schedule_join(i, at=1.0 + 300.0 * i)
        world.end_interval(at=5000.0)
        world.schedule_join(4, at=6000.0)
        world.schedule_join(5, at=6300.0)
        world.end_interval(at=9000.0)
        world.run()
        late = world.users[5]
        assert sorted(set(late.copies_received)) == [1]

        world.schedule_recovery_round(at=10_000.0)
        world.run()
        assert sorted(set(late.copies_received)) == [0, 1]
        assert late.stats.recovered_updates == 1
        assert world.check_one_consistency() == []

    def test_recovery_round_is_a_no_op_when_synced(self):
        world = make_world()
        for i in range(6):
            world.schedule_join(i, at=1.0 + 300.0 * i)
        world.end_interval(at=5000.0)
        world.run()
        assert world.check_one_consistency() == []
        world.schedule_recovery_round(at=6000.0)
        world.run()
        assert all(
            u.stats.recovered_updates == 0 for u in world.users.values()
        )
        assert world.check_one_consistency() == []

    def test_refill_sweep_is_safe_on_consistent_tables(self):
        world = make_world()
        for i in range(6):
            world.schedule_join(i, at=1.0 + 300.0 * i)
        world.end_interval(at=5000.0)
        world.run()
        assert world.check_one_consistency() == []
        world.schedule_refill_sweep(at=6000.0)
        world.run()
        # legitimately-empty entries draw empty responses; nothing changes
        assert world.check_one_consistency() == []
