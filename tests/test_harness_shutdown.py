"""Shutdown-path behavior of the distributed harness (docs/SERVICE.md).

Three territories the soak lane crosses constantly, pinned here in
isolation: a member whose key-server requests all vanish exhausts its
bounded retries and gives up cleanly; a member crashing silently in the
middle of an interval is detected by probes and rotated out at the next
announcement; and a key-server snapshot restores byte-identically
(``key_tree_state``) and re-snapshots stably.  Each territory is covered
in the clean lane and — where a fault plan is the mechanism — in the
``pytest -q -m faults`` lane.
"""

from __future__ import annotations

import pytest

from repro.distributed import DistributedGroup
from repro.faults import FaultPlan
from repro.net import TransitStubParams, TransitStubTopology

SEED = 7
HOSTS = 17
SERVER = 0
PARAMS = TransitStubParams(
    transit_domains=3, transit_per_domain=3, stubs_per_transit=2, stub_size=3
)


def make_world(fault_plan=None, seed: int = SEED) -> DistributedGroup:
    topology = TransitStubTopology(num_hosts=HOSTS, params=PARAMS, seed=seed)
    return DistributedGroup(
        topology,
        server_host=SERVER,
        seed=seed,
        fault_plan=fault_plan,
    )


def populate(world: DistributedGroup, hosts=(1, 2, 3, 4, 5)) -> None:
    for i, host in enumerate(hosts):
        world.schedule_join(host, at=1.0 + 300.0 * i)
    world.end_interval(at=5000.0)
    world.run()


def converge(world: DistributedGroup, rounds: int = 8) -> None:
    """Bounded protocol-only repair: probe (detect), announce what the
    probes queued, recover, refill — until tables are 1-consistent."""
    for _ in range(rounds):
        world.run()
        if not world.check_one_consistency():
            return
        now = world.scheduler.now
        server = world.server
        if (
            server._pending_joins
            or server._pending_leaves
            or server._pending_replacements
        ):
            world.end_interval(at=now + 10.0)
        world.schedule_probe_round(at=now + 50.0)
        world.schedule_probe_round(at=now + 200.0)
        world.schedule_recovery_round(at=now + 350.0)
        world.schedule_refill_sweep(at=now + 400.0)
        world.run()


# ----------------------------------------------------------------------
# Server retry exhaustion
# ----------------------------------------------------------------------
@pytest.mark.faults
class TestServerRetryExhaustion:
    def test_join_gives_up_after_bounded_retries(self):
        """Every request to the server lost: the joiner retries with
        exponential backoff exactly ``max_server_retries`` times, then
        stops — no unbounded retry storm, no crash."""
        plan = FaultPlan(seed=SEED).drop(1.0, dst=SERVER)
        world = make_world(fault_plan=plan)
        node = world.schedule_join(1, at=1.0)
        world.run()
        assert not node.joined
        assert node.max_server_retries == 3
        assert node.stats.server_retries == 3
        assert world.scheduler.pending == 0  # nothing left ticking

    def test_leave_request_exhaustion_keeps_the_member_registered(self):
        """Requests to the server start vanishing *after* the group
        forms: a leaver's LeaveRequest exhausts its retries and the
        server — which never heard it — still carries the member."""
        plan = FaultPlan(seed=SEED).drop(1.0, dst=SERVER, start=6000.0)
        world = make_world(fault_plan=plan)
        populate(world, hosts=(1, 2, 3))
        leaver = world.users[2]
        assert leaver.joined
        world.schedule_leave_of_host(2, at=6500.0)
        world.run()
        assert leaver.stats.server_retries == 3
        assert leaver.leaving
        assert leaver.user_id in world.server.records

    def test_clean_lane_never_needs_a_retry(self):
        world = make_world()
        populate(world, hosts=(1, 2, 3))
        world.schedule_leave_of_host(2, at=6500.0)
        world.end_interval(at=7000.0)
        world.run()
        assert all(u.stats.server_retries == 0 for u in world.users.values())


# ----------------------------------------------------------------------
# Member crash mid-interval
# ----------------------------------------------------------------------
class TestCrashMidInterval:
    CRASH_HOST = 3

    def drive_crash(self, world: DistributedGroup) -> None:
        populate(world)
        # Crash strictly inside the next interval, then let probes
        # detect it and the following announcement rotate the member out.
        world.schedule_crash(self.CRASH_HOST, at=5500.0)
        world.schedule_probe_round(at=6000.0)
        world.schedule_probe_round(at=6400.0)
        world.schedule_recovery_round(at=6800.0)
        world.end_interval(at=7000.0)
        world.run()
        converge(world)
        # Ping timeouts (5s) mean detection can land after the 7000ms
        # announcement with tables already consistent; flush the queued
        # eviction so the server-side record rotates out too.
        server = world.server
        if server._pending_leaves or server._pending_replacements:
            world.end_interval(at=world.scheduler.now + 10.0)
            world.run()
            converge(world)

    def assert_rotated_out(self, world: DistributedGroup) -> None:
        crashed = world.users[self.CRASH_HOST]
        assert world.transport.node_at(self.CRASH_HOST) is not crashed
        active = world.active_users()
        assert self.CRASH_HOST not in {u.host for u in active}
        assert len(active) == 4
        assert crashed.user_id not in world.server.records
        assert world.check_one_consistency() == []

    def test_clean_lane_probes_detect_and_evict(self):
        world = make_world()
        self.drive_crash(world)
        self.assert_rotated_out(world)
        assert any(u.stats.failures_detected > 0 for u in world.active_users())

    @pytest.mark.faults
    def test_crash_window_drops_inflight_traffic_too(self):
        """The declarative crash window makes traffic *to* the dead host
        vanish at delivery time while the silent detach is the crash —
        the soak harness's chaos pairing."""
        plan = FaultPlan(seed=SEED).crash(self.CRASH_HOST, at=5500.0)
        world = make_world(fault_plan=plan)
        self.drive_crash(world)
        self.assert_rotated_out(world)


# ----------------------------------------------------------------------
# Snapshot / restore round trip
# ----------------------------------------------------------------------
class TestSnapshotRoundTrip:
    def restored_copy(self, world: DistributedGroup) -> DistributedGroup:
        blob = world.server.snapshot_state()
        fresh = make_world()
        fresh.server.restore_state(blob)
        return fresh

    def test_round_trip_is_byte_equal(self):
        world = make_world()
        populate(world)
        fresh = self.restored_copy(world)
        assert fresh.server.key_tree_state() == world.server.key_tree_state()
        assert fresh.server.interval == world.server.interval
        assert fresh.server.snapshot_state() == world.server.snapshot_state()

    def test_round_trip_with_pending_batch(self):
        """A snapshot taken mid-batch (joins admitted but not yet
        announced) must carry the pending work byte-identically."""
        world = make_world()
        populate(world, hosts=(1, 2, 3))
        world.schedule_join(6, at=6000.0)
        world.run()
        assert world.server._pending_joins
        fresh = self.restored_copy(world)
        assert fresh.server.snapshot_state() == world.server.snapshot_state()
        assert len(fresh.server._pending_joins) == len(
            world.server._pending_joins
        )

    @pytest.mark.faults
    def test_round_trip_under_faults(self):
        """Background loss changes what the servers saw, never whether
        their snapshots round-trip."""
        plan = FaultPlan(seed=SEED).drop(0.1).delay(0.2, jitter=25.0)
        world = make_world(fault_plan=plan)
        populate(world)
        fresh = self.restored_copy(world)
        assert fresh.server.key_tree_state() == world.server.key_tree_state()
        assert fresh.server.snapshot_state() == world.server.snapshot_state()

    def test_scheme_mismatch_fails_loudly(self):
        from repro.core.ids import IdScheme

        world = make_world()
        populate(world, hosts=(1, 2))
        blob = world.server.snapshot_state()
        other = make_world()
        other.server.scheme = IdScheme(2, 7)
        with pytest.raises(ValueError, match="scheme"):
            other.server.restore_state(blob)
