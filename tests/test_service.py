"""Live asyncio service-mode tests (docs/SERVICE.md).

The service runs the existing message-level protocol over real asyncio
streams: the key server lives at the hub, each member endpoint holds a
socket, and all member-bound traffic crosses the wire.  These tests pin
the tentpole guarantees — traffic really crosses sockets, socketless and
virtual-clock drives produce byte-identical key-tree state, a graceful
shutdown's snapshot restores a byte-identical server that keeps
rekeying — without the soak lane's wall-clock budget.
"""

from __future__ import annotations

import pytest

from repro.distributed import DistributedGroup
from repro.net import TransitStubParams, TransitStubTopology
from repro.service import RekeyService

SEED = 7
HOSTS = 17
PARAMS = TransitStubParams(
    transit_domains=3, transit_per_domain=3, stubs_per_transit=2, stub_size=3
)


def make_topology(seed: int = SEED) -> TransitStubTopology:
    return TransitStubTopology(num_hosts=HOSTS, params=PARAMS, seed=seed)


def make_service(**kwargs) -> RekeyService:
    kwargs.setdefault("seed", SEED)
    return RekeyService(make_topology(), server_host=0, **kwargs)


def run_workload(service: RekeyService, hosts=(1, 2, 3, 4)) -> None:
    """One interval of joins, announced and drained to quiescence."""
    for i, host in enumerate(hosts):
        service.join(host, delay=1.0 + 300.0 * i)
    service.end_interval(delay=5000.0)
    service.drain()


def converge(service: RekeyService, rounds: int = 8) -> None:
    """Socket delivery interleaves wire arrival with timers, so tables
    can need a bounded round of the protocol's own repair traffic before
    1-consistency is a theorem again — the service's ``converge`` is
    that loop, and it must stay within its bound."""
    used = service.converge(rounds=rounds)
    assert used <= rounds


class TestSocketRoundTrip:
    def test_member_traffic_crosses_real_sockets(self):
        service = make_service()
        service.start()
        try:
            if not service.use_sockets:
                pytest.skip("sandbox without loopback sockets")
            assert isinstance(service.port, int)
            run_workload(service)
            converge(service)
            assert service.transport.frames_sent > 0
            assert service.transport.frames_delivered > 0
            assert all(
                service.world.users[h].joined for h in (1, 2, 3, 4)
            )
            assert service.world.check_one_consistency() == []
            assert service.quiescent
        finally:
            service.stop()

    def test_clean_lane_checkpoint_passes(self):
        service = make_service()
        service.start()
        try:
            run_workload(service)
            converge(service)
            service.checkpoint()
            assert service.checkpoints_passed == 1
        finally:
            service.stop()

    def test_socketless_fallback_reaches_the_same_group(self):
        """The wire is a transport detail: disabling sockets (sandbox
        fallback) converges the same hosts into the group with unique
        IDs and consistent tables.  (Byte-level state equality is the
        *virtual-drive* guarantee — see TestServiceVirtualConformance;
        real wire arrival may legitimately straddle a timer boundary,
        which shifts the latency samples ID assignment is drawn from.)"""
        outcomes = []
        for use_sockets in (True, False):
            service = make_service(use_sockets=use_sockets)
            service.start()
            try:
                run_workload(service)
                converge(service)
                users = service.world.active_users()
                assert service.world.check_one_consistency() == []
                assert len({u.user_id for u in users}) == len(users)
                outcomes.append(sorted(u.host for u in users))
            finally:
                service.stop()
        assert outcomes[0] == [1, 2, 3, 4]
        assert outcomes[0] == outcomes[1]


class TestServiceVirtualConformance:
    def test_service_matches_registry_backends(self):
        """The same scripted workload on the service and on the plain
        harness over every virtual-clock backend lands in byte-identical
        key-tree state — the service is a drive mode, not a fork of the
        protocol."""
        states = {}
        for backend in ("simulator", "asyncio"):
            world = DistributedGroup(
                make_topology(), server_host=0, seed=SEED, backend=backend
            )
            for i, host in enumerate((1, 2, 3, 4)):
                world.schedule_join(host, at=1.0 + 300.0 * i)
            world.end_interval(at=5000.0)
            world.run()
            states[backend] = world.server.key_tree_state()

        service = make_service(use_sockets=False)
        service.start()
        try:
            run_workload(service)
            states["service"] = service.world.server.key_tree_state()
        finally:
            service.stop()
        reference = states["simulator"]
        for name, state in states.items():
            assert state == reference, f"{name} diverged"


class TestShutdownAndResume:
    def test_snapshot_written_to_path(self, tmp_path):
        service = make_service(use_sockets=False)
        service.start()
        run_workload(service)
        path = tmp_path / "state.snap"
        blob = service.shutdown(snapshot_path=str(path))
        assert path.read_bytes() == blob
        assert len(blob) > 0

    def test_restart_resumes_byte_identical_key_tree(self):
        service = make_service()
        service.start()
        run_workload(service)
        pre_state = service.world.server.key_tree_state()
        pre_interval = service.world.server.interval
        blob = service.shutdown()

        resumed = make_service(snapshot=blob)
        assert resumed.world.server.key_tree_state() == pre_state
        assert resumed.world.server.interval == pre_interval
        resumed.stop()

    def test_restarted_service_continues_rekeying(self):
        """After a restart the old members have no endpoints; evicting
        them and admitting fresh members must keep the protocol and its
        invariants going."""
        service = make_service()
        service.start()
        run_workload(service)
        blob = service.shutdown()

        resumed = make_service(snapshot=blob)
        resumed.start()
        try:
            evicted = resumed.evict_absent_members()
            assert evicted == 4
            run_workload(resumed, hosts=(5, 6, 7))
            converge(resumed)
            assert len(resumed.world.active_users()) == 3
            assert resumed.world.check_one_consistency() == []
            # The interval counter kept counting up from the snapshot.
            assert resumed.world.server.interval > service.world.server.interval
        finally:
            resumed.stop()


class TestRealtimeMode:
    def test_realtime_drive_reaches_the_same_outcome(self):
        """Realtime pacing (scaled near zero so the test stays fast)
        changes wall behavior, never protocol outcomes."""
        service = make_service(realtime=True, time_scale=1e-7)
        service.start()
        try:
            run_workload(service, hosts=(1, 2, 3))
            converge(service)
            assert all(service.world.users[h].joined for h in (1, 2, 3))
            assert service.world.check_one_consistency() == []
        finally:
            service.stop()
