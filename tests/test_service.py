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

import asyncio
import struct
import time

import pytest

from repro.distributed import DistributedGroup
from repro.net import TransitStubParams, TransitStubTopology
from repro.service import RekeyService
from repro.service import transport as transport_module
from repro.service import wire as wire_module

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


class TestBadFrames:
    """A frame that fails to decode is rejected, counted and closes its
    stream; it never stalls a drain or silently kills a member."""

    def test_corrupt_frame_neither_stalls_the_drain_nor_breaks_the_group(
        self, monkeypatch
    ):
        service = make_service(stall_timeout=2.0)
        service.start()
        try:
            if not service.use_sockets:
                pytest.skip("sandbox without loopback sockets")
            run_workload(service)
            converge(service)
            encode = transport_module.encode_frame
            corrupted = []

            def zero_first_body(src, dst, payload, memo=None):
                frame = encode(src, dst, payload, memo)
                if corrupted:
                    return frame
                corrupted.append(dst)
                return frame[:4] + bytes(len(frame) - 4)

            monkeypatch.setattr(transport_module, "encode_frame", zero_first_body)
            service.join(5, delay=1.0)
            service.end_interval(delay=5000.0)
            start = time.perf_counter()
            service.drain()
            elapsed = time.perf_counter() - start
            assert corrupted
            assert elapsed < 0.5 * service.scheduler.stall_timeout
            assert service.scheduler.inflight == 0
            assert service.transport.frames_rejected == 1
            assert corrupted[0] not in service.transport.writers
            converge(service)
            assert service.world.users[5].joined
            assert service.world.check_one_consistency() == []
        finally:
            service.stop()

    def test_stream_that_ends_with_frames_unread_does_not_stall_the_drain(
        self, monkeypatch
    ):
        """A connection that drops inside a frame: ``read_frame`` returns
        None with that frame written but never ingested."""
        service = make_service(stall_timeout=2.0)
        service.start()
        try:
            if not service.use_sockets:
                pytest.skip("sandbox without loopback sockets")
            run_workload(service)
            converge(service)
            read = wire_module.read_frame
            dropped = []

            async def drop_first_member_frame(reader, records=None):
                frame = await read(reader, records)
                if dropped or frame is None or isinstance(frame[2], wire_module.Hello):
                    return frame
                dropped.append(frame[1])
                return None

            monkeypatch.setattr(wire_module, "read_frame", drop_first_member_frame)
            service.join(5, delay=1.0)
            service.end_interval(delay=5000.0)
            start = time.perf_counter()
            service.drain()
            elapsed = time.perf_counter() - start
            assert dropped
            assert elapsed < 0.5 * service.scheduler.stall_timeout
            assert service.scheduler.inflight == 0
            assert service.transport.frames_rejected == 0
            assert dropped[0] not in service.transport.writers
            converge(service)
            assert service.world.users[5].joined
            assert service.world.check_one_consistency() == []
        finally:
            service.stop()

    def test_undecodable_hello_is_counted_and_closed(self):
        service = make_service()
        service.start()
        try:
            if not service.use_sockets:
                pytest.skip("sandbox without loopback sockets")

            async def send_zeroed_hello() -> bytes:
                reader, writer = await asyncio.open_connection(
                    service.bind_host, service.port
                )
                try:
                    writer.write(struct.pack(">I", 14) + bytes(14))
                    await writer.drain()
                    return await asyncio.wait_for(reader.read(), 2.0)
                finally:
                    writer.close()

            assert service.scheduler.run_coro(send_zeroed_hello()) == b""
            assert service.transport.frames_rejected == 1
            assert service.transport.writers == {}
        finally:
            service.stop()
