"""The long-running rekeying service (docs/SERVICE.md).

:class:`RekeyService` assembles the ``"asyncio"`` backend — an
:class:`~repro.service.aio.AsyncioScheduler` plus a
:class:`~repro.service.transport.StreamTransport` — and runs the
existing message-level protocol (:class:`repro.distributed.harness.
DistributedGroup`) on it: the key server lives in-process at the hub,
every member endpoint holds a real asyncio stream, and all traffic to a
member crosses its socket.  The facade is synchronous (``start`` /
``join`` / ``drain`` / ``checkpoint`` / ``shutdown``) so tools and
tests drive it like any other harness; coroutines run on the
scheduler's private loop.

Lifecycle::

    service = RekeyService(topology, server_host=n, realtime=True)
    service.start()
    service.join(host=3)
    service.end_interval(delay=512.0)
    service.drain()                      # quiescent: wire + timers idle
    service.checkpoint()                 # repro.verify invariant audit
    blob = service.shutdown(snapshot_path="state.snap")

    resumed = RekeyService(topology, server_host=n, snapshot=blob)
    resumed.start()
    resumed.evict_absent_members()       # old members have no endpoint
    ...                                  # rekeying continues

Fault plans (:mod:`repro.faults`) install at the transport seam exactly
as in batch runs — drops, delays, and crash windows apply to live
socket traffic because the plan is consulted at send time and at
terminal delivery, both of which still run in-process.
"""

from __future__ import annotations

import asyncio
import weakref
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..core.id_assignment import PAPER_THRESHOLDS
from ..core.ids import IdScheme, PAPER_SCHEME
from ..distributed.harness import DistributedGroup
from ..distributed.nodes import UserNode
from ..faults.plan import FaultPlan
from ..net.scheduling import SchedulingBackend
from ..net.topology import Topology
from ..trace import hooks as _trace_hooks
from . import wire
from .aio import AsyncioScheduler
from .transport import StreamTransport


class RekeyService:
    """Key server + live member endpoints over asyncio streams."""

    def __init__(
        self,
        topology: Topology,
        server_host: int,
        scheme: IdScheme = PAPER_SCHEME,
        thresholds: Tuple[float, ...] = PAPER_THRESHOLDS,
        k: int = 4,
        seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        realtime: bool = False,
        time_scale: float = 1e-4,
        use_sockets: bool = True,
        snapshot: Optional[bytes] = None,
        stall_timeout: float = 5.0,
    ):
        self.seed = seed
        self.scheduler = AsyncioScheduler(
            seed=seed,
            realtime=realtime,
            time_scale=time_scale,
            stall_timeout=stall_timeout,
        )
        self.transport = StreamTransport(self.scheduler, topology)
        backend = SchedulingBackend("asyncio", self.scheduler, self.transport)
        self.world = DistributedGroup(
            topology,
            server_host,
            scheme,
            thresholds,
            k=k,
            seed=seed,
            fault_plan=fault_plan,
            backend=backend,
        )
        if snapshot is not None:
            self.world.server.restore_state(snapshot)
        #: Degrades to in-process delivery when False (sandboxes without
        #: sockets); every protocol outcome is identical either way.
        self.use_sockets = use_sockets
        self.bind_host = "127.0.0.1"
        self.port: Optional[int] = None
        self.metrics_port: Optional[int] = None
        self.checkpoints_passed = 0
        self._hub: Optional[asyncio.AbstractServer] = None
        self._metrics_hub: Optional[asyncio.AbstractServer] = None
        self._endpoints: Dict[int, Tuple[asyncio.Task, asyncio.StreamWriter]] = {}
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind the hub socket (when sockets are enabled and available)."""
        if self._running:
            return
        if self.use_sockets:
            try:
                self.scheduler.run_coro(self._start_hub())
            except OSError:
                self.use_sockets = False
        self._running = True

    def start_metrics_http(self) -> Optional[int]:
        """Expose a live ``GET /metrics`` endpoint (Prometheus text from
        the active trace registry) on an ephemeral port; returns the
        port, or None when sockets are unavailable."""
        if not self.use_sockets:
            return None
        try:
            self.scheduler.run_coro(self._start_metrics_hub())
        except OSError:
            return None
        return self.metrics_port

    def shutdown(self, snapshot_path: Optional[str] = None) -> bytes:
        """Graceful stop: drain to quiescence, snapshot the key server,
        close every stream, release the loop.  Returns the snapshot blob
        (also written to ``snapshot_path`` when given)."""
        if self._running:
            self.drain()
        blob = self.world.server.snapshot_state()
        if snapshot_path is not None:
            Path(snapshot_path).write_bytes(blob)
        self.stop()
        return blob

    def stop(self) -> None:
        """Close streams and the loop without draining or snapshotting."""
        if self._endpoints or self._hub or self._metrics_hub:
            self.scheduler.run_coro(self._close_streams())
        self.scheduler.close()
        self._running = False

    # ------------------------------------------------------------------
    # Workload surface (delays are virtual time units from "now")
    # ------------------------------------------------------------------
    def join(self, host: int, delay: float = 0.0) -> UserNode:
        """Admit a member: open its endpoint stream, schedule its join
        protocol ``delay`` from now."""
        node = self.world.schedule_join(host, at=self.scheduler.now + delay)
        self._connect(host)
        return node

    def leave(self, host: int, delay: float = 0.0) -> None:
        self.world.schedule_leave_of_host(host, at=self.scheduler.now + delay)

    def crash(self, host: int, delay: float = 0.0) -> None:
        """Silent failure: the member detaches without any protocol;
        neighbors must detect it by missed probes (Section 3.2)."""
        self.world.schedule_crash(host, at=self.scheduler.now + delay)

    def end_interval(self, delay: float = 0.0) -> None:
        self.world.end_interval(at=self.scheduler.now + delay)

    def probe_round(self, delay: float = 0.0) -> None:
        self.world.schedule_probe_round(at=self.scheduler.now + delay)

    def recovery_round(self, delay: float = 0.0) -> None:
        self.world.schedule_recovery_round(at=self.scheduler.now + delay)

    def refill_sweep(self, delay: float = 0.0) -> None:
        self.world.schedule_refill_sweep(at=self.scheduler.now + delay)

    # ------------------------------------------------------------------
    # Draining and audits
    # ------------------------------------------------------------------
    def drain(self, until: Optional[float] = None) -> None:
        """Run the service until timers and the wire are idle (or until
        virtual time ``until``).  Realtime mode paces; deterministic
        mode collapses virtual time."""
        self.world.run(until=until)

    @property
    def quiescent(self) -> bool:
        return self.scheduler.quiescent

    def checkpoint(self) -> None:
        """Quiescent audit against the :mod:`repro.verify` invariant set:
        :meth:`DistributedGroup.verify_invariants`, whose regime follows
        the installed fault plan.  Raises ``InvariantViolation``;
        increments :attr:`checkpoints_passed` otherwise."""
        self.world.verify_invariants()
        self.checkpoints_passed += 1

    def converge(self, rounds: int = 8, interval_ms: float = 512.0) -> int:
        """Bounded protocol-only repair rounds until the checkpoint's
        invariants hold: :meth:`DistributedGroup.converge`."""
        return self.world.converge(rounds, interval_ms)

    def evict_absent_members(self) -> int:
        """Queue a leave for every registered member whose host has no
        live, joined node — the restart path: a restored snapshot knows
        the members, but their endpoints are gone, so the next interval
        end rotates them out and rekeying continues over live members."""
        evicted = 0
        for user_id, record in sorted(self.world.server.records.items()):
            node = self.transport.node_at(record.host)
            if node is None or not getattr(node, "joined", False):
                if self.world.server.evict(user_id):
                    evicted += 1
        return evicted

    def scrape_prometheus(self) -> str:
        """Prometheus text from the active trace registry (the soak
        harness runs inside ``with tracing(...)``)."""
        tctx = _trace_hooks.ACTIVE
        if tctx is None:
            return "# no active trace context\n"
        return tctx.registry.to_prometheus_text()

    # ------------------------------------------------------------------
    # Streams
    # ------------------------------------------------------------------
    def _connect(self, host: int) -> None:
        if not self.use_sockets or host in self._endpoints:
            return
        self.scheduler.run_coro(self._connect_endpoint(host))

    async def _start_hub(self) -> None:
        self._hub = await asyncio.start_server(
            self._on_connection, self.bind_host, 0
        )
        self.port = self._hub.sockets[0].getsockname()[1]

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            frame = await wire.read_frame(reader)
        except wire.FrameError:
            # Not counted in flight (the endpoint writes its Hello
            # directly), so only the count and the close apply.
            self.transport.frames_rejected += 1
            frame = None
        if frame is None or not isinstance(frame[2], wire.Hello):
            writer.close()
            return
        host = frame[2].host
        self.transport.register_stream(host, writer)
        try:
            await reader.read()  # endpoints are one-way; wait for EOF
        finally:
            if self.transport.writers.get(host) is writer:
                self.transport.unregister_stream(host)

    async def _connect_endpoint(self, host: int) -> None:
        reader, writer = await asyncio.open_connection(
            self.bind_host, self.port
        )
        writer.write(
            wire.encode_frame(
                host, self.world.server.host, wire.Hello(host)
            )
        )
        await writer.drain()
        # Wait for the hub to register the writer so no early dispatch
        # silently falls back to local delivery.
        for _ in range(2000):
            if host in self.transport.writers:
                break
            await asyncio.sleep(0.001)
        task = asyncio.ensure_future(self._endpoint_reader(host, reader))
        self._endpoints[host] = (task, writer)

    async def _endpoint_reader(
        self, host: int, reader: asyncio.StreamReader
    ) -> None:
        # The stream's record table: a repeat of a record this member
        # still holds decodes to that same frozen object.
        records: wire.RecordTable = weakref.WeakValueDictionary()
        while True:
            try:
                frame = await wire.read_frame(reader, records)
                if frame is not None and frame[1] != host:
                    raise wire.FrameError(
                        f"frame for host {frame[1]} on host {host}'s stream"
                    )
            except wire.FrameError:
                self.transport.reject(host)
                return
            if frame is None:
                self.transport.drop_stream(host)
                return
            self.transport.ingress(*frame)

    async def _start_metrics_hub(self) -> None:
        self._metrics_hub = await asyncio.start_server(
            self._on_metrics_connection, self.bind_host, 0
        )
        self.metrics_port = self._metrics_hub.sockets[0].getsockname()[1]

    async def _on_metrics_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        line = await reader.readline()  # request line
        while line not in (b"\r\n", b"\n", b""):
            line = await reader.readline()  # drain headers
        body = self.scrape_prometheus().encode("utf-8")
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/plain; version=0.0.4\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"Connection: close\r\n\r\n" + body
        )
        await writer.drain()
        writer.close()

    async def _close_streams(self) -> None:
        for host in sorted(self._endpoints):
            task, writer = self._endpoints[host]
            task.cancel()
            writer.close()
        self._endpoints.clear()
        # Let cancellations propagate and hub-side ``_on_connection``
        # tasks observe their endpoints' EOF before the loop closes.
        for _ in range(20):
            await asyncio.sleep(0.005)
            if not self.transport.writers:
                break
        if self._hub is not None:
            self._hub.close()
            await self._hub.wait_closed()
            self._hub = None
        if self._metrics_hub is not None:
            self._metrics_hub.close()
            await self._metrics_hub.wait_closed()
            self._metrics_hub = None
        for host in sorted(self.transport.writers):
            self.transport.writers[host].close()
        self.transport.writers.clear()
