"""The ``"asyncio"`` scheduling backend: a real asyncio event loop
behind the :class:`repro.net.scheduling.Scheduler` contract.

Two drive modes, one timer queue:

* **Deterministic (default).**  Timers fire in ``(when, sequence)``
  order with virtual timestamps — byte-identical to the ``"simulator"``
  and ``"eventloop"`` backends, which is how the backend passes the
  cross-backend conformance lane (``pytest -q -m conformance``)
  unchanged.  Without streams attached no asyncio loop is even spun up:
  the drain is the heap loop inherited from
  :class:`repro.net.eventloop.EventLoop`, so conformance-scale tests do
  not leak event-loop file descriptors.
* **Realtime (``realtime=True``).**  The drain paces timers against the
  wall clock (``time_scale`` real seconds per virtual unit) through a
  real ``asyncio`` loop, yielding between callbacks so stream readers
  and writers interleave — the live service mode (docs/SERVICE.md).
  ``clock == "wall"`` advertises the capability: exact-time assertions
  degrade to lower bounds (see :func:`repro.net.scheduling.clock_of`),
  they are never skipped.

The scheduler also tracks ``inflight`` — frames a
:class:`repro.service.transport.StreamTransport` has written to a socket
but not yet dispatched on arrival — so a drain with an empty timer queue
waits for the wire to go quiet before declaring quiescence.
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Any, Callable, Optional

from ..net.eventloop import EventLoop, TimerHandle
from ..net.scheduling import SchedulingBackend, Transport, register_backend


class AsyncioScheduler(EventLoop):
    """The virtual-clock :class:`~repro.net.eventloop.EventLoop` plus an
    asyncio drive: wall pacing, stream IO, inflight tracking."""

    def __init__(
        self,
        seed: int = 0,
        realtime: bool = False,
        time_scale: float = 1e-3,
        stall_timeout: float = 5.0,
    ):
        super().__init__(seed)
        #: Pace timers against the wall clock instead of collapsing
        #: virtual time (the live-service mode).
        self.realtime = realtime
        #: Real seconds per virtual time unit (the protocol's unit is
        #: milliseconds, so 1e-3 is true realtime and 1e-4 is 10x).
        self.time_scale = time_scale
        #: Real seconds to wait on a silent wire (inflight frames whose
        #: connection died) before a drain gives up.
        self.stall_timeout = stall_timeout
        #: Clock capability flag (:func:`repro.net.scheduling.clock_of`).
        self.clock = "wall" if realtime else "virtual"
        #: Frames written to a stream but not yet dispatched on arrival.
        self.inflight = 0
        #: Set by :class:`~repro.service.transport.StreamTransport` once
        #: any stream is attached: drains then yield to the loop between
        #: callbacks so socket IO interleaves with timers.
        self.io_bound = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._owns_loop = False
        self._wakeup: Optional[asyncio.Event] = None
        self._wall_start: Optional[float] = None
        self._draining = False

    def schedule_at(
        self, time: float, action: Callable[[], None]
    ) -> TimerHandle:
        handle = super().schedule_at(time, action)
        self._kick()  # a paced or idle drain re-evaluates its head
        return handle

    def _drain(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Where :meth:`run` drains: through the :meth:`drain` coroutine
        once the wall clock or the wire is involved; otherwise the
        inherited heap loop — no asyncio machinery, no loop fds."""
        if self.realtime or self.io_bound or self.inflight:
            return self.run_coro(self.drain(until, max_events))
        return super()._drain(until, max_events)

    # ------------------------------------------------------------------
    # Live-service surface
    # ------------------------------------------------------------------
    def run_coro(self, coro: "Any") -> Any:
        """Run a coroutine to completion on this scheduler's loop — the
        sync entry point the service uses for connection setup/teardown."""
        return self._ensure_loop().run_until_complete(coro)

    def io_started(self) -> None:
        """A frame went onto the wire (StreamTransport egress)."""
        self.inflight += 1

    def io_finished(self) -> None:
        """A frame came off the wire (or its connection died)."""
        self.inflight -= 1
        self._kick()

    @property
    def quiescent(self) -> bool:
        """No pending timers and nothing on the wire."""
        return self.pending == 0 and self.inflight == 0

    def close(self) -> None:
        """Release the private asyncio loop (if one was created)."""
        if (
            self._loop is not None
            and self._owns_loop
            and not self._loop.is_closed()
        ):
            self._loop.close()
        self._loop = None

    async def drain(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Coroutine drain: the async twin of :meth:`run`, with realtime
        pacing and waits for inflight stream frames.  Timers still fire
        strictly in ``(when, sequence)`` order; ingress dispatches run in
        the gaps where the drain awaits."""
        self._ensure_loop()
        if self._draining:
            raise RuntimeError("scheduler is already draining")
        self._draining = True
        self._wakeup = asyncio.Event()
        if self.realtime:
            self._wall_start = self._loop.time() - self.now * self.time_scale
        executed = 0
        stalled = 0.0
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                head = self._peek()
                if head is None:
                    if self.inflight > 0:
                        # Empty queue but frames on the wire: let reader
                        # tasks run.  A wire silent past stall_timeout
                        # means a dead connection; give up rather than
                        # hang (io_finished was missed by a peer crash).
                        if await self._pause(0.05):
                            stalled = 0.0
                        else:
                            stalled += 0.05
                            if stalled >= self.stall_timeout:
                                break
                        continue
                    break
                stalled = 0.0
                if until is not None and head.when > until:
                    break
                if self.realtime:
                    # lint: disable=flow-await-race -- single-drain invariant: the _draining guard makes this coroutine the only writer of _wall_start until the finally reset, so it cannot change across the pacing awaits
                    target = self._wall_start + head.when * self.time_scale
                    delay = target - self._loop.time()
                    if delay > 0:
                        # Pace; an early wakeup (new timer or ingress)
                        # re-evaluates which timer is due first.
                        await self._pause(delay)
                        continue
                heapq.heappop(self._heap)
                self._fire(head)
                executed += 1
                if self.io_bound:
                    await asyncio.sleep(0)
        finally:
            self._draining = False
            self._wakeup = None
            self._wall_start = None
        head = self._peek()
        if until is not None and (head is None or head.when > until):
            self.now = max(self.now, until)
        return executed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _peek(self) -> Optional[TimerHandle]:
        heap = self._heap
        while heap and heap[0][2]._cancelled:
            heapq.heappop(heap)
        return heap[0][2] if heap else None

    def _fire(self, handle: TimerHandle) -> None:
        if self.realtime and self._loop is not None and self._wall_start is not None:
            # Honest late-fire timestamps: a timer that ran behind the
            # wall schedule reports the time it actually fired.  This is
            # the one place wall time leaks into ``now`` — hence the
            # "wall" clock capability.
            elapsed = (self._loop.time() - self._wall_start) / self.time_scale
            self.now = max(handle.when, elapsed)
        else:
            self.now = handle.when
        self.events_processed += 1
        handle._callback()

    def _kick(self) -> None:
        if self._wakeup is not None:
            self._wakeup.set()

    async def _pause(self, timeout: float) -> bool:
        """Wait for a wakeup (new timer / ingress frame) up to
        ``timeout`` real seconds; True when woken, False on timeout."""
        self._wakeup.clear()
        try:
            await asyncio.wait_for(self._wakeup.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None or self._loop.is_closed():
            try:
                self._loop = asyncio.get_running_loop()
                self._owns_loop = False
            except RuntimeError:
                self._loop = asyncio.new_event_loop()
                self._owns_loop = True
        return self._loop


def asyncio_backend(topology) -> SchedulingBackend:
    """The ``"asyncio"`` backend: deterministic virtual-clock drive by
    default (what the conformance lane exercises); the service turns on
    realtime pacing and the stream transport explicitly."""
    scheduler = AsyncioScheduler()
    return SchedulingBackend("asyncio", scheduler, Transport(scheduler, topology))


register_backend("asyncio", asyncio_backend)
