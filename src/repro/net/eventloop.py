"""The virtual-clock event loop: the one heap drain behind the
scheduling seam.

A deterministic event loop that implements
:class:`repro.net.scheduling.Scheduler` with **no** ``repro.sim``
import.  Both scheduling backends run on it: ``"simulator"`` directly
(:mod:`repro.sim.engine` keeps the historical names: ``Simulator``
*is* :class:`EventLoop`, ``Event`` *is* :class:`TimerHandle`), and
``"asyncio"`` through the :class:`repro.service.aio.AsyncioScheduler`
subclass, which adds wall pacing and stream IO around the same queue.  The API is
asyncio-flavoured — :meth:`EventLoop.time`, :meth:`EventLoop.call_soon`
/ :meth:`EventLoop.call_later` / :meth:`EventLoop.call_at` return
cancellable :class:`TimerHandle`\\ s, mirroring
``asyncio.AbstractEventLoop``.

Semantics (the stateful model in ``tests/test_scheduler_stateful.py``
holds the loop to a 40-line brute-force reference; the cross-backend
conformance suite in ``tests/test_scheduler_conformance.py`` holds the
two backends to each other):

* callbacks fire in ``(when, sequence)`` order — simultaneous timers
  run in scheduling order (deterministic FIFO tie-breaking);
* :meth:`TimerHandle.cancel` tombstones a pending timer;
* scheduling into the past raises :class:`ValueError`;
* ``run(until=...)`` fires everything due at or before ``until`` and
  advances the clock to ``until`` even when the queue drains early.

The loop is *seeded*: :attr:`EventLoop.rng` is a
``numpy.random.Generator`` derived from the constructor seed, the one
sanctioned entropy source for backend-local randomness (e.g. socket
retry jitter in a live deployment) so event-loop runs stay
byte-reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from ..trace import hooks as _trace_hooks
from .scheduling import SchedulingBackend, Transport, register_backend


class TimerHandle:
    """One pending callback, due at ``when``.  ``cancel()`` tombstones
    its heap entry (asyncio's handle contract)."""

    __slots__ = ("when", "_callback", "_cancelled")

    def __init__(self, when: float, callback: Callable[[], None]):
        self.when = when
        self._callback = callback
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    def cancelled(self) -> bool:
        return self._cancelled


class EventLoop:
    """Deterministic virtual-clock event loop (asyncio-compatible API)."""

    #: Clock capability (see :func:`repro.net.scheduling.clock_of`):
    #: purely virtual time — exact-time assertions hold.
    clock = "virtual"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.now = 0.0
        #: ``(when, sequence, handle)`` — tuples order without a Python
        #: ``__lt__``; the sequence number keeps simultaneous timers FIFO
        self._heap: List[Tuple[float, int, TimerHandle]] = []
        self._seq = itertools.count()
        self.events_processed = 0
        #: backend-local randomness, a deterministic function of ``seed``
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # The Scheduler interface
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, action: Callable[[], None]
    ) -> TimerHandle:
        """Run ``action`` after ``delay`` virtual time units."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, action)

    def schedule_at(
        self, time: float, action: Callable[[], None]
    ) -> TimerHandle:
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        handle = TimerHandle(time, action)
        heapq.heappush(self._heap, (time, next(self._seq), handle))
        return handle

    def step(self) -> bool:
        """Run the next pending timer; False when the queue is empty."""
        heap = self._heap
        while heap:
            when, _, handle = heapq.heappop(heap)
            if handle._cancelled:
                continue
            self.now = when
            self.events_processed += 1
            handle._callback()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run timers until the queue drains, virtual time passes
        ``until``, or ``max_events`` have run.  Returns timers executed.

        Traced runs emit the ``sim.run`` span and ``sim.events``
        counter — keyed on the scheduling interface, not the backend
        name, so traces stay byte-identical across backends."""
        tctx = _trace_hooks.ACTIVE
        if tctx is None:
            return self._drain(until, max_events)
        with tctx.span("sim.run") as span:
            executed = self._drain(until, max_events)
            span.set(events=executed, now_ms=self.now)
        tctx.registry.inc("sim.events", executed)
        return executed

    def _drain(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        heap = self._heap
        heappop = heapq.heappop
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        executed = 0
        while heap and executed < budget:
            when, _, handle = heap[0]
            if handle._cancelled:
                heappop(heap)
                continue
            if when > horizon:
                break
            heappop(heap)
            self.now = when
            self.events_processed += 1
            executed += 1
            handle._callback()
        if until is not None and (not heap or heap[0][0] > until):
            self.now = max(self.now, until)
        return executed

    @property
    def pending(self) -> int:
        return sum(1 for entry in self._heap if not entry[2]._cancelled)

    # ------------------------------------------------------------------
    # asyncio-compatible spellings
    # ------------------------------------------------------------------
    def time(self) -> float:
        """The loop's clock (``asyncio.AbstractEventLoop.time``)."""
        return self.now

    def call_soon(self, callback: Callable[..., None], *args: Any) -> TimerHandle:
        """Schedule ``callback(*args)`` at the current instant; it runs
        after everything already queued for this instant (FIFO)."""
        return self.call_at(self.now, callback, *args)

    def call_later(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        if args:
            return self.schedule(delay, lambda: callback(*args))
        return self.schedule(delay, callback)

    def call_at(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        if args:
            return self.schedule_at(when, lambda: callback(*args))
        return self.schedule_at(when, callback)


def simulator_backend(topology) -> SchedulingBackend:
    """The ``"simulator"`` backend: a fresh loop plus the shared
    transport fabric bound to it."""
    loop = EventLoop()
    return SchedulingBackend("simulator", loop, Transport(loop, topology))


register_backend("simulator", simulator_backend)
