"""The scheduling seam: protocol-layer interfaces for event scheduling
and message transport.

The reliable T-mesh transport (:mod:`repro.alm.reliable`) needs two
capabilities from its runtime: *when* (schedule a callback, cancel it,
read the clock) and *where* (send a message that arrives after the
per-link latency, through any installed fault plan).  This module names
those capabilities as small interfaces — :class:`Scheduler` and the
concrete :class:`Transport` fabric — so protocol code depends on the
seam, never on a particular engine behind it (DESIGN.md §3: protocol
layers stay independent of orchestration layers).

Two backend names, one loop — :class:`repro.net.eventloop.EventLoop`
is the only heap drain:

* ``"simulator"`` — the loop itself (:mod:`repro.net.eventloop`), with
  an asyncio-flavoured API and **no** ``repro.sim`` import;
  :mod:`repro.sim.engine` keeps the discrete event simulator's names
  for it (``Simulator`` is ``EventLoop``).
* ``"asyncio"`` — :class:`repro.service.aio.AsyncioScheduler`, an
  ``EventLoop`` subclass that runs the same virtual-clock contract
  deterministically by default and can pace against the wall clock
  (``realtime=True``) through a real asyncio loop for the live service;
  its transport subclass pushes frames over asyncio streams.

Backends register themselves in a name -> factory registry
(:func:`register_backend`); :func:`create_backend` resolves the two
built-in names by lazy import — the documented escape hatch that keeps
this module free of eager orchestration-layer imports.

Determinism contract (what the cross-backend conformance suite in
``tests/test_scheduler_conformance.py`` enforces): events fire in
``(time, sequence-number)`` order — simultaneous events run in
scheduling order — cancellation is a tombstone, and ``run(until=...)``
advances the clock to ``until`` even when the queue drains early.  Any
two conforming schedulers drive a :class:`Transport` through the exact
same delivery order, which is why :class:`~repro.alm.reliable.
ReliableSession` outcomes and normalized traces are byte-equal across
backends.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Optional,
    Protocol,
    TYPE_CHECKING,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..faults.plan import FaultPlan
    from .topology import Topology


# ----------------------------------------------------------------------
# The scheduling interface
# ----------------------------------------------------------------------
@runtime_checkable
class ScheduledEvent(Protocol):
    """Handle for one pending callback; ``cancel()`` tombstones it."""

    def cancel(self) -> None: ...


@runtime_checkable
class Scheduler(Protocol):
    """A deterministic virtual-time event loop.

    Implementations must fire callbacks in ``(time, sequence)`` order
    with FIFO tie-breaking for simultaneous events, reject scheduling
    into the past with :class:`ValueError`, and advance ``now`` to
    ``until`` when ``run(until=...)`` outlives the queue.
    """

    now: float

    def schedule(
        self, delay: float, action: Callable[[], None]
    ) -> ScheduledEvent: ...

    def schedule_at(
        self, time: float, action: Callable[[], None]
    ) -> ScheduledEvent: ...

    def step(self) -> bool: ...

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int: ...

    @property
    def pending(self) -> int: ...


# ----------------------------------------------------------------------
# The transport fabric
# ----------------------------------------------------------------------
@dataclass
class MessageStats:
    """Counters a transport keeps about traffic (useful in examples and
    failure-injection tests)."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0


class Transport:
    """Hosts exchanging messages over a topology with per-link latency.

    This is the single delivery implementation every backend shares: a
    message arrives one-way-delay later unless the destination detached
    or the installed :class:`~repro.faults.FaultPlan` drops it.  The
    fault plan injects here — at the transport seam — so loss, delay,
    reordering, duplication, and crash windows behave identically under
    every scheduler.
    """

    def __init__(self, scheduler: Scheduler, topology: "Topology"):
        self.scheduler = scheduler
        self.topology = topology
        self._nodes: Dict[int, "TransportNode"] = {}
        self.stats = MessageStats()
        #: Optional declarative fault schedule (see :mod:`repro.faults`).
        self.fault_plan: Optional["FaultPlan"] = None

    def install_faults(self, plan: Optional["FaultPlan"]) -> None:
        """Attach (or, with ``None``, remove) a fault plan; every
        subsequent send is filtered through it."""
        self.fault_plan = plan

    def attach(self, node: "TransportNode") -> None:
        if node.host in self._nodes:
            raise ValueError(f"host {node.host} already attached")
        self._nodes[node.host] = node

    def detach(self, host: int) -> None:
        self._nodes.pop(host, None)

    def node_at(self, host: int) -> Optional["TransportNode"]:
        return self._nodes.get(host)

    def send(self, src: int, dst: int, payload: Any) -> None:
        """Queue a message; it arrives after the topology one-way delay
        unless the destination detached or the fault plan drops it.  The
        fault plan may also deliver the message late (delay/reorder) or
        more than once (duplication)."""
        self.stats.sent += 1
        plan = self.fault_plan
        if plan is None:  # the loss-free path: one delivery, no extra delay
            self.scheduler.schedule(
                self.topology.one_way_delay(src, dst),
                partial(self._dispatch, src, dst, payload, None),
            )
            return
        extra_delays = plan.apply(src, dst, payload, self.scheduler.now)
        if not extra_delays:
            self.stats.dropped += 1
            return
        delay = self.topology.one_way_delay(src, dst)
        deliver = partial(self._dispatch, src, dst, payload, plan)
        for extra in extra_delays:
            self.scheduler.schedule(delay + extra, deliver)

    def _dispatch(
        self, src: int, dst: int, payload: Any, plan: Optional["FaultPlan"]
    ) -> None:
        """Hand a due message to its destination.  The base fabric
        delivers in-process; :class:`repro.service.transport.
        StreamTransport` overrides this to push the message over a real
        asyncio stream before the same terminal delivery runs on the far
        side."""
        self._deliver(src, dst, payload, plan)

    def _deliver(
        self, src: int, dst: int, payload: Any, plan: Optional["FaultPlan"]
    ) -> None:
        """Terminal delivery: crash-window check, node lookup, stats,
        ``on_message``.  Every path into a node funnels through here so
        fault semantics stay identical across backends."""
        if plan is not None and plan.is_down(dst, self.scheduler.now):
            plan.stats.crash_drops += 1
            self.stats.dropped += 1
            return
        node = self._nodes.get(dst)
        if node is None:
            self.stats.dropped += 1
            return
        self.stats.delivered += 1
        node.on_message(src, payload)


class TransportNode:
    """A host attached to a transport; subclass and override
    :meth:`on_message`."""

    def __init__(self, transport: Transport, host: int):
        self.transport = transport
        self.host = host
        transport.attach(self)

    @property
    def scheduler(self) -> Scheduler:
        return self.transport.scheduler

    def send(self, dst: int, payload: Any) -> None:
        self.transport.send(self.host, dst, payload)

    def on_message(self, src: int, payload: Any) -> None:  # pragma: no cover
        raise NotImplementedError

    def detach(self) -> None:
        self.transport.detach(self.host)


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------
@dataclass
class SchedulingBackend:
    """One assembled backend: a scheduler plus the transport bound to it."""

    name: str
    scheduler: Scheduler
    transport: Transport


BackendFactory = Callable[["Topology"], SchedulingBackend]

_BACKEND_FACTORIES: Dict[str, BackendFactory] = {}

#: Built-in backends resolved by lazy import on first use; the imported
#: module calls :func:`register_backend` at import time.  Lazy loading is
#: deliberate: ``repro.net`` must never import ``repro.sim`` eagerly
#: (the layering-import lint rule), and the event loop stays optional.
_LAZY_BACKENDS: Dict[str, str] = {
    "simulator": "repro.net.eventloop",
    "asyncio": "repro.service.aio",
}


def clock_of(scheduler: Scheduler) -> str:
    """The scheduler's clock capability: ``"virtual"`` (deterministic
    virtual time — exact-time assertions hold) or ``"wall"`` (paced
    against the wall clock — time assertions are lower bounds only).
    Schedulers advertise it via a ``clock`` attribute; absent means
    virtual, which every pre-service backend is."""
    return getattr(scheduler, "clock", "virtual")


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register (or replace) a backend factory under ``name``."""
    _BACKEND_FACTORIES[name] = factory


def available_backends() -> Tuple[str, ...]:
    """Every backend name ``create_backend`` can resolve."""
    return tuple(sorted(set(_BACKEND_FACTORIES) | set(_LAZY_BACKENDS)))


def create_backend(name: str, topology: "Topology") -> SchedulingBackend:
    """Assemble a fresh scheduler + transport pair for ``topology``."""
    factory = _BACKEND_FACTORIES.get(name)
    if factory is None and name in _LAZY_BACKENDS:
        importlib.import_module(_LAZY_BACKENDS[name])
        factory = _BACKEND_FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown scheduling backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        )
    return factory(topology)
