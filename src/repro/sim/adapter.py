"""The ``"simulator"`` scheduling backend: the discrete event simulator
exposed through the :mod:`repro.net.scheduling` seam.

The adapter is deliberately thin — :class:`~repro.sim.engine.Simulator`
is :class:`repro.net.eventloop.EventLoop` under its historical name,
and :class:`~repro.sim.node.Network` subclasses the shared
:class:`~repro.net.scheduling.Transport` fabric without overriding its
delivery logic.  What the backend adds is the simulator-flavoured
surface (``Network.simulator``) the examples and orchestration layers
read; the committed golden traces (``tests/fixtures/trace_*.jsonl``)
and the fixed-seed oracle suite (``tools/check_invariants.py``) pin
its behaviour.
"""

from __future__ import annotations

from ..net.scheduling import SchedulingBackend, register_backend
from ..net.topology import Topology
from .engine import Simulator
from .node import Network


def simulator_backend(topology: Topology) -> SchedulingBackend:
    """A fresh :class:`Simulator` plus a :class:`Network` bound to it."""
    simulator = Simulator()
    return SchedulingBackend("simulator", simulator, Network(simulator, topology))


register_backend("simulator", simulator_backend)
