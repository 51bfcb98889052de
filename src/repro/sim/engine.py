"""The discrete event simulator, by its historical names.

The paper: "For efficiency, we wrote our own discrete event-driven
simulator.  We simulate the sending and the reception of a message as
events."  That time-ordered event queue with deterministic FIFO
tie-breaking is :class:`repro.net.eventloop.EventLoop` — the one
virtual-clock loop in the repo.  This module only keeps the names the
simulator-flavoured layers (:mod:`repro.sim.node`, the ``"simulator"``
backend of :mod:`repro.sim.adapter`, the examples) address it by.
"""

from ..net.eventloop import EventLoop as Simulator
from ..net.eventloop import TimerHandle as Event

__all__ = ["Event", "Simulator"]
