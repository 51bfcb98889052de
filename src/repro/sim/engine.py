"""The discrete event simulator, by its historical names.

The paper: "For efficiency, we wrote our own discrete event-driven
simulator.  We simulate the sending and the reception of a message as
events."  That time-ordered event queue with deterministic FIFO
tie-breaking is :class:`repro.net.eventloop.EventLoop` — the one
virtual-clock loop in the repo, and the ``"simulator"`` scheduling
backend.  This module only keeps the historical names.
"""

from ..net.eventloop import EventLoop as Simulator
from ..net.eventloop import TimerHandle as Event

__all__ = ["Event", "Simulator"]
