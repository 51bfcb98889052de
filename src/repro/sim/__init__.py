"""The discrete event simulator's engine, by its historical names
(:mod:`repro.sim.engine`); the ``"simulator"`` backend itself lives in
:mod:`repro.net.eventloop`."""

from .engine import Event, Simulator

__all__ = ["Event", "Simulator"]
