"""Fault injection for the simulated network.

:class:`FaultPlan` declares seeded schedules of message drops, delays,
reordering, duplication, and node crash/recovery windows;
:class:`repro.net.scheduling.Transport` executes them, and
:class:`repro.alm.reliable.ReliableSession` repairs through them.
"""

from .plan import CrashWindow, FaultPlan, FaultStats

__all__ = ["CrashWindow", "FaultPlan", "FaultStats"]
