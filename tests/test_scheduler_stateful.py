"""Stateful property test: both schedulers vs. a brute-force reference.

A hypothesis :class:`RuleBasedStateMachine` drives three schedulers in
lock-step — :class:`~repro.net.eventloop.EventLoop` (the one heap
drain), its :class:`~repro.service.aio.AsyncioScheduler` subclass in
the deterministic virtual-clock drive, and a deliberately naive
reference model that keeps a flat list and fires the minimum
``(time, seq)`` non-cancelled entry by linear scan.  Every interleaving
of schedule / cancel / step / run(until) / run() the machine explores
must leave all three with the identical firing log and clock.

The reference model is the specification: ~40 lines with no heap, no
tombstones, no cleverness — if either production scheduler ever
disagrees with it, the optimized implementation is wrong.
"""

from __future__ import annotations

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.net.eventloop import EventLoop
from repro.service.aio import AsyncioScheduler

pytestmark = pytest.mark.conformance


class _RefHandle:
    """Cancellation handle into the reference model's entry list."""

    def __init__(self, entry):
        self._entry = entry

    def cancel(self):
        self._entry[3] = True


class ReferenceScheduler:
    """Executable specification: a flat list scanned for the minimum
    ``(time, seq)`` live entry.  O(n) per event and proud of it."""

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._entries = []  # [time, seq, action, cancelled]

    def schedule(self, delay, action):
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        entry = [self.now + delay, self._seq, action, False]
        self._seq += 1
        self._entries.append(entry)
        return _RefHandle(entry)

    def _earliest(self):
        live = [e for e in self._entries if not e[3]]
        return min(live, key=lambda e: (e[0], e[1])) if live else None

    def step(self):
        entry = self._earliest()
        if entry is None:
            return False
        entry[3] = True
        self.now = entry[0]
        entry[2]()
        return True

    def run(self, until=None, max_events=None):
        executed = 0
        while max_events is None or executed < max_events:
            entry = self._earliest()
            if entry is None or (until is not None and entry[0] > until):
                break
            entry[3] = True
            self.now = entry[0]
            entry[2]()
            executed += 1
        if until is not None:
            self.now = max(self.now, until)
        return executed

    @property
    def pending(self):
        return sum(1 for e in self._entries if not e[3])


#: Delays drawn from a small grid of exact binary floats, so ties (the
#: interesting case) are common and float arithmetic is bit-identical
#: across all three implementations.
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.5, 4.0, 8.0, 16.0])


class SchedulerEquivalence(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.scheds = {
            "reference": ReferenceScheduler(),
            "eventloop": EventLoop(),
            "asyncio": AsyncioScheduler(),
        }
        self.logs = {name: [] for name in self.scheds}
        self.handles = {name: [] for name in self.scheds}
        self.label = 0

    def _record(self, name, label):
        sched = self.scheds[name]
        return lambda: self.logs[name].append((label, sched.now))

    @rule(delay=DELAYS)
    def schedule(self, delay):
        label = self.label
        self.label += 1
        for name, sched in self.scheds.items():
            self.handles[name].append(
                sched.schedule(delay, self._record(name, label))
            )

    @rule(delay=DELAYS, chain=DELAYS)
    def schedule_chain(self, delay, chain):
        """A callback that schedules another callback when it fires —
        the heartbeat/NACK shape the reliable transport leans on."""
        label = self.label
        self.label += 1
        for name, sched in self.scheds.items():

            def outer(name=name, sched=sched, label=label):
                self.logs[name].append((label, sched.now))
                sched.schedule(chain, self._record(name, -label - 1))

            self.handles[name].append(sched.schedule(delay, outer))

    @rule(index=st.integers(min_value=0, max_value=10_000))
    def cancel(self, index):
        if not self.handles["reference"]:
            return
        slot = index % len(self.handles["reference"])
        for name in self.scheds:
            self.handles[name][slot].cancel()

    @rule()
    def step(self):
        results = {name: sched.step() for name, sched in self.scheds.items()}
        assert len(set(results.values())) == 1

    @rule(horizon=DELAYS)
    def run_until(self, horizon):
        until = self.scheds["reference"].now + horizon
        counts = {
            name: sched.run(until=until) for name, sched in self.scheds.items()
        }
        assert len(set(counts.values())) == 1

    @rule(cap=st.integers(min_value=1, max_value=5))
    def run_capped(self, cap):
        counts = {
            name: sched.run(max_events=cap)
            for name, sched in self.scheds.items()
        }
        assert len(set(counts.values())) == 1

    @rule()
    def run_all(self):
        counts = {name: sched.run() for name, sched in self.scheds.items()}
        assert len(set(counts.values())) == 1

    @invariant()
    def same_history_and_clock(self):
        reference = self.scheds["reference"]
        for name in ("eventloop", "asyncio"):
            assert self.logs[name] == self.logs["reference"], name
            assert self.scheds[name].now == reference.now, name
            assert self.scheds[name].pending == reference.pending, name


TestSchedulerEquivalence = SchedulerEquivalence.TestCase
