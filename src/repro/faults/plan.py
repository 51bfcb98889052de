"""Declarative, seeded fault plans for the simulated network.

The paper's resilience claims (K-consistent tables, Definition 3; key
driven recovery, Section 3.2) are about behaviour *under failure*, yet a
discrete event simulation is only as good as the failures it injects.
:class:`FaultPlan` is the single place faults are described:

* **drops** — lose a fraction of messages, optionally scoped to a time
  window, source/destination hosts, or a payload predicate;
* **delays** — add random extra latency to a fraction of messages;
* **reordering** — deliver a fraction of messages with an extra delay
  drawn from ``[0, spread]``, letting later sends overtake them;
* **duplication** — deliver extra copies of a fraction of messages;
* **crash windows** — a host is down during ``[at, until)``: messages it
  sends or should receive during the window are lost (silent failure,
  exactly Section 3.2's model).

A plan is *seeded*: given the same simulation, the same seed produces the
same fault decisions, so every failure scenario is reproducible and two
runs export byte-identical metrics.  Decisions are drawn from a single
``numpy`` generator in send order; :meth:`FaultPlan.reset` rewinds the
plan for an identical re-run.

The plan plugs into the transport seam — :class:`repro.net.scheduling.
Transport` via ``transport.install_faults(plan)``: the transport consults
:meth:`FaultPlan.apply` on every send and :meth:`FaultPlan.is_down` at
every delivery, so faults behave identically under every scheduling
backend.  Pure-function session runners (e.g.
:class:`repro.alm.reliable.ReliableSession`) use the same object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

#: Predicate over ``(src, dst, payload)`` used to scope a fault rule.
MessageMatch = Callable[[int, int, Any], bool]


@dataclass
class FaultStats:
    """What a plan actually injected (one counter per fault class)."""

    messages_seen: int = 0
    drops: int = 0
    delays: int = 0
    reorders: int = 0
    duplicates: int = 0
    crash_drops: int = 0

    def total_injected(self) -> int:
        return (
            self.drops
            + self.delays
            + self.reorders
            + self.duplicates
            + self.crash_drops
        )


@dataclass(frozen=True)
class _Rule:
    """One fault rule: kind, probability, scope, and kind-specific knobs."""

    kind: str  # "drop" | "delay" | "reorder" | "duplicate"
    rate: float
    start: float = 0.0
    end: float = math.inf
    src: Optional[int] = None
    dst: Optional[int] = None
    match: Optional[MessageMatch] = None
    jitter: float = 0.0  # delay: max extra latency
    spread: float = 0.0  # reorder: max extra latency
    copies: int = 1  # duplicate: extra copies

    def applies(self, src: int, dst: int, payload: Any, now: float) -> bool:
        if not self.start <= now < self.end:
            return False
        if self.src is not None and src != self.src:
            return False
        if self.dst is not None and dst != self.dst:
            return False
        if self.match is not None and not self.match(src, dst, payload):
            return False
        return True


@dataclass(frozen=True)
class CrashWindow:
    """Host ``host`` is silently down during ``[at, until)``."""

    host: int
    at: float
    until: float = math.inf

    def covers(self, time: float) -> bool:
        return self.at <= time < self.until


class FaultPlan:
    """A seeded, declarative schedule of message and node faults.

    Builder methods return ``self`` so plans read as one declaration::

        plan = (
            FaultPlan(seed=7)
            .drop(0.2)                         # 20% uniform loss
            .delay(0.1, jitter=40.0)           # 10% of messages +0..40ms
            .duplicate(0.05)                   # 5% duplicated once
            .crash(host=3, at=100.0, until=900.0)
        )
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._rules: List[_Rule] = []
        self._crashes: List[CrashWindow] = []
        self.stats = FaultStats()

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def _add(self, rule: _Rule) -> "FaultPlan":
        if not 0.0 <= rule.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rule.rate}")
        self._rules.append(rule)
        return self

    def drop(
        self,
        rate: float,
        *,
        start: float = 0.0,
        end: float = math.inf,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        match: Optional[MessageMatch] = None,
    ) -> "FaultPlan":
        """Lose ``rate`` of matching messages."""
        return self._add(
            _Rule("drop", rate, start, end, src, dst, match)
        )

    def delay(
        self,
        rate: float,
        jitter: float,
        *,
        start: float = 0.0,
        end: float = math.inf,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        match: Optional[MessageMatch] = None,
    ) -> "FaultPlan":
        """Add up to ``jitter`` extra latency to ``rate`` of messages."""
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        return self._add(
            _Rule("delay", rate, start, end, src, dst, match, jitter=jitter)
        )

    def reorder(
        self,
        rate: float,
        spread: float,
        *,
        start: float = 0.0,
        end: float = math.inf,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        match: Optional[MessageMatch] = None,
    ) -> "FaultPlan":
        """Hold back ``rate`` of messages by up to ``spread`` so later
        sends can overtake them (classic reordering)."""
        if spread < 0:
            raise ValueError("spread must be non-negative")
        return self._add(
            _Rule("reorder", rate, start, end, src, dst, match, spread=spread)
        )

    def duplicate(
        self,
        rate: float,
        *,
        copies: int = 1,
        start: float = 0.0,
        end: float = math.inf,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        match: Optional[MessageMatch] = None,
    ) -> "FaultPlan":
        """Deliver ``copies`` extra copies of ``rate`` of messages."""
        if copies < 1:
            raise ValueError("duplicate() needs at least one extra copy")
        return self._add(
            _Rule("duplicate", rate, start, end, src, dst, match, copies=copies)
        )

    def crash(
        self, host: int, at: float, until: float = math.inf
    ) -> "FaultPlan":
        """Host is silently down during ``[at, until)``; ``until`` omitted
        means it never recovers."""
        if until <= at:
            raise ValueError(f"empty crash window [{at}, {until})")
        self._crashes.append(CrashWindow(host, at, until))
        return self

    # ------------------------------------------------------------------
    # Interrogation (the simulator-facing API)
    # ------------------------------------------------------------------
    @property
    def rules(self) -> Tuple[_Rule, ...]:
        return tuple(self._rules)

    @property
    def crash_windows(self) -> Tuple[CrashWindow, ...]:
        return tuple(self._crashes)

    def is_down(self, host: int, time: float) -> bool:
        if not self._crashes:  # asked three times per send
            return False
        return any(w.host == host and w.covers(time) for w in self._crashes)

    def apply(
        self, src: int, dst: int, payload: Any, now: float
    ) -> List[float]:
        """Decide the fate of one message send.

        Returns a list of *extra* delays, one per copy to deliver on top
        of the topology delay: ``[0.0]`` is normal delivery, ``[]`` is a
        drop, multiple entries are duplicates.  Consumes randomness in
        call order, so identical simulations make identical decisions.
        """
        self.stats.messages_seen += 1
        if self.is_down(src, now):
            self.stats.crash_drops += 1
            return []
        extra = 0.0
        copies = 1
        for rule in self._rules:
            if not rule.applies(src, dst, payload, now):
                continue
            if self._rng.random() >= rule.rate:
                continue
            if rule.kind == "drop":
                self.stats.drops += 1
                return []
            if rule.kind == "delay":
                self.stats.delays += 1
                extra += float(self._rng.uniform(0.0, rule.jitter))
            elif rule.kind == "reorder":
                self.stats.reorders += 1
                extra += float(self._rng.uniform(0.0, rule.spread))
            elif rule.kind == "duplicate":
                self.stats.duplicates += rule.copies
                copies += rule.copies
        return [extra] * copies

    # ------------------------------------------------------------------
    def reset(self) -> "FaultPlan":
        """Rewind the plan for a bit-identical re-run: re-seed the
        generator and zero the counters (rules and crash windows stay)."""
        self._rng = np.random.default_rng(self.seed)
        self.stats = FaultStats()
        return self
