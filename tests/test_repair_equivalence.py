"""Differential test of the repair path against the code it replaced.

Four things under ``alm.reliable`` / ``faults`` / ``net.eventloop`` were
made cheaper without (apart from one named timer) changing what they do.
The reference half of this file carries the replaced code verbatim:

* ``_note_highest`` + the ``fire`` closure of ``_schedule_nack`` — the
  hole set rebuilt from ``range(highest + 1)`` on every packet and
  accumulated in ``state.missing``; now an ``len(seen) > highest`` test
  per packet and the missing tuple computed when the NACK fires;
* ``FaultPlan.is_down`` — ``any()`` over the crash windows, also when
  there are none;
* the event heap — ``TimerHandle`` objects ordered by a Python
  ``__lt__``, drained through ``step()``; now ``(when, seq, handle)``
  tuples drained inline.

The new code is held to the old on seeded and hypothesis-drawn inputs:
the same NACKs at the same instants to the same targets with the same
contents, the same source repairs and the same holes given up; the same
fault decisions, counters and generator state; the same firing order,
clock and return values.

The two intended differences are pinned by name at the end of the NACK
section: a retry timer whose holes have all filled is cancelled instead
of firing idle, and ``gave_up`` counts each hole once where the old code
counted it again at every later give-up round.
"""

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alm.reliable import ReliabilityConfig, ReliableTmeshNode, TmeshNack
from repro.core.ids import Id, IdScheme
from repro.faults import FaultPlan
from repro.metrics.faults import RepairStats
from repro.net.eventloop import EventLoop
from repro.net.scheduling import Transport
from repro.service.aio import AsyncioScheduler
from repro.trace import hooks as _trace_hooks
from repro.trace import tracing
from tests.conftest import make_static_world

pytestmark = pytest.mark.faults


# ----------------------------------------------------------------------
# The reference: the replaced code, verbatim
# ----------------------------------------------------------------------
@dataclass
class _ReferenceRepairState:
    missing: Set[int] = field(default_factory=set)
    attempts: int = 0
    event: Optional[object] = None


class ReferenceNode(ReliableTmeshNode):
    """The parent's hole bookkeeping on today's node."""

    def _note_highest(self, source, source_host, seq):
        previous = self._highest.get(source, -1)
        if seq > previous:
            self._highest[source] = seq
        if not self.config.repair_enabled or source == self.source_id:
            return
        seen = self._seen.setdefault(source, set())
        holes = {
            s for s in range(self._highest[source] + 1) if s not in seen
        }
        if not holes:
            return
        state = self._repairs.setdefault(source, _ReferenceRepairState())
        state.missing |= holes
        self._schedule_nack(source, source_host, self.config.nack_delay)

    def _schedule_nack(self, source, source_host, delay):
        state = self._repairs[source]
        if state.event is not None:
            return  # a NACK round is already pending

        def fire() -> None:
            state.event = None
            seen = self._seen.get(source, set())
            state.missing -= seen
            if not state.missing:
                state.attempts = 0
                return
            budget = self.config.max_upstream_nacks + self.config.max_source_nacks
            if state.attempts >= budget:
                self.stats.gave_up += len(state.missing)
                state.missing.clear()
                return
            if (
                state.attempts < self.config.max_upstream_nacks
                and source in self._upstream
            ):
                target = self._upstream[source]
                target_kind = "upstream"
            else:
                target = source_host
                target_kind = "source"
                self.stats.source_repairs += 1
            self.stats.nacks_sent += 1
            tctx = _trace_hooks.ACTIVE
            if tctx is not None:
                tctx.event(
                    "reliable.nack_round",
                    source=str(source),
                    requester_host=self.host,
                    attempt=state.attempts,
                    missing=len(state.missing),
                    target=target_kind,
                    time_ms=self.scheduler.now,
                )
                tctx.registry.inc("reliable.nack_rounds")
            self.send(
                target, TmeshNack(source, source_host, tuple(sorted(state.missing)))
            )
            state.attempts += 1
            retry = self.config.rto * (
                self.config.backoff ** min(state.attempts - 1, 6)
            )
            self._schedule_nack(source, source_host, retry)

        state.event = self.scheduler.schedule(delay, fire)


class ReferencePlan(FaultPlan):
    def is_down(self, host: int, time: float) -> bool:
        return any(w.host == host and w.covers(time) for w in self._crashes)


class ReferenceTimerHandle:
    __slots__ = ("when", "seq", "_callback", "_cancelled")

    def __init__(self, when: float, seq: int, callback: Callable[[], None]):
        self.when = when
        self.seq = seq
        self._callback = callback
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    def cancelled(self) -> bool:
        return self._cancelled

    def __lt__(self, other: "ReferenceTimerHandle") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


class ReferenceLoop:
    def __init__(self):
        self.now = 0.0
        self._heap: List[ReferenceTimerHandle] = []
        self._seq = itertools.count()
        self.events_processed = 0

    def schedule(self, delay, action):
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, action)

    def schedule_at(self, time, action):
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        handle = ReferenceTimerHandle(time, next(self._seq), action)
        heapq.heappush(self._heap, handle)
        return handle

    def step(self) -> bool:
        while self._heap:
            handle = heapq.heappop(self._heap)
            if handle._cancelled:
                continue
            self.now = handle.when
            self.events_processed += 1
            handle._callback()
            return True
        return False

    def run(self, until=None, max_events=None) -> int:
        executed = 0
        while self._heap:
            if max_events is not None and executed >= max_events:
                break
            head = self._heap[0]
            if head._cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and head.when > until:
                break
            self.step()
            executed += 1
        if until is not None and (not self._heap or self._heap[0].when > until):
            self.now = max(self.now, until)
        return executed

    @property
    def pending(self) -> int:
        return sum(1 for h in self._heap if not h._cancelled)


# ----------------------------------------------------------------------
# NACK rounds: same requests, same instants, same give-ups
# ----------------------------------------------------------------------
SCHEME = IdScheme(2, 4)
IDS = [Id([0, 1]), Id([1, 2]), Id([3, 0])]
SOURCE, SOURCE_HOST, UPSTREAM = Id([3, 0]), 2, 1
EPOCH = 100_000.0


class GiveUpLog(RepairStats):
    """``RepairStats`` that also notes the holes missing whenever
    ``gave_up`` grows, so the lane can compare which holes were given up
    while the two nodes count them differently."""

    def __init__(self, node):
        self.node, self.holes = node, set()
        super().__init__()

    def __setattr__(self, name, value):
        if name == "gave_up" and value > getattr(self, "gave_up", 0):
            self.holes.update(self.node.missing_from(SOURCE))
        super().__setattr__(name, value)


def receiver(node_class, config, knows_upstream):
    """One receiver of ``node_class`` on its own loop, its sends logged
    as ``(time, target, missing)``."""
    topology, records, tables, _ = make_static_world(SCHEME, IDS)
    loop = EventLoop()
    node = node_class(Transport(loop, topology), records[0], tables[IDS[0]], config)
    node.stats = GiveUpLog(node)
    nacks = []
    node.send = lambda dst, nack: nacks.append((loop.now, dst, nack.missing))
    if knows_upstream:
        node._upstream[SOURCE] = UPSTREAM
    return node, loop, nacks


def play(node_class, config, knows_upstream, bursts):
    """``bursts``: each a watermark and its arrivals ``(delay, seq)``
    (``seq is None``: the watermark alone, as a heartbeat or an unserved
    NACK teaches it).  Arrivals do what ``_on_data`` does for the
    bookkeeping under test; each burst has an ``EPOCH`` to run dry in."""
    node, loop, nacks = receiver(node_class, config, knows_upstream)

    def arrive(seq, watermark):
        seen = node._seen.setdefault(SOURCE, set())
        if seq is not None:
            if seq in seen:
                return
            seen.add(seq)
        node._note_highest(SOURCE, SOURCE_HOST, watermark)

    base = 0
    for k, (width, arrivals) in enumerate(bursts):
        watermark = base + width - 1
        for delay, offset in arrivals:
            seq = None if offset is None else base + offset % width
            loop.schedule(delay, lambda seq=seq, w=watermark: arrive(seq, w))
        # Longer than any retry chain, and the same instant for both
        # nodes whether or not an idle retry fired last.
        loop.run(until=(k + 1) * EPOCH)
        assert loop.pending == 0
        base += width
    return nacks, node.stats.gave_up, node.stats.source_repairs, node


def seeded_bursts(rng):
    bursts = []
    for _ in range(int(rng.integers(1, 4))):
        width = int(rng.integers(1, 9))
        arrivals = [
            (
                float(rng.choice([0.0, 3.0, 9.5, 10.0, 40.0, 95.0, 250.0, 700.0, 3000.0])),
                None if rng.random() < 0.15 else int(rng.integers(0, width)),
            )
            for _ in range(int(rng.integers(1, 2 * width + 2)))
        ]
        bursts.append((width, arrivals))
    return bursts


CONFIGS = [
    ReliabilityConfig(),
    ReliabilityConfig(max_upstream_nacks=1, max_source_nacks=2),
    ReliabilityConfig(max_upstream_nacks=0, max_source_nacks=1, rto=30.0, backoff=1.5),
]


def assert_alike(got, want):
    """Equal NACKs and source repairs, the same holes given up, and each
    of those holes counted once (the old code may count one again)."""
    (got_nacks, got_gave_up, got_to_source, got_node) = got
    (want_nacks, want_gave_up, want_to_source, want_node) = want
    assert got_nacks == want_nacks
    assert got_to_source == want_to_source
    assert got_node.stats.holes == want_node.stats.holes
    assert got_gave_up == len(got_node.stats.holes) <= want_gave_up


@pytest.mark.parametrize("seed", range(60))
def test_seeded_arrival_orders_nack_alike(seed):
    rng = np.random.default_rng(seed)
    bursts = seeded_bursts(rng)
    config = CONFIGS[seed % len(CONFIGS)]
    knows_upstream = bool(seed % 2)
    want = play(ReferenceNode, config, knows_upstream, bursts)
    got = play(ReliableTmeshNode, config, knows_upstream, bursts)
    assert_alike(got, want)
    assert got[3].missing_from(SOURCE) == want[3].missing_from(SOURCE)


def test_seeds_reach_every_branch():
    """The seeded schedules send NACKs up and to the source, retry, give
    holes up, and repair some completely — no branch is compared only
    in its absence."""
    nacks = gave_up = to_source = repaired = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        log, gave, src, node = play(
            ReferenceNode, CONFIGS[seed % len(CONFIGS)], bool(seed % 2), seeded_bursts(rng)
        )
        nacks += len(log)
        gave_up += gave
        to_source += src
        repaired += bool(log) and not node.missing_from(SOURCE)
    assert min(nacks, gave_up, to_source, repaired) > 0


arrival = st.tuples(
    st.sampled_from([0.0, 1.0, 9.0, 10.0, 11.0, 80.0, 90.0, 250.0, 2000.0]),
    st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
)
burst = st.tuples(
    st.integers(min_value=1, max_value=8), st.lists(arrival, min_size=1, max_size=14)
)


@given(
    bursts=st.lists(burst, min_size=1, max_size=3),
    config=st.sampled_from(CONFIGS),
    knows_upstream=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_drawn_arrival_orders_nack_alike(bursts, config, knows_upstream):
    want = play(ReferenceNode, config, knows_upstream, bursts)
    got = play(ReliableTmeshNode, config, knows_upstream, bursts)
    assert_alike(got, want)


def test_nack_round_trace_events_alike():
    bursts = seeded_bursts(np.random.default_rng(7))
    records = []
    for node_class in (ReferenceNode, ReliableTmeshNode):
        with tracing(seed=7) as ctx:
            play(node_class, CONFIGS[1], True, bursts)
        records.append(
            [s.attrs for s in ctx.spans if s.name == "reliable.nack_round"]
        )
    assert records[0] and records[0] == records[1]


def test_the_idle_retry_is_the_one_difference():
    """Both NACK once at t=10 and the repair lands at t=20.  The parent's
    retry still fires at t=90 and finds nothing missing — the event a
    session's clock read at drain; the retry is now cancelled when the
    hole fills."""
    burst = [(2, [(0.0, 0), (20.0, 1)])]
    ends = {}
    for node_class in (ReferenceNode, ReliableTmeshNode):
        nacks, _, _, node = play(node_class, ReliabilityConfig(), True, burst)
        assert nacks == [(10.0, UPSTREAM, (1,))]
        assert node._repairs[SOURCE].attempts == 0
        ends[node_class] = node.scheduler.events_processed
    assert ends == {ReferenceNode: 4, ReliableTmeshNode: 3}


def test_a_hole_given_up_is_counted_once():
    """With a budget of one NACK, both send it at t=10 and give seq 1 up
    at t=40.  The budget stays spent, so a heartbeat repeating the
    watermark at t=100, and then a later burst, each schedule a round
    that gives seq 1 up again at once.  The old code counted it three
    times; it is now counted once."""
    bursts = [(2, [(0.0, 0), (100.0, None)]), (1, [(0.0, 0)])]
    gave_up = {}
    for node_class in (ReferenceNode, ReliableTmeshNode):
        nacks, gave, _, node = play(node_class, CONFIGS[2], False, bursts)
        assert nacks == [(10.0, SOURCE_HOST, (1,))]
        assert node.stats.holes == {1}
        gave_up[node_class] = gave
    assert gave_up == {ReferenceNode: 3, ReliableTmeshNode: 1}


# ----------------------------------------------------------------------
# FaultPlan: same decisions, counters and generator state
# ----------------------------------------------------------------------
def declared(plan_class, crashes):
    plan = (
        plan_class(seed=11)
        .drop(0.2)
        .delay(0.3, jitter=20.0)
        .reorder(0.1, spread=5.0, src=1)
        .duplicate(0.15, copies=2)
    )
    for host, at, until in crashes:
        plan.crash(host, at, until)
    return plan


@pytest.mark.parametrize(
    "crashes", [[], [(1, 10.0, 40.0)], [(0, 0.0, 5.0), (2, 30.0, 31.0), (0, 60.0, 90.0)]]
)
def test_fault_decisions_alike(crashes):
    want, got = declared(ReferencePlan, crashes), declared(FaultPlan, crashes)
    rng = np.random.default_rng(5)
    for step in range(2000):
        src, dst = (int(h) for h in rng.integers(0, 4, size=2))
        now = step * 0.05
        assert got.apply(src, dst, step, now) == want.apply(src, dst, step, now)
        assert got.is_down(dst, now) == want.is_down(dst, now)
    assert got.stats == want.stats
    assert got.stats.drops > 0 and bool(crashes) == bool(got.stats.crash_drops)
    assert got._rng.bit_generator.state == want._rng.bit_generator.state


# ----------------------------------------------------------------------
# The event heap: same firing order, clock and return values
# ----------------------------------------------------------------------
def drive(loop, script):
    """Interpret ``script`` on ``loop``; everything observable goes into
    the returned log.  A fired timer schedules its children and cancels
    its targets (indices into the handles created so far)."""
    log, handles = [], []

    def timer(label, children, cancels):
        def fire():
            log.append(("fire", label, loop.now))
            for k in cancels:
                handles[k % len(handles)].cancel()
            for n, delay in enumerate(children):
                handles.append(loop.schedule(delay, timer((label, n), (), ())))

        return fire

    for n, op in enumerate(script):
        if op[0] == "schedule":
            _, delay, children, cancels = op
            handles.append(loop.schedule(delay, timer(n, children, cancels)))
        elif op[0] == "cancel" and handles:
            handles[op[1] % len(handles)].cancel()
        elif op[0] == "step":
            log.append(("step", loop.step()))
        elif op[0] == "run":
            _, ahead, max_events = op
            until = None if ahead is None else loop.now + ahead
            log.append(("run", loop.run(until=until, max_events=max_events)))
        log.append((loop.now, loop.pending, loop.events_processed))
    log.append(("drain", loop.run(), loop.now, loop.pending, loop.events_processed))
    return log


delays = st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.5, 7.0, 50.0])
operation = st.one_of(
    st.tuples(
        st.just("schedule"),
        delays,
        st.lists(delays, max_size=3),
        st.lists(st.integers(min_value=0, max_value=40), max_size=2),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("step")),
    st.tuples(
        st.just("run"),
        st.one_of(st.none(), st.sampled_from([0.0, 1.0, 3.0, 100.0])),
        st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
    ),
)


@given(script=st.lists(operation, max_size=40))
@settings(max_examples=150, deadline=None)
def test_drawn_schedules_fire_alike(script):
    want = drive(ReferenceLoop(), script)
    assert drive(EventLoop(), script) == want
    assert drive(AsyncioScheduler(), script) == want


def test_seeded_schedule_with_cancels_and_bounded_runs():
    rng = np.random.default_rng(3)
    script = []
    for _ in range(400):
        kind = rng.choice(["schedule", "schedule", "schedule", "cancel", "step", "run"])
        if kind == "schedule":
            script.append(
                (
                    "schedule",
                    float(rng.choice([0.0, 1.0, 1.0, 4.0, 9.0])),
                    [float(d) for d in rng.choice([0.0, 2.0, 5.0], size=rng.integers(0, 3))],
                    [int(k) for k in rng.integers(0, 400, size=rng.integers(0, 2))],
                )
            )
        elif kind == "cancel":
            script.append(("cancel", int(rng.integers(0, 400))))
        elif kind == "step":
            script.append(("step",))
        else:
            script.append(
                (
                    "run",
                    None if rng.random() < 0.3 else float(rng.choice([0.0, 2.0, 6.0])),
                    None if rng.random() < 0.5 else int(rng.integers(0, 5)),
                )
            )
    want = drive(ReferenceLoop(), script)
    fired = [entry for entry in want if entry[0] == "fire"]
    assert len(fired) > 200
    assert drive(EventLoop(), script) == want
    assert drive(AsyncioScheduler(), script) == want
