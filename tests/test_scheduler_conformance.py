"""Cross-backend conformance for the scheduling seam.

One parameterized suite run against all three :mod:`repro.net.scheduling`
backends — the virtual-clock event loop (``"eventloop"``), the same loop
behind the simulator's ``Network`` surface (``"simulator"``), and the
live service's asyncio subclass of it (``"asyncio"``, deterministic
drive mode) — asserting identical delivery order, cancel/reschedule semantics, and
deterministic same-time tie-breaking.  The scripted scenarios reuse the
fixed seeds of ``tools/check_invariants.py`` (base seed 7), so a
divergence here points at the same repro key as the oracle suite.

The asyncio backend's *realtime* mode paces against the wall clock and
advertises ``clock == "wall"`` (:func:`repro.net.scheduling.clock_of`);
:class:`TestWallClockCapability` re-exercises the key scenarios there
with exact-time assertions relaxed to lower bounds — relaxed, never
skipped.

The suite also pins the seam's layering guarantees: the event-loop
backend must never import ``repro.sim``, and the layering lint gate
must exit 2 the moment such an import reappears anywhere in ``alm`` or
``net``.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import make_static_world
from repro.alm.reliable import ReliabilityConfig, ReliableSession
from repro.core.ids import Id, IdScheme
from repro.faults import FaultPlan
from repro.net.planetlab import MatrixTopology
from repro.net.scheduling import (
    Scheduler,
    SchedulingBackend,
    TransportNode,
    available_backends,
    clock_of,
    create_backend,
)

pytestmark = pytest.mark.conformance

#: All three scheduling backends; every test in this file runs against each.
BACKENDS = ("simulator", "eventloop", "asyncio")

#: The oracle suite's base seed (tools/check_invariants.py --seed default).
ORACLE_SEED = 7

SCHEME = IdScheme(3, 4)


def tiny_topology(hosts: int = 3, seed: int = ORACLE_SEED) -> MatrixTopology:
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 100, size=(hosts, 2))
    matrix = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    matrix = (matrix + matrix.T) / 2
    np.fill_diagonal(matrix, 0.0)
    return MatrixTopology(matrix)


def make_scheduler(backend: str) -> Scheduler:
    return create_backend(backend, tiny_topology()).scheduler


def oracle_ids(n: int, seed: int = ORACLE_SEED, scheme: IdScheme = SCHEME):
    rng = np.random.default_rng(seed)
    seen = set()
    while len(seen) < n:
        seen.add(
            tuple(int(rng.integers(0, scheme.base)) for _ in range(scheme.num_digits))
        )
    return [Id(t) for t in sorted(seen)]


class EchoNode(TransportNode):
    def __init__(self, transport, host):
        super().__init__(transport, host)
        self.inbox = []

    def on_message(self, src, payload):
        self.inbox.append((src, payload, self.scheduler.now))
        if payload == "ping":
            self.send(src, "pong")


# ----------------------------------------------------------------------
# Scheduler semantics, per backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
class TestSchedulerSemantics:
    def test_events_run_in_time_order(self, backend):
        sched = make_scheduler(backend)
        log = []
        sched.schedule(5.0, lambda: log.append("b"))
        sched.schedule(1.0, lambda: log.append("a"))
        sched.schedule(9.0, lambda: log.append("c"))
        assert sched.run() == 3
        assert log == ["a", "b", "c"]
        assert sched.now == 9.0

    def test_simultaneous_events_fifo(self, backend):
        sched = make_scheduler(backend)
        log = []
        for i in range(5):
            sched.schedule(1.0, lambda i=i: log.append(i))
        sched.run()
        assert log == [0, 1, 2, 3, 4]

    def test_cancel_tombstones_a_pending_event(self, backend):
        sched = make_scheduler(backend)
        log = []
        event = sched.schedule(1.0, lambda: log.append("x"))
        event.cancel()
        assert sched.run() == 0
        assert log == []
        assert sched.pending == 0

    def test_cancel_then_reschedule(self, backend):
        """The repair protocol's NACK pattern: cancel a pending round,
        schedule a later one — only the reschedule fires."""
        sched = make_scheduler(backend)
        log = []
        first = sched.schedule(10.0, lambda: log.append("first"))
        first.cancel()
        sched.schedule(20.0, lambda: log.append("second"))
        sched.run()
        assert log == ["second"]
        assert sched.now == 20.0

    def test_cancel_from_a_simultaneous_earlier_event(self, backend):
        sched = make_scheduler(backend)
        log = []
        later = {}
        sched.schedule(1.0, lambda: (log.append("a"), later["b"].cancel()))
        later["b"] = sched.schedule(1.0, lambda: log.append("b"))
        sched.run()
        assert log == ["a"]

    def test_run_until_advances_the_clock(self, backend):
        sched = make_scheduler(backend)
        log = []
        sched.schedule(1.0, lambda: log.append(1))
        sched.schedule(10.0, lambda: log.append(10))
        sched.run(until=5.0)
        assert log == [1]
        assert sched.now == 5.0
        sched.run()
        assert log == [1, 10]

    def test_max_events_bounds_a_zero_delay_loop(self, backend):
        sched = make_scheduler(backend)

        def forever():
            sched.schedule(0.0, forever)

        sched.schedule(1.0, forever)
        assert sched.run(max_events=50) == 50
        assert sched.now == 1.0

    def test_past_scheduling_rejected(self, backend):
        sched = make_scheduler(backend)
        with pytest.raises(ValueError):
            sched.schedule(-1.0, lambda: None)
        sched.schedule(5.0, lambda: None)
        sched.run()
        with pytest.raises(ValueError):
            sched.schedule_at(4.0, lambda: None)

    def test_zero_delay_self_rescheduling_is_fifo(self, backend):
        sched = make_scheduler(backend)
        log = []
        count = [0]

        def tick():
            log.append(("tick", count[0]))
            count[0] += 1
            if count[0] < 3:
                sched.schedule(0.0, tick)

        sched.schedule(1.0, tick)
        sched.schedule(1.0, lambda: log.append(("other", 0)))
        sched.run()
        assert log == [("tick", 0), ("other", 0), ("tick", 1), ("tick", 2)]

    def test_nested_scheduling_relative_to_fire_time(self, backend):
        sched = make_scheduler(backend)
        log = []

        def first():
            log.append(("first", sched.now))
            sched.schedule(2.0, lambda: log.append(("second", sched.now)))

        sched.schedule(1.0, first)
        sched.run()
        assert log == [("first", 1.0), ("second", 3.0)]

    def test_schedule_at_current_instant_from_callback_is_fifo(self, backend):
        """``schedule_at(now)`` from inside a callback — a time exactly
        equal to the current virtual clock — is legal (not "the past")
        and fires in the same instant, after everything already queued
        for that instant (FIFO), on every backend."""
        sched = make_scheduler(backend)
        log = []

        def first():
            log.append(("first", sched.now))
            sched.schedule_at(sched.now, lambda: log.append(("same", sched.now)))

        sched.schedule(2.0, first)
        sched.schedule(2.0, lambda: log.append(("queued", sched.now)))
        sched.schedule(3.0, lambda: log.append(("later", sched.now)))
        sched.run()
        assert log == [
            ("first", 2.0),
            ("queued", 2.0),
            ("same", 2.0),
            ("later", 3.0),
        ]

    def test_schedule_at_current_time_before_run_is_legal(self, backend):
        """``schedule_at(now)`` outside any callback is equally legal —
        the boundary is strict: only strictly-past times raise."""
        sched = make_scheduler(backend)
        log = []
        sched.schedule(1.0, lambda: None)
        sched.run()
        assert sched.now == 1.0
        sched.schedule_at(sched.now, lambda: log.append(sched.now))
        sched.run()
        assert log == [1.0]

    def test_cancel_during_callback_is_inert_on_fired_handle(self, backend):
        """Cancelling the *currently firing* handle from inside its own
        callback must be a no-op on every backend: the event already
        fired, the cancel neither raises nor un-runs it, and the
        tombstone does not corrupt the queue for later events."""
        sched = make_scheduler(backend)
        log = []
        handle = {}

        def self_cancelling():
            log.append(("fired", sched.now))
            handle["h"].cancel()  # already fired: inert

        handle["h"] = sched.schedule(1.0, self_cancelling)
        sched.schedule(2.0, lambda: log.append(("after", sched.now)))
        assert sched.run() == 2
        assert log == [("fired", 1.0), ("after", 2.0)]
        assert sched.pending == 0

    def test_cancel_during_callback_of_simultaneous_later_event(self, backend):
        """Cancelling a not-yet-fired handle scheduled for the *same*
        instant, from a callback firing at that instant, suppresses it
        identically across backends (the FIFO successor is reaped as a
        tombstone, never run)."""
        sched = make_scheduler(backend)
        log = []
        handles = {}

        def canceller():
            log.append("canceller")
            handles["victim"].cancel()
            handles["victim"].cancel()  # double-cancel: still inert

        sched.schedule(1.0, canceller)
        handles["victim"] = sched.schedule(1.0, lambda: log.append("victim"))
        sched.schedule(1.0, lambda: log.append("survivor"))
        assert sched.run() == 2
        assert log == ["canceller", "survivor"]


# ----------------------------------------------------------------------
# Cross-backend identity: both schedulers drive the same script to the
# same (label, time) firing sequence
# ----------------------------------------------------------------------
def scripted_firings(sched: Scheduler, seed: int):
    """A seeded tangle of schedules, cancels, and nested reschedules;
    returns the exact (label, time) firing order."""
    rng = np.random.default_rng(seed)
    log = []
    handles = []
    for i in range(40):
        delay = float(rng.uniform(0.0, 50.0))
        handles.append(
            sched.schedule(delay, lambda i=i: log.append((i, sched.now)))
        )
    for victim in rng.choice(40, size=10, replace=False):
        handles[int(victim)].cancel()

    def respawn(tag, depth):
        log.append((f"respawn-{tag}-{depth}", sched.now))
        if depth:
            sched.schedule(
                float(rng.uniform(0.0, 5.0)), lambda: respawn(tag, depth - 1)
            )

    for tag in range(3):
        sched.schedule(float(rng.uniform(0.0, 30.0)), lambda t=tag: respawn(t, 4))
    sched.run(until=60.0)
    sched.run()
    return log


class TestCrossBackendIdentity:
    def test_backends_are_listed(self):
        assert set(BACKENDS) <= set(available_backends())

    def test_create_backend_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown scheduling backend"):
            create_backend("carrier-pigeon", tiny_topology())

    def test_backend_objects_are_assembled(self):
        from repro.net.eventloop import EventLoop, TimerHandle
        from repro.service.aio import AsyncioScheduler
        from repro.sim.engine import Event, Simulator

        # Three names, one heap drain: the simulator is the event loop
        # under its historical name, the asyncio scheduler a subclass.
        assert Simulator is EventLoop and Event is TimerHandle
        assert issubclass(AsyncioScheduler, EventLoop)
        for name in BACKENDS:
            backend = create_backend(name, tiny_topology())
            assert isinstance(backend, SchedulingBackend)
            assert backend.name == name
            assert backend.transport.scheduler is backend.scheduler
            assert isinstance(backend.scheduler, EventLoop)

    @pytest.mark.parametrize("seed", [ORACLE_SEED, ORACLE_SEED + 1])
    def test_identical_firing_order(self, seed):
        runs = [scripted_firings(make_scheduler(b), seed) for b in BACKENDS]
        assert runs[0], "the script must actually fire something"
        for other in runs[1:]:
            assert other == runs[0]

    def test_identical_message_delivery(self):
        """The transport fabric delivers the same messages at the same
        instants under both schedulers (per-link latency included)."""
        inboxes = []
        for name in BACKENDS:
            backend = create_backend(name, tiny_topology())
            a = EchoNode(backend.transport, 0)
            b = EchoNode(backend.transport, 1)
            EchoNode(backend.transport, 2).detach()
            a.send(1, "ping")
            a.send(2, "lost")  # detached host: dropped, not delivered
            b.send(0, "hello")
            backend.scheduler.run()
            inboxes.append(
                (a.inbox, b.inbox, backend.transport.stats.dropped)
            )
        for other in inboxes[1:]:
            assert other == inboxes[0]
        assert inboxes[0][2] == 1

    def test_identical_fault_plan_decisions(self):
        """Fault injection lives at the transport seam, so an identically
        seeded plan makes identical drop decisions on both backends."""
        results = []
        for name in BACKENDS:
            backend = create_backend(name, tiny_topology())
            plan = FaultPlan(seed=ORACLE_SEED).drop(0.5).duplicate(0.2)
            backend.transport.install_faults(plan)
            a = EchoNode(backend.transport, 0)
            b = EchoNode(backend.transport, 1)
            for i in range(50):
                a.send(1, f"m{i}")
            backend.scheduler.run()
            results.append(
                (b.inbox, plan.stats.drops, plan.stats.duplicates)
            )
        for other in results[1:]:
            assert other == results[0]
        assert results[0][1] > 0  # the plan really injected loss

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reliable_session_clean_network(self, backend):
        ids = oracle_ids(20)
        topology, _, tables, server_table = make_static_world(
            SCHEME, ids, seed=ORACLE_SEED, k=1
        )
        session = ReliableSession(
            tables, server_table, topology, backend=backend
        )
        outcome = session.multicast([f"rekey-{i}" for i in range(6)])
        assert outcome.delivery_ratio == 1.0
        assert outcome.duplicates_surfaced == 0
        assert session.backend.name == backend

    def test_reliable_outcomes_byte_equal_across_backends(self):
        """The whole repair protocol — NACKs, retransmits, heartbeat
        rounds — produces a byte-identical :class:`ReliableOutcome` on
        every virtual-clock backend (the service acceptance bar)."""
        import pickle

        blobs = []
        for backend in BACKENDS:
            ids = oracle_ids(20)
            topology, _, tables, server_table = make_static_world(
                SCHEME, ids, seed=ORACLE_SEED, k=1
            )
            session = ReliableSession(
                tables, server_table, topology, backend=backend
            )
            outcome = session.multicast([f"rekey-{i}" for i in range(6)])
            blobs.append(pickle.dumps(outcome, protocol=4))
        for other in blobs[1:]:
            assert other == blobs[0]

    def test_reliable_session_accepts_a_prebuilt_backend(self):
        ids = oracle_ids(12)
        topology, _, tables, server_table = make_static_world(
            SCHEME, ids, seed=ORACLE_SEED, k=1
        )
        backend = create_backend("eventloop", topology)
        session = ReliableSession(
            tables, server_table, topology, backend=backend
        )
        assert session.scheduler is backend.scheduler
        outcome = session.multicast(["a", "b"])
        assert outcome.delivery_ratio == 1.0


# ----------------------------------------------------------------------
# Wall-clock capability: realtime mode re-runs the key scenarios with
# exact-time assertions relaxed to lower bounds — relaxed, never skipped
# ----------------------------------------------------------------------
class TestWallClockCapability:
    """The asyncio backend's realtime mode advertises ``clock == "wall"``
    and may report fire times *later* than scheduled (honest late-fire
    timestamps), never earlier.  Order and cancel semantics must still
    match the virtual backends exactly."""

    TIME_SCALE = 1e-7  # effectively unpaced; keeps the lane fast

    def make_wall_scheduler(self):
        from repro.service.aio import AsyncioScheduler

        sched = AsyncioScheduler(realtime=True, time_scale=self.TIME_SCALE)
        assert clock_of(sched) == "wall"
        return sched

    def test_registry_backends_advertise_virtual_clocks(self):
        for name in BACKENDS:
            sched = make_scheduler(name)
            assert clock_of(sched) == "virtual"

    def test_firing_order_exact_times_relaxed(self):
        sched = self.make_wall_scheduler()
        log = []
        sched.schedule(5.0, lambda: log.append(("b", sched.now)))
        sched.schedule(1.0, lambda: log.append(("a", sched.now)))
        sched.schedule(9.0, lambda: log.append(("c", sched.now)))
        assert sched.run() == 3
        assert [label for label, _ in log] == ["a", "b", "c"]
        # Wall clock: fire times are lower-bounded by the schedule, not
        # pinned to it.
        for (_, at), want in zip(log, (1.0, 5.0, 9.0)):
            assert at >= want
        assert sched.now >= 9.0
        sched.close()

    def test_simultaneous_fifo_and_cancel_semantics_hold_on_wall_clock(self):
        sched = self.make_wall_scheduler()
        log = []
        handles = {}

        def canceller():
            log.append("canceller")
            handles["victim"].cancel()
            handles["own"].cancel()  # fired handle: inert

        handles["own"] = sched.schedule(1.0, canceller)
        handles["victim"] = sched.schedule(1.0, lambda: log.append("victim"))
        sched.schedule(1.0, lambda: log.append("survivor"))
        assert sched.run() == 2
        assert log == ["canceller", "survivor"]
        assert sched.pending == 0
        sched.close()

    def test_call_at_current_instant_on_wall_clock(self):
        sched = self.make_wall_scheduler()
        log = []

        def first():
            log.append("first")
            sched.call_at(sched.now, lambda: log.append("same"))

        sched.schedule(2.0, first)
        sched.schedule(2.0, lambda: log.append("queued"))
        sched.run()
        assert log == ["first", "queued", "same"]
        assert sched.now >= 2.0
        sched.close()

    def test_nested_scheduling_lower_bounds(self):
        sched = self.make_wall_scheduler()
        log = []

        def first():
            log.append(("first", sched.now))
            sched.schedule(2.0, lambda: log.append(("second", sched.now)))

        sched.schedule(1.0, first)
        sched.run()
        assert [label for label, _ in log] == ["first", "second"]
        first_at = log[0][1]
        assert first_at >= 1.0
        assert log[1][1] >= first_at + 2.0
        sched.close()


# ----------------------------------------------------------------------
# Layering: the seam is what keeps alm/net free of repro.sim
# ----------------------------------------------------------------------
class TestLayeringSeam:
    SEAM_SOURCES = ("net/scheduling.py", "net/eventloop.py", "alm/reliable.py")

    def test_seam_modules_never_import_repro_sim(self):
        """The event-loop backend (and the reliable transport it serves)
        must stay importable without the simulator: no ``import`` of
        ``repro.sim`` / relative ``..sim`` anywhere in their AST —
        module level or lazy."""
        import ast
        import pathlib

        import repro

        package_root = pathlib.Path(repro.__file__).parent
        for rel in self.SEAM_SOURCES:
            path = package_root / rel
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    if node.level >= 2:  # "from ..sim..." relative crossing
                        assert (node.module or "").split(".")[0] != "sim", (
                            f"{rel}:{node.lineno} imports ..sim"
                        )
                    names = [node.module or ""]
                else:
                    continue
                for name in names:
                    assert not (
                        name == "repro.sim" or name.startswith("repro.sim.")
                    ), f"{rel}:{node.lineno} imports {name}"

    def test_reliability_config_knobs_are_backend_neutral(self):
        """The config carries no scheduler/transport handle — sessions
        can rebuild on any backend from the same knobs."""
        config = ReliabilityConfig()
        assert not any(
            "sim" in name or "network" in name
            for name in type(config).__dataclass_fields__
        )
