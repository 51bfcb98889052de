"""Byte-identity of reliable sessions across scheduling backends under
faults.

Running the *same* reliable multicast on the ``"simulator"`` backend
and the ``"asyncio"`` backend (deterministic drive) must produce

* equal :class:`~repro.alm.reliable.ReliableOutcome` values — every
  field, including per-node :class:`~repro.metrics.faults.RepairStats`;
* byte-equal normalized traces (``TraceContext.render()``), the same
  normalization the golden-trace fixtures use;

on clean networks and under every fault class the plans can inject —
the fault-plan inputs the scheduler-semantics suite in
``tests/test_scheduler_conformance.py`` does not exercise.  Each backend
gets a freshly built world and a freshly seeded
:class:`~repro.faults.FaultPlan` so the comparison starts from identical
inputs — any divergence is the scheduler's doing.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import make_static_world
from repro.alm.reliable import ReliabilityConfig, ReliableSession
from repro.core.ids import Id, IdScheme
from repro.faults import FaultPlan
from repro.trace import hooks as trace_hooks

pytestmark = pytest.mark.conformance

BACKENDS = ("simulator", "asyncio")
SCHEME = IdScheme(3, 4)
SEED = 7  # tools/check_invariants.py base seed

PAYLOADS = [f"key-{i}" for i in range(6)]


def random_ids(n, seed=SEED, scheme=SCHEME):
    rng = np.random.default_rng(seed)
    seen = set()
    while len(seen) < n:
        seen.add(
            tuple(int(rng.integers(0, scheme.base)) for _ in range(scheme.num_digits))
        )
    return [Id(t) for t in sorted(seen)]


#: name -> fresh fault plan (None = clean network).  Fresh per call:
#: a FaultPlan carries RNG state, so backends must not share one.
SCENARIOS = {
    "clean": lambda: None,
    "drop20": lambda: FaultPlan(seed=42).drop(0.2),
    "duplicate": lambda: FaultPlan(seed=42).duplicate(0.15, copies=2),
    "reorder-delay": lambda: (
        FaultPlan(seed=42).reorder(0.3, spread=80.0).delay(0.2, jitter=25.0)
    ),
    "crash": lambda: FaultPlan(seed=42).drop(0.1).crash(host=2, at=40.0, until=400.0),
    "kitchen-sink": lambda: (
        FaultPlan(seed=SEED)
        .drop(0.15)
        .delay(0.1, jitter=30.0)
        .reorder(0.1, spread=50.0)
        .duplicate(0.05)
        .crash(host=5, at=60.0, until=500.0)
    ),
}

FAULTY = [name for name in SCENARIOS if name != "clean"]


def run_session(backend, scenario, members=25, trace=False):
    """Build a fresh world + plan and run one multicast on ``backend``.

    Returns ``(outcome, rendered_trace_or_None)``."""
    ids = random_ids(members)
    topology, _, tables, server_table = make_static_world(
        SCHEME, ids, seed=SEED, k=2
    )
    plan = SCENARIOS[scenario]()
    config = ReliabilityConfig()
    session = ReliableSession(
        tables,
        server_table,
        topology,
        config=config,
        plan=plan,
        backend=backend,
    )
    if not trace:
        return session.multicast(PAYLOADS), None
    with trace_hooks.tracing(seed=SEED, label=f"identity-{scenario}") as ctx:
        outcome = session.multicast(PAYLOADS)
    return outcome, ctx.render()


class TestOutcomeIdentity:
    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_outcomes_equal_across_backends(self, scenario):
        sim_outcome, _ = run_session("simulator", scenario)
        aio_outcome, _ = run_session("asyncio", scenario)
        # Dataclass equality covers source, payloads, delivered, missing,
        # aggregate stats, and per-node stats in one comparison.
        assert sim_outcome == aio_outcome

    def test_clean_network_delivers_everything(self):
        outcome, _ = run_session("asyncio", "clean")
        assert outcome.delivery_ratio == 1.0
        assert outcome.duplicates_surfaced == 0

    @pytest.mark.parametrize("scenario", FAULTY)
    def test_faulty_scenarios_inject_for_real(self, scenario):
        """Guard against vacuous identity: each fault scenario must
        actually perturb the run (otherwise the cross-backend comparison
        proves nothing about fault handling)."""
        ids = random_ids(25)
        topology, _, tables, server_table = make_static_world(
            SCHEME, ids, seed=SEED, k=2
        )
        plan = SCENARIOS[scenario]()
        session = ReliableSession(
            tables, server_table, topology, plan=plan, backend="asyncio"
        )
        session.multicast(PAYLOADS)
        assert plan.stats.total_injected() > 0


@pytest.mark.faults
class TestOutcomeIdentityUnderFaults:
    """The -m faults lane's view of the same property: byte-identical
    repair behaviour while a plan is actively injecting."""

    @pytest.mark.parametrize("scenario", FAULTY)
    def test_fault_stats_equal_across_backends(self, scenario):
        stats = []
        for backend in BACKENDS:
            ids = random_ids(25)
            topology, _, tables, server_table = make_static_world(
                SCHEME, ids, seed=SEED, k=2
            )
            plan = SCENARIOS[scenario]()
            session = ReliableSession(
                tables, server_table, topology, plan=plan, backend=backend
            )
            outcome = session.multicast(PAYLOADS)
            stats.append(
                (
                    plan.stats,
                    outcome.stats,
                    session.transport.stats,
                )
            )
        assert stats[0] == stats[1]

    def test_repair_recovers_losses_on_both_backends(self):
        for backend in BACKENDS:
            outcome, _ = run_session(backend, "drop20")
            assert outcome.stats.retransmissions > 0
            assert outcome.delivery_ratio > 0.9


class TestTraceIdentity:
    @pytest.mark.parametrize("scenario", ["clean", "drop20", "kitchen-sink"])
    def test_normalized_traces_byte_equal(self, scenario):
        _, sim_trace = run_session("simulator", scenario, trace=True)
        _, aio_trace = run_session("asyncio", scenario, trace=True)
        assert sim_trace is not None and sim_trace
        assert sim_trace.encode() == aio_trace.encode()

    def test_trace_contains_the_scheduler_run_span(self):
        """Both backends must emit the same ``sim.run`` span the golden
        fixtures expect — the asyncio drive cannot rename it without
        breaking byte identity."""
        _, rendered = run_session("asyncio", "clean", trace=True)
        assert '"sim.run"' in rendered
        assert '"sim.events"' in rendered
