"""Property-based tests for the tracing layer (docs/OBSERVABILITY.md).

Three families:

* span trees captured from random static worlds are structurally
  well-nested (sequential IDs, parents precede children);
* the span tree mirrors the protocol: exactly one ``tmesh.hop`` span per
  :class:`~repro.core.tmesh.SessionResult` receipt (the trace-side
  restatement of Theorem 1), cross-checked while :mod:`repro.verify`
  hooks run in the same block;
* counter totals equal the ``SessionResult`` / ``ReliableOutcome``
  aggregates, including under an injected :class:`~repro.faults.
  FaultPlan` — the trace never invents or loses traffic.

Plus deterministic unit properties of the metrics registry itself
(histogram bookkeeping, gauges, Prometheus rendering).
"""

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import make_static_world
from repro.alm.reliable import ReliableSession
from repro.core.ids import Id, IdScheme
from repro.core.tmesh import rekey_session
from repro.faults import FaultPlan
from repro.trace import MetricsRegistry, TraceContext, tracing
from repro.trace.spans import ROOT, well_nested_problems
from repro.verify import verification

SCHEME = IdScheme(3, 4)

pytestmark = pytest.mark.trace

id_sets = st.sets(
    st.tuples(*[st.integers(0, SCHEME.base - 1)] * SCHEME.num_digits),
    min_size=1,
    max_size=20,
)
seeds = st.integers(0, 10_000)


def to_ids(id_tuples):
    return [Id(t) for t in sorted(id_tuples)]


class TestSpanTreeProperties:
    @given(id_sets, seeds)
    def test_random_world_traces_are_well_nested(self, id_tuples, seed):
        """Any traced rekey yields a structurally valid span tree."""
        ids = to_ids(id_tuples)
        topology, _, tables, server_table = make_static_world(
            SCHEME, ids, seed=seed
        )
        with tracing(seed=seed) as ctx:
            rekey_session(server_table, tables, topology)
        assert well_nested_problems(ctx.spans) == []
        # Hop spans nest under their session span, never at top level.
        sessions = [s for s in ctx.spans if s.name == "tmesh.session"]
        assert len(sessions) == 1
        for span in ctx.spans:
            if span.name == "tmesh.hop":
                assert span.parent == sessions[0].span_id

    @given(id_sets, seeds)
    def test_exactly_one_hop_span_per_receipt(self, id_tuples, seed):
        """Theorem 1, restated on the trace: each member's single
        delivering copy appears as exactly one hop span, carrying the
        receipt's forwarding level — checked with the verification layer
        composed in the same block (the hooks must not disturb each
        other)."""
        ids = to_ids(id_tuples)
        topology, _, tables, server_table = make_static_world(
            SCHEME, ids, seed=seed
        )
        with verification(seed=seed), tracing(seed=seed) as ctx:
            session = rekey_session(server_table, tables, topology)
        hops = [s for s in ctx.spans if s.name == "tmesh.hop"]
        assert len(hops) == len(session.receipts)
        by_member = {s.attrs["member"]: s for s in hops}
        assert len(by_member) == len(hops)  # no member traced twice
        for member, receipt in session.receipts.items():
            span = by_member[str(member)]
            assert span.attrs["level"] == receipt.forward_level
            assert span.attrs["host"] == receipt.host
            assert span.attrs["arrival_ms"] == receipt.arrival_time

    @given(id_sets, seeds)
    def test_hops_off_keeps_counters(self, id_tuples, seed):
        """``hops=False`` drops the per-receipt spans but the counters
        still see every receipt."""
        ids = to_ids(id_tuples)
        topology, _, tables, server_table = make_static_world(
            SCHEME, ids, seed=seed
        )
        with tracing(seed=seed, hops=False) as ctx:
            session = rekey_session(server_table, tables, topology)
        assert not [s for s in ctx.spans if s.name == "tmesh.hop"]
        assert ctx.registry.counter_value("tmesh.receipts") == len(
            session.receipts
        )


class TestCounterAggregates:
    @given(id_sets, seeds)
    def test_tmesh_counters_match_session(self, id_tuples, seed):
        """Forward/receipt/duplicate counters equal the SessionResult's
        own accounting."""
        ids = to_ids(id_tuples)
        topology, _, tables, server_table = make_static_world(
            SCHEME, ids, seed=seed
        )
        with tracing(seed=seed) as ctx:
            session = rekey_session(server_table, tables, topology)
        registry = ctx.registry
        assert registry.counter_value("tmesh.sessions") == 1
        assert registry.counter_value("tmesh.messages_forwarded") == len(
            session.edges
        )
        assert registry.counter_value("tmesh.receipts") == len(session.receipts)
        assert registry.counter_value("tmesh.duplicate_copies") == sum(
            session.duplicate_copies.values()
        )

    @pytest.mark.faults
    @given(
        st.sets(
            st.tuples(*[st.integers(0, SCHEME.base - 1)] * SCHEME.num_digits),
            min_size=3,
            max_size=10,
        ),
        st.integers(0, 10_000),
        st.floats(0.05, 0.25),
    )
    @settings(max_examples=10, deadline=None)
    def test_reliable_counters_match_outcome(self, id_tuples, seed, loss):
        """Under an injected drop plan the reliable.* counters equal the
        ReliableOutcome's aggregated RepairStats, field for field."""
        ids = to_ids(id_tuples)
        topology, _, tables, server_table = make_static_world(
            SCHEME, ids, seed=seed
        )
        plan = FaultPlan(seed=seed).drop(loss)
        session = ReliableSession(tables, server_table, topology, plan=plan)
        with tracing(seed=seed) as ctx:
            outcome = session.multicast(["k0", "k1", "k2"])
        assert outcome.delivery_ratio == 1.0
        registry = ctx.registry
        stats = outcome.stats
        assert registry.counter_value("reliable.sessions") == 1
        for field in (
            "data_sent",
            "data_delivered",
            "duplicates_suppressed",
            "nacks_sent",
            "retransmissions",
            "source_repairs",
            "gave_up",
        ):
            assert registry.counter_value(f"reliable.{field}") == getattr(
                stats, field
            ), field
        # Every fired NACK left an event span; counts agree.
        nack_events = [
            s for s in ctx.spans if s.name == "reliable.nack_round"
        ]
        assert len(nack_events) == stats.nacks_sent
        assert registry.counter_value("reliable.nack_rounds") == stats.nacks_sent


class TestRegistryProperties:
    @given(st.lists(st.floats(0, 1000), min_size=1, max_size=50))
    def test_histogram_sum_and_count(self, values):
        registry = MetricsRegistry()
        for value in values:
            registry.observe("h", value, buckets=(10.0, 100.0))
        import json

        record = next(
            r
            for r in map(json.loads, registry.jsonl_lines())
            if r["kind"] == "histogram"
        )
        assert record["count"] == len(values)
        assert record["sum"] == pytest.approx(sum(values))
        # Bucket counts partition the observations.
        assert sum(record["counts"]) == len(values)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("depth", 3)
        registry.set_gauge("depth", 5)
        assert registry.gauge_value("depth") == 5

    def test_histogram_bucket_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.observe("h", 1.0, buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.observe("h", 1.0, buckets=(5.0,))

    def test_prometheus_text_shape(self):
        registry = MetricsRegistry()
        registry.inc("tmesh.sessions", 2)
        registry.inc("reliable.nacks_sent", 1, host=3)
        registry.set_gauge("queue.depth", 4)
        registry.observe("delay.ms", 7.0, buckets=(5.0, 10.0))
        text = registry.to_prometheus_text()
        assert "# TYPE tmesh_sessions counter" in text
        assert "tmesh_sessions 2" in text
        assert 'reliable_nacks_sent{host="3"} 1' in text
        assert "# TYPE queue_depth gauge" in text
        assert 'delay_ms_bucket{le="10.0"} 1' in text
        assert 'delay_ms_bucket{le="+Inf"} 1' in text
        assert "delay_ms_sum 7" in text
        assert "delay_ms_count 1" in text

    def test_event_outside_span_is_top_level(self):
        context = TraceContext()
        span = context.event("lonely", x=1)
        assert span.parent == ROOT
        assert well_nested_problems(context.spans) == []
