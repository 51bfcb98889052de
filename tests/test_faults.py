"""Tests for the fault-injection subsystem (:mod:`repro.faults`)."""

import math

import numpy as np
import pytest

from repro.faults import CrashWindow, FaultPlan, FaultStats
from repro.net.planetlab import MatrixTopology
from repro.net.scheduling import Transport, TransportNode
from repro.sim import Simulator


def drain(plan, sends, now=0.0):
    """Feed a fixed send sequence through a plan; return the decisions."""
    return [plan.apply(src, dst, payload, now) for src, dst, payload in sends]


SENDS = [(i % 5, (i + 1) % 5, f"m{i}") for i in range(60)]


class TestFaultPlanDecisions:
    def test_no_rules_is_transparent(self):
        plan = FaultPlan(seed=1)
        assert drain(plan, SENDS) == [[0.0]] * len(SENDS)
        assert plan.stats.messages_seen == len(SENDS)
        assert plan.stats.total_injected() == 0

    def test_drop_rate_extremes(self):
        always = FaultPlan(seed=1).drop(1.0)
        assert drain(always, SENDS) == [[]] * len(SENDS)
        assert always.stats.drops == len(SENDS)
        never = FaultPlan(seed=1).drop(0.0)
        assert drain(never, SENDS) == [[0.0]] * len(SENDS)
        assert never.stats.drops == 0

    def test_same_seed_same_decisions(self):
        a = FaultPlan(seed=7).drop(0.3).delay(0.2, jitter=40.0).duplicate(0.1)
        b = FaultPlan(seed=7).drop(0.3).delay(0.2, jitter=40.0).duplicate(0.1)
        assert drain(a, SENDS) == drain(b, SENDS)
        assert a.stats == b.stats
        assert a.stats.total_injected() > 0  # the plan actually did things

    def test_reset_replays_identically(self):
        plan = FaultPlan(seed=3).drop(0.25).delay(0.25, jitter=10.0)
        first = drain(plan, SENDS)
        first_stats = plan.stats
        plan.reset()
        assert plan.stats == FaultStats()
        assert drain(plan, SENDS) == first
        assert plan.stats == first_stats

    def test_time_window_scoping(self):
        plan = FaultPlan(seed=0).drop(1.0, start=10.0, end=20.0)
        assert plan.apply(0, 1, None, 5.0) == [0.0]
        assert plan.apply(0, 1, None, 10.0) == []  # start inclusive
        assert plan.apply(0, 1, None, 19.9) == []
        assert plan.apply(0, 1, None, 20.0) == [0.0]  # end exclusive

    def test_src_dst_scoping(self):
        plan = FaultPlan(seed=0).drop(1.0, src=3).drop(1.0, dst=8)
        assert plan.apply(3, 1, None, 0.0) == []
        assert plan.apply(1, 8, None, 0.0) == []
        assert plan.apply(1, 2, None, 0.0) == [0.0]

    def test_match_predicate_scoping(self):
        plan = FaultPlan(seed=0).drop(
            1.0, match=lambda s, d, p: isinstance(p, str) and p.startswith("x")
        )
        assert plan.apply(0, 1, "xyz", 0.0) == []
        assert plan.apply(0, 1, "abc", 0.0) == [0.0]
        assert plan.apply(0, 1, 42, 0.0) == [0.0]

    def test_delay_adds_bounded_jitter(self):
        plan = FaultPlan(seed=5).delay(1.0, jitter=40.0)
        for decision in drain(plan, SENDS):
            assert len(decision) == 1
            assert 0.0 <= decision[0] <= 40.0
        assert plan.stats.delays == len(SENDS)

    def test_duplicate_copies(self):
        plan = FaultPlan(seed=5).duplicate(1.0, copies=2)
        for decision in drain(plan, SENDS):
            assert decision == [0.0, 0.0, 0.0]  # original + 2 extras
        assert plan.stats.duplicates == 2 * len(SENDS)

    def test_reorder_holds_messages_back(self):
        plan = FaultPlan(seed=5).reorder(1.0, spread=25.0)
        for decision in drain(plan, SENDS):
            assert len(decision) == 1
            assert 0.0 <= decision[0] <= 25.0
        assert plan.stats.reorders == len(SENDS)

    def test_rules_compose(self):
        # delay + duplicate on the same message: every copy carries the jitter
        plan = FaultPlan(seed=5).delay(1.0, jitter=30.0).duplicate(1.0)
        decision = plan.apply(0, 1, None, 0.0)
        assert len(decision) == 2
        assert decision[0] == decision[1]

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            FaultPlan().drop(1.5)
        with pytest.raises(ValueError):
            FaultPlan().drop(-0.1)
        with pytest.raises(ValueError):
            FaultPlan().delay(0.5, jitter=-1.0)
        with pytest.raises(ValueError):
            FaultPlan().reorder(0.5, spread=-1.0)
        with pytest.raises(ValueError):
            FaultPlan().duplicate(0.5, copies=0)
        with pytest.raises(ValueError):
            FaultPlan().crash(host=1, at=10.0, until=10.0)


class TestCrashWindows:
    def test_window_is_half_open(self):
        window = CrashWindow(host=3, at=10.0, until=20.0)
        assert not window.covers(9.9)
        assert window.covers(10.0)
        assert window.covers(19.9)
        assert not window.covers(20.0)

    def test_is_down_only_inside_window(self):
        plan = FaultPlan().crash(host=3, at=10.0, until=20.0)
        assert not plan.is_down(3, 5.0)
        assert plan.is_down(3, 15.0)
        assert not plan.is_down(3, 25.0)
        assert not plan.is_down(4, 15.0)

    def test_crash_without_until_never_recovers(self):
        plan = FaultPlan().crash(host=3, at=10.0)
        assert plan.is_down(3, 1e9)

    def test_down_sender_loses_messages(self):
        plan = FaultPlan().crash(host=3, at=0.0, until=100.0)
        assert plan.apply(3, 1, None, 50.0) == []
        assert plan.stats.crash_drops == 1
        assert plan.apply(3, 1, None, 150.0) == [0.0]  # recovered


# ----------------------------------------------------------------------
# Through the live network
# ----------------------------------------------------------------------
class Collector(TransportNode):
    def __init__(self, transport, host):
        super().__init__(transport, host)
        self.inbox = []

    def on_message(self, src, payload):
        self.inbox.append((src, payload, self.scheduler.now))


def two_hosts(plan=None):
    sim = Simulator()
    net = Transport(sim, MatrixTopology(np.array([[0.0, 10.0], [10.0, 0.0]])))
    net.install_faults(plan)
    return sim, net, Collector(net, 0), Collector(net, 1)


class TestNetworkIntegration:
    def test_drops_count_against_network_stats(self):
        plan = FaultPlan(seed=1).drop(1.0)
        sim, net, a, b = two_hosts(plan)
        for i in range(5):
            a.send(1, i)
        sim.run()
        assert b.inbox == []
        assert net.stats.dropped == 5
        assert plan.stats.drops == 5

    def test_duplicates_deliver_extra_copies(self):
        plan = FaultPlan(seed=1).duplicate(1.0)
        sim, net, a, b = two_hosts(plan)
        a.send(1, "hello")
        sim.run()
        assert [p for _, p, _ in b.inbox] == ["hello", "hello"]
        assert net.stats.delivered == 2

    def test_reordering_lets_later_sends_overtake(self):
        # Only "slow" is held back, so "fast" (sent later) arrives first.
        plan = FaultPlan(seed=1).reorder(
            1.0, spread=50.0, match=lambda s, d, p: p == "slow"
        )
        sim, net, a, b = two_hosts(plan)
        a.send(1, "slow")
        a.send(1, "fast")
        sim.run()
        assert [p for _, p, _ in b.inbox] == ["fast", "slow"]

    def test_receiver_down_at_delivery_time(self):
        # The one-way delay is 5; host 1 crashes at t=2 and recovers at
        # t=100.  A message sent at t=0 is in flight at the crash and is
        # lost on arrival; one sent after recovery gets through.
        plan = FaultPlan().crash(host=1, at=2.0, until=100.0)
        sim, net, a, b = two_hosts(plan)
        a.send(1, "in-flight")
        sim.run()
        assert b.inbox == []
        assert plan.stats.crash_drops == 1
        assert net.stats.dropped == 1
        sim.schedule_at(200.0, lambda: a.send(1, "after"))
        sim.run()
        assert [p for _, p, _ in b.inbox] == ["after"]

    def test_down_sender_cannot_send(self):
        plan = FaultPlan().crash(host=0, at=0.0, until=50.0)
        sim, net, a, b = two_hosts(plan)
        a.send(1, "lost")
        sim.schedule_at(60.0, lambda: a.send(1, "ok"))
        sim.run()
        assert [p for _, p, _ in b.inbox] == ["ok"]

    def test_install_faults_none_removes_plan(self):
        plan = FaultPlan(seed=1).drop(1.0)
        sim, net, a, b = two_hosts(plan)
        net.install_faults(None)
        a.send(1, "through")
        sim.run()
        assert [p for _, p, _ in b.inbox] == ["through"]
