"""Tests for the discrete event simulator and message-passing nodes."""

import pytest

from repro.net.planetlab import MatrixTopology
from repro.net.scheduling import Transport, TransportNode
from repro.sim import Simulator

import numpy as np


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(9.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 9.0

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_cancel(self):
        sim = Simulator()
        log = []
        event = sim.schedule(1.0, lambda: log.append("x"))
        event.cancel()
        sim.run()
        assert log == []

    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(10.0, lambda: log.append(10))
        sim.run(until=5.0)
        assert log == [1]
        assert sim.now == 5.0
        sim.run()
        assert log == [1, 10]

    def test_max_events(self):
        sim = Simulator()
        log = []
        for i in range(10):
            sim.schedule(i, lambda i=i: log.append(i))
        sim.run(max_events=3)
        assert log == [0, 1, 2]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(2.0, lambda: log.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 3.0)]

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: sim.schedule(-1.0, lambda: None))
        with pytest.raises(ValueError):
            sim.run()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_pending_and_processed_counts(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        e = sim.schedule(2.0, lambda: None)
        e.cancel()
        assert sim.pending == 1
        sim.run()
        assert sim.events_processed == 1


class TestSimulatorEdgeCases:
    """Tie-breaking and cancellation corners the repair protocol leans on
    (pending-NACK cancellation, zero-delay rescheduling, FIFO ties)."""

    def test_cancel_from_a_simultaneous_earlier_event(self):
        # A and B fire at the same time; A was scheduled first, so it runs
        # first and may still cancel B.
        sim = Simulator()
        log = []
        later = {}
        sim.schedule(1.0, lambda: (log.append("a"), later["b"].cancel()))
        later["b"] = sim.schedule(1.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a"]
        assert sim.events_processed == 1

    def test_canceled_head_does_not_block_run(self):
        sim = Simulator()
        log = []
        head = sim.schedule(1.0, lambda: log.append("head"))
        sim.schedule(2.0, lambda: log.append("tail"))
        head.cancel()
        sim.run(until=5.0)
        assert log == ["tail"]
        assert sim.now == 5.0

    def test_run_with_only_canceled_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None).cancel()
        assert sim.run() == 0
        assert sim.pending == 0
        assert sim.events_processed == 0

    def test_zero_delay_self_rescheduling_is_fifo(self):
        # A zero-delay reschedule goes to the *back* of the same-time
        # cohort: other events already queued at that time run in between.
        sim = Simulator()
        log = []
        count = [0]

        def tick():
            log.append(("tick", count[0]))
            count[0] += 1
            if count[0] < 3:
                sim.schedule(0.0, tick)

        sim.schedule(1.0, tick)
        sim.schedule(1.0, lambda: log.append(("other", 0)))
        sim.run()
        assert log == [("tick", 0), ("other", 0), ("tick", 1), ("tick", 2)]
        assert sim.now == 1.0

    def test_max_events_bounds_a_zero_delay_loop(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.0, forever)

        sim.schedule(1.0, forever)
        assert sim.run(max_events=50) == 50
        assert sim.now == 1.0

    def test_schedule_at_current_time_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: sim.schedule_at(sim.now, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [2.0]

    def test_schedule_and_schedule_at_share_fifo_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, lambda: log.append("relative"))
        sim.schedule_at(3.0, lambda: log.append("absolute"))
        sim.schedule(3.0, lambda: log.append("relative-2"))
        sim.run()
        assert log == ["relative", "absolute", "relative-2"]


class EchoNode(TransportNode):
    def __init__(self, transport, host):
        super().__init__(transport, host)
        self.inbox = []

    def on_message(self, src, payload):
        self.inbox.append((src, payload, self.scheduler.now))
        if payload == "ping":
            self.send(src, "pong")


def star_topology():
    m = np.array([[0.0, 10.0], [10.0, 0.0]])
    return MatrixTopology(m)


class TestNetwork:
    def test_delivery_after_one_way_delay(self):
        sim = Simulator()
        net = Transport(sim, star_topology())
        a, b = EchoNode(net, 0), EchoNode(net, 1)
        a.send(1, "hello")
        sim.run()
        assert b.inbox == [(0, "hello", 5.0)]  # one-way = rtt/2

    def test_request_response(self):
        sim = Simulator()
        net = Transport(sim, star_topology())
        a, b = EchoNode(net, 0), EchoNode(net, 1)
        a.send(1, "ping")
        sim.run()
        assert a.inbox == [(1, "pong", 10.0)]

    def test_detach_drops_messages(self):
        sim = Simulator()
        net = Transport(sim, star_topology())
        a, b = EchoNode(net, 0), EchoNode(net, 1)
        b.detach()
        a.send(1, "lost")
        sim.run()
        assert b.inbox == []
        assert net.stats.dropped == 1

    def test_drop_filter(self):
        sim = Simulator()
        net = Transport(sim, star_topology())
        a, b = EchoNode(net, 0), EchoNode(net, 1)
        net.drop_filter = lambda src, dst, payload: payload == "bad"
        a.send(1, "bad")
        a.send(1, "good")
        sim.run()
        assert [p for _, p, _ in b.inbox] == ["good"]
        assert net.stats.dropped == 1
        assert net.stats.delivered == 1

    def test_double_attach_rejected(self):
        sim = Simulator()
        net = Transport(sim, star_topology())
        EchoNode(net, 0)
        with pytest.raises(ValueError):
            EchoNode(net, 0)
