"""The acknowledged hop-by-hop watermark of :mod:`repro.alm.reliable`.

Every data copy carries its burst's watermark; a member acknowledges it
one hop up; a forwarder heartbeats only the next hops whose
acknowledgement is ``heartbeat_interval`` overdue, at most
``heartbeat_rounds`` times; a node that first learns a watermark from a
heartbeat relays it at once.  The tests read the wire through a tap
wrapped round the session transport's ``send`` (it sees every send,
before the fault plan, and drops nothing).
"""

import pytest

from repro.alm.reliable import (
    ReliabilityConfig,
    ReliableSession,
    TmeshAck,
    TmeshData,
    TmeshHeartbeat,
    TmeshNack,
)
from repro.core.ids import IdScheme
from repro.experiments.common import build_group, build_topology
from repro.experiments.config import SMALL_GTITM
from repro.faults import FaultPlan
from tests.conftest import make_static_world
from tests.test_reliable_tmesh import random_ids

pytestmark = pytest.mark.faults

SCHEME = IdScheme(3, 4)
PAYLOADS = [f"rekey-{i}" for i in range(4)]
CONFIG = ReliabilityConfig()


def tapped_session(ids, plan=None, k=1, config=None):
    """A session plus the log of every send: ``(time, src, dst, payload)``."""
    topology, _, tables, server_table = make_static_world(SCHEME, ids, seed=0, k=k)
    session = ReliableSession(tables, server_table, topology, plan=plan, config=config)
    wire = []
    send = session.transport.send

    def tap(src, dst, payload):
        wire.append((session.scheduler.now, src, dst, payload))
        send(src, dst, payload)

    session.transport.send = tap
    return session, wire, topology


def of_kind(wire, kind):
    return [entry for entry in wire if isinstance(entry[3], kind)]


def mesh_copy(payload):
    return isinstance(payload, TmeshData) and not payload.retransmit


def forwarders(session):
    """Nodes FORWARD gives at least one next hop (the server included)."""
    server = session.server
    nodes = [server, *session.nodes.values()]
    return [
        node
        for node in nodes
        if any(node._next_hops(0 if node is server else node._level[server.source_id]))
    ]


class TestLossFree:
    def test_no_heartbeat_and_one_ack_per_member(self):
        ids = random_ids(40)
        session, wire, _ = tapped_session(ids)
        outcome = session.multicast(PAYLOADS)
        assert outcome.members_short() == []
        assert outcome.stats.heartbeats_sent == 0
        assert of_kind(wire, TmeshHeartbeat) == []
        assert outcome.stats.acks_sent == len(ids)
        # ... each from a different member, to the hop its data came from
        acks = of_kind(wire, TmeshAck)
        assert sorted(src for _, src, _, _ in acks) == sorted(
            node.host for node in session.nodes.values()
        )
        server = session.server.source_id
        for _, src, dst, _ in acks:
            member = session.transport.node_at(src)
            assert member._upstream[server] == dst
        assert outcome.stats.repair_messages == len(ids)
        assert outcome.stats.as_row()["acks_sent"] == len(ids)

    def test_repair_disabled_sends_no_ack(self):
        ids = random_ids(20)
        session, wire, _ = tapped_session(
            ids, config=ReliabilityConfig(repair_enabled=False)
        )
        outcome = session.multicast(PAYLOADS)
        assert outcome.stats.repair_messages == 0
        assert of_kind(wire, TmeshAck) == []
        assert session.scheduler.pending == 0


class TestSilentEdge:
    def test_unacknowledged_child_gets_exactly_the_budget(self):
        """Every ack on one edge is dropped: the parent heartbeats that
        child ``heartbeat_rounds`` times, one interval apart, nobody
        else hears a heartbeat, and the queue drains."""
        ids = random_ids(40)
        probe, probe_wire, _ = tapped_session(ids)
        probe.multicast(PAYLOADS)
        _, child, parent, _ = of_kind(probe_wire, TmeshAck)[5]

        plan = FaultPlan(seed=1).drop(
            1.0,
            match=lambda s, d, p: isinstance(p, TmeshAck) and (s, d) == (child, parent),
        )
        session, wire, topology = tapped_session(ids, plan=plan)
        outcome = session.multicast(PAYLOADS)
        heartbeats = of_kind(wire, TmeshHeartbeat)
        assert {(src, dst) for _, src, dst, _ in heartbeats} == {(parent, child)}
        assert len(heartbeats) == CONFIG.heartbeat_rounds
        assert [hb.round for _, _, _, hb in heartbeats] == list(
            range(CONFIG.heartbeat_rounds)
        )
        # each retry waits out the edge's round trip plus the interval
        times = [t for t, _, _, _ in heartbeats]
        wait = CONFIG.heartbeat_interval + topology.rtt(parent, child)
        assert [b - a for a, b in zip(times, times[1:])] == pytest.approx(
            [wait] * (CONFIG.heartbeat_rounds - 1)
        )
        # the child answered every one of them (and every answer was lost)
        assert outcome.stats.acks_sent == len(ids) + CONFIG.heartbeat_rounds
        assert outcome.members_short() == []
        assert outcome.stats.nacks_sent == 0
        assert session.scheduler.pending == 0

    def test_spent_budget_leaves_a_record(self):
        from repro.trace import tracing

        ids = random_ids(20)
        probe, probe_wire, _ = tapped_session(ids)
        probe.multicast(PAYLOADS)
        _, child, parent, _ = of_kind(probe_wire, TmeshAck)[0]
        plan = FaultPlan(seed=1).drop(
            1.0,
            match=lambda s, d, p: isinstance(p, TmeshAck) and (s, d) == (child, parent),
        )
        session, _, _ = tapped_session(ids, plan=plan)
        with tracing(seed=1) as ctx:
            session.multicast(PAYLOADS)
        rounds = [s for s in ctx.spans if s.name == "reliable.watermark_round"]
        spent = [s for s in ctx.spans if s.name == "reliable.watermark_unacked"]
        assert [s.attrs["round"] for s in rounds] == list(range(CONFIG.heartbeat_rounds))
        assert len(spent) == 1
        assert spent[0].attrs["hop_host"] == parent
        assert spent[0].attrs["unacked"] == str(child)
        assert spent[0].attrs["round"] == CONFIG.heartbeat_rounds
        counter = ctx.registry.counter_value
        assert counter("reliable.watermark_rounds") == CONFIG.heartbeat_rounds
        assert counter("reliable.watermarks_unacked") == 1
        assert counter("reliable.acks_sent") == len(ids) + CONFIG.heartbeat_rounds

    def test_untraced_loss_free_session_never_reads_the_slot(self, monkeypatch):
        """Zero-overhead-off: the watermark path consults the trace slot
        only in a heartbeat round, which a loss-free session has none of."""
        import repro.alm.reliable as reliable

        reads = []

        class Slot:
            @property
            def ACTIVE(self):
                reads.append(1)
                return None

        monkeypatch.setattr(reliable, "_trace_hooks", Slot())
        session, _, _ = tapped_session(random_ids(20))
        session.multicast(PAYLOADS)
        assert len(reads) == 1  # ReliableSession.multicast, once per session


class TestHeartbeatRescues:
    def test_member_that_lost_every_data_copy_completes(self):
        """No copy to detect a hole from: the upstream's heartbeat is the
        only way the victim learns the burst, and a NACK repairs it."""
        ids = random_ids(40)
        probe, _, _ = tapped_session(ids)
        probe.multicast(PAYLOADS)
        victim = next(
            node for node in probe.nodes.values() if node not in forwarders(probe)
        )
        plan = FaultPlan(seed=3).drop(
            1.0, match=lambda s, d, p: d == victim.host and mesh_copy(p)
        )
        session, wire, _ = tapped_session(ids, plan=plan)
        outcome = session.multicast(PAYLOADS)
        assert outcome.members_short() == []
        assert outcome.duplicates_surfaced == 0
        heartbeats = of_kind(wire, TmeshHeartbeat)
        assert [dst for _, _, dst, _ in heartbeats] == [victim.host]
        nacks = of_kind(wire, TmeshNack)
        assert [src for _, src, _, _ in nacks] == [victim.host]
        assert nacks[0][3].missing == tuple(range(len(PAYLOADS)))
        # NACKed nack_delay after the heartbeat arrived, to its sender
        hb_time, hb_src, _, _ = heartbeats[0]
        assert nacks[0][2] == hb_src
        assert nacks[0][0] > hb_time + CONFIG.nack_delay
        assert outcome.stats.acks_sent == len(ids)

    def test_forwarder_that_heard_nothing_relays_in_the_same_instant(self):
        ids = random_ids(40)
        probe, _, _ = tapped_session(ids)
        probe.multicast(PAYLOADS)
        server = probe.server.source_id
        victim = next(
            node
            for node in forwarders(probe)
            if node is not probe.server and node._level[server] == 1
        )
        below = [
            host
            for _, hosts in victim._next_hops(victim._level[server])
            for host in hosts
        ]
        plan = FaultPlan(seed=3).drop(
            1.0, match=lambda s, d, p: d == victim.host and mesh_copy(p)
        )
        session, wire, topology = tapped_session(ids, plan=plan)
        outcome = session.multicast(PAYLOADS)
        assert outcome.members_short() == []
        heartbeats = of_kind(wire, TmeshHeartbeat)
        to_victim = [h for h in heartbeats if h[2] == victim.host]
        assert len(to_victim) == 1
        learned_at = to_victim[0][0] + topology.one_way_delay(
            session.server.host, victim.host
        )
        relayed = [h for h in heartbeats if h[1] == victim.host]
        assert sorted(dst for _, _, dst, _ in relayed) == sorted(below)
        assert {t for t, _, _, _ in relayed} == {learned_at}
        assert all(hb.round == 0 for _, _, _, hb in relayed)
        # the whole subtree heard it once, hop by hop, and nobody else did
        upstream = {n.host: n._upstream[server] for n in probe.nodes.values()}
        subtree = {victim.host}
        while grown := {h for h, up in upstream.items() if up in subtree} - subtree:
            subtree |= grown
        assert sorted(dst for _, _, dst, _ in heartbeats) == sorted(subtree)
        assert len(subtree) > 1 + len(below)


class TestBackups:
    IDS = random_ids(40)

    def crashed_world(self, at, config=None):
        """K=4 tables; the server's first primary goes down at ``at``."""
        _, _, _, server_table = make_static_world(SCHEME, self.IDS, seed=0, k=4)
        victim = server_table.row_primaries(0)[0][1]
        plan = FaultPlan(seed=2).crash(host=victim.host, at=at)
        session, wire, _ = tapped_session(self.IDS, plan=plan, k=4, config=config)
        return session, wire, victim

    def test_backup_acks_and_the_dead_primary_is_never_asked(self):
        session, wire, victim = self.crashed_world(at=0.0)
        outcome = session.multicast(PAYLOADS)
        assert outcome.members_short() == [victim.user_id]
        assert all(dst != victim.host for _, _, dst, _ in wire)
        assert outcome.stats.heartbeats_sent == 0
        assert outcome.stats.acks_sent == len(session.nodes) - 1
        assert session.scheduler.pending == 0

    def test_primary_dying_mid_burst_hands_its_edge_to_the_backup(self):
        """The burst is already in flight to the primary when it dies:
        the first heartbeat round resolves the edge afresh, the backup
        learns the watermark from it, repairs, and heals the subtree."""
        session, wire, victim = self.crashed_world(at=0.001)
        outcome = session.multicast(PAYLOADS)
        assert outcome.members_short() == [victim.user_id]
        assert outcome.duplicates_surfaced == 0
        assert any(dst == victim.host and mesh_copy(p) for _, _, dst, p in wire)
        heartbeats = of_kind(wire, TmeshHeartbeat)
        assert heartbeats and all(dst != victim.host for _, _, dst, _ in heartbeats)
        assert session.scheduler.pending == 0

    def test_without_backups_the_dead_hop_costs_the_budget_and_no_more(self):
        config = ReliabilityConfig(use_backups=False, heartbeat_rounds=5)
        session, wire, victim = self.crashed_world(at=0.0, config=config)
        outcome = session.multicast(PAYLOADS)
        assert [dst for _, _, dst, _ in of_kind(wire, TmeshHeartbeat)] == [victim.host] * 5
        assert outcome.stats.heartbeats_sent == 5
        assert session.scheduler.pending == 0


class TestStreams:
    def test_second_burst_supersedes_the_first_watermark(self):
        ids = random_ids(30)
        session, wire, _ = tapped_session(ids)
        session.multicast(PAYLOADS)
        first = len(of_kind(wire, TmeshAck))
        outcome = session.multicast(["late-a", "late-b"])
        assert outcome.members_short() == []
        acks = of_kind(wire, TmeshAck)
        assert first == len(ids) and len(acks) == 2 * len(ids)
        last = len(PAYLOADS) + 1
        assert {ack.highest_seq for _, _, _, ack in acks[first:]} == {last}
        server = session.server.source_id
        for node in session.nodes.values():
            assert node._watches[server].highest == last
            assert node.delivered_payloads(server) == PAYLOADS + ["late-a", "late-b"]
        assert outcome.stats.heartbeats_sent == 0
        assert session.scheduler.pending == 0

    def test_second_burst_under_loss(self):
        ids = random_ids(30)
        plan = FaultPlan(seed=9).drop(0.15)
        session, _, _ = tapped_session(ids, plan=plan)
        session.multicast(PAYLOADS)
        outcome = session.multicast(["late-a", "late-b"])
        server = session.server.source_id
        for node in session.nodes.values():
            assert node.delivered_payloads(server) == PAYLOADS + ["late-a", "late-b"]
        assert outcome.duplicates_surfaced == 0

    def test_a_user_as_sender(self):
        ids = random_ids(30)
        sender = ids[11]
        session, wire, _ = tapped_session(ids)
        outcome = session.multicast(PAYLOADS, sender=sender)
        assert set(outcome.delivered) == set(ids) - {sender}
        assert outcome.members_short() == []
        assert outcome.stats.heartbeats_sent == 0
        assert outcome.stats.acks_sent == len(ids) - 1
        assert session.server.delivered == {}  # data transport: members only

        plan = FaultPlan(seed=4).drop(0.10)
        session, _, _ = tapped_session(ids, plan=plan)
        outcome = session.multicast(PAYLOADS, sender=sender)
        assert outcome.members_short() == []
        assert outcome.duplicates_surfaced == 0
        assert outcome.stats.heartbeats_sent > 0


# ----------------------------------------------------------------------
# At 256 members: the reliability regression and the work bound
# ----------------------------------------------------------------------
MEMBERS = 256


@pytest.fixture(scope="module")
def world():
    topology = build_topology("gtitm", MEMBERS + 1, seed=5, gtitm_params=SMALL_GTITM)
    return topology, build_group(topology, MEMBERS, seed=6)


def test_one_payload_at_twenty_percent_loss_leaves_nobody_short(world):
    """Forty seeded sessions; the flooded heartbeat left members short
    here (a flood dies at its first drop, and a lone payload leaves no
    later copy to detect the loss from)."""
    topology, group = world
    short = duplicates = 0
    for seed in range(40):
        plan = FaultPlan(seed=1000 + seed).drop(0.20)
        session = ReliableSession(group.tables, group.server_table, topology, plan=plan)
        outcome = session.multicast([b"rekey"])
        short += len(outcome.members_short())
        duplicates += outcome.duplicates_surfaced
    assert (short, duplicates) == (0, 0)


def test_loss_free_work_is_data_plus_acks_plus_one_timer_per_forwarder(world):
    """Exact event count of a loss-free session: one event per data copy,
    one per ack, one watch timer per node with next hops — and nothing
    else (no heartbeat, no NACK timer, no idle retry)."""
    topology, group = world
    session = ReliableSession(group.tables, group.server_table, topology)
    payloads = [f"p{i}".encode() for i in range(8)]
    outcome = session.multicast(payloads)
    stats = outcome.stats
    assert stats.data_sent == len(payloads) * MEMBERS  # Theorem 1, per payload
    assert stats.acks_sent == MEMBERS
    assert (stats.heartbeats_sent, stats.nacks_sent, stats.retransmissions) == (0, 0, 0)
    assert session.scheduler.events_processed == (
        stats.data_sent + stats.acks_sent + len(forwarders(session))
    )
    assert session.scheduler.pending == 0
