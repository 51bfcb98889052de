"""Tests for the T-mesh multicast scheme: Theorem 1, Lemmas 1–2, and the
Section 4.1 latency metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.id_tree import IdTree
from repro.core.ids import Id, IdScheme, NULL_ID
from repro.core.neighbor_table import (
    UserRecord,
    build_consistent_tables,
    build_server_table,
)
from repro.core.tmesh import (
    data_session,
    plan_session,
    rekey_session,
    run_multicast,
)
from repro.net.planetlab import MatrixTopology

FIG1_SCHEME = IdScheme(num_digits=2, base=3)
FIG1_IDS = [Id([0, 0]), Id([0, 1]), Id([2, 0]), Id([2, 1]), Id([2, 2])]


def build_world(scheme, ids, seed=0, k=1, server_host=None):
    """Random-geometry topology + consistent tables for a given ID set."""
    n = len(ids) + 1
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 100, size=(n, 2))
    matrix = np.sqrt(
        ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    )
    matrix = (matrix + matrix.T) / 2
    np.fill_diagonal(matrix, 0.0)
    topology = MatrixTopology(matrix)
    records = [UserRecord(uid, host) for host, uid in enumerate(ids)]
    tables = build_consistent_tables(scheme, records, topology.rtt, k=k)
    server = server_host if server_host is not None else n - 1
    server_table = build_server_table(scheme, server, records, topology.rtt, k=k)
    return topology, records, tables, server_table


class TestFig3Example:
    """The example rekey multicast tree of Fig. 3."""

    def test_every_user_receives_exactly_once(self):
        topology, _, tables, server_table = build_world(FIG1_SCHEME, FIG1_IDS)
        session = rekey_session(server_table, tables, topology)
        assert set(session.receipts) == set(FIG1_IDS)
        assert session.duplicate_copies == {}

    def test_server_sends_one_copy_per_level1_subtree(self):
        topology, _, tables, server_table = build_world(FIG1_SCHEME, FIG1_IDS)
        session = rekey_session(server_table, tables, topology)
        server_edges = [e for e in session.edges if e.src == NULL_ID]
        # two level-1 subtrees exist ([0] and [2]) => two copies sent
        assert len(server_edges) == 2
        first_digits = sorted(e.dst[0] for e in server_edges)
        assert first_digits == [0, 2]

    def test_forwarding_levels_increase_along_tree(self):
        topology, _, tables, server_table = build_world(FIG1_SCHEME, FIG1_IDS)
        session = rekey_session(server_table, tables, topology)
        for receipt in session.receipts.values():
            assert 1 <= receipt.forward_level <= FIG1_SCHEME.num_digits


class TestTheorem1:
    """Exactly-once delivery under 1-consistent tables."""

    @given(
        st.sets(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=30),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_rekey_exactly_once(self, id_tuples, seed):
        scheme = IdScheme(3, 4)
        ids = [Id(t) for t in sorted(id_tuples)]
        topology, _, tables, server_table = build_world(scheme, ids, seed=seed)
        session = rekey_session(server_table, tables, topology)
        assert set(session.receipts) == set(ids)
        assert session.duplicate_copies == {}

    @given(
        st.sets(st.tuples(*[st.integers(0, 3)] * 3), min_size=2, max_size=30),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_data_exactly_once(self, id_tuples, seed):
        scheme = IdScheme(3, 4)
        ids = [Id(t) for t in sorted(id_tuples)]
        topology, _, tables, _ = build_world(scheme, ids, seed=seed)
        rng = np.random.default_rng(seed)
        sender = ids[int(rng.integers(0, len(ids)))]
        session = data_session(sender, tables, topology)
        assert set(session.receipts) == set(ids) - {sender}
        assert session.duplicate_copies == {}

    def test_k4_tables_also_deliver_exactly_once(self):
        scheme = IdScheme(3, 4)
        rng = np.random.default_rng(5)
        ids = [
            Id(t)
            for t in sorted(
                {tuple(int(rng.integers(0, 4)) for _ in range(3)) for _ in range(25)}
            )
        ]
        topology, _, tables, server_table = build_world(scheme, ids, k=4)
        session = rekey_session(server_table, tables, topology)
        assert set(session.receipts) == set(ids)
        assert session.duplicate_copies == {}


class TestLemmas:
    """Lemma 1: a level-i member and its downstream users share
    ID[0:i-1].  Lemma 2: any member sharing that prefix IS downstream."""

    def _session(self, seed=3):
        scheme = IdScheme(3, 4)
        rng = np.random.default_rng(seed)
        ids = [
            Id(t)
            for t in sorted(
                {tuple(int(rng.integers(0, 4)) for _ in range(3)) for _ in range(30)}
            )
        ]
        topology, _, tables, server_table = build_world(scheme, ids, seed=seed)
        return rekey_session(server_table, tables, topology), ids

    def test_lemma1_downstream_share_prefix(self):
        session, _ = self._session()
        for member, receipt in session.receipts.items():
            level = receipt.forward_level
            for down in session.downstream_users(member):
                assert down.shares_prefix(member, level), (
                    f"{down} at downstream of level-{level} {member}"
                )

    def test_lemma2_prefix_sharers_are_downstream(self):
        session, ids = self._session()
        for member, receipt in session.receipts.items():
            level = receipt.forward_level
            downstream = set(session.downstream_users(member))
            for other in ids:
                if other == member:
                    continue
                if other.shares_prefix(member, level):
                    assert other in downstream


class TestMetrics:
    def test_app_delay_is_sum_of_hop_delays(self):
        topology, _, tables, server_table = build_world(FIG1_SCHEME, FIG1_IDS)
        session = rekey_session(server_table, tables, topology)
        for member, receipt in session.receipts.items():
            # reconstruct path delay from upstream chain
            delay = 0.0
            node = member
            while node != NULL_ID:
                r = session.receipts[node]
                prev_host = (
                    session.sender_host
                    if r.upstream == NULL_ID
                    else session.receipts[r.upstream].host
                )
                delay += topology.one_way_delay(prev_host, r.host)
                node = r.upstream
            assert receipt.arrival_time == pytest.approx(delay)

    def test_rdp_at_least_one_for_direct_children(self):
        topology, _, tables, server_table = build_world(FIG1_SCHEME, FIG1_IDS)
        session = rekey_session(server_table, tables, topology)
        for member, receipt in session.receipts.items():
            if receipt.upstream == NULL_ID:
                assert session.rdp(member, topology) == pytest.approx(1.0)

    def test_user_stress_counts_forwards(self):
        topology, _, tables, server_table = build_world(FIG1_SCHEME, FIG1_IDS)
        session = rekey_session(server_table, tables, topology)
        total_forwards = sum(
            session.user_stress(uid) for uid in FIG1_IDS
        ) + session.user_stress(NULL_ID)
        assert total_forwards == len(session.edges)

    def test_processing_delay_adds_per_hop(self):
        topology, _, tables, server_table = build_world(FIG1_SCHEME, FIG1_IDS)
        base = rekey_session(server_table, tables, topology)
        slowed = rekey_session(server_table, tables, topology, processing_delay=5.0)
        for member in base.receipts:
            hops = 1
            node = member
            while base.receipts[node].upstream != NULL_ID:
                node = base.receipts[node].upstream
                hops += 1
            assert slowed.receipts[member].arrival_time >= (
                base.receipts[member].arrival_time
            )

    def test_data_session_rejects_non_member(self):
        topology, _, tables, _ = build_world(FIG1_SCHEME, FIG1_IDS)
        with pytest.raises(ValueError):
            data_session(Id([1, 1]), tables, topology)
        with pytest.raises(ValueError):
            data_session(NULL_ID, tables, topology)

    def test_rekey_session_requires_server_table(self):
        topology, _, tables, _ = build_world(FIG1_SCHEME, FIG1_IDS)
        with pytest.raises(ValueError):
            rekey_session(tables[FIG1_IDS[0]], tables, topology)


class TestFailureResilience:
    """Section 2.3: with K > 1, a forwarder routes around a failed next
    hop using another neighbor from the same table entry."""

    def _world(self, k, seed=9):
        scheme = IdScheme(3, 4)
        rng = np.random.default_rng(seed)
        ids = [
            Id(t)
            for t in sorted(
                {tuple(int(rng.integers(0, 4)) for _ in range(3)) for _ in range(40)}
            )
        ]
        return build_world(scheme, ids, seed=seed, k=k), ids

    def test_failures_cut_subtrees_without_backups(self):
        (topology, _, tables, server_table), ids = self._world(k=4)
        # fail the server's first primary: its subtree loses delivery
        victim = server_table.row_primaries(0)[0][1]
        session = run_multicast(
            server_table,
            tables,
            topology,
            failed_hosts={victim.host},
            use_backups=False,
        )
        assert victim.user_id not in session.receipts
        assert len(session.receipts) < len(ids) - 1

    def test_backups_restore_delivery(self):
        (topology, _, tables, server_table), ids = self._world(k=4)
        victim = server_table.row_primaries(0)[0][1]
        session = run_multicast(
            server_table,
            tables,
            topology,
            failed_hosts={victim.host},
            use_backups=True,
        )
        # every live member delivered exactly once
        assert set(session.receipts) == set(ids) - {victim.user_id}
        assert session.duplicate_copies == {}

    def test_k1_cannot_route_around(self):
        (topology, _, tables, server_table), ids = self._world(k=1)
        victim = server_table.row_primaries(0)[0][1]
        subtree_size = sum(
            1 for uid in ids if uid.shares_prefix(victim.user_id, 1)
        )
        session = run_multicast(
            server_table,
            tables,
            topology,
            failed_hosts={victim.host},
            use_backups=True,
        )
        if subtree_size > 1:
            # with no backups in the entry, the whole subtree stays dark
            assert len(session.receipts) <= len(ids) - subtree_size

    def test_multiple_failures_with_backups(self):
        (topology, _, tables, server_table), ids = self._world(k=4)
        rng = np.random.default_rng(3)
        victims = {tables[uid].owner.host for uid in list(ids)[::7]}
        victim_ids = {uid for uid in ids if tables[uid].owner.host in victims}
        session = run_multicast(
            server_table,
            tables,
            topology,
            failed_hosts=victims,
            use_backups=True,
        )
        live = set(ids) - victim_ids
        # backups may not save subtrees whose entire entries failed, but
        # coverage must beat the no-backup run
        plain = run_multicast(
            server_table,
            tables,
            topology,
            failed_hosts=victims,
            use_backups=False,
        )
        assert len(set(session.receipts) & live) >= len(set(plain.receipts) & live)
        assert session.duplicate_copies == {}


def test_plan_survives_a_leave():
    """A plan made before a leave must not forward to the leaver: a
    departed member reads nothing sent after it left."""
    from repro.experiments.common import build_group, build_topology

    topology = build_topology("gtitm", 64, seed=20)
    group = build_group(topology, 64, seed=20)
    plan = plan_session(group.server_table, group.tables)
    first = rekey_session(group.server_table, group.tables, topology, plan=plan)
    victim = next(iter(first.receipts))
    group.leave(victim)
    planned = rekey_session(group.server_table, group.tables, topology, plan=plan)
    assert planned == rekey_session(group.server_table, group.tables, topology)
    assert victim not in planned.receipts


def test_plan_for_other_tables_is_rejected():
    """A plan runs over its own tables dict, so handing rekey_session a
    different one beside it must raise, not be silently ignored."""
    topology, _, tables, server_table = build_world(FIG1_SCHEME, FIG1_IDS)
    plan = plan_session(server_table, tables)
    fewer = {uid: tables[uid] for uid in FIG1_IDS[:-1]}
    with pytest.raises(ValueError, match="different server table or tables"):
        rekey_session(server_table, fewer, topology, plan=plan)
    assert rekey_session(server_table, tables, topology, plan=plan).receipts
