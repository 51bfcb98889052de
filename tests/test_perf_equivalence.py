"""Equivalence tests for the hot-path performance work.

Every optimization in the perf overhaul — cached IDs, dense RTT
matrices, batched Dijkstra, indexed session metrics, reusable session
plans, and batched table fills — claims
to be *semantically invisible*: same values, bit for bit, as the scalar
or sequential code it replaces.  This module is where those claims are
enforced, including under fault injection (``pytest -m faults``).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ids import Id, NULL_ID, PAPER_SCHEME
from repro.core.neighbor_table import NeighborTable, UserRecord
from repro.core.tmesh import plan_session, rekey_session, run_multicast
from repro.experiments.common import build_group, build_topology
from repro.experiments.latency_experiments import replication_seeds
from repro.faults import FaultPlan
from repro.net.topology import Topology, validate_rtt_matrix
from repro.perf import percentile_linear


# ----------------------------------------------------------------------
# Cached Id
# ----------------------------------------------------------------------
class TestCachedId:
    def test_hash_matches_digit_tuple(self):
        uid = Id([3, 1, 4, 1, 5])
        assert hash(uid) == hash((3, 1, 4, 1, 5))
        assert hash(uid) == hash(Id((3, 1, 4, 1, 5)))

    def test_prefixes_are_interned(self):
        uid = Id([9, 2, 6, 5, 3])
        assert uid.prefix(2) is uid.prefix(2)
        assert uid[:2] is uid.prefix(2)
        assert uid[:len(uid)] is uid
        assert uid.prefix(0) is NULL_ID
        assert uid[:0] is NULL_ID

    def test_slicing_matches_tuple_slicing(self):
        uid = Id([9, 2, 6, 5, 3])
        for start in range(6):
            for stop in range(6):
                assert Id(uid.digits[start:stop]) == uid[start:stop]
        assert uid[1:4].digits == (2, 6, 5)
        assert uid[2] == 6

    def test_single_pass_validation(self):
        with pytest.raises(ValueError):
            Id([1, -2, 3])
        coerced = Id(np.array([1, 2, 3], dtype=np.int64))
        assert all(type(d) is int for d in coerced.digits)
        assert hash(coerced) == hash(Id([1, 2, 3]))

    def test_pickle_roundtrip_drops_prefix_cache(self):
        uid = Id([7, 7, 0, 1, 2])
        uid.prefix(3)  # populate the per-instance cache
        clone = pickle.loads(pickle.dumps(uid))
        assert clone == uid
        assert hash(clone) == hash(uid)
        assert clone._prefixes is None  # cache not dragged through pickle

    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=8))
    def test_id_behaves_like_digit_tuple(self, digits):
        uid = Id(digits)
        assert tuple(uid) == tuple(digits)
        assert len(uid) == len(digits)
        assert uid == Id(tuple(digits))
        assert hash(uid) == hash(tuple(digits))


# ----------------------------------------------------------------------
# percentile_linear vs numpy
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
        min_size=1,
        max_size=40,
    ),
    st.floats(min_value=0.0, max_value=100.0),
)
@settings(max_examples=200, deadline=None)
def test_percentile_linear_matches_numpy(values, q):
    ours = percentile_linear(values, q)
    numpy_result = float(np.percentile(np.asarray(values, dtype=np.float64), q))
    assert ours == numpy_result  # bitwise, not approx


# ----------------------------------------------------------------------
# Dense RTT cache vs scalar topology access
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=["gtitm", "planetlab"])
def scalar_and_dense(request):
    """The same topology twice: one left scalar, one with the dense
    matrix built.  Same kind and seed, so scalar rtt() values agree."""
    scalar = build_topology(request.param, 32, seed=5, dense_rtt=False)
    dense = build_topology(request.param, 32, seed=5, dense_rtt=True)
    return scalar, dense


class TestDenseRttEquivalence:
    def test_matrix_entries_equal_scalar_rtt(self, scalar_and_dense):
        scalar, dense = scalar_and_dense
        m = dense.rtt_matrix_or_none()
        assert m is not None and not scalar.has_rtt_matrix()
        hosts = range(min(40, scalar.num_hosts))
        for a in hosts:
            for b in hosts:
                assert m[a, b] == scalar.rtt(a, b)

    def test_rtt_many_both_orientations(self, scalar_and_dense):
        scalar, dense = scalar_and_dense
        hosts = list(range(min(40, scalar.num_hosts)))
        src = hosts[-1]
        assert list(dense.rtt_many(src, hosts)) == [
            scalar.rtt(src, h) for h in hosts
        ]
        assert list(dense.rtt_to_many(src, hosts)) == [
            scalar.rtt(h, src) for h in hosts
        ]
        # The scalar fallbacks of the same methods agree too.
        assert list(scalar.rtt_many(src, hosts)) == [
            scalar.rtt(src, h) for h in hosts
        ]
        assert list(scalar.rtt_to_many(src, hosts)) == [
            scalar.rtt(h, src) for h in hosts
        ]

    def test_one_way_rows_equal_scalar_one_way(self, scalar_and_dense):
        scalar, dense = scalar_and_dense
        rows = dense.one_way_rows()
        assert rows is not None and scalar.one_way_rows() is None
        for a in range(min(20, scalar.num_hosts)):
            for b in range(min(20, scalar.num_hosts)):
                assert rows[a][b] == scalar.one_way_delay(a, b)

    def test_validate_rtt_matrix_vectorized_matches_scalar(
        self, scalar_and_dense
    ):
        _, dense = scalar_and_dense
        sample = range(0, min(30, dense.num_hosts), 3)
        assert validate_rtt_matrix(dense, sample) == validate_rtt_matrix(
            dense, sample, force_scalar=True
        )


def test_validate_rtt_matrix_reports_identical_violations():
    """A corrupted dense matrix must fall back to the scalar sweep and
    report the exact same messages the scalar path produces."""
    topology = build_topology("gtitm", 16, seed=3, dense_rtt=True)
    m = topology.ensure_rtt_matrix()
    m[1, 2] += 5.0  # asymmetry
    m[4, 4] = 1.0  # non-zero diagonal
    topology._rtt_rows = m.tolist()  # keep scalar rtt() consistent
    sample = range(6)
    vectorized = validate_rtt_matrix(topology, sample)
    scalar = validate_rtt_matrix(topology, sample, force_scalar=True)
    assert vectorized == scalar
    assert vectorized  # the corruption was detected


def test_validate_rtt_matrix_reports_from_the_checked_matrix():
    """Regression: corruption in the dense matrix must be reported even
    when the scalar row cache has drifted out of sync.  The old fallback
    re-read ``topology.rtt()`` (served from the stale rows), detected the
    dirt vectorized, then reported a clean [] — a silent false negative.
    """
    topology = build_topology("gtitm", 16, seed=3, dense_rtt=True)
    m = topology.ensure_rtt_matrix()
    m[1, 2] += 5.0  # asymmetry
    m[4, 4] = 1.0  # non-zero diagonal
    # _rtt_rows deliberately NOT refreshed: the two caches now disagree.
    problems = validate_rtt_matrix(topology, range(6))
    assert "rtt(4,4) = 1.0 != 0" in problems
    assert any("asymmetry" in p and "(1,2)" in p for p in problems)


class _AsymmetricTopology(Topology):
    """A raw scalar topology whose RTTs are genuinely asymmetric (the
    dense-cache constructors reject such matrices, so the validator's
    asymmetric branch is only reachable through a plain subclass)."""

    def __init__(self, matrix):
        self._m = np.asarray(matrix, dtype=np.float64)

    @property
    def num_hosts(self):
        return len(self._m)

    def rtt(self, a, b):
        return float(self._m[a, b])

    def access_rtt(self, host):
        return 0.5

    def _build_rtt_matrix(self):
        return self._m.copy()


_ASYMMETRIC = [
    [0.0, 10.0, 3.0],
    [12.0, 0.0, 4.0],
    [3.0, 4.0, -1.0],
]

#: The exact messages both validator paths must produce on _ASYMMETRIC,
#: in sweep order.  Locked verbatim: downstream tooling greps for them.
_ASYMMETRIC_MESSAGES = [
    "rtt asymmetry: (0,1) 10.0 vs 12.0",
    "rtt asymmetry: (1,0) 12.0 vs 10.0",
    "rtt(2,2) = -1.0 != 0",
    "rtt(2,2) = -1.0 < 0",
]


def test_validate_rtt_matrix_scalar_messages_locked():
    topology = _AsymmetricTopology(_ASYMMETRIC)
    assert (
        validate_rtt_matrix(topology, range(3), force_scalar=True)
        == _ASYMMETRIC_MESSAGES
    )


def test_validate_rtt_matrix_paths_identical_on_asymmetric_input():
    """The scalar fallback and the vectorized path must produce identical
    error messages on the same asymmetric input."""
    topology = _AsymmetricTopology(_ASYMMETRIC)
    scalar = validate_rtt_matrix(topology, range(3), force_scalar=True)
    topology.ensure_rtt_matrix()  # same values, now on the vectorized path
    vectorized = validate_rtt_matrix(topology, range(3))
    assert vectorized == scalar == _ASYMMETRIC_MESSAGES


# ----------------------------------------------------------------------
# Batched Dijkstra vs per-source
# ----------------------------------------------------------------------
def test_delays_from_many_matches_per_source_rows():
    topology = build_topology("gtitm", 32, seed=11, dense_rtt=False)
    graph = topology.graph
    sources = [0, 5, 3, 5, 1]  # duplicates on purpose
    batched = graph.delays_from_many(sources)
    for row, src in zip(batched, sources):
        assert np.array_equal(row, graph.delays_from(src))


# ----------------------------------------------------------------------
# Session metrics: index vs scan, plan vs classic
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_world():
    topology = build_topology("gtitm", 64, seed=20)
    group = build_group(topology, 64, seed=20)
    return topology, group


class TestSessionEquivalence:
    def test_indexed_metrics_match_scans(self, small_world):
        topology, group = small_world
        session = rekey_session(group.server_table, group.tables, topology)
        for member in group.tables:
            assert session.user_stress(member) == session.user_stress_scan(
                member
            )
            assert session.out_edges(member) == session.out_edges_scan(member)

    def test_index_rebuilds_after_edges_grow(self, small_world):
        topology, group = small_world
        session = rekey_session(group.server_table, group.tables, topology)
        member = next(iter(group.tables))
        before = session.user_stress(member)
        session.edges.append(session.edges[0]._replace(src=member))
        assert session.user_stress(member) == before + 1
        assert session.user_stress(member) == session.user_stress_scan(member)

    def test_session_plan_identical_to_classic(self, small_world):
        topology, group = small_world
        classic = rekey_session(group.server_table, group.tables, topology)
        plan = plan_session(group.server_table, group.tables)
        for _ in range(2):  # plan reuse must not drift
            planned = rekey_session(
                group.server_table, group.tables, topology, plan=plan
            )
            assert list(planned.receipts) == list(classic.receipts)
            assert planned.receipts == classic.receipts
            assert planned.edges == classic.edges
            assert planned.duplicate_copies == classic.duplicate_copies

    def test_session_survives_pickle(self, small_world):
        """A session crossing a process boundary ships its payload, not
        the source index, and the index rebuilds on the other side."""
        topology, group = small_world
        session = rekey_session(group.server_table, group.tables, topology)
        member = next(e.src for e in session.edges if e.src != session.sender)
        stress = session.user_stress(member)  # builds the index before the dump
        clone = pickle.loads(pickle.dumps(session))
        assert clone._src_index is None
        assert clone == session
        assert list(clone.receipts) == list(session.receipts)
        assert clone.user_stress(member) == stress > 0

    def test_classic_fast_and_general_drain_loops_agree(self, small_world):
        """A fault-free session must equal the backup-recovery run of
        forward_session with nothing to recover from (forced here by
        passing an impossible failed host)."""
        topology, group = small_world
        fast = run_multicast(group.server_table, group.tables, topology)
        general = run_multicast(
            group.server_table,
            group.tables,
            topology,
            failed_hosts={-1},
            use_backups=True,
        )
        assert list(fast.receipts) == list(general.receipts)
        assert fast.receipts == general.receipts
        assert fast.edges == general.edges
        assert fast.duplicate_copies == general.duplicate_copies


# ----------------------------------------------------------------------
# NeighborTable.fill vs sequential inserts
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_fill_matches_sequential_inserts(seed):
    rng = np.random.default_rng(seed)
    scheme = PAPER_SCHEME
    owner = UserRecord(Id([0, 0, 0, 0, 0]), host=0)
    offers = []
    seen_ids = {owner.user_id}
    for host in range(1, 40):
        while True:
            uid = Id(
                int(rng.integers(0, 3)) for _ in range(scheme.num_digits)
            )
            if uid not in seen_ids:  # fill() requires distinct-ID offers
                break
        seen_ids.add(uid)
        rtt = float(rng.integers(0, 6))  # coarse values force RTT ties
        offers.append((UserRecord(uid, host=host), rtt))

    sequential = NeighborTable(scheme, owner, k=2)
    for record, rtt in offers:
        sequential.insert(record, rtt)
    batched = NeighborTable(scheme, owner, k=2)
    by_slot = {}
    for record, rtt in offers:
        by_slot.setdefault(batched.slot_for(record), []).append((record, rtt))
    for slot, pairs in by_slot.items():
        batched.fill(slot, pairs)

    assert list(batched._entries) == list(sequential._entries)
    for slot, entry in sequential._entries.items():
        assert batched._entries[slot].neighbors == entry.neighbors
        assert batched._entries[slot].ids == entry.ids


def test_row_primaries_cache_invalidated_on_mutation():
    scheme = PAPER_SCHEME
    table = NeighborTable(scheme, UserRecord(Id([0] * 5), host=0), k=1)
    a = UserRecord(Id([1, 0, 0, 0, 0]), host=1)
    b = UserRecord(Id([2, 0, 0, 0, 0]), host=2)
    table.insert(a, 10.0)
    assert [j for j, _ in table.row_primaries(0)] == [1]
    table.insert(b, 5.0)
    assert [j for j, _ in table.row_primaries(0)] == [1, 2]
    table.remove(a.user_id)
    assert [j for j, _ in table.row_primaries(0)] == [2]


# ----------------------------------------------------------------------
# Replication seeds: the schedule every latency figure's runs follow
# ----------------------------------------------------------------------
def test_replication_seeds_are_stable():
    assert replication_seeds(7, 3) == [1007, 2007, 3007]


# ----------------------------------------------------------------------
# Synthesized RTTs vs the materialized dense matrix
# ----------------------------------------------------------------------
class TestSyntheticRttEquivalence:
    """On-demand RTT synthesis (the scale ladder's topology) claims the
    dense matrix is redundant: every value it would hold is recomputed
    bitwise-identically from coordinates on demand.  Enforced here at
    every size where both representations can exist."""

    @given(
        st.integers(min_value=2, max_value=1024),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_synthesized_rtts_bitwise_equal_dense_matrix(self, n, seed):
        from repro.net.synthetic import SyntheticRttTopology

        lazy = SyntheticRttTopology.seeded(n, seed)
        dense = SyntheticRttTopology.seeded(n, seed)
        matrix = dense.ensure_rtt_matrix()
        assert not lazy.has_rtt_matrix()
        hosts = list(range(n))
        # Every row, vectorized lazy synthesis vs the materialized matrix.
        for a in range(0, n, max(1, n // 16)):
            assert np.array_equal(matrix[a], lazy.rtt_many(a, hosts))
            assert np.array_equal(matrix[:, a], lazy.rtt_to_many(a, hosts))
        # Scalar synthesis agrees too (spot-checked pairs).
        rng = np.random.default_rng(seed)
        for a, b in rng.integers(0, n, size=(32, 2)):
            assert lazy.rtt(int(a), int(b)) == matrix[a, b]

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_seeded_synthesis_deterministic(self, seed):
        from repro.net.synthetic import SyntheticRttTopology

        one = SyntheticRttTopology.seeded(64, seed)
        two = SyntheticRttTopology.seeded(64, seed)
        assert one.coords.tobytes() == two.coords.tobytes()
        assert [one.rtt(0, b) for b in range(64)] == [
            two.rtt(0, b) for b in range(64)
        ]

    def test_rtt_properties(self):
        from repro.net.synthetic import SyntheticRttTopology

        topology = SyntheticRttTopology.seeded(40, 20)
        for a in range(0, 40, 7):
            assert topology.rtt(a, a) == 0.0
            for b in range(0, 40, 5):
                assert topology.rtt(a, b) == topology.rtt(b, a)
                # One-way delay is exactly the Euclidean distance.
                assert topology.one_way_delay(a, b) == topology.rtt(a, b) / 2.0

    def test_dense_materialization_guard(self):
        from repro.net.synthetic import SyntheticRttTopology

        topology = SyntheticRttTopology.seeded(128, 20, max_dense_hosts=64)
        with pytest.raises(RuntimeError, match="max_dense_hosts"):
            topology.ensure_rtt_matrix()
        # Lazy access keeps working above the guard.
        assert topology.rtt(0, 127) > 0.0
        assert len(topology.rtt_many(0, list(range(128)))) == 128


    def test_scalar_rows_wait_for_the_first_scalar_rtt(self):
        """The plain-float rows serve only scalar ``rtt``: building the
        topology, ``num_hosts`` and the vectorized surfaces allocate no
        per-host Python objects (traced memory stays near the coordinate
        array's size), and the first scalar call builds the rows."""
        import tracemalloc

        from repro.net.synthetic import SyntheticRttTopology

        n = 200_000
        tracemalloc.start()
        try:
            topology = SyntheticRttTopology.seeded(n, 20)
            assert topology.num_hosts == n
            hosts = list(range(0, n, 1000))
            many = topology.rtt_many(7, hosts)
            to_many = topology.rtt_to_many(7, hosts)
            nbytes = topology.coords.nbytes
            _, peak = tracemalloc.get_traced_memory()
            assert peak < 1.5 * nbytes
            assert "_coord_rows" not in vars(topology)
            assert topology.rtt(7, hosts[1]) == many[1] == to_many[1]
            assert "_coord_rows" in vars(topology)
            current, _ = tracemalloc.get_traced_memory()
            assert current > 4 * nbytes  # n two-float lists
        finally:
            tracemalloc.stop()

# ----------------------------------------------------------------------
# Under fault injection (pytest -m faults)
# ----------------------------------------------------------------------
@pytest.mark.faults
class TestEquivalenceUnderFaults:
    def test_dense_cache_invisible_to_faulty_sessions(self):
        """Identically seeded fault plans on scalar vs dense topologies
        must produce identical sessions — the dense cache cannot perturb
        fault outcomes."""
        results = []
        for dense_rtt in (False, True):
            topology = build_topology("gtitm", 48, seed=9, dense_rtt=dense_rtt)
            group = build_group(topology, 48, seed=9)
            plan = (
                FaultPlan(seed=13)
                .drop(0.1)
                .delay(0.2, jitter=25.0)
                .duplicate(0.05)
            )
            session = run_multicast(
                group.server_table, group.tables, topology, fault_plan=plan
            )
            results.append(session)
        scalar_session, dense_session = results
        assert list(scalar_session.receipts) == list(dense_session.receipts)
        assert scalar_session.receipts == dense_session.receipts
        assert scalar_session.edges == dense_session.edges
        assert (
            scalar_session.duplicate_copies == dense_session.duplicate_copies
        )

    def test_indexed_metrics_match_scans_with_duplicates(self):
        topology = build_topology("gtitm", 48, seed=9)
        group = build_group(topology, 48, seed=9)
        plan = FaultPlan(seed=21).duplicate(0.3).delay(0.2, jitter=40.0)
        session = run_multicast(
            group.server_table, group.tables, topology, fault_plan=plan
        )
        assert any(session.duplicate_copies.values())
        for member in group.tables:
            assert session.user_stress(member) == session.user_stress_scan(
                member
            )
            assert session.out_edges(member) == session.out_edges_scan(member)

    def test_failed_host_sessions_identical_with_dense_cache(self):
        sessions = []
        for dense_rtt in (False, True):
            topology = build_topology("gtitm", 48, seed=9, dense_rtt=dense_rtt)
            group = build_group(topology, 48, seed=9)
            failed = {group.records[uid].host for uid in list(group.tables)[:4]}
            sessions.append(
                run_multicast(
                    group.server_table,
                    group.tables,
                    topology,
                    failed_hosts=failed,
                    use_backups=True,
                )
            )
        scalar_session, dense_session = sessions
        assert scalar_session.receipts == dense_session.receipts
        assert scalar_session.edges == dense_session.edges
