"""The scale-ladder lane (``pytest -q -m scale``; docs/PERFORMANCE.md).

The large-N architecture rests on one claim: the streaming array path —
on-demand RTT synthesis, bit-packed codes, the stored per-shard ID trie,
packed-code membership — is *bitwise indistinguishable* from the dense
object path at every size where both can run.  This lane enforces the
claim three ways:

* property tests hold the array world and the streaming receipt digest
  equal to the object world and the dense ``SessionResult`` digest over
  random ``(N, seed)``;
* a hypothesis stateful machine drives join/leave churn through
  :class:`~repro.keytree.cluster.ClusterRekeyingTree`, asserting — after
  every batch — that the inner key tree holds exactly the leaders' paths
  and that ``ReliableOutcome``s are byte-equal between the dense-matrix
  and synthesized-RTT topologies;
* the 100k streaming rung runs bounded (well under the lane's 60 s
  budget) with the :class:`~repro.verify.checkers.
  StreamingDeliveryChecker` active and no dense matrix materializable.

The streaming digest is also pinned at 10³ and 10⁵ members, so moving
its hashing onto the digest thread cannot change its bytes, and that
thread's failure paths are tested to re-raise without hanging.

The 1M rung and the peak-RSS guard live in the bench lane
(``benchmarks/test_scale_rss.py``).
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.alm.reliable import ReliableSession
from repro.compute.arraytable import (
    new_receipt_digest,
    synthesize_clustered_codes,
)
from repro.compute.packing import pack_digits, pack_id
from repro.core.id_assignment import synthesize_clustered_ids
from repro.core.ids import Id, IdScheme
from repro.core.neighbor_table import (
    UserRecord,
    build_consistent_tables,
    build_server_table,
)
from repro.core.tmesh import rekey_session
from repro.keytree import ClusterRekeyingTree
from repro.net.planetlab import MatrixTopology
from repro.net.synthetic import SyntheticRttTopology
from repro.perf import scale
from repro.perf.scale import (
    build_array_world,
    build_scale_world,
    run_streaming_rekey,
)
from repro.verify import (
    ForwardPrefixChecker,
    InvariantViolation,
    StreamingDeliveryChecker,
    verification,
)

pytestmark = pytest.mark.scale


# ----------------------------------------------------------------------
# Array world == object world (construction equivalence)
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=1, max_value=512),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_array_world_reproduces_object_world(n, seed):
    """Identical RNG consumption: packing the object world's IDs in
    generation order must reproduce the array world's codes exactly,
    and the coordinate planes must match bitwise."""
    topology, _, tables = build_scale_world(n, seed=seed)
    world = build_array_world(n, seed=seed)
    object_codes = np.array(
        [pack_id(uid)[0] for uid in tables], dtype=np.uint64
    )
    assert np.array_equal(object_codes, world.codes)
    assert topology.coords.tobytes() == world.topology.coords.tobytes()


class _CountingRng:
    """A generator that counts its ``integers`` calls: one per
    rejection batch of the ID synthesis."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.batches = 0

    def integers(self, *args, **kwargs):
        self.batches += 1
        return self.rng.integers(*args, **kwargs)


@given(
    st.integers(min_value=64, max_value=128),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_code_synthesis_through_rejection_batches(n, seed):
    """With 128 possible IDs and ``n`` near capacity, duplicates force
    further batches, where the seen-set merge matters: the codes still
    equal packing the scalar generator's IDs, and both generators end
    in the same state."""
    bounds = (4, 4, 8)
    counting = _CountingRng(seed)
    codes = synthesize_clustered_codes(n, counting, bounds)
    scalar_rng = np.random.default_rng(seed)
    ids = synthesize_clustered_ids(n, scalar_rng, bounds)
    assert counting.batches >= 2
    assert codes.tolist() == [pack_digits(digits) for digits in ids]
    assert len(set(codes.tolist())) == n
    assert counting.rng.bit_generator.state == scalar_rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 20, 31])
def test_code_synthesis_with_duplicates_inside_a_batch(seed):
    """Eight IDs from a space of eight: nearly every batch draws the
    same code several times, so the first-occurrence dedup picks the
    minimum draw index of each run, whatever order the sort left it
    in."""
    bounds = (2, 2, 2)
    rng = np.random.default_rng(seed)
    codes = synthesize_clustered_codes(8, rng, bounds)
    scalar_rng = np.random.default_rng(seed)
    ids = synthesize_clustered_ids(8, scalar_rng, bounds)
    assert codes.tolist() == [pack_digits(digits) for digits in ids]
    assert rng.bit_generator.state == scalar_rng.bit_generator.state


@given(
    st.integers(min_value=1, max_value=256),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_streaming_digest_matches_dense_session(n, seed):
    """The stored-trie streaming fan-out reproduces the dense FORWARD
    fan-out receipt for receipt: one canonical digest."""
    topology, server_table, tables = build_scale_world(n, seed=seed)
    session = rekey_session(server_table, tables, topology)
    summary = run_streaming_rekey(build_array_world(n, seed=seed))
    assert session.canonical_receipt_digest() == summary.digest
    assert summary.num_receipts == len(session.receipts) == n
    assert summary.num_duplicates == sum(
        session.duplicate_copies.values()
    ) == 0


@pytest.mark.parametrize("n,seed", [(2048, 20), (4096, 5)])
def test_streaming_digest_matches_dense_session_large(n, seed):
    topology, server_table, tables = build_scale_world(n, seed=seed)
    session = rekey_session(server_table, tables, topology)
    summary = run_streaming_rekey(build_array_world(n, seed=seed))
    assert session.canonical_receipt_digest() == summary.digest


@pytest.mark.parametrize("n", [0, 1, 2])
def test_streaming_digest_matches_dense_session_tiny(n):
    """The smallest worlds hand the digest thread no row block, or one
    or two tiny ones, and still hash to the dense digest; with no
    members both are the digest of no bytes."""
    topology, server_table, tables = build_scale_world(n, seed=20)
    session = rekey_session(server_table, tables, topology)
    summary = run_streaming_rekey(build_array_world(n, seed=20))
    assert summary.digest == session.canonical_receipt_digest()
    if n == 0:
        assert summary.digest == new_receipt_digest().hexdigest()


#: Canonical receipt digests at seed 20 as hashing each shard's rows
#: inline computed them; the 10⁶ digest is pinned by the 1M rung in
#: ``benchmarks/test_scale_rss.py``.
PINNED_DIGEST_1K = "b3ed5136bc1edd4bc562d53110d00202"
PINNED_DIGEST_100K = "24e962041893c98cbdb12754d64b2247"


def test_streaming_digest_pinned_at_1k():
    summary = run_streaming_rekey(build_array_world(1_000, seed=20))
    assert summary.digest == PINNED_DIGEST_1K


# ----------------------------------------------------------------------
# The digest thread: failures propagate, nothing hangs or leaks
# ----------------------------------------------------------------------
class _FailingHasher:
    """A hasher whose ``update`` raises on the second block."""

    def __init__(self):
        self.blocks = 0

    def update(self, block):
        self.blocks += 1
        if self.blocks == 2:
            raise ValueError("hasher broke")


def _session_outcome(world, deadline=30.0):
    """Run one session on a thread of its own and fail if it is still
    running after ``deadline`` seconds; return what it returned or
    raised."""
    outcome = {}

    def run():
        try:
            outcome["summary"] = run_streaming_rekey(world)
        except Exception as exc:
            outcome["error"] = exc

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(deadline)
    assert not runner.is_alive(), "run_streaming_rekey hung"
    return outcome


def test_digest_failure_is_raised_and_the_thread_joined(monkeypatch):
    threads_before = threading.active_count()
    hashers = []

    def failing_digest():
        hashers.append(_FailingHasher())
        return hashers[-1]

    monkeypatch.setattr(scale, "new_receipt_digest", failing_digest)
    outcome = _session_outcome(build_array_world(4_000, seed=20))
    assert isinstance(outcome.get("error"), ValueError)
    assert str(outcome["error"]) == "hasher broke"
    assert hashers[0].blocks == 2  # the rest were drained, not hashed
    assert threading.active_count() == threads_before


def test_concurrent_sessions_under_rapid_switching_keep_the_digest():
    """Four sessions at once (each with its digest thread, so more
    threads than cores) with the interpreter switching threads every
    microsecond: a block hashed out of order, twice or not at all would
    change a digest."""
    world = build_array_world(1_000, seed=20)
    digests = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runners = [
            threading.Thread(
                target=lambda: digests.extend(
                    run_streaming_rekey(world).digest for _ in range(5)
                ),
                daemon=True,
            )
            for _ in range(4)
        ]
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join(60.0)
            assert not runner.is_alive(), "a session hung"
    finally:
        sys.setswitchinterval(interval)
    assert digests == [PINNED_DIGEST_1K] * 20


def test_shard_failure_mid_session_joins_the_digest_thread(monkeypatch):
    threads_before = threading.active_count()
    real_shards = scale.iter_streaming_shards

    def failing_shards(world, processing_delay=0.0):
        shards = real_shards(world, processing_delay)
        yield next(shards)
        yield next(shards)
        raise RuntimeError("shard DP broke")

    monkeypatch.setattr(scale, "iter_streaming_shards", failing_shards)
    outcome = _session_outcome(build_array_world(4_000, seed=20))
    assert isinstance(outcome.get("error"), RuntimeError)
    assert str(outcome["error"]) == "shard DP broke"
    assert threading.active_count() == threads_before


# ----------------------------------------------------------------------
# Cluster churn (stateful)
# ----------------------------------------------------------------------
class ShardedChurnMachine(RuleBasedStateMachine):
    """Joins, leaves, and batch rekeys through the cluster tree.

    After every step the tree must count exactly the present members;
    after every batch the inner key tree must hold exactly the leaders'
    paths, and a reliable rekey multicast must produce pickle-equal
    ``ReliableOutcome``s under the dense RTT matrix and the on-demand
    synthesized topology."""

    SCHEME = IdScheme(num_digits=3, base=4)
    NUM_HOSTS = 24  # member hosts 0..22, key server on 23

    def __init__(self):
        super().__init__()
        self.tree = ClusterRekeyingTree(self.SCHEME)
        self.present: dict = {}  # uid -> host, insertion order
        self.free_hosts = list(range(self.NUM_HOSTS - 1))
        self.lazy = SyntheticRttTopology.seeded(self.NUM_HOSTS, seed=99)
        self.dense = MatrixTopology(
            SyntheticRttTopology.seeded(
                self.NUM_HOSTS, seed=99
            ).ensure_rtt_matrix()
        )

    @rule(
        digits=st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
        )
    )
    def join(self, digits):
        uid = Id(digits)
        if uid in self.present:
            with pytest.raises(ValueError):
                self.tree.request_join(uid)
            return
        if not self.free_hosts:
            return
        self.tree.request_join(uid)
        self.present[uid] = self.free_hosts.pop(0)

    @rule(index=st.integers(min_value=0, max_value=10**6))
    def leave(self, index):
        if not self.present:
            return
        uid = list(self.present)[index % len(self.present)]
        self.tree.request_leave(uid)
        self.free_hosts.append(self.present.pop(uid))

    @rule(payload_count=st.integers(min_value=1, max_value=3))
    def batch(self, payload_count):
        self.tree.process_batch()
        # Key-tree state: the inner tree's u-nodes are exactly the
        # leaders, its k-nodes exactly the leaders' path prefixes.
        leaders = {self.tree.leader_of(uid) for uid in self.present}
        assert self.tree.key_tree.user_ids == leaders
        expected_nodes = {
            leader.prefix(level)
            for leader in leaders
            for level in range(self.SCHEME.num_digits + 1)
        }
        assert set(self.tree.key_tree.node_ids()) == expected_nodes
        if len(self.present) < 2:
            return
        # Dense-matrix vs synthesized-RTT reliable rekey: byte-equal.
        records = [
            UserRecord(uid, host)
            for uid, host in sorted(
                self.present.items(), key=lambda kv: kv[1]
            )
        ]
        payloads = [f"key{i}" for i in range(payload_count)]
        outcomes = []
        for topology in (self.dense, self.lazy):
            tables = build_consistent_tables(
                self.SCHEME, records, topology.rtt, k=1
            )
            server_table = build_server_table(
                self.SCHEME, self.NUM_HOSTS - 1, records, topology.rtt, k=1
            )
            session = ReliableSession(tables, server_table, topology)
            outcome = session.multicast(payloads)
            assert outcome.delivery_ratio == 1.0
            assert outcome.duplicates_surfaced == 0
            outcomes.append(
                pickle.dumps(
                    (
                        outcome.source,
                        outcome.payloads,
                        outcome.delivered,
                        outcome.missing,
                        outcome.stats,
                        outcome.per_node,
                    )
                )
            )
        assert outcomes[0] == outcomes[1]

    @invariant()
    def membership_counts(self):
        assert self.tree.num_users == len(self.present)
        assert self.tree.num_clusters == len(
            {self.tree.cluster_of(uid) for uid in self.present}
        )


TestShardedChurn = ShardedChurnMachine.TestCase


def test_rejoin_within_interval_keeps_cluster_and_tree_consistent():
    """A member that leaves and rejoins inside one rekey interval used
    to crash the inner key tree on the leadership hand-off; now the
    pending leave is cancelled and the path still rotates."""
    scheme = IdScheme(num_digits=3, base=4)
    tree = ClusterRekeyingTree(scheme)
    leader, follower = Id([0, 1, 2]), Id([0, 1, 3])
    for uid in (leader, follower):
        tree.request_join(uid)
    # The leader leaves (hand-off to follower), then rejoins, then the
    # follower leaves (hand-off straight back) — all in one interval.
    assert tree.request_leave(leader) is True
    assert tree.request_join(leader) is False
    assert tree.request_leave(follower) is True
    tree.process_batch()
    assert tree.key_tree.user_ids == {leader}


# ----------------------------------------------------------------------
# ForwardPrefixChecker: fast vectorized verdict == scalar sweep
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def verified_scale_session():
    topology, server_table, tables = build_scale_world(1024, seed=20)
    return rekey_session(server_table, tables, topology)


def test_forward_prefix_fast_path_clean_agrees_with_scan(
    verified_scale_session,
):
    checker = ForwardPrefixChecker()
    assert checker.check(verified_scale_session) == []
    assert checker.check(verified_scale_session, force_scan=True) == []


def test_forward_prefix_fast_path_dirty_reports_identical():
    """Tampering must route the fast path to the scalar sweep, so the
    report strings are the scalar path's, verbatim."""
    topology, server_table, tables = build_scale_world(256, seed=20)
    session = rekey_session(server_table, tables, topology)
    victim = next(
        member
        for member, receipt in session.receipts.items()
        if receipt.forward_level >= 2
    )
    session.receipts[victim] = session.receipts[victim]._replace(
        forward_level=1
    )
    checker = ForwardPrefixChecker()
    fast = checker.check(session)
    scan = checker.check(session, force_scan=True)
    assert fast == scan
    assert fast  # the tampering was detected


# ----------------------------------------------------------------------
# StreamingDeliveryChecker + the 100k rung
# ----------------------------------------------------------------------
def test_streaming_checker_flags_corrupt_aggregates():
    world = build_array_world(512, seed=20)
    summary = run_streaming_rekey(world)
    checker = StreamingDeliveryChecker()
    assert checker.check(summary, expected_members=512) == []

    import dataclasses

    dup = dataclasses.replace(summary, num_duplicates=3)
    assert any(
        "duplicate" in r.detail for r in checker.check(dup, 512)
    )
    short = dataclasses.replace(summary, num_receipts=511, num_edges=511)
    assert checker.check(short, 512)
    wrong_world = checker.check(summary, expected_members=100)
    assert wrong_world

    with pytest.raises(InvariantViolation):
        with verification(seed=20) as ctx:
            ctx.observe_streaming(dup, expected_members=512)


def test_streaming_100k_rung_bounded():
    """The lane's large rung: 100k members, streamed per shard, under
    an active verification context, with no dense RTT matrix possible."""
    world = build_array_world(100_000, seed=20)
    with pytest.raises(RuntimeError, match="max_dense_hosts"):
        world.topology.ensure_rtt_matrix()
    with verification(seed=20) as ctx:
        summary = run_streaming_rekey(world)
        assert ctx.sessions_checked == 1
    assert summary.num_members == 100_000
    assert summary.num_receipts == summary.num_edges == 100_000
    assert summary.num_duplicates == 0
    assert summary.num_shards == 8  # SCALE_DIGIT_BOUNDS[0]
    assert summary.level_counts[0] == 0
    assert sum(summary.level_counts) == 100_000
    assert summary.max_arrival > 0.0
    assert summary.digest == PINNED_DIGEST_100K
