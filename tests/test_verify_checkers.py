"""Unit and integration tests for the invariant-checker subsystem.

Covers each checker against hand-corrupted state, the differential
oracle's zero-diff guarantee on clean sessions (bitwise arrival times),
the structured :class:`InvariantViolation` contract (checker name, seed,
offending IDs, repro snippet), the hook layer's install/uninstall
semantics, the CSV export, and the ``--verify`` CLI surface.
"""

import numpy as np
import pytest

from tests.conftest import SMALL_SCHEME, make_static_world
from repro.core.ids import Id
from repro.core.id_tree import IdTree
from repro.core.tmesh import Receipt, data_session, rekey_session
from repro.keytree.modified_tree import ModifiedKeyTree
from repro.metrics.export import write_violation_reports
from repro.verify import (
    DifferentialOracle,
    ExactlyOnceChecker,
    ForwardPrefixChecker,
    InvariantViolation,
    KConsistencyChecker,
    KeyIdResolutionChecker,
    TreeAgreementChecker,
    VerificationContext,
    ViolationReport,
    active,
    install,
    uninstall,
    verification,
)

pytestmark = pytest.mark.verify


def random_ids(n, seed=9, scheme=SMALL_SCHEME):
    rng = np.random.default_rng(seed)
    seen = set()
    while len(seen) < n:
        seen.add(
            tuple(int(rng.integers(0, scheme.base)) for _ in range(scheme.num_digits))
        )
    return [Id(t) for t in sorted(seen)]


@pytest.fixture
def world():
    ids = random_ids(30)
    return ids, make_static_world(SMALL_SCHEME, ids, seed=3, k=2)


def cut_server_subtree(server_table):
    """Empty one non-empty (0, j) server-table entry — with both the
    primary and backup gone, the whole level-1 subtree is unreachable.
    Returns the removed records' user IDs."""
    for j in range(server_table.scheme.base):
        victims = [r.user_id for r in list(server_table.entry(0, j))]
        if victims:
            for uid in victims:
                server_table.remove(uid)
            return victims
    raise AssertionError("server table had no non-empty entry")


# ----------------------------------------------------------------------
# Session checkers
# ----------------------------------------------------------------------
class TestExactlyOnceChecker:
    def test_clean_session_yields_no_reports(self, world):
        ids, (topology, _, tables, server_table) = world
        session = rekey_session(server_table, tables, topology)
        assert ExactlyOnceChecker().check(session, tables.keys()) == []

    def test_missing_member_reported_with_ids(self, world):
        ids, (topology, _, tables, server_table) = world
        session = rekey_session(server_table, tables, topology)
        victim = next(iter(session.receipts))
        del session.receipts[victim]
        reports = ExactlyOnceChecker().check(
            session, tables.keys(), seed=3, repro="snippet"
        )
        assert len(reports) == 1
        report = reports[0]
        assert report.checker == "exactly-once"
        assert report.citation == "Theorem 1"
        assert str(victim) in report.offending_ids
        assert report.seed == 3
        assert report.repro == "snippet"

    def test_duplicates_reported(self, world):
        ids, (topology, _, tables, server_table) = world
        session = rekey_session(server_table, tables, topology)
        session.duplicate_copies[ids[0]] = 2
        reports = ExactlyOnceChecker().check(session, tables.keys())
        assert [r for r in reports if "duplicate" in r.detail]

    def test_non_member_receipt_reported(self, world):
        ids, (topology, _, tables, server_table) = world
        session = rekey_session(server_table, tables, topology)
        from itertools import product

        ghost = next(
            Id(t)
            for t in product(range(SMALL_SCHEME.base), repeat=SMALL_SCHEME.num_digits)
            if Id(t) not in tables
        )
        session.receipts[ghost] = Receipt(ghost, 99, 1.0, 1, session.sender)
        reports = ExactlyOnceChecker().check(session, tables.keys())
        assert any(str(ghost) in r.offending_ids for r in reports)


class TestForwardPrefixChecker:
    def test_clean_session_yields_no_reports(self, world):
        ids, (topology, _, tables, server_table) = world
        session = data_session(ids[0], tables, topology)
        assert ForwardPrefixChecker().check(session) == []

    def test_wrong_forward_level_breaks_a_lemma(self, world):
        """Bumping one receipt's level must violate Lemma 1 or Lemma 2
        (which one depends on where the member sits in the tree)."""
        ids, (topology, _, tables, server_table) = world
        session = rekey_session(server_table, tables, topology)
        member = max(
            session.receipts,
            key=lambda m: len(list(session.downstream_users(m))),
        )
        r = session.receipts[member]
        session.receipts[member] = Receipt(
            r.member, r.host, r.arrival_time, r.forward_level + 1, r.upstream
        )
        reports = ForwardPrefixChecker().check(session)
        assert reports
        assert all(r.citation == "Lemmas 1-2" for r in reports)

    def test_lossy_mode_skips_lemma2(self, world):
        """A leaf claiming a lower forwarding level than it had violates
        Lemma 2 (prefix-sharers exist that are not downstream of it) but
        not Lemma 1 (it has no downstream users) — exactly the converse
        that stops being a theorem under loss, so lossless=False must
        accept what lossless=True flags."""
        ids, (topology, _, tables, server_table) = world
        session = rekey_session(server_table, tables, topology)
        leaf = next(
            m
            for m in session.receipts
            if session.receipts[m].forward_level > 1
            and not list(session.downstream_users(m))
            and any(o != m and o[0] == m[0] for o in session.receipts)
        )
        r = session.receipts[leaf]
        session.receipts[leaf] = Receipt(
            r.member, r.host, r.arrival_time, 1, r.upstream
        )
        assert ForwardPrefixChecker().check(session, lossless=True) != []
        assert ForwardPrefixChecker().check(session, lossless=False) == []


# ----------------------------------------------------------------------
# Table checker: the corrupted-fixture acceptance scenario
# ----------------------------------------------------------------------
class TestKConsistencyChecker:
    def test_clean_tables_pass(self, world):
        ids, (topology, _, tables, server_table) = world
        tree = IdTree(SMALL_SCHEME, ids)
        assert KConsistencyChecker().check(tables, tree, 2) == []

    def test_corrupted_table_fixture_triggers_structured_violation(self, world):
        """The acceptance scenario: deliberately corrupt one neighbor
        table, run under a verification context, and demand a structured
        InvariantViolation carrying checker name, seed, and repro."""
        ids, (topology, _, tables, server_table) = world
        tree = IdTree(SMALL_SCHEME, ids)
        owner = ids[5]
        record = next(tables[owner].all_records())
        tables[owner].remove(record.user_id)  # K-consistency now broken
        context = VerificationContext(seed=1234, oracle=False)
        with pytest.raises(InvariantViolation) as exc_info:
            context.observe_tables(tables, tree, 2)
        violation = exc_info.value
        assert set(violation.checkers) == {"k-consistency"}
        report = violation.reports[0]
        assert report.citation == "Definition 3"
        assert report.seed == 1234
        assert "seed=1234" in report.repro
        assert str(owner) in report.detail

    def test_corrupted_server_table_caught_in_flight(self, world):
        """Corrupting the server table makes the live multicast itself
        violate Theorem 1 — the session hook must raise mid-experiment
        with the unreachable members listed."""
        ids, (topology, _, tables, server_table) = world
        victims = cut_server_subtree(server_table)
        with pytest.raises(InvariantViolation) as exc_info:
            with verification(seed=7):
                rekey_session(server_table, tables, topology)
        assert "exactly-once" in exc_info.value.checkers
        missing = next(
            r for r in exc_info.value.reports if r.checker == "exactly-once"
        )
        assert str(victims[0]) in missing.offending_ids
        assert missing.seed == 7


# ----------------------------------------------------------------------
# Key-tree checkers
# ----------------------------------------------------------------------
class TestTreeAgreementChecker:
    def make_tree(self, n=12):
        tree = ModifiedKeyTree(SMALL_SCHEME)
        for uid in random_ids(n, seed=4):
            tree.request_join(uid)
        tree.process_batch()
        return tree

    def test_clean_tree_passes(self):
        assert TreeAgreementChecker().check(self.make_tree()) == []

    def test_ghost_key_node_reported(self):
        tree = self.make_tree()
        ghost = Id((0,) * SMALL_SCHEME.num_digits)
        assert not tree.has_node(ghost)
        tree._versions[ghost] = 0
        reports = TreeAgreementChecker().check(tree)
        assert len(reports) == 1
        assert "no ID-tree counterpart" in reports[0].detail
        assert str(ghost) in reports[0].offending_ids

    def test_missing_key_node_reported(self):
        tree = self.make_tree()
        victim = next(iter(tree.user_ids))
        del tree._versions[victim]
        reports = TreeAgreementChecker().check(tree)
        assert len(reports) == 1
        assert "hold no key" in reports[0].detail


class TestKeyIdResolutionChecker:
    def make_message(self, n=12):
        tree = ModifiedKeyTree(SMALL_SCHEME)
        for uid in random_ids(n, seed=4):
            tree.request_join(uid)
        message = tree.process_batch()
        return tree, message

    def test_clean_rekey_message_passes(self):
        tree, message = self.make_message()
        assert (
            KeyIdResolutionChecker().check(message, tree.user_ids, SMALL_SCHEME)
            == []
        )

    def test_unresolvable_encryption_reported(self):
        """Dropping an encryption that is some member's only way to an
        updated key strands that member (Lemma 3's resolution closure)."""
        tree, message = self.make_message()
        by_new = {}
        for enc in message.encryptions:
            by_new.setdefault(enc.new_key_id, []).append(enc)
        victim = stranded = None
        for key_id, encs in by_new.items():
            for candidate in encs:
                for user in tree.user_ids:
                    if not key_id.is_prefix_of(user):
                        continue
                    if candidate.encrypting_key_id.is_prefix_of(user) and not any(
                        e is not candidate and e.encrypting_key_id.is_prefix_of(user)
                        for e in encs
                    ):
                        victim, stranded = candidate, user
                        break
                if victim:
                    break
            if victim:
                break
        assert victim is not None, "no sole-coverage encryption in batch"
        from repro.keytree.keys import RekeyMessage

        pruned = RekeyMessage(
            message.interval,
            [e for e in message.encryptions if e is not victim],
        )
        reports = KeyIdResolutionChecker().check(
            pruned, tree.user_ids, SMALL_SCHEME
        )
        assert reports
        assert all(r.checker == "key-id-resolution" for r in reports)
        assert any(str(stranded) in r.offending_ids for r in reports)


# ----------------------------------------------------------------------
# Differential oracle
# ----------------------------------------------------------------------
class TestDifferentialOracle:
    def test_zero_diff_on_clean_sessions_bitwise(self, world):
        """The reference BFS reproduces the event loop's receipts, edges,
        levels, and arrival times bitwise (time_tolerance=0)."""
        ids, (topology, _, tables, server_table) = world
        oracle = DifferentialOracle()
        for session, sender_table in (
            (rekey_session(server_table, tables, topology, 0.002), server_table),
            (data_session(ids[3], tables, topology), tables[ids[3]]),
        ):
            delay = 0.002 if sender_table is server_table else 0.0
            assert (
                oracle.diff(
                    session,
                    oracle.reference(sender_table, tables, topology, delay),
                )
                == []
            )

    def test_arrival_time_corruption_diffed(self, world):
        ids, (topology, _, tables, server_table) = world
        session = rekey_session(server_table, tables, topology)
        member = next(iter(session.receipts))
        r = session.receipts[member]
        session.receipts[member] = Receipt(
            r.member, r.host, r.arrival_time + 1e-9, r.forward_level, r.upstream
        )
        reference = DifferentialOracle().reference(server_table, tables, topology)
        problems = DifferentialOracle().diff(session, reference)
        assert any("arrival" in p for p in problems)
        # ... and a tolerant oracle accepts the same perturbation.
        assert DifferentialOracle(time_tolerance=1e-6).diff(session, reference) == []

    def test_edge_corruption_diffed(self, world):
        ids, (topology, _, tables, server_table) = world
        session = rekey_session(server_table, tables, topology)
        session.edges.pop()
        problems = DifferentialOracle().diff(
            session, DifferentialOracle().reference(server_table, tables, topology)
        )
        assert any("edge count" in p for p in problems)

    def test_table_drift_between_run_and_replay_diffed(self, world):
        """A session recorded against richer tables must diff against a
        replay over corrupted ones — the oracle detects table drift, not
        just result corruption."""
        ids, (topology, _, tables, server_table) = world
        session = rekey_session(server_table, tables, topology)
        victim = next(server_table.all_records())
        server_table.remove(victim.user_id)
        reports = DifferentialOracle().check(
            session, server_table, tables, topology, seed=11
        )
        assert reports
        assert all(r.checker == "differential-oracle" for r in reports)
        assert all(r.seed == 11 for r in reports)


# ----------------------------------------------------------------------
# Hook layer
# ----------------------------------------------------------------------
class TestHookLayer:
    def test_no_context_by_default(self):
        assert active() is None

    def test_install_uninstall_cycle(self):
        context = VerificationContext()
        assert install(context) is context
        try:
            assert active() is context
            with pytest.raises(RuntimeError):
                install(VerificationContext())
        finally:
            uninstall()
        assert active() is None

    def test_context_uninstalled_even_on_violation(self, world):
        ids, (topology, _, tables, server_table) = world
        cut_server_subtree(server_table)
        with pytest.raises(InvariantViolation):
            with verification():
                rekey_session(server_table, tables, topology)
        assert active() is None

    def test_passive_collection_mode(self, world):
        """raise_on_violation=False accumulates reports instead."""
        ids, (topology, _, tables, server_table) = world
        cut_server_subtree(server_table)
        with verification(seed=2, raise_on_violation=False) as ctx:
            rekey_session(server_table, tables, topology)
            rekey_session(server_table, tables, topology)
        assert ctx.sessions_checked == 2
        assert ctx.reports
        assert "violation" in ctx.summary()

    def test_zero_overhead_shape_when_off(self, world):
        """With no context installed the hooks reduce to one global read
        per session: results are identical objectwise to a hooked run."""
        ids, (topology, _, tables, server_table) = world
        bare = rekey_session(server_table, tables, topology)
        with verification():
            hooked = rekey_session(server_table, tables, topology)
        assert bare.receipts == hooked.receipts
        assert bare.edges == hooked.edges


# ----------------------------------------------------------------------
# Reports: pickling, rendering, CSV export
# ----------------------------------------------------------------------
class TestReports:
    def test_render_carries_all_fields(self):
        report = ViolationReport(
            checker="exactly-once",
            citation="Theorem 1",
            detail="boom",
            offending_ids=("[0,1,2]",),
            seed=99,
            repro="python tools/check_invariants.py",
        )
        rendered = report.render()
        for needle in ("exactly-once", "Theorem 1", "boom", "[0,1,2]", "99"):
            assert needle in rendered

    def test_csv_export_round_trips(self, tmp_path):
        path = tmp_path / "violations.csv"
        reports = [
            ViolationReport("a", "Thm 1", "d1", ("x", "y"), 1, "r1"),
            ViolationReport("b", "Lemma 2", "d2"),
        ]
        write_violation_reports(str(path), reports)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("checker,citation,detail")
        assert "a,Thm 1,d1,x y,1,r1" in lines[1]
        assert lines[2].startswith("b,Lemma 2,d2")

    def test_violation_pickles_with_every_report(self):
        import pickle

        reports = [
            ViolationReport(
                checker="exactly-once",
                citation="Theorem 1",
                detail="2 member(s) received duplicate copies",
                offending_ids=("[0,1,2]", "[0,1,3]"),
                seed=42,
                repro="python tools/check_invariants.py --seed 42",
            ),
            ViolationReport(
                checker="differential-oracle",
                citation="Theorem 1 (delivery-tree uniqueness)",
                detail="edge count 11 != reference 10",
            ),
        ]
        violation = InvariantViolation(reports, context="task 2")
        clone = pickle.loads(pickle.dumps(violation))
        assert clone.reports == violation.reports
        assert clone.checkers == ("exactly-once", "differential-oracle")
        assert clone.context == "task 2"
        assert str(clone) == str(violation)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliVerify:
    def test_quickstart_under_verify_exits_zero(self, capsys):
        from repro.__main__ import main

        assert main(["--verify", "quickstart"]) == 0
        assert "[verify]" in capsys.readouterr().err

    def test_flag_off_means_no_context(self, capsys):
        from repro.__main__ import main

        assert main(["quickstart"]) == 0
        assert "[verify]" not in capsys.readouterr().err
