"""Hook layer: opt-in runtime verification with zero overhead when off.

A single module-level slot, :data:`ACTIVE`, holds the installed
:class:`VerificationContext` (or ``None``).  Instrumented call sites —
:func:`repro.core.tmesh.run_multicast`, :class:`repro.core.tmesh.
SessionPlan`, :class:`repro.distributed.harness.DistributedGroup`,
:func:`repro.experiments.common.build_group` — read the slot once per
session/group and do nothing further when it is ``None``, so the bench
lane pays one attribute load per *session*, never per event.

Typical use::

    from repro.verify import verification

    with verification(seed=7) as ctx:
        run_latency_experiment(...)        # every session auto-checked
    print(ctx.sessions_checked)

or, for CLI surfaces, ``python -m repro fig 7 --verify``.

Checker and oracle modules are imported lazily inside the context so the
hot modules can import this one without dragging protocol code along
(and without import cycles).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from .report import InvariantViolation, ViolationReport

#: The installed context; hot paths read this directly.
ACTIVE: Optional["VerificationContext"] = None


def active() -> Optional["VerificationContext"]:
    """The installed :class:`VerificationContext`, or ``None``."""
    return ACTIVE


def install(context: "VerificationContext") -> "VerificationContext":
    """Install a context; raises if one is already active."""
    global ACTIVE
    if ACTIVE is not None:
        raise RuntimeError("a VerificationContext is already installed")
    ACTIVE = context
    return context


def uninstall() -> None:
    global ACTIVE
    ACTIVE = None


@contextmanager
def verification(**kwargs) -> Iterator["VerificationContext"]:
    """``with verification(...):`` — install a fresh context for the
    duration of the block."""
    context = install(VerificationContext(**kwargs))
    try:
        yield context
    finally:
        uninstall()


class VerificationContext:
    """Runs the checker suite against everything the hooks observe.

    ``seed`` tags every report (sessions themselves are deterministic
    functions of their scenario seed, so the tag is the repro key);
    ``oracle=True`` additionally replays each fault-free session against
    :class:`~repro.verify.oracle.DifferentialOracle`'s brute-force
    reference.  ``raise_on_violation=False`` turns the context into a
    passive collector (reports accumulate in :attr:`reports`).
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        oracle: bool = True,
        raise_on_violation: bool = True,
        repro_hint: Optional[str] = None,
        time_tolerance: float = 0.0,
    ):
        from .checkers import (
            ExactlyOnceChecker,
            ForwardPrefixChecker,
            KConsistencyChecker,
            KeyIdResolutionChecker,
            StreamingDeliveryChecker,
            TreeAgreementChecker,
        )
        from .oracle import DifferentialOracle

        self.seed = seed
        self.raise_on_violation = raise_on_violation
        self.repro_hint = repro_hint
        self.reports: List[ViolationReport] = []
        self.sessions_checked = 0
        self.groups_checked = 0
        self.rekeys_checked = 0
        self.worlds_checked = 0
        self._exactly_once = ExactlyOnceChecker()
        self._prefix = ForwardPrefixChecker()
        self._k_consistency = KConsistencyChecker()
        self._tree_agreement = TreeAgreementChecker()
        self._key_resolution = KeyIdResolutionChecker()
        self._streaming = StreamingDeliveryChecker()
        self._oracle = (
            DifferentialOracle(time_tolerance) if oracle else None
        )

    # ------------------------------------------------------------------
    def _repro(self, what: str) -> str:
        if self.repro_hint:
            return self.repro_hint
        seed = "?" if self.seed is None else self.seed
        return (
            f"with repro.verify.verification(seed={seed}): "
            f"re-run the {what} scenario (deterministic in its seed)"
        )

    def _emit(self, reports: List[ViolationReport], context: str) -> None:
        if not reports:
            return
        self.reports.extend(reports)
        if self.raise_on_violation:
            raise InvariantViolation(reports, context)

    # ------------------------------------------------------------------
    # Observation points (called by the instrumented hot paths)
    # ------------------------------------------------------------------
    def observe_session(
        self,
        session,
        sender_table,
        tables,
        topology,
        processing_delay: float = 0.0,
        lossless: bool = True,
    ) -> None:
        """Check one finished T-mesh session.

        ``lossless=False`` marks sessions run under failures, backups, or
        an injected fault plan: there only Lemma 1 remains a theorem, so
        exactly-once, Lemma 2, and the oracle replay are skipped (NACK
        repair restores the delivery contract at the reliable layer,
        where the conformance tests assert it separately).
        """
        self.sessions_checked += 1
        repro = self._repro("session")
        reports: List[ViolationReport] = []
        if lossless:
            reports.extend(
                self._exactly_once.check(
                    session, tables.keys(), self.seed, repro
                )
            )
        reports.extend(
            self._prefix.check(session, lossless, self.seed, repro)
        )
        if lossless and self._oracle is not None:
            reports.extend(
                self._oracle.check(
                    session,
                    sender_table,
                    tables,
                    topology,
                    processing_delay,
                    self.seed,
                    repro,
                )
            )
        self._emit(reports, f"session from {session.sender}")

    def observe_streaming(
        self, summary, expected_members: Optional[int] = None
    ) -> None:
        """Check one streaming rekey session's aggregates (the scale
        ladder's array path, :func:`repro.perf.scale.run_streaming_rekey`)
        against Theorem 1's conservation laws."""
        self.sessions_checked += 1
        reports = self._streaming.check(
            summary, expected_members, self.seed, self._repro("streaming")
        )
        self._emit(
            reports, f"streaming session of {summary.num_members} member(s)"
        )

    def observe_group(self, group) -> None:
        """Check a :class:`repro.core.membership.Group`'s emergent tables
        against Definition 3."""
        self.groups_checked += 1
        reports = self._k_consistency.check(
            group.tables, group.id_tree, group.k, self.seed,
            self._repro("group"),
        )
        self._emit(reports, f"group of {group.num_users} users")

    def observe_tables(self, tables, id_tree, k: int) -> None:
        """Check a bare table set (static worlds, fixtures)."""
        self.groups_checked += 1
        reports = self._k_consistency.check(
            tables, id_tree, k, self.seed, self._repro("tables")
        )
        self._emit(reports, f"{len(tables)} neighbor tables")

    def observe_key_tree(self, key_tree) -> None:
        """Check Section 2.4's structural agreement for a modified key
        tree."""
        reports = self._tree_agreement.check(
            key_tree, self.seed, self._repro("key tree")
        )
        self._emit(reports, f"key tree of {key_tree.num_users} users")

    def observe_rekey(self, message, user_ids, scheme) -> None:
        """Check one rekey message against the identification scheme."""
        self.rekeys_checked += 1
        reports = self._key_resolution.check(
            message, user_ids, scheme, self.seed, self._repro("rekey")
        )
        self._emit(reports, f"rekey interval {message.interval}")

    def observe_distributed(self, world) -> None:
        """Check a quiescent :class:`~repro.distributed.harness.
        DistributedGroup` in one of two regimes.  Both report emergent
        1-consistency.  Without a fault plan, interval delivery must also
        be duplicate-free (Theorem 1 exactly-once).  Under an installed
        fault plan a dropped copy is repaired by reference-[31] recovery,
        not redelivered over the mesh, so recovery completeness (every
        active member holds every interval since its own announcement)
        takes exactly-once's place."""
        self.worlds_checked += 1
        repro = self._repro("distributed")
        reports = [
            ViolationReport(
                checker="one-consistency",
                citation="Definition 3 (K=1) / Theorem 1",
                detail=problem,
                seed=self.seed,
                repro=repro,
            )
            for problem in world.check_one_consistency()
        ]
        if world.fault_plan is None:
            duplicates_by_interval = world.duplicates_by_interval()
            for index in range(len(world.intervals)):
                duplicates = duplicates_by_interval.get(index)
                if duplicates:
                    reports.append(
                        ViolationReport(
                            checker="exactly-once",
                            citation="Theorem 1",
                            detail=(
                                f"interval {index}: duplicate rekey copies "
                                f"at {len(duplicates)} member(s)"
                            ),
                            offending_ids=tuple(
                                str(uid) for uid in sorted(duplicates)
                            ),
                            seed=self.seed,
                            repro=repro,
                        )
                    )
        else:
            for user_id, missing in world.missing_intervals().items():
                reports.append(
                    ViolationReport(
                        checker="recovery-completeness",
                        citation="reference [31] unicast recovery",
                        detail=f"{user_id} missing interval(s) {missing}",
                        seed=self.seed,
                        repro=repro,
                    )
                )
        self._emit(reports, "distributed group")

    # ------------------------------------------------------------------
    def summary(self) -> str:
        return (
            f"verified {self.sessions_checked} session(s), "
            f"{self.groups_checked} table set(s), "
            f"{self.rekeys_checked} rekey message(s), "
            f"{self.worlds_checked} distributed world(s): "
            f"{len(self.reports)} violation(s)"
        )
