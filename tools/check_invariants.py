#!/usr/bin/env python
"""Run the invariant-checker oracle suite over fixed seed scenarios.

Scenarios (each runs under a full :mod:`repro.verify` context — every
T-mesh session is checked against Theorem 1, Lemmas 1-2, and the
brute-force differential oracle; tables against Definition 3; key trees
against Section 2.4):

* ``static-rekey``    — a protocol-built group (default 1024 users, the
                        paper's headline size) serving one rekey and one
                        data multicast, plus the batch-rekey key tree.
* ``fig7-latency``    — the Fig. 7 latency workload (GT-ITM, rekey mode)
                        with verification hooks active.
* ``churn``           — interleaved joins/leaves with table repair and a
                        verified multicast after every batch.
* ``distributed``     — the message-level protocol world, audited for
                        emergent 1-consistency and duplicate-free
                        interval delivery at quiescence.
* ``traced-rekey``    — verification and tracing hooks composed on a
                        256-user rekey, with the trace-determinism
                        invariant (same seed => byte-identical trace)
                        checked over two runs.
* ``split-definition`` — one fixed-seed session under full
                        verification, then a leave batch split along it
                        (Theorem 2) and held to the per-hop definition,
                        ``split_for_next_hop`` at every forwarder.
* ``secure-close``    — leaves-first churn on a ``SecureGroup`` in a
                        crowded ID space, so joiners are handed IDs
                        that left in the same interval: after every
                        close all members hold current keys and every
                        departed member unwraps nothing.  Includes its
                        own canary: a key tree that keeps the individual
                        key of a reused ID (the forward-secrecy break
                        fixed in PR 17) MUST trip the check.
* ``lossy-repair``    — reliable rekey transport (``alm.reliable``) at
                        256 members through 5 % and 20 % seeded loss:
                        no duplicate ever surfaces; at 5 % every member
                        completes and nothing is given up; at 20 % no
                        more members end short than the flooded
                        heartbeat left on the same seed, and none
                        silently; watermark traffic (heartbeats + acks)
                        stays within 2 x members (3 x at 20 %); two runs
                        agree on one outcome digest.  Includes its own canary: with
                        every acknowledgement swallowed the traffic
                        bound MUST trip, while heartbeats stop at
                        ``heartbeat_rounds`` per edge and the queue
                        drains.
* ``member-upkeep``   — lossy churn on the message-level protocol (5 %
                        drops, IDs handed out again, recovery rounds
                        and refill sweeps) run twice: members joining
                        and applying updates through the current path
                        and through the per-record reference of
                        ``tests/test_member_upkeep_equivalence.py``
                        (join phases and copy accounting included; the
                        member transition is shared).  The per-interval
                        state digests must be equal, the tables must end
                        1-consistent, and every member the server holds
                        must still be attached (a recovery round must
                        not detach the holder of a reused ID).  Includes
                        two canaries: a batch that forgets its lazy
                        pings and a collect loop that never reopens an
                        exhausted pool MUST each change the digest.
* ``sharded-scale``   — the 10k rung of the scale ladder under full
                        verification: the dense object path (trie-derived
                        tables, differential oracle included) against the
                        streaming array path, held to one canonical
                        receipt digest; includes its own corruption
                        canary (a server table with a dropped row-0
                        entry MUST trip the checkers at 10k).
* ``corruption-canary`` — a deliberately corrupted server table; this
                        scenario MUST trip the checkers.  It proves the
                        gate can fail, so a silently broken verification
                        layer cannot masquerade as a green suite.

Exit status: 0 all green; 1 a scenario raised an InvariantViolation;
2 the corruption canary went undetected (the verification layer itself is
broken).  ``--csv`` archives any violation reports via
:func:`repro.metrics.export.write_violation_reports`.

Usage::

    PYTHONPATH=src python tools/check_invariants.py
    PYTHONPATH=src python tools/check_invariants.py --users 256 --seed 7
    PYTHONPATH=src python tools/check_invariants.py --only corruption-canary
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT))  # for tests.* (canary world builder, split reference)

import numpy as np  # noqa: E402

from repro.core.ids import Id, IdScheme  # noqa: E402
from repro.core.tmesh import data_session, rekey_session  # noqa: E402
from repro.keytree.modified_tree import ModifiedKeyTree  # noqa: E402
from repro.metrics.export import write_violation_reports  # noqa: E402
from repro.verify import InvariantViolation, verification  # noqa: E402

SMALL_SCHEME = IdScheme(num_digits=3, base=4)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def scenario_static_rekey(seed: int, users: int) -> str:
    from repro.experiments.common import build_group, build_topology

    topology = build_topology("gtitm", users, seed=seed)
    with verification(seed=seed) as ctx:
        group = build_group(topology, users, seed=seed)  # observed: Def. 3
        rekey_session(group.server_table, group.tables, topology)
        sender = sorted(group.records)[seed % group.num_users]
        data_session(sender, group.tables, topology)
        tree = ModifiedKeyTree(group.scheme)
        for uid in group.records:
            tree.request_join(uid)
        message = tree.process_batch()
        ctx.observe_key_tree(tree)
        ctx.observe_rekey(message, tree.user_ids, group.scheme)
        return ctx.summary()


def scenario_fig7_latency(seed: int, users: int) -> str:
    from repro.experiments.latency_experiments import run_latency_experiment

    with verification(seed=seed) as ctx:
        run_latency_experiment(
            "Fig 7 (verified)", "gtitm", min(users, 128), mode="rekey",
            runs=2, seed=seed,
        )
        return ctx.summary()


def scenario_churn(seed: int, users: int) -> str:
    from repro.core.id_assignment import IdAssigner
    from repro.core.membership import Group
    from repro.experiments.common import _default_thresholds
    from repro.net.planetlab import MatrixTopology

    n_hosts = 24
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 100, size=(n_hosts, 2))
    matrix = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    matrix = (matrix + matrix.T) / 2
    np.fill_diagonal(matrix, 0.0)
    topology = MatrixTopology(matrix)
    scheme = IdScheme(num_digits=3, base=3)
    with verification(seed=seed) as ctx:
        group = Group(
            scheme, topology, server_host=n_hosts - 1,
            assigner=IdAssigner(scheme, _default_thresholds(scheme)),
            k=2, rng=np.random.default_rng(seed),
        )
        free = list(range(n_hosts - 1))
        members = []
        for step in range(60):
            if free and (not members or rng.random() < 0.6):
                host = free.pop(int(rng.integers(0, len(free))))
                members.append(group.join(host).record.user_id)
            else:
                uid = members.pop(int(rng.integers(0, len(members))))
                host = group.records[uid].host
                group.leave(uid)
                group.repair_tables()
                free.append(host)
            if len(members) >= 2 and step % 5 == 0:
                ctx.observe_group(group)
                rekey_session(group.server_table, group.tables, topology)
        return ctx.summary()


def scenario_distributed(seed: int, users: int) -> str:
    from repro.distributed import DistributedGroup
    from repro.net import TransitStubParams, TransitStubTopology

    params = TransitStubParams(
        transit_domains=3, transit_per_domain=3,
        stubs_per_transit=2, stub_size=6,
    )
    topology = TransitStubTopology(num_hosts=41, params=params, seed=seed)
    world = DistributedGroup(topology, server_host=40, seed=seed)
    for i in range(12):
        world.schedule_join(i, at=1.0 + i * 300.0)
    world.end_interval(at=5000.0)
    for i in range(3):
        world.schedule_leave_of_host(i, at=6000.0 + i * 200.0)
    world.schedule_recovery_round(at=7000.0)
    world.end_interval(at=8000.0)
    with verification(seed=seed) as ctx:
        world.run()  # quiescent audit fires automatically
        world.verify_invariants()
        return ctx.summary()


def scenario_traced_rekey(seed: int, users: int) -> str:
    """Verification and tracing hooks composed on one workload, plus the
    trace-determinism invariant: the same seed must render the same
    bytes, run to run (docs/OBSERVABILITY.md)."""
    from repro.trace import tracing
    from repro.verify.report import ViolationReport

    def one_run() -> tuple:
        from repro.experiments.common import build_group, build_topology

        size = min(users, 256)
        topology = build_topology("gtitm", size, seed=seed)
        with verification(seed=seed) as vctx, tracing(
            seed=seed, label="traced-rekey"
        ) as tctx:
            group = build_group(topology, size, seed=seed)
            rekey_session(group.server_table, group.tables, topology)
            tree = ModifiedKeyTree(group.scheme)
            for uid in sorted(group.records):
                tree.request_join(uid)
            message = tree.process_batch()
            vctx.observe_key_tree(tree)
            vctx.observe_rekey(message, tree.user_ids, group.scheme)
        return vctx.summary(), tctx.render()

    verify_summary, first = one_run()
    _, second = one_run()
    if first != second:
        diverging = next(
            (i for i, (a, b) in enumerate(
                zip(first.splitlines(), second.splitlines())
            ) if a != b),
            min(len(first.splitlines()), len(second.splitlines())),
        )
        raise InvariantViolation(
            [
                ViolationReport(
                    checker="trace-determinism",
                    citation="docs/OBSERVABILITY.md",
                    detail=f"same-seed traces diverge at line {diverging}",
                    seed=seed,
                    repro="PYTHONPATH=src python tools/check_invariants.py "
                    f"--only traced-rekey --seed {seed}",
                )
            ]
        )
    return (f"{verify_summary}; trace stable over 2 runs "
            f"({len(first.splitlines())} lines)")


def scenario_split_definition(seed: int, users: int) -> str:
    """One fixed-seed rekey session under full verification (checked
    against the brute-force differential oracle), then a 1/16 leave
    batch split along it and held to the definition —
    ``split_for_next_hop`` run at every forwarder over what it received,
    the loop the equivalence tests keep as their reference."""
    from repro.core.splitting import run_split_rekey
    from repro.experiments.common import build_group, build_topology
    from repro.verify.report import ViolationReport
    from tests.test_close_equivalence import reference_split_rekey, split_state

    size = min(users, 256)
    topology = build_topology("gtitm", size, seed=seed)
    group = build_group(topology, size, seed=seed)
    with verification(seed=seed) as ctx:
        session = rekey_session(group.server_table, group.tables, topology)
        summary = ctx.summary()

    ids = sorted(group.records)
    tree = ModifiedKeyTree(group.scheme)
    for uid in ids:
        tree.request_join(uid)
    tree.process_batch()
    for uid in ids[::16]:
        tree.request_leave(uid)
    message = tree.process_batch()

    split = run_split_rekey(session, message, track_sets=True)
    definition = reference_split_rekey(session, message, track_sets=True)
    if split_state(split) != split_state(definition):
        raise InvariantViolation(
            [
                ViolationReport(
                    checker="split-definition",
                    citation="Theorem 2 / Fig. 5",
                    detail="run_split_rekey and the per-hop filter disagree "
                    f"on a {message.rekey_cost}-encryption message",
                    seed=seed,
                    repro="PYTHONPATH=src python tools/check_invariants.py "
                    f"--only split-definition --seed {seed}",
                )
            ]
        )
    return f"{summary}; split == definition ({message.rekey_cost} encryptions)"


class _KeepsKeyOfReusedId(ModifiedKeyTree):
    """The rejoin branch as it was before PR 17: an ID that left and is
    handed out again within the interval keeps its individual key."""

    def request_join(self, user_id: Id) -> None:
        if user_id in self._pending_leaves:
            self._pending_leaves.remove(user_id)
            if user_id not in self._pending_joins:
                self._pending_joins.append(user_id)
            return
        super().request_join(user_id)


def _secure_close_churn(seed: int, key_tree_cls=None) -> tuple:
    """Six intervals of 8 leaves then 8 joins by other hosts on a
    30-member group in a 64-ID space: crowded enough that many joiners
    are handed an ID that left in the same interval.  Returns
    ``(problems, reused)``."""
    from repro.core.group import SecureGroup
    from repro.experiments.common import _default_thresholds
    from repro.net import TransitStubParams, TransitStubTopology

    members, burst, hosts = 30, 8, 72
    params = TransitStubParams(
        transit_domains=3, transit_per_domain=3,
        stubs_per_transit=2, stub_size=6,
    )
    topology = TransitStubTopology(num_hosts=hosts + 1, params=params, seed=seed)
    group = SecureGroup(
        topology, server_host=hosts, scheme=SMALL_SCHEME,
        thresholds=_default_thresholds(SMALL_SCHEME), seed=seed,
    )
    if key_tree_cls is not None:
        group.key_tree = key_tree_cls(
            SMALL_SCHEME, crypto=True, rng=group.key_tree._rng
        )
    rng = np.random.default_rng(seed)
    order = [int(h) for h in rng.permutation(hosts)]
    for host in order[:members]:
        group.join(host)
    group.end_interval()
    # A host that left goes to the back of the queue and does not come
    # up again within the scenario: every reused ID changes hands.
    free = order[members:]
    problems = []
    reused = 0
    for interval in range(6):
        ids = sorted(group.members)
        departed = [
            group.leave(ids[int(i)])
            for i in rng.choice(len(ids), burst, replace=False)
        ]
        left = {member.user_id for member in departed}
        joiners, free = free[:burst], free[burst:]
        reused += sum(group.join(host).user_id in left for host in joiners)
        report = group.end_interval()
        problems += [
            f"interval {interval}: {line}" for line in group.verify_member_keys()
        ]
        problems += [
            f"interval {interval}: departed {member.user_id} (host "
            f"{member.host}) unwrapped {used} keys of the interval's message"
            for member in departed
            if (used := member.apply_rekey(report.message)) > 0
        ]
    return problems, reused


def scenario_secure_close(seed: int, users: int) -> str:
    from repro.verify.report import ViolationReport

    def violation(checker: str, detail: str) -> InvariantViolation:
        return InvariantViolation(
            [
                ViolationReport(
                    checker=checker,
                    citation="Section 2.4 (forward secrecy of batch rekeying)",
                    detail=detail,
                    seed=seed,
                    repro="PYTHONPATH=src python tools/check_invariants.py "
                    f"--only secure-close --seed {seed}",
                )
            ]
        )

    problems, reused = _secure_close_churn(seed)
    if problems:
        raise violation("secure-close", "; ".join(problems[:4]))
    if not reused:
        raise violation("secure-close", "no joiner was handed a reused ID")
    canary_problems, _ = _secure_close_churn(seed, _KeepsKeyOfReusedId)
    if not any("unwrapped" in line for line in canary_problems):
        raise violation(
            "secure-close-canary",
            "a key tree that keeps the individual key of a reused ID "
            "went undetected",
        )
    return (f"6 intervals, {reused} IDs changed hands within an interval, "
            "members current, departed unwrap 0; canary tripped "
            f"({len(canary_problems)} findings)")


#: ``members_short`` summed over the scenario's 20 % sessions at the
#: default seed on the commit before the acknowledged watermark (the
#: source flooded 12 blind heartbeats); the bound the scenario holds.
_FLOODED_SHORT_AT_20 = {7: 1}


def scenario_lossy_repair(seed: int, users: int) -> str:
    import hashlib
    import pickle

    from repro.alm.reliable import ReliabilityConfig, ReliableSession, TmeshAck
    from repro.experiments.common import build_group, build_topology
    from repro.experiments.config import SMALL_GTITM
    from repro.faults import FaultPlan
    from repro.verify.report import ViolationReport

    def violation(checker: str, detail: str) -> InvariantViolation:
        return InvariantViolation(
            [
                ViolationReport(
                    checker=checker,
                    citation="Theorem 1 under loss (docs/FAULTS.md section 2)",
                    detail=detail,
                    seed=seed,
                    repro="PYTHONPATH=src python tools/check_invariants.py "
                    f"--only lossy-repair --seed {seed}",
                )
            ]
        )

    members, sessions = 256, 6
    topology = build_topology(
        "gtitm", members + 1, seed=seed, gtitm_params=SMALL_GTITM
    )
    group = build_group(topology, members, seed=seed)

    def run(index: int, plan: FaultPlan):
        # odd sessions carry one payload: nothing later to see a hole by
        payloads = [f"rekey-{i}".encode() for i in range(8 if index % 2 == 0 else 1)]
        session = ReliableSession(group.tables, group.server_table, topology, plan=plan)
        outcome = session.multicast(payloads)
        if session.scheduler.pending:
            raise violation("lossy-repair", f"session {index}: queue not drained")
        return outcome

    # Watermark messages per member.  Loss-free it is 1 (the ack); a lone
    # payload at 20 % loss loses every fifth copy and every fifth ack, each
    # costing a heartbeat and a second ack: about 2.2, measured.
    allowance = {0.05: 2, 0.20: 3}

    def sweep():
        problems, digest, short_at_20 = [], hashlib.sha256(), 0
        for rate in allowance:
            for index in range(sessions):
                where = f"{rate:.0%} loss, session {index}"
                outcome = run(index, FaultPlan(seed=seed * 100 + index).drop(rate))
                stats, short = outcome.stats, outcome.members_short()
                digest.update(
                    pickle.dumps(
                        (outcome.delivered, outcome.missing, stats.as_row()), protocol=4
                    )
                )
                if outcome.duplicates_surfaced:
                    problems.append(
                        f"{where}: {outcome.duplicates_surfaced} duplicates surfaced"
                    )
                if stats.heartbeats_sent + stats.acks_sent > allowance[rate] * members:
                    problems.append(
                        f"{where}: {stats.heartbeats_sent} heartbeats + "
                        f"{stats.acks_sent} acks > {allowance[rate]} x {members} members"
                    )
                silent = [
                    uid for uid in short if not outcome.per_node[uid].gave_up
                ]
                if silent:
                    problems.append(
                        f"{where}: {len(silent)} members short without a give-up"
                    )
                if rate == 0.05 and (short or stats.gave_up):
                    problems.append(
                        f"{where}: {len(short)} short, {stats.gave_up} given up"
                    )
                if rate == 0.20:
                    short_at_20 += len(short)
        return problems, digest.hexdigest(), short_at_20

    problems, digest, short_at_20 = sweep()
    flooded = _FLOODED_SHORT_AT_20.get(seed)
    if flooded is not None and short_at_20 > flooded:
        problems.append(
            f"20% loss: {short_at_20} members short, the flooded heartbeat "
            f"left {flooded}"
        )
    if problems:
        raise violation("lossy-repair", "; ".join(problems[:4]))
    if sweep()[1] != digest:
        raise violation("lossy-repair", "two runs disagree on the outcome digest")

    # Canary: swallow every acknowledgement.  The traffic bound above must
    # trip, or it checks nothing; the per-hop budget must still hold.
    rounds = ReliabilityConfig().heartbeat_rounds
    swallowed = FaultPlan(seed=seed).drop(
        1.0, match=lambda src, dst, payload: isinstance(payload, TmeshAck)
    )
    stats = run(0, swallowed).stats
    if stats.heartbeats_sent + stats.acks_sent <= max(allowance.values()) * members:
        raise violation(
            "lossy-repair-canary",
            "every ack swallowed, yet watermark traffic stayed within bound",
        )
    if stats.heartbeats_sent != rounds * members:
        raise violation(
            "lossy-repair-canary",
            f"{stats.heartbeats_sent} heartbeats with every ack swallowed; the "
            f"budget is {rounds} rounds x {members} edges",
        )
    return (f"{2 * sessions} sessions at 5% / 20% loss, 0 duplicates, "
            f"{short_at_20} short at 20% (flooded: {flooded}), digest "
            f"{digest[:12]}...; canary tripped ({stats.heartbeats_sent} "
            f"heartbeats = {rounds} rounds x {members} edges, queue drained)")


def scenario_member_upkeep(seed: int, users: int) -> str:
    from repro.distributed.nodes import UserNode
    from repro.verify.report import ViolationReport
    from tests.test_member_upkeep_equivalence import (
        ReferenceUserNode,
        digest,
        reused_ids,
        run_churn,
    )

    def violation(checker: str, detail: str) -> InvariantViolation:
        return InvariantViolation(
            [
                ViolationReport(
                    checker=checker,
                    citation="Definition 3 (1-consistent member tables)",
                    detail=detail,
                    seed=seed,
                    repro="PYTHONPATH=src python tools/check_invariants.py "
                    f"--only member-upkeep --seed {seed}",
                )
            ]
        )

    class ForgetsLazyPings(UserNode):
        """A batch that measures a host it never probed without keeping
        the measurement or counting the ping pair."""

        def _offer(self, records) -> None:
            measured, pings = dict(self.measured), self.stats.pings_sent
            super()._offer(records)
            self.measured, self.stats.pings_sent = measured, pings

    class NeverReopensPools(UserNode):
        """A collect loop that keeps a pool exhausted after a response
        brought it records nobody has queried yet."""

        def _absorb(self, phase, records) -> None:
            exhausted = set(phase.exhausted)
            super()._absorb(phase, records)
            phase.exhausted |= exhausted

    batch, world = run_churn(seed, lossy=True)
    want = digest(run_churn(seed, ReferenceUserNode, lossy=True)[0])
    got = digest(batch)
    if got != want:
        raise violation(
            "member-upkeep",
            f"batch digest {got[:12]} != per-record reference {want[:12]}",
        )
    problems = world.check_one_consistency()
    problems += [
        f"{user.user_id}: held by the server but detached"
        for user in world.users.values()
        if user.record is not None
        and world.server.records.get(user.user_id) == user.record
        and world.transport.node_at(user.host) is not user
    ]
    if problems:
        raise violation("member-upkeep", "; ".join(problems[:4]))
    for canary, what in (
        (ForgetsLazyPings, "a batch that forgets its lazy pings"),
        (NeverReopensPools, "a collect loop that never reopens a pool"),
    ):
        if digest(run_churn(seed, canary, lossy=True)[0]) == want:
            raise violation(
                "member-upkeep-canary", f"{what} matched the reference"
            )
    return (f"{len(world.intervals)} intervals, {world.fault_stats.drops} drops, "
            f"{reused_ids(world)} reused IDs, digest {got[:12]}... == "
            "reference, 1-consistent, holders attached; both canaries tripped")


def scenario_sharded_scale(seed: int, users: int) -> str:
    """The 10k rung of the scale ladder under full verification
    (docs/PERFORMANCE.md, "Scale ladder").

    The dense object path runs a complete verified rekey session —
    Theorem 1, Lemmas 1-2, *and* the brute-force differential oracle,
    which until this rung was only exercised up to 1024 users — then the
    streaming array path replays the same world and the two canonical
    receipt digests must match bitwise.  A final internal canary proves
    the checkers still bite at this size: a server table with one row-0
    entry dropped cuts off a top-level subtree and MUST raise."""
    from repro.core.neighbor_table import StaticPrimaryTable
    from repro.perf.scale import (
        build_array_world,
        build_scale_world,
        run_streaming_rekey,
    )
    from repro.verify.report import ViolationReport

    size = 10_000
    repro_cmd = ("PYTHONPATH=src python tools/check_invariants.py "
                 f"--only sharded-scale --seed {seed}")
    topology, server_table, tables = build_scale_world(size, seed=seed)
    with verification(seed=seed) as ctx:
        session = rekey_session(server_table, tables, topology)
        dense_digest = session.canonical_receipt_digest()
        dense_summary = ctx.summary()

    world = build_array_world(size, seed=seed)
    with verification(seed=seed) as ctx:
        stream = run_streaming_rekey(world)
        stream_summary = ctx.summary()
    if dense_digest != stream.digest:
        raise InvariantViolation(
            [
                ViolationReport(
                    checker="scale-digest-equivalence",
                    citation="docs/PERFORMANCE.md (Scale ladder)",
                    detail=f"dense digest {dense_digest} != streaming "
                    f"digest {stream.digest} at N={size}",
                    seed=seed,
                    repro=repro_cmd,
                )
            ]
        )

    # Internal corruption canary at 10k: drop one row-0 entry from the
    # server table; the subtree behind it never hears the rekey and the
    # exactly-once checker must notice.
    crippled = StaticPrimaryTable(
        server_table.scheme, server_table.owner,
        [server_table.row_primaries(0)[1:]],
    )
    try:
        with verification(seed=seed):
            rekey_session(crippled, tables, topology)
    except InvariantViolation:
        pass
    else:
        raise InvariantViolation(
            [
                ViolationReport(
                    checker="sharded-scale-canary",
                    citation="Theorem 1",
                    detail=f"a dropped server row-0 entry went undetected "
                    f"at N={size}",
                    seed=seed,
                    repro=repro_cmd,
                )
            ]
        )
    return (f"dense [{dense_summary}] == streaming [{stream_summary}], "
            f"digest {dense_digest[:12]}..., {stream.num_shards} shard(s), "
            "canary tripped")


def scenario_corruption_canary(seed: int, users: int) -> str:
    """MUST raise: a server table with one entry emptied cuts off a
    level-1 subtree, violating Theorem 1 on the next multicast."""
    from tests.conftest import make_static_world

    rng = np.random.default_rng(seed)
    ids = set()
    while len(ids) < 30:
        ids.add(
            tuple(int(rng.integers(0, SMALL_SCHEME.base))
                  for _ in range(SMALL_SCHEME.num_digits))
        )
    ids = [Id(t) for t in sorted(ids)]
    topology, _, tables, server_table = make_static_world(
        SMALL_SCHEME, ids, seed=seed, k=2
    )
    for j in range(SMALL_SCHEME.base):
        victims = [r.user_id for r in list(server_table.entry(0, j))]
        if victims:
            for uid in victims:
                server_table.remove(uid)
            break
    with verification(seed=seed):
        rekey_session(server_table, tables, topology)
    return "corruption went UNDETECTED"


SCENARIOS = [
    ("static-rekey", scenario_static_rekey, False),
    ("fig7-latency", scenario_fig7_latency, False),
    ("churn", scenario_churn, False),
    ("distributed", scenario_distributed, False),
    ("traced-rekey", scenario_traced_rekey, False),
    ("split-definition", scenario_split_definition, False),
    ("secure-close", scenario_secure_close, False),
    ("lossy-repair", scenario_lossy_repair, False),
    ("member-upkeep", scenario_member_upkeep, False),
    ("sharded-scale", scenario_sharded_scale, False),
    ("corruption-canary", scenario_corruption_canary, True),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Invariant-checker oracle suite (docs/VERIFY.md)"
    )
    parser.add_argument("--seed", type=int, default=7, help="base scenario seed")
    parser.add_argument(
        "--users", type=int, default=1024,
        help="group size for the static-rekey scenario (paper headline: 1024)",
    )
    parser.add_argument(
        "--only", action="append", default=None, metavar="NAME",
        choices=[name for name, _, _ in SCENARIOS],
        help="run only the named scenario(s)",
    )
    parser.add_argument(
        "--csv", default=None, metavar="PATH",
        help="archive violation reports (if any) as CSV",
    )
    args = parser.parse_args(argv)

    failures = []
    collected = []
    canary_ok = True
    for name, fn, expect_violation in SCENARIOS:
        if args.only and name not in args.only:
            continue
        start = time.perf_counter()
        try:
            summary = fn(args.seed, args.users)
        except InvariantViolation as violation:
            elapsed = time.perf_counter() - start
            collected.extend(violation.reports)
            if expect_violation:
                checkers = ", ".join(sorted(set(violation.checkers)))
                print(f"[ OK ] {name:18s} ({elapsed:6.1f}s)  "
                      f"canary tripped as required: {checkers}")
            else:
                failures.append(name)
                print(f"[FAIL] {name:18s} ({elapsed:6.1f}s)")
                print(str(violation))
        else:
            elapsed = time.perf_counter() - start
            if expect_violation:
                canary_ok = False
                print(f"[FAIL] {name:18s} ({elapsed:6.1f}s)  {summary}")
            else:
                print(f"[ OK ] {name:18s} ({elapsed:6.1f}s)  {summary}")

    if args.csv and collected:
        write_violation_reports(args.csv, collected)
        print(f"archived {len(collected)} report(s) to {args.csv}")
    if not canary_ok:
        print("FATAL: the corruption canary went undetected — the "
              "verification layer is broken", file=sys.stderr)
        return 2
    if failures:
        print(f"{len(failures)} scenario(s) violated invariants: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
