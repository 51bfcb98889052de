"""Reliability sweep — rekey delivery under packet loss.

The paper's rekey transport requires fast, reliable delivery of the
bursty rekey message.  This benchmark sweeps per-packet loss rates and
measures, with and without proactive XOR-parity FEC (the ToN'03
mechanism), how many members end an interval with incomplete keys and
therefore need reference-[31]-style unicast recovery from the server.
"""

import numpy as np

from repro.alm.reliable import ReliabilityConfig, ReliableSession
from repro.core.group import SecureGroup
from repro.core.ids import Id, IdScheme
from repro.core.neighbor_table import (
    UserRecord,
    build_consistent_tables,
    build_server_table,
)
from repro.faults import FaultPlan
from repro.keytree.recovery import FecEncoder
from repro.net import TransitStubParams, TransitStubTopology

from .conftest import record, run_once

LOSS_RATES = (0.01, 0.05, 0.15)


def _run(num_users: int, seed: int):
    params = TransitStubParams(
        transit_domains=3, transit_per_domain=4,
        stubs_per_transit=2, stub_size=7,
    )
    rows = []
    for loss in LOSS_RATES:
        for use_fec in (False, True):
            topology = TransitStubTopology(
                num_hosts=num_users + 1, params=params, seed=seed
            )
            group = SecureGroup(topology, server_host=num_users, seed=seed)
            members = [group.join(h) for h in range(num_users)]
            group.end_interval()
            # churn so the next message is non-trivial
            for victim in members[: num_users // 5]:
                group.leave(victim.user_id)
            report = group.end_interval(
                loss_rate=loss,
                fec=FecEncoder(packet_size=2, block_packets=4) if use_fec else None,
                loss_rng=np.random.default_rng(seed + int(loss * 100)),
            )
            recoveries = len(report.incomplete)
            for uid in report.incomplete:
                group.recover_member(uid)
            assert group.verify_member_keys() == []
            rows.append((loss, use_fec, recoveries, report.fec_repaired_blocks))
    return rows


def test_fec_cuts_unicast_recoveries(benchmark, scale):
    n = scale.gtitm_users_small
    rows = run_once(benchmark, _run, n, 27)
    lines = [
        f"Reliability — unicast recoveries vs loss rate (GT-ITM, {n} users)",
        f"{'loss':>6s} {'FEC':>5s} {'recoveries':>11s} {'blocks repaired':>16s}",
    ]
    for loss, use_fec, recoveries, repaired in rows:
        lines.append(
            f"{loss:>6.0%} {'yes' if use_fec else 'no':>5s} "
            f"{recoveries:>11d} {repaired:>16d}"
        )
    record(benchmark, "\n".join(lines))
    by_key = {(loss, fec): rec for loss, fec, rec, _ in rows}
    for loss in LOSS_RATES:
        assert by_key[(loss, True)] <= by_key[(loss, False)]
    # at low loss, FEC should repair nearly everything locally
    assert by_key[(LOSS_RATES[0], True)] <= max(1, n // 20)


# ----------------------------------------------------------------------
# NACK-based reliable T-mesh: delivery ratio and repair overhead vs loss
# ----------------------------------------------------------------------
NACK_LOSS_RATES = (0.0, 0.05, 0.15, 0.25)
NACK_PAYLOADS = 8


def _nack_world(num_users: int, seed: int):
    # Base 4, at least 3 digits, and enough digits for distinct IDs.
    digits = 3
    while 4**digits < num_users:
        digits += 1
    scheme = IdScheme(digits, 4)
    params = TransitStubParams(
        transit_domains=3, transit_per_domain=4,
        stubs_per_transit=2, stub_size=7,
    )
    topology = TransitStubTopology(
        num_hosts=num_users + 1, params=params, seed=seed
    )
    rng = np.random.default_rng(seed)
    codes = sorted(rng.choice(4**digits, size=num_users, replace=False))
    records = [
        UserRecord(
            Id(int(code) // 4**d % 4 for d in reversed(range(digits))), host
        )
        for host, code in enumerate(codes)
    ]
    tables = build_consistent_tables(scheme, records, topology.rtt, k=4)
    server_table = build_server_table(
        scheme, num_users, records, topology.rtt, k=4
    )
    return topology, tables, server_table


def _nack_run(num_users: int, seed: int):
    topology, tables, server_table = _nack_world(num_users, seed)
    payloads = [f"rekey-{i}" for i in range(NACK_PAYLOADS)]
    rows = []
    for loss in NACK_LOSS_RATES:
        for repair in (False, True):
            plan = FaultPlan(seed=seed + int(loss * 100)).drop(loss)
            session = ReliableSession(
                tables,
                server_table,
                topology,
                plan=plan,
                config=ReliabilityConfig(repair_enabled=repair),
            )
            outcome = session.multicast(payloads)
            rows.append(
                (
                    loss,
                    repair,
                    outcome.delivery_ratio,
                    outcome.stats.repair_overhead,
                    outcome.stats.retransmissions,
                    outcome.stats.gave_up,
                )
            )
    return rows


def test_nack_repair_closes_the_loss_gap(benchmark, scale):
    """The reliable T-mesh transport: NACK repair holds delivery at 100%
    across the loss sweep while the unrepaired transport decays; the cost
    is the reported repair overhead."""
    n = scale.gtitm_users_small
    rows = run_once(benchmark, _nack_run, n, 33)
    lines = [
        f"Reliable T-mesh — delivery vs loss rate (GT-ITM, {n} users, "
        f"{NACK_PAYLOADS} payloads)",
        f"{'loss':>6s} {'repair':>7s} {'delivery':>9s} {'overhead':>9s} "
        f"{'retx':>6s} {'gave up':>8s}",
    ]
    for loss, repair, ratio, overhead, retx, gave_up in rows:
        lines.append(
            f"{loss:>6.0%} {'NACK' if repair else 'off':>7s} "
            f"{ratio:>9.1%} {overhead:>9.3f} {retx:>6d} {gave_up:>8d}"
        )
    record(benchmark, "\n".join(lines))
    by_key = {
        (loss, repair): (ratio, overhead, retx, gave_up)
        for loss, repair, ratio, overhead, retx, gave_up in rows
    }
    for loss in NACK_LOSS_RATES:
        ratio_off = by_key[(loss, False)][0]
        ratio_on, overhead_on, _, gave_up_on = by_key[(loss, True)]
        assert ratio_on == 1.0
        assert gave_up_on == 0
        assert ratio_on >= ratio_off
        if loss > 0:
            assert overhead_on > 0.0
    # losses were real: the unrepaired transport decays at the top rate
    assert by_key[(NACK_LOSS_RATES[-1], False)][0] < 1.0
