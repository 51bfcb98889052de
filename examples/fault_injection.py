#!/usr/bin/env python
"""Fault injection and NACK-repaired rekey delivery.

Theorem 1 promises exactly-once T-mesh delivery — on a perfect network.
This example injects a seeded :class:`repro.faults.FaultPlan` (drops,
duplicates, a crash window) and shows the delivery guarantee degrade,
then come back:

1. clean network — exactly one copy per member, zero repair traffic;
2. 20% packet loss, no repair — whole subtrees go dark;
3. same seeded loss with the NACK-based reliable transport — every
   member recovers every payload, duplicates are suppressed, and the
   repair overhead (NACKs, retransmissions, the hop-by-hop watermark's
   heartbeats and acks) is accounted for;
4. a crashed forwarder — K=4 tables route around it (Section 2.3);
5. the join protocol under loss — client retries with backoff against
   the idempotent key server.

Run:  python examples/fault_injection.py
"""

import numpy as np

from repro.alm.reliable import ReliabilityConfig, ReliableSession
from repro.core.ids import Id, IdScheme
from repro.core.neighbor_table import (
    UserRecord,
    build_consistent_tables,
    build_server_table,
)
from repro.distributed.harness import DistributedGroup
from repro.faults import FaultPlan
from repro.net.planetlab import MatrixTopology
from repro.net import TransitStubParams, TransitStubTopology

SCHEME = IdScheme(3, 4)
NUM_USERS = 40
PAYLOADS = [f"rekey-{i}" for i in range(8)]


def build_world(seed=0, k=4):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 100, size=(NUM_USERS + 1, 2))
    matrix = np.sqrt(
        ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    )
    matrix = (matrix + matrix.T) / 2
    np.fill_diagonal(matrix, 0.0)
    topology = MatrixTopology(matrix)
    id_tuples = set()
    while len(id_tuples) < NUM_USERS:
        id_tuples.add(tuple(int(rng.integers(0, 4)) for _ in range(3)))
    records = [
        UserRecord(Id(t), host) for host, t in enumerate(sorted(id_tuples))
    ]
    tables = build_consistent_tables(SCHEME, records, topology.rtt, k=k)
    server_table = build_server_table(
        SCHEME, NUM_USERS, records, topology.rtt, k=k
    )
    return topology, tables, server_table


topology, tables, server_table = build_world()
print(f"T-mesh of {NUM_USERS} users, {len(PAYLOADS)} rekey payloads\n")

# --- 1: clean network ---------------------------------------------------
outcome = ReliableSession(tables, server_table, topology).multicast(PAYLOADS)
print(f"clean network : delivery {outcome.delivery_ratio:.1%}, "
      f"{outcome.stats.nacks_sent} NACKs, "
      f"{outcome.stats.retransmissions} retransmissions")

# --- 2: 20% loss, repair off -------------------------------------------
plan = FaultPlan(seed=42).drop(0.20)
outcome = ReliableSession(
    tables, server_table, topology, plan=plan,
    config=ReliabilityConfig(repair_enabled=False),
).multicast(PAYLOADS)
print(f"20% loss, raw : delivery {outcome.delivery_ratio:.1%}, "
      f"{len(outcome.members_short())} members shorted "
      f"({plan.stats.drops} packets dropped)")

# --- 3: 20% loss, NACK repair on ---------------------------------------
plan = FaultPlan(seed=42).drop(0.20).duplicate(0.05)
outcome = ReliableSession(
    tables, server_table, topology, plan=plan
).multicast(PAYLOADS)
print(f"20% + repair  : delivery {outcome.delivery_ratio:.1%}, "
      f"{outcome.duplicates_surfaced} duplicates surfaced, "
      f"{outcome.stats.nacks_sent} NACKs, "
      f"{outcome.stats.retransmissions} retransmissions, "
      f"{outcome.stats.heartbeats_sent} heartbeats + "
      f"{outcome.stats.acks_sent} acks, "
      f"overhead {outcome.stats.repair_overhead:.2f}x")
assert outcome.delivery_ratio == 1.0

# --- 4: a crashed forwarder --------------------------------------------
victim = server_table.row_primaries(0)[0][1]
plan = FaultPlan(seed=7).drop(0.10).crash(host=victim.host, at=0.0)
outcome = ReliableSession(
    tables, server_table, topology, plan=plan
).multicast(PAYLOADS)
live_short = [u for u in outcome.members_short() if u != victim.user_id]
print(f"crashed hub   : member {victim.user_id} down from t=0; "
      f"{len(live_short)} live members shorted "
      f"(K=4 backups route around it)")
assert live_short == []

# --- 5: the join protocol under loss -----------------------------------
params = TransitStubParams(
    transit_domains=3, transit_per_domain=3, stubs_per_transit=2, stub_size=6
)
wire_topology = TransitStubTopology(num_hosts=25, params=params, seed=3)
plan = FaultPlan(seed=11).drop(0.10)
world = DistributedGroup(wire_topology, server_host=24, fault_plan=plan)
for host in range(10):
    node = world.schedule_join(host, at=10.0 * (host + 1))
    # 10% loss each way means ~19% of request/response round trips fail;
    # the default budget of 3 retries leaves ~0.1% of joins stranded, so
    # give the clients a little more patience for this demonstration.
    node.max_server_retries = 6
world.end_interval(at=2000.0)
world.run()
active = len(world.active_users())
retries = sum(u.stats.server_retries for u in world.users.values())
print(f"\njoin protocol : {active}/10 joins completed under 10% loss "
      f"({retries} server retries, {world.fault_stats.drops} drops injected)")
assert active == 10

# Loss stalls some joins past the interval end (each dropped query costs
# a 5s timeout), so the t=2000 announcement covers only the early
# finishers; a second interval announces the stragglers, and
# reference-[31] recovery rounds resync members whose (lossy)
# announcement copies were dropped.
holes = len(world.check_one_consistency())
world.end_interval(at=world.scheduler.now + 100.0)
world.run()
mid = len(world.check_one_consistency())
for r in range(3):
    world.schedule_recovery_round(at=world.scheduler.now + 100.0 * (r + 1))
world.run()
recovered = sum(u.stats.recovered_updates for u in world.users.values())
print(f"table audit   : {holes} -> {mid} -> "
      f"{len(world.check_one_consistency())} consistency problems "
      f"(2nd interval, then {recovered} announcements recovered by "
      f"server unicast)")
assert world.check_one_consistency() == []
