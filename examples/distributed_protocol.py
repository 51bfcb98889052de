#!/usr/bin/env python
"""The Section-3 protocols running as real messages.

Everything the other examples compute directly happens here on the wire
of a discrete event simulator: joining users determine their IDs with
query/response round trips and RTT pings, the key server completes IDs
and batches membership changes, and at each rekey-interval end a
MembershipUpdate (join records + departures + split rekey encryptions)
is multicast over T-mesh with every forwarder executing FORWARD and
REKEY-MESSAGE-SPLIT itself.

Watch for: per-joiner protocol cost (the paper's O(P·D·N^(1/D)) query
analysis), exactly-once wire delivery, per-user encryption loads, and
1-consistency of the emergent tables after churn.

Run:  python examples/distributed_protocol.py
"""

import numpy as np

from repro.distributed import DistributedGroup
from repro.net import TransitStubParams, TransitStubTopology

RNG = np.random.default_rng(42)

topology = TransitStubTopology(
    num_hosts=49,
    params=TransitStubParams(
        transit_domains=3, transit_per_domain=3,
        stubs_per_transit=2, stub_size=7,
    ),
    seed=12,
)
world = DistributedGroup(topology, server_host=48, seed=12)

print("== interval 0: 16 joins (some heavily concurrent) ==")
t = 1.0
for host in range(16):
    world.schedule_join(host, at=t)
    t += float(RNG.uniform(5.0, 400.0))
world.end_interval(at=t + 2000.0)
world.run()

active = world.active_users()
print(f"  {len(active)} users joined; sim time {world.scheduler.now:.0f} ms, "
      f"{world.scheduler.events_processed} events")
queries = [u.stats.queries_sent for u in active]
pings = [u.stats.pings_sent for u in active]
print(f"  per-joiner cost: queries median {int(np.median(queries))} "
      f"max {max(queries)}; pings median {int(np.median(pings))}")
problems = world.check_one_consistency()
print(f"  table audit: {'1-consistent' if not problems else problems[:2]}")

print("\n== interval 1: 8 more joins, 4 leaves ==")
t = world.scheduler.now + 100.0
for host in range(16, 24):
    world.schedule_join(host, at=t)
    t += float(RNG.uniform(5.0, 150.0))
for host in (2, 5, 9, 11):
    world.schedule_leave_of_host(host, at=t)
    t += 20.0
world.end_interval(at=t + 2000.0)
world.run()

active = world.active_users()
print(f"  {len(active)} users active after churn")
problems = world.check_one_consistency()
print(f"  table audit: {'1-consistent' if not problems else problems[:2]}")

report = world.delivery_report(1)
print(f"  interval-1 multicast: {len(report['received'])} receivers, "
      f"duplicates: {report['duplicates'] or 'none'}")
update = world.intervals[1].update
loads = [
    count
    for uid, count in report["encryptions"].items()
    if uid in {u.user_id for u in active}
]
print(f"  rekey message: {len(update.encryptions)} encryptions total; "
      f"per-user received median {int(np.median(loads))}, max {max(loads)} "
      f"(splitting on the wire)")
print(f"  leavers shipped {len(update.replacements)} replacement records "
      f"for table repair")
