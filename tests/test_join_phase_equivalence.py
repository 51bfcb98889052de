"""Differential test of the message-level Section 3.1 join against the
per-record code it replaced.

The reference is ``ReferenceUserNode`` of
``tests/test_member_upkeep_equivalence.py``: its join phases scan the
whole table per query (``_on_query``), rescan every pool per response
(``_continue_collect``), test prefixes with ``Id.is_prefix_of``
(``_start_phase``, ``_absorb``) and take ``np.percentile`` per pool
(``_decide``).  The current path answers a query from the entries the
prefix can match (``NeighborTable.records_with_prefix``), skips pools
with no one left to ask until a response writes into them, and decides
through the one digit rule (``choose_digit``).  Three lanes run both
side by side and compare every host's ID, ``known`` (insertion order),
``measured``, unreachable hosts, ``ProtocolStats``, tables, copy log,
messages sent and events fired after every interval:

* 20 clean seeds in a crowded 64-ID space;
* a 64-member wave of concurrent joins on GT-ITM under the paper's
  scheme, where phases see many pools and pools do run dry and reopen;
* the lossy seeds, where drops inside join phases time queries out,
  hosts are given up and their records come back in later responses.

Two properties pin the pieces: the query service against the scan it
replaced, and the digit rule against the ``np.percentile`` loop.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.id_assignment import choose_digit
from repro.core.ids import NULL_ID, Id, IdScheme
from repro.core.neighbor_table import NeighborTable, UserRecord
from repro.distributed import DistributedGroup
from repro.distributed.nodes import UserNode
from repro.experiments.config import SMALL_GTITM
from repro.net import TransitStubTopology

from tests.test_member_upkeep_equivalence import (
    ReferenceServerNode,
    ReferenceUserNode,
    assert_lockstep,
    member_state,
)


class ObservedNode(UserNode):
    """The current path, tallying join-phase events in class-level
    counters: the node itself gains no state, so the compared state is
    the plain node's."""

    tally: Counter = Counter()
    given_up: set = set()  # (host, user ID) pairs written off

    def _give_up_on(self, record: UserRecord) -> None:
        ObservedNode.tally["given_up"] += 1
        ObservedNode.given_up.add((self.host, record.user_id))
        super()._give_up_on(record)

    def _absorb(self, phase, records) -> None:
        records = tuple(records)
        exhausted = set(phase.exhausted)
        super()._absorb(phase, records)
        ObservedNode.tally["reopened"] += len(exhausted - phase.exhausted)
        ObservedNode.tally["reabsorbed"] += sum(
            (self.host, r.user_id) in ObservedNode.given_up
            and r.user_id in self.known
            for r in records
        )

    def _continue_collect(self, phase) -> None:
        before = len(phase.exhausted)
        super()._continue_collect(phase)
        ObservedNode.tally["exhausted"] += max(0, len(phase.exhausted) - before)


@pytest.fixture
def tally():
    ObservedNode.tally = Counter()
    ObservedNode.given_up = set()
    return ObservedNode.tally


# ----------------------------------------------------------------------
# The lanes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(20))
def test_clean_small_scheme_joins_equal_reference(seed):
    assert_lockstep(seed, small=True)


def wave(seed, node_cls=UserNode):
    """Yield ``(member_state(world), world)`` after every interval: 64
    joins 1 ms apart on a small GT-ITM graph under the paper's scheme,
    closed by one interval, then two intervals of eight leaves and
    eight concurrent joins."""
    members, burst, intervals = 64, 8, 2
    hosts = members + 2 * burst
    topology = TransitStubTopology(num_hosts=hosts + 1, params=SMALL_GTITM, seed=seed)
    world = DistributedGroup(topology, server_host=hosts, seed=seed)
    if issubclass(node_cls, ReferenceUserNode):
        world.server.__class__ = ReferenceServerNode

    def join(host, at):
        world.schedule_join(host, at=at).__class__ = node_cls

    rng = np.random.default_rng(seed)
    order = [int(h) for h in rng.permutation(hosts)]
    free = order[members:]
    for n, host in enumerate(order[:members]):
        join(host, 1.0 + n)
    world.run()
    world.end_interval(at=world.scheduler.now + 1.0)
    world.run()
    yield member_state(world), world
    for _ in range(intervals):
        t = world.scheduler.now
        active = sorted(world.active_users(), key=lambda u: u.host)
        chosen = rng.choice(len(active), burst, replace=False)
        for n, i in enumerate(sorted(chosen)):
            world.schedule_leave_of_host(active[int(i)].host, at=t + 1.0 + n)
        for n in range(burst):
            join(free.pop(0), t + 1.0 + n)
        world.run()
        world.end_interval(at=world.scheduler.now + 1.0)
        world.run()
        yield member_state(world), world


@pytest.mark.parametrize("seed", [1, 2])
def test_gtitm_wave_joins_equal_reference(seed, tally):
    world = assert_lockstep(seed, ObservedNode, schedule=wave)
    assert len(world.active_users()) == 64
    assert tally["exhausted"] > 0 and tally["reopened"] > 0


@pytest.mark.faults
@pytest.mark.parametrize("seed", [3, 7])
def test_lossy_join_phases_equal_reference(seed, tally):
    world = assert_lockstep(seed, ObservedNode, lossy=True)
    assert world.fault_stats.drops > 0
    assert tally["given_up"] > 0 and tally["reabsorbed"] > 0
    assert tally["exhausted"] > 0


# ----------------------------------------------------------------------
# The query service against the scan it replaced
# ----------------------------------------------------------------------
SCHEME = IdScheme(num_digits=3, base=4)
IDS = [Id((a, b, c)) for a in range(4) for b in range(4) for c in range(4)]


@st.composite
def tables(draw):
    """A user's or the server's table after a random run of inserts and
    removes (removes empty entries, which later inserts re-create at the
    end of the creation order)."""
    owner = draw(st.sampled_from([NULL_ID, *IDS]))
    k = draw(st.sampled_from((1, 2, 4)))
    table = NeighborTable(SCHEME, UserRecord(owner, 99), k)
    others = [uid for uid in IDS if uid != owner]
    for _ in range(draw(st.integers(0, 60))):
        uid = draw(st.sampled_from(others))
        if draw(st.booleans()) and table.contains(uid):
            table.remove(uid)
        else:
            rtt = float(draw(st.integers(0, 6)))  # ties at the K-th RTT
            table.insert(UserRecord(uid, draw(st.integers(0, 30))), rtt)
    return table


def scanned(table, digits):
    n = len(digits)
    return tuple(r for r in table.all_records() if r.user_id.digits[:n] == digits)


@given(tables(), st.data())
@settings(max_examples=150, deadline=None)
def test_records_with_prefix_equals_scan(table, data):
    owner = table.owner.user_id.digits
    held = [r.user_id.digits for r in table.all_records()]
    for n in range(SCHEME.num_digits + 1):
        prefixes = {owner[:n], *(d[:n] for d in held)}
        drawn = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        prefixes.add(tuple(drawn))
        for digits in sorted(prefixes):
            assert table.records_with_prefix(digits) == scanned(table, digits)
    # A mutation drops every cached answer.
    if held:
        table.remove(Id(held[0]))
        for n in range(SCHEME.num_digits + 1):
            assert table.records_with_prefix(owner[:n]) == scanned(table, owner[:n])


# ----------------------------------------------------------------------
# The digit rule against the np.percentile loop it replaced
# ----------------------------------------------------------------------
def percentile_loop(pools, percentile, threshold):
    """``UserNode._decide``'s rule before it was shared, verbatim."""
    best_digit, best_value = None, float("inf")
    percentiles = {}
    for digit, rtts in pools.items():
        if not rtts:
            continue
        f = float(np.percentile(rtts, percentile))
        percentiles[digit] = f
        if f < best_value:
            best_digit, best_value = digit, f
    if best_digit is not None and best_value <= threshold:
        return best_digit, percentiles
    return None, percentiles


RTTS = st.sampled_from([0.0, 0.5, 1.25, 3.0, 9.0, 29.5, 30.0, 150.0]) | st.floats(
    0.0, 400.0, allow_nan=False
)


@given(
    st.dictionaries(st.integers(0, 7), st.lists(RTTS, max_size=12), max_size=6),
    st.sampled_from([50.0, 90.0, 100.0]) | st.floats(0.5, 100.0),
    st.sampled_from([3.0, 9.0, 30.0, 150.0]) | st.floats(0.0, 200.0),
)
@settings(max_examples=200, deadline=None)
def test_digit_rule_equals_percentile_loop(pools, percentile, threshold):
    _, percentiles = percentile_loop(pools, percentile, threshold)
    # Pools tie often (few distinct RTTs); thresholds equal to each
    # pool's value test the "<=" edge.
    for candidate in (threshold, *percentiles.values()):
        want, want_percentiles = percentile_loop(pools, percentile, candidate)
        got_percentiles = {}
        got = choose_digit(pools.items(), percentile, candidate, got_percentiles)
        assert got == want
        assert got_percentiles == want_percentiles
