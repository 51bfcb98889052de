"""Differential test of a message-level member's table upkeep and join
phases against the per-record code they replaced.

``ReferenceUserNode`` carries that code verbatim: ``_insert`` measures
and offers one record at a time; the join phases scan the whole table
per query, rescan every pool per response and take ``np.percentile``
per pool; every copy is accounted by scanning the copy log.  It shares
the member transition, ``UserNode._apply_update``: the order an update
applies in (leavers out, then joins and replacements offered as one
batch), the ``applied`` counter, learning before the own announcement
and the tombstones are protocol, not mechanics, and are pinned in
``test_distributed.py``.  ``ReferenceServerNode`` builds the server's
table with one ``insert`` per announced member.  The current path
(``UserNode._offer``: reject first, then one ``fill`` per entry;
``NeighborTable.records_with_prefix``; exhausted pools;
``choose_digit``; per-interval copy counts) must leave every member's
ID, table, ``known``, ``measured``, unreachable hosts, ``ProtocolStats``,
tombstones, ``applied`` and copy log equal to the reference's after
every interval, and the world must send the same messages and fire the
same events.  Both worlds are driven by one seeded schedule; a node
becomes the reference by swapping its class, which adds no state.

The order the transition replaced (joins offered before the leavers
go) survives only as ``JoinsBeforeLeaves``, the clean seed-12
reproduction below.

``tools/check_invariants.py`` (scenario ``member-upkeep``) replays the
lossy schedule below against the same reference and digests.
"""

import dataclasses
import hashlib
import pickle
from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ids import Id, IdScheme, NULL_ID
from repro.core.neighbor_table import NeighborTable, UserRecord
from repro.distributed import DistributedGroup
from repro.distributed import messages as m
from repro.distributed.nodes import ServerNode, UserNode, _Phase
from repro.experiments.common import _default_thresholds
from repro.faults import FaultPlan
from repro.net import TransitStubParams, TransitStubTopology
from repro.net.planetlab import MatrixTopology
from repro.net.scheduling import create_backend

PARAMS = TransitStubParams(
    transit_domains=3, transit_per_domain=3, stubs_per_transit=2, stub_size=6
)
#: 64 IDs for 30 members: crowded enough that departed IDs are handed out
#: again to later joiners.
SMALL_SCHEME = IdScheme(num_digits=3, base=4)


# ----------------------------------------------------------------------
# The reference: the replaced code, verbatim
# ----------------------------------------------------------------------
class ReferenceUserNode(UserNode):
    # -- join phases ----------------------------------------------------
    def _start_phase(self, index: int, prefix: Id) -> None:
        phase = _Phase(index=index, prefix=prefix)
        self._phase = phase
        seeds = [r for r in self.known.values() if prefix.is_prefix_of(r.user_id)]
        for seed in seeds:
            self._absorb(phase, seed)
        if not seeds:  # nobody to ask: defer everything to the server
            self._notify_server(prefix)
            return
        seed = next(
            (s for s in seeds if s.host not in self._unreachable), seeds[0]
        )
        self._send_phase_query(phase, seed, prefix)

    def _absorb(self, phase: _Phase, record: UserRecord) -> None:
        if record.user_id == self.user_id:
            return
        if not phase.prefix.is_prefix_of(record.user_id):
            return
        self.known[record.user_id] = record
        digit = record.user_id[phase.index]
        phase.pools.setdefault(digit, {})[record.user_id] = record

    def _on_query_response(self, response: m.QueryResponse) -> None:
        kind = response.token[0]
        if kind == "refill":
            self._offer(response.records)
            return
        event = self._outstanding.pop(response.token, None)
        if event is None:
            return  # already timed out, or duplicate
        event.cancel()
        phase = self._phase
        if phase is None or response.token[1] != phase.index:
            return  # stale response from an earlier phase
        for record in response.records:
            self._absorb(phase, record)
        phase.pending_queries -= 1
        self._continue_collect(phase)

    def _continue_collect(self, phase: _Phase) -> None:
        if phase.stage != "collect":
            return
        for digit in list(phase.pools):
            pool = phase.pools[digit]
            if len(pool) < self.collect_target:
                target = next(
                    (
                        r
                        for uid, r in pool.items()
                        if uid not in phase.queried
                        and r.host not in self._unreachable
                    ),
                    None,
                )
                if target is not None:
                    # one outstanding refinement per pool per round
                    self._send_phase_query(
                        phase, target, phase.prefix.extend(digit)
                    )
        if phase.pending_queries == 0:
            self._start_measure(phase)

    def _decide(self, phase: _Phase) -> None:
        phase.stage = "done"
        my_access = self.transport.topology.access_rtt(self.host)
        best_digit, best_value = None, float("inf")
        for digit, pool in phase.pools.items():
            if not pool:
                continue
            rtts = [
                max(
                    0.0,
                    self.measured.get(r.host, 0.0) - my_access - r.access_rtt,
                )
                for r in pool.values()
            ]
            f = float(np.percentile(rtts, self.percentile))
            if f < best_value:
                best_digit, best_value = digit, f
        if best_digit is not None and best_value <= self.thresholds[phase.index]:
            new_prefix = phase.prefix.extend(best_digit)
            if phase.index + 1 <= self.scheme.num_digits - 2:
                self._start_phase(phase.index + 1, new_prefix)
            else:
                self._notify_server(new_prefix)
        else:
            self._notify_server(phase.prefix)

    def _on_query(self, src: int, query: m.QueryMsg) -> None:
        matches: Tuple[UserRecord, ...] = ()
        if self.table is not None:
            # A digit-tuple slice test: the null prefix matches everything.
            prefix = query.target_prefix.digits
            n = len(prefix)
            found = [
                r for r in self.table.all_records() if r.user_id.digits[:n] == prefix
            ]
            if self.record is not None and self.record.user_id.digits[:n] == prefix:
                found.append(self.record)
            matches = tuple(found)
        self.send(src, m.QueryResponse(matches, query.token))

    # -- copy accounting: scans of the copy log ----------------------------
    def request_recovery(self) -> None:
        if not self.joined:
            return
        last = -1
        if self.applied is not None:
            seen = set(self.copies_received)
            while last < self.applied and last + 1 in seen:
                last += 1
        self.stats.recovery_requests += 1
        self.send(self.server_host, m.RecoverRequest(last))

    def _log_copy(self, update: m.MembershipUpdate, multicast: bool) -> int:
        seen = self.copies_received.count(update.interval)
        if multicast:
            self.stats.multicast_copies += 1
        elif seen:
            return seen  # recovery never logs a second copy
        else:
            self.stats.recovered_updates += 1
        self.copies_received.append(update.interval)
        self.encryptions_received[update.interval] = (
            self.encryptions_received.get(update.interval, 0)
            + len(update.encryptions)
        )
        return seen

    # -- table upkeep: one insert per record --------------------------------
    def _offer(self, records) -> None:
        for record in records:
            self._insert(record)

    def _insert(self, record: UserRecord) -> None:
        """Insert a record with a measured RTT (a lazy ping pair when the
        join phases never probed this host)."""
        if record.user_id == self.user_id or self.table is None:
            return
        if record.join_time < self._departed.get(record.user_id, -1.0):
            return  # a stale record echoed by a racing query response
        rtt = self.measured.get(record.host)
        if rtt is None:
            rtt = self.transport.topology.rtt(self.host, record.host)
            self.measured[record.host] = rtt
            self.stats.pings_sent += 1
        self.table.insert(record, rtt)


class ReferenceServerNode(ServerNode):
    def _build_server_table(self, announced):
        table = NeighborTable(
            self.scheme, UserRecord(NULL_ID, self.host), self.k
        )
        for user_id in announced:
            record = self.records.get(user_id)
            if record is not None:
                table.insert(
                    record, self.transport.topology.rtt(self.host, record.host)
                )
        return table


# ----------------------------------------------------------------------
# Worlds, schedules and state
# ----------------------------------------------------------------------
def table_state(table):
    """Entries in creation order as ``(slot, ((rtt, record), ...))``."""
    if table is None:
        return None
    return tuple((slot, tuple(e.neighbors)) for slot, e in table._entries.items())


def member_state(world):
    """Everything the upkeep path writes, for every node the world made,
    plus the world's message and event counts and the server's table."""
    users = tuple(
        (
            host,
            node.user_id,
            table_state(node.table),
            tuple(node.known.items()),
            tuple(node.measured.items()),
            tuple(sorted(node._unreachable)),
            dataclasses.astuple(node.stats),
            tuple(sorted(node._departed.items())),
            node.applied,
            tuple(node.copies_received),
        )
        for host, node in sorted(world.users.items())
    )
    server = world.server
    return (
        users,
        world.transport.stats.sent,
        world.scheduler.events_processed,
        table_state(server._build_server_table(server._announced)),
    )


def digest(states) -> str:
    return hashlib.sha256(pickle.dumps(states, protocol=4)).hexdigest()


def churn(seed, node_cls=UserNode, *, lossy=False, small=False):
    """Yield ``(member_state(world), world)`` after every interval of one
    seeded churn run whose user nodes are ``node_cls`` (the server is the
    reference one whenever the users are).

    Clean: 16 members under the paper's scheme, four intervals of three
    leaves and three joins, ``K`` cycling 1 / 2 / 4 with the seed.
    Small: 30 members in a 64-ID space, five intervals of eight leaves
    and eight joins.  Lossy: the small schedule through 5 % drops, with
    a recovery round and a refill sweep after every close.  A last close
    announces late joins (then, when lossy, loss-free recovery rounds
    and a sweep)."""
    if lossy or small:
        scheme, hosts, members, burst, intervals = SMALL_SCHEME, 72, 30, 8, 5
        plan = FaultPlan(seed=seed).drop(0.05) if lossy else None
        k = 2
    else:
        scheme, hosts, members, burst, intervals = None, 40, 16, 3, 4
        plan = None
        k = (1, 2, 4)[seed % 3]
    topology = TransitStubTopology(num_hosts=hosts + 1, params=PARAMS, seed=seed)
    kwargs = dict(seed=seed, k=k, fault_plan=plan)
    if scheme is not None:
        kwargs.update(scheme=scheme, thresholds=_default_thresholds(scheme))
    world = DistributedGroup(topology, server_host=hosts, **kwargs)
    if issubclass(node_cls, ReferenceUserNode):
        world.server.__class__ = ReferenceServerNode

    def join(host, at):
        node = world.schedule_join(host, at=at)
        node.__class__ = node_cls
        return node

    rng = np.random.default_rng(seed)
    order = [int(h) for h in rng.permutation(hosts)]
    for n, host in enumerate(order[:members]):
        join(host, 1.0 + 300.0 * n)
    free = order[members:]
    world.end_interval(at=300.0 * members + 2000.0)
    world.run()
    yield member_state(world), world
    for _ in range(intervals):
        t = world.scheduler.now
        active = sorted(world.active_users(), key=lambda u: u.host)
        chosen = rng.choice(len(active), min(burst, len(active)), replace=False)
        leavers = [active[int(i)].host for i in sorted(chosen)]
        for n, host in enumerate(leavers):
            world.schedule_leave_of_host(host, at=t + 10.0 + 20.0 * n)
        for n in range(burst):
            join(free.pop(0), t + 15.0 + 300.0 * n)
        world.end_interval(at=t + 300.0 * burst + 2000.0)
        if lossy:
            world.schedule_recovery_round(at=t + 300.0 * burst + 4000.0)
            world.schedule_refill_sweep(at=t + 300.0 * burst + 4500.0)
        world.run()
        free.extend(leavers)  # back of the queue: hosts rejoin much later
        yield member_state(world), world
    # Joins that finished after the last close are announced by one more;
    # past the loss window every member then resyncs and sweeps, so what
    # is left short is upkeep's doing, not the network's.
    t = world.scheduler.now
    world.transport.install_faults(None)
    world.end_interval(at=t + 10.0)
    if lossy:
        for r in range(3):
            world.schedule_recovery_round(at=t + 500.0 + 500.0 * r)
        world.schedule_refill_sweep(at=t + 2500.0)
    world.run()
    yield member_state(world), world


def run_churn(seed, node_cls=UserNode, **kwargs):
    """``(states, world)`` of a whole :func:`churn` run."""
    states, world = [], None
    for state, world in churn(seed, node_cls, **kwargs):
        states.append(state)
    return states, world


def reused_ids(world) -> int:
    """Joins handed an ID that an earlier interval announced as left."""
    departed, reused = set(), 0
    for log in world.intervals:
        reused += sum(r.user_id in departed for r in log.update.joins)
        departed.update(log.update.leaves)
    return reused


def assert_lockstep(seed, node_cls=UserNode, schedule=None, **kwargs):
    """Run one seeded schedule (default :func:`churn`) with ``node_cls``
    and with the reference, asserting equal state after every interval."""
    schedule = schedule or churn
    batch = schedule(seed, node_cls, **kwargs)
    reference = schedule(seed, ReferenceUserNode, **kwargs)
    intervals = 0
    for (got, world), (want, _) in zip(batch, reference):
        assert got[1:] == want[1:], f"seed {seed}, interval {intervals}"
        for mine, theirs in zip(got[0], want[0]):
            assert mine == theirs, f"seed {seed}, interval {intervals}, host {mine[0]}"
        assert got == want
        intervals += 1
    assert next(batch, None) is None and next(reference, None) is None
    return world


# ----------------------------------------------------------------------
# The lanes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(20))
def test_clean_churn_equals_reference(seed):
    world = assert_lockstep(seed)
    assert world.check_one_consistency() == []


class JoinsBeforeLeaves(UserNode):
    """The order the member transition replaced: an update's joins are
    offered before its leavers are removed, then the replacements."""

    def _advance(self, update: m.MembershipUpdate) -> None:
        self.applied = update.interval
        for record in update.joins:
            if record.user_id in self._departed:
                self._departed[record.user_id] = record.join_time
        self._departed.update(dict.fromkeys(update.leaves, float("inf")))
        if self.user_id in update.leaves:
            self.detach()
            return
        self._offer(update.joins)
        emptied = {}
        for user_id in update.leaves:
            if self.table.remove(user_id):
                emptied[self.table.slot_of(user_id)] = None
        self._offer(update.replacements)
        for i, j in emptied:
            if not self.table.entry(i, j):
                self._refill(i, j)


def test_joins_before_leaves_empties_entries_on_clean_seed_12():
    """K = 1: a full entry turns a joiner away, then its occupant leaves
    in the same update and the entry ends empty for good.  Leavers out
    first leaves no entry short."""
    _, old = run_churn(12, JoinsBeforeLeaves)
    assert old.k == 1
    assert len(old.check_one_consistency()) == 7
    _, world = run_churn(12)
    assert world.check_one_consistency() == []


@pytest.mark.faults
@pytest.mark.parametrize("seed", [3, 7])
def test_lossy_churn_with_id_reuse_equals_reference(seed):
    world = assert_lockstep(seed, lossy=True)
    assert world.fault_stats.drops > 0
    assert reused_ids(world) > 0
    assert sum(u.stats.recovered_updates for u in world.users.values()) > 0
    assert sum(u.stats.refills_sent for u in world.users.values()) > 0
    assert world.check_one_consistency() == []


# ----------------------------------------------------------------------
# The batch against sequential offers, one node at a time
# ----------------------------------------------------------------------
GRID_SCHEME = IdScheme(num_digits=3, base=3)
GRID_IDS = [Id((a, b, c)) for a in range(3) for b in range(3) for c in range(3)]


def grid_topology():
    """Twelve grid points with two hosts each: RTTs are multiples of
    20 ms and co-located hosts share every RTT, so entries tie at the
    K-th RTT constantly."""
    points = np.array([(x, y) for x in range(4) for y in range(3) for _ in range(2)])
    matrix = 20.0 * np.abs(points[:, None, :] - points[None, :, :]).sum(axis=2)
    return MatrixTopology(matrix)


GRID = grid_topology()


def lone_node(cls, owner, k):
    transport = create_backend("simulator", GRID).transport
    node = cls(transport, owner.host, 23, GRID_SCHEME, (0.0, 0.0), k=k)
    node.user_id, node.record = owner.user_id, owner
    node.table = NeighborTable(GRID_SCHEME, owner, k)
    return node


@st.composite
def offer_setups(draw):
    """An owner, a table already holding some records, a measured set,
    tombstones, and a batch of distinct IDs that mixes present IDs, the
    owner's own ID, tombstoned IDs and hosts never measured.  Every
    record joined at time 0, so a tombstone at 0 admits it (its ID was
    handed to it again), one at 1 or infinity does not."""
    k = draw(st.sampled_from((1, 2, 4)))
    ids = draw(st.permutations(GRID_IDS))
    hosts = draw(st.lists(st.integers(0, 22), min_size=27, max_size=27))
    records = [UserRecord(uid, host) for uid, host in zip(ids, hosts)]
    owner = records[0]
    held = draw(st.integers(0, 20))
    measured = draw(st.sets(st.integers(0, 22)))
    departed = draw(
        st.dictionaries(
            st.sampled_from(ids[1:]),
            st.sampled_from((0.0, 1.0, float("inf"))),
            max_size=5,
        )
    )
    batch = draw(st.lists(st.sampled_from(records), unique=True, max_size=26))
    return k, owner, records[1 : 1 + held], measured, departed, batch


@given(offer_setups())
@settings(max_examples=300, deadline=None)
def test_batch_offer_equals_sequential_inserts(setup):
    k, owner, held, measured, departed, batch = setup
    nodes = []
    for cls in (UserNode, ReferenceUserNode):
        node = lone_node(cls, owner, k)
        node.measured = {h: GRID.rtt(owner.host, h) for h in sorted(measured)}
        for record in held:  # present IDs, at the RTT they were filed under
            ReferenceUserNode._insert(node, record)
        node._departed = dict(departed)
        nodes.append(node)
    batched, reference = nodes
    before = dict(table_state(batched.table))
    epoch = NeighborTable._mutation_epoch
    batched._offer(batch)
    moved = NeighborTable._mutation_epoch - epoch
    for record in batch:
        reference._insert(record)
    after = table_state(batched.table)
    assert after == table_state(reference.table)
    assert list(batched.measured.items()) == list(reference.measured.items())
    assert batched.stats == reference.stats
    # One fill per entry the batch changes and none for an entry it
    # leaves as it was: a tie with the K-th RTT is a reject.
    assert moved == sum(before.get(slot) != entry for slot, entry in after)


# ----------------------------------------------------------------------
# Work: a rejected offer costs no allocation and no tombstone lookup
# ----------------------------------------------------------------------
class CountingDict(dict):
    lookups = 0

    def __contains__(self, item):
        CountingDict.lookups += 1
        return super().__contains__(item)


def settled_world():
    topology = TransitStubTopology(num_hosts=41, params=PARAMS, seed=5)
    world = DistributedGroup(topology, server_host=40, seed=5, k=1)
    for i in range(16):
        world.schedule_join(i, at=1.0 + 300.0 * i)
    world.end_interval(at=7000.0)
    world.run()
    return world


def assert_replay_changes_nothing(world):
    update = world.intervals[-1].update
    for node in world.active_users():
        table = node.table
        rows = [table.row_primaries(i) for i in range(world.scheme.num_digits)]
        cache = dict(table._primaries_cache)
        sent, epoch = world.transport.stats.sent, NeighborTable._mutation_epoch
        node._apply_update(update)  # a duplicate copy
        node._learn(update)  # its records offered again
        assert NeighborTable._mutation_epoch == epoch, node.user_id
        assert table._primaries_cache == cache
        assert all(
            table.row_primaries(i) is rows[i]
            for i in range(world.scheme.num_digits)
        )
        assert world.transport.stats.sent == sent


def test_replayed_update_changes_nothing():
    """A duplicate copy of an update changes nothing, and neither does
    a member offered the update's records again: every join and
    replacement is present or rejected, every leaver tombstoned."""
    world = settled_world()
    assert_replay_changes_nothing(world)  # sixteen joins
    for host in (2, 9):
        world.schedule_leave_of_host(host, at=7100.0)
    world.end_interval(at=9000.0)
    world.run()
    assert world.intervals[-1].update.replacements
    assert_replay_changes_nothing(world)  # two leaves and their replacements


def test_rejected_offers_skip_the_tombstone_lookup():
    world = settled_world()
    offers = 0
    for node in world.active_users():
        # With K = 1 every populated entry is full; a record of the same
        # subtree measured no closer than the primary is turned away.
        rejected = [
            record
            for other in world.active_users()
            if (record := other.record).host in node.measured
            and (slot := node.table.slot_for(record)) is not None
            and node.table.entry(*slot)
            and node.measured[record.host] >= node.table.entry_rtts(*slot)[0]
        ]
        offers += len(rejected)
        node._departed = CountingDict(node._departed)
        CountingDict.lookups = 0
        epoch = NeighborTable._mutation_epoch
        node._offer(rejected)
        assert CountingDict.lookups == 0, node.user_id
        assert NeighborTable._mutation_epoch == epoch
    assert offers > 100
