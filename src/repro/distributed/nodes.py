"""Message-level implementation of the Section-3 protocols.

The experiment drivers compute protocol outcomes directly for speed (as
the paper's own simulator does); this module runs the same protocols as
*actual messages* over the scheduling seam (:mod:`repro.net.scheduling`)
— any registered backend drives them: the discrete event simulator, the
virtual-clock event loop, or the live asyncio service:

* a joining :class:`UserNode` determines its ID digit by digit with real
  query/response round trips (Section 3.1.1) and RTT pings measured in
  simulated time (3.1.2), decides digits with the percentile rule
  (3.1.3), and has the :class:`ServerNode` complete its ID (3.1.4);
* at the end of each rekey interval the server multicasts a
  :class:`~repro.distributed.messages.MembershipUpdate` — joined records,
  departed IDs, and the batch's rekey encryptions — over T-mesh, with
  every forwarder executing FORWARD and REKEY-MESSAGE-SPLIT on the
  message level; departing users forward that final multicast (they
  cannot decrypt the new keys it carries) and then detach;
* users repair entries emptied by departures with refill queries to
  region mates, keeping tables 1-consistent across intervals.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..core.id_assignment import choose_digit, complete_user_id
from ..core.id_tree import IdTree
from ..core.ids import Id, IdScheme, NULL_ID
from ..core.neighbor_table import NeighborTable, UserRecord
from ..core.splitting import split_for_next_hop
from ..keytree.modified_tree import ModifiedKeyTree
from ..net.scheduling import Transport, TransportNode
from . import messages as m

#: The tombstone of an ID nobody holds: every record of it is stale.
_FREE = float("inf")


def _canonical(value):
    """Recursively rebuild ``value`` with order-independent containers
    (dicts and sets sorted by key repr) so byte comparisons of pickled
    state ignore insertion history.  Used by
    :meth:`ServerNode.key_tree_state`."""
    if isinstance(value, dict):
        return (
            "dict",
            tuple(
                sorted((repr(k), _canonical(v)) for k, v in value.items())
            ),
        )
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(repr(v) for v in value)))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_canonical(v) for v in value))
    if isinstance(value, np.random.Generator):
        return ("rng", repr(value.bit_generator.state))
    if type(value).__dict__.get("__reduce__") is not None:
        # The class controls its own pickled form (e.g. Id rebuilds from
        # digits, dropping memo caches) — canonicalize that, not the
        # live attributes, so live and restored objects compare equal.
        return (type(value).__name__, _canonical(value.__reduce__()))
    if getattr(value, "__dict__", None):
        return (type(value).__name__, _canonical(vars(value)))
    return ("leaf", repr(value))


@dataclass
class ProtocolStats:
    """Per-node message accounting (the paper analyzes the joiner's
    query cost as O(P * D * N^(1/D)))."""

    queries_sent: int = 0
    pings_sent: int = 0
    multicast_copies: int = 0
    refills_sent: int = 0
    failures_detected: int = 0
    server_retries: int = 0
    recovery_requests: int = 0
    recovered_updates: int = 0


class ServerNode(TransportNode):
    """The key server: admits users, completes IDs, batches membership
    changes, and sources the interval-end T-mesh multicast."""

    #: Everything that must survive a service restart (see
    #: :meth:`snapshot_state`).  Order matters: it is the serialization
    #: order, so snapshots of identical state are byte-identical.
    _SNAPSHOT_FIELDS = (
        "k",
        "rng",
        "id_tree",
        "records",
        "key_tree",
        "_pending_joins",
        "_pending_leaves",
        "_pending_replacements",
        "_announced",
        "_all_departed",
        "_granted",
        "_assigned_by_host",
        "_history",
        "interval",
        "_clock",
    )

    def __init__(
        self,
        transport: Transport,
        host: int,
        scheme: IdScheme,
        k: int = 4,
        seed: int = 0,
    ):
        super().__init__(transport, host)
        self.scheme = scheme
        self.k = k
        self.rng = np.random.default_rng(seed)
        self.id_tree = IdTree(scheme)
        self.records: Dict[Id, UserRecord] = {}
        # The tree gets its own seeded generator (derived from the server
        # seed) so key material — and therefore snapshot bytes — is a
        # deterministic function of the seed across backends and runs.
        self.key_tree = ModifiedKeyTree(
            scheme, rng=np.random.default_rng((seed, 0x6B65))
        )
        self._pending_joins: List[UserRecord] = []
        self._pending_leaves: List[Id] = []
        self._pending_replacements: Dict[Id, UserRecord] = {}
        # Users already announced by a past interval-end multicast: only
        # these can appear in tables, so only these may serve as
        # bootstraps or multicast next hops (keeps Theorem-1 delivery
        # exactly-once even with joins in flight).
        self._announced: Set[Id] = set()
        # _announced in ID order, the bootstrap draw's population: sorted
        # by the first join request after an announcement, not by each.
        self._announced_order: Optional[List[Id]] = None
        # Every ID that ever left: shipped with AssignedId, with the join
        # time of its current holder if any, so a joiner whose collection
        # phases spanned an interval boundary can purge records of users
        # that departed meanwhile (in a deployment the registrar validates
        # the joiner's record set the same way).
        self._all_departed: Set[Id] = set()
        # Idempotency for the lossy key-server path: a duplicated
        # JoinRequest / NotifyPrefix (a client retry whose original
        # arrived after all) is answered with the *same* reply instead of
        # registering the host twice.
        self._granted: Dict[int, m.JoinGrant] = {}
        self._assigned_by_host: Dict[int, m.AssignedId] = {}
        # Announcement history for reference-[31] unicast recovery: a
        # member that missed an interval multicast resyncs from here.
        self._history: List[m.MembershipUpdate] = []
        self.interval = 0
        self._clock = 0

    # ------------------------------------------------------------------
    def on_message(self, src: int, payload) -> None:
        if isinstance(payload, m.JoinRequest):
            self._handle_join_request(src)
        elif isinstance(payload, m.NotifyPrefix):
            self._handle_notify(src, payload)
        elif isinstance(payload, m.LeaveRequest):
            self._handle_leave(src, payload)
        elif isinstance(payload, m.FailureNotice):
            self._handle_failure_notice(payload)
        elif isinstance(payload, m.RecoverRequest):
            self._handle_recover(src, payload)
        elif isinstance(payload, m.PingMsg):
            self.send(src, m.PongMsg(None, payload.token))

    def _handle_join_request(self, src: int) -> None:
        if src in self._granted:  # client retry: repeat the same grant
            self.send(src, self._granted[src])
            return
        if not self.records:
            record = self._register(src, self.scheme.first_user_id())
            grant = m.JoinGrant(assigned=record, bootstrap=None)
        else:
            if self._announced_order is None:
                self._announced_order = sorted(self._announced)
            candidates = self._announced_order or sorted(self.records)
            bootstrap = self.records[
                candidates[int(self.rng.integers(0, len(candidates)))]
            ]
            grant = m.JoinGrant(assigned=None, bootstrap=bootstrap)
        self._granted[src] = grant
        self.send(src, grant)

    def _handle_notify(self, src: int, msg: m.NotifyPrefix) -> None:
        if src in self._assigned_by_host:  # client retry: same ID again
            self.send(src, self._assigned_by_host[src])
            return
        user_id = complete_user_id(self.id_tree, msg.determined_prefix, self.rng)
        record = self._register(src, user_id)
        records = self.records
        reply = m.AssignedId(
            record,
            tuple(
                (uid, records[uid].join_time if uid in records else _FREE)
                for uid in self._all_departed
            ),
        )
        self._assigned_by_host[src] = reply
        self.send(src, reply)

    def _register(self, host: int, user_id: Id) -> UserRecord:
        self._clock += 1
        record = UserRecord(
            user_id,
            host,
            access_rtt=self.transport.topology.access_rtt(host),
            join_time=float(self._clock),
        )
        self.id_tree.add_user(user_id)
        self.records[user_id] = record
        self.key_tree.request_join(user_id)
        self._pending_joins.append(record)
        return record

    def _handle_leave(self, src: int, msg: m.LeaveRequest) -> None:
        if msg.user_id not in self.records:
            # Unknown leaver: a failure notice already evicted it (a
            # false positive racing its voluntary leave) and it missed
            # its own departure announcement.  Resend that announcement
            # so the stuck leaver sees its id in ``leaves`` and
            # detaches — without this it waits forever, and ``leaving``
            # blocks its recovery requests.
            for update in self._history:
                if msg.user_id in update.leaves:
                    self.send(
                        src, m.RecoverResponse((update.share_for(msg.user_id),))
                    )
                    break
            return
        if msg.user_id in self._pending_leaves:
            return  # client retry of a LeaveRequest already queued
        self._pending_leaves.append(msg.user_id)
        self.key_tree.request_leave(msg.user_id)
        for record in msg.neighbor_records:
            self._pending_replacements[record.user_id] = record

    def _handle_failure_notice(self, msg: m.FailureNotice) -> None:
        """Section 3.2: a user reported a dead neighbor.  Process the
        failure as a leave at the interval end (without the leaver's own
        replacement records — it is gone).  Only the reported record is
        evicted: a notice about an earlier holder of a reused ID leaves
        the live holder alone."""
        if self.records.get(msg.failed.user_id) == msg.failed:
            self.evict(msg.failed.user_id)

    def evict(self, user_id: Id) -> bool:
        """Queue a member's departure without its cooperation — the
        shared path behind failure notices and the service's
        absent-member eviction after a snapshot restore.  Returns True
        when a leave was queued (False: unknown or already pending)."""
        if user_id not in self.records or user_id in self._pending_leaves:
            return False
        self._pending_leaves.append(user_id)
        self.key_tree.request_leave(user_id)
        return True

    def _handle_recover(self, src: int, msg: m.RecoverRequest) -> None:
        """Reference-[31] recovery: unicast the announcements the member
        missed, oldest first, with encryptions Lemma-3-filtered to what
        this member can use."""
        requester = next(
            (uid for uid, r in self.records.items() if r.host == src), None
        )
        missed = tuple(
            u.share_for(requester)
            for u in self._history
            if u.interval > msg.last_interval
        )
        if missed:
            self.send(src, m.RecoverResponse(missed))

    # ------------------------------------------------------------------
    def end_interval(self) -> m.MembershipUpdate:
        """Close the rekey interval: batch-rekey, then multicast the
        membership update + rekey message.  Joiners of this interval also
        get a direct unicast (footnote 1 of the paper) since nobody's
        table can reach them yet."""
        joins = tuple(self._pending_joins)
        leaves = tuple(self._pending_leaves)
        leaving = set(leaves)
        replacements = tuple(
            record
            for uid, record in sorted(self._pending_replacements.items())
            if uid not in leaving
        )
        self._pending_joins = []
        self._pending_leaves = []
        self._pending_replacements = {}
        rekey = self.key_tree.process_batch()
        update = m.MembershipUpdate(
            self.interval, joins, leaves, rekey.encryptions, replacements
        )
        self._history.append(update)
        self.interval += 1

        # The multicast runs over the tables as of the *previous*
        # announcement: next hops must be previously announced users
        # (this interval's joiners are in nobody's table yet).  Departing
        # users are still announced — they forward this final multicast
        # and detach on receiving it.
        server_table = self._build_server_table(self._announced)
        for user_id in leaves:
            host = self.records[user_id].host
            self._granted.pop(host, None)  # a rejoin gets a fresh grant
            self._assigned_by_host.pop(host, None)
            self.id_tree.remove_user(user_id)
            del self.records[user_id]
        self._announced -= leaving
        self._announced |= {r.user_id for r in joins if r.user_id not in leaving}
        self._announced_order = None
        self._all_departed.update(leaves)

        for _, nbr in server_table.row_primaries(0):
            self.send(
                nbr.host,
                m.MulticastMsg(
                    update.carrying(
                        split_for_next_hop(update.encryptions, nbr.user_id, 0)
                    ),
                    forward_level=1,
                ),
            )
        # This interval's joiners are unreachable over the tables, so the
        # server unicasts them their (Lemma-3-filtered) share directly —
        # the paper's footnote-1 behaviour.
        for record in joins:
            self.send(
                record.host,
                m.MulticastMsg(
                    update.share_for(record.user_id),
                    forward_level=self.scheme.num_digits,
                ),
            )
        return update

    def _build_server_table(self, announced: Set[Id]) -> NeighborTable:
        table = NeighborTable(
            self.scheme, UserRecord(NULL_ID, self.host), self.k
        )
        rtt = self.transport.topology.rtt
        slots: Dict[Tuple[int, int], List[Tuple[UserRecord, float]]] = {}
        for user_id in announced:
            record = self.records.get(user_id)
            if record is not None:
                slots.setdefault(table.slot_of(user_id), []).append(
                    (record, rtt(self.host, record.host))
                )
        for slot, pairs in slots.items():
            table.fill(slot, pairs)
        return table

    # ------------------------------------------------------------------
    # Snapshot / restore (service-mode graceful shutdown, docs/SERVICE.md)
    # ------------------------------------------------------------------
    SNAPSHOT_VERSION = 1

    def snapshot_state(self) -> bytes:
        """Serialize everything a restarted key server needs to resume
        this group: key tree, ID tree, member records, pending batch,
        announcement history, idempotency caches, and the RNG.  The
        scheme travels along so a mismatched restore fails loudly.

        Set-valued fields are serialized as sorted tuples (set iteration
        order depends on insertion history, which a restore does not
        replay), so snapshots of identical state are byte-identical —
        including a re-snapshot right after a restore."""
        state = {}
        for name in self._SNAPSHOT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, (set, frozenset)):
                value = tuple(sorted(value, key=repr))
            state[name] = value
        payload = {
            "version": self.SNAPSHOT_VERSION,
            "scheme": (self.scheme.num_digits, self.scheme.base),
            "state": state,
        }
        return pickle.dumps(payload, protocol=4)

    def restore_state(self, blob: bytes) -> None:
        """Load a :meth:`snapshot_state` blob into this (fresh) server.
        Hosts of restored members are *not* reconnected automatically;
        the service evicts absentees (see ``RekeyService.
        evict_absent_members``) so rekeying continues over live members."""
        payload = pickle.loads(blob)
        if payload.get("version") != self.SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot version {payload.get('version')!r} != "
                f"{self.SNAPSHOT_VERSION}"
            )
        if payload["scheme"] != (self.scheme.num_digits, self.scheme.base):
            raise ValueError(
                f"snapshot scheme {payload['scheme']} does not match "
                f"server scheme ({self.scheme.num_digits}, {self.scheme.base})"
            )
        for name in self._SNAPSHOT_FIELDS:
            value = payload["state"][name]
            if isinstance(getattr(self, name), (set, frozenset)):
                value = set(value)
            setattr(self, name, value)
        self._announced_order = None

    def key_tree_state(self) -> bytes:
        """Canonical byte serialization of the key-tree state (sorted
        containers throughout), for byte-identity assertions across a
        snapshot/restore cycle.  Raw ``pickle`` of the tree is *not*
        canonical: set iteration order depends on insertion history, so
        two equal trees can pickle differently."""
        return pickle.dumps(_canonical(self.key_tree.__dict__), protocol=4)


@dataclass
class _Phase:
    """State of one digit-determination phase at a joining user."""

    index: int
    prefix: Id
    pools: Dict[int, Dict[Id, UserRecord]] = field(default_factory=dict)
    queried: Set[Id] = field(default_factory=set)
    #: Pools whose every record was queried or is unreachable: nothing in
    #: them to ask until ``_absorb`` writes into them again.
    exhausted: Set[int] = field(default_factory=set)
    pending_queries: int = 0
    awaiting_pings: Set[int] = field(default_factory=set)
    stage: str = "collect"  # collect -> measure -> done


class UserNode(TransportNode):
    """A user: joins via the real protocol, maintains its table, answers
    queries and pings, and forwards T-mesh multicasts with splitting."""

    def __init__(
        self,
        transport: Transport,
        host: int,
        server_host: int,
        scheme: IdScheme,
        thresholds: Tuple[float, ...],
        k: int = 4,
        percentile: float = 90.0,
        collect_target: int = 10,
    ):
        super().__init__(transport, host)
        self.server_host = server_host
        self.scheme = scheme
        self.thresholds = thresholds
        self.k = k
        self.percentile = percentile
        self.collect_target = collect_target
        self.stats = ProtocolStats()

        self.user_id: Optional[Id] = None
        self.record: Optional[UserRecord] = None
        self.table: Optional[NeighborTable] = None
        self.known: Dict[Id, UserRecord] = {}
        self.measured: Dict[int, float] = {}  # host -> end-to-end RTT
        self._phase: Optional[_Phase] = None
        self._ping_sent: Dict[int, float] = {}
        self._ping_token = 0
        self.copies_received: List[int] = []  # interval numbers, one per copy
        #: The log's per-interval counts, so a copy is accounted in O(1).
        self.copies_by_interval: Dict[int, int] = {}
        self.encryptions_received: Dict[int, int] = {}
        #: The last interval applied in order; None until the update that
        #: announces this member's own record (see :meth:`_apply_update`).
        self.applied: Optional[int] = None
        self.leaving = False
        self.joined = False
        #: Tombstones: an ID announced as left maps to the join time below
        #: which its records are stale — infinity while the ID is free,
        #: the new holder's join time once an announcement hands it out
        #: again (join times are unique per registration and increase).
        self._departed: Dict[Id, float] = {}
        self._leave_deferred = False  # leave requested before join finished
        #: Round-trip budget before a query/ping is written off (ms).
        self.timeout = 5000.0
        #: Retries on the key-server path (join admission, ID assignment,
        #: leave) before a lost request is accepted as fate.  The delay
        #: doubles per attempt (exponential backoff).
        self.max_server_retries = 3
        self._server_retry_events: Dict[str, object] = {}
        self._outstanding: Dict[Tuple, object] = {}  # token -> timeout Event
        self._query_seq = 0
        self._ping_timeouts: Dict[int, object] = {}
        self._unreachable: Set[int] = set()  # hosts that never answered
        # Section-3.2 liveness probing state.
        self.failure_threshold = 2  # consecutive missed pings
        self._miss_counts: Dict[Id, int] = {}
        self._probe_targets: Dict[int, UserRecord] = {}

    # ------------------------------------------------------------------
    # Outbound actions
    # ------------------------------------------------------------------
    def start_join(self) -> None:
        self._send_to_server(
            "join",
            lambda: m.JoinRequest(),
            done=lambda: self.joined or self._phase is not None,
        )

    def start_leave(self) -> None:
        """Request departure; the node keeps serving until the interval's
        final multicast delivers the update listing it.  Its neighbor
        records travel with the request so others can repair the entries
        it vacates (Silk leave).  A leave requested before the join
        protocol finished is deferred until the ID is assigned."""
        if self.user_id is None:
            self._leave_deferred = True
            return
        self.leaving = True
        neighbors = tuple(self.table.all_records()) if self.table else ()
        self._send_to_server(
            "leave",
            lambda: m.LeaveRequest(self.user_id, neighbors),
            # done once the final multicast detached us
            done=lambda: self.transport.node_at(self.host) is not self,
        )

    # ------------------------------------------------------------------
    # Key-server path with retry/timeout (requests can be dropped by an
    # installed fault plan; the server handlers are idempotent)
    # ------------------------------------------------------------------
    def _send_to_server(self, key, make_msg, done, attempt: int = 0) -> None:
        self.send(self.server_host, make_msg())
        if attempt >= self.max_server_retries:
            return

        def retry() -> None:
            self._server_retry_events.pop(key, None)
            if done() or self.transport.node_at(self.host) is not self:
                return
            self.stats.server_retries += 1
            self._send_to_server(key, make_msg, done, attempt + 1)

        self._server_retry_events[key] = self.scheduler.schedule(
            self.timeout * (2.0 ** attempt), retry
        )

    def _settle_server_call(self, key: str) -> None:
        event = self._server_retry_events.pop(key, None)
        if event is not None:
            event.cancel()

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, src: int, payload) -> None:
        if isinstance(payload, m.JoinGrant):
            self._on_grant(payload)
        elif isinstance(payload, m.QueryMsg):
            self._on_query(src, payload)
        elif isinstance(payload, m.QueryResponse):
            self._on_query_response(payload)
        elif isinstance(payload, m.PingMsg):
            self.send(src, m.PongMsg(self.record, payload.token))
        elif isinstance(payload, m.PongMsg):
            self._on_pong(src, payload)
        elif isinstance(payload, m.AssignedId):
            self._on_assigned(payload)
        elif isinstance(payload, m.MulticastMsg):
            self._apply_update(payload.payload, payload.forward_level)
        elif isinstance(payload, m.RecoverResponse):
            self._on_recover_response(payload)

    # ------------------------------------------------------------------
    # Join protocol: phases
    # ------------------------------------------------------------------
    def _on_grant(self, grant: m.JoinGrant) -> None:
        if self.joined or self._phase is not None:
            return  # duplicate grant (a retried request was also answered)
        self._settle_server_call("join")
        if grant.assigned is not None:  # first join of the whole group
            self._finalize(grant.assigned)
            return
        self.known[grant.bootstrap.user_id] = grant.bootstrap
        self._start_phase(0, NULL_ID)

    def _start_phase(self, index: int, prefix: Id) -> None:
        phase = _Phase(index=index, prefix=prefix)
        self._phase = phase
        pd = prefix.digits
        n = len(pd)
        seeds = [r for r in self.known.values() if r.user_id.digits[:n] == pd]
        self._absorb(phase, seeds)
        if not seeds:  # nobody to ask: defer everything to the server
            self._notify_server(prefix)
            return
        seed = next(
            (s for s in seeds if s.host not in self._unreachable), seeds[0]
        )
        self._send_phase_query(phase, seed, prefix)

    def _send_phase_query(
        self, phase: _Phase, target: UserRecord, prefix: Id
    ) -> None:
        """Send one collection query with a response timeout: a silent
        responder (failed or departed) must not wedge the join."""
        self._query_seq += 1
        token = ("phase", phase.index, self._query_seq)
        phase.queried.add(target.user_id)
        phase.pending_queries += 1
        self.stats.queries_sent += 1
        self.send(target.host, m.QueryMsg(prefix, token))

        def on_timeout() -> None:
            if token not in self._outstanding:
                return  # answered in time
            del self._outstanding[token]
            self._give_up_on(target)
            if self._phase is phase and phase.stage == "collect":
                phase.pending_queries -= 1
                self._continue_collect(phase)

        self._outstanding[token] = self.scheduler.schedule(
            self.timeout, on_timeout
        )

    def _give_up_on(self, record: UserRecord) -> None:
        """Stop considering a host that never answers."""
        self._unreachable.add(record.host)
        self.known.pop(record.user_id, None)
        if self._phase is not None:
            for pool in self._phase.pools.values():
                pool.pop(record.user_id, None)

    def _absorb(self, phase: _Phase, records: Iterable[UserRecord]) -> None:
        """File each record that carries the phase's prefix (and is not
        this node's own) in ``known`` and in the pool of its digit at the
        phase's index; a pool written into is no longer exhausted."""
        own = self.user_id
        pd = phase.prefix.digits
        n = len(pd)
        index = phase.index
        known, pools, exhausted = self.known, phase.pools, phase.exhausted
        for record in records:
            user_id = record.user_id
            digits = user_id.digits
            if digits[:n] != pd or (own is not None and user_id == own):
                continue
            known[user_id] = record
            digit = digits[index]
            pool = pools.get(digit)
            if pool is None:
                pool = pools[digit] = {}
            pool[user_id] = record
            exhausted.discard(digit)

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
        self._absorb(phase, response.records)
        phase.pending_queries -= 1
        self._continue_collect(phase)

    def _continue_collect(self, phase: _Phase) -> None:
        if phase.stage != "collect":
            return
        # Queried IDs and unreachable hosts only accumulate, so a pool
        # with no one left to ask stays that way until _absorb adds to it.
        queried, unreachable = phase.queried, self._unreachable
        exhausted = phase.exhausted
        for digit, pool in list(phase.pools.items()):
            if len(pool) >= self.collect_target or digit in exhausted:
                continue
            target = next(
                (
                    r
                    for uid, r in pool.items()
                    if uid not in queried and r.host not in unreachable
                ),
                None,
            )
            if target is None:
                exhausted.add(digit)
            else:
                # one outstanding refinement per pool per round
                self._send_phase_query(phase, target, phase.prefix.extend(digit))
        if phase.pending_queries == 0:
            self._start_measure(phase)

    def _start_measure(self, phase: _Phase) -> None:
        phase.stage = "measure"
        targets = {
            record.host
            for pool in phase.pools.values()
            for record in pool.values()
            if record.host not in self.measured
        }
        if not targets:
            self._decide(phase)
            return
        for host in targets:
            self._ping_token += 1
            token = self._ping_token
            phase.awaiting_pings.add(token)
            self._ping_sent[token] = self.scheduler.now
            self.stats.pings_sent += 1
            self.send(host, m.PingMsg(token))

            def on_timeout(token=token, host=host) -> None:
                if token not in self._ping_sent:
                    return  # pong arrived
                del self._ping_sent[token]
                self._ping_timeouts.pop(token, None)
                self._unreachable.add(host)
                if self._phase is phase and phase.stage == "measure":
                    for pool in phase.pools.values():
                        for uid in [
                            u for u, r in pool.items() if r.host == host
                        ]:
                            del pool[uid]
                    phase.awaiting_pings.discard(token)
                    if not phase.awaiting_pings:
                        self._decide(phase)

            self._ping_timeouts[token] = self.scheduler.schedule(
                self.timeout, on_timeout
            )

    def _on_pong(self, src: int, pong: m.PongMsg) -> None:
        sent = self._ping_sent.pop(pong.token, None)
        timeout_event = self._ping_timeouts.pop(pong.token, None)
        if timeout_event is not None:
            timeout_event.cancel()
        if sent is not None:
            self.measured[src] = self.scheduler.now - sent
        target = self._probe_targets.pop(pong.token, None)
        if target is not None:
            self._miss_counts.pop(target.user_id, None)  # alive again
        phase = self._phase
        if phase is None or phase.stage != "measure":
            return
        phase.awaiting_pings.discard(pong.token)
        if not phase.awaiting_pings:
            self._decide(phase)

    def _decide(self, phase: _Phase) -> None:
        phase.stage = "done"
        my_access = self.transport.topology.access_rtt(self.host)
        measured = self.measured
        digit = choose_digit(
            (
                (
                    j,
                    [
                        max(0.0, measured.get(r.host, 0.0) - my_access - r.access_rtt)
                        for r in pool.values()
                    ],
                )
                for j, pool in phase.pools.items()
            ),
            self.percentile,
            self.thresholds[phase.index],
        )
        if digit is not None:
            new_prefix = phase.prefix.extend(digit)
            if phase.index + 1 <= self.scheme.num_digits - 2:
                self._start_phase(phase.index + 1, new_prefix)
            else:
                self._notify_server(new_prefix)
        else:
            self._notify_server(phase.prefix)

    def _notify_server(self, prefix: Id) -> None:
        self._phase = None
        self._send_to_server(
            "notify",
            lambda: m.NotifyPrefix(prefix),
            done=lambda: self.user_id is not None,
        )

    def _on_assigned(self, msg: m.AssignedId) -> None:
        if self.joined:
            return  # duplicate assignment (retry raced the original)
        self._settle_server_call("notify")
        self._departed.update(msg.departed)
        self._finalize(msg.record)

    def _finalize(self, record: UserRecord) -> None:
        self.user_id = record.user_id
        self.record = record
        self.table = NeighborTable(self.scheme, record, self.k)
        self._offer(self.known.values())
        self.joined = True
        if self._leave_deferred:
            self.start_leave()

    def _offer(self, records: Iterable[UserRecord]) -> None:
        """Offer records to the table with their measured RTTs, leaving
        exactly what one ``insert`` per record in order would.  A record
        older than its ID's tombstone (the ID announced as left, and not
        handed to this record since) is stale, echoed by a racing query
        response or a lagging table, and is not admitted.  A host the
        join phases never probed is measured by a lazy ping pair, unless
        the record is this node's own or stale.

        Most offers change nothing: the entry is full of closer
        neighbours or already holds the ID.  So a measured record meets
        the table's reject test first, before the tombstone lookup, and
        the survivors of each entry land with one ``fill``.  This equals
        the sequential inserts (see ``NeighborTable.fill``) when the IDs
        are distinct and an ID the table holds is not offered below the
        RTT it was filed under.  A sequential pass could re-admit such an
        ID at the lower RTT after a closer offer evicted it.  Only a probe
        pong that re-measures a host lower can break that condition.
        """
        table = self.table
        if table is None:
            return
        measured = self.measured
        departed = self._departed
        admits = table.admits
        slots: Dict[Tuple[int, int], List[Tuple[UserRecord, float]]] = {}
        for record in records:
            user_id = record.user_id
            rtt = measured.get(record.host)
            if rtt is None:
                if user_id == self.user_id or (
                    user_id in departed and record.join_time < departed[user_id]
                ):
                    continue
                rtt = self.transport.topology.rtt(self.host, record.host)
                measured[record.host] = rtt
                self.stats.pings_sent += 1
                slot = admits(user_id, rtt)
                if slot is None:
                    continue
            else:
                slot = admits(user_id, rtt)
                if slot is None or (
                    user_id in departed and record.join_time < departed[user_id]
                ):
                    continue
            slots.setdefault(slot, []).append((record, rtt))
        for slot, pairs in slots.items():
            table.fill(slot, pairs)

    # ------------------------------------------------------------------
    # Failure detection (Section 3.2)
    # ------------------------------------------------------------------
    def probe_neighbors(self) -> None:
        """One round of liveness pings to every neighbor in the table.
        A neighbor missing ``failure_threshold`` consecutive probe
        rounds is declared failed: its record is dropped, the entry is
        re-filled, and the key server is notified."""
        if self.table is None or self.leaving:
            return
        for record in list(self.table.all_records()):
            self._ping_token += 1
            token = self._ping_token
            self._ping_sent[token] = self.scheduler.now
            self._probe_targets[token] = record
            self.stats.pings_sent += 1
            self.send(record.host, m.PingMsg(token))

            def on_timeout(token=token, record=record) -> None:
                if token not in self._ping_sent:
                    return  # pong arrived
                del self._ping_sent[token]
                self._ping_timeouts.pop(token, None)
                self._probe_targets.pop(token, None)
                misses = self._miss_counts.get(record.user_id, 0) + 1
                self._miss_counts[record.user_id] = misses
                if misses >= self.failure_threshold:
                    self._declare_failed(record)

            self._ping_timeouts[token] = self.scheduler.schedule(
                self.timeout, on_timeout
            )

    def _declare_failed(self, record: UserRecord) -> None:
        if self.table is None or self.user_id is None:
            return
        self._miss_counts.pop(record.user_id, None)
        self._unreachable.add(record.host)
        self._departed[record.user_id] = _FREE
        if self.table.remove(record.user_id):
            self.stats.failures_detected += 1
            self.send(self.server_host, m.FailureNotice(record, self.user_id))
            slot = self.table.slot_for(record)
            if not self.table.entry(*slot):
                self._refill(*slot)

    # ------------------------------------------------------------------
    # Reference-[31] recovery: resync missed announcements from the server
    # ------------------------------------------------------------------
    def request_recovery(self) -> None:
        """Ask the server for every interval announcement after the last
        one this node holds.  A member whose multicast copy was dropped
        misses the whole batch — joins, leaves, and its share of the
        rekey message — and this unicast path restores all of it.  Run
        it periodically; a multicast copy past a gap runs it at once.
        The request and response are themselves subject to the fault
        plan, so repeated rounds converge.  A *leaving* member still
        polls: once its departure is announced it receives no more
        multicasts (it is out of every table), so if it missed the
        final announcement this unicast is its only way to learn it.

        The request names the last interval the copy log holds
        contiguously from the start, never past ``applied``: a member
        that joined mid-history also learns the records announced before
        it (all a joiner whose phases found no one has to go on), and one
        that has not applied its own announcement asks for everything."""
        if not self.joined:
            return
        last = -1
        applied = self.applied
        if applied is not None:
            seen = self.copies_by_interval
            while last < applied and last + 1 in seen:
                last += 1
        self.stats.recovery_requests += 1
        self.send(self.server_host, m.RecoverRequest(last))

    def _on_recover_response(self, response: m.RecoverResponse) -> None:
        for update in sorted(response.updates, key=lambda u: u.interval):
            self._apply_update(update)
            if self.transport.node_at(self.host) is not self:
                return  # a recovered update announced our own departure

    def refill_sweep(self) -> int:
        """Anti-entropy round: issue a refill query for every empty
        table entry.  Entries go quietly empty when a lossy network
        drops the announcement that carried a joiner's record; an entry
        whose subtree really is unpopulated draws an empty response, so
        sweeping unconditionally is safe.  Returns queries sent."""
        if self.table is None or self.user_id is None or self.leaving:
            return 0
        sent = 0
        for i in range(self.scheme.num_digits):
            for j in range(self.scheme.base):
                if j == self.user_id[i]:
                    continue
                if not self.table.entry(i, j):
                    before = self.stats.refills_sent
                    self._refill(i, j)
                    sent += self.stats.refills_sent - before
        return sent

    # ------------------------------------------------------------------
    # Queries from other users
    # ------------------------------------------------------------------
    def _on_query(self, src: int, query: m.QueryMsg) -> None:
        matches: Tuple[UserRecord, ...] = ()
        if self.table is not None:
            prefix = query.target_prefix.digits
            matches = self.table.records_with_prefix(prefix)
            if self.user_id.digits[: len(prefix)] == prefix:
                matches += (self.record,)
        self.send(src, m.QueryResponse(matches, query.token))

    # ------------------------------------------------------------------
    # The member transition: every copy of an interval's update
    # ------------------------------------------------------------------
    def _log_copy(self, update: m.MembershipUpdate, multicast: bool) -> int:
        """Account one copy of ``update`` and return how many copies of
        its interval came before it.  Every T-mesh copy is logged (the
        Theorem-1 audits count them); a recovered copy only when its
        interval has none yet, so recovery never makes a duplicate."""
        interval = update.interval
        seen = self.copies_by_interval.get(interval, 0)
        if multicast:
            self.stats.multicast_copies += 1
        elif seen:
            return seen
        else:
            self.stats.recovered_updates += 1
        self.copies_received.append(interval)
        self.copies_by_interval[interval] = seen + 1
        self.encryptions_received[interval] = (
            self.encryptions_received.get(interval, 0) + len(update.encryptions)
        )
        return seen

    def _apply_update(
        self, update: m.MembershipUpdate, forward_level: Optional[int] = None
    ) -> None:
        """The one transition every copy of an update enters: a T-mesh
        copy with its ``forward_level`` (the footnote-1 unicast is one
        with nothing left to forward), or a recovered copy (None).

        The first T-mesh copy of an interval is forwarded before anything
        is applied, so the whole multicast runs on one table snapshot.
        Then the update *applies* only in interval order: it is the one
        after ``applied``, or, while ``applied`` is None, the one that
        announces this member's own record (:meth:`_advance`).  An update
        from before that announcement, seen for the first time, teaches
        records only (:meth:`_learn`).  A duplicate is a no-op, and a
        T-mesh copy past a gap asks for recovery instead of applying."""
        multicast = forward_level is not None
        seen = self._log_copy(update, multicast)
        if multicast and not seen:
            self._forward(update, forward_level)
        interval, applied = update.interval, self.applied
        if applied is None:
            current = self.record is not None and self.record in update.joins
        else:
            current = interval == applied + 1
        if current:
            self._advance(update)
        elif not seen:
            if applied is None or interval <= applied:
                self._learn(update)
            if multicast and self.joined and (applied is None or interval > applied):
                self.request_recovery()

    def _forward(self, update: m.MembershipUpdate, level: int) -> None:
        """FORWARD (Fig. 2) with per-hop splitting (Fig. 5)."""
        if self.table is None:
            return
        for i in range(level, self.scheme.num_digits):
            for _, nbr in self.table.row_primaries(i):
                self.send(
                    nbr.host,
                    m.MulticastMsg(
                        update.carrying(
                            split_for_next_hop(update.encryptions, nbr.user_id, i)
                        ),
                        forward_level=i + 1,
                    ),
                )

    def _advance(self, update: m.MembershipUpdate) -> None:
        """Apply the next interval: record its tombstones (an ID announced
        again admits its new holder's record and no older one), detach if
        it lists this member, remove the leavers, offer the joins and the
        leavers' replacement records as one batch, and send one refill
        query per entry the removals left empty.  Removing first lets a
        joiner take the place of a leaver in a full entry."""
        self.applied = update.interval
        departed = self._departed
        for record in update.joins:
            if record.user_id in departed:
                departed[record.user_id] = record.join_time
        departed.update(dict.fromkeys(update.leaves, _FREE))
        # Only the update that announces this node's departure ends its
        # duty.  A leaver whose request is still unqueued (lost, or in
        # flight across a close) keeps serving and applying updates until
        # then, or its retries would stop and the departure never be
        # announced.
        if self.user_id in update.leaves:
            self.detach()  # the final forwarding duty is done
            return
        table = self.table
        emptied: Dict[Tuple[int, int], None] = {}
        for user_id in update.leaves:
            if table.remove(user_id):
                emptied[table.slot_of(user_id)] = None
        self._offer(update.joins + update.replacements)
        # Refill queries target surviving neighbours; leavers sharing an
        # entry vacate it once.
        for i, j in emptied:
            if not table.entry(i, j):
                self._refill(i, j)

    def _learn(self, update: m.MembershipUpdate) -> None:
        """Take the records of an update from before this member's own
        announcement, and nothing else: no tombstone, no detach, no
        refill, no counter.  The tombstones ``AssignedId`` brought are
        newer than any such update, so a leaver leaves the table only
        when no tombstone speaks for its ID (as for the group's first
        member, which gets none), and a record that joined and left
        within the update is not offered."""
        table = self.table
        if table is None:
            return
        departed, leaves = self._departed, set(update.leaves)
        for user_id in leaves:
            if user_id not in departed:
                table.remove(user_id)
        self._offer(
            r for r in update.joins + update.replacements if r.user_id not in leaves
        )

    def _refill(self, i: int, j: int) -> None:
        """An entry went empty: ask a region mate (a neighbor sharing at
        least the first i digits) for members of that subtree."""
        target_prefix = self.user_id.prefix(i).extend(j)
        for row in range(self.scheme.num_digits - 1, i - 1, -1):
            for _, nbr in self.table.row_primaries(row):
                self.stats.refills_sent += 1
                self.send(
                    nbr.host,
                    m.QueryMsg(target_prefix, ("refill", i, j)),
                )
                return
