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
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.id_assignment import complete_user_id
from ..core.id_tree import IdTree
from ..core.ids import Id, IdScheme, NULL_ID
from ..core.neighbor_table import NeighborTable, UserRecord
from ..core.splitting import split_for_next_hop
from ..keytree.modified_tree import ModifiedKeyTree
from ..net.scheduling import Transport, TransportNode
from . import messages as m


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
        # Every ID that ever left: shipped with AssignedId so a joiner
        # whose collection phases spanned an interval boundary can purge
        # records of users that departed meanwhile (in a deployment the
        # registrar validates the joiner's record set the same way).
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
            candidates = sorted(self._announced) or sorted(self.records)
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
        reply = m.AssignedId(record, tuple(self._all_departed))
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
                    self.send(src, m.RecoverResponse((update,)))
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
        replacement records — it is gone)."""
        self.evict(msg.failed_user)

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
            m.MembershipUpdate(
                u.interval,
                u.joins,
                u.leaves,
                tuple(
                    e
                    for e in u.encryptions
                    if requester is not None and e.needed_by(requester)
                ),
                u.replacements,
            )
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
        replacements = tuple(
            record
            for uid, record in sorted(self._pending_replacements.items())
            if uid not in set(self._pending_leaves)
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
        self._announced -= set(leaves)
        self._announced |= {
            r.user_id for r in joins if r.user_id not in set(leaves)
        }
        self._all_departed.update(leaves)

        for _, nbr in server_table.row_primaries(0):
            self.send(
                nbr.host,
                m.MulticastMsg(
                    m.MembershipUpdate(
                        update.interval,
                        update.joins,
                        update.leaves,
                        split_for_next_hop(update.encryptions, nbr.user_id, 0),
                        update.replacements,
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
                    m.MembershipUpdate(
                        update.interval,
                        update.joins,
                        update.leaves,
                        tuple(
                            e
                            for e in update.encryptions
                            if e.needed_by(record.user_id)
                        ),
                        update.replacements,
                    ),
                    forward_level=self.scheme.num_digits,
                ),
            )
        return update

    def _build_server_table(self, announced: Set[Id]) -> NeighborTable:
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
        self.encryptions_received: Dict[int, int] = {}
        self.leaving = False
        self.joined = False
        self._departed: Set[Id] = set()  # IDs announced as left
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
            self._on_multicast(payload)
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
            self._on_refill_response(response)
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
        for other in self.known.values():
            self._insert(other)
        self.joined = True
        if self._leave_deferred:
            self.start_leave()

    def _insert(self, record: UserRecord) -> None:
        """Insert a record with a measured RTT (a lazy ping pair when the
        join phases never probed this host)."""
        if record.user_id == self.user_id or self.table is None:
            return
        if record.user_id in self._departed:
            return  # a stale record echoed by a racing query response
        rtt = self.measured.get(record.host)
        if rtt is None:
            rtt = self.transport.topology.rtt(self.host, record.host)
            self.measured[record.host] = rtt
            self.stats.pings_sent += 1
        self.table.insert(record, rtt)

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
        self._departed.add(record.user_id)
        if self.table.remove(record.user_id):
            self.stats.failures_detected += 1
            self.send(
                self.server_host,
                m.FailureNotice(record.user_id, self.user_id),
            )
            slot = self.table.slot_for(record)
            if not self.table.entry(*slot):
                self._refill(*slot)

    # ------------------------------------------------------------------
    # Reference-[31] recovery: resync missed announcements from the server
    # ------------------------------------------------------------------
    def request_recovery(self) -> None:
        """Ask the server for every interval announcement after the last
        one this node saw.  A member whose multicast copy was dropped
        misses the whole batch — joins, leaves, and its share of the
        rekey message — and this unicast path restores all of it.  Run
        it periodically (or after an interval-number gap is observed);
        the request and response are themselves subject to the fault
        plan, so repeated rounds converge.  A *leaving* member still
        polls: once its departure is announced it receives no more
        multicasts (it is out of every table), so if it missed the
        final announcement this unicast is its only way to learn it —
        applying any recovered update while leaving detaches the node
        (:meth:`_apply_update`)."""
        if not self.joined:
            return
        # Report the last *contiguously* seen interval: a member that
        # joined mid-history holds {1} and still needs interval 0's
        # membership (collect phases run under the same lossy network).
        seen = set(self.copies_received)
        last = -1
        while last + 1 in seen:
            last += 1
        self.stats.recovery_requests += 1
        self.send(self.server_host, m.RecoverRequest(last))

    def _on_recover_response(self, response: m.RecoverResponse) -> None:
        for update in sorted(response.updates, key=lambda u: u.interval):
            if update.interval in self.copies_received:
                continue  # the multicast copy arrived after we asked
            self.copies_received.append(update.interval)
            self.encryptions_received[update.interval] = (
                self.encryptions_received.get(update.interval, 0)
                + len(update.encryptions)
            )
            self.stats.recovered_updates += 1
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
            found = [
                r
                for r in self.table.all_records()
                if query.target_prefix.is_prefix_of(r.user_id)
            ]
            if self.record is not None and query.target_prefix.is_prefix_of(
                self.record.user_id
            ):
                found.append(self.record)
            matches = tuple(found)
        self.send(src, m.QueryResponse(matches, query.token))

    # ------------------------------------------------------------------
    # T-mesh multicast: FORWARD + REKEY-MESSAGE-SPLIT on the wire
    # ------------------------------------------------------------------
    def _on_multicast(self, msg: m.MulticastMsg) -> None:
        update = msg.payload
        self.copies_received.append(update.interval)
        self.stats.multicast_copies += 1
        self.encryptions_received[update.interval] = (
            self.encryptions_received.get(update.interval, 0)
            + len(update.encryptions)
        )
        if self.copies_received.count(update.interval) > 1:
            return  # duplicate: do not forward again (Theorem 1 says this
            # cannot happen with consistent tables; counted for tests)

        # FORWARD (Fig. 2) with per-hop splitting (Fig. 5).
        level = msg.forward_level
        if self.table is not None and level < self.scheme.num_digits:
            for i in range(level, self.scheme.num_digits):
                for _, nbr in self.table.row_primaries(i):
                    self.send(
                        nbr.host,
                        m.MulticastMsg(
                            m.MembershipUpdate(
                                update.interval,
                                update.joins,
                                update.leaves,
                                split_for_next_hop(
                                    update.encryptions, nbr.user_id, i
                                ),
                                update.replacements,
                            ),
                            forward_level=i + 1,
                        ),
                    )

        # Apply the membership changes *after* forwarding, so the whole
        # multicast runs on one consistent table snapshot.
        self._apply_update(update)

    def _apply_update(self, update: m.MembershipUpdate) -> None:
        self._departed.update(update.leaves)
        if self.user_id in update.leaves or self.leaving:
            self.detach()  # the final forwarding duty is done
            return
        if self.table is None:
            return
        for record in update.joins:
            self._insert(record)
        # Remove every departed record first, then refill the emptied
        # entries — refill queries must target surviving neighbors only.
        emptied: List[Tuple[int, int]] = []
        for user_id in update.leaves:
            if self.table.remove(user_id):
                emptied.append(self.table.slot_of(user_id))
        # The leavers' own neighbor records repair most vacated entries
        # immediately; refill queries cover anything still empty.
        for record in update.replacements:
            self._insert(record)
        for i, j in emptied:
            if not self.table.entry(i, j):
                self._refill(i, j)

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

    def _on_refill_response(self, response: m.QueryResponse) -> None:
        for record in response.records:
            self._insert(record)
