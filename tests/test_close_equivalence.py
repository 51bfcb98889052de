"""Differential test of the interval close against the code it replaced.

The reference half of this file carries that code verbatim: the per-hop
scan that ran the Theorem-2 predicate over everything a forwarder held,
the byte-at-a-time cipher, the key-store walk of ``apply_rekey_message``,
and the ``process_batch`` / ``end_interval`` bodies that drew from the
generator once per key and sorted every member's share.  (The only edits:
a reference calls the reference below it by name — ``reference_encrypt``
where the original said ``cipher.encrypt`` — since the names it used now
resolve to the replacements.)

Two groups, one of each kind, are driven by the same schedule of joins,
leaves and closes.  After every close everything an observer could see
must be *equal*: the rekey message down to the payload bytes, the
report (``delivered_encryptions`` in order), every member's key store in
insertion order, the split accounting, and the state of every generator
involved — the server's is shared with ``core.membership``, so a batch
draw that is one word off moves the next join's ID.
"""

import hashlib
import hmac
import struct
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import splitting
from repro.core.group import RekeyReport, SecureGroup
from repro.core.ids import NULL_ID, PAPER_SCHEME, Id
from repro.core.splitting import (
    SplitSessionResult,
    run_split_rekey,
    split_for_next_hop,
)
from repro.core.tmesh import (
    OverlayEdge,
    Receipt,
    SessionResult,
    rekey_session,
    run_multicast,
)
from repro.crypto import cipher
from repro.crypto.keystore import KeyStore
from repro.experiments.common import _default_thresholds
from repro.faults import FaultPlan
from repro.keytree import modified_tree
from repro.keytree.cluster import ClusterRekeyingTree
from repro.keytree.keys import Encryption, RekeyMessage
from repro.keytree.modified_tree import ModifiedKeyTree, apply_rekey_message
from repro.keytree.recovery import FecDecoder, FecEncoder
from repro.trace import hooks as _trace_hooks
from tests.conftest import SMALL_SCHEME, make_static_world


# ----------------------------------------------------------------------
# The reference: the replaced code, verbatim
# ----------------------------------------------------------------------
def _reference_keystream(key, nonce, length):
    out = bytearray()
    counter = 0
    while len(out) < length:
        out.extend(
            hashlib.sha256(key + nonce + struct.pack(">Q", counter)).digest()
        )
        counter += 1
    return bytes(out[:length])


def reference_encrypt(key, plaintext, rng=None):
    enc_key, mac_key = cipher._split_key(key)
    nonce = cipher.generate_key(rng)[: cipher._NONCE_LEN]
    stream = _reference_keystream(enc_key, nonce, len(plaintext))
    ciphertext = bytes(a ^ b for a, b in zip(plaintext, stream))
    body = nonce + ciphertext
    tag = hmac.new(mac_key, body, hashlib.sha256).digest()
    return body + tag


def reference_decrypt(key, blob):
    if len(blob) < cipher._NONCE_LEN + cipher._TAG_LEN:
        raise cipher.AuthenticationError("ciphertext too short")
    enc_key, mac_key = cipher._split_key(key)
    body, tag = blob[: -cipher._TAG_LEN], blob[-cipher._TAG_LEN :]
    expected = hmac.new(mac_key, body, hashlib.sha256).digest()
    if not hmac.compare_digest(tag, expected):
        raise cipher.AuthenticationError("bad authentication tag")
    nonce, ciphertext = body[: cipher._NONCE_LEN], body[cipher._NONCE_LEN :]
    stream = _reference_keystream(enc_key, nonce, len(ciphertext))
    return bytes(a ^ b for a, b in zip(ciphertext, stream))


def reference_split_rekey(session, message, track_sets=False):
    result = SplitSessionResult()
    holdings = {session.sender: tuple(message.encryptions)}
    result.forwarded[session.sender] = 0
    for member in session.receipts:
        result.forwarded.setdefault(member, 0)
    for edge in sorted(
        session.edges, key=lambda e: (e.send_time, e.arrival_time)
    ):
        have = holdings.get(edge.src)
        if have is None:
            have = ()
        carried = split_for_next_hop(have, edge.dst, edge.send_level)
        result.edge_loads.append((edge, len(carried)))
        result.forwarded[edge.src] = result.forwarded.get(edge.src, 0) + len(
            carried
        )
        receipt = session.receipts.get(edge.dst)
        if receipt is not None and receipt.upstream == edge.src:
            holdings[edge.dst] = carried
            result.received[edge.dst] = len(carried)
            if track_sets:
                result.received_sets[edge.dst] = set(carried)
    return result


def reference_apply_rekey_message(store, message):
    used = []
    for enc in sorted(message.encryptions, key=lambda e: -len(e.encrypting_key_id)):
        if enc.payload is None:
            raise ValueError("rekey message carries no payloads (counting mode)")
        if not store.has(enc.encrypting_key_id, enc.encrypting_version):
            continue
        if store.has(enc.new_key_id, enc.new_version):
            continue
        # was store.unwrap(...), i.e. cipher.decrypt on the held secret
        secret = reference_decrypt(
            store.get(enc.encrypting_key_id, enc.encrypting_version), enc.payload
        )
        store.put(enc.new_key_id, enc.new_version, secret)
        used.append(enc)
    return used


class ReferenceKeyTree(ModifiedKeyTree):
    def process_batch(self):
        joins = self._pending_joins
        leaves = self._pending_leaves
        self._pending_joins = []
        self._pending_leaves = []

        changed_unodes = list(joins)
        for user_id in leaves:
            changed_unodes.append(user_id)
            self._id_tree.remove_user(user_id)
        for node_id in [n for n in self._versions if n not in self._id_tree]:
            del self._versions[node_id]
            self._secrets.pop(node_id, None)

        updated = self._mark_updated(changed_unodes)
        for node_id in updated:
            self._versions[node_id] += 1
            if self.crypto:
                self._secrets[node_id] = cipher.generate_key(self._rng)

        encryptions = self._generate_encryptions(updated)
        self.interval += 1
        tctx = _trace_hooks.ACTIVE
        if tctx is not None:
            tctx.observe_batch_rekey(
                self.interval - 1, joins, leaves, updated, encryptions
            )
        return RekeyMessage(self.interval - 1, tuple(encryptions))

    def _generate_encryptions(self, updated):
        encryptions = []
        for node_id in updated:
            new_version = self._versions[node_id]
            for child in self._children(node_id):
                payload = None
                if self.crypto:
                    payload = reference_encrypt(
                        self._secrets[child], self._secrets[node_id], rng=self._rng
                    )
                encryptions.append(
                    Encryption(
                        encrypting_key_id=child,
                        encrypting_version=self._versions[child],
                        new_key_id=node_id,
                        new_version=new_version,
                        payload=payload,
                    )
                )
        return encryptions


class ReferenceSecureGroup(SecureGroup):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Same generator object: the one core.membership draws IDs from.
        self.key_tree = ReferenceKeyTree(
            self.scheme, crypto=True, rng=self.key_tree._rng
        )

    def end_interval(self, loss_rate=0.0, fec=None, loss_rng=None):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        rng = loss_rng if loss_rng is not None else np.random.default_rng()
        message = self.key_tree.process_batch()
        delivered = {}
        incomplete = []
        total = 0
        repaired = 0
        if message.rekey_cost and self.members:
            session = rekey_session(
                self.membership.server_table, self.membership.tables, self.topology
            )
            split = reference_split_rekey(session, message, track_sets=True)
            packetizer = fec if fec is not None else FecEncoder(packet_size=4)
            decoder = FecDecoder()
            for user_id, member in self.members.items():
                share = tuple(
                    sorted(
                        split.received_sets.get(user_id, set()),
                        key=lambda e: (len(e.id), e.id.digits),
                    )
                )
                if loss_rate > 0.0 and share:
                    packets = packetizer.encode(share)
                    if fec is None:  # no parity protection
                        packets = [p for p in packets if not p.is_parity]
                    survivors = [
                        p for p in packets if rng.random() >= loss_rate
                    ]
                    outcome = decoder.decode(survivors)
                    repaired += outcome.repaired_blocks
                    share = outcome.encryptions
                # was member.apply_rekey(...), i.e. len(apply_rekey_message(...))
                used = len(
                    reference_apply_rekey_message(
                        member.keystore, message.restricted_to(share)
                    )
                )
                delivered[user_id] = len(share)
                total += used
                if self._member_incomplete(member, user_id):
                    incomplete.append(user_id)
        return RekeyReport(
            message, delivered, total, tuple(incomplete), repaired
        )

    def _member_incomplete(self, member, user_id):
        return any(
            member.keystore.latest_version(key_id)
            != self.key_tree.node_version(key_id)
            for key_id in self.key_tree.path_key_ids(user_id)
        )


# ----------------------------------------------------------------------
# What gets compared
# ----------------------------------------------------------------------
def message_state(message):
    return (
        message.interval,
        [
            (
                e.encrypting_key_id,
                e.encrypting_version,
                e.new_key_id,
                e.new_version,
                e.payload,
            )
            for e in message.encryptions
        ],
    )


def report_state(report):
    return (
        message_state(report.message),
        list(report.delivered_encryptions.items()),
        report.total_sent,
        report.incomplete,
        report.fec_repaired_blocks,
    )


def stores_state(group):
    return [
        (uid, list(m.keystore._keys.items()), list(m.keystore._latest.items()))
        for uid, m in group.members.items()
    ]


def split_state(result):
    """Every field, dict insertion order included."""
    return (
        list(result.received.items()),
        list(result.forwarded.items()),
        list(result.edge_loads),
        list(result.received_sets.items()),
    )


def assert_same_split(session, message):
    ours = run_split_rekey(session, message, track_sets=True)
    theirs = reference_split_rekey(session, message, track_sets=True)
    assert split_state(ours) == split_state(theirs)
    plain = run_split_rekey(session, message)
    assert split_state(plain)[:3] == split_state(theirs)[:3]
    assert plain.received_sets == {}
    # A share is the member's received set laid out in message order.
    position = {id(e): i for i, e in enumerate(message.encryptions)}
    assert list(ours.shares) == list(theirs.received)
    for member, share in ours.shares.items():
        assert len(share) == theirs.received[member]
        assert set(share) == theirs.received_sets[member]
        order = [position[id(e)] for e in share]
        assert order == sorted(order) and len(set(order)) == len(order)
    return ours


# ----------------------------------------------------------------------
# Group level: one schedule, both implementations
# ----------------------------------------------------------------------
CLOSES = ("close", "close", "close_lossy", "close_fec")
OPS = ("join",) * 6 + ("leave",) * 6 + CLOSES


class Lockstep:
    def __init__(self, topology, scheme, seed, capacity):
        self.groups = [
            cls(
                topology,
                server_host=topology.num_hosts - 1,
                scheme=scheme,
                thresholds=_default_thresholds(scheme),
                seed=seed,
            )
            for cls in (SecureGroup, ReferenceSecureGroup)
        ]
        self.loss_rngs = [np.random.default_rng(seed + 1) for _ in self.groups]
        self.free = list(range(topology.num_hosts - 1))
        self.capacity = capacity
        self.closes = 0

    def join(self, pick):
        ours = self.groups[0]
        if not self.free or ours.num_members >= self.capacity:
            return
        host = self.free.pop(pick % len(self.free))
        members = [group.join(host) for group in self.groups]
        assert members[0].user_id == members[1].user_id
        self.compare()

    def leave(self, pick):
        ids = list(self.groups[0].members)
        if not ids:
            return
        victim = ids[pick % len(ids)]
        departed = [group.leave(victim) for group in self.groups]
        self.free.append(departed[0].host)

    def close(self, pick=0, loss_rate=0.0, fec=False):
        reports = [
            group.end_interval(
                loss_rate=loss_rate,
                fec=FecEncoder(packet_size=2, block_packets=2) if fec else None,
                loss_rng=loss_rng,
            )
            for group, loss_rng in zip(self.groups, self.loss_rngs)
        ]
        assert report_state(reports[0]) == report_state(reports[1])
        self.compare()
        ours = self.groups[0]
        if reports[0].message.rekey_cost and ours.members:
            session = rekey_session(
                ours.membership.server_table, ours.membership.tables, ours.topology
            )
            assert_same_split(session, reports[0].message)
        if not loss_rate:
            assert reports[0].incomplete == ()
            assert ours.verify_member_keys() == []
        self.closes += 1
        return reports[0]

    def close_lossy(self, pick=0, fec=False):
        report = self.close(loss_rate=0.3, fec=fec)
        # Heal, so later intervals start from whole key paths.
        for group in self.groups:
            for user_id in report.incomplete:
                group.recover_member(user_id)
        self.compare()
        return report

    def close_fec(self, pick=0):
        return self.close_lossy(fec=True)

    def compare(self):
        ours, theirs = self.groups
        assert stores_state(ours) == stores_state(theirs)
        for a, b in zip(self.loss_rngs, self.loss_rngs[1:]):
            assert a.bit_generator.state == b.bit_generator.state
        assert (
            ours.key_tree._rng.bit_generator.state
            == theirs.key_tree._rng.bit_generator.state
        )
        assert ours.key_tree._versions == theirs.key_tree._versions
        assert list(ours.key_tree._secrets.items()) == list(
            theirs.key_tree._secrets.items()
        )


def run_seeded(topology, scheme, seed, steps, capacity):
    rng = np.random.default_rng(seed)
    world = Lockstep(topology, scheme, seed, capacity)
    for _ in range(capacity // 2):
        world.join(int(rng.integers(0, 1 << 30)))
    world.close()
    for _ in range(steps):
        op = OPS[int(rng.integers(0, len(OPS)))]
        getattr(world, op)(int(rng.integers(0, 1 << 30)))
    world.close()
    return world


@pytest.mark.parametrize("seed", (3, 4))
def test_paper_scheme_schedule_matches_reference(gtitm, seed):
    world = run_seeded(gtitm, PAPER_SCHEME, seed, steps=150, capacity=44)
    assert world.closes > 10


@pytest.mark.parametrize("seed", (5, 6))
def test_crowded_id_space_schedule_matches_reference(gtitm, seed):
    """Base 4, three digits, up to 30 members: IDs are dense, freed IDs
    are handed out again within the interval, and most closes wrap under
    sibling IDs (the off-by-one country of the range lookup)."""
    world = run_seeded(gtitm, SMALL_SCHEME, seed, steps=200, capacity=30)
    assert world.closes > 10


@given(
    seed=st.integers(0, 2**16),
    schedule=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 1 << 16)), max_size=24
    ),
)
@settings(max_examples=25, deadline=None)
def test_short_schedules_match_reference(gtitm, seed, schedule):
    world = Lockstep(gtitm, SMALL_SCHEME, seed, capacity=14)
    for op, pick in schedule:
        getattr(world, op)(pick)
    world.close()


def test_empty_batch_draws_nothing_and_sends_nothing(gtitm):
    world = Lockstep(gtitm, SMALL_SCHEME, seed=1, capacity=8)
    for pick in range(6):
        world.join(pick)
    world.close()
    before = world.groups[0].key_tree._rng.bit_generator.state
    report = world.close()
    assert report.message.rekey_cost == 0 and report.total_sent == 0
    assert world.groups[0].key_tree._rng.bit_generator.state == before


def test_join_after_a_close_draws_the_same_id_as_the_reference(gtitm):
    """The point of comparing generator states: the next join's ID is
    drawn from the generator the batch just used."""
    world = run_seeded(gtitm, SMALL_SCHEME, seed=9, steps=20, capacity=12)
    for pick in range(3):
        world.join(pick)  # asserts equal user IDs
    world.close()


# ----------------------------------------------------------------------
# Split level: sessions and messages no group produces
# ----------------------------------------------------------------------
def counting_message(tree_ids, leavers, scheme=SMALL_SCHEME):
    tree = ModifiedKeyTree(scheme)
    for uid in tree_ids:
        tree.request_join(uid)
    tree.process_batch()
    for uid in leavers:
        tree.request_leave(uid)
    return tree.process_batch()


_ID_SETS = st.sets(
    st.tuples(*([st.integers(min_value=0, max_value=3)] * 3)),
    min_size=2,
    max_size=14,
).map(sorted)


@given(
    data=st.data(),
    digit_sets=_ID_SETS,
    seed=st.integers(0, 2**16),
    k=st.sampled_from((1, 2, 3)),
)
@settings(max_examples=40, deadline=None)
def test_sessions_with_failed_hosts_and_backups_match_reference(
    data, digit_sets, seed, k
):
    ids = [Id(d) for d in digit_sets]
    leavers = data.draw(st.sets(st.sampled_from(ids), max_size=len(ids) - 1))
    failed = data.draw(st.sets(st.integers(0, len(ids) - 1), max_size=3))
    use_backups = data.draw(st.booleans())
    topology, _, tables, server_table = make_static_world(
        SMALL_SCHEME, ids, seed=seed, k=k
    )
    message = counting_message(ids, sorted(leavers, key=lambda u: u.digits))
    session = run_multicast(
        server_table, tables, topology,
        failed_hosts=failed, use_backups=use_backups,
    )
    assert_same_split(session, message)


@given(digit_sets=_ID_SETS, seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_sessions_with_duplicated_and_dropped_copies_match_reference(
    digit_sets, seed
):
    ids = [Id(d) for d in digit_sets]
    topology, _, tables, server_table = make_static_world(
        SMALL_SCHEME, ids, seed=seed, k=2
    )
    message = counting_message(ids, ids[::3][: len(ids) - 1])
    session = run_multicast(
        server_table, tables, topology,
        fault_plan=FaultPlan(seed).duplicate(0.3).drop(0.1).delay(0.2, 50.0),
    )
    assert_same_split(session, message)


_DIGITS = st.lists(st.integers(0, 2), max_size=3).map(tuple)
_USER = st.lists(st.integers(0, 2), min_size=3, max_size=3).map(tuple)


@st.composite
def arbitrary_sessions(draw):
    """Edges between arbitrary members at arbitrary levels: hops that are
    not nested, forwarders that never received, members delivered to
    twice.  Nothing T-mesh would produce, everything the split accepts."""
    users = draw(st.lists(_USER, min_size=2, max_size=8, unique=True))
    ids = [NULL_ID] + [Id(u) for u in users]
    edges, receipts = [], {}
    for n in range(draw(st.integers(1, 14))):
        src = ids[draw(st.integers(0, len(ids) - 1))]
        dst = ids[draw(st.integers(1, len(ids) - 1))]
        level = draw(st.integers(0, 2))
        sent = float(draw(st.integers(0, 6)))
        edge = OverlayEdge(src, dst, 0, 0, level, sent, sent + draw(st.integers(1, 3)))
        edges.append(edge)
        if draw(st.booleans()) or dst not in receipts:
            receipts[dst] = Receipt(dst, 0, edge.arrival_time, level + 1, src)
    return SessionResult(NULL_ID, 0, receipts, edges)


@st.composite
def arbitrary_messages(draw):
    """Unsorted, with repeated encryption IDs (as a cluster message has)
    and IDs of every length, the null ID and full user IDs included."""
    ids = draw(st.lists(_DIGITS, min_size=0, max_size=12))
    return RekeyMessage(
        0,
        tuple(
            Encryption(Id(d), draw(st.integers(0, 1)), Id(d[:-1]), n)
            for n, d in enumerate(ids)
        ),
    )


@given(session=arbitrary_sessions(), message=arbitrary_messages())
@settings(max_examples=300, deadline=None)
def test_arbitrary_sessions_and_messages_match_reference(session, message):
    assert_same_split(session, message)


def test_hand_built_unsorted_message_with_sibling_ids():
    """The message in reverse of the order the key tree emits, sibling
    IDs at every level: the shares still come out in message order."""
    ids = [Id(d) for d in [(0, 0, 1), (0, 0, 2), (0, 1, 0), (1, 0, 0), (1, 0, 1), (1, 1, 3)]]
    topology, _, tables, server_table = make_static_world(SMALL_SCHEME, ids, seed=2)
    tree = ModifiedKeyTree(SMALL_SCHEME)
    for uid in ids:
        tree.request_join(uid)
    everything = tree.process_batch()  # wraps under every node of the tree
    backwards = RekeyMessage(0, tuple(reversed(everything.encryptions)))
    session = rekey_session(server_table, tables, topology)
    for message in (everything, backwards):
        ours = assert_same_split(session, message)
        for uid in ids:
            assert set(message.needed_by(uid)) <= set(ours.shares[uid])


def test_cluster_message_with_repeated_encryption_ids():
    """Two intervals of a cluster-rekeying tree sent as one message (what
    a member that missed the first one is owed): the same leaders' IDs
    wrap twice, at two versions.  Equal IDs keep their message order."""
    ids = [Id([a, b, c]) for a in range(2) for b in range(2) for c in range(3)]
    topology, _, tables, server_table = make_static_world(SMALL_SCHEME, ids, seed=4)
    tree = ClusterRekeyingTree(SMALL_SCHEME)
    for uid in ids:
        tree.request_join(uid)
    tree.process_batch()
    intervals = []
    for leavers in (ids[::4], ids[1::4]):
        for uid in leavers:
            tree.request_leave(uid)
        intervals.append(tree.process_batch().message)
    both = RekeyMessage(
        intervals[1].interval, intervals[0].encryptions + intervals[1].encryptions
    )
    seen = [e.id for e in both.encryptions]
    assert len(set(seen)) < len(seen)
    session = rekey_session(server_table, tables, topology)
    for message in (*intervals, both):
        assert_same_split(session, message)


# ----------------------------------------------------------------------
# Cipher and key-store level
# ----------------------------------------------------------------------
@given(
    key=st.binary(min_size=1, max_size=48),
    plaintext=st.binary(max_size=200),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None)
def test_cipher_matches_reference(key, plaintext, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    blob = cipher.encrypt(key, plaintext, rng=ours)
    assert blob == reference_encrypt(key, plaintext, rng=theirs)
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert cipher.decrypt(key, blob) == reference_decrypt(key, blob) == plaintext


def test_apply_processes_deepest_first_with_ties_in_message_order():
    """Two wraps of one new key under two held keys of equal depth: the
    first in message order is the one used."""
    store, reference = KeyStore(), KeyStore()
    new = cipher.generate_key(np.random.default_rng(1))
    wraps = []
    for n, digits in enumerate([(0, 1), (0, 2), (0,)]):
        held = bytes([n + 1]) * 32
        for s in (store, reference):
            s.put(Id(digits), 0, held)
        wraps.append(
            Encryption(Id(digits), 0, NULL_ID, 1, cipher.encrypt(held, new))
        )
    message = RekeyMessage(0, (wraps[2], wraps[0], wraps[1]))
    used = apply_rekey_message(store, message)
    assert used == reference_apply_rekey_message(reference, message) == [wraps[0]]
    assert list(store._keys.items()) == list(reference._keys.items())


# ----------------------------------------------------------------------
# The mutants the comparison exists to catch
# ----------------------------------------------------------------------
def _crowded_world_trips(gtitm):
    with pytest.raises(AssertionError):
        run_seeded(gtitm, SMALL_SCHEME, seed=5, steps=200, capacity=30)


def test_catches_bisect_right_for_the_upper_bound(gtitm, monkeypatch):
    def mutant(ids, q, low=None):
        # the lower bound passes two arguments, the upper bound three
        return bisect_left(ids, q) if low is None else bisect_right(ids, q, low)

    monkeypatch.setattr(splitting, "bisect_left", mutant)
    _crowded_world_trips(gtitm)


def test_catches_prefixes_only_mistaken_for_the_full_holding(monkeypatch):
    restrict = splitting._restrict
    monkeypatch.setattr(
        splitting, "_restrict", lambda holding, hop: (False, restrict(holding, hop)[1])
    )
    session = SessionResult(
        NULL_ID,
        0,
        {
            Id((0, 0, 0)): Receipt(Id((0, 0, 0)), 0, 1.0, 2, NULL_ID),
            Id((0, 1, 0)): Receipt(Id((0, 1, 0)), 0, 2.0, 2, Id((0, 0, 0))),
        },
        [
            OverlayEdge(NULL_ID, Id((0, 0, 0)), 0, 0, 1, 0.0, 1.0),
            # a hop out of the subtree its sender was reached through
            OverlayEdge(Id((0, 0, 0)), Id((0, 1, 0)), 0, 0, 1, 1.0, 2.0),
        ],
    )
    message = RekeyMessage(
        0,
        tuple(
            Encryption(Id(d), 0, Id(d[:-1]), 1)
            for d in [(0,), (0, 0), (0, 1), (0, 0, 0), (0, 1, 0)]
        ),
    )
    with pytest.raises(AssertionError):
        assert_same_split(session, message)


def test_catches_ascending_depth_order_in_apply(gtitm, monkeypatch):
    def unreversed(iterable, *, key=None, reverse=False):
        return sorted(iterable, key=key)

    # a module global shadows the builtin for apply_rekey_message only
    monkeypatch.setattr(modified_tree, "sorted", unreversed, raising=False)
    _crowded_world_trips(gtitm)


def test_catches_a_pool_handing_out_bytes_in_the_wrong_order(gtitm, monkeypatch):
    class Backwards(cipher._DrawnBytes):
        def bytes(self, n):
            self._taken += n
            end = len(self._data) - self._taken + n
            return self._data[end - n : end]

    monkeypatch.setattr(cipher, "_DrawnBytes", Backwards)
    _crowded_world_trips(gtitm)
