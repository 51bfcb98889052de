"""End-to-end tests of the SecureGroup application layer: real keys, real
split rekey delivery, forward/backward secrecy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.group import SecureGroup
from repro.core.ids import IdScheme
from repro.experiments.common import (
    _default_thresholds,
    build_topology,
    server_host_of,
)
from repro.experiments.config import SMALL_GTITM
from repro.net import TransitStubParams, TransitStubTopology

PARAMS = TransitStubParams(
    transit_domains=3, transit_per_domain=3, stubs_per_transit=2, stub_size=6
)


@pytest.fixture(scope="module")
def topology():
    return TransitStubTopology(num_hosts=40, params=PARAMS, seed=21)


def build(topology, n, seed=0):
    group = SecureGroup(topology, server_host=topology.num_hosts - 1, seed=seed)
    members = [group.join(h) for h in range(n)]
    group.end_interval()
    return group, members


class TestBasics:
    def test_members_hold_consistent_keys_after_interval(self, topology):
        group, _ = build(topology, 12)
        assert group.verify_member_keys() == []

    def test_data_roundtrip_between_members(self, topology):
        group, members = build(topology, 6)
        blob = members[0].seal(b"agenda item 1")
        for m in members[1:]:
            assert m.open(blob) == b"agenda item 1"

    def test_sealed_data_is_versioned(self, topology):
        group, members = build(topology, 4)
        v = members[0].group_key_version
        blob = members[0].seal(b"x")
        assert int.from_bytes(blob[:4], "big") == v

    def test_seal_requires_group_key(self, topology):
        from repro.core.group import GroupMember
        from repro.crypto.keystore import KeyStore
        from repro.core.ids import Id

        orphan = GroupMember(Id([0] * 5), 0, KeyStore())
        with pytest.raises(RuntimeError):
            orphan.seal(b"no key")

    def test_tampered_data_rejected(self, topology):
        group, members = build(topology, 4)
        blob = bytearray(members[0].seal(b"payload"))
        blob[-1] ^= 1
        from repro.crypto import AuthenticationError

        with pytest.raises(AuthenticationError):
            members[1].open(bytes(blob))

    def test_malformed_blob_rejected(self, topology):
        group, members = build(topology, 2)
        with pytest.raises(ValueError):
            members[0].open(b"xy")


class TestSecrecy:
    def test_forward_secrecy_on_leave(self, topology):
        group, members = build(topology, 10)
        leaver = members[3]
        group.leave(leaver.user_id)
        group.end_interval()
        blob = members[0].seal(b"after departure")
        with pytest.raises(KeyError):
            leaver.open(blob)
        # remaining members unaffected
        assert members[1].open(blob) == b"after departure"
        assert group.verify_member_keys() == []

    def test_departed_member_keeps_old_traffic(self, topology):
        """Batch rekeying changes keys at interval boundaries: messages
        sealed before the leave remain readable by the leaver."""
        group, members = build(topology, 8)
        old_blob = members[0].seal(b"old traffic")
        leaver = members[2]
        group.leave(leaver.user_id)
        group.end_interval()
        assert leaver.open(old_blob) == b"old traffic"

    def test_backward_secrecy_at_interval_granularity(self, topology):
        """Backward secrecy under batch rekeying is per interval: a joiner
        cannot read traffic sealed before the last rekey preceding its
        join."""
        group, members = build(topology, 8)
        old_blob = members[0].seal(b"pre-join secret")
        group.leave(members[7].user_id)  # force a key change
        group.end_interval()
        newbie = group.join(30)
        group.end_interval()
        with pytest.raises(KeyError):
            newbie.open(old_blob)
        assert newbie.open(members[0].seal(b"current")) == b"current"

    def test_joiner_reads_current_interval_traffic(self, topology):
        """At join the server hands over the *current* group key (Section
        3.1), so traffic of the join's own interval is readable — the
        paper's access-control granularity is the rekey interval."""
        group, members = build(topology, 8)
        blob = members[0].seal(b"same interval")
        newbie = group.join(30)
        assert newbie.open(blob) == b"same interval"

    def test_rekey_message_alone_useless_to_outsider(self, topology):
        """An eavesdropper holding the full rekey message but no keys
        recovers nothing."""
        group, members = build(topology, 6)
        group.leave(members[0].user_id)
        message = group.key_tree  # capture via a fresh interval below
        report = group.end_interval()
        from repro.crypto.keystore import KeyStore
        from repro.keytree.modified_tree import apply_rekey_message

        assert apply_rekey_message(KeyStore(), report.message) == []


class TestIdReuse:
    """An ID that leaves and is handed out again inside one interval is a
    rejoin to the key tree (no structural change), but the new holder may
    be another host: the departed one must end up holding nothing the
    interval's rekey message wraps under."""

    def test_departed_holder_of_a_reused_id_unwraps_nothing(self):
        scheme = IdScheme(num_digits=2, base=2)  # four IDs in all
        topology = TransitStubTopology(num_hosts=12, params=PARAMS, seed=21)
        group = SecureGroup(
            topology,
            server_host=11,
            scheme=scheme,
            thresholds=_default_thresholds(scheme),
            seed=3,
        )
        members = [group.join(host) for host in range(4)]
        group.end_interval()
        departed = group.leave(members[1].user_id)
        joiner = group.join(7)  # the one free ID is the one that just left
        assert joiner.user_id == departed.user_id and joiner.host != departed.host
        assert joiner.keystore.get(joiner.user_id) != departed.keystore.get(
            departed.user_id
        )
        report = group.end_interval()
        assert departed.apply_rekey(report.message) == 0
        assert group.verify_member_keys() == []
        blob = members[0].seal(b"after the ID changed hands")
        assert joiner.open(blob) == b"after the ID changed hands"
        with pytest.raises(KeyError):
            departed.open(blob)

    def test_leaves_first_churn_at_256_members_on_ten_seeds(self):
        """Leaves before joins, the freed hosts free to come back: on the
        code before the fix half of these seeds let a departed member
        unwrap the interval."""
        size, burst, spare = 256, 64, 8
        topology = build_topology(
            "gtitm", size + spare + 1, seed=20, gtitm_params=SMALL_GTITM
        )
        group = SecureGroup(topology, server_host_of(topology), seed=20)
        hosts = [
            int(h) for h in np.random.default_rng(20).permutation(size + spare)
        ]
        for host in hosts[:size]:
            group.join(host)
        group.end_interval()
        free = hosts[size:]
        reused = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            for _ in range(2):
                ids = sorted(group.members)
                departed = [
                    group.leave(ids[int(i)])
                    for i in rng.choice(len(ids), burst, replace=False)
                ]
                free += [member.host for member in departed]
                rng.shuffle(free)
                joiners, free = free[:burst], free[burst:]
                left = {member.user_id for member in departed}
                reused += sum(group.join(host).user_id in left for host in joiners)
                report = group.end_interval()
                assert [
                    member.user_id
                    for member in departed
                    if member.apply_rekey(report.message) > 0
                ] == [], seed
                assert group.verify_member_keys() == [], seed
        assert reused > 0  # the schedule does reach the rejoin branch


class TestChurn:
    @given(st.integers(0, 100))
    @settings(max_examples=5, deadline=None)
    def test_multi_interval_churn_stays_consistent(self, seed):
        topology = TransitStubTopology(num_hosts=40, params=PARAMS, seed=5)
        group = SecureGroup(topology, server_host=39, seed=seed)
        rng = np.random.default_rng(seed)
        members = {}
        next_host = 0
        for _ in range(6):  # six rekey intervals
            for _ in range(int(rng.integers(1, 5))):
                if next_host < 39:
                    m = group.join(next_host)
                    members[m.user_id] = m
                    next_host += 1
            if members and rng.random() < 0.7:
                uid = list(members)[int(rng.integers(0, len(members)))]
                group.leave(uid)
                del members[uid]
            group.end_interval()
            assert group.verify_member_keys() == []
        # everyone still in the group can talk to everyone else
        member_list = list(members.values())
        if len(member_list) >= 2:
            blob = member_list[0].seal(b"final check")
            assert member_list[-1].open(blob) == b"final check"

    def test_rekey_report_accounting(self, topology):
        group, members = build(topology, 10)
        group.leave(members[0].user_id)
        group.join(35)
        report = group.end_interval()
        assert report.rekey_cost == report.message.rekey_cost > 0
        # split delivery: nobody got more than the full message
        for count in report.delivered_encryptions.values():
            assert count <= report.rekey_cost
