"""The application layer: a secure group with *real* keys.

This is what a downstream user of the library adopts: a
:class:`SecureGroup` admits members, runs periodic batch rekey intervals
over the modified key tree in crypto mode, delivers the rekey message over
T-mesh with the splitting scheme, and lets members encrypt/decrypt group
data under the current group key.  Members hold real
:class:`~repro.crypto.keystore.KeyStore` s; a departed member provably
cannot read data encrypted after the interval in which it left (the test
suite and the examples check exactly that).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..crypto import AuthenticationError, cipher
from ..crypto.keystore import KeyStore
from ..keytree.keys import RekeyMessage
from ..keytree.modified_tree import ModifiedKeyTree, apply_rekey_message
from ..keytree.recovery import FecDecoder, FecEncoder, KeyPathGrant
from ..net.topology import Topology
from .id_assignment import IdAssigner, PAPER_THRESHOLDS
from .ids import Id, IdScheme, NULL_ID, PAPER_SCHEME
from .membership import Group
from .splitting import run_split_rekey
from .tmesh import rekey_session


class GroupMember:
    """One end host's view of the secure group."""

    def __init__(self, user_id: Id, host: int, keystore: KeyStore):
        self.user_id = user_id
        self.host = host
        self.keystore = keystore
        #: IDs of the keys this member is entitled to: its ID-tree path,
        #: individual key first, group key last (what
        #: ``ModifiedKeyTree.path_key_ids`` lists, kept for the audit
        #: after every interval).
        self.path_key_ids: Tuple[Id, ...] = tuple(
            user_id.prefix(level) for level in range(len(user_id), -1, -1)
        )

    # ------------------------------------------------------------------
    @property
    def group_key_version(self) -> Optional[int]:
        return self.keystore.latest_version(NULL_ID)

    def apply_rekey(self, message: RekeyMessage) -> int:
        """Install every new key recoverable from a (possibly split) rekey
        message; returns the number of encryptions used."""
        return len(apply_rekey_message(self.keystore, message))

    # ------------------------------------------------------------------
    # Group data
    # ------------------------------------------------------------------
    def seal(self, plaintext: bytes) -> bytes:
        """Encrypt application data under the current group key.  The
        group-key version is prefixed in clear so receivers know which key
        decrypts (the paper's rekey messages carry key IDs the same way)."""
        version = self.group_key_version
        if version is None:
            raise RuntimeError(f"{self.user_id} holds no group key")
        secret = self.keystore.get(NULL_ID, version)
        return struct.pack(">I", version) + cipher.encrypt(secret, plaintext)

    def open(self, blob: bytes) -> bytes:
        """Decrypt group data; raises ``KeyError`` if this member never
        held the group-key version used, or ``AuthenticationError`` on
        tampering."""
        if len(blob) < 4:
            raise ValueError("sealed blob too short")
        (version,) = struct.unpack(">I", blob[:4])
        if not self.keystore.has(NULL_ID, version):
            raise KeyError(
                f"{self.user_id} does not hold group key version {version}"
            )
        return cipher.decrypt(self.keystore.get(NULL_ID, version), blob[4:])


@dataclass
class RekeyReport:
    """What one rekey interval did."""

    message: RekeyMessage
    delivered_encryptions: Dict[Id, int]  # per member, after splitting
    total_sent: int
    #: Members whose key state is incomplete after delivery (losses that
    #: FEC could not repair); candidates for unicast recovery.
    incomplete: Tuple[Id, ...] = ()
    fec_repaired_blocks: int = 0

    @property
    def rekey_cost(self) -> int:
        return self.message.rekey_cost


class SecureGroup:
    """Key server + members + transport, wired together.

    Joins run the real ID-assignment protocol against the live group;
    rekey intervals batch the queued joins/leaves, generate an
    authenticated rekey message from the crypto-mode modified key tree,
    multicast it over T-mesh with splitting, and apply each member's
    split share to its key store.
    """

    def __init__(
        self,
        topology: Topology,
        server_host: int,
        scheme: IdScheme = PAPER_SCHEME,
        thresholds=PAPER_THRESHOLDS,
        k: int = 4,
        seed: int = 0,
    ):
        self.scheme = scheme
        self.topology = topology
        rng = np.random.default_rng(seed)
        self.membership = Group(
            scheme,
            topology,
            server_host,
            IdAssigner(scheme, thresholds),
            k=k,
            rng=rng,
        )
        self.key_tree = ModifiedKeyTree(scheme, crypto=True, rng=rng)
        self.members: Dict[Id, GroupMember] = {}

    # ------------------------------------------------------------------
    @property
    def num_members(self) -> int:
        return len(self.members)

    def member(self, user_id: Id) -> GroupMember:
        return self.members[user_id]

    def join(self, host: int) -> GroupMember:
        """Admit a new member: authenticate (modelled), assign its ID, and
        hand it its individual key and current path keys (Section 3.1.4).
        The auxiliary keys change at the end of the interval."""
        result = self.membership.join(host)
        user_id = result.record.user_id
        self.key_tree.request_join(user_id)
        member = GroupMember(user_id, host, self.key_tree.user_keystore(user_id))
        self.members[user_id] = member
        return member

    def leave(self, user_id: Id) -> GroupMember:
        """Process a leave request; the departure takes effect at the next
        rekey interval (batch rekeying)."""
        self.membership.leave(user_id)
        self.key_tree.request_leave(user_id)
        return self.members.pop(user_id)

    # ------------------------------------------------------------------
    def end_interval(
        self,
        loss_rate: float = 0.0,
        fec: Optional[FecEncoder] = None,
        loss_rng: Optional[np.random.Generator] = None,
    ) -> RekeyReport:
        """End the rekey interval: batch-rekey, multicast the rekey message
        over T-mesh with splitting, and apply each member's share.

        ``loss_rate`` drops each delivered packet independently (a user's
        share is packetized; without ``fec`` a lost packet means lost
        keys).  With a :class:`~repro.keytree.recovery.FecEncoder`, blocks
        carry XOR parity and single losses per block repair locally; the
        report lists members still incomplete (use
        :meth:`recover_member`)."""
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        # lint: disable=determinism-unseeded-rng -- interactive-use fallback; every driver/test threads a seeded Generator
        rng = loss_rng if loss_rng is not None else np.random.default_rng()
        message = self.key_tree.process_batch()
        delivered: Dict[Id, int] = {}
        incomplete = []
        total = 0
        repaired = 0
        if message.rekey_cost and self.members:
            session = rekey_session(
                self.membership.server_table, self.membership.tables, self.topology
            )
            # Each member's share, already in (depth, digits) order: the
            # order the key tree emits the message in.
            shares = run_split_rekey(session, message).shares
            packetizer = fec if fec is not None else FecEncoder(packet_size=4)
            decoder = FecDecoder()
            for user_id, member in self.members.items():
                share = shares.get(user_id, ())
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
                used = member.apply_rekey(message.restricted_to(share))
                delivered[user_id] = len(share)
                total += used
                if self._member_incomplete(member):
                    incomplete.append(user_id)
        return RekeyReport(
            message, delivered, total, tuple(incomplete), repaired
        )

    def _member_incomplete(self, member: GroupMember) -> bool:
        latest = member.keystore.latest_version
        current = self.key_tree.node_version
        return any(
            latest(key_id) != current(key_id) for key_id in member.path_key_ids
        )

    # ------------------------------------------------------------------
    def recover_member(self, user_id: Id) -> KeyPathGrant:
        """Limited unicast recovery (reference [31]): the member asks the
        key server for its current key path; the server replies over the
        individual-key-protected channel and the member installs it."""
        member = self.members[user_id]
        grant = KeyPathGrant(
            user_id,
            tuple(
                (key_id, self.key_tree.node_version(key_id),
                 self.key_tree.node_secret(key_id))
                for key_id in self.key_tree.path_key_ids(user_id)
            ),
        )
        for key_id, version, secret in grant.keys:
            member.keystore.put(key_id, version, secret)
        return grant

    # ------------------------------------------------------------------
    def verify_member_keys(self) -> List[str]:
        """Audit: every current member must hold the latest group key and
        exactly its path keys at current versions.  Returns violations."""
        problems: List[str] = []
        if not self.members:
            return problems
        group_version = self.key_tree.group_key_version()
        for user_id, member in self.members.items():
            if member.group_key_version != group_version:
                problems.append(
                    f"{user_id}: group key version "
                    f"{member.group_key_version} != {group_version}"
                )
            for key_id in self.key_tree.path_key_ids(user_id):
                want = self.key_tree.node_version(key_id)
                have = member.keystore.latest_version(key_id)
                if have != want:
                    problems.append(
                        f"{user_id}: key {key_id} at version {have}, "
                        f"server has {want}"
                    )
        return problems
