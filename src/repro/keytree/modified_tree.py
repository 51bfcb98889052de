"""The modified key tree (Section 2.4) with periodic batch rekeying.

Unlike the original Wong–Gouda–Lam tree, the modified key tree has a fixed
height ``D`` and grows *horizontally*: its structure matches the ID tree
exactly.  Every u-node sits at a full user ID, every k-node at an ID
prefix; the root k-node (the null ID) holds the group key.

Batch rekeying (Section 2.4):

* For each joining user ``u`` a u-node with ID ``u.ID`` is added, plus any
  missing k-nodes ``u.ID[0:i-1]`` for ``i = D-1 .. 0``.
* For each leaving user the u-node is deleted, plus any k-nodes left
  without descendants.
* At the start of the next rekey interval the server updates all keys on
  the paths from each newly joined or departed u-node to the root, then
  generates encryptions: the new key in each updated k-node encrypted
  under the key of each of its children (using a child's *new* key when the
  child was itself updated).

The tree can run in pure *counting* mode (no secrets — what the paper's
simulator measures) or *crypto* mode where every key is a real 32-byte
secret and every encryption carries an authenticated wrapped key.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.id_tree import IdTree
from ..core.ids import Id, IdScheme, NULL_ID
from ..crypto import cipher
from ..crypto.keystore import KeyStore
from ..trace import hooks as _trace_hooks
from .keys import Encryption, RekeyMessage


class ModifiedKeyTree:
    """The key server's modified key tree."""

    def __init__(
        self,
        scheme: IdScheme,
        crypto: bool = False,
        rng: Optional[np.random.Generator] = None,
    ):
        self.scheme = scheme
        self.crypto = crypto
        # lint: disable=determinism-unseeded-rng -- interactive-use fallback; every driver/test threads a seeded Generator
        self._rng = rng if rng is not None else np.random.default_rng()
        self._id_tree = IdTree(scheme)
        self._versions: Dict[Id, int] = {}
        self._secrets: Dict[Id, bytes] = {}
        self._pending_joins: List[Id] = []
        self._pending_leaves: List[Id] = []
        self.interval = 0

    # ------------------------------------------------------------------
    # Group membership requests (queued during a rekey interval)
    # ------------------------------------------------------------------
    def request_join(self, user_id: Id) -> None:
        """Queue a join for the current rekey interval.  The u-node (and
        its individual key) exists immediately — the server hands the
        joining user its keys at join time (Section 3.1.4) — but auxiliary
        keys only change at the end of the interval."""
        self.scheme.validate_user_id(user_id)
        if user_id in self._id_tree.user_ids:
            if user_id in self._pending_leaves:
                # The ID left earlier in this interval: the structural
                # leave never happened, so cancel it — but keep the u-node
                # queued as changed, which still rotates its whole key
                # path at the batch.  Whoever joins under the ID now may
                # be a different host, so the u-node gets a new individual
                # key: the batch wraps under it, and the departed holder
                # of the old one can unwrap nothing.
                self._pending_leaves.remove(user_id)
                if user_id not in self._pending_joins:
                    self._pending_joins.append(user_id)
                self._versions[user_id] += 1
                if self.crypto:
                    self._secrets[user_id] = cipher.generate_key(self._rng)
                return
            raise ValueError(f"user {user_id} already in key tree")
        if user_id in self._pending_joins:
            raise ValueError(f"user {user_id} already has a pending join")
        self._pending_joins.append(user_id)
        self._id_tree.add_user(user_id)
        self._install_node(user_id)
        # K-nodes created by this join get keys now, so the joining user
        # can be handed its full key path immediately.
        for level in range(self.scheme.num_digits - 1, -1, -1):
            prefix = user_id.prefix(level)
            if prefix not in self._versions:
                self._install_node(prefix)

    def request_leave(self, user_id: Id) -> None:
        """Queue a leave for the current rekey interval."""
        if user_id not in self._id_tree.user_ids:
            raise ValueError(f"user {user_id} not in key tree")
        if user_id in self._pending_leaves:
            raise ValueError(f"user {user_id} already has a pending leave")
        self._pending_leaves.append(user_id)

    def _install_node(self, node_id: Id) -> None:
        self._versions[node_id] = 0
        if self.crypto:
            self._secrets[node_id] = cipher.generate_key(self._rng)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def user_ids(self) -> Set[Id]:
        return self._id_tree.user_ids

    @property
    def num_users(self) -> int:
        return len(self._id_tree)

    def node_version(self, node_id: Id) -> int:
        return self._versions[node_id]

    def node_secret(self, node_id: Id) -> bytes:
        if not self.crypto:
            raise RuntimeError("key tree running in counting mode")
        return self._secrets[node_id]

    def has_node(self, node_id: Id) -> bool:
        return node_id in self._versions

    def node_ids(self) -> List[Id]:
        """All key IDs currently held (one per ID-tree node): the tree-
        agreement checker compares this set against the ID tree the
        current users induce."""
        return list(self._versions)

    def group_key_version(self) -> int:
        return self._versions[NULL_ID]

    def path_key_ids(self, user_id: Id) -> List[Id]:
        """IDs of all the keys a user holds: the keys on the path from its
        u-node to the root, u-node (individual key) included."""
        return [user_id.prefix(level) for level in range(self.scheme.num_digits, -1, -1)]

    def user_keystore(self, user_id: Id) -> KeyStore:
        """A key store preloaded with the keys the server hands a user at
        join time (crypto mode only)."""
        store = KeyStore()
        for key_id in self.path_key_ids(user_id):
            store.put(key_id, self._versions[key_id], self.node_secret(key_id))
        return store

    # ------------------------------------------------------------------
    # Batch rekeying
    # ------------------------------------------------------------------
    def process_batch(self) -> RekeyMessage:
        """End the current rekey interval: apply queued joins/leaves,
        update keys, and generate the rekey message."""
        joins = self._pending_joins
        leaves = self._pending_leaves
        self._pending_joins = []
        self._pending_leaves = []

        changed_unodes: List[Id] = list(joins)
        for user_id in leaves:
            changed_unodes.append(user_id)
            self._id_tree.remove_user(user_id)
            # Drop the departed u-node and the k-nodes pruned with it:
            # its path, up to the first node that still has descendants.
            for key_id in self.path_key_ids(user_id):
                if key_id in self._id_tree:
                    break
                del self._versions[key_id]
                self._secrets.pop(key_id, None)

        updated = self._mark_updated(changed_unodes)
        children = [self._children(node_id) for node_id in updated]
        # One draw for the interval's new keys and nonces, handed out in
        # the order the calls below make them.
        drawn = (
            cipher.draw_ahead(self._rng, len(updated) + sum(map(len, children)))
            if self.crypto
            else None
        )
        for node_id in updated:
            self._versions[node_id] += 1
            if self.crypto:
                self._secrets[node_id] = cipher.generate_key(drawn)

        encryptions = self._generate_encryptions(updated, children, drawn)
        self.interval += 1
        tctx = _trace_hooks.ACTIVE
        if tctx is not None:
            tctx.observe_batch_rekey(
                self.interval - 1, joins, leaves, updated, encryptions
            )
        return RekeyMessage(self.interval - 1, tuple(encryptions))

    def _mark_updated(self, changed_unodes: Sequence[Id]) -> List[Id]:
        """K-nodes whose keys must change: every surviving k-node on the
        path from a changed u-node to the root, ordered by (depth, digits)
        so crypto-mode secret generation is reproducible for a given rng."""
        marked: Set[Id] = set()
        for user_id in changed_unodes:
            for level in range(self.scheme.num_digits):
                prefix = user_id.prefix(level)
                if prefix in self._id_tree:
                    marked.add(prefix)
        return sorted(marked, key=lambda n: (len(n), n.digits))

    def _children(self, node_id: Id) -> List[Id]:
        if len(node_id) == self.scheme.num_digits - 1:
            return sorted(
                (uid for uid in self._id_tree.users_in_subtree(node_id)),
                key=lambda n: n.digits,
            )
        return self._id_tree.children(node_id)

    def _generate_encryptions(
        self, updated: Sequence[Id], children: Sequence[List[Id]], rng
    ) -> List[Encryption]:
        """The new key of each updated node wrapped under each of its
        ``children`` (one list per node, in the order of ``updated``)."""
        encryptions: List[Encryption] = []
        for node_id, node_children in zip(updated, children):
            new_version = self._versions[node_id]
            for child in node_children:
                payload = None
                if self.crypto:
                    payload = cipher.encrypt(
                        self._secrets[child], self._secrets[node_id], rng=rng
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


def apply_rekey_message(store: KeyStore, message: RekeyMessage) -> List[Encryption]:
    """Decrypt-and-install every new key a member can recover from a rekey
    message (crypto mode).

    Encryptions are processed deepest-first so that a key recovered from
    one encryption (e.g. an auxiliary key) can decrypt the next one up the
    path.  Returns the encryptions actually used.  Members without the
    right keys simply recover nothing — the test suite uses this to verify
    forward secrecy for departed users.
    """
    used: List[Encryption] = []
    held = store.secrets
    # Stable, so equally deep encryptions keep their message order.
    for enc in sorted(
        message.encryptions,
        key=lambda e: len(e.encrypting_key_id.digits),
        reverse=True,
    ):
        if enc.payload is None:
            raise ValueError("rekey message carries no payloads (counting mode)")
        wrapping = held.get((enc.encrypting_key_id, enc.encrypting_version))
        if wrapping is None or (enc.new_key_id, enc.new_version) in held:
            continue
        store.put(
            enc.new_key_id, enc.new_version, cipher.decrypt(wrapping, enc.payload)
        )
        used.append(enc)
    return used
