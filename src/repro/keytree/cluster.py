"""The cluster rekeying heuristic of Appendix B.

All users belonging to the same level-``(D-1)`` ID subtree form a *bottom
cluster*.  The user with the earliest joining time (by the key server's
clock) is the cluster leader.  Only a leader holds the keys on the path
from its u-node to the root of the modified key tree; every other user
holds just three keys — the group key, its individual key, and a pairwise
key shared with its leader.  Consequently **only leader churn triggers
group rekeying**; after a rekey, each leader unicasts the new group key to
its cluster members under the pairwise keys.

This module tracks clusters/leaders and drives an inner
:class:`~repro.keytree.modified_tree.ModifiedKeyTree` whose u-nodes are the
leaders.  The *rekey cost* reported for Fig. 12(c) is the number of
encryptions in the server's rekey message (the inner tree's batch); the
leader-to-member unicast encryptions are reported separately because they
travel at the very edge of the network and enter the Fig. 13 bandwidth
accounting for protocols P3/P4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.ids import Id, IdScheme
from .keys import RekeyMessage
from .modified_tree import ModifiedKeyTree


@dataclass(frozen=True)
class LeaderUnicast:
    """One leader's post-rekey distribution of the new group key to its
    cluster members (one pairwise-encrypted copy per member)."""

    leader: Id
    members: Tuple[Id, ...]

    @property
    def num_encryptions(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ClusterBatchResult:
    """Outcome of one rekey interval under the cluster heuristic."""

    message: RekeyMessage
    unicasts: Tuple[LeaderUnicast, ...]

    @property
    def rekey_cost(self) -> int:
        """Server-side rekey cost: encryptions in the rekey message."""
        return self.message.rekey_cost


class ClusterRekeyingTree:
    """Modified key tree + Appendix-B cluster rekeying."""

    def __init__(
        self,
        scheme: IdScheme,
        crypto: bool = False,
        rng: Optional[np.random.Generator] = None,
    ):
        self.scheme = scheme
        self._tree = ModifiedKeyTree(scheme, crypto=crypto, rng=rng)
        # Cluster prefix -> members in join order; the first is the leader.
        self._clusters: Dict[Id, List[Id]] = {}

    # ------------------------------------------------------------------
    @property
    def key_tree(self) -> ModifiedKeyTree:
        """The inner modified key tree (its u-nodes are the leaders)."""
        return self._tree

    def cluster_of(self, user_id: Id) -> Id:
        return user_id.prefix(self.scheme.num_digits - 1)

    def leader_of(self, user_id: Id) -> Id:
        """Current leader of a user's bottom cluster."""
        return self._clusters[self.cluster_of(user_id)][0]

    def is_leader(self, user_id: Id) -> bool:
        cluster = self._clusters.get(self.cluster_of(user_id))
        return bool(cluster) and cluster[0] == user_id

    def cluster_members(self, cluster: Id) -> List[Id]:
        return list(self._clusters.get(cluster, ()))

    @property
    def num_users(self) -> int:
        return sum(len(m) for m in self._clusters.values())

    @property
    def num_clusters(self) -> int:
        return len(self._clusters)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def request_join(self, user_id: Id) -> bool:
        """Register a join; returns True iff the user became a cluster
        leader (i.e. the join incurs group rekeying)."""
        self.scheme.validate_user_id(user_id)
        cluster = self.cluster_of(user_id)
        members = self._clusters.get(cluster)
        if members:
            if user_id in members:
                raise ValueError(f"user {user_id} already in cluster")
            members.append(user_id)
            return False
        self._clusters[cluster] = [user_id]
        self._tree.request_join(user_id)
        return True

    def request_leave(self, user_id: Id) -> bool:
        """Register a leave; returns True iff a leader left (group
        rekeying required)."""
        cluster = self.cluster_of(user_id)
        members = self._clusters.get(cluster)
        if not members or user_id not in members:
            raise ValueError(f"user {user_id} not in any cluster")
        was_leader = members[0] == user_id
        members.remove(user_id)
        if not members:
            del self._clusters[cluster]
        if was_leader:
            self._tree.request_leave(user_id)
            if members:
                # Leadership hand-off (Appendix B): the departing leader
                # passes its key-path and user records to the new leader,
                # whose u-node replaces it in the key tree.
                self._tree.request_join(members[0])
        return was_leader

    # ------------------------------------------------------------------
    def process_batch(self) -> ClusterBatchResult:
        """End the rekey interval: batch-rekey the leaders' key tree and
        compute the leader unicast fan-out of the new group key."""
        message = self._tree.process_batch()
        unicasts: Tuple[LeaderUnicast, ...] = ()
        if message.rekey_cost > 0:
            unicasts = tuple(
                LeaderUnicast(members[0], tuple(members[1:]))
                for members in self._clusters.values()
                if len(members) > 1
            )
        return ClusterBatchResult(message, unicasts)
