"""The ID tree (Definitions 1 and 2 of the paper).

The ID tree is *conceptual*: neither the key server nor any user maintains
it as a distributed data structure.  We materialize it anyway because (a)
the modified key tree's structure must match it exactly (Section 2.4), (b)
the simulator and the test suite constantly ask subtree-membership
questions, and (c) the cluster rekeying heuristic is phrased in terms of
level-``(D-1)`` ID subtrees.

A node exists at level ``i`` iff some user's ID has that node's ID as a
prefix.  The root (level 0) is the null string ``[]``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from .ids import Id, IdScheme, NULL_ID


class IdTree:
    """The ID tree induced by a set of full-length user IDs.

    The tree is kept incrementally up to date as users are added and
    removed, so the key server can mirror it into the modified key tree
    cheaply at each rekey interval.
    """

    def __init__(self, scheme: IdScheme, user_ids: Iterable[Id] = ()):
        self.scheme = scheme
        # Maps each existing tree-node ID (prefix) to the set of user IDs
        # belonging to that node's subtree.
        self._members: Dict[Id, Set[Id]] = {}
        # Maps each existing tree-node ID to the set of digits of its
        # existing children, kept incrementally so "which child slots are
        # taken" queries need no per-digit probing (hot in the server-side
        # ID-completion step).
        self._child_digits: Dict[Id, Set[int]] = {}
        for uid in user_ids:
            self.add_user(uid)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_user(self, user_id: Id) -> None:
        """Insert a user; creates any missing nodes on its root path."""
        self.scheme.validate_user_id(user_id)
        if user_id in self._members.get(NULL_ID, ()):  # already present
            raise ValueError(f"user {user_id} already in ID tree")
        parent = None
        for level in range(self.scheme.num_digits + 1):
            prefix = user_id.prefix(level)
            self._members.setdefault(prefix, set()).add(user_id)
            if level > 0:
                self._child_digits.setdefault(parent, set()).add(
                    user_id.digits[level - 1]
                )
            parent = prefix

    def remove_user(self, user_id: Id) -> None:
        """Remove a user; prunes nodes left without descendants."""
        if user_id not in self._members.get(NULL_ID, ()):
            raise KeyError(f"user {user_id} not in ID tree")
        for level in range(self.scheme.num_digits + 1):
            prefix = user_id.prefix(level)
            members = self._members[prefix]
            members.discard(user_id)
            if not members:
                del self._members[prefix]
                if level > 0:
                    parent = user_id.prefix(level - 1)
                    digits = self._child_digits.get(parent)
                    if digits is not None:
                        digits.discard(user_id.digits[level - 1])
                        if not digits:
                            del self._child_digits[parent]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node_id: Id) -> bool:
        return node_id in self._members

    def __len__(self) -> int:
        return len(self._members.get(NULL_ID, ()))

    @property
    def user_ids(self) -> Set[Id]:
        """The set of all user IDs currently in the tree."""
        return set(self._members.get(NULL_ID, ()))

    def node_ids(self) -> List[Id]:
        """All existing tree-node IDs (prefixes), root included."""
        return list(self._members)

    def has_node(self, node_id: Id) -> bool:
        """True iff a node with this ID exists (Definition 1)."""
        return node_id in self._members

    def users_in_subtree(self, node_id: Id) -> Set[Id]:
        """User IDs belonging to the subtree rooted at ``node_id``; empty if
        the node does not exist."""
        return set(self._members.get(node_id, ()))

    def subtree_size(self, node_id: Id) -> int:
        """Number of users belonging to the subtree rooted at ``node_id``."""
        return len(self._members.get(node_id, ()))

    def children(self, node_id: Id) -> List[Id]:
        """Existing child node IDs of ``node_id``, in digit order."""
        if node_id not in self._members or len(node_id) >= self.scheme.num_digits:
            return []
        return [node_id.extend(j) for j in sorted(self._child_digits.get(node_id, ()))]

    def child_digits(self, node_id: Id) -> Set[int]:
        """Digits of the existing children of ``node_id`` (empty when the
        node does not exist or is a leaf).  O(1) lookup against an
        incrementally maintained index."""
        return self._child_digits.get(node_id, set())

    def nodes_at_level(self, level: int) -> List[Id]:
        """All node IDs at a given level (level = number of digits)."""
        return [node for node in self._members if len(node) == level]

    def ij_subtree_root(self, user_id: Id, i: int, j: int) -> Id:
        """The root ID of the ``(i, j)``-ID subtree of ``user_id``
        (Definition 2): the level-``(i+1)`` node whose parent is the level-i
        ancestor of the user and whose last digit is ``j``."""
        if not 0 <= i <= self.scheme.num_digits - 1:
            raise ValueError(f"i={i} outside [0, D-1]")
        if not 0 <= j < self.scheme.base:
            raise ValueError(f"j={j} outside [0, B)")
        return user_id.prefix(i).extend(j)

    def ij_subtree_users(self, user_id: Id, i: int, j: int) -> Set[Id]:
        """User IDs belonging to the ``(i, j)``-ID subtree of ``user_id``.

        Per Definition 2, every such user ``w`` shares the first ``i``
        digits with ``user_id`` and has ``w.ID[i] == j``.
        """
        return self.users_in_subtree(self.ij_subtree_root(user_id, i, j))

    def users_diverging_at(self, user_id: Id, i: int) -> Set[Id]:
        """Users whose IDs share exactly the first ``i`` digits with
        ``user_id`` — the union of its ``(i, j)``-ID subtrees over ``j``.
        Each of them files ``user_id`` under row ``i`` of its neighbor
        table, and ``user_id`` files each of them under its own row ``i``."""
        empty: Set[Id] = set()
        return self._members.get(user_id.prefix(i), empty) - self._members.get(
            user_id.prefix(i + 1), empty
        )

    def bottom_clusters(self) -> Dict[Id, Set[Id]]:
        """Level-``(D-1)`` ID subtrees mapped to their member user IDs —
        the *bottom clusters* of the Appendix-B heuristic."""
        level = self.scheme.num_digits - 1
        return {
            node: set(self._members[node])
            for node in self._members
            if len(node) == level
        }
