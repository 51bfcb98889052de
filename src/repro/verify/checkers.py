"""Invariant checkers for the paper's theorems, lemmas, and definitions.

Each checker turns one of the paper's proof obligations into a runtime
predicate over live simulation state:

* :class:`ExactlyOnceChecker` — Theorem 1: with 1-consistent tables and
  no losses, every member other than the sender receives exactly one
  copy of a T-mesh multicast.
* :class:`ForwardPrefixChecker` — Lemmas 1–2: the users downstream of a
  level-``i`` member are exactly the members sharing its first ``i``
  digits.
* :class:`KConsistencyChecker` — Definition 3: every ``(i,j)``-entry
  holds ``min(K, m)`` neighbors of the right ID subtree.
* :class:`TreeAgreementChecker` — Section 2.4: the modified key tree's
  node set mirrors the ID tree induced by its users exactly.
* :class:`KeyIdResolutionChecker` — Section 2.4 / Lemma 3: the key-ID
  identification scheme makes every encryption of a rekey payload
  resolvable through the key-ID sets of the members that need it.

Checkers return lists of :class:`~repro.verify.report.ViolationReport`
(empty when the invariant holds); they never raise themselves — raising
is the hook layer's job, so callers can also use them as passive audits.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from ..compute.packing import MASKS, pack_id
from ..core.id_tree import IdTree
from ..core.ids import Id, IdScheme
from ..core.neighbor_table import NeighborTable, check_k_consistency
from ..core.tmesh import SessionResult
from .report import ViolationReport


class Checker:
    """Base class: a named invariant with its paper citation."""

    name: str = "checker"
    citation: str = ""

    def _report(
        self,
        detail: str,
        offending: Iterable[Id] = (),
        seed: Optional[int] = None,
        repro: Optional[str] = None,
    ) -> ViolationReport:
        return ViolationReport(
            checker=self.name,
            citation=self.citation,
            detail=detail,
            offending_ids=tuple(str(i) for i in offending),
            seed=seed,
            repro=repro,
        )


# ----------------------------------------------------------------------
# Session-level checkers
# ----------------------------------------------------------------------
class ExactlyOnceChecker(Checker):
    """Theorem 1: exactly one delivered copy per member (sender aside)."""

    name = "exactly-once"
    citation = "Theorem 1"

    def check(
        self,
        session: SessionResult,
        expected_members: Iterable[Id],
        seed: Optional[int] = None,
        repro: Optional[str] = None,
    ) -> List[ViolationReport]:
        reports: List[ViolationReport] = []
        expected = {m for m in expected_members if m != session.sender}
        received = set(session.receipts)
        missing = expected - received
        if missing:
            reports.append(
                self._report(
                    f"{len(missing)} member(s) received no copy",
                    sorted(missing),
                    seed,
                    repro,
                )
            )
        extra = received - expected
        if extra:
            reports.append(
                self._report(
                    f"{len(extra)} non-member(s) received the message",
                    sorted(extra),
                    seed,
                    repro,
                )
            )
        duplicated = {m: c for m, c in session.duplicate_copies.items() if c}
        if duplicated:
            worst = max(duplicated.values())
            reports.append(
                self._report(
                    f"{len(duplicated)} member(s) received duplicate copies "
                    f"(up to {worst} extra)",
                    sorted(duplicated),
                    seed,
                    repro,
                )
            )
        return reports


class ForwardPrefixChecker(Checker):
    """Lemmas 1–2: downstream users of a level-``i`` member are exactly
    the members sharing its first ``i`` digits.

    Under a lossy transport only Lemma 1 (downstream ⇒ prefix sharer)
    remains a theorem — subtrees behind a dropped copy are missing, so
    Lemma 2's converse is checked only when ``lossless=True``.

    Fast path.  The reference sweep below is O(members · edges) for
    Lemma 1 plus O(members²) for Lemma 2 — fine at the paper's 1024,
    prohibitive at the scale ladder's 10k rung.  :meth:`check` first
    tries to *prove the session clean* with vectorized aggregates over
    bit-packed ID codes (:meth:`_fast_clean`):

    * every delivery-tree edge's child strictly deepens level and shares
      the parent's level-prefix — by induction along root-to-leaf paths
      this implies Lemma 1 for every (member, descendant) pair;
    * per member, the delivery subtree size minus one equals the count
      of *other* receipt holders sharing its level-prefix — combined
      with Lemma 1 (inclusion) equal cardinality forces set equality,
      which is Lemma 2.

    A clean fast verdict is therefore exactly the reference sweep's
    clean verdict.  Anything else — an aggregate mismatch, unpackable
    IDs, a member with several delivering edges — falls back to the
    reference sweep, so violation reports are produced by the original
    loop and stay message-identical (the same pattern as
    ``repro.net.topology.validate_rtt_matrix``).  ``force_scan=True``
    skips the fast path (used by the equivalence tests).
    """

    name = "forward-prefix"
    citation = "Lemmas 1-2"

    def check(
        self,
        session: SessionResult,
        lossless: bool = True,
        seed: Optional[int] = None,
        repro: Optional[str] = None,
        force_scan: bool = False,
    ) -> List[ViolationReport]:
        if not force_scan and self._fast_clean(session, lossless):
            return []
        return self._scan(session, lossless, seed, repro)

    def _fast_clean(self, session: SessionResult, lossless: bool) -> bool:
        """True iff the session is *provably* clean by the vectorized
        aggregates; False means "run the reference sweep", not "dirty"."""
        receipts = session.receipts
        n = len(receipts)
        if n == 0:
            return True
        members = list(receipts)
        num_digits = len(members[0].digits)
        index: Dict[Id, int] = {}
        codes = np.empty(n, dtype=np.uint64)
        levels = np.empty(n, dtype=np.int64)
        for i, member in enumerate(members):
            packed = pack_id(member)
            if packed is None or packed[1] != num_digits:
                return False  # unpackable or ragged lengths: let the sweep decide
            index[member] = i
            codes[i] = packed[0]
            levels[i] = receipts[member].forward_level
        if levels.min() < 0 or levels.max() > num_digits:
            return False
        # Delivery-tree parents, derived from *edges* exactly as the
        # reference's downstream_users does: an edge is a tree edge iff
        # it is the receiver's delivering copy.
        parent = np.full(n, -1, dtype=np.int64)  # -1: no tree parent among members
        sender = session.sender
        for e in session.edges:
            receipt = receipts.get(e.dst)
            if receipt is None or receipt.upstream != e.src:
                continue
            child = index[e.dst]
            if parent[child] != -1:
                return False  # several delivering edges: not a tree, sweep decides
            if e.src == sender:
                continue  # the sender holds no receipt; no Lemma obligations
            src = index.get(e.src)
            if src is None:
                return False  # tree edge from a non-member non-sender
            parent[child] = src
        # Lemma 1, edge-locally: child deepens level and shares the
        # parent's level-prefix.  Induction extends it to all descendants.
        child_sel = np.flatnonzero(parent >= 0)
        if len(child_sel):
            par = parent[child_sel]
            deepens = levels[child_sel] > levels[par]
            shares = ((codes[child_sel] ^ codes[par]) & MASKS[levels[par]]) == 0
            if not bool(np.all(deepens & shares)):
                return False
        if not lossless:
            return True
        # Lemma 2: per member, subtree size - 1 == count of other
        # receipt holders sharing its level-prefix.  Children strictly
        # deepen levels (checked above), so accumulating in decreasing
        # level order sees every child before its parent.
        sizes = np.ones(n, dtype=np.int64)
        for i in np.argsort(levels, kind="stable")[::-1].tolist():
            p = parent[i]
            if p >= 0:
                sizes[p] += sizes[i]
        sharers = np.empty(n, dtype=np.int64)
        for level in np.unique(levels).tolist():
            sel = np.flatnonzero(levels == level)
            masked = codes & MASKS[level]
            ordered = np.sort(masked)
            own = masked[sel]
            lo = np.searchsorted(ordered, own, side="left")
            hi = np.searchsorted(ordered, own, side="right")
            sharers[sel] = (hi - lo) - 1  # excluding the member itself
        return bool(np.all(sizes - 1 == sharers))

    def _scan(
        self,
        session: SessionResult,
        lossless: bool,
        seed: Optional[int],
        repro: Optional[str],
    ) -> List[ViolationReport]:
        """The reference member-by-member sweep; the fast path's dirty
        verdicts defer here so reports never change wording."""
        reports: List[ViolationReport] = []
        receipts = session.receipts
        for member, receipt in receipts.items():
            level = receipt.forward_level
            downstream = set(session.downstream_users(member))
            for down in downstream:
                if not down.shares_prefix(member, level):
                    reports.append(
                        self._report(
                            f"{down} is downstream of level-{level} member "
                            f"{member} but does not share its first "
                            f"{level} digits",
                            (member, down),
                            seed,
                            repro,
                        )
                    )
            if not lossless:
                continue
            for other in receipts:
                if other == member or other in downstream:
                    continue
                if other.shares_prefix(member, level):
                    reports.append(
                        self._report(
                            f"{other} shares the first {level} digits of "
                            f"level-{level} member {member} but is not "
                            f"downstream of it",
                            (member, other),
                            seed,
                            repro,
                        )
                    )
        return reports


# ----------------------------------------------------------------------
# Table-level checker
# ----------------------------------------------------------------------
class KConsistencyChecker(Checker):
    """Definition 3, applied to a full set of user tables."""

    name = "k-consistency"
    citation = "Definition 3"

    def check(
        self,
        tables: Dict[Id, NeighborTable],
        id_tree: IdTree,
        k: int,
        seed: Optional[int] = None,
        repro: Optional[str] = None,
    ) -> List[ViolationReport]:
        return [
            self._report(problem, (), seed, repro)
            for problem in check_k_consistency(tables, id_tree, k)
        ]


# ----------------------------------------------------------------------
# Key-tree checkers
# ----------------------------------------------------------------------
class TreeAgreementChecker(Checker):
    """Section 2.4: the modified key tree grows horizontally with fixed
    height ``D`` and its node set equals the ID tree of its users."""

    name = "tree-agreement"
    citation = "Section 2.4"

    def check(
        self,
        key_tree,
        seed: Optional[int] = None,
        repro: Optional[str] = None,
    ) -> List[ViolationReport]:
        reports: List[ViolationReport] = []
        expected = IdTree(key_tree.scheme, key_tree.user_ids)
        key_nodes = set(key_tree.node_ids())
        id_nodes = set(expected.node_ids())
        ghost = key_nodes - id_nodes
        if ghost:
            reports.append(
                self._report(
                    f"{len(ghost)} key-tree node(s) have no ID-tree "
                    "counterpart",
                    sorted(ghost),
                    seed,
                    repro,
                )
            )
        missing = id_nodes - key_nodes
        if missing:
            reports.append(
                self._report(
                    f"{len(missing)} ID-tree node(s) hold no key",
                    sorted(missing),
                    seed,
                    repro,
                )
            )
        return reports


class KeyIdResolutionChecker(Checker):
    """Section 2.4 / Lemma 3: the identification scheme must let every
    member resolve the rekey payload against its key-ID set.

    Three obligations over one rekey message:

    * every encryption's ID (its encrypting key's ID) is an existing
      ID-tree node, i.e. lies in at least one member's key-ID set;
    * every encryption is needed by at least one member (no orphan
      ciphertext rides the multicast);
    * for every updated key and every member whose ID it prefixes, some
      encryption delivers that key under a key of the member's own
      key-ID set — the member can actually recover everything on its
      path.
    """

    name = "key-id-resolution"
    citation = "Section 2.4 / Lemma 3"

    def check(
        self,
        message,
        user_ids: Iterable[Id],
        scheme: IdScheme,
        seed: Optional[int] = None,
        repro: Optional[str] = None,
    ) -> List[ViolationReport]:
        reports: List[ViolationReport] = []
        users = list(user_ids)
        tree = IdTree(scheme, users)
        for enc in message.encryptions:
            if not tree.has_node(enc.encrypting_key_id):
                reports.append(
                    self._report(
                        f"encryption {enc.encrypting_key_id} is keyed by a "
                        "non-existent ID-tree node: no member's key-ID set "
                        "contains it",
                        (enc.encrypting_key_id, enc.new_key_id),
                        seed,
                        repro,
                    )
                )
            elif not any(enc.needed_by(u) for u in users):
                reports.append(
                    self._report(
                        f"encryption {enc.encrypting_key_id} is needed by "
                        "no member (orphan ciphertext)",
                        (enc.encrypting_key_id,),
                        seed,
                        repro,
                    )
                )
        # Recovery closure: every updated key reaches every member whose
        # path it lies on, through a key that member holds.
        new_keys: Set[Id] = {enc.new_key_id for enc in message.encryptions}
        by_new: Dict[Id, List[Id]] = {}
        for enc in message.encryptions:
            by_new.setdefault(enc.new_key_id, []).append(enc.encrypting_key_id)
        for key_id in sorted(new_keys, key=lambda n: (len(n), n.digits)):
            for user in users:
                if not key_id.is_prefix_of(user):
                    continue
                if not any(
                    enc_id.is_prefix_of(user) for enc_id in by_new[key_id]
                ):
                    reports.append(
                        self._report(
                            f"member {user} needs updated key {key_id} but "
                            "no encryption delivers it under a key of the "
                            "member's key-ID set",
                            (user, key_id),
                            seed,
                            repro,
                        )
                    )
        return reports


class StreamingDeliveryChecker(Checker):
    """Theorem 1 over a streaming rekey session's aggregates.

    The streaming path (:func:`repro.perf.scale.run_streaming_rekey`)
    never materializes per-member receipts, so the exactly-once claim is
    checked on its conservation laws: every member accounted for, one
    delivering edge per receipt, zero duplicates, and per-level receipt
    counts that sum to the total.  The member-for-member equivalence
    with the dense path is enforced separately through the canonical
    receipt digest (:mod:`repro.compute.arraytable`).
    """

    name = "streaming-delivery"
    citation = "Theorem 1"

    def check(
        self,
        summary,
        expected_members: Optional[int] = None,
        seed: Optional[int] = None,
        repro: Optional[str] = None,
    ) -> List[ViolationReport]:
        reports: List[ViolationReport] = []
        if expected_members is not None and summary.num_members != expected_members:
            reports.append(
                self._report(
                    f"summary covers {summary.num_members} member(s), "
                    f"expected {expected_members}",
                    (),
                    seed,
                    repro,
                )
            )
        if summary.num_receipts != summary.num_members:
            reports.append(
                self._report(
                    f"{summary.num_receipts} receipt(s) for "
                    f"{summary.num_members} member(s)",
                    (),
                    seed,
                    repro,
                )
            )
        if summary.num_duplicates:
            reports.append(
                self._report(
                    f"{summary.num_duplicates} duplicate copies delivered",
                    (),
                    seed,
                    repro,
                )
            )
        if summary.num_edges != summary.num_receipts:
            reports.append(
                self._report(
                    f"{summary.num_edges} delivering edge(s) for "
                    f"{summary.num_receipts} receipt(s)",
                    (),
                    seed,
                    repro,
                )
            )
        if sum(summary.level_counts) != summary.num_receipts:
            reports.append(
                self._report(
                    f"per-level counts sum to {sum(summary.level_counts)}, "
                    f"not {summary.num_receipts}",
                    (),
                    seed,
                    repro,
                )
            )
        if summary.level_counts and summary.level_counts[0]:
            reports.append(
                self._report(
                    f"{summary.level_counts[0]} receipt(s) at forwarding "
                    "level 0 (only the sender may sit there)",
                    (),
                    seed,
                    repro,
                )
            )
        return reports


def default_session_checkers() -> List[Checker]:
    """The checkers the hook layer runs against every observed session."""
    return [ExactlyOnceChecker(), ForwardPrefixChecker()]
