"""Distributed user-ID assignment (Section 3.1).

A joining user determines its ID digit by digit.  For digit ``i``
(``0 <= i <= D-2``) it:

1. **collects** user records from each of its ``(i, j)``-ID subtrees by
   querying users it already knows (target prefix = its determined digits),
   refining per subtree until it holds ``P`` records from the subtree or
   has queried everyone it collected from it;
2. **measures** gateway-to-gateway RTTs ``r(u, w) = h(u, w) - h(u, gw_u) -
   h(w, gw_w)`` to every collected user;
3. computes the ``F``-percentile of the RTTs per subtree, takes the
   subtree ``b`` with the smallest percentile ``f_{i,b}``, and accepts
   digit ``b`` iff ``f_{i,b} <= R_{i+1}``; otherwise it stops and asks the
   key server to assign all remaining digits;
4. **notifies** the key server, which assigns the digit after the
   determined prefix so that no other user shares the resulting prefix
   (footnote 3 gives the fallback when that is impossible).

The paper's parameters: ``P = 10``, ``F = 90``-percentile,
``R = (150, 30, 9, 3)`` ms for ``D = 5``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..net.topology import Topology
from ..perf import percentile_linear
from .id_tree import IdTree
from .ids import Id, IdScheme, NULL_ID
from .neighbor_table import UserRecord

#: Delay thresholds used in all the paper's simulations (ms): R_1 .. R_4.
PAPER_THRESHOLDS = (150.0, 30.0, 9.0, 3.0)

#: Section 3.1.1 / 3.1.3 parameters used throughout the paper.
PAPER_COLLECT_TARGET = 10
PAPER_PERCENTILE = 90.0

#: Signature of the query service: ``query(responder, target_prefix)``
#: returns the records, among the responder's neighbors, whose IDs carry
#: the target prefix (Section 3.1.1).
QueryFn = Callable[[UserRecord, Id], Sequence[UserRecord]]


def choose_digit(
    pool_rtts: Iterable[Tuple[int, Sequence[float]]],
    percentile: float,
    threshold: float,
    percentiles: Optional[Dict[int, float]] = None,
) -> Optional[int]:
    """Step 3, the one digit rule: given ``(j, RTTs)`` per collected
    ``(i, j)``-subtree pool, take the F-percentile of each pool
    (:func:`~repro.perf.percentile_linear`), keep the first pool with
    the smallest one, and accept its digit iff that percentile is
    ``<= threshold`` (``R_{i+1}``); ``None`` means "stop here and let
    the key server assign the rest".  A pool without RTTs has no
    percentile and is skipped.  ``percentiles``, when given, receives
    each pool's F-percentile."""
    best_digit, best_value = None, float("inf")
    for digit, rtts in pool_rtts:
        if not len(rtts):
            continue
        f = percentile_linear(rtts, percentile)
        if percentiles is not None:
            percentiles[digit] = f
        if f < best_value:
            best_digit, best_value = digit, f
    if best_digit is not None and best_value <= threshold:
        return best_digit
    return None


@dataclass
class DigitDecision:
    """Bookkeeping for one digit of the assignment (for analysis/tests)."""

    digit_index: int
    pools: Dict[int, int]           # subtree digit -> records collected
    percentiles: Dict[int, float]   # subtree digit -> F-percentile RTT
    chosen: Optional[int]           # accepted digit, None if sent to server
    queries: int                    # query messages sent for this digit


@dataclass
class AssignmentOutcome:
    """Result of the user-driven part of the protocol: the prefix the user
    determined itself plus measurement bookkeeping."""

    determined_prefix: Id
    decisions: List[DigitDecision] = field(default_factory=list)

    @property
    def total_queries(self) -> int:
        return sum(d.queries for d in self.decisions)


class IdAssigner:
    """Runs the Section 3.1 protocol for joining users."""

    def __init__(
        self,
        scheme: IdScheme,
        thresholds: Sequence[float] = PAPER_THRESHOLDS,
        percentile: float = PAPER_PERCENTILE,
        collect_target: int = PAPER_COLLECT_TARGET,
    ):
        if len(thresholds) != scheme.num_digits - 1:
            raise ValueError(
                f"need D-1={scheme.num_digits - 1} thresholds R_1..R_(D-1), "
                f"got {len(thresholds)}"
            )
        if any(t <= 0 for t in thresholds):
            raise ValueError("thresholds must be positive")
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if collect_target < 1:
            raise ValueError("collect target P must be >= 1")
        self.scheme = scheme
        self.thresholds = tuple(float(t) for t in thresholds)
        self.percentile = float(percentile)
        self.collect_target = int(collect_target)

    # ------------------------------------------------------------------
    def determine_prefix(
        self,
        joiner_host: int,
        joiner_access_rtt: float,
        topology: Topology,
        query: QueryFn,
        bootstrap: UserRecord,
    ) -> AssignmentOutcome:
        """Steps 1–3 for every digit ``0 .. D-2``; stops early when no
        subtree is close enough.  ``bootstrap`` is the record of a user
        already in the group, provided by the key server."""
        outcome = AssignmentOutcome(NULL_ID)
        prefix = NULL_ID
        known: Dict[Id, UserRecord] = {bootstrap.user_id: bootstrap}
        for i in range(self.scheme.num_digits - 1):
            decision = self._determine_digit(
                i, prefix, joiner_host, joiner_access_rtt, topology, query, known
            )
            outcome.decisions.append(decision)
            if decision.chosen is None:
                break
            prefix = prefix.extend(decision.chosen)
        outcome.determined_prefix = prefix
        return outcome

    def _determine_digit(
        self,
        i: int,
        prefix: Id,
        joiner_host: int,
        joiner_access_rtt: float,
        topology: Topology,
        query: QueryFn,
        known: Dict[Id, UserRecord],
    ) -> DigitDecision:
        pools = self._collect(i, prefix, query, known)
        decision = DigitDecision(
            digit_index=i,
            pools={j: len(p) for j, p in pools.items()},
            percentiles={},
            chosen=None,
            queries=self._last_query_count,
        )
        # Steps 2 & 3: gateway-to-gateway RTTs and the digit rule.  The
        # per-pool pings are batched (r(u, w) = h(u,w) - h(u,gw_u) -
        # h(w,gw_w), floored at zero, with the scalar path's operand
        # order).
        def pool_rtts():
            for j, pool in pools.items():
                records = list(pool.values())
                end_to_end = topology.rtt_many(
                    joiner_host, [rec.host for rec in records]
                )
                access = np.array(
                    [rec.access_rtt for rec in records], dtype=np.float64
                )
                yield j, np.maximum(0.0, (end_to_end - joiner_access_rtt) - access)

        decision.chosen = choose_digit(
            pool_rtts(), self.percentile, self.thresholds[i], decision.percentiles
        )
        return decision

    # ------------------------------------------------------------------
    def _collect(
        self,
        i: int,
        prefix: Id,
        query: QueryFn,
        known: Dict[Id, UserRecord],
    ) -> Dict[int, Dict[Id, UserRecord]]:
        """Step 1: collect records from every ``(i, j)``-ID subtree.

        Seeds the pools by querying known users that carry the current
        prefix, then refines each subtree with targeted queries until it
        has ``P`` records or has queried everyone collected from it.
        """
        self._last_query_count = 0
        pools: Dict[int, Dict[Id, UserRecord]] = {}
        pd = prefix.digits
        npd = len(pd)

        def absorb(record: UserRecord) -> None:
            uid = record.user_id
            rd = uid.digits
            if rd[:npd] != pd:
                return
            known[uid] = record
            pool = pools.get(rd[i])
            if pool is None:
                pool = pools[rd[i]] = {}
            pool[uid] = record

        # Initial phase: one query to a known user carrying the prefix
        # (Section 3.1.1).  K-consistency of the responder's table makes a
        # single response discover every populated (i, j)-ID subtree.
        seeds = [r for r in known.values() if r.user_id.digits[:npd] == pd]
        for seed in seeds:
            absorb(seed)
        queried = set()
        if seeds:
            self._last_query_count += 1
            queried.add(seeds[0].user_id)
            for record in query(seeds[0], prefix):
                absorb(record)

        for j in list(pools):
            pool = pools[j]
            queried = set(queried)
            while len(pool) < self.collect_target:
                target = next(
                    (r for uid, r in pool.items() if uid not in queried), None
                )
                if target is None:
                    break  # queried everyone collected from this subtree
                queried.add(target.user_id)
                self._last_query_count += 1
                for record in query(target, prefix.extend(j)):
                    absorb(record)
        return pools


def synthesize_clustered_ids(
    num_users: int,
    rng: np.random.Generator,
    bounds: Sequence[int],
) -> List[Tuple[int, ...]]:
    """``num_users`` distinct clustered digit tuples, deterministic in
    ``rng``: digit ``k`` is uniform in ``[0, bounds[k])``, drawn in
    rejection batches, keeping the first occurrence of each tuple in
    draw order.

    This is the scale-world ID generator (docs/PERFORMANCE.md, "Scale
    ladder").  Tight low-level bounds cluster users the way the paper's
    Section 3.1 assignment does — nearby users share prefixes — which is
    what makes the derived trie tables bushy at the top.  The vectorized
    twin :func:`repro.compute.arraytable.synthesize_clustered_codes`
    consumes the generator identically and must stay bitwise-equal.
    """
    ids: List[Tuple[int, ...]] = []
    seen = set()
    while len(ids) < num_users:
        batch = rng.integers(
            0, np.asarray(bounds), size=(num_users - len(ids), len(bounds))
        )
        for row in batch.tolist():
            digits = tuple(row)
            if digits not in seen:
                seen.add(digits)
                ids.append(digits)
    return ids


def complete_user_id(
    id_tree: IdTree,
    prefix: Id,
    rng: Optional[np.random.Generator] = None,
) -> Id:
    """Step 4, server side: extend a determined prefix of length ``l`` to a
    full ID such that no existing user shares the first ``l+1`` digits.

    Remaining digits beyond position ``l`` are zero — the new user is then
    the sole occupant of a fresh level-``(l+1)`` ID subtree.  Footnote 3's
    fallback applies when every digit at position ``l`` is taken: earlier
    digits are re-assigned (deepest first) to find a fresh subtree, and as
    a last resort any globally unique full ID is used.
    """
    scheme = id_tree.scheme
    # lint: disable=determinism-unseeded-rng -- interactive-use fallback; every driver/test threads a seeded Generator
    rng = rng if rng is not None else np.random.default_rng()

    def fresh_digit(base_prefix: Id) -> Optional[int]:
        # The ID tree indexes each node's populated child digits, so the
        # free set needs no per-digit has_node probes.
        taken = id_tree.child_digits(base_prefix)
        if not taken:
            free = range(scheme.base)
            count = scheme.base
        else:
            free = [j for j in range(scheme.base) if j not in taken]
            count = len(free)
            if not count:
                return None
        return int(free[int(rng.integers(0, count))])

    def complete_with_zeros(stem: Id) -> Id:
        return Id(stem.digits + (0,) * (scheme.num_digits - len(stem)))

    digit = fresh_digit(prefix)
    if digit is not None:
        return complete_with_zeros(prefix.extend(digit))

    # Footnote-3 fallback: modify u.ID[l-1], then u.ID[l-2], ... to carve
    # out a unique prefix one level up.
    for back in range(len(prefix) - 1, -1, -1):
        stem = prefix.prefix(back)
        digit = fresh_digit(stem)
        if digit is not None:
            return complete_with_zeros(stem.extend(digit))

    # Last resort: force the user into some existing level-1 ID subtree at
    # any free leaf position.
    existing = id_tree.user_ids
    for _ in range(4 * scheme.base):
        candidate = scheme.random_user_id(rng)
        if candidate not in existing:
            return candidate
    raise RuntimeError("ID space exhausted: no unique user ID available")
