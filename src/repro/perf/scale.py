"""Large-group scale rungs: synthetic worlds beyond the builders' reach.

The gtitm worlds the perf workloads use top out around a thousand
members: building real neighbor tables measures quadratically many RTTs,
and a dense RTT matrix for tens of thousands of hosts would not fit in
memory.  The protocol itself has no such limits — one fan-out session is
linear in members — so the scale rungs fake *only the construction*
(docs/PERFORMANCE.md, "Scale ladder"):

* :class:`CoordinateTopology` (a :class:`~repro.net.synthetic.
  SyntheticRttTopology`) places every host in a plane and synthesizes
  ``rtt = 2 * euclidean distance`` on demand — no dense matrix, and the
  one-way delay (``rtt / 2``) is exactly the distance.
* :func:`build_scale_world` assigns clustered random IDs and derives
  *perfectly 1-consistent* K=1 tables directly from the ID trie: entry
  ``(i, j)`` of any member with prefix ``p`` (the first ``i`` digits) is
  a fixed representative of the ``p + j`` subtree.  Members sharing a
  prefix share row lists (:class:`~repro.core.neighbor_table.
  StaticPrimaryTable`), so the whole 10k world is a few MB instead of
  10k full tables.  This is the *dense object path*: real
  ``SessionResult``s from :func:`~repro.core.tmesh.forward_session`,
  full verification.
* :func:`build_array_world` / :func:`run_streaming_rekey` are the
  *streaming array path*: the same world as bit-packed uint64 codes and
  a coordinate array, rekeyed one top-level shard at a time with
  bounded working sets — no per-member Python objects, which is what
  takes the ladder to 10⁶ members in well under 2 GB.

The two paths are held bitwise-equal wherever both run: in the trie
tables the unique row-``i`` forwarder with prefix ``p`` is ``rep(p)``
itself, so member ``m``'s delivering copy arrives at depth
``d = min{d >= 1 : rep(m[:d]) == m}`` from upstream ``rep(m[:d-1])``
(the server for ``d == 1``) — a pure function of the sorted code array
that :func:`run_streaming_rekey` evaluates per shard with a per-depth
arrival DP, reproducing the dense fan-out's receipts field for field.
The canonical receipt digest (:mod:`repro.compute.arraytable`) makes
the comparison one string; ``tests/test_scale_ladder.py`` and the
``sharded-scale`` invariant scenario enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..compute.arraytable import (
    new_receipt_digest,
    segment_starts,
    synthesize_clustered_codes,
    update_receipt_digest,
)
from ..core.id_assignment import synthesize_clustered_ids
from ..core.ids import Id, IdScheme, NULL_ID
from ..core.neighbor_table import StaticPrimaryTable, UserRecord
from ..net.synthetic import SyntheticRttTopology
from ..verify import hooks as _verify_hooks

#: Digit bounds per level: 8 top-level clusters, 32 second-level, then
#: uniform.  Clustered like the paper's ID assignment (nearby users share
#: prefixes), and keeps the trie bushy at the top where fan-out happens.
SCALE_DIGIT_BOUNDS = (8, 32, 256, 256, 256)


class CoordinateTopology(SyntheticRttTopology):
    """The scale worlds' topology: hosts in a plane, RTTs synthesized on
    demand as ``2 * distance`` (see :class:`SyntheticRttTopology` for
    the bitwise discipline and the dense-materialization guard)."""


class _TrieNode:
    __slots__ = ("children", "rep")

    def __init__(self):
        self.children: Dict[int, "_TrieNode"] = {}
        self.rep: Optional[UserRecord] = None  # first-seen user in subtree


def _scale_ids(num_users: int, rng: np.random.Generator,
               bounds: Sequence[int]) -> List[Tuple[int, ...]]:
    """``num_users`` distinct clustered IDs, deterministic in ``rng``."""
    return synthesize_clustered_ids(num_users, rng, bounds)


def build_scale_world(
    num_users: int,
    seed: int = 20,
    scheme: Optional[IdScheme] = None,
    span: float = 100.0,
) -> Tuple[CoordinateTopology, StaticPrimaryTable, Dict[Id, StaticPrimaryTable]]:
    """A ``(topology, server_table, tables)`` triple for ``num_users``.

    Host 0 is the key server; user ``k`` (in ID-generation order) lives
    on host ``k + 1``.  The derived tables are 1-consistent by
    construction — entry ``(i, j)`` is the same representative for every
    member sharing the first ``i`` digits — so Theorem 1 applies and one
    rekey session delivers every member exactly once.
    """
    if scheme is None:
        scheme = IdScheme(len(SCALE_DIGIT_BOUNDS), max(SCALE_DIGIT_BOUNDS))
    bounds = SCALE_DIGIT_BOUNDS[: scheme.num_digits]
    rng = np.random.default_rng(seed)
    digit_tuples = _scale_ids(num_users, rng, bounds)
    coords = rng.uniform(0.0, span, size=(num_users + 1, 2))
    topology = CoordinateTopology(coords)

    records = [
        UserRecord(Id(digits), host=k + 1, access_rtt=1.0)
        for k, digits in enumerate(digit_tuples)
    ]

    # ID trie with a first-seen representative per subtree.
    root = _TrieNode()
    for rec in records:
        node = root
        if node.rep is None:
            node.rep = rec
        for d in rec.user_id.digits:
            node = node.children.setdefault(d, _TrieNode())
            if node.rep is None:
                node.rep = rec

    # Shared row lists.  full_rows[node] = [(j, rep of child j)] sorted;
    # a member's row i is that list minus its own digit's entry.
    def full_row(node: _TrieNode) -> List[Tuple[int, UserRecord]]:
        return [(j, node.children[j].rep) for j in sorted(node.children)]

    num_digits = scheme.num_digits
    server = UserRecord(NULL_ID, host=0, access_rtt=0.0)
    server_table = StaticPrimaryTable(scheme, server, [full_row(root)])

    tables: Dict[Id, StaticPrimaryTable] = {}
    row_cache: Dict[Tuple[int, ...], List[Tuple[int, UserRecord]]] = {}
    for rec in records:
        digits = rec.user_id.digits
        node = root
        rows: List[List[Tuple[int, UserRecord]]] = []
        for i in range(num_digits):
            own = digits[i]
            key = digits[:i] + (own,)
            row = row_cache.get(key)
            if row is None:
                row = [(j, r) for j, r in full_row(node) if j != own]
                row_cache[key] = row
            rows.append(row)
            node = node.children[own]
        tables[rec.user_id] = StaticPrimaryTable(scheme, rec, rows)
    return topology, server_table, tables


# ----------------------------------------------------------------------
# Streaming array path
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArrayScaleWorld:
    """The array twin of :func:`build_scale_world`'s object world.

    ``codes[k]`` is the bit-packed ID of user ``k`` (generation order,
    all distinct) who lives on host ``k + 1``; host 0 is the key server.
    Built with the *identical* RNG consumption, so at every size where
    both worlds can be built, packing the object world's IDs reproduces
    ``codes`` exactly and the coordinates match bitwise.
    """

    scheme: IdScheme
    topology: SyntheticRttTopology
    codes: np.ndarray  # uint64, generation order
    seed: int
    span: float

    @property
    def num_users(self) -> int:
        return len(self.codes)


def build_array_world(
    num_users: int,
    seed: int = 20,
    scheme: Optional[IdScheme] = None,
    span: float = 100.0,
) -> ArrayScaleWorld:
    """The scale world as arrays only: packed codes plus coordinates.

    Peak memory is O(N) with small constants (~24 bytes per member), so
    the 1M rung fits comfortably where :func:`build_scale_world`'s
    per-member records and tables would not.
    """
    if scheme is None:
        scheme = IdScheme(len(SCALE_DIGIT_BOUNDS), max(SCALE_DIGIT_BOUNDS))
    bounds = SCALE_DIGIT_BOUNDS[: scheme.num_digits]
    rng = np.random.default_rng(seed)
    codes = synthesize_clustered_codes(num_users, rng, bounds)
    coords = rng.uniform(0.0, span, size=(num_users + 1, 2))
    topology = CoordinateTopology(coords)
    return ArrayScaleWorld(
        scheme=scheme, topology=topology, codes=codes, seed=seed, span=span
    )


@dataclass(frozen=True)
class StreamingSessionSummary:
    """Aggregates of one streaming rekey session plus its canonical
    receipt digest — everything the dense path's ``SessionResult``
    would say about delivery, without the per-member objects."""

    num_members: int
    num_receipts: int
    num_edges: int
    num_duplicates: int
    num_shards: int
    max_shard_members: int
    max_arrival: float
    level_counts: Tuple[int, ...]  # index = forwarding level, 0 unused
    digest: str


def iter_streaming_shards(
    world: ArrayScaleWorld, processing_delay: float = 0.0
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Run the rekey fan-out one top-level shard at a time, yielding the
    canonical receipt rows ``(codes, hosts, levels, upstream_hosts,
    arrivals)`` per shard, sorted by code within the shard (and globally
    across shards, since a shard is a top-digit prefix class).

    Per shard, depth-``d`` prefix segments of the sorted codes are the
    ID trie's level-``d`` subtrees; the segment's first-seen member
    (minimum generation index) is its representative.  Member ``m``'s
    receipt depth is the first ``d`` where ``m`` is its own
    representative, its upstream the depth-``(d-1)`` representative
    (the key server, host 0, at depth 1), and arrivals follow the
    per-depth DP ``(upstream_arrival + processing_delay) + distance`` —
    the exact scalar fan-out expression, evaluated vectorized.

    The working set is O(shard size): nothing about other shards is in
    memory while one is processed.
    """
    codes = world.codes
    n = len(codes)
    if n == 0:
        return
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    coords = world.topology.coords
    server_xy = coords[0]
    num_digits = world.scheme.num_digits
    top_starts = segment_starts(sorted_codes, 1)
    bounds = np.append(top_starts, n)
    for s in range(len(top_starts)):
        lo, hi = int(bounds[s]), int(bounds[s + 1])
        scodes = sorted_codes[lo:hi]
        sgen = order[lo:hi]
        shosts = (sgen + 1).astype(np.int64)
        m = hi - lo
        lvl = np.zeros(m, dtype=np.int64)
        reps_of_mine: List[Optional[np.ndarray]] = [None] * (num_digits + 1)
        for d in range(1, num_digits + 1):
            starts_d = segment_starts(scodes, d)
            sizes = np.diff(np.append(starts_d, m))
            min_gen = np.minimum.reduceat(sgen, starts_d)
            is_rep = sgen == np.repeat(min_gen, sizes)
            rep_positions = np.flatnonzero(is_rep)
            reps_of_mine[d] = np.repeat(rep_positions, sizes)
            newly = is_rep & (lvl == 0)
            lvl[newly] = d
        ups = np.full(m, -1, dtype=np.int64)
        for d in range(2, num_digits + 1):
            sel = lvl == d
            prev = reps_of_mine[d - 1]
            assert prev is not None
            ups[sel] = prev[sel]

        arr = np.empty(m, dtype=np.float64)
        xy = coords[shosts]
        for d in range(1, num_digits + 1):
            sel = np.flatnonzero(lvl == d)
            if not len(sel):
                continue
            dst = xy[sel]
            if d == 1:
                dx = server_xy[0] - dst[:, 0]
                dy = server_xy[1] - dst[:, 1]
                base = 0.0 + processing_delay
            else:
                up = ups[sel]
                src = xy[up]
                dx = src[:, 0] - dst[:, 0]
                dy = src[:, 1] - dst[:, 1]
                base = arr[up] + processing_delay
            arr[sel] = base + np.sqrt(dx * dx + dy * dy)

        up_hosts = shosts[np.maximum(ups, 0)]
        up_hosts[ups < 0] = 0  # the key server
        yield scodes, shosts, lvl, up_hosts, arr


def run_streaming_rekey(
    world: ArrayScaleWorld, processing_delay: float = 0.0
) -> StreamingSessionSummary:
    """One rekey session over the streaming array path.

    Theorem 1 holds structurally in the trie world — every member has
    exactly one delivering edge — so receipts == edges == members and
    duplicates are zero by construction; the
    :class:`~repro.verify.checkers.StreamingDeliveryChecker` re-asserts
    the aggregates when a verification context is active.  The digest is
    comparable to ``SessionResult.canonical_receipt_digest()`` from the
    dense path over the same ``(num_users, seed)``.
    """
    num_digits = world.scheme.num_digits
    level_counts = np.zeros(num_digits + 1, dtype=np.int64)
    hasher = new_receipt_digest()
    num_receipts = 0
    num_shards = 0
    max_shard = 0
    max_arrival = 0.0
    for scodes, shosts, lvl, up_hosts, arr in iter_streaming_shards(
        world, processing_delay
    ):
        num_shards += 1
        num_receipts += len(scodes)
        max_shard = max(max_shard, len(scodes))
        level_counts += np.bincount(lvl, minlength=num_digits + 1)
        if len(arr):
            max_arrival = max(max_arrival, float(arr.max()))
        update_receipt_digest(hasher, scodes, shosts, lvl, up_hosts, arr)
    summary = StreamingSessionSummary(
        num_members=world.num_users,
        num_receipts=num_receipts,
        num_edges=num_receipts,  # one delivering edge per receipt
        num_duplicates=0,
        num_shards=num_shards,
        max_shard_members=max_shard,
        max_arrival=max_arrival,
        level_counts=tuple(int(c) for c in level_counts),
        digest=hasher.hexdigest(),
    )
    ctx = _verify_hooks.ACTIVE
    if ctx is not None:
        ctx.observe_streaming(summary, expected_members=world.num_users)
    return summary
