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
  *streaming array path*: the same world as bit-packed uint64 codes, a
  coordinate array and the flattened ID trie, rekeyed one top-level
  shard at a time with bounded working sets — no per-member Python
  objects, which is what takes the ladder to 10⁶ members in well under
  2 GB.

The two paths are held bitwise-equal wherever both run: in the trie
tables the unique row-``i`` forwarder with prefix ``p`` is ``rep(p)``
itself, so member ``m``'s delivering copy arrives at depth
``d = min{d >= 1 : rep(m[:d]) == m}`` from upstream ``rep(m[:d-1])``
(the server for ``d == 1``) — a pure function of the codes that
:func:`build_array_world` evaluates once and stores per shard
(:class:`TrieShard`).  As :func:`build_scale_world` builds the tables
and :func:`~repro.core.tmesh.forward_session` only forwards, each
:func:`run_streaming_rekey` only runs the per-depth arrival DP over the
stored edges, reproducing the dense fan-out's receipts field for field.
The canonical receipt digest (:mod:`repro.compute.arraytable`) makes
the comparison one string; ``tests/test_scale_ladder.py`` and the
``sharded-scale`` invariant scenario enforce it.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..compute.arraytable import (
    new_receipt_digest,
    pack_receipt_rows,
    segment_starts,
    synthesize_clustered_codes,
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
class TrieShard:
    """One top-level shard of the array world's ID trie, flattened.

    Row ``k`` is one member, rows in ascending code order; ``level`` and
    ``upstream`` are the member's delivering edge in the trie tables (a
    pure function of the codes, so a session only reads them).  Every
    array is read-only.
    """

    codes: np.ndarray  # uint64, sorted ascending
    generation: np.ndarray  # int32 generation index; the host is this + 1
    level: np.ndarray  # int8 delivery depth d, 1..num_digits
    upstream: np.ndarray  # int32 row of the depth-(d-1) rep; -1 = key server


@dataclass(frozen=True)
class ArrayScaleWorld:
    """The array twin of :func:`build_scale_world`'s object world.

    ``codes[k]`` is the bit-packed ID of user ``k`` (generation order,
    all distinct) who lives on host ``k + 1``; host 0 is the key server.
    Built with the *identical* RNG consumption, so at every size where
    both worlds can be built, packing the object world's IDs reproduces
    ``codes`` exactly and the coordinates match bitwise.  ``shards`` is
    the ID trie those codes define, one :class:`TrieShard` per top-level
    digit in ascending order.
    """

    scheme: IdScheme
    topology: SyntheticRttTopology
    codes: np.ndarray  # uint64, generation order
    seed: int
    span: float
    shards: Tuple[TrieShard, ...]

    @property
    def num_users(self) -> int:
        return len(self.codes)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _trie_shards(codes: np.ndarray, num_digits: int) -> Tuple[TrieShard, ...]:
    """Flatten the ID trie of ``codes`` into one :class:`TrieShard` per
    top-level digit.

    Within a shard (sorted by code), the depth-``d`` prefix segments are
    the trie's level-``d`` subtrees and a segment's first-seen member
    (minimum generation index) is its representative.  Member ``m``'s
    delivery depth is the first ``d`` where ``m`` is its own
    representative; its upstream is the depth-``(d-1)`` representative,
    or the key server at depth 1.
    """
    order = np.argsort(codes)  # codes are distinct: one order, any sort
    sorted_codes = codes[order]
    generation = order.astype(np.int32)
    top_starts = segment_starts(sorted_codes, 1)
    bounds = np.append(top_starts, len(codes))
    shards = []
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        scodes = sorted_codes[lo:hi]
        sgen = generation[lo:hi]
        m = hi - lo
        level = np.zeros(m, dtype=np.int8)
        upstream = np.full(m, -1, dtype=np.int32)
        prev_reps: Optional[np.ndarray] = None
        for d in range(1, num_digits + 1):
            starts = segment_starts(scodes, d)
            sizes = np.diff(np.append(starts, m))
            min_gen = np.minimum.reduceat(sgen, starts)
            is_rep = sgen == np.repeat(min_gen, sizes)
            newly = is_rep & (level == 0)
            level[newly] = d
            if prev_reps is not None:
                upstream[newly] = prev_reps[newly]
            prev_reps = np.repeat(np.flatnonzero(is_rep), sizes)
        shards.append(
            TrieShard(
                codes=_read_only(scodes),
                generation=_read_only(sgen),
                level=_read_only(level),
                upstream=_read_only(upstream),
            )
        )
    return tuple(shards)


def build_array_world(
    num_users: int,
    seed: int = 20,
    scheme: Optional[IdScheme] = None,
    span: float = 100.0,
) -> ArrayScaleWorld:
    """The scale world as arrays only: packed codes, coordinates and the
    flattened ID trie every rekey session reads.

    Memory is O(N) with no per-member Python objects (about 41 bytes
    per member stored; docs/PERFORMANCE.md, "Memory model"), so the 1M
    rung fits comfortably where :func:`build_scale_world`'s per-member
    records and tables would not.
    """
    if scheme is None:
        scheme = IdScheme(len(SCALE_DIGIT_BOUNDS), max(SCALE_DIGIT_BOUNDS))
    bounds = SCALE_DIGIT_BOUNDS[: scheme.num_digits]
    rng = np.random.default_rng(seed)
    codes = synthesize_clustered_codes(num_users, rng, bounds)
    coords = rng.uniform(0.0, span, size=(num_users + 1, 2))
    topology = CoordinateTopology(coords)
    return ArrayScaleWorld(
        scheme=scheme,
        topology=topology,
        codes=codes,
        seed=seed,
        span=span,
        shards=_trie_shards(codes, scheme.num_digits),
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


def _shard_arrivals(
    coords: np.ndarray,
    shosts: np.ndarray,
    level: np.ndarray,
    upstream: np.ndarray,
    num_digits: int,
    processing_delay: float,
) -> np.ndarray:
    """The per-depth arrival DP of one shard: ``(upstream_arrival +
    processing_delay) + distance``, the exact scalar fan-out expression,
    evaluated vectorized.  A function of its own so that its gathers
    are freed before the shard's rows are handed on."""
    server_xy = coords[0]
    arr = np.empty(len(shosts), dtype=np.float64)
    # ``take`` rather than fancy indexing: same values, and a row
    # gather from the (N, 2) plane is ~5x faster that way.
    xy = coords.take(shosts, axis=0)
    for d in range(1, num_digits + 1):
        sel = np.flatnonzero(level == d)
        if not len(sel):
            continue
        dst = xy.take(sel, axis=0)
        if d == 1:
            dx = server_xy[0] - dst[:, 0]
            dy = server_xy[1] - dst[:, 1]
            base = 0.0 + processing_delay
        else:
            up = upstream.take(sel)
            src = xy.take(up, axis=0)
            dx = src[:, 0] - dst[:, 0]
            dy = src[:, 1] - dst[:, 1]
            base = arr.take(up) + processing_delay
        arr[sel] = base + np.sqrt(dx * dx + dy * dy)
    return arr


def iter_streaming_shards(
    world: ArrayScaleWorld, processing_delay: float = 0.0
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Run the rekey fan-out one top-level shard at a time, yielding the
    canonical receipt rows ``(codes, hosts, levels, upstream_hosts,
    arrivals)`` per shard, sorted by code within the shard (and globally
    across shards, since a shard is a top-digit prefix class).

    The delivering edges come from the world's stored trie
    (:class:`TrieShard`); the session computes only the arrivals
    (:func:`_shard_arrivals`).  ``codes`` and ``levels`` are read-only
    views of the world.  The working set is O(shard size).
    """
    coords = world.topology.coords
    num_digits = world.scheme.num_digits
    for shard in world.shards:
        shosts = np.add(shard.generation, 1, dtype=np.int64)
        arr = _shard_arrivals(
            coords, shosts, shard.level, shard.upstream, num_digits,
            processing_delay,
        )
        up_hosts = shosts.take(shard.upstream)  # -1 takes the last row,
        up_hosts[shard.upstream < 0] = 0  # reset to the key server
        yield shard.codes, shosts, shard.level, up_hosts, arr


#: End-of-session marker on the digest hand-off.  Compared with ``is``:
#: ``==`` against a structured row block is an elementwise comparison
#: that raises.
_NO_MORE_BLOCKS = object()


def _hash_blocks(
    hasher, blocks: queue.Queue, failures: List[Exception]
) -> None:
    """The digest thread: feed row blocks to ``hasher`` in arrival
    order until the end marker.  After a failure it records the error
    and keeps draining, so the producer's ``put`` never blocks forever;
    the producer re-raises the error once it has joined this thread."""
    while True:
        block = blocks.get()
        if block is _NO_MORE_BLOCKS:
            return
        if failures:
            continue
        try:
            hasher.update(block)
        except Exception as exc:  # handed to the producer thread
            failures.append(exc)


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

    The digest is hashed beside delivery, not after it: this thread
    runs each shard's arrival DP and packs its receipt rows, and one
    helper thread per session feeds the finished blocks to the one
    hasher in shard order while the next shard runs (blake2b over a
    large buffer and numpy's DP both release the GIL).  The bytes
    hashed, and their order, are those of hashing inline.  The hand-off
    holds one block, so at most three are live: one hashed, one queued,
    one being packed.
    """
    num_digits = world.scheme.num_digits
    level_counts = np.zeros(num_digits + 1, dtype=np.int64)
    hasher = new_receipt_digest()
    blocks: queue.Queue = queue.Queue(maxsize=1)
    failures: List[Exception] = []
    digester = threading.Thread(
        target=_hash_blocks,
        args=(hasher, blocks, failures),
        name="receipt-digest",
        daemon=True,  # never holds interpreter exit, even if unjoined
    )
    num_receipts = 0
    num_shards = 0
    max_shard = 0
    max_arrival = 0.0
    digester.start()
    try:
        for scodes, shosts, lvl, up_hosts, arr in iter_streaming_shards(
            world, processing_delay
        ):
            num_shards += 1
            num_receipts += len(scodes)
            max_shard = max(max_shard, len(scodes))
            level_counts += np.bincount(lvl, minlength=num_digits + 1)
            if len(arr):
                max_arrival = max(max_arrival, float(arr.max()))
            blocks.put(pack_receipt_rows(scodes, shosts, lvl, up_hosts, arr))
    finally:
        blocks.put(_NO_MORE_BLOCKS)
        digester.join()
    if failures:
        raise failures[0]
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
