"""Array-table kernels for the large-N scale ladder.

Three kernel families, all on the bit-packed uint64 ID codes from
:mod:`repro.compute.packing` (docs/PERFORMANCE.md, "Scale ladder"):

* **ID synthesis** — :func:`synthesize_clustered_codes` is the
  vectorized twin of
  :func:`repro.core.id_assignment.synthesize_clustered_ids`: it issues
  the *identical* sequence of ``rng.integers`` calls (same batch shapes,
  same bounds) and applies the identical first-occurrence dedup, so the
  packed codes it returns are bitwise-equal to packing the scalar
  generator's tuples — at any N, with any seed.
* **Prefix segmentation** — sorted packed codes group members by
  ``depth``-digit prefix with one masked-difference pass
  (:func:`segment_starts`); unsigned code order equals lexicographic
  digit order for equal-length IDs, so a sort plus segmentation *is* the
  ID trie, flattened.
* **Canonical receipt digest** — a blake2b over fixed-layout
  little-endian rows ``(code u64, host i64, level i64, upstream_host
  i64, arrival f64)`` sorted by member code, laid out by one helper
  (:func:`pack_receipt_rows`).  The streaming fan-out packs one row
  block per shard in ascending code order and feeds the blocks, in
  order, to one incremental digest; the dense path extracts the same
  rows from a materialized :class:`~repro.core.tmesh.SessionResult`,
  sorts once and packs one block.
  Equal digests ⇔ equal receipts, which is how dense-vs-streaming
  bitwise equivalence is enforced at sizes where both paths run.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

import numpy as np

from .packing import MASKS, pack_id

#: Fixed little-endian row layout hashed by the canonical receipt
#: digest.  Explicit byte order keeps the digest machine-independent.
RECEIPT_ROW_DTYPE = np.dtype(
    [
        ("code", "<u8"),
        ("host", "<i8"),
        ("level", "<i8"),
        ("upstream_host", "<i8"),
        ("arrival", "<f8"),
    ]
)

#: Digest algorithm/size for canonical receipt digests.
_DIGEST_SIZE = 16


# ----------------------------------------------------------------------
# ID synthesis
# ----------------------------------------------------------------------
def pack_digit_matrix(batch: np.ndarray) -> np.ndarray:
    """Pack an ``(n, D)`` digit matrix into ``n`` left-aligned uint64
    codes — the array form of :func:`repro.compute.packing.pack_digits`.
    Caller guarantees ``D <= 8`` and digits ``< 256``."""
    codes = np.zeros(batch.shape[0], dtype=np.uint64)
    # Column by column: the temporaries are one column, not the matrix.
    for k in range(batch.shape[1]):
        lane = batch[:, k].astype(np.uint64)
        lane <<= np.uint64(56 - 8 * k)
        codes |= lane
    return codes


def synthesize_clustered_codes(
    num_users: int,
    rng: np.random.Generator,
    bounds: Sequence[int],
) -> np.ndarray:
    """``num_users`` distinct packed ID codes in generation order,
    consuming ``rng`` identically to
    :func:`~repro.core.id_assignment.synthesize_clustered_ids`.

    Identical consumption means identical ``rng.integers`` calls: each
    rejection batch draws ``(remaining, len(bounds))`` integers, then
    keeps the first occurrence of every not-yet-seen code in draw order
    (the minimum draw index of each run of equal sorted codes, against
    the growing seen-set).
    The returned array equals ``pack_digits`` applied to the scalar
    generator's tuples, element for element.
    """
    bounds_arr = np.asarray(bounds)
    out = np.empty(num_users, dtype=np.uint64)
    count = 0
    seen = np.empty(0, dtype=np.uint64)  # kept sorted
    while count < num_users:
        batch = rng.integers(
            0, bounds_arr, size=(num_users - count, len(bounds))
        )
        codes = pack_digit_matrix(batch)
        del batch  # the dedup below runs beside the codes only
        # First occurrences without ``np.unique``'s stable sorts: the
        # minimum original index of a run of equal sorted codes is its
        # first occurrence, whatever order the sort left the run in.
        # Each temporary goes as soon as it is used: at 10⁶ the first
        # batch's dedup sets the build's peak RSS.
        order = np.argsort(codes)
        sorted_codes = codes[order]
        run_start = np.empty(len(codes), dtype=bool)
        run_start[0] = True
        np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=run_start[1:])
        del sorted_codes
        starts = np.flatnonzero(run_start)
        del run_start
        first_idx = np.minimum.reduceat(order, starts)
        del order, starts
        uniq = codes[first_idx]  # ascending: one per run, in sorted order
        fresh_mask = ~np.isin(uniq, seen, assume_unique=True)
        keep = np.sort(first_idx[fresh_mask])
        fresh = codes[keep]
        out[count : count + len(fresh)] = fresh
        count += len(fresh)
        # ``seen`` and ``uniq[fresh_mask]`` are sorted, unique and
        # disjoint, so a sort of the two is their union — without
        # ``np.union1d``'s hash-set ``unique`` pass.
        seen = np.sort(np.concatenate((seen, uniq[fresh_mask])))
    return out


# ----------------------------------------------------------------------
# Prefix segmentation
# ----------------------------------------------------------------------
def segment_starts(sorted_codes: np.ndarray, depth: int) -> np.ndarray:
    """Start indices of the ``depth``-digit prefix groups in an array of
    packed codes *sorted ascending*.  Always begins with 0 (for a
    non-empty input); the implied end of the last group is ``len``."""
    if len(sorted_codes) == 0:
        return np.empty(0, dtype=np.intp)
    masked = sorted_codes & MASKS[depth]
    changed = np.flatnonzero(masked[1:] != masked[:-1]) + 1
    return np.concatenate(([0], changed))


# ----------------------------------------------------------------------
# Canonical receipt digest
# ----------------------------------------------------------------------
def new_receipt_digest() -> "hashlib._Hash":
    """A fresh incremental hasher for canonical receipt rows."""
    return hashlib.blake2b(digest_size=_DIGEST_SIZE)


def pack_receipt_rows(
    codes: np.ndarray,
    hosts: np.ndarray,
    levels: np.ndarray,
    upstream_hosts: np.ndarray,
    arrivals: np.ndarray,
) -> np.ndarray:
    """One block of canonical receipt rows in :data:`RECEIPT_ROW_DTYPE`,
    C-contiguous, ready to feed to a digest from
    :func:`new_receipt_digest` (its buffer, without a bytes copy).
    Blocks must arrive at the hasher sorted by ``codes``, and globally
    in ascending-code order across successive blocks."""
    rows = np.empty(len(codes), dtype=RECEIPT_ROW_DTYPE)
    rows["code"] = codes
    rows["host"] = hosts
    rows["level"] = levels
    rows["upstream_host"] = upstream_hosts
    rows["arrival"] = arrivals
    return rows


def session_receipt_rows(session) -> Tuple[np.ndarray, ...]:
    """Canonical receipt rows of a materialized
    :class:`~repro.core.tmesh.SessionResult`, sorted by packed member
    code: ``(codes, hosts, levels, upstream_hosts, arrivals)``.

    Raises ``ValueError`` when a member ID doesn't bit-pack (schemes
    beyond ``D <= 8, B <= 256`` have no canonical digest).  Upstreams
    are identified by *host* — hosts are unique per member and the
    sender's host is explicit on the session — which sidesteps the
    code-space collision between the null ID and an all-zero-digit ID.
    """
    receipts = session.receipts
    n = len(receipts)
    codes = np.empty(n, dtype=np.uint64)
    hosts = np.empty(n, dtype=np.int64)
    levels = np.empty(n, dtype=np.int64)
    up_hosts = np.empty(n, dtype=np.int64)
    arrivals = np.empty(n, dtype=np.float64)
    sender = session.sender
    for k, (member, receipt) in enumerate(receipts.items()):
        packed = pack_id(member)
        if packed is None:
            raise ValueError(
                f"member {member} does not bit-pack; no canonical digest"
            )
        codes[k] = packed[0]
        hosts[k] = receipt.host
        levels[k] = receipt.forward_level
        upstream = receipt.upstream
        if upstream == sender:
            up_hosts[k] = session.sender_host
        else:
            up_hosts[k] = receipts[upstream].host
        arrivals[k] = receipt.arrival_time
    order = np.argsort(codes, kind="stable")
    return (
        codes[order],
        hosts[order],
        levels[order],
        up_hosts[order],
        arrivals[order],
    )


def session_receipt_digest(session) -> str:
    """Hex canonical receipt digest of a materialized session — equal to
    the streaming path's digest iff every receipt field matches bitwise
    (member, host, forwarding level, upstream, arrival time)."""
    hasher = new_receipt_digest()
    hasher.update(pack_receipt_rows(*session_receipt_rows(session)))
    return hasher.hexdigest()
