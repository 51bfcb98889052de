"""Bit-packed ID/prefix codes for the array-table kernels.

An :class:`~repro.core.ids.Id` of up to 8 digits with base <= 256 packs
into one ``uint64``: digit ``k`` occupies bits ``56 - 8k .. 63 - 8k``
(left-aligned, 8 bits per digit), with unused low bits zero.  Two
properties make this the right shape for the paper's prefix algebra:

* **Prefix test as a masked XOR.**  ``a`` and ``b`` agree on their first
  ``l`` digits iff ``(a ^ b) & MASKS[l] == 0``, where ``MASKS[l]`` keeps
  the top ``8*l`` bits: one vectorizable comparison.
* **Order preservation.**  For IDs of *equal length*, unsigned code
  order equals lexicographic digit order — so sorting packed codes
  reproduces the reference's ``sorted(..., key=lambda n: n.digits)``
  within a length class.

The paper's own scheme (D=5, B=256) fits with room to spare; an ID
outside ``D <= 8, B <= 256`` doesn't pack (:func:`pack_id` returns
``None``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.ids import Id

#: Max digits per packed ID (8 bits each in a uint64).
MAX_PACK_DIGITS = 8

#: ``MASKS[l]`` keeps the top ``l`` digit lanes (bits ``64-8l .. 63``).
#: ``MASKS[0] == 0``: the null prefix matches everything.
MASKS = np.zeros(MAX_PACK_DIGITS + 1, dtype=np.uint64)
for _l in range(1, MAX_PACK_DIGITS + 1):
    MASKS[_l] = np.uint64(((1 << (8 * _l)) - 1) << (64 - 8 * _l))
del _l


def pack_digits(digits: Sequence[int]) -> int:
    """Pack a digit tuple into its left-aligned uint64 code (as a Python
    int).  Caller guarantees ``len(digits) <= 8`` and digits ``< 256``."""
    code = 0
    shift = 56
    for d in digits:
        code |= d << shift
        shift -= 8
    return code


def pack_id(node_id: Id) -> Optional[Tuple[int, int]]:
    """``(code, length)`` for an ID, or ``None`` when it doesn't fit.

    The code is cached on the ``Id`` instance (ids are interned across
    the hot paths, so each distinct ID packs once per process).
    """
    cached = getattr(node_id, "_packed", None)
    if cached is not None:
        return cached if cached != () else None
    digits = node_id.digits
    if len(digits) > MAX_PACK_DIGITS or any(d > 255 for d in digits):
        object.__setattr__(node_id, "_packed", ())  # negative-result marker
        return None
    packed = (pack_digits(digits), len(digits))
    object.__setattr__(node_id, "_packed", packed)
    return packed
