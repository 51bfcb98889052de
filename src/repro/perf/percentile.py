"""A scalar re-implementation of ``np.percentile(..., method="linear")``.

The ID-assignment protocol evaluates an F-percentile per candidate subtree
for every digit of every join (Section 3.1.3).  The pools involved hold at
most ``P = 10`` RTT samples (a few dozen after a wide response), where
``np.percentile``'s generality (axis handling, out-of-band NaN checks,
method dispatch) and even ``np.sort`` cost far more than the arithmetic
itself.  This helper sorts a Python list and does the same arithmetic in
Python floats, which are the same IEEE doubles.

It must stay *bitwise identical* to numpy for 1-D input and scalar ``q``:
the virtual index is ``(q / 100) * (n - 1)`` and the interpolation follows
numpy's ``_lerp`` exactly, including its ``gamma >= 0.5`` rewrite
``b - (b - a) * (1 - gamma)`` that improves rounding near the upper
neighbor.  ``tests/test_perf_equivalence.py`` checks equality against
``np.percentile`` over randomized inputs.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np


def percentile_linear(values: Union[Sequence[float], np.ndarray], q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of 1-D ``values``.

    Bitwise-equal to ``float(np.percentile(values, q))`` for finite input
    and ``0 <= q <= 100``.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    a = sorted(values)
    n = len(a)
    virtual = (q / 100.0) * (n - 1)
    lo = int(virtual)
    gamma = virtual - lo
    lo_v = a[lo]
    if gamma == 0.0:
        return float(lo_v)
    hi_v = a[lo + 1]
    diff = hi_v - lo_v
    if gamma >= 0.5:
        return float(hi_v - diff * (1.0 - gamma))
    return float(lo_v + diff * gamma)
