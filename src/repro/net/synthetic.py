"""On-demand RTT synthesis for large-N worlds (docs/PERFORMANCE.md,
"Scale ladder").

A :class:`SyntheticRttTopology` places every host at a seeded planar
coordinate and *defines* ``rtt(a, b) = 2 * euclidean_distance(a, b)``.
Nothing is precomputed: any pair's RTT is synthesized on demand from the
two coordinates, so a million-host topology costs two float64 columns
(~16 MB) instead of an O(N²) matrix (~8 TB).

Bitwise discipline.  The scalar path computes

    ``2.0 * sqrt(dx*dx + dy*dy)``

and every vectorized surface (:meth:`rtt_many`, :meth:`rtt_to_many`,
:meth:`_build_rtt_matrix`) evaluates the *same* expression with the same
operand order through numpy.  IEEE 754 guarantees ``*``, ``+`` and a
correctly-rounded ``sqrt`` produce identical bits for identical inputs,
and multiplying by 2.0 is exact, so the lazily-synthesized values are
bit-for-bit the dense matrix's values at every size where the dense
matrix can still be built — ``tests/test_perf_equivalence.py`` holds
that property under hypothesis.  (``math.hypot`` is deliberately *not*
used: its extra-precision algorithm differs from ``np.sqrt(dx²+dy²)``
by up to 1 ulp, which would break the equivalence.)

The one-way delay (``rtt / 2``) is then exactly the Euclidean distance —
halving the doubled distance is lossless in binary floating point — so
streaming fan-out kernels can use the distance directly.

Dense guard.  ``max_dense_hosts`` (default 4096) caps
:meth:`ensure_rtt_matrix`: above it the call raises instead of silently
materializing gigabytes, which is what keeps the 1M rung honest about
never holding an all-pairs matrix.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np

from .topology import Topology

#: Default ceiling on dense materialization: a 4096² float64 matrix is
#: ~134 MB, the largest size the equivalence tests still exercise.
DEFAULT_MAX_DENSE_HOSTS = 4096


class SyntheticRttTopology(Topology):
    """Hosts in a plane; ``rtt(a, b) = 2 * distance(a, b)``, synthesized
    per call — symmetric with a zero diagonal by construction."""

    def __init__(
        self,
        coords: Sequence[Sequence[float]],
        access: float = 1.0,
        max_dense_hosts: Optional[int] = DEFAULT_MAX_DENSE_HOSTS,
    ):
        arr = np.ascontiguousarray(coords, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"coords must be (n, 2), got {arr.shape}")
        self._coords = arr
        self._access = float(access)
        self.max_dense_hosts = max_dense_hosts

    # ------------------------------------------------------------------
    @classmethod
    def seeded(
        cls,
        num_hosts: int,
        seed: int,
        span: float = 100.0,
        access: float = 1.0,
        max_dense_hosts: Optional[int] = DEFAULT_MAX_DENSE_HOSTS,
    ) -> "SyntheticRttTopology":
        """A topology whose coordinates are a pure function of ``seed``:
        ``default_rng(seed).uniform(0, span, size=(num_hosts, 2))``."""
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0.0, span, size=(num_hosts, 2))
        return cls(coords, access=access, max_dense_hosts=max_dense_hosts)

    # ------------------------------------------------------------------
    @property
    def coords(self) -> np.ndarray:
        """The (num_hosts, 2) coordinate array — treat as read-only."""
        return self._coords

    @property
    def num_hosts(self) -> int:
        return len(self._coords)

    @cached_property
    def _coord_rows(self) -> List[List[float]]:
        """Plain-float twin of :attr:`coords` for the scalar path:
        indexing a list of ``[x, y]`` pairs returns Python floats,
        keeping per-call overhead off the ndarray boxing path (float64
        scalar arithmetic is bitwise-identical either way).  Built on
        the first scalar :meth:`rtt` call, because at 10⁶ hosts it is
        ~100 MB of Python objects the vectorized surfaces never read."""
        return self._coords.tolist()

    def rtt(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        xa, ya = self._coord_rows[a]
        xb, yb = self._coord_rows[b]
        dx = xa - xb
        dy = ya - yb
        return 2.0 * math.sqrt(dx * dx + dy * dy)

    def access_rtt(self, host: int) -> float:
        return self._access

    # ------------------------------------------------------------------
    # Vectorized surfaces — same expression, same operand order.
    # ------------------------------------------------------------------
    def rtt_many(self, src: int, hosts: Sequence[int]) -> np.ndarray:
        m = self._rtt_dense
        idx = np.asarray(hosts, dtype=np.intp)
        if m is not None:
            return m[src, idx]
        p = self._coords[idx]
        s = self._coords[src]
        dx = s[0] - p[:, 0]
        dy = s[1] - p[:, 1]
        out = 2.0 * np.sqrt(dx * dx + dy * dy)
        out[idx == src] = 0.0
        return out

    def rtt_to_many(self, dst: int, hosts: Sequence[int]) -> np.ndarray:
        m = self._rtt_dense
        idx = np.asarray(hosts, dtype=np.intp)
        if m is not None:
            return m[idx, dst]
        p = self._coords[idx]
        d = self._coords[dst]
        dx = p[:, 0] - d[0]
        dy = p[:, 1] - d[1]
        out = 2.0 * np.sqrt(dx * dx + dy * dy)
        out[idx == dst] = 0.0
        return out

    def _build_rtt_matrix(self) -> np.ndarray:
        diff = self._coords[:, None, :] - self._coords[None, :, :]
        sq = diff * diff
        m = 2.0 * np.sqrt(sq[:, :, 0] + sq[:, :, 1])
        np.fill_diagonal(m, 0.0)
        return m

    def ensure_rtt_matrix(self) -> np.ndarray:
        limit = self.max_dense_hosts
        if self._rtt_dense is None and limit is not None and self.num_hosts > limit:
            raise RuntimeError(
                f"refusing to materialize a dense {self.num_hosts}x"
                f"{self.num_hosts} RTT matrix (max_dense_hosts="
                f"{limit}); large-N callers must stay on the on-demand "
                f"synthesis path"
            )
        return super().ensure_rtt_matrix()
