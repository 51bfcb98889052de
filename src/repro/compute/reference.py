"""The ``"reference"`` compute backend: the pure-Python hot loops.

FORWARD is :func:`repro.core.tmesh.forward_session`, the one heap-driven
Fig. 2 loop; the marking loop lived inline in
:mod:`repro.keytree.modified_tree` before the compute seam and moved
here verbatim.  They are the *semantic definition* of the seam's
operations — every other backend must reproduce their output bitwise
(same receipts in the same order, same edge lists, same floats; see
``tests/test_compute_backends.py``) — and the permanent fallback
whenever an accelerated backend cannot handle an input.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set

from ..core.ids import Id
from ..core.tmesh import SessionResult, forward_session
from . import ComputeBackend, register_backend


class ReferenceBackend(ComputeBackend):
    """Pure-Python kernels; always available, always correct."""

    name = "reference"

    # ------------------------------------------------------------------
    # T-mesh FORWARD (Fig. 2)
    # ------------------------------------------------------------------
    def fanout_session(
        self,
        sender_table,
        tables,
        topology,
        processing_delay: float = 0.0,
        failed_hosts: Optional[set] = None,
    ) -> SessionResult:
        """One fault-free multicast session (no backups, no injected
        faults): Fig. 2's event loop with nothing switched on.

        Copies sent to ``failed_hosts`` are lost along with their whole
        subtree.
        """
        return forward_session(
            sender_table, tables, topology, processing_delay, failed_hosts
        )

    # ------------------------------------------------------------------
    # Key-tree batch rekeying (Section 2.4)
    # ------------------------------------------------------------------
    def mark_updated(
        self,
        changed_unodes: Sequence[Id],
        contains: Callable[[Id], bool],
        num_digits: int,
    ) -> List[Id]:
        """The pre-seam ``ModifiedKeyTree._mark_updated``: every surviving
        k-node on the path from a changed u-node to the root."""
        marked: Set[Id] = set()
        for user_id in changed_unodes:
            for level in range(num_digits):
                prefix = user_id.prefix(level)
                if contains(prefix):
                    marked.add(prefix)
        # Deterministic order: by depth then digits, so crypto-mode secret
        # generation is reproducible for a given rng.
        return sorted(marked, key=lambda n: (len(n), n.digits))


def make_backend() -> ReferenceBackend:
    return ReferenceBackend()


register_backend("reference", make_backend)
