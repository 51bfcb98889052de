"""The ``"reference"`` compute backend: the pure-Python hot loops.

FORWARD is :func:`repro.core.tmesh.forward_session`, the one heap-driven
Fig. 2 loop; the split and marking loops lived inline in
:mod:`repro.core.splitting` and :mod:`repro.keytree.modified_tree`
before the compute seam and moved here verbatim.  They are the *semantic
definition* of the seam's operations — every other backend must
reproduce their output bitwise (same receipts in the same order, same
edge lists, same floats; see ``tests/test_compute_backends.py``) — and
the permanent fallback whenever an accelerated backend cannot handle an
input.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

from ..core.ids import Id
from ..core.splitting import SplitSessionResult, split_for_next_hop
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
    # Rekey-message splitting (Fig. 5 / Theorem 2)
    # ------------------------------------------------------------------
    def split_rekey(
        self, session: SessionResult, message, track_sets: bool = False
    ) -> SplitSessionResult:
        """The pre-seam body of ``run_split_rekey``: process hops in
        causal order, filtering each with the Theorem-2 predicate against
        the forwarder's *received* set."""
        result = SplitSessionResult()
        holdings: Dict[Id, tuple] = {session.sender: tuple(message.encryptions)}
        result.forwarded[session.sender] = 0
        for member in session.receipts:
            result.forwarded.setdefault(member, 0)
        # Hops sorted by send time give a causally consistent processing order.
        for edge in sorted(
            session.edges, key=lambda e: (e.send_time, e.arrival_time)
        ):
            have = holdings.get(edge.src)
            if have is None:
                # A duplicate-delivery artifact: the src never got a first
                # copy before "sending".  Cannot happen with consistent
                # tables.
                have = ()
            carried = split_for_next_hop(have, edge.dst, edge.send_level)
            result.edge_loads.append((edge, len(carried)))
            result.forwarded[edge.src] = result.forwarded.get(edge.src, 0) + len(
                carried
            )
            receipt = session.receipts.get(edge.dst)
            if receipt is not None and receipt.upstream == edge.src:
                holdings[edge.dst] = carried
                result.received[edge.dst] = len(carried)
                if track_sets:
                    result.received_sets[edge.dst] = set(carried)
        return result

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
