"""Repair accounting for reliable delivery under injected faults.

:class:`RepairStats` is the counter block the NACK transport
(:mod:`repro.alm.reliable`) and the fault-injection benchmarks emit: how
many payload copies moved, how many were suppressed as duplicates, and
what the repair machinery (NACKs, retransmissions, watermark heartbeats
and their acknowledgements) cost on top.  ``repair_overhead`` is the benchmarks' headline figure: repair
messages per payload-carrying message.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class RepairStats:
    """Counters of one reliable-multicast run."""

    #: payload-carrying copies sent over the mesh (first transmissions)
    data_sent: int = 0
    #: payloads handed to the application (exactly-once deliveries)
    data_delivered: int = 0
    #: copies discarded because the (source, seq) was already seen
    duplicates_suppressed: int = 0
    #: NACK messages sent (upstream or to the source)
    nacks_sent: int = 0
    #: repair copies retransmitted in answer to NACKs
    retransmissions: int = 0
    #: direct-to-source repair requests after upstream repair failed
    source_repairs: int = 0
    #: watermark heartbeats sent to next hops that had not acknowledged
    heartbeats_sent: int = 0
    #: watermark acknowledgements sent one hop up
    acks_sent: int = 0
    #: (source, seq) holes abandoned after the retry budget ran out
    gave_up: int = 0

    # ------------------------------------------------------------------
    def add(self, other: "RepairStats") -> "RepairStats":
        """Accumulate another node's counters into this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def delivery_ratio(self, expected: int) -> float:
        """Fraction of expected exactly-once deliveries achieved."""
        if expected <= 0:
            return 1.0
        return self.data_delivered / expected

    @property
    def repair_messages(self) -> int:
        """Messages that exist only because of the repair protocol."""
        return (
            self.nacks_sent
            + self.retransmissions
            + self.heartbeats_sent
            + self.acks_sent
        )

    @property
    def repair_overhead(self) -> float:
        """Repair messages per payload-carrying first transmission."""
        if self.data_sent == 0:
            return 0.0
        return self.repair_messages / self.data_sent

    def as_row(self) -> dict:
        """A flat, deterministic dict for CSV export."""
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        row["repair_overhead"] = round(self.repair_overhead, 6)
        return row
