"""The live transport: the shared delivery fabric with stream egress.

:class:`StreamTransport` keeps everything about
:class:`repro.net.scheduling.Transport` — the fault plan is consulted at
send time, topology delay schedules the dispatch, crash windows and
detach checks run at terminal delivery — and changes exactly one step:
when the due message's destination has a registered stream, the dispatch
writes a frame to that stream instead of calling the node directly.  The
far side's reader feeds :meth:`StreamTransport.ingress`, which funnels
into the same terminal delivery.  Hosts without a stream (the key server
itself, or a fallback run without sockets) deliver in-process, so the
protocol is indifferent to which hosts are "really" remote.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, DefaultDict, Dict, Optional, TYPE_CHECKING

from ..net.scheduling import Transport
from .wire import SectionMemo, encode_frame

if TYPE_CHECKING:  # pragma: no cover - typing only
    import asyncio

    from ..faults.plan import FaultPlan
    from ..net.topology import Topology
    from .aio import AsyncioScheduler


class StreamTransport(Transport):
    """Transport whose dispatch step crosses a real asyncio stream."""

    def __init__(self, scheduler: "AsyncioScheduler", topology: "Topology"):
        super().__init__(scheduler, topology)
        #: host -> hub-side writer for that host's endpoint connection.
        self.writers: Dict[int, "asyncio.StreamWriter"] = {}
        self.frames_sent = 0
        self.frames_delivered = 0
        #: Frames a reader could not decode (see :meth:`reject`).
        self.frames_rejected = 0
        #: Dispatches that fell back to in-process delivery because the
        #: destination had no live stream.
        self.local_deliveries = 0
        #: host -> frames written to its stream and not yet ingested.
        self._unread: Dict[int, int] = {}
        #: host -> memo of the update section it last sent.  One per
        #: sender because copies leave after per-link delays: a
        #: forwarder's dispatches interleave with every other
        #: forwarder's, so one shared memo would rarely hit.
        self._memos: DefaultDict[int, SectionMemo] = defaultdict(SectionMemo)

    # ------------------------------------------------------------------
    def register_stream(
        self, host: int, writer: "asyncio.StreamWriter"
    ) -> None:
        """Route subsequent traffic for ``host`` over ``writer``."""
        self.writers[host] = writer
        self.scheduler.io_bound = True

    def unregister_stream(self, host: int) -> None:
        self.writers.pop(host, None)

    # ------------------------------------------------------------------
    def _dispatch(
        self, src: int, dst: int, payload: Any, plan: Optional["FaultPlan"]
    ) -> None:
        writer = self.writers.get(dst)
        if writer is None or writer.is_closing():
            if writer is not None:
                self.writers.pop(dst, None)
            self.local_deliveries += 1
            self._deliver(src, dst, payload, plan)
            return
        self.scheduler.io_started()
        self.frames_sent += 1
        self._unread[dst] = self._unread.get(dst, 0) + 1
        writer.write(encode_frame(src, dst, payload, self._memos[src]))

    def ingress(self, src: int, dst: int, payload: Any) -> None:
        """A frame arrived on ``dst``'s endpoint stream.  Terminal
        delivery runs against the *currently installed* fault plan (the
        plan object is process-shared, so for the single-plan service
        this matches the captured-plan semantics of the base fabric)."""
        self._unread[dst] -= 1
        try:
            self._deliver(src, dst, payload, self.fault_plan)
        finally:
            self.frames_delivered += 1
            self.scheduler.io_finished()

    def reject(self, host: int) -> None:
        """``host``'s reader hit a frame it could not decode: count it
        and drop the stream."""
        self.frames_rejected += 1
        self.drop_stream(host)

    def drop_stream(self, host: int) -> None:
        """``host``'s reader stopped.  Close the stream — later traffic
        for ``host`` is delivered in-process — and take every frame
        still unread on it off the wire count, so a drain never waits for
        frames no reader will deliver."""
        writer = self.writers.pop(host, None)
        if writer is not None:
            writer.close()
        for _ in range(self._unread.pop(host, 0)):
            self.scheduler.io_finished()
