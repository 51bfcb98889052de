"""Spans and counts recorded from outside the stacks.

:func:`install` rebinds the public entry points of each layer — module
functions wherever ``repro`` modules hold a reference to them, methods on
their classes — to wrappers that append a span ``[name, start, end,
parent, cycle]`` to an in-memory list.  Nothing under ``src/`` changes,
and the wrappers exist only in a process that called :func:`install`.
``NeighborTable.insert/remove/fill`` and ``cipher.generate_key`` are too
fine-grained to time without distorting their callers, so they get
counting wrappers only.

A layer's *self time* is its span's duration minus the durations of its
direct children; summing self times over a phase therefore never counts
a microsecond twice.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

NAME, START, END, PARENT, CYCLE = range(5)


class Tracer:
    """Span and count store for one traced process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: ``(cycle, phase, name) -> total``, recorded at span boundaries.
        self.counts: Dict[Tuple[int, str, str], float] = defaultdict(float)
        self.on = False
        self.cycle = -1
        self.phase = ""
        self._stack: List[int] = []

    # ------------------------------------------------------------------
    def begin(self, name: str) -> int:
        stack = self._stack
        index = len(self.spans)
        self.spans.append(
            [name, 0.0, 0.0, stack[-1] if stack else -1, self.cycle]
        )
        stack.append(index)
        self.spans[index][START] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[(self.cycle, self.phase, name)] += amount

    # ------------------------------------------------------------------
    def spanned(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[["Tracer", object], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call while the tracer is on;
        ``after(tracer, result)`` records counts at the same boundary."""

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` counting its calls and nothing else."""

        def counting(*args, **kwargs):
            if self.on:
                self.counts[(self.cycle, self.phase, name)] += 1.0
            return fn(*args, **kwargs)

        counting.__wrapped__ = fn
        return counting

    def spanned_iter(self, name: str, fn: Callable) -> Callable:
        """A generator function timed from outside: one span per item,
        covering the time spent inside ``next()``."""

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            if not self.on:
                yield from iterator
                return
            while True:
                index = self.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    self._stack.pop()
                    self.spans.pop()  # the exhausted probe, not a shard
                    return
                self.end(index)
                yield item

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # Reading the trace
    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return [
            span[END] - span[START] - covered[i] for i, span in enumerate(spans)
        ]

    def roots(self) -> List[int]:
        """Index of each span's outermost ancestor (the phase span)."""
        roots: List[int] = []
        for i, span in enumerate(self.spans):
            roots.append(i if span[PARENT] < 0 else roots[span[PARENT]])
        return roots

    def total(self, name: str, phase: Optional[str] = None) -> float:
        """Sum of a count over cycles, optionally within one phase."""
        return sum(
            value
            for (_, count_phase, count_name), value in self.counts.items()
            if count_name == name and (phase is None or count_phase == phase)
        )

    def ledger(self) -> List[dict]:
        """Rows ``(phase, span name) -> calls, self seconds, total
        seconds``, sorted by self time, largest first."""
        selfs = self.self_times()
        roots = self.roots()
        rows: Dict[Tuple[str, str], dict] = {}
        for i, span in enumerate(self.spans):
            key = (self.spans[roots[i]][NAME], span[NAME])
            row = rows.get(key)
            if row is None:
                row = rows[key] = {
                    "phase": key[0],
                    "span": key[1],
                    "calls": 0,
                    "self_s": 0.0,
                    "total_s": 0.0,
                }
            row["calls"] += 1
            row["self_s"] += selfs[i]
            row["total_s"] += span[END] - span[START]
        return sorted(rows.values(), key=lambda r: -r["self_s"])

    def dump(self, path: str, workload: str, seed: int) -> None:
        """Write every span and count; times are seconds from the first
        span's start so two traces line up when read side by side."""
        origin = self.spans[0][START] if self.spans else 0.0
        payload = {
            "workload": workload,
            "seed": seed,
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "cycle"],
            "spans": [
                [i, s[NAME], s[START] - origin, s[END] - origin, s[PARENT], s[CYCLE]]
                for i, s in enumerate(self.spans)
            ],
            "count_fields": ["cycle", "phase", "name", "value"],
            "counts": [
                [cycle, phase, name, value]
                for (cycle, phase, name), value in sorted(self.counts.items())
            ],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


# ----------------------------------------------------------------------
# Rebinding
# ----------------------------------------------------------------------
def _rebind_function(original: Callable, replacement: Callable) -> int:
    """Point every ``repro`` module attribute that is ``original`` at
    ``replacement`` (``from x import f`` leaves copies behind)."""
    hits = 0
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    if not hits:
        raise RuntimeError(f"no module refers to {original!r}")
    return hits


def _rebind_method(cls: type, attr: str, wrap: Callable[[Callable], Callable]) -> None:
    setattr(cls, attr, wrap(vars(cls)[attr]))


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points.  Layers a workload never
    enters simply record nothing, which is itself the measurement (their
    metrics read 0)."""
    from repro.alm.reliable import ReliableSession, ReliableTmeshNode
    from repro.core import splitting, tmesh
    from repro.core.group import SecureGroup
    from repro.core.id_assignment import IdAssigner
    from repro.core.membership import Group
    from repro.core.neighbor_table import NeighborTable
    from repro.crypto import cipher
    from repro.distributed.messages import MulticastMsg
    from repro.distributed.nodes import ServerNode, UserNode
    from repro.keytree import modified_tree
    from repro.keytree.modified_tree import ModifiedKeyTree
    from repro.perf import scale
    from repro.service import wire
    from repro.service.aio import AsyncioScheduler
    from repro.sim.engine import Simulator

    def span(name: str, after=None) -> Callable[[Callable], Callable]:
        return lambda fn: tracer.spanned(name, fn, after)

    def method(cls: type, attr: str, name: str, after=None) -> None:
        _rebind_method(cls, attr, span(name, after))

    def function(fn: Callable, name: str, after=None) -> None:
        _rebind_function(fn, tracer.spanned(name, fn, after))

    # core.id_assignment / core.membership / core.neighbor_table
    method(
        IdAssigner,
        "determine_prefix",
        "core.id_assignment.determine_prefix",
        lambda t, outcome: t.count("core.id_assignment.queries", outcome.total_queries),
    )
    method(Group, "join", "core.membership.join")
    method(Group, "leave", "core.membership.leave")
    for attr in ("insert", "remove", "fill"):
        _rebind_method(
            NeighborTable,
            attr,
            lambda fn, attr=attr: tracer.counted(f"core.neighbor_table.{attr}", fn),
        )

    # core.group (the application glue around the layers below)
    method(SecureGroup, "end_interval", "core.group.end_interval")

    # keytree.modified_tree
    def batch_counts(t: Tracer, message) -> None:
        t.count("keytree.modified_tree.encryptions", message.rekey_cost)
        t.count(
            "keytree.modified_tree.keys_updated",
            len({e.new_key_id for e in message.encryptions}),
        )

    method(
        ModifiedKeyTree,
        "process_batch",
        "keytree.modified_tree.process_batch",
        batch_counts,
    )
    function(modified_tree.apply_rekey_message, "keytree.modified_tree.apply_rekey")

    # crypto
    function(cipher.encrypt, "crypto.encrypt")
    function(cipher.decrypt, "crypto.decrypt")
    _rebind_function(
        cipher.generate_key,
        tracer.counted("crypto.generate_key", cipher.generate_key),
    )

    # core.tmesh / core.splitting
    function(tmesh.rekey_session, "core.tmesh.rekey_session")
    function(splitting.run_split_rekey, "core.splitting.run_split_rekey")
    function(splitting.split_for_next_hop, "core.splitting.split_for_next_hop")

    # distributed.nodes
    method(ServerNode, "end_interval", "distributed.nodes.server_end_interval")
    method(ServerNode, "on_message", "distributed.nodes.server_on_message")

    def user_on_message(fn: Callable) -> Callable:
        multicast = tracer.spanned("distributed.nodes.user_on_multicast", fn)
        other = tracer.spanned("distributed.nodes.user_on_other", fn)

        def on_message(self, src, payload):
            if isinstance(payload, MulticastMsg):
                return multicast(self, src, payload)
            return other(self, src, payload)

        return on_message

    _rebind_method(UserNode, "on_message", user_on_message)

    # net.scheduling (virtual-clock drain) / service.aio (asyncio drain)
    method(Simulator, "run", "net.scheduling.loop")
    method(AsyncioScheduler, "run_coro", "service.aio.loop")

    # service.wire
    function(
        wire.encode_frame,
        "service.wire.encode",
        lambda t, frame: t.count("service.wire.bytes", len(frame)),
    )
    function(wire.decode_body, "service.wire.decode")

    # alm.reliable
    method(ReliableSession, "multicast", "alm.reliable.multicast")
    method(ReliableTmeshNode, "on_message", "alm.reliable.on_message")

    # perf.scale: shards timed from outside the generator
    function(scale.run_streaming_rekey, "perf.scale.run_streaming_rekey")
    _rebind_function(
        scale.iter_streaming_shards,
        tracer.spanned_iter("perf.scale.shard", scale.iter_streaming_shards),
    )


def format_ledger(rows: Iterable[dict], cycles: int, limit: int = 24) -> str:
    """The printed ledger: per-cycle milliseconds, largest self time first."""
    rows = list(rows)
    phase_total = defaultdict(float)
    for row in rows:
        phase_total[row["phase"]] += row["self_s"]
    lines = [
        f"{'phase':<12} {'span':<42} {'calls/cyc':>10} "
        f"{'self ms/cyc':>12} {'total ms/cyc':>13} {'share':>7}"
    ]
    for row in rows[:limit]:
        share = row["self_s"] / phase_total[row["phase"]] if phase_total[row["phase"]] else 0.0
        lines.append(
            f"{row['phase']:<12} {row['span']:<42} "
            f"{row['calls'] / cycles:>10.1f} "
            f"{row['self_s'] / cycles * 1e3:>12.3f} "
            f"{row['total_s'] / cycles * 1e3:>13.3f} {share:>6.1%}"
        )
    if len(rows) > limit:
        lines.append(f"... {len(rows) - limit} smaller rows in trace.json")
    return "\n".join(lines)
