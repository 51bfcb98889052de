"""Hook layer: opt-in structured tracing with zero overhead when off.

A single module-level slot, :data:`ACTIVE`, holds the installed
:class:`TraceContext` (or ``None``) — the exact discipline of
:mod:`repro.verify.hooks`.  Instrumented call sites —
:func:`repro.core.tmesh.run_multicast`, :class:`repro.core.tmesh.
SessionPlan`, :meth:`repro.alm.reliable.ReliableSession.multicast`,
:meth:`repro.keytree.modified_tree.ModifiedKeyTree.process_batch`,
the ``run()`` of every :class:`repro.net.scheduling.Scheduler` backend
(:meth:`repro.net.eventloop.EventLoop.run` emits the ``sim.run`` span —
the hook is keyed on the scheduling interface, not the backend name),
:class:`repro.distributed.
harness.DistributedGroup`, and :meth:`repro.experiments.parallel.
ParallelRunner.map` — read the slot once per session/run/batch and do
nothing further when it is ``None``, so the bench lane pays one
attribute load per *session*, never per event
(``benchmarks/test_trace_overhead.py`` enforces this).

Typical use::

    from repro.trace import tracing

    with tracing(seed=7) as ctx:
        rekey_session(server_table, tables, topology)   # auto-traced
    print(ctx.summary())
    text = ctx.render()          # normalized JSONL, byte-stable per seed

or, for CLI surfaces, ``python -m repro --trace=run.jsonl fig 7``.

Determinism: span IDs are creation-order integers, every attribute is a
deterministic function of the scenario (simulated time, seeds, counts —
never wall clock), and :meth:`TraceContext.render` sorts everything that
is not inherently ordered.  Same seed => byte-identical normalized trace,
including across serial vs :class:`~repro.experiments.parallel.
ParallelRunner` execution (workers trace into fresh child contexts whose
payloads merge back in task order).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .registry import MetricsRegistry
from .spans import ROOT, TRACE_VERSION, Span, dumps, freeze_spans, thaw_spans

#: The installed context; hot paths read this directly.
ACTIVE: Optional["TraceContext"] = None

#: Histogram buckets for application-layer delay (ms).
DELAY_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
                 1000.0, 2000.0)


def active() -> Optional["TraceContext"]:
    """The installed :class:`TraceContext`, or ``None``."""
    return ACTIVE


def install(context: "TraceContext") -> "TraceContext":
    """Install a context; raises if one is already active."""
    global ACTIVE
    if ACTIVE is not None:
        raise RuntimeError("a TraceContext is already installed")
    ACTIVE = context
    return context


def uninstall() -> None:
    global ACTIVE
    ACTIVE = None


@contextmanager
def tracing(**kwargs: Any) -> Iterator["TraceContext"]:
    """``with tracing(...):`` — install a fresh context for the duration
    of the block."""
    context = install(TraceContext(**kwargs))
    try:
        yield context
    finally:
        uninstall()


class TraceContext:
    """Collects spans and metrics from everything the hooks observe.

    ``seed`` tags the trace header (scenarios are deterministic functions
    of their seed, so the tag is the repro key); ``label`` names the
    captured workload; ``hops=False`` drops the per-receipt hop spans for
    very large sessions (counters still accumulate).
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        label: Optional[str] = None,
        hops: bool = True,
    ):
        self.seed = seed
        self.label = label
        self.hops = hops
        self.spans: List[Span] = []
        self.registry = MetricsRegistry()
        self._stack: List[int] = []
        # Summary tallies (not part of the normalized trace).
        self.sessions_traced = 0
        self.reliable_traced = 0
        self.batches_traced = 0
        self.intervals_traced = 0
        self.tasks_merged = 0
        # str(Id) builds a string per call; members recur across sessions
        # (and as upstreams within one), so memoize per context.
        self._id_strs: Dict[Any, str] = {}

    def _id_str(self, value: Any) -> str:
        cached = self._id_strs.get(value)
        if cached is None:
            cached = self._id_strs[value] = str(value)
        return cached

    # ------------------------------------------------------------------
    # Core span API
    # ------------------------------------------------------------------
    def _current(self) -> int:
        return self._stack[-1] if self._stack else ROOT

    def _new_span(self, name: str, parent: int, attrs: Dict[str, Any]) -> Span:
        span = Span(len(self.spans), parent, name, attrs)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a span as a child of the innermost open span; everything
        recorded inside the block nests under it.  The yielded
        :class:`~repro.trace.spans.Span` accepts late attributes via
        :meth:`~repro.trace.spans.Span.set`."""
        span = self._new_span(name, self._current(), attrs)
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            self._stack.pop()

    def event(self, name: str, **attrs: Any) -> Span:
        """A zero-duration child span of the innermost open span."""
        return self._new_span(name, self._current(), attrs)

    # ------------------------------------------------------------------
    # Metrics API (delegates to the registry)
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1, **labels: Any) -> None:
        self.registry.inc(name, value, **labels)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        self.registry.set_gauge(name, value, **labels)

    def observe_value(
        self, name: str, value: float, buckets=None, **labels: Any
    ) -> None:
        self.registry.observe(name, value, buckets=buckets, **labels)

    # ------------------------------------------------------------------
    # Observation points (called by the instrumented hot paths)
    # ------------------------------------------------------------------
    def observe_session(self, session, topology, planned: bool = False) -> None:
        """Record one finished T-mesh session: a ``tmesh.session`` span
        with one ``tmesh.hop`` child per receipt (the delivering copy —
        Theorem 1 says exactly one per member), plus the transport
        counters the paper's cost accounting needs."""
        index = self.sessions_traced
        self.sessions_traced += 1
        receipts = session.receipts
        edges = session.edges
        duplicates = sum(session.duplicate_copies.values())
        parent = self._new_span(
            "tmesh.session",
            self._current(),
            {
                "session": index,
                "sender": str(session.sender),
                "sender_host": session.sender_host,
                "members": len(receipts),
                "edges": len(edges),
                "duplicates": duplicates,
                "planned": planned,
            },
        )
        registry = self.registry
        if self.hops:
            # The per-receipt loop is the one genuinely hot trace path
            # (1024 iterations at the paper's headline size), so hoist
            # every lookup: bound append, pre-resolved histogram, and a
            # memoized Id -> str table.
            spans = self.spans
            append = spans.append
            pid = parent.span_id
            hist = registry.histogram("tmesh.app_delay_ms", DELAY_BUCKETS)
            id_str = self._id_str
            for receipt in receipts.values():
                append(
                    Span(
                        len(spans),
                        pid,
                        "tmesh.hop",
                        {
                            "member": id_str(receipt.member),
                            "host": receipt.host,
                            "level": receipt.forward_level,
                            "upstream": id_str(receipt.upstream),
                            "arrival_ms": receipt.arrival_time,
                        },
                    )
                )
                hist.observe(receipt.arrival_time)
        registry.inc("tmesh.sessions")
        registry.inc("tmesh.messages_forwarded", len(edges))
        registry.inc("tmesh.duplicate_copies", duplicates)
        registry.inc("tmesh.receipts", len(receipts))
        if planned:
            registry.inc("tmesh.planned_sessions")
        if topology is not None and topology.has_rtt_matrix():
            # The dense RTT cache from repro.perf served this session's
            # per-hop delays.
            registry.inc("perf.rtt_cache_sessions")

    def observe_reliable(self, outcome) -> None:
        """Fold one :class:`~repro.alm.reliable.ReliableOutcome`'s
        aggregated repair accounting into the counters."""
        self.reliable_traced += 1
        stats = outcome.stats
        registry = self.registry
        registry.inc("reliable.sessions")
        registry.inc("reliable.data_sent", stats.data_sent)
        registry.inc("reliable.data_delivered", stats.data_delivered)
        registry.inc("reliable.duplicates_suppressed", stats.duplicates_suppressed)
        registry.inc("reliable.nacks_sent", stats.nacks_sent)
        registry.inc("reliable.retransmissions", stats.retransmissions)
        registry.inc("reliable.source_repairs", stats.source_repairs)
        registry.inc("reliable.heartbeats_sent", stats.heartbeats_sent)
        registry.inc("reliable.acks_sent", stats.acks_sent)
        registry.inc("reliable.gave_up", stats.gave_up)

    def observe_batch_rekey(self, interval: int, joins: Sequence, leaves: Sequence,
                            updated: Sequence, encryptions: Sequence) -> None:
        """Record one batch rekey: a ``keytree.batch`` span with one
        ``keytree.node_rekey`` child per updated k-node carrying its
        encryption fan-out."""
        self.batches_traced += 1
        parent = self._new_span(
            "keytree.batch",
            self._current(),
            {
                "interval": interval,
                "joins": len(joins),
                "leaves": len(leaves),
                "updated_nodes": len(updated),
                "encryptions": len(encryptions),
            },
        )
        per_node: Dict[Any, int] = {}
        for enc in encryptions:
            per_node[enc.new_key_id] = per_node.get(enc.new_key_id, 0) + 1
        pid = parent.span_id
        for node_id in updated:
            self._new_span(
                "keytree.node_rekey",
                pid,
                {
                    "node": str(node_id),
                    "depth": len(node_id),
                    "encryptions": per_node.get(node_id, 0),
                },
            )
        registry = self.registry
        registry.inc("keytree.batches")
        registry.inc("keytree.keys_encrypted", len(encryptions))
        registry.inc("keytree.joins", len(joins))
        registry.inc("keytree.leaves", len(leaves))
        registry.observe("keytree.batch_encryptions", len(encryptions))

    def observe_interval(self, update, now: float) -> None:
        """Record one distributed interval announcement."""
        self.intervals_traced += 1
        self.event(
            "distributed.interval",
            interval=update.interval,
            joins=len(update.joins),
            leaves=len(update.leaves),
            encryptions=len(update.encryptions),
            time_ms=now,
        )
        self.registry.inc("distributed.intervals")

    # ------------------------------------------------------------------
    # Parallel-worker merge (repro.experiments.parallel)
    # ------------------------------------------------------------------
    def worker_config(self) -> Dict[str, Any]:
        """Constructor kwargs for the per-task child contexts workers
        trace into."""
        return {"seed": self.seed, "label": self.label, "hops": self.hops}

    def freeze(self) -> Dict[str, Any]:
        """A picklable payload of everything recorded so far (spans,
        metrics, tallies) — what a forked worker ships back."""
        return {
            "spans": freeze_spans(self.spans),
            "metrics": self.registry.snapshot(),
            "tallies": (
                self.sessions_traced,
                self.reliable_traced,
                self.batches_traced,
                self.intervals_traced,
                self.tasks_merged,
            ),
        }

    def merge_payload(self, payload: Dict[str, Any], index: int) -> None:
        """Graft one task's frozen trace under a ``parallel.task`` span.

        Span IDs are renumbered by a constant offset so the merged trace
        depends only on task order — identical for serial and forked
        execution."""
        task_span = self._new_span(
            "parallel.task", self._current(), {"index": index}
        )
        base = len(self.spans)
        for span in thaw_spans(payload["spans"]):
            parent = (
                task_span.span_id if span.parent == ROOT else base + span.parent
            )
            self.spans.append(
                Span(base + span.span_id, parent, span.name, span.attrs)
            )
        self.registry.merge_snapshot(payload["metrics"])
        sessions, reliable, batches, intervals, tasks = payload["tallies"]
        self.sessions_traced += sessions
        self.reliable_traced += reliable
        self.batches_traced += batches
        self.intervals_traced += intervals
        self.tasks_merged += tasks + 1

    def merge_task_results(
        self, pairs: Sequence[Tuple[Any, Dict[str, Any]]]
    ) -> List[Any]:
        """Unwrap ``(result, frozen trace)`` pairs in task order, merging
        each trace; returns the bare results."""
        results: List[Any] = []
        for index, (result, payload) in enumerate(pairs):
            self.merge_payload(payload, index)
            results.append(result)
        return results

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def normalized_lines(self) -> List[str]:
        """The canonical byte representation: a header line, every span
        in creation order, then the sorted metric block."""
        header = {
            "kind": "header",
            "version": TRACE_VERSION,
            "seed": self.seed,
            "label": self.label,
            "spans": len(self.spans),
        }
        lines = [dumps(header)]
        lines.extend(dumps(span.as_record()) for span in self.spans)
        lines.extend(self.registry.jsonl_lines())
        return lines

    def render(self) -> str:
        """The normalized trace as text (trailing newline included)."""
        return "\n".join(self.normalized_lines()) + "\n"

    def summary(self) -> str:
        return (
            f"traced {self.sessions_traced} session(s), "
            f"{self.reliable_traced} reliable run(s), "
            f"{self.batches_traced} key-tree batch(es), "
            f"{self.intervals_traced} interval(s), "
            f"{self.tasks_merged} parallel task(s): "
            f"{len(self.spans)} span(s), {len(self.registry)} metric(s)"
        )
