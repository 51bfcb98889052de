"""Metric names, units, bounds, and how samples become metrics.

``END_TO_END`` holds the ten end-to-end metrics.  ``driver`` marks the
ones ``BENCHMARK.json`` lists: those defined on all six workloads and
never zero, which is what the driver's contract needs of a bounded
metric.  The others are printed, stored and compared by ``--agree`` just
the same.  ``PER_LAYER`` holds the ledger metrics of the traced run; a
layer that a workload never enters reads 0 there.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.perf.percentile import percentile_linear

from .tracing import CYCLE, END, NAME, START, Tracer
from .workloads import Sample


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the reference median by which the metric may get worse.
    bound: float = 0.0
    #: Identical between two runs of one seed, so ``--agree`` demands
    #: equality instead of applying ``bound``.
    exact: bool = False
    #: Listed in BENCHMARK.json ``end_to_end``.
    driver: bool = False


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, driver=True),
    Metric("interval_ms_p50", "ms", "lower", 0.25, driver=True),
    Metric("churn_ms_per_op_p50", "ms", "lower", 0.25),
    Metric("join_ms_p50", "ms", "lower", 0.25),
    Metric("leave_ms_p50", "ms", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25, driver=True),
    Metric("rekey_latency_sim_ms_p50", "ms", "lower", 0.25, exact=True),
    Metric("rekey_cost_enc_p50", "count", "lower", 0.10, exact=True),
    Metric("peak_rss_mib", "MiB", "lower", 0.10, driver=True),
    Metric("failed_share", "ratio", "lower", 0.0, exact=True),
)

_MS = ("ms", "lower")
_COUNT = ("count", "lower")

PER_LAYER = tuple(
    Metric(name, unit, better)
    for name, (unit, better) in {
        "core.id_assignment.determine_prefix_ms_per_join": _MS,
        "core.id_assignment.queries_per_join": _COUNT,
        "core.membership.join_self_ms_per_join": _MS,
        "core.membership.leave_self_ms_per_leave": _MS,
        "core.membership.join_ms_p90": _MS,
        "core.membership.leave_ms_p90": _MS,
        "core.neighbor_table.inserts_per_op": _COUNT,
        "core.neighbor_table.removes_per_op": _COUNT,
        "core.neighbor_table.fills_per_op": _COUNT,
        "core.group.end_interval_self_ms": _MS,
        "keytree.modified_tree.process_batch_ms": _MS,
        "keytree.modified_tree.keys_updated_per_interval": _COUNT,
        "keytree.modified_tree.encryptions_per_interval": _COUNT,
        "keytree.modified_tree.apply_rekey_ms": _MS,
        "crypto.encrypt_ms": _MS,
        "crypto.encrypt_calls": _COUNT,
        "crypto.decrypt_ms": _MS,
        "crypto.decrypt_calls": _COUNT,
        "crypto.generate_key_calls": _COUNT,
        "core.tmesh.rekey_session_ms": _MS,
        "core.tmesh.receipts_per_interval": ("count", "higher"),
        "core.splitting.run_split_rekey_ms": _MS,
        "core.splitting.split_for_next_hop_ms": _MS,
        "core.splitting.split_for_next_hop_calls": _COUNT,
        "core.splitting.enc_received_per_member_mean": _COUNT,
        "distributed.nodes.server_end_interval_ms": _MS,
        "distributed.nodes.server_on_message_ms": _MS,
        "distributed.nodes.user_on_multicast_ms": _MS,
        "distributed.nodes.user_on_other_ms": _MS,
        "distributed.nodes.messages_per_interval": _COUNT,
        "distributed.nodes.messages_per_churn_op": _COUNT,
        "distributed.nodes.withdrawn_joins_per_interval": _COUNT,
        "net.scheduling.events_per_interval": _COUNT,
        "net.scheduling.loop_self_ms": _MS,
        "service.wire.encode_ms": _MS,
        "service.wire.encode_calls": _COUNT,
        "service.wire.bytes_per_interval": _COUNT,
        "service.wire.decode_ms": _MS,
        "service.wire.decode_calls": _COUNT,
        "service.transport.frames_per_interval": _COUNT,
        "service.transport.local_delivery_share": ("ratio", "lower"),
        "service.aio.loop_self_ms": _MS,
        "alm.reliable.multicast_ms": _MS,
        "alm.reliable.nacks_per_session": _COUNT,
        "alm.reliable.retransmissions_per_session": _COUNT,
        "alm.reliable.source_repairs_per_session": _COUNT,
        "alm.reliable.heartbeats_per_session": _COUNT,
        "alm.reliable.duplicates_suppressed_per_session": _COUNT,
        "alm.reliable.gave_up_per_session": _COUNT,
        "alm.reliable.useful_delivery_ratio": ("ratio", "higher"),
        "faults.drops_per_session": _COUNT,
        "perf.scale.shard_ms_sum": _MS,
        "perf.scale.shard_ms_max": _MS,
        "perf.scale.receipts_per_s": ("1/s", "higher"),
        "setup.topology_s": ("s", "lower"),
        "setup.members_s": ("s", "lower"),
        "bench.trace_overhead_ratio": ("ratio", "lower"),
        "bench.span_coverage": ("ratio", "higher"),
        "bench.calibration_ms": _MS,
    }.items()
)

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of a per-cycle (or per-call) series."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(
    samples: List[Sample],
    setup_seconds: List[float],
    peak_rss_bytes: int,
    final_problems: List[str],
) -> Dict[str, Optional[dict]]:
    """The ten end-to-end metrics of one untraced run; None where a
    metric does not apply to the workload."""
    attempted = sum(s.attempted for s in samples) + 1  # + the final audit
    failed = sum(s.failed for s in samples) + (1 if final_problems else 0)
    wall = sum(s.churn_s + s.close_s for s in samples)
    joins = [t * 1e3 for s in samples for t in s.join_s]
    leaves = [t * 1e3 for s in samples for t in s.leave_s]
    churned = [s for s in samples if s.churn_ops]
    enc = [s.enc for s in samples if s.enc is not None]
    single = lambda value, n: {"value": value, "q1": value, "q3": value, "n": n}
    return {
        "setup_s": quartiles(setup_seconds),
        "interval_ms_p50": quartiles([s.close_s * 1e3 for s in samples]),
        "churn_ms_per_op_p50": quartiles(
            [s.churn_s / s.churn_ops * 1e3 for s in churned]
        )
        if churned
        else None,
        "join_ms_p50": quartiles(joins) if joins else None,
        "leave_ms_p50": quartiles(leaves) if leaves else None,
        "ops_per_s": single(sum(s.ops for s in samples) / wall, len(samples)),
        "rekey_latency_sim_ms_p50": quartiles([s.sim_ms for s in samples]),
        "rekey_cost_enc_p50": quartiles(enc) if enc else None,
        "peak_rss_mib": single(peak_rss_bytes / 2**20, 1),
        "failed_share": single(failed / attempted, attempted),
    }


def per_layer(
    tracer: Tracer,
    samples: List[Sample],
    reference: List[Sample],
    setup_parts: Sequence[float],
    calibration_ms: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``*_ms`` and ``*_calls`` are per cycle over both phases,
    ``*_per_interval`` counts cover the close phase only, ``*_per_op`` /
    ``*_per_join`` / ``*_per_leave`` divide by the operations they name.
    ``reference`` holds the untraced cycles run in the same process just
    before the wrappers went in; they exist only for the overhead ratio.
    """
    cycles = len(samples)
    selfs = tracer.self_times()
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    durations: Dict[str, List[float]] = {}
    for own, span in zip(selfs, tracer.spans):
        name = span[NAME]
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(span[END] - span[START])

    def self_ms(name: str) -> float:
        return self_s.get(name, 0.0) / cycles * 1e3

    def per_call_ms(name: str) -> float:
        return self_s.get(name, 0.0) / calls[name] * 1e3 if calls.get(name) else 0.0

    def per_cycle(name: str) -> float:
        return calls.get(name, 0) / cycles

    def p90_ms(name: str) -> float:
        return percentile_linear(durations[name], 90.0) * 1e3 if name in durations else 0.0

    def layer(key: str) -> float:
        return sum(s.layer.get(key, 0.0) for s in samples)

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    ops = sum(s.churn_ops for s in samples)
    close_s = sum(s.close_s for s in samples)
    shard_max = [
        max(
            (
                span[END] - span[START]
                for span in tracer.spans
                if span[NAME] == "perf.scale.shard" and span[CYCLE] == cycle
            ),
            default=0.0,
        )
        for cycle in range(cycles)
    ]
    count = tracer.total
    close = "bench.close"
    values = {
        "core.id_assignment.determine_prefix_ms_per_join": per_call_ms(
            "core.id_assignment.determine_prefix"
        ),
        "core.id_assignment.queries_per_join": ratio(
            count("core.id_assignment.queries"),
            calls.get("core.id_assignment.determine_prefix", 0),
        ),
        "core.membership.join_self_ms_per_join": per_call_ms("core.membership.join"),
        "core.membership.leave_self_ms_per_leave": per_call_ms("core.membership.leave"),
        "core.membership.join_ms_p90": p90_ms("core.membership.join"),
        "core.membership.leave_ms_p90": p90_ms("core.membership.leave"),
        "core.neighbor_table.inserts_per_op": ratio(count("core.neighbor_table.insert"), ops),
        "core.neighbor_table.removes_per_op": ratio(count("core.neighbor_table.remove"), ops),
        "core.neighbor_table.fills_per_op": ratio(count("core.neighbor_table.fill"), ops),
        "core.group.end_interval_self_ms": self_ms("core.group.end_interval"),
        "keytree.modified_tree.process_batch_ms": self_ms(
            "keytree.modified_tree.process_batch"
        ),
        "keytree.modified_tree.keys_updated_per_interval": count(
            "keytree.modified_tree.keys_updated", close
        )
        / cycles,
        "keytree.modified_tree.encryptions_per_interval": count(
            "keytree.modified_tree.encryptions", close
        )
        / cycles,
        "keytree.modified_tree.apply_rekey_ms": self_ms(
            "keytree.modified_tree.apply_rekey"
        ),
        "crypto.encrypt_ms": self_ms("crypto.encrypt"),
        "crypto.encrypt_calls": per_cycle("crypto.encrypt"),
        "crypto.decrypt_ms": self_ms("crypto.decrypt"),
        "crypto.decrypt_calls": per_cycle("crypto.decrypt"),
        "crypto.generate_key_calls": count("crypto.generate_key") / cycles,
        "core.tmesh.rekey_session_ms": self_ms("core.tmesh.rekey_session"),
        "core.tmesh.receipts_per_interval": layer("receipts") / cycles,
        "core.splitting.run_split_rekey_ms": self_ms("core.splitting.run_split_rekey"),
        "core.splitting.split_for_next_hop_ms": self_ms(
            "core.splitting.split_for_next_hop"
        ),
        "core.splitting.split_for_next_hop_calls": per_cycle(
            "core.splitting.split_for_next_hop"
        ),
        "core.splitting.enc_received_per_member_mean": layer("enc_received_mean")
        / cycles,
        "distributed.nodes.server_end_interval_ms": self_ms(
            "distributed.nodes.server_end_interval"
        ),
        "distributed.nodes.server_on_message_ms": self_ms(
            "distributed.nodes.server_on_message"
        ),
        "distributed.nodes.user_on_multicast_ms": self_ms(
            "distributed.nodes.user_on_multicast"
        ),
        "distributed.nodes.user_on_other_ms": self_ms("distributed.nodes.user_on_other"),
        "distributed.nodes.messages_per_interval": layer("messages_close") / cycles,
        "distributed.nodes.messages_per_churn_op": ratio(layer("messages_churn"), ops),
        "distributed.nodes.withdrawn_joins_per_interval": layer("withdrawn_joins")
        / cycles,
        "net.scheduling.events_per_interval": layer("events_close") / cycles,
        "net.scheduling.loop_self_ms": self_ms("net.scheduling.loop"),
        "service.wire.encode_ms": self_ms("service.wire.encode"),
        "service.wire.encode_calls": per_cycle("service.wire.encode"),
        "service.wire.bytes_per_interval": count("service.wire.bytes", close) / cycles,
        "service.wire.decode_ms": self_ms("service.wire.decode"),
        "service.wire.decode_calls": per_cycle("service.wire.decode"),
        "service.transport.frames_per_interval": layer("frames_close") / cycles,
        "service.transport.local_delivery_share": ratio(
            layer("local_deliveries"), layer("local_deliveries") + layer("frames")
        ),
        "service.aio.loop_self_ms": self_ms("service.aio.loop"),
        "alm.reliable.multicast_ms": self_ms("alm.reliable.multicast")
        + self_ms("alm.reliable.on_message"),
        "alm.reliable.nacks_per_session": layer("nacks") / cycles,
        "alm.reliable.retransmissions_per_session": layer("retransmissions") / cycles,
        "alm.reliable.source_repairs_per_session": layer("source_repairs") / cycles,
        "alm.reliable.heartbeats_per_session": layer("heartbeats") / cycles,
        "alm.reliable.duplicates_suppressed_per_session": layer("duplicates_suppressed")
        / cycles,
        "alm.reliable.gave_up_per_session": layer("gave_up") / cycles,
        "alm.reliable.useful_delivery_ratio": ratio(
            layer("data_delivered"), layer("data_sent") + layer("retransmissions")
        ),
        "faults.drops_per_session": layer("drops") / cycles,
        "perf.scale.shard_ms_sum": sum(durations.get("perf.scale.shard", ())) / cycles * 1e3,
        "perf.scale.shard_ms_max": statistics.mean(shard_max) * 1e3,
        "perf.scale.receipts_per_s": ratio(layer("stream_receipts"), close_s),
        "setup.topology_s": setup_parts[0],
        "setup.members_s": setup_parts[1],
        "bench.trace_overhead_ratio": ratio(
            statistics.median(s.close_s for s in samples),
            statistics.median(s.close_s for s in reference),
        ),
        "bench.span_coverage": 1.0
        - ratio(self_s.get(close, 0.0), sum(durations.get(close, ()))),
        "bench.calibration_ms": calibration_ms,
    }
    return {name: float(value) for name, value in values.items()}
