"""Bench-lane smoke test of the rekey-interval benchmark (not tier-1:
``PYTHONPATH=src python -m pytest benchmarks/interval -q``).

A down-scaled pass of all six workloads — one cycle each, sizes
64/64/32/16/64/10 000 — must finish quickly, emit every metric it names
with nothing failed, and match ``BENCHMARK.json``; a second test damages
each built world and requires the checks to notice.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.interval.metrics import END_TO_END, PER_LAYER
from benchmarks.interval.workloads import WORKLOADS, LossyRepair, _Protocol, _Secure
from repro.crypto.keystore import KeyStore

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

#: End-to-end metrics that do not apply to a workload (ISSUE 12's table).
NOT_APPLICABLE = {
    "distributed_churn_256": {"join_ms_p50", "leave_ms_p50"},
    "service_churn_128": {"join_ms_p50", "leave_ms_p50"},
    "lossy_repair_1024": {"churn_ms_per_op_p50", "join_ms_p50", "leave_ms_p50"},
    "stream_rekey_1m": {
        "churn_ms_per_op_p50",
        "join_ms_p50",
        "leave_ms_p50",
        "rekey_cost_enc_p50",
    },
}

#: A count that must be positive on exactly these workloads: the layer
#: does work there and none anywhere else.
LAYER_HOMES = {
    "crypto.encrypt_calls": {"secure_churn_1024", "secure_flash_1024"},
    "core.id_assignment.queries_per_join": {"secure_churn_1024", "secure_flash_1024"},
    "distributed.nodes.messages_per_interval": {
        "distributed_churn_256",
        "service_churn_128",
    },
    "service.wire.encode_calls": {"service_churn_128"},
    "alm.reliable.heartbeats_per_session": {"lossy_repair_1024"},
    "perf.scale.receipts_per_s": {"stream_rekey_1m"},
}


def _pass(out: Path, trace: int) -> None:
    start = time.perf_counter()
    subprocess.run(
        [
            sys.executable,
            str(HERE / "__main__.py"),
            "--workload", "all",
            "--smoke",
            "--cycles-scale", "0.01",
            "--trace", str(trace),
            "--out", str(out),
        ],  # fmt: skip
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )
    assert time.perf_counter() - start < 20.0


def test_down_scaled_pass_emits_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    _pass(out, 0)
    _pass(out, 1)
    runs = {(r["workload"], r["trace"]): r for r in json.loads(out.read_text())["runs"]}
    assert {w for w, _ in runs} == set(WORKLOADS)
    for name in WORKLOADS:
        untraced, traced = runs[(name, 0)], runs[(name, 1)]
        assert untraced["cycles"] == 1
        for record in (untraced, traced):
            assert record["failed"] == 0, record["problems"]
        for metric in END_TO_END:
            value = untraced["metrics"][metric.name]
            if metric.name in NOT_APPLICABLE.get(name, ()):
                assert value is None, (name, metric.name)
            else:
                assert value["unit"] == metric.unit
                assert value["value"] > 0 or metric.name == "failed_share"
        assert untraced["metrics"]["failed_share"]["value"] == 0
        assert set(traced["metrics"]) == {m.name for m in PER_LAYER}
        assert traced["metrics"]["bench.trace_overhead_ratio"]["value"] > 0
        for layer, homes in LAYER_HOMES.items():
            value = traced["metrics"][layer]["value"]
            assert (value > 0) == (name in homes), (name, layer, value)
        assert Path(traced["trace_file"]).exists()


def test_manifest_matches_the_harness():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    listed = {m["name"]: m for m in MANIFEST["end_to_end"]}
    assert set(listed) == {m.name for m in END_TO_END if m.driver}
    for metric in END_TO_END:
        if metric.driver:
            entry = listed[metric.name]
            assert (entry["unit"], entry["better"], entry["bound"]) == (
                metric.unit,
                metric.better,
                metric.bound,
            )
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    for workload in MANIFEST["workloads"]:
        cycles = WORKLOADS[workload["name"]].cycles
        assert workload["why"].startswith(f"{cycles} cycles"), workload


class _Forgetful(list):
    """A receipt list that drops what it is given."""

    def append(self, item) -> None:
        pass


def corrupt(workload) -> None:
    """Damage a built world so the next cycle's checks must fail.  Every
    fourth member loses its key store (secure stacks) or its receipts
    (message-level stacks) — every fourth, so some survive the cycle's
    own leaves; the reliable sessions lose every packet; the stream
    expects one member more than it has."""
    if isinstance(workload, _Secure):
        for member in list(workload.group.members.values())[::4]:
            member.keystore = KeyStore()
    elif isinstance(workload, _Protocol):
        for user in workload.world.active_users()[::4]:
            user.copies_received = _Forgetful()
    elif isinstance(workload, LossyRepair):
        workload.drop_rate = 1.0
    else:
        workload.members += 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checks_bite(name):
    workload = WORKLOADS[name](seed=20, smoke=True)
    try:
        workload.setup()
        assert workload.cycle(0).failed == 0
        corrupt(workload)
        assert workload.cycle(1).failed > 0
    finally:
        workload.teardown()
