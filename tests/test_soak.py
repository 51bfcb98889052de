"""The seeded soak lane: ``pytest -q -m soak`` (docs/SERVICE.md).

A bounded (~10s wall) slice of what ``tools/soak.py`` runs for minutes:
seeded churn from each profile, chaos crash windows, convergent
checkpoints asserting the :mod:`repro.verify` invariants, a mid-run
graceful restart resuming byte-identical key-tree state, and the CLI
driver end to end.  Everything is seeded; the deterministic (virtual
clock, in-process delivery) drive is additionally asserted reproducible
run over run.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

from repro.net import TransitStubParams, TransitStubTopology
from repro.service import PROFILES, SoakHarness
from repro.trace import tracing

pytestmark = pytest.mark.soak

SEED = 7
HOSTS = 17
PARAMS = TransitStubParams(
    transit_domains=3, transit_per_domain=3, stubs_per_transit=2, stub_size=3
)


def make_topology(seed: int = SEED) -> TransitStubTopology:
    return TransitStubTopology(num_hosts=HOSTS, params=PARAMS, seed=seed)


def run_soak(cycles: int, **kwargs):
    kwargs.setdefault("seed", SEED)
    kwargs.setdefault("interval_ms", 512.0)
    kwargs.setdefault("realtime", False)
    kwargs.setdefault("use_sockets", False)
    with tracing(seed=kwargs["seed"]):
        harness = SoakHarness(make_topology(kwargs["seed"]), 0, **kwargs)
        report = harness.run(cycles=cycles)
    return report


class TestDeterministicSoak:
    def test_clean_soak_zero_violations(self):
        report = run_soak(cycles=6, checkpoint_every=3)
        assert report.cycles == 6
        assert report.violations == []
        assert report.checkpoints == 3  # 2 periodic + final
        assert report.joins > 0
        assert report.scrapes > 0
        assert report.snapshot_bytes > 0

    def test_chaos_soak_zero_violations(self):
        report = run_soak(
            cycles=8, chaos=True, crash_every=4, checkpoint_every=4
        )
        assert report.violations == []
        assert report.crashes >= 1
        assert report.messages_dropped > 0

    def test_restart_resumes_byte_identical(self):
        report = run_soak(cycles=6, checkpoint_every=3, restart_at_cycle=2)
        assert report.restarts == 1
        assert report.restart_state_match
        assert report.violations == []

    def test_seeded_runs_are_reproducible(self):
        first = run_soak(cycles=4, chaos=True, checkpoint_every=2)
        second = run_soak(cycles=4, chaos=True, checkpoint_every=2)
        assert (first.joins, first.leaves, first.crashes) == (
            second.joins,
            second.leaves,
            second.crashes,
        )
        assert first.events == second.events
        assert first.messages_sent == second.messages_sent
        assert first.snapshot_bytes == second.snapshot_bytes

    @pytest.mark.parametrize(
        "kwargs, counters",
        [
            (
                dict(
                    seed=8,
                    profile="steady",
                    chaos=True,
                    crash_every=3,
                    checkpoint_every=2,
                ),
                # Two rounds and two intervals fewer since the audit
                # runs over the server's announced set: the first and
                # the last checkpoint no longer count a registered but
                # unannounced joiner ([0,60,0,0,0], then [0,222,0,0,0])
                # as a row-1 subtree member, so neither flushes a batch
                # only to announce it.  The run diverges after the first
                # checkpoint, hence the lower event and message counts.
                (2, 10, 6371, 6464),
            ),
            (
                dict(
                    seed=7,
                    profile="flash-crowd",
                    chaos=True,
                    restart_at_cycle=2,
                    checkpoint_every=3,
                ),
                # Three live holders of reused IDs are no longer detached
                # by recovery replays; each attached member's refill
                # sweeps query every empty entry of a 256-ary table.
                (1, 9, 12684, 12944),
            ),
        ],
        ids=["steady-chaos", "flash-crowd-chaos-restart"],
    )
    def test_pinned_counters(self, kwargs, counters):
        """The deterministic drive's counters, pinned: convergence
        rounds, intervals, events and messages.  Regenerate them only
        for an intentional behaviour change, and name that change, as
        for the golden traces."""
        report = run_soak(cycles=8, **kwargs)
        assert report.violations == []
        assert (
            report.convergence_rounds,
            report.intervals,
            report.events,
            report.messages_sent,
        ) == counters

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_every_profile_soaks_clean(self, profile):
        report = run_soak(cycles=4, profile=profile, checkpoint_every=4)
        assert report.violations == []
        assert report.intervals >= 4


class TestLiveSoak:
    def test_socket_realtime_chaos_slice(self):
        """The acceptance configuration at test scale: sockets, realtime
        pacing (scaled far below wall speed), chaos, restart."""
        report = run_soak(
            cycles=6,
            chaos=True,
            crash_every=3,
            checkpoint_every=3,
            restart_at_cycle=2,
            realtime=True,
            time_scale=1e-6,
            use_sockets=True,
        )
        assert report.violations == []
        assert report.restart_state_match
        assert report.restarts == 1


class TestSoakCli:
    def soak_main(self):
        path = pathlib.Path(__file__).parent.parent / "tools" / "soak.py"
        spec = importlib.util.spec_from_file_location("soak_cli", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.main

    def test_deterministic_cli_run_exits_zero(self, capsys, tmp_path):
        main = self.soak_main()
        snapshot = tmp_path / "final.snap"
        code = main(
            [
                "--cycles", "4",
                "--seed", "7",
                "--hosts", str(HOSTS),
                "--interval-ms", "512",
                "--checkpoint-every", "2",
                "--no-sockets",
                "--no-realtime",
                "--no-restart",
                "--snapshot", str(snapshot),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "zero verify violations at every checkpoint" in out
        assert snapshot.read_bytes()  # final state written

    def test_cli_scrape_dir(self, capsys, tmp_path):
        main = self.soak_main()
        code = main(
            [
                "--cycles", "2",
                "--seed", "7",
                "--hosts", str(HOSTS),
                "--interval-ms", "512",
                "--no-sockets",
                "--no-realtime",
                "--no-restart",
                "--no-faults",
                "--scrape-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "metrics.prom").read_text().strip()
