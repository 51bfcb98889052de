"""The replication schedule of the latency figures.

Replications run in process, one after another; each is a pure function
of its own seed.  The schedule of those seeds is pinned here so that a
figure's runs stay the same runs whatever executes them.
"""

from repro.experiments.latency_experiments import replication_seeds


class TestReplicationSeeds:
    def test_seed_schedule_is_the_serial_loops(self):
        assert replication_seeds(7, 3) == [1007, 2007, 3007]
