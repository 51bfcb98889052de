"""Shared fixtures: small topologies and pre-built groups.

Session-scoped fixtures keep the suite fast: topology generation and
group building dominate runtime, and the objects are treated as read-only
by tests that share them (tests that mutate state build their own).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core import Group, IdAssigner, IdScheme, PAPER_SCHEME
from repro.core.neighbor_table import (
    UserRecord,
    build_consistent_tables,
    build_server_table,
)
from repro.net import PlanetLabTopology, TransitStubParams, TransitStubTopology
from repro.net.planetlab import MatrixTopology

REPO_ROOT = Path(__file__).resolve().parent.parent
# The domain linter is a development tool, not part of ``repro``: its
# package (``lintkit``) and gate script (``lint.py``) live in tools/.
sys.path.append(str(REPO_ROOT / "tools"))

# ----------------------------------------------------------------------
# Hypothesis profiles: "ci" keeps property tests fast enough for every
# push; "thorough" is the local soak (HYPOTHESIS_PROFILE=thorough pytest).
# Tests with an explicit @settings(...) override these baselines.
# ----------------------------------------------------------------------
settings.register_profile(
    "ci",
    max_examples=25,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "thorough",
    max_examples=250,
    stateful_step_count=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

#: A small ID space that makes collisions and fallbacks reachable in tests.
SMALL_SCHEME = IdScheme(num_digits=3, base=4)


def make_static_world(scheme, ids, seed=0, k=1):
    """Random-geometry topology + K-consistent tables for a fixed ID set
    (hosts 0..n-1 are the users, host n is the key server)."""
    n = len(ids) + 1
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 100, size=(n, 2))
    matrix = np.sqrt(
        ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    )
    matrix = (matrix + matrix.T) / 2
    np.fill_diagonal(matrix, 0.0)
    topology = MatrixTopology(matrix)
    records = [UserRecord(uid, host) for host, uid in enumerate(ids)]
    tables = build_consistent_tables(scheme, records, topology.rtt, k=k)
    server_table = build_server_table(scheme, n - 1, records, topology.rtt, k=k)
    return topology, records, tables, server_table


TINY_GTITM = TransitStubParams(
    transit_domains=3,
    transit_per_domain=3,
    stubs_per_transit=2,
    stub_size=6,
)


@pytest.fixture(scope="session")
def gtitm():
    """A small transit-stub topology with 49 hosts (48 users + server)."""
    return TransitStubTopology(num_hosts=49, params=TINY_GTITM, seed=42)


@pytest.fixture(scope="session")
def planetlab():
    """A small PlanetLab-like topology with 49 hosts."""
    return PlanetLabTopology(num_hosts=49, seed=42)


def make_group(topology, num_users, seed=0, scheme=PAPER_SCHEME, k=4):
    """Build a group by joining hosts 0..num_users-1 in random order."""
    from repro.experiments.common import _default_thresholds

    rng = np.random.default_rng(seed)
    group = Group(
        scheme,
        topology,
        server_host=topology.num_hosts - 1,
        assigner=IdAssigner(scheme, _default_thresholds(scheme)),
        k=k,
        rng=rng,
    )
    for host in rng.permutation(num_users):
        group.join(int(host))
    return group


@pytest.fixture(scope="session")
def gtitm_group(gtitm):
    """48 users joined on the GT-ITM topology (read-only in tests)."""
    return make_group(gtitm, 48, seed=7)


@pytest.fixture(scope="session")
def planetlab_group(planetlab):
    """48 users joined on the PlanetLab topology (read-only in tests)."""
    return make_group(planetlab, 48, seed=7)


@pytest.fixture(scope="session")
def shipped_lint():
    """One full lint scan of ``src``, shared by every test that reads
    the shipped tree's findings."""
    from lintkit import LintEngine

    return LintEngine([REPO_ROOT / "src"]).run()
