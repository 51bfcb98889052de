"""repro — a reproduction of *Efficient Group Rekeying Using
Application-Layer Multicast* (X. B. Zhang, S. S. Lam, H. Liu; ICDCS 2005).

The package implements the complete system the paper describes:

* :mod:`repro.core` — user IDs and the ID tree, K-consistent neighbor
  tables, the T-mesh multicast scheme, topology-aware ID assignment, the
  rekey message splitting scheme, group membership, and the
  :class:`~repro.core.group.SecureGroup` application API;
* :mod:`repro.keytree` — the modified key tree, the original
  Wong–Gouda–Lam baseline, and the cluster rekeying heuristic;
* :mod:`repro.crypto` — real (stdlib-only) authenticated symmetric crypto;
* :mod:`repro.net` — GT-ITM transit-stub and PlanetLab-like topologies;
* :mod:`repro.alm` — the NICE and IP-multicast baselines;
* :mod:`repro.sim` — a discrete event simulator;
* :mod:`repro.metrics` / :mod:`repro.experiments` — everything needed to
  regenerate the paper's Figs. 6–14;
* :mod:`repro.verify` / :mod:`repro.trace` — opt-in runtime invariant
  checking and structured tracing/metrics (both zero-overhead when off).

Quickstart::

    from repro import SecureGroup, TransitStubTopology

    topology = TransitStubTopology(num_hosts=65, seed=1)
    group = SecureGroup(topology, server_host=64)
    alice = group.join(0)
    bob = group.join(1)
    group.end_interval()                      # batch rekey + T-mesh delivery
    print(bob.open(alice.seal(b"hello")))     # group-key encrypted data
"""

from .core import (
    Group,
    Id,
    Route,
    rendezvous_member,
    route_toward,
    IdAssigner,
    IdScheme,
    IdTree,
    NeighborTable,
    PAPER_SCHEME,
    PAPER_THRESHOLDS,
    UserRecord,
    data_session,
    rekey_session,
    run_split_rekey,
)
from .core.group import GroupMember, RekeyReport, SecureGroup
from .core.protocols import PROTOCOLS, RekeyProtocol
from .keytree import (
    ClusterRekeyingTree,
    Encryption,
    ModifiedKeyTree,
    OriginalKeyTree,
    RekeyMessage,
)
from .net import (
    MatrixTopology,
    PlanetLabTopology,
    Topology,
    TransitStubParams,
    TransitStubTopology,
)
from .alm import NiceHierarchy, nice_multicast
from .alm.reliable import ReliabilityConfig, ReliableSession, ReliableTmeshNode
from .faults import FaultPlan, FaultStats
from .metrics import RepairStats
from .sim import Simulator
from .trace import MetricsRegistry, TraceContext, tracing

__version__ = "1.0.0"

__all__ = [
    "Group",
    "Id",
    "Route",
    "rendezvous_member",
    "route_toward",
    "IdAssigner",
    "IdScheme",
    "IdTree",
    "NeighborTable",
    "PAPER_SCHEME",
    "PAPER_THRESHOLDS",
    "UserRecord",
    "data_session",
    "rekey_session",
    "run_split_rekey",
    "GroupMember",
    "RekeyReport",
    "SecureGroup",
    "PROTOCOLS",
    "RekeyProtocol",
    "ClusterRekeyingTree",
    "Encryption",
    "ModifiedKeyTree",
    "OriginalKeyTree",
    "RekeyMessage",
    "MatrixTopology",
    "PlanetLabTopology",
    "Topology",
    "TransitStubParams",
    "TransitStubTopology",
    "NiceHierarchy",
    "nice_multicast",
    "ReliabilityConfig",
    "ReliableSession",
    "ReliableTmeshNode",
    "FaultPlan",
    "FaultStats",
    "RepairStats",
    "Simulator",
    "MetricsRegistry",
    "TraceContext",
    "tracing",
    "__version__",
]
