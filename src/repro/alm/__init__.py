"""Application-layer multicast: the NICE / IP-multicast / Scribe
baselines the paper compares against, plus the NACK-repaired reliable
T-mesh transport (:mod:`repro.alm.reliable`)."""

from .base import AlmEdge, AlmSessionResult
from .nice import Cluster, NiceHierarchy, PAPER_NICE_K, nice_multicast
from .ipmulticast import (
    ip_multicast_link_counts,
    ip_multicast_session,
    ip_multicast_tree_links,
)
from .reliable import (
    ReliabilityConfig,
    ReliableOutcome,
    ReliableSession,
    ReliableTmeshNode,
    TmeshAck,
    TmeshData,
    TmeshHeartbeat,
    TmeshNack,
)
from .scribe import ScribeGroup, build_scribe_group, scribe_multicast

__all__ = [
    "AlmEdge",
    "AlmSessionResult",
    "ReliabilityConfig",
    "ReliableOutcome",
    "ReliableSession",
    "ReliableTmeshNode",
    "TmeshAck",
    "TmeshData",
    "TmeshHeartbeat",
    "TmeshNack",
    "Cluster",
    "NiceHierarchy",
    "PAPER_NICE_K",
    "nice_multicast",
    "ip_multicast_link_counts",
    "ip_multicast_session",
    "ip_multicast_tree_links",
    "ScribeGroup",
    "build_scribe_group",
    "scribe_multicast",
]
