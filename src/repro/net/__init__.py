"""Network substrates: topology interface, routing, the two topology
families the paper evaluates on (GT-ITM transit-stub and PlanetLab), and
the scheduling seam (:mod:`repro.net.scheduling`) with its virtual-clock
``"simulator"`` backend (:mod:`repro.net.eventloop`)."""

from .topology import Topology, validate_rtt_matrix
from .synthetic import SyntheticRttTopology
from .routing import RouterGraph, LinkStressCounter
from .gtitm import TransitStubTopology, TransitStubParams
from .planetlab import PlanetLabTopology, MatrixTopology, PAPER_NUM_HOSTS
from .gnp import GnpEstimatedTopology, GnpModel, fit_gnp
from .scheduling import (
    MessageStats,
    ScheduledEvent,
    Scheduler,
    SchedulingBackend,
    Transport,
    TransportNode,
    available_backends,
    create_backend,
    register_backend,
)
from .eventloop import EventLoop, TimerHandle, simulator_backend

__all__ = [
    "GnpEstimatedTopology",
    "GnpModel",
    "fit_gnp",
    "SyntheticRttTopology",
    "Topology",
    "validate_rtt_matrix",
    "RouterGraph",
    "LinkStressCounter",
    "TransitStubTopology",
    "TransitStubParams",
    "PlanetLabTopology",
    "MatrixTopology",
    "PAPER_NUM_HOSTS",
    "MessageStats",
    "ScheduledEvent",
    "Scheduler",
    "SchedulingBackend",
    "Transport",
    "TransportNode",
    "available_backends",
    "create_backend",
    "register_backend",
    "EventLoop",
    "TimerHandle",
    "simulator_backend",
]
