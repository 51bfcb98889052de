"""Experiment drivers regenerating every table and figure of the paper's
evaluation (Section 4)."""

from .config import SCALES, Scale, current_scale
from .common import (
    CentralizedController,
    build_group,
    build_nice,
    build_topology,
    join_order,
    server_host_of,
)
from .latency_experiments import (
    LatencyComparison,
    SchemeLatency,
    replication_seeds,
    run_latency_experiment,
)
from .rekey_cost import (
    RekeyCostPoint,
    RekeyCostSurface,
    default_grid,
    run_rekey_cost,
)
from .bandwidth_experiment import (
    BandwidthExperiment,
    ProtocolBandwidth,
    run_bandwidth_experiment,
)
from .thresholds import (
    PAPER_VARIANTS,
    ThresholdSweep,
    VariantLatency,
    run_threshold_sweep,
)
from .interval_sweep import IntervalPoint, IntervalSweep, run_interval_sweep

__all__ = [
    "SCALES",
    "Scale",
    "current_scale",
    "CentralizedController",
    "build_group",
    "build_nice",
    "build_topology",
    "join_order",
    "server_host_of",
    "LatencyComparison",
    "SchemeLatency",
    "run_latency_experiment",
    "replication_seeds",
    "RekeyCostPoint",
    "RekeyCostSurface",
    "default_grid",
    "run_rekey_cost",
    "BandwidthExperiment",
    "ProtocolBandwidth",
    "run_bandwidth_experiment",
    "PAPER_VARIANTS",
    "ThresholdSweep",
    "VariantLatency",
    "run_threshold_sweep",
    "IntervalPoint",
    "IntervalSweep",
    "run_interval_sweep",
]
