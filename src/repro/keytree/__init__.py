"""Key trees and rekey messages: the modified key tree (Section 2.4), the
original Wong–Gouda–Lam baseline, and the Appendix-B cluster heuristic."""

from .keys import Encryption, RekeyMessage
from .modified_tree import ModifiedKeyTree, apply_rekey_message
from .original_tree import (
    OriginalBatchResult,
    OriginalKeyTree,
    TreeEncryption,
)
from .cluster import ClusterBatchResult, ClusterRekeyingTree, LeaderUnicast
from .recovery import (
    FecDecodeResult,
    FecDecoder,
    FecEncoder,
    FecPacket,
    KeyPathGrant,
)
from .strategies import (
    StrategyCost,
    modified_tree_strategy_costs,
    original_tree_strategy_costs,
)

__all__ = [
    "FecDecodeResult",
    "FecDecoder",
    "FecEncoder",
    "FecPacket",
    "KeyPathGrant",
    "StrategyCost",
    "modified_tree_strategy_costs",
    "original_tree_strategy_costs",
    "Encryption",
    "RekeyMessage",
    "ModifiedKeyTree",
    "apply_rekey_message",
    "OriginalKeyTree",
    "OriginalBatchResult",
    "TreeEncryption",
    "ClusterRekeyingTree",
    "ClusterBatchResult",
    "LeaderUnicast",
]
