"""Flow-sensitive analysis for ``lintkit``.

The statement rules in :mod:`lintkit.rules` see one AST node at a
time; this subpackage adds the machinery to reason about *paths*:

* :mod:`lintkit.flow.cfg` — per-function control-flow graphs with
  await points as explicit nodes;
* :mod:`lintkit.flow.dataflow` — reaching definitions, the
  await-crossing variant the race detector uses, and def-use helpers;
* :mod:`lintkit.flow.rules_flow` — the ``flow`` rule family built on
  top, registered alongside the statement rules in
  :func:`lintkit.rules.all_rules`.

Like the rest of the lint package it imports nothing from the wider
``repro`` tree (DESIGN.md layering: the linter analyses without
importing).
"""

from .cfg import CFG, Access, CFGNode, build_cfg
from .dataflow import AwaitCrossing, Definition, ReachingDefinitions

__all__ = [
    "CFG",
    "CFGNode",
    "Access",
    "AwaitCrossing",
    "Definition",
    "ReachingDefinitions",
    "build_cfg",
]
