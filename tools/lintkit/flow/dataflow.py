"""Dataflow over the CFGs of :mod:`lintkit.flow.cfg`.

Three analyses, all standard worklist fixpoints over small per-function
graphs:

* **Reaching definitions** — for every node, the set of definitions
  (writes / parameters) that reach its entry along some path.  This is
  the substrate for def-use chains: a read's *reaching defs of its own
  name* are exactly the writes it may observe.
* **Await-crossing reaching definitions** — the same lattice extended
  with one bit per definition: "has this value crossed a suspension
  point since it was written?".  An ``await`` node flips the bit on
  everything live across it; a *test* read of a ``self.*`` name clears
  it (the coroutine re-validated the state after resuming, which is the
  pattern `AsyncioScheduler.drain` uses at runtime).  The race detector
  fires on plain reads whose only reaching defs carry the bit.
* **Seed-source resolution** — a recursive classifier over def-use
  chains answering "where did this expression's value ultimately come
  from?" with one of ``{"none", "param", "const", "other"}``, used by
  the RNG seed-taint rule to follow a seed through any number of
  intermediate assignments.

Everything here is pure: no imports from the wider ``repro`` tree, no
mutation of the CFG.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .cfg import AWAIT, CFG, PARAM, Access

#: Seed-source classifications, ordered by how much we trust them.
SEED_NONE = "none"  # literally None / unseeded
SEED_PARAM = "param"  # flows from a function parameter (caller's duty)
SEED_CONST = "const"  # a non-None literal
SEED_OTHER = "other"  # attribute, call result, arithmetic, ... (opaque)


@dataclass(frozen=True, slots=True)
class Definition:
    """One write event: ``name`` was bound at CFG node ``node``."""

    name: str
    node: int
    access: Access

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Definition({self.name!r}@{self.node})"


class ReachingDefinitions:
    """Classic forward may-analysis: ``IN[n] = union(OUT[p])``,
    ``OUT[n] = gen(n) | (IN[n] - kill(n))``."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self.defs: List[List[Definition]] = [[] for _ in cfg.nodes]
        for node in cfg.nodes:
            for access in node.writes:
                self.defs[node.index].append(
                    Definition(access.name, node.index, access)
                )
        self.in_sets: List[FrozenSet[Definition]] = []
        self.out_sets: List[FrozenSet[Definition]] = []
        self._solve()

    def _transfer(
        self, index: int, incoming: FrozenSet[Definition]
    ) -> FrozenSet[Definition]:
        generated = self.defs[index]
        if not generated:
            return incoming
        killed = {definition.name for definition in generated}
        kept = {d for d in incoming if d.name not in killed}
        kept.update(generated)
        return frozenset(kept)

    def _solve(self) -> None:
        cfg = self.cfg
        empty: FrozenSet[Definition] = frozenset()
        self.in_sets = [empty for _ in cfg.nodes]
        self.out_sets = [
            self._transfer(node.index, empty) for node in cfg.nodes
        ]
        worklist = [node.index for node in cfg.nodes]
        while worklist:
            index = worklist.pop()
            node = cfg.nodes[index]
            incoming: Set[Definition] = set()
            for pred in node.preds:
                incoming.update(self.out_sets[pred])
            frozen_in = frozenset(incoming)
            if frozen_in == self.in_sets[index] and self.out_sets[index]:
                # No change and already initialised with this input.
                if self._transfer(index, frozen_in) == self.out_sets[index]:
                    continue
            self.in_sets[index] = frozen_in
            out = self._transfer(index, frozen_in)
            if out != self.out_sets[index]:
                self.out_sets[index] = out
                worklist.extend(node.succs)

    def reaching(self, index: int, name: str) -> List[Definition]:
        """Definitions of ``name`` that may reach node ``index``."""
        return sorted(
            (d for d in self.in_sets[index] if d.name == name),
            key=lambda d: d.node,
        )

    def uses_of(self, definition: Definition) -> List[Tuple[int, Access]]:
        """``(node, read)`` pairs this definition may feed."""
        uses: List[Tuple[int, Access]] = []
        for node in self.cfg.nodes:
            if definition in self.in_sets[node.index]:
                for access in node.reads:
                    if access.name == definition.name:
                        uses.append((node.index, access))
        return uses


#: A definition plus the "crossed an await since written" bit.
_Crossed = Tuple[Definition, bool]


class AwaitCrossing:
    """Reaching definitions where each fact carries a *crossed* bit.

    Transfer rules, applied in node order (reads, then the node effect,
    then writes — matching the read-before-write chains the CFG builder
    emits):

    * an ``await`` node sets ``crossed=True`` on every live definition;
    * a **test** read of name *n* (branch/loop/assert condition) resets
      ``crossed=False`` on every live definition of *n* — the coroutine
      looked at the value after resuming, so downstream reads are
      considered re-validated;
    * a write of *n* kills all prior facts for *n* and generates
      ``(def, False)``.

    The lattice is the powerset of ``defs x {False, True}``; transfer is
    monotone, so the usual worklist terminates.
    """

    def __init__(self, cfg: CFG, reaching: ReachingDefinitions) -> None:
        self.cfg = cfg
        self._defs = reaching.defs
        self.in_sets: List[FrozenSet[_Crossed]] = []
        self.out_sets: List[FrozenSet[_Crossed]] = []
        self._solve()

    def _transfer(
        self, index: int, incoming: FrozenSet[_Crossed]
    ) -> FrozenSet[_Crossed]:
        node = self.cfg.nodes[index]
        facts: Set[_Crossed] = set(incoming)
        revalidated = {
            access.name
            for access in node.reads
            if access.is_test and access.is_self
        }
        if revalidated:
            facts = {
                (d, crossed and d.name not in revalidated)
                for d, crossed in facts
            }
        if node.kind == AWAIT:
            facts = {(d, True) for d, _ in facts}
        generated = self._defs[index]
        if generated:
            killed = {definition.name for definition in generated}
            facts = {f for f in facts if f[0].name not in killed}
            facts.update((definition, False) for definition in generated)
        return frozenset(facts)

    def _solve(self) -> None:
        cfg = self.cfg
        empty: FrozenSet[_Crossed] = frozenset()
        self.in_sets = [empty for _ in cfg.nodes]
        self.out_sets = [
            self._transfer(node.index, empty) for node in cfg.nodes
        ]
        worklist = [node.index for node in cfg.nodes]
        while worklist:
            index = worklist.pop()
            node = cfg.nodes[index]
            incoming: Set[_Crossed] = set()
            for pred in node.preds:
                incoming.update(self.out_sets[pred])
            frozen_in = frozenset(incoming)
            self.in_sets[index] = frozen_in
            out = self._transfer(index, frozen_in)
            if out != self.out_sets[index]:
                self.out_sets[index] = out
                worklist.extend(node.succs)

    def stale_defs(self, index: int, name: str) -> List[Definition]:
        """Definitions of ``name`` reaching node ``index`` with the
        crossed bit set — i.e. written before a suspension point with no
        re-validation since."""
        return sorted(
            {
                definition
                for definition, crossed in self.in_sets[index]
                if crossed and definition.name == name
            },
            key=lambda d: d.node,
        )


# ----------------------------------------------------------------------
# Seed-source resolution (def-use chasing for the RNG taint rule)
# ----------------------------------------------------------------------
def classify_seed_expr(
    expr: Optional[ast.expr],
    at_node: int,
    reaching: ReachingDefinitions,
    _seen: Optional[Set[Tuple[str, int]]] = None,
) -> str:
    """Where does this seed expression's value come from?

    Follows Name reads through their reaching definitions (copy chains
    like ``s = seed; t = s; Random(t)``), merging over multiple defs:
    any ``none`` wins (that path is unseeded), otherwise any ``other``
    wins (we cannot prove it), otherwise params/consts hold.
    """
    if _seen is None:
        _seen = set()
    if expr is None:
        return SEED_NONE
    if isinstance(expr, ast.Constant):
        return SEED_NONE if expr.value is None else SEED_CONST
    if isinstance(expr, ast.Name):
        defs = reaching.reaching(at_node, expr.id)
        if not defs:
            return SEED_OTHER  # global / builtin; out of scope
        verdicts = []
        for definition in defs:
            key = (definition.name, definition.node)
            if key in _seen:
                continue  # copy cycle through a loop; ignore this path
            _seen.add(key)
            if definition.access.kind == PARAM:
                verdicts.append(SEED_PARAM)
            elif definition.access.value is not None:
                verdicts.append(
                    classify_seed_expr(
                        definition.access.value,
                        definition.node,
                        reaching,
                        _seen,
                    )
                )
            else:
                verdicts.append(SEED_OTHER)
        if not verdicts:
            return SEED_OTHER
        if SEED_NONE in verdicts:
            return SEED_NONE
        if SEED_OTHER in verdicts:
            return SEED_OTHER
        return SEED_PARAM if SEED_PARAM in verdicts else SEED_CONST
    if isinstance(expr, ast.Attribute):
        # self.seed / cfg.seed: someone else's responsibility; trusted.
        return SEED_OTHER
    if isinstance(expr, (ast.BinOp, ast.UnaryOp)):
        # Arithmetic over seeds (``seed + shard``): classify operands,
        # weakest wins.
        operands = (
            [expr.left, expr.right]
            if isinstance(expr, ast.BinOp)
            else [expr.operand]
        )
        verdicts = [
            classify_seed_expr(op, at_node, reaching, _seen)
            for op in operands
        ]
        if SEED_NONE in verdicts:
            return SEED_NONE
        if SEED_OTHER in verdicts:
            return SEED_OTHER
        return SEED_PARAM if SEED_PARAM in verdicts else SEED_CONST
    if isinstance(expr, ast.IfExp):
        verdicts = [
            classify_seed_expr(expr.body, at_node, reaching, _seen),
            classify_seed_expr(expr.orelse, at_node, reaching, _seen),
        ]
        if SEED_NONE in verdicts:
            return SEED_NONE
        if SEED_OTHER in verdicts:
            return SEED_OTHER
        return SEED_PARAM if SEED_PARAM in verdicts else SEED_CONST
    return SEED_OTHER


def reachable_without(
    cfg: CFG,
    start: int,
    blocked: Set[int],
    target: int,
) -> bool:
    """Is ``target`` reachable from ``start`` along edges avoiding the
    ``blocked`` nodes?  (BFS; used by the resource-leak rule: "can the
    function exit while the handle is live and unreleased?")"""
    if start in blocked:
        return False
    seen = {start}
    frontier = [start]
    while frontier:
        index = frontier.pop()
        if index == target:
            return True
        for succ in cfg.nodes[index].succs:
            if succ not in seen and succ not in blocked:
                seen.add(succ)
                frontier.append(succ)
    return False
