"""Per-function control-flow graphs with await points as explicit nodes.

The statement-level rules in :mod:`lintkit.rules` see one AST node at
a time; the flow rules need *paths*: "does this read sit downstream of
that write, with an ``await`` in between?".  This module lowers a
function body to a small CFG whose nodes carry the reads and writes the
dataflow pass (:mod:`lintkit.flow.dataflow`) consumes:

* every simple statement becomes a short chain — a node carrying the
  reads of its expressions, one explicit ``await`` node per suspension
  point (``await``, ``yield``, ``yield from``, the implicit ``__anext__``
  of ``async for`` and ``__aenter__``/``__aexit__`` of ``async with``),
  then a node carrying the writes — so "crosses an await" is a pure
  graph property;
* branches, loops (with ``break``/``continue`` routing), ``try``/
  ``except``/``finally`` (handlers reachable from every node of the
  protected body; ``finally`` bodies inlined at every abrupt exit, the
  same trick compilers use), ``with``/``async with``, and ``match`` all
  lower to ordinary edges;
* accesses distinguish plain locals from instance state: ``self.attr``
  (spelled with the method's actual first parameter) becomes the
  pseudo-name ``"self.attr"`` with ``is_self=True``, which is what the
  await-interleaving race detector keys on.

The lowering is deliberately conservative where Python is dynamic:
mutations through subscripts/attribute chains are recorded as *reads* of
the base (they do not rebind), nested function bodies get their own
CFGs, and an expression's reads are ordered before its awaits before the
statement's writes (exact sub-expression interleavings are
approximated — good enough for lint, never for codegen).

Like the rest of the package this module imports nothing from the wider
``repro`` tree: it is pure ``ast``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Access kinds.
READ = "read"
WRITE = "write"
PARAM = "param"

#: Node kinds.
ENTRY = "entry"
EXIT = "exit"
STMT = "stmt"
TEST = "test"
AWAIT = "await"
EXCEPT = "except"


@dataclass(frozen=True, slots=True)
class Access:
    """One read or write of a trackable name.

    ``name`` is a plain local (``"head"``) or an instance-attribute
    pseudo-name (``"self._wall_start"``, with ``is_self=True``).
    ``is_test`` marks reads that occur in a branch/loop/assert condition
    — the race detector treats those as *re-validation* points.
    ``value`` carries the RHS expression for simple single-target writes
    (the def-use resolver follows it for copy/constant propagation);
    ``None`` means "opaque" (unpacking, ``del``, parameters, loops).
    """

    name: str
    node: ast.AST
    kind: str
    is_self: bool = False
    is_test: bool = False
    value: Optional[ast.expr] = None


@dataclass(slots=True)
class CFGNode:
    """One atomic step: reads happen before writes; ``await`` nodes mark
    the suspension itself (their operand's reads sit in the chain
    before them)."""

    index: int
    kind: str
    stmt: Optional[ast.AST]
    reads: Tuple[Access, ...] = ()
    writes: Tuple[Access, ...] = ()
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)


@dataclass(slots=True)
class CFG:
    """The lowered function: ``nodes[entry]`` holds the parameter defs,
    every path ends at ``nodes[exit]``."""

    func: FunctionNode
    self_name: Optional[str]
    nodes: List[CFGNode]
    entry: int
    exit: int

    @property
    def is_async(self) -> bool:
        return isinstance(self.func, ast.AsyncFunctionDef)

    def await_nodes(self) -> List[CFGNode]:
        return [node for node in self.nodes if node.kind == AWAIT]

    def accesses(self) -> Iterator[Tuple[CFGNode, Access]]:
        for node in self.nodes:
            for access in node.reads:
                yield node, access
            for access in node.writes:
                yield node, access


# ----------------------------------------------------------------------
# Expression scanning
# ----------------------------------------------------------------------
def scan_expression(
    expr: Optional[ast.expr],
    self_name: Optional[str],
    is_test: bool = False,
) -> Tuple[List[Access], List[ast.expr]]:
    """``(reads, suspension_points)`` of an expression.

    ``self.attr`` loads (where the base is the method's first parameter)
    are recorded as the pseudo-name, not as a read of the base name;
    every other name load is a plain read.  Lambdas are scanned
    conservatively (their parameter shadowing is ignored — extra reads
    only ever make the rules quieter).  Nested suspension operands are
    scanned before the suspension is recorded, matching evaluation
    order.
    """
    reads: List[Access] = []
    suspensions: List[ast.expr] = []
    if expr is None:
        return reads, suspensions

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.Await):
            visit(node.value)
            suspensions.append(node)
            return
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                visit(node.value)
            suspensions.append(node)
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = node.value
            if (
                self_name is not None
                and isinstance(base, ast.Name)
                and base.id == self_name
            ):
                reads.append(
                    Access(
                        f"{self_name}.{node.attr}",
                        node,
                        READ,
                        is_self=True,
                        is_test=is_test,
                    )
                )
                return
            visit(base)
            return
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                reads.append(Access(node.id, node, READ, is_test=is_test))
            return
        if isinstance(node, ast.Lambda):
            visit(node.body)
            return
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(expr)
    return reads, suspensions


def scan_target(
    target: ast.expr,
    self_name: Optional[str],
    value: Optional[ast.expr] = None,
) -> Tuple[List[Access], List[Access]]:
    """``(writes, reads)`` of an assignment target.

    Name and ``self.attr`` targets rebind (writes); subscript and
    foreign-attribute targets *mutate* — recorded as reads of their base
    so dependence tracking still sees the access without pretending the
    binding changed.  ``value`` is attached only to simple (non-unpack)
    targets.
    """
    writes: List[Access] = []
    reads: List[Access] = []

    def visit(node: ast.expr, rhs: Optional[ast.expr]) -> None:
        if isinstance(node, ast.Name):
            writes.append(Access(node.id, node, WRITE, value=rhs))
        elif isinstance(node, ast.Attribute):
            base = node.value
            if (
                self_name is not None
                and isinstance(base, ast.Name)
                and base.id == self_name
            ):
                writes.append(
                    Access(
                        f"{self_name}.{node.attr}",
                        node,
                        WRITE,
                        is_self=True,
                        value=rhs,
                    )
                )
            else:
                base_reads, _ = scan_expression(base, self_name)
                reads.extend(base_reads)
        elif isinstance(node, ast.Subscript):
            base_reads, _ = scan_expression(node.value, self_name)
            index_reads, _ = scan_expression(node.slice, self_name)
            reads.extend(base_reads)
            reads.extend(index_reads)
        elif isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                visit(element, None)
        elif isinstance(node, ast.Starred):
            visit(node.value, None)

    visit(target, value)
    return writes, reads


def _is_literal_true(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Constant) and expr.value is True


def _match_captures(pattern: ast.pattern) -> List[Tuple[str, ast.AST]]:
    names: List[Tuple[str, ast.AST]] = []
    for node in ast.walk(pattern):
        if isinstance(node, (ast.MatchAs, ast.MatchStar)):
            if node.name is not None:
                names.append((node.name, node))
        elif isinstance(node, ast.MatchMapping):
            if node.rest is not None:
                names.append((node.rest, node))
    return names


# ----------------------------------------------------------------------
# The builder
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _LoopFrame:
    continue_target: int
    breaks: List[int]
    finally_depth: int


class _Builder:
    def __init__(self, func: FunctionNode, self_name: Optional[str]) -> None:
        self.func = func
        self.self_name = self_name
        self.nodes: List[CFGNode] = []
        self.finally_stack: List[List[ast.stmt]] = []
        self.loop_stack: List[_LoopFrame] = []
        #: Innermost active except-dispatch node: every node created
        #: while lowering a protected body gains an edge to it (any
        #: statement may raise).
        self.dispatch_stack: List[int] = []

    # -- graph primitives ----------------------------------------------
    def node(
        self,
        kind: str,
        stmt: Optional[ast.AST],
        reads: Sequence[Access] = (),
        writes: Sequence[Access] = (),
    ) -> int:
        node = CFGNode(len(self.nodes), kind, stmt, tuple(reads), tuple(writes))
        self.nodes.append(node)
        if self.dispatch_stack and kind != EXCEPT:
            self.edge(node.index, self.dispatch_stack[-1])
        return node.index

    def edge(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succs:
            self.nodes[src].succs.append(dst)
            self.nodes[dst].preds.append(src)

    def seq(self, frontier: Sequence[int], target: int) -> None:
        for index in frontier:
            self.edge(index, target)

    # -- expression chains ---------------------------------------------
    def chain(
        self,
        frontier: List[int],
        stmt: ast.AST,
        reads: Sequence[Access],
        suspensions: Sequence[ast.expr],
        kind: str = STMT,
    ) -> List[int]:
        """Lower "evaluate these reads, then suspend at each await" to a
        node chain; returns the new frontier (the chain's last node)."""
        head = self.node(kind, stmt, reads=reads)
        self.seq(frontier, head)
        frontier = [head]
        for suspension in suspensions:
            await_node = self.node(AWAIT, suspension)
            self.seq(frontier, await_node)
            frontier = [await_node]
        return frontier

    def run_finallys(self, frontier: List[int], down_to: int = 0) -> List[int]:
        """Inline every active ``finally`` body from the innermost down
        to (not including) depth ``down_to`` — the path an abrupt exit
        (return / break / continue) actually takes."""
        saved = self.finally_stack
        for depth in range(len(saved) - 1, down_to - 1, -1):
            self.finally_stack = saved[:depth]
            frontier = self.block(saved[depth], frontier)
        self.finally_stack = saved
        return frontier

    # -- statement lowering --------------------------------------------
    def block(self, stmts: Sequence[ast.stmt], frontier: List[int]) -> List[int]:
        for stmt in stmts:
            frontier = self.stmt(stmt, frontier)
        return frontier

    def stmt(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        self_name = self.self_name

        if isinstance(stmt, ast.Assign):
            reads, suspensions = scan_expression(stmt.value, self_name)
            writes: List[Access] = []
            rhs = stmt.value if len(stmt.targets) == 1 else None
            for target in stmt.targets:
                target_writes, target_reads = scan_target(
                    target, self_name, value=rhs
                )
                writes.extend(target_writes)
                reads = reads + target_reads
            return self._rw_chain(frontier, stmt, reads, suspensions, writes)

        if isinstance(stmt, ast.AugAssign):
            reads, suspensions = scan_expression(stmt.value, self_name)
            target_reads, _ = scan_expression(
                _as_load(stmt.target), self_name
            )
            writes, mutation_reads = scan_target(stmt.target, self_name)
            return self._rw_chain(
                frontier,
                stmt,
                reads + target_reads + mutation_reads,
                suspensions,
                writes,
            )

        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return frontier
            reads, suspensions = scan_expression(stmt.value, self_name)
            writes, target_reads = scan_target(
                stmt.target, self_name, value=stmt.value
            )
            return self._rw_chain(
                frontier, stmt, reads + target_reads, suspensions, writes
            )

        if isinstance(stmt, ast.Expr):
            reads, suspensions = scan_expression(stmt.value, self_name)
            return self.chain(frontier, stmt, reads, suspensions)

        if isinstance(stmt, ast.Return):
            reads, suspensions = scan_expression(stmt.value, self_name)
            frontier = self.chain(frontier, stmt, reads, suspensions)
            frontier = self.run_finallys(frontier)
            self.seq(frontier, self.exit_index)
            return []

        if isinstance(stmt, ast.Raise):
            reads, suspensions = scan_expression(stmt.exc, self_name)
            if stmt.cause is not None:
                cause_reads, _ = scan_expression(stmt.cause, self_name)
                reads.extend(cause_reads)
            frontier = self.chain(frontier, stmt, reads, suspensions)
            if not self.dispatch_stack:
                # Propagates out of the function: runs the finallys,
                # then leaves.  (Inside a try, the auto edge to the
                # dispatch node already models the handler path.)
                frontier = self.run_finallys(frontier)
                self.seq(frontier, self.exit_index)
            return []

        if isinstance(stmt, (ast.Break, ast.Continue)):
            if not self.loop_stack:
                return frontier  # malformed source; stay permissive
            frame = self.loop_stack[-1]
            marker = self.node(STMT, stmt)
            self.seq(frontier, marker)
            routed = self.run_finallys([marker], down_to=frame.finally_depth)
            if isinstance(stmt, ast.Break):
                frame.breaks.extend(routed)
            else:
                self.seq(routed, frame.continue_target)
            return []

        if isinstance(stmt, ast.If):
            reads, suspensions = scan_expression(
                stmt.test, self_name, is_test=True
            )
            frontier = self.chain(frontier, stmt, reads, suspensions, kind=TEST)
            body = self.block(stmt.body, list(frontier))
            orelse = self.block(stmt.orelse, list(frontier))
            return body + orelse

        if isinstance(stmt, ast.While):
            reads, suspensions = scan_expression(
                stmt.test, self_name, is_test=True
            )
            head = self.node(TEST, stmt, reads=reads)
            self.seq(frontier, head)
            tail = [head]
            for suspension in suspensions:
                await_node = self.node(AWAIT, suspension)
                self.seq(tail, await_node)
                tail = [await_node]
            frame = _LoopFrame(head, [], len(self.finally_stack))
            self.loop_stack.append(frame)
            body = self.block(stmt.body, list(tail))
            self.seq(body, head)
            self.loop_stack.pop()
            normal = [] if _is_literal_true(stmt.test) else list(tail)
            if stmt.orelse:
                normal = self.block(stmt.orelse, normal)
            return frame.breaks + normal

        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            reads, suspensions = scan_expression(stmt.iter, self_name)
            frontier = self.chain(frontier, stmt, reads, suspensions)
            if isinstance(stmt, ast.AsyncFor):
                # The implicit ``__anext__`` await, taken every
                # iteration: the loop's back edge re-enters here.
                anext = self.node(AWAIT, stmt)
                self.seq(frontier, anext)
                loop_entry = anext
            else:
                loop_entry = self.node(STMT, stmt)
                self.seq(frontier, loop_entry)
            target_writes, target_reads = scan_target(stmt.target, self_name)
            head = self.node(
                TEST, stmt, reads=target_reads, writes=target_writes
            )
            self.edge(loop_entry, head)
            frame = _LoopFrame(loop_entry, [], len(self.finally_stack))
            self.loop_stack.append(frame)
            body = self.block(stmt.body, [head])
            self.seq(body, loop_entry)
            self.loop_stack.pop()
            normal = [loop_entry]
            if stmt.orelse:
                normal = self.block(stmt.orelse, normal)
            return frame.breaks + normal

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                reads, suspensions = scan_expression(
                    item.context_expr, self_name
                )
                frontier = self.chain(frontier, stmt, reads, suspensions)
                if isinstance(stmt, ast.AsyncWith):
                    enter = self.node(AWAIT, stmt)
                    self.seq(frontier, enter)
                    frontier = [enter]
                if item.optional_vars is not None:
                    writes, target_reads = scan_target(
                        item.optional_vars, self_name, value=item.context_expr
                    )
                    bind = self.node(
                        STMT, stmt, reads=target_reads, writes=writes
                    )
                    self.seq(frontier, bind)
                    frontier = [bind]
            frontier = self.block(stmt.body, frontier)
            if isinstance(stmt, ast.AsyncWith):
                leave = self.node(AWAIT, stmt)
                self.seq(frontier, leave)
                frontier = [leave]
            return frontier

        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)

        if isinstance(stmt, ast.Match):
            reads, suspensions = scan_expression(stmt.subject, self_name)
            frontier = self.chain(frontier, stmt, reads, suspensions)
            exits: List[int] = []
            for case in stmt.cases:
                captures = [
                    Access(name, node, WRITE)
                    for name, node in _match_captures(case.pattern)
                ]
                guard_reads, _ = scan_expression(
                    case.guard, self_name, is_test=True
                )
                arm = self.node(
                    TEST, case, reads=guard_reads, writes=captures
                )
                self.seq(frontier, arm)
                exits.extend(self.block(case.body, [arm]))
            return exits + list(frontier)  # no case matched

        if isinstance(stmt, ast.Assert):
            reads, suspensions = scan_expression(
                stmt.test, self_name, is_test=True
            )
            if stmt.msg is not None:
                msg_reads, _ = scan_expression(stmt.msg, self_name)
                reads.extend(msg_reads)
            return self.chain(frontier, stmt, reads, suspensions, kind=TEST)

        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            reads: List[Access] = []
            for decorator in stmt.decorator_list:
                decorator_reads, _ = scan_expression(decorator, self_name)
                reads.extend(decorator_reads)
            for default in list(stmt.args.defaults) + [
                d for d in stmt.args.kw_defaults if d is not None
            ]:
                default_reads, _ = scan_expression(default, self_name)
                reads.extend(default_reads)
            writes = [Access(stmt.name, stmt, WRITE)]
            return self._rw_chain(frontier, stmt, reads, [], writes)

        if isinstance(stmt, ast.ClassDef):
            writes = [Access(stmt.name, stmt, WRITE)]
            return self._rw_chain(frontier, stmt, [], [], writes)

        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            writes = []
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*":
                    writes.append(Access(bound, stmt, WRITE))
            return self._rw_chain(frontier, stmt, [], [], writes)

        if isinstance(stmt, ast.Delete):
            writes = []
            reads = []
            for target in stmt.targets:
                target_writes, target_reads = scan_target(target, self_name)
                writes.extend(target_writes)
                reads.extend(target_reads)
            return self._rw_chain(frontier, stmt, reads, [], writes)

        # Pass / Global / Nonlocal / anything exotic: a plain step.
        marker = self.node(STMT, stmt)
        self.seq(frontier, marker)
        return [marker]

    def _rw_chain(
        self,
        frontier: List[int],
        stmt: ast.AST,
        reads: Sequence[Access],
        suspensions: Sequence[ast.expr],
        writes: Sequence[Access],
    ) -> List[int]:
        if not suspensions:
            merged = self.node(STMT, stmt, reads=reads, writes=writes)
            self.seq(frontier, merged)
            return [merged]
        frontier = self.chain(frontier, stmt, reads, suspensions)
        store = self.node(STMT, stmt, writes=writes)
        self.seq(frontier, store)
        return [store]

    def _try(self, stmt: ast.Try, frontier: List[int]) -> List[int]:
        dispatch = self.node(EXCEPT, stmt)
        has_finally = bool(stmt.finalbody)
        if has_finally:
            self.finally_stack.append(stmt.finalbody)
        self.dispatch_stack.append(dispatch)
        body = self.block(stmt.body, frontier)
        self.dispatch_stack.pop()
        body = self.block(stmt.orelse, body)
        handler_exits: List[int] = []
        for handler in stmt.handlers:
            reads: List[Access] = []
            if handler.type is not None:
                reads, _ = scan_expression(handler.type, self.self_name)
            writes = (
                [Access(handler.name, handler, WRITE)] if handler.name else []
            )
            head = self.node(STMT, handler, reads=reads, writes=writes)
            self.edge(dispatch, head)
            handler_exits.extend(self.block(handler.body, [head]))
        if has_finally:
            self.finally_stack.pop()
        normal = body + handler_exits
        if has_finally:
            normal = self.block(stmt.finalbody, normal)
            if not stmt.handlers:
                # try/finally with no handlers: the exception path runs
                # the finally then keeps propagating.
                unhandled = self.block(stmt.finalbody, [dispatch])
                if self.dispatch_stack:
                    self.seq(unhandled, self.dispatch_stack[-1])
                else:
                    self.seq(unhandled, self.exit_index)
        return normal

    # -- entry point ---------------------------------------------------
    def build(self) -> CFG:
        args = self.func.args
        params: List[Access] = []
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + ([args.vararg] if args.vararg else [])
            + list(args.kwonlyargs)
            + ([args.kwarg] if args.kwarg else [])
        ):
            params.append(Access(arg.arg, arg, PARAM))
        entry = self.node(ENTRY, self.func, writes=params)
        self.exit_index = self.node(EXIT, self.func)
        frontier = self.block(self.func.body, [entry])
        self.seq(frontier, self.exit_index)
        return CFG(
            func=self.func,
            self_name=self.self_name,
            nodes=self.nodes,
            entry=entry,
            exit=self.exit_index,
        )


# _Builder assigns exit_index in build() before lowering any statement;
# declaring it here keeps the attribute contract visible.
_Builder.exit_index = -1  # type: ignore[attr-defined]


def _as_load(target: ast.expr) -> ast.expr:
    """A Load-context copy of an AugAssign target (``x += 1`` reads x)."""
    clone = ast.copy_location(
        ast.parse(ast.unparse(target), mode="eval").body, target
    )
    ast.fix_missing_locations(clone)
    return clone


def build_cfg(func: FunctionNode, self_name: Optional[str] = None) -> CFG:
    """Lower ``func`` to its control-flow graph.

    ``self_name`` is the name of the instance parameter when ``func`` is
    a method (normally ``"self"``); accesses through it become
    ``is_self`` pseudo-names.
    """
    return _Builder(func, self_name).build()
