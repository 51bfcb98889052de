"""The flow half of the ``-m lint`` lane: CFG construction, dataflow
fixpoints, and the four flow rules' precision.

Three layers:

* CFG shape — branch joins, loop back edges, try/finally inlining,
  break/continue routing, and (the part everything else rides on) await
  nodes placed at every suspension point, explicit and implicit;
* dataflow — reaching definitions checked against brute-force path
  enumeration on hypothesis-generated acyclic programs, plus the
  await-crossing bit and seed-source resolution;
* rule precision — the true-positive/near-miss pairs for each flow rule
  (the badtree/goodtree fixture canaries in ``test_lint_rules.py`` lock
  the same behaviour against the real engine walk).
"""

from __future__ import annotations

import ast
import itertools
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lintkit import check_source
from lintkit.flow.cfg import AWAIT, PARAM, TEST, WRITE, build_cfg
from lintkit.flow.dataflow import (
    SEED_CONST,
    SEED_NONE,
    SEED_PARAM,
    AwaitCrossing,
    ReachingDefinitions,
    classify_seed_expr,
    reachable_without,
)

pytestmark = pytest.mark.lint


def cfg_of(source: str, name: str = "f", self_name: str | None = None):
    tree = ast.parse(textwrap.dedent(source))
    func = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == name
    )
    return build_cfg(func, self_name)


def rules_of(violations):
    return {violation.rule for violation in violations}


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------
def test_if_else_branches_and_join():
    cfg = cfg_of(
        """
        def f(c):
            if c:
                a = 1
            else:
                a = 2
            return a
        """
    )
    tests = [node for node in cfg.nodes if node.kind == TEST]
    assert len(tests) == 1
    assert len(tests[0].succs) == 2  # both arms
    # Both arm writes flow into the return's read node.
    returns = [
        node
        for node in cfg.nodes
        if node.stmt is not None and isinstance(node.stmt, ast.Return)
    ]
    assert len(returns) == 1
    assert len(returns[0].preds) == 2


def test_while_loop_has_back_edge_and_exit():
    cfg = cfg_of(
        """
        def f(n):
            while n:
                n = n - 1
            return n
        """
    )
    head = next(node for node in cfg.nodes if node.kind == TEST)
    body_write = next(
        node
        for node in cfg.nodes
        if any(w.name == "n" and w.kind == WRITE for w in node.writes)
    )
    assert head.index in body_write.succs  # back edge
    assert len(head.succs) == 2  # loop + fall-through


def test_while_true_has_no_fall_through():
    cfg = cfg_of(
        """
        def f(n):
            while True:
                if n:
                    break
                n = n + 1
            return n
        """
    )
    head = next(
        node
        for node in cfg.nodes
        if node.kind == TEST and isinstance(node.stmt, ast.While)
    )
    # The only way past the loop is the break; the While test itself
    # never falls through.
    ret = next(
        node
        for node in cfg.nodes
        if node.stmt is not None and isinstance(node.stmt, ast.Return)
    )
    assert head.index not in ret.preds
    assert reachable_without(cfg, cfg.entry, set(), cfg.exit)


def test_explicit_await_nodes_per_suspension():
    cfg = cfg_of(
        """
        async def f(x):
            a = await x.get()
            await x.put(a)
            return a
        """
    )
    assert len(cfg.await_nodes()) == 2


def test_async_for_and_async_with_get_implicit_awaits():
    cfg = cfg_of(
        """
        async def f(source, lock):
            async with lock:
                async for item in source:
                    pass
            return 0
        """
    )
    # __aenter__ + __aexit__ for the with, __anext__ for the for.
    assert len(cfg.await_nodes()) == 3


def test_async_for_back_edge_re_enters_through_the_await():
    cfg = cfg_of(
        """
        async def f(source):
            total = 0
            async for item in source:
                total = total + item
            return total
        """
    )
    anext = next(node for node in cfg.nodes if node.kind == AWAIT)
    # The loop body's write jumps back to the __anext__ await, never
    # straight to the target bind: every iteration is a suspension.
    writes_total = [
        node
        for node in cfg.nodes
        if any(w.name == "total" for w in node.writes)
    ]
    in_loop = writes_total[-1]
    assert anext.index in in_loop.succs


def test_try_finally_is_inlined_on_the_return_path():
    cfg = cfg_of(
        """
        def f(handle):
            try:
                return handle.read()
            finally:
                handle.close()
        """
    )
    close_nodes = [
        node
        for node in cfg.nodes
        if node.stmt is not None
        and isinstance(node.stmt, ast.Expr)
        and "close" in ast.dump(node.stmt)
    ]
    # Once inlined for the return, once for the normal/exception paths.
    assert len(close_nodes) >= 2
    # The return cannot reach the exit while skipping every close copy.
    ret = next(
        node
        for node in cfg.nodes
        if node.stmt is not None and isinstance(node.stmt, ast.Return)
    )
    blocked = {node.index for node in close_nodes}
    assert not reachable_without(cfg, ret.index, blocked, cfg.exit)


def test_break_routes_through_finally():
    cfg = cfg_of(
        """
        def f(items, handle):
            for item in items:
                try:
                    if item:
                        break
                finally:
                    handle.release()
            return 0
        """
    )
    close_nodes = {
        node.index
        for node in cfg.nodes
        if node.stmt is not None and "release" in ast.dump(node.stmt)
    }
    break_marker = next(
        node
        for node in cfg.nodes
        if node.stmt is not None and isinstance(node.stmt, ast.Break)
    )
    assert not reachable_without(cfg, break_marker.index, close_nodes, cfg.exit)


def test_except_handler_reachable_from_body():
    cfg = cfg_of(
        """
        def f(x):
            try:
                y = x()
            except ValueError:
                y = 0
            return y
        """
    )
    handler = next(
        node
        for node in cfg.nodes
        if node.stmt is not None and isinstance(node.stmt, ast.ExceptHandler)
    )
    body = next(
        node
        for node in cfg.nodes
        if any(w.name == "y" for w in node.writes)
        and not isinstance(node.stmt, ast.ExceptHandler)
    )
    assert reachable_without(cfg, body.index, set(), handler.index)


def test_parameters_are_entry_definitions():
    cfg = cfg_of("def f(a, b, *rest, key=None, **extra):\n    return a\n")
    entry = cfg.nodes[cfg.entry]
    assert {w.name for w in entry.writes} == {"a", "b", "rest", "key", "extra"}
    assert all(w.kind == PARAM for w in entry.writes)


def test_self_attributes_become_pseudo_names():
    cfg = cfg_of(
        """
        def f(self, x):
            self.total = x
            return self.total + self.base
        """,
        self_name="self",
    )
    names = {access.name for _, access in cfg.accesses() if access.is_self}
    assert names == {"self.total", "self.base"}


# ----------------------------------------------------------------------
# reaching definitions vs brute-force path enumeration
# ----------------------------------------------------------------------
_assign = st.sampled_from(["a", "b"])
_branch = st.lists(_assign, max_size=2)
_item = st.one_of(
    _assign.map(lambda v: ("assign", v)),
    st.tuples(_branch, _branch).map(lambda t: ("if", t[0], t[1])),
)
_program = st.lists(_item, max_size=5)


def _build_source(program):
    """Render the abstract program and return (source, sim) where sim
    mirrors it with each assignment's line number as its identity."""
    lines = ["def f(c):"]
    sim = []

    def emit(text: str) -> int:
        lines.append(text)
        return len(lines)

    for item in program:
        if item[0] == "assign":
            line = emit(f"    {item[1]} = 0")
            sim.append(("assign", (item[1], line)))
        else:
            _, then_branch, else_branch = item
            emit("    if c:")
            then_ids = []
            if not then_branch:
                emit("        pass")
            for var in then_branch:
                then_ids.append((var, emit(f"        {var} = 0")))
            emit("    else:")
            else_ids = []
            if not else_branch:
                emit("        pass")
            for var in else_branch:
                else_ids.append((var, emit(f"        {var} = 0")))
            sim.append(("if", then_ids, else_ids))
    emit("    return 0")
    return "\n".join(lines) + "\n", sim


def _brute_force_exit_defs(sim):
    """Per-variable sets of line numbers whose assignment can be live at
    exit, by enumerating every branch decision."""
    n_branches = sum(1 for item in sim if item[0] == "if")
    live = {"a": set(), "b": set()}
    for decisions in itertools.product((True, False), repeat=n_branches):
        env = {}
        chooser = iter(decisions)
        for item in sim:
            if item[0] == "assign":
                var, line = item[1]
                env[var] = line
            else:
                chosen = item[1] if next(chooser) else item[2]
                for var, line in chosen:
                    env[var] = line
        for var, line in env.items():
            live[var].add(line)
    return live


@given(_program)
@settings(max_examples=120, deadline=None)
def test_reaching_definitions_match_path_enumeration(program):
    source, sim = _build_source(program)
    tree = ast.parse(source)
    cfg = build_cfg(tree.body[0])
    rd = ReachingDefinitions(cfg)
    expected = _brute_force_exit_defs(sim)
    for var in ("a", "b"):
        got = {
            definition.access.node.lineno
            for definition in rd.reaching(cfg.exit, var)
            if definition.access.kind == WRITE
        }
        assert got == expected[var], source


def test_loop_definition_reaches_its_own_head():
    cfg = cfg_of(
        """
        def f(n):
            total = 0
            while n:
                total = total + 1
                n = n - 1
            return total
        """
    )
    rd = ReachingDefinitions(cfg)
    # Both the init and the in-loop write reach the exit read.
    assert len(rd.reaching(cfg.exit, "total")) == 2


def test_def_use_chain_finds_all_uses():
    cfg = cfg_of(
        """
        def f(c):
            x = 1
            if c:
                y = x
            return x
        """
    )
    rd = ReachingDefinitions(cfg)
    definition = next(
        d
        for d in rd.reaching(cfg.exit, "x")
        if d.access.kind == WRITE
    )
    uses = rd.uses_of(definition)
    assert len(uses) == 2  # the aliasing read and the return read


# ----------------------------------------------------------------------
# await-crossing
# ----------------------------------------------------------------------
def _crossing_of(source):
    cfg = cfg_of(source, self_name="self")
    return cfg, AwaitCrossing(cfg, ReachingDefinitions(cfg))


def _read_node(cfg, name):
    return next(
        node
        for node in cfg.nodes
        if any(
            a.name == name and a.kind == "read" and not a.is_test
            for a in node.reads
        )
    )


def test_crossing_bit_set_after_await():
    cfg, crossing = _crossing_of(
        """
        async def f(self, q):
            self.epoch = 1
            await q.get()
            return self.epoch
        """
    )
    read = _read_node(cfg, "self.epoch")
    assert crossing.stale_defs(read.index, "self.epoch")


def test_crossing_bit_clear_without_await():
    cfg, crossing = _crossing_of(
        """
        async def f(self, q):
            self.epoch = 1
            return self.epoch
        """
    )
    read = _read_node(cfg, "self.epoch")
    assert not crossing.stale_defs(read.index, "self.epoch")


def test_test_read_revalidates_only_its_own_name():
    cfg, crossing = _crossing_of(
        """
        async def f(self, q):
            self.epoch = 1
            self.other = 2
            await q.get()
            if self.epoch:
                return self.epoch + self.other
            return 0
        """
    )
    epoch_read = _read_node(cfg, "self.epoch")
    other_read = _read_node(cfg, "self.other")
    assert not crossing.stale_defs(epoch_read.index, "self.epoch")
    assert crossing.stale_defs(other_read.index, "self.other")


def test_rewrite_after_await_kills_the_stale_def():
    cfg, crossing = _crossing_of(
        """
        async def f(self, q):
            self.epoch = 1
            await q.get()
            self.epoch = 2
            return self.epoch
        """
    )
    read = _read_node(cfg, "self.epoch")
    assert not crossing.stale_defs(read.index, "self.epoch")


# ----------------------------------------------------------------------
# seed-source resolution
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "body,verdict",
    [
        ("s = None\nuse(s)", SEED_NONE),
        ("s = 42\nuse(s)", SEED_CONST),
        ("s = seed\nuse(s)", SEED_PARAM),
        ("s = seed\nt = s\nuse(t)", SEED_PARAM),
        ("s = None\ns = seed\nuse(s)", SEED_PARAM),  # None killed
        ("s = seed + 1\nuse(s)", SEED_PARAM),
        ("s = lookup()\nuse(s)", "other"),
    ],
)
def test_classify_seed_expr_chains(body, verdict):
    indented = "\n".join("    " + line for line in body.splitlines())
    source = f"def f(seed):\n{indented}\n"
    cfg = cfg_of(source)
    rd = ReachingDefinitions(cfg)
    call = next(
        node
        for node in ast.walk(cfg.func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "use"
    )
    at = next(
        node.index
        for node in cfg.nodes
        if node.stmt is not None
        and isinstance(node.stmt, ast.Expr)
        and node.stmt.value is call
    )
    assert classify_seed_expr(call.args[0], at, rd) == verdict


def test_classify_merges_branches_weakest_wins():
    source = (
        "def f(seed, c):\n"
        "    if c:\n"
        "        s = seed\n"
        "    else:\n"
        "        s = None\n"
        "    use(s)\n"
    )
    cfg = cfg_of(source)
    rd = ReachingDefinitions(cfg)
    call = next(
        node for node in ast.walk(cfg.func) if isinstance(node, ast.Call)
    )
    at = next(
        node.index
        for node in cfg.nodes
        if node.stmt is not None
        and isinstance(node.stmt, ast.Expr)
        and node.stmt.value is call
    )
    assert classify_seed_expr(call.args[0], at, rd) == SEED_NONE


# ----------------------------------------------------------------------
# rule precision: flow-await-race
# ----------------------------------------------------------------------
RACE_TP = """
import asyncio

class Svc:
    async def bump(self):
        self._epoch = self.compute()
        await asyncio.sleep(0)
        return self._epoch + 1
"""

RACE_REVALIDATED = """
import asyncio

class Svc:
    async def bump(self):
        self._epoch = self.compute()
        await asyncio.sleep(0)
        if self._epoch:
            return self._epoch + 1
        return 0
"""

RACE_NO_AWAIT_BETWEEN = """
import asyncio

class Svc:
    async def bump(self):
        await asyncio.sleep(0)
        self._epoch = self.compute()
        return self._epoch + 1
"""


def test_await_race_fires_on_stale_read():
    found = check_source(RACE_TP, relpath="repro/service/svc.py")
    assert "flow-await-race" in rules_of(found)


def test_await_race_quiet_when_revalidated():
    found = check_source(RACE_REVALIDATED, relpath="repro/service/svc.py")
    assert "flow-await-race" not in rules_of(found)


def test_await_race_quiet_when_write_follows_await():
    found = check_source(RACE_NO_AWAIT_BETWEEN, relpath="repro/service/svc.py")
    assert "flow-await-race" not in rules_of(found)


def test_await_race_scoped_to_service_and_eventloop():
    assert "flow-await-race" in rules_of(
        check_source(RACE_TP, relpath="repro/net/eventloop.py")
    )
    # Same pattern outside the scoped paths: the runtime there is not
    # concurrent, so the rule stays quiet.
    assert "flow-await-race" not in rules_of(
        check_source(RACE_TP, relpath="repro/experiments/driver.py")
    )


def test_await_race_assign_from_await_is_clean():
    # The write lands *after* the await in the statement's own chain:
    # reads of the fresh value never cross a suspension.
    found = check_source(
        """
import asyncio

class Svc:
    async def start(self, handler):
        self._hub = await asyncio.start_server(handler, port=0)
        return self._hub.sockets
""",
        relpath="repro/service/svc.py",
    )
    assert "flow-await-race" not in rules_of(found)


# ----------------------------------------------------------------------
# rule precision: flow-dropped-coroutine
# ----------------------------------------------------------------------
def test_dropped_coroutine_bare_call():
    found = check_source(
        """
async def tick():
    pass

def kick():
    tick()
""",
        relpath="repro/service/svc.py",
    )
    assert "flow-dropped-coroutine" in rules_of(found)


def test_dropped_coroutine_dead_binding():
    found = check_source(
        """
class Hub:
    async def notify(self):
        pass

    def go(self):
        coro = self.notify()
""",
        relpath="repro/service/svc.py",
    )
    assert "flow-dropped-coroutine" in rules_of(found)


def test_awaited_and_scheduled_coroutines_are_clean():
    found = check_source(
        """
import asyncio

async def tick():
    pass

async def direct():
    await tick()

def scheduled():
    return asyncio.create_task(tick())

def via_binding(loop):
    coro = tick()
    return asyncio.ensure_future(coro, loop=loop)
""",
        relpath="repro/service/svc.py",
    )
    assert "flow-dropped-coroutine" not in rules_of(found)


def test_unknown_callees_are_not_guessed():
    # Only same-module async defs are resolved; imported names could be
    # sync factories, so silence is correct.
    found = check_source(
        "from helpers import maybe_async\n"
        "def go():\n"
        "    maybe_async()\n",
        relpath="repro/service/svc.py",
    )
    assert "flow-dropped-coroutine" not in rules_of(found)


# ----------------------------------------------------------------------
# rule precision: flow-seed-taint
# ----------------------------------------------------------------------
def test_seed_taint_through_copy_chain():
    found = check_source(
        """
import numpy as np

def make():
    seed = None
    s = seed
    return np.random.default_rng(s)
""",
        relpath="repro/core/streams.py",
    )
    assert "flow-seed-taint" in rules_of(found)


def test_seed_taint_direct_none():
    found = check_source(
        "import numpy as np\n"
        "def make():\n"
        "    return np.random.default_rng(None)\n",
        relpath="repro/core/streams.py",
    )
    assert "flow-seed-taint" in rules_of(found)


def test_seed_from_parameter_or_constant_is_clean():
    found = check_source(
        """
import numpy as np
import random

def from_param(seed, shard):
    s = seed + shard
    return np.random.default_rng(s)

def from_const():
    replay = 1234
    return random.Random(replay)
""",
        relpath="repro/core/streams.py",
    )
    assert "flow-seed-taint" not in rules_of(found)


def test_seed_taint_scoped_to_protocol_packages():
    source = (
        "import numpy as np\n"
        "def make():\n"
        "    seed = None\n"
        "    return np.random.default_rng(seed)\n"
    )
    assert "flow-seed-taint" not in rules_of(
        check_source(source, relpath="repro/experiments/driver.py")
    )


def test_seed_overwritten_before_use_is_clean():
    found = check_source(
        """
import numpy as np

def make(seed):
    s = None
    s = seed
    return np.random.default_rng(s)
""",
        relpath="repro/core/streams.py",
    )
    assert "flow-seed-taint" not in rules_of(found)


# ----------------------------------------------------------------------
# rule precision: flow-resource-leak
# ----------------------------------------------------------------------
def test_resource_leak_on_early_return():
    found = check_source(
        """
import asyncio

async def probe(host):
    reader, writer = await asyncio.open_connection(host, 9)
    data = await reader.read(64)
    if not data:
        return None
    writer.close()
    return data
""",
        relpath="repro/service/svc.py",
    )
    assert "flow-resource-leak" in rules_of(found)


def test_resource_closed_in_finally_is_clean():
    found = check_source(
        """
import asyncio

async def probe(host):
    reader, writer = await asyncio.open_connection(host, 9)
    try:
        return await reader.read(64)
    finally:
        writer.close()
""",
        relpath="repro/service/svc.py",
    )
    assert "flow-resource-leak" not in rules_of(found)


def test_resource_in_async_with_is_clean():
    found = check_source(
        """
import asyncio

async def serve(handler):
    server = await asyncio.start_server(handler, port=0)
    async with server:
        await server.serve_forever()
""",
        relpath="repro/service/svc.py",
    )
    assert "flow-resource-leak" not in rules_of(found)


def test_escaping_handle_is_the_callers_problem():
    found = check_source(
        """
import asyncio

async def connect(host, registry):
    reader, writer = await asyncio.open_connection(host, 9)
    registry.adopt(reader, writer)

async def handed_back(host):
    reader, writer = await asyncio.open_connection(host, 9)
    return reader, writer
""",
        relpath="repro/service/svc.py",
    )
    assert "flow-resource-leak" not in rules_of(found)


def test_resource_rule_scoped_to_service():
    found = check_source(
        "def load(path):\n"
        "    handle = open(path)\n"
        "    return handle.read()\n",
        relpath="repro/core/loader.py",
    )
    assert "flow-resource-leak" not in rules_of(found)
