"""Rule-level conformance for ``repro.lint`` (the ``-m lint`` lane).

Two layers of assurance:

* precision — inline snippets assert each rule fires on the pattern it
  documents and stays quiet on the sanctioned idiom next to it;
* corruption canaries — every deliberately-violating fixture under
  ``tests/lint_fixtures/badtree`` must keep producing its family's
  violation.  If a rule silently breaks (returns nothing), the canary
  fails before a real regression can slip through the gate.

The regression half of the determinism family pins the original
motivating bug: the ``time.time()`` pair that lived at
``src/repro/experiments/report.py:63`` before this PR.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import Baseline, LintEngine, check_source

pytestmark = pytest.mark.lint

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC_ROOT = Path(__file__).parent.parent / "src"


def rules_of(violations):
    return {violation.rule for violation in violations}


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_wall_clock_flagged():
    found = check_source(
        "import time\n"
        "def f():\n"
        "    return time.time()\n"
    )
    assert "determinism-wall-clock" in rules_of(found)


def test_perf_counter_is_sanctioned():
    found = check_source(
        "from time import perf_counter\n"
        "import time\n"
        "def f():\n"
        "    return perf_counter() + time.perf_counter()\n"
    )
    assert not found


def test_datetime_now_flagged():
    found = check_source(
        "import datetime\n"
        "def f():\n"
        "    return datetime.datetime.now()\n"
    )
    assert "determinism-wall-clock" in rules_of(found)


def test_global_random_flagged_seeded_instance_clean():
    bad = check_source(
        "import random\n"
        "def f(xs):\n"
        "    return random.choice(xs)\n"
    )
    assert "determinism-unseeded-rng" in rules_of(bad)
    good = check_source(
        "import random\n"
        "def f(xs, seed):\n"
        "    return random.Random(seed).choice(xs)\n"
    )
    assert not good


def test_unseeded_default_rng_flagged_seeded_clean():
    bad = check_source(
        "import numpy as np\n"
        "def f():\n"
        "    return np.random.default_rng()\n"
    )
    assert "determinism-unseeded-rng" in rules_of(bad)
    good = check_source(
        "import numpy as np\n"
        "def f(seed):\n"
        "    return np.random.default_rng(seed)\n"
    )
    assert not good


def test_module_level_rng_flagged_even_when_seeded():
    bad = check_source(
        "import numpy as np\n"
        "_RNG = np.random.default_rng(42)\n"
    )
    assert "determinism-module-rng" in rules_of(bad)
    bad_class = check_source(
        "import random\n"
        "class Sim:\n"
        "    rng = random.Random(7)\n"
    )
    assert "determinism-module-rng" in rules_of(bad_class)


def test_function_level_seeded_rng_clean():
    good = check_source(
        "import numpy as np\n"
        "def f(seed):\n"
        "    return np.random.default_rng(seed).uniform()\n"
    )
    assert "determinism-module-rng" not in rules_of(good)


def test_urandom_flagged_outside_crypto_only():
    source = "import os\ndef f():\n    return os.urandom(8)\n"
    assert "determinism-urandom" in rules_of(
        check_source(source, relpath="repro/core/nonce.py")
    )
    assert not check_source(source, relpath="repro/crypto/nonce.py")


def test_set_iteration_flagged_in_protocol_package_only():
    source = "def f(xs):\n    return [x for x in set(xs)]\n"
    assert "determinism-set-order" in rules_of(
        check_source(source, relpath="repro/core/order.py")
    )
    # experiments is not a protocol package; and sorted() launders the order.
    assert not check_source(source, relpath="repro/experiments/order.py")
    assert not check_source(
        "def f(xs):\n    return [x for x in sorted(set(xs))]\n",
        relpath="repro/core/order.py",
    )


def test_membership_test_on_set_is_not_iteration():
    found = check_source(
        "def f(joins, leaves):\n"
        "    return [j for j in joins if j not in set(leaves)]\n",
        relpath="repro/distributed/nodes_like.py",
    )
    assert not found


# ----------------------------------------------------------------------
# hooks
# ----------------------------------------------------------------------
GUARDED = (
    "from repro.trace import hooks as _trace_hooks\n"
    "def f(session):\n"
    "    tctx = _trace_hooks.ACTIVE\n"
    "    if tctx is not None:\n"
    "        tctx.observe_session(session, None)\n"
)


def test_guarded_slot_idiom_clean():
    assert not check_source(GUARDED)


def test_direct_active_chain_flagged():
    found = check_source(
        "from repro.trace import hooks as _trace_hooks\n"
        "def f(session):\n"
        "    _trace_hooks.ACTIVE.observe_session(session, None)\n"
    )
    assert "hook-unguarded" in rules_of(found)


def test_unguarded_local_flagged():
    found = check_source(
        "from repro.trace import hooks as _trace_hooks\n"
        "def f(session):\n"
        "    tctx = _trace_hooks.ACTIVE\n"
        "    tctx.observe_session(session, None)\n"
    )
    assert "hook-unguarded" in rules_of(found)


def test_slot_swap_without_attribute_use_clean():
    # The _TracedTask pattern: read, swap, restore — no attribute access.
    found = check_source(
        "from repro.trace import hooks as _trace_hooks\n"
        "def f(child, inner, task):\n"
        "    previous = _trace_hooks.ACTIVE\n"
        "    _trace_hooks.ACTIVE = child\n"
        "    try:\n"
        "        return inner(task)\n"
        "    finally:\n"
        "        _trace_hooks.ACTIVE = previous\n"
    )
    assert not found


def test_eager_name_import_from_hooks_flagged():
    found = check_source(
        "from repro.trace.hooks import TraceContext\n"
    )
    assert "hook-eager-import" in rules_of(found)


def test_eager_checker_import_flagged_lazy_clean():
    eager = check_source("from repro.verify import checkers\n")
    assert "hook-eager-import" in rules_of(eager)
    lazy = check_source(
        "def f():\n"
        "    from repro.verify import checkers\n"
        "    return checkers\n"
    )
    assert "hook-eager-import" not in rules_of(lazy)


def test_plain_module_import_of_hooks_clean():
    assert not check_source("import repro.trace.hooks\n")


# ----------------------------------------------------------------------
# layering
# ----------------------------------------------------------------------
def test_core_importing_experiments_flagged():
    found = check_source("from repro.experiments.config import Scale\n")
    assert "layering-import" in rules_of(found)


def test_type_checking_import_exempt():
    found = check_source(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.experiments.config import Scale\n"
    )
    assert "layering-import" not in rules_of(found)


def test_protocol_packages_importing_service_flagged():
    """docs/SERVICE.md layering: the live service sits above every
    protocol package, so the import may never point the other way."""
    for relpath in (
        "repro/core/keys.py",
        "repro/net/scheduling.py",
        "repro/alm/reliable.py",
        "repro/distributed/nodes.py",
        "repro/sim/engine.py",
    ):
        found = check_source(
            "from repro.service import RekeyService\n", relpath=relpath
        )
        assert "layering-import" in rules_of(found), relpath


def test_service_importing_protocol_layers_is_fine():
    found = check_source(
        "from repro.net.scheduling import SchedulingBackend\n"
        "from repro.distributed.harness import DistributedGroup\n"
        "from repro.faults.plan import FaultPlan\n",
        relpath="repro/service/server.py",
    )
    assert "layering-import" not in rules_of(found)


def test_service_importing_experiments_flagged():
    """The two orchestration surfaces stay siblings: the service never
    reaches into the experiment drivers."""
    found = check_source(
        "from repro.experiments.config import Scale\n",
        relpath="repro/service/soak.py",
    )
    assert "layering-import" in rules_of(found)


def test_slot_module_import_exempt_from_layering():
    found = check_source(
        "from repro.trace import hooks as _trace_hooks\n"
        "from repro.verify import hooks as _verify_hooks\n"
    )
    assert not found


def test_experiments_importing_core_is_fine():
    found = check_source(
        "from repro.core.tmesh import run_multicast\n",
        relpath="repro/experiments/driver.py",
    )
    assert not found


# ----------------------------------------------------------------------
# api hygiene
# ----------------------------------------------------------------------
def test_mutable_default_flagged_none_clean():
    bad = check_source("def f(x, acc=[]):\n    return acc\n")
    assert "api-mutable-default" in rules_of(bad)
    good = check_source(
        "def f(x, acc=None):\n"
        "    acc = [] if acc is None else acc\n"
        "    return acc\n"
    )
    assert not good


def test_bare_except_flagged_typed_clean():
    bad = check_source(
        "def f(x):\n"
        "    try:\n"
        "        return x()\n"
        "    except:\n"
        "        return None\n"
    )
    assert "api-bare-except" in rules_of(bad)
    good = check_source(
        "def f(x):\n"
        "    try:\n"
        "        return x()\n"
        "    except ValueError:\n"
        "        return None\n"
    )
    assert not good


# ----------------------------------------------------------------------
# fixture-tree canaries
# ----------------------------------------------------------------------
#: file (relative to the bad tree) -> the rule it must keep triggering.
BADTREE_EXPECTED = {
    "repro/core/bad_wallclock.py": "determinism-wall-clock",
    "repro/core/bad_unseeded_rng.py": "determinism-unseeded-rng",
    "repro/core/bad_module_rng.py": "determinism-module-rng",
    "repro/core/bad_urandom.py": "determinism-urandom",
    "repro/core/bad_set_order.py": "determinism-set-order",
    "repro/core/bad_hook_eager.py": "hook-eager-import",
    "repro/core/bad_hook_unguarded.py": "hook-unguarded",
    "repro/core/bad_layering.py": "layering-import",
    "repro/distributed/bad_service_import.py": "layering-import",
    "repro/core/bad_mutable_default.py": "api-mutable-default",
    "repro/core/bad_bare_except.py": "api-bare-except",
    "repro/core/bad_suppression.py": "lint-suppress",
    "repro/service/bad_await_race.py": "flow-await-race",
    "repro/service/bad_dropped_task.py": "flow-dropped-coroutine",
    "repro/service/bad_resource_leak.py": "flow-resource-leak",
    "repro/core/bad_seed_taint.py": "flow-seed-taint",
}


@pytest.fixture(scope="module")
def badtree_result():
    return LintEngine([FIXTURES / "badtree"]).run(Baseline())


@pytest.mark.parametrize("relpath,rule", sorted(BADTREE_EXPECTED.items()))
def test_bad_fixture_canary(badtree_result, relpath, rule):
    fired = {
        violation.rule
        for violation in badtree_result.new
        if violation.path == relpath
    }
    assert rule in fired, (
        f"corruption canary: {relpath} no longer triggers {rule} "
        f"(got {sorted(fired)})"
    )


def test_every_badtree_file_is_caught(badtree_result):
    flagged = {violation.path for violation in badtree_result.new}
    assert set(BADTREE_EXPECTED) <= flagged


def test_goodtree_is_clean():
    result = LintEngine([FIXTURES / "goodtree"]).run(Baseline())
    assert result.new == []
    # ... and the justified suppressions there are counted, not dropped.
    assert len(result.suppressed) == 2


# ----------------------------------------------------------------------
# the report.py wall-clock regression
# ----------------------------------------------------------------------
def test_pre_pr_report_timer_would_have_been_flagged():
    """A fresh lint run over the pre-PR tree flags the ``time.time()``
    pair (ISSUE 5 satellite: the first determinism-rule regression
    fixture)."""
    result = LintEngine([FIXTURES / "regression"]).run(Baseline())
    wall = [
        violation
        for violation in result.new
        if violation.rule == "determinism-wall-clock"
        and violation.path == "repro/experiments/report_pre_pr.py"
    ]
    assert len(wall) == 2
    assert {violation.source for violation in wall} == {
        "start = time.time()",
        "return result, time.time() - start",
    }


def test_shipped_report_module_is_clean():
    """The fixed ``repro.experiments.report`` no longer trips any
    determinism rule."""
    source = (SRC_ROOT / "repro/experiments/report.py").read_text()
    found = check_source(source, relpath="repro/experiments/report.py")
    assert not [v for v in found if v.discipline == "determinism"]


# ----------------------------------------------------------------------
# the aio.py drain await-race regression
# ----------------------------------------------------------------------
def test_drain_wall_start_race_would_have_been_flagged():
    """The distilled ``AsyncioScheduler.drain`` pacing pattern — the one
    real finding ``flow-await-race`` surfaced on the shipped tree
    (justify-suppressed there under the single-drain invariant) — keeps
    firing on its pre-suppression replica."""
    result = LintEngine([FIXTURES / "regression"]).run(Baseline())
    races = [
        violation
        for violation in result.new
        if violation.rule == "flow-await-race"
        and violation.path == "repro/service/aio_drain_pre_pr.py"
    ]
    assert len(races) == 1
    assert "_wall_start" in races[0].message
    assert races[0].source == (
        "target = self._wall_start + head.when * self.time_scale"
    )


def test_shipped_aio_suppression_is_justified_not_silent():
    """The in-place suppression in ``repro.service.aio`` is counted as a
    justified suppression — never a naked directive, never a finding."""
    source = (SRC_ROOT / "repro/service/aio.py").read_text()
    found = check_source(source, relpath="repro/service/aio.py")
    assert "lint-suppress" not in rules_of(found)
    assert "flow-await-race" not in rules_of(found)
