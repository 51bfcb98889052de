"""Off-the-shelf toolchain conformance: ruff and mypy over the tree.

The project's own pass (``tools/lintkit``) enforces the domain rules; ruff
and mypy cover the generic ones.  Their configuration lives in
pyproject.toml so any environment that has them runs the same checks —
but neither is a baked-in dependency of the reproduction image, so these
tests skip (rather than fail) where the binaries are absent.
"""

from __future__ import annotations

import shutil
import subprocess
import textwrap
from pathlib import Path

import pytest
from lint import main as lint_main

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).parent.parent


def run_tool(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, cwd=REPO_ROOT, capture_output=True, text=True
    )


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    result = run_tool("ruff", "check", "src", "tools")
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_on_lint_package():
    # The lint package is the strict-typed exemplar (see pyproject
    # [tool.mypy] overrides); the rest of the tree is typed best-effort.
    result = run_tool("mypy", "tools/lintkit")
    assert result.returncode == 0, result.stdout + result.stderr


# ----------------------------------------------------------------------
# The project's own gate: zero unsuppressed findings over ``src``.  A
# finding is fixed or justify-suppressed at its line; there is no
# baseline to absorb it.  These run in the tier-1 conformance lane so
# every push exercises them.
# ----------------------------------------------------------------------
@pytest.mark.conformance
def test_lint_gate_is_clean(shipped_lint):
    rendered = "\n".join(v.render() for v in shipped_lint.violations)
    assert shipped_lint.violations == [], rendered


@pytest.mark.conformance
def test_layering_regression_exits_two(tmp_path, capsys):
    """If a protocol layer ever imports the simulator again, the gate
    must exit 2."""
    pkg = tmp_path / "repro"
    (pkg / "alm").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "alm" / "__init__.py").write_text("")
    (pkg / "alm" / "bad.py").write_text(
        textwrap.dedent(
            """
            from repro.sim.engine import Simulator

            def clock():
                return Simulator().now
            """
        )
    )
    code = lint_main([str(tmp_path), "--rules", "layering"])
    assert code == 2
    assert "layering-import" in capsys.readouterr().out
