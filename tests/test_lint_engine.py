"""Engine-level behaviour of the domain linter (``tools/lintkit``):
suppressions, rule selection, and the ``tools/lint.py`` gate's exit
codes.

The gate's tests call its ``main`` in-process; one test runs the script
itself, so the entry point a commit hook uses stays covered.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from lint import main as lint_main
from lintkit import LintEngine, all_rules, check_source, select_rules
from lintkit.engine import PARSE_RULE, SUPPRESS_RULE

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).parent.parent
FIXTURES = Path(__file__).parent / "lint_fixtures"


def run_cli(capsys, *args: str) -> tuple[int, str]:
    """``tools/lint.py`` in-process: ``(exit code, stdout)``."""
    code = lint_main([str(arg) for arg in args])
    return code, capsys.readouterr().out


# ----------------------------------------------------------------------
# suppression semantics
# ----------------------------------------------------------------------
BAD_LINE = "import time\n\n\ndef f():\n    return time.time()"


def test_justified_suppression_silences_the_finding():
    found = check_source(
        BAD_LINE
        + "  # lint: disable=determinism-wall-clock -- test scaffolding\n"
    )
    assert found == []


def test_unjustified_suppression_fails():
    """Satellite: a suppressed violation without justification text
    fails — the original finding survives AND the naked directive is
    itself a violation."""
    found = check_source(
        BAD_LINE + "  # lint: disable=determinism-wall-clock\n"
    )
    assert {violation.rule for violation in found} == {
        "determinism-wall-clock",
        SUPPRESS_RULE,
    }


def test_comment_only_directive_covers_next_line():
    found = check_source(
        "import time\n\n\ndef f():\n"
        "    # lint: disable=determinism-wall-clock -- profiling helper\n"
        "    return time.time()\n"
    )
    assert found == []


def test_directive_does_not_leak_past_next_line():
    found = check_source(
        "import time\n\n\ndef f():\n"
        "    # lint: disable=determinism-wall-clock -- only covers next line\n"
        "    a = time.time()\n"
        "    return a + time.time()\n"
    )
    assert [violation.rule for violation in found] == ["determinism-wall-clock"]
    assert found[0].line == 7


def test_suppression_is_rule_scoped():
    # Justified, but for a different rule: the wall-clock finding stays.
    found = check_source(
        BAD_LINE + "  # lint: disable=api-bare-except -- wrong rule\n"
    )
    assert [violation.rule for violation in found] == ["determinism-wall-clock"]


# ----------------------------------------------------------------------
# rule selection and parse resilience
# ----------------------------------------------------------------------
def test_select_rules_by_family_and_id():
    determinism = select_rules(["determinism"])
    assert {rule.family for rule in determinism} == {"determinism"}
    assert len(determinism) == 5
    single = select_rules(["api-bare-except"])
    assert [rule.rule_id for rule in single] == ["api-bare-except"]
    with pytest.raises(ValueError, match="unknown rule"):
        select_rules(["no-such-rule"])


def test_rule_metadata_complete():
    for rule in all_rules():
        assert rule.rule_id and rule.family and rule.description, rule
        assert rule.citation, f"{rule.rule_id} has no discipline citation"


def test_syntax_error_becomes_parse_violation(tmp_path):
    tree = tmp_path / "tree"
    (tree / "repro").mkdir(parents=True)
    (tree / "repro" / "broken.py").write_text("def f(:\n")
    result = LintEngine([tree]).run()
    assert [violation.rule for violation in result.violations] == [PARSE_RULE]
    # The broken file is reported, not counted as scanned.
    assert result.files_scanned == 0


# ----------------------------------------------------------------------
# the CLI gate (acceptance criteria)
# ----------------------------------------------------------------------
def test_cli_shipped_tree_is_clean(shipped_lint):
    """``python tools/lint.py`` over ``src`` reports zero unsuppressed
    findings; its justified suppressions are counted, not dropped."""
    assert shipped_lint.violations == []
    assert shipped_lint.suppressed
    assert shipped_lint.summary().endswith(
        f"0 finding(s), {len(shipped_lint.suppressed)} suppressed"
    )


@pytest.mark.parametrize(
    "family", ["determinism", "hooks", "layering", "api", "flow"]
)
def test_cli_badtree_fails_per_family(capsys, family):
    """Exit 2 on the bad-fixture canaries, one run per rule family."""
    code, out = run_cli(capsys, FIXTURES / "badtree", "--rules", family)
    assert code == 2, out


def test_cli_goodtree_passes(capsys):
    code, out = run_cli(capsys, FIXTURES / "goodtree")
    assert code == 0, out


def test_cli_regression_tree_fails_on_wall_clock(capsys):
    code, out = run_cli(capsys, FIXTURES / "regression")
    assert code == 2
    assert out.count("determinism-wall-clock") == 2


def test_cli_json_output_is_structured(capsys):
    code, out = run_cli(capsys, FIXTURES / "badtree", "--json")
    assert code == 2
    payload = json.loads(out)
    assert f"{len(payload['violations'])} finding(s)" in payload["summary"]
    rules = {violation["rule"] for violation in payload["violations"]}
    assert "determinism-wall-clock" in rules


def test_cli_list_rules(capsys):
    code, out = run_cli(capsys, "--list-rules")
    assert code == 0
    for rule in all_rules():
        assert rule.rule_id in out


def test_cli_unknown_rule_is_usage_error(capsys):
    code, _ = run_cli(capsys, "--rules", "no-such-rule")
    assert code == 1


def test_script_entry_exits_two_on_badtree():
    """The script entry itself: the gate a commit hook runs."""
    result = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "tools" / "lint.py"),
            str(FIXTURES / "badtree"),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2, result.stdout + result.stderr
    assert "determinism-wall-clock" in result.stdout
