"""Engine-level behaviour of ``repro.lint``: suppressions, the
baseline lifecycle, and the ``tools/lint.py`` gate's exit codes.

The baseline tests pin the two ISSUE 5 satellite requirements verbatim:
a suppressed violation without justification text fails, and removing a
baselined violation's source line followed by ``--baseline-write``
shrinks the baseline.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    Baseline,
    LintEngine,
    all_rules,
    check_source,
    select_rules,
)
from repro.lint.baseline import fingerprint
from repro.lint.engine import PARSE_RULE, SUPPRESS_RULE

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).parent.parent
FIXTURES = Path(__file__).parent / "lint_fixtures"
LINT_CLI = REPO_ROOT / "tools" / "lint.py"


def run_cli(*args: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINT_CLI), *map(str, args)],
        cwd=cwd,
        capture_output=True,
        text=True,
    )


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
    result = LintEngine([tree]).run(Baseline())
    assert [violation.rule for violation in result.new] == [PARSE_RULE]
    # The broken file is reported, not counted as scanned.
    assert result.files_scanned == 0


# ----------------------------------------------------------------------
# baseline lifecycle
# ----------------------------------------------------------------------
def copy_badtree(tmp_path: Path) -> Path:
    tree = tmp_path / "badtree"
    shutil.copytree(FIXTURES / "badtree", tree)
    return tree


def test_baseline_roundtrip_absorbs_everything(tmp_path):
    tree = copy_badtree(tmp_path)
    first = LintEngine([tree]).run(Baseline())
    assert first.new
    baseline = Baseline.from_violations(first.violations)
    second = LintEngine([tree]).run(baseline)
    assert second.new == []
    assert len(second.baselined) == len(first.violations)


def test_baseline_is_line_number_insensitive(tmp_path):
    tree = copy_badtree(tmp_path)
    baseline = Baseline.from_violations(LintEngine([tree]).run(Baseline()).violations)
    # Unrelated edit above the findings: prepend a comment block.
    target = tree / "repro" / "core" / "bad_wallclock.py"
    target.write_text("# shifted\n# down\n" + target.read_text())
    result = LintEngine([tree]).run(baseline)
    assert result.new == []


def test_baseline_absorbs_only_recorded_count():
    violation = check_source(BAD_LINE)[0]
    baseline = Baseline({fingerprint(violation): 1})
    baselined, new = baseline.split([violation, violation])
    assert len(baselined) == 1 and len(new) == 1


def test_removing_fixed_line_shrinks_baseline_on_write(tmp_path):
    """Satellite: remove a baselined violation's source line, re-run
    ``--baseline-write``, and the baseline shrinks."""
    tree = copy_badtree(tmp_path)
    baseline_path = tmp_path / "baseline.json"

    wrote = run_cli(tree, "--baseline", baseline_path, "--baseline-write")
    assert wrote.returncode == 0, wrote.stdout + wrote.stderr
    before = json.loads(baseline_path.read_text())["entries"]

    gated = run_cli(tree, "--baseline", baseline_path)
    assert gated.returncode == 0, gated.stdout + gated.stderr

    # "Fix" one grandfathered finding by replacing its offending line.
    target = tree / "repro" / "core" / "bad_urandom.py"
    target.write_text(
        target.read_text().replace("os.urandom(16)", 'b"derived-not-sampled"')
    )

    rewrote = run_cli(tree, "--baseline", baseline_path, "--baseline-write")
    assert rewrote.returncode == 0, rewrote.stdout + rewrote.stderr
    after = json.loads(baseline_path.read_text())["entries"]

    assert len(after) < len(before)
    assert not any(entry["path"].endswith("bad_urandom.py") for entry in after)
    # ... and the shrunk baseline still gates the edited tree cleanly.
    regated = run_cli(tree, "--baseline", baseline_path)
    assert regated.returncode == 0, regated.stdout + regated.stderr


def test_committed_baseline_never_grows_silently(tmp_path):
    """A new finding is *new* even when the file already has baselined
    ones — the gate exits 2 instead of absorbing it."""
    tree = copy_badtree(tmp_path)
    baseline_path = tmp_path / "baseline.json"
    run_cli(tree, "--baseline", baseline_path, "--baseline-write")
    target = tree / "repro" / "core" / "bad_wallclock.py"
    target.write_text(
        target.read_text() + "\n\nFRESH_FINDING = time.time()\n"
    )
    gated = run_cli(tree, "--baseline", baseline_path)
    assert gated.returncode == 2
    assert "determinism-wall-clock" in gated.stdout


# ----------------------------------------------------------------------
# the CLI gate (acceptance criteria)
# ----------------------------------------------------------------------
def test_cli_shipped_tree_is_clean():
    """``python tools/lint.py`` exits 0 on the shipped tree against the
    committed ``.lint-baseline.json``."""
    result = run_cli()
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 new" in result.stdout


@pytest.mark.parametrize(
    "family", ["determinism", "hooks", "layering", "api", "flow"]
)
def test_cli_badtree_fails_per_family(family):
    """Exit 2 on the bad-fixture canaries, one run per rule family."""
    result = run_cli(FIXTURES / "badtree", "--no-baseline", "--rules", family)
    assert result.returncode == 2, result.stdout + result.stderr


def test_cli_goodtree_passes():
    result = run_cli(FIXTURES / "goodtree", "--no-baseline")
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_regression_tree_fails_on_wall_clock():
    result = run_cli(FIXTURES / "regression", "--no-baseline")
    assert result.returncode == 2
    assert result.stdout.count("determinism-wall-clock") == 2


def test_cli_json_output_is_structured():
    result = run_cli(FIXTURES / "badtree", "--no-baseline", "--json")
    assert result.returncode == 2
    payload = json.loads(result.stdout)
    assert f"{len(payload['new'])} new" in payload["summary"]
    rules = {violation["rule"] for violation in payload["new"]}
    assert "determinism-wall-clock" in rules


def test_cli_list_rules():
    result = run_cli("--list-rules")
    assert result.returncode == 0
    for rule in all_rules():
        assert rule.rule_id in result.stdout


def test_cli_unknown_rule_is_usage_error():
    result = run_cli("--rules", "no-such-rule")
    assert result.returncode == 1


# ----------------------------------------------------------------------
# --format=sarif and --changed (ISSUE 10 satellites)
# ----------------------------------------------------------------------
def test_cli_sarif_output_is_valid_and_gates():
    result = run_cli(FIXTURES / "badtree", "--no-baseline", "--format=sarif")
    assert result.returncode == 2  # exit codes unchanged by the format
    payload = json.loads(result.stdout)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    declared = {rule["id"] for rule in driver["rules"]}
    assert {rule.rule_id for rule in all_rules()} <= declared
    fired = {res["ruleId"] for res in run["results"]}
    assert "determinism-wall-clock" in fired
    assert "flow-await-race" in fired
    location = run["results"][0]["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith(".py")
    assert location["region"]["startLine"] >= 1


def test_cli_sarif_clean_tree_has_empty_results():
    result = run_cli(FIXTURES / "goodtree", "--no-baseline", "--format=sarif")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["runs"][0]["results"] == []


def _git(*args: str, cwd: Path) -> None:
    subprocess.run(
        ["git", "-c", "user.name=lint-test", "-c", "user.email=lint@test",
         *args],
        cwd=cwd,
        check=True,
        capture_output=True,
    )


def test_cli_changed_scopes_to_the_git_diff(tmp_path):
    """--changed lints exactly the files git reports as modified or
    untracked; clean-but-violating committed files stay out of the run."""
    repo = tmp_path / "work"
    pkg = repo / "tree" / "repro" / "core"
    pkg.mkdir(parents=True)
    violating = "import time\n\ndef f():\n    return time.time()\n"
    (pkg / "committed_bad.py").write_text(violating)
    (pkg / "touched.py").write_text("def f():\n    return 1\n")
    _git("init", "-q", cwd=repo)
    _git("add", "-A", cwd=repo)
    _git("commit", "-q", "-m", "seed", cwd=repo)

    # Nothing changed: nothing scanned, exit 0 despite committed_bad.py.
    clean = run_cli("tree", "--no-baseline", "--changed", cwd=repo)
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert "nothing to lint" in clean.stdout

    # Modify one file and drop in one untracked file, both violating.
    (pkg / "touched.py").write_text(violating)
    (pkg / "fresh.py").write_text(violating)
    gated = run_cli("tree", "--no-baseline", "--changed", cwd=repo)
    assert gated.returncode == 2, gated.stdout + gated.stderr
    assert "touched.py" in gated.stdout
    assert "fresh.py" in gated.stdout
    assert "committed_bad.py" not in gated.stdout
    assert "scanned 2 file(s)" in gated.stdout
