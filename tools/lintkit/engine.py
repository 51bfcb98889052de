"""The analysis engine: walk a tree, run the rule visitors, apply
suppressions, report.

Mirrors the verification layer's shape on purpose: rules are to source
patterns what :mod:`repro.verify.checkers` are to runtime behaviour, and
a :class:`LintResult` plays the role of a batch of
:class:`~repro.verify.report.ViolationReport` records.  The engine
imports nothing from ``repro``, so it can analyse a broken tree it could
never import.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from .modules import ModuleInfo
from .rules import Rule, all_rules
from .suppress import SuppressionIndex
from .violations import ERROR, LintViolation, sort_key

#: Meta-rule ids emitted by the engine itself (not suppressible).
SUPPRESS_RULE = "lint-suppress"
PARSE_RULE = "lint-parse"

_SKIP_DIRS = frozenset({"__pycache__"})


@dataclass(slots=True)
class LintResult:
    """Everything one run produced, pre-sorted for deterministic output."""

    violations: list[LintViolation] = field(default_factory=list)
    suppressed: list[LintViolation] = field(default_factory=list)
    files_scanned: int = 0

    def summary(self) -> str:
        return (
            f"scanned {self.files_scanned} file(s): "
            f"{len(self.violations)} finding(s), "
            f"{len(self.suppressed)} suppressed"
        )


def iter_source_files(root: Path) -> Iterator[Path]:
    """Every ``.py`` file under ``root``, skipping caches and
    ``egg-info`` build residue, in sorted order for stable reports."""
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        if any(part in _SKIP_DIRS or part.endswith(".egg-info") for part in parts):
            continue
        yield path


class LintEngine:
    """Runs ``rules`` over every module under each root.

    A *root* is a directory that contains the top-level package dir
    (``src`` for the real tree; the fixture trees under
    ``tests/lint_fixtures`` have the same shape so the package-sensitive
    rules exercise identically).
    """

    def __init__(
        self,
        roots: Sequence[Path],
        rules: Sequence[Rule] | None = None,
    ) -> None:
        self.roots = [Path(root) for root in roots]
        self.rules: list[Rule] = list(rules) if rules is not None else all_rules()

    # ------------------------------------------------------------------
    def iter_modules(self) -> Iterator[ModuleInfo | LintViolation]:
        """Parsed modules, or a ``lint-parse`` violation for files the
        compiler rejects (a lint pass must not die on the tree it is
        diagnosing)."""
        for root in self.roots:
            for path in iter_source_files(root):
                try:
                    yield ModuleInfo.parse(path, root)
                except SyntaxError as exc:
                    yield LintViolation(
                        rule=PARSE_RULE,
                        severity=ERROR,
                        discipline="meta",
                        citation="the tree must parse before it can be linted",
                        path=path.relative_to(root).as_posix(),
                        line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1,
                        message=f"syntax error: {exc.msg}",
                    )

    def _check_module(
        self, module: ModuleInfo
    ) -> tuple[list[LintViolation], list[LintViolation]]:
        """``(kept, suppressed)`` findings for one module."""
        index = SuppressionIndex(module.source)
        kept: list[LintViolation] = []
        suppressed: list[LintViolation] = []
        for rule in self.rules:
            for violation in rule.check(module):
                directive = index.covering(violation.line, violation.rule)
                if directive is not None and directive.justified:
                    suppressed.append(violation)
                else:
                    kept.append(violation)
        for directive in index.naked():
            kept.append(
                LintViolation(
                    rule=SUPPRESS_RULE,
                    severity=ERROR,
                    discipline="meta",
                    citation="docs/STATIC_ANALYSIS.md suppression policy",
                    path=module.relpath,
                    line=directive.line,
                    col=0,
                    message=(
                        "suppression without justification: append "
                        "`-- <why this is safe>`; an unjustified directive "
                        "suppresses nothing"
                    ),
                    source=module.source_line(directive.line),
                )
            )
        return kept, suppressed

    # ------------------------------------------------------------------
    def run(self) -> LintResult:
        result = LintResult()
        for item in self.iter_modules():
            if isinstance(item, LintViolation):
                result.violations.append(item)
                continue
            result.files_scanned += 1
            kept, suppressed = self._check_module(item)
            result.violations.extend(kept)
            result.suppressed.extend(suppressed)
        result.violations.sort(key=sort_key)
        result.suppressed.sort(key=sort_key)
        return result


def check_source(
    source: str,
    relpath: str = "repro/core/snippet.py",
    rules: Sequence[Rule] | None = None,
) -> list[LintViolation]:
    """Lint a source string as if it lived at ``relpath`` under the root
    — the unit-test entry point for single-rule assertions."""
    rel = Path(relpath)
    parts = list(rel.with_suffix("").parts)
    is_package = parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    module = ModuleInfo(
        path=rel,
        relpath=rel.as_posix(),
        module=".".join(parts),
        package=parts[1] if len(parts) >= 2 else "<top>",
        is_package=is_package,
        tree=ast.parse(source, filename=relpath),
        source=source,
        lines=source.splitlines(),
    )
    engine = LintEngine([], rules=rules)
    kept, _suppressed = engine._check_module(module)
    return sorted(kept, key=sort_key)
