"""Rule registry: one class per enforced pattern, grouped in families.

A rule is a stateless visitor over one parsed module; it yields
:class:`~lintkit.violations.LintViolation` records and never mutates
anything.  Families mirror the three runtime disciplines plus API
hygiene and dataflow:

``determinism``
    wall clocks, global/unseeded RNGs, OS entropy, set-iteration order
    (docs/VERIFY.md, docs/OBSERVABILITY.md);
``hooks``
    the zero-overhead module-slot discipline of ``repro.trace.hooks`` /
    ``repro.verify.hooks``;
``layering``
    the DESIGN.md §3 dependency direction;
``api``
    mutable default arguments, bare ``except``;
``flow``
    the CFG/dataflow rules of :mod:`lintkit.flow` — await-
    interleaving races, dropped coroutines, RNG seed taint, and
    resource leaks (docs/STATIC_ANALYSIS.md "Flow rules").
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..modules import ModuleInfo
from ..violations import ERROR, LintViolation


class Rule:
    """Base class: subclasses set the metadata and implement
    :meth:`check`."""

    rule_id: str = ""
    family: str = ""
    severity: str = ERROR
    citation: str = ""
    description: str = ""

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def violation(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> LintViolation:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return LintViolation(
            rule=self.rule_id,
            severity=self.severity,
            discipline=self.family,
            citation=self.citation,
            path=module.relpath,
            line=line,
            col=col,
            message=message,
            source=module.source_line(line),
        )


def all_rules() -> list[Rule]:
    """Every shipped rule, instantiated, in stable id order."""
    from .determinism import (
        ModuleRngStateRule,
        SetIterationOrderRule,
        UnseededRandomRule,
        UrandomOutsideCryptoRule,
        WallClockRule,
    )
    from .hookdiscipline import HookEagerImportRule, HookUnguardedRule
    from .hygiene import BareExceptRule, MutableDefaultRule
    from .layering import LayeringImportRule
    from ..flow.rules_flow import (
        AwaitInterleavingRaceRule,
        DroppedCoroutineRule,
        ResourceLeakRule,
        SeedTaintRule,
    )

    rules: list[Rule] = [
        WallClockRule(),
        UnseededRandomRule(),
        ModuleRngStateRule(),
        UrandomOutsideCryptoRule(),
        SetIterationOrderRule(),
        HookEagerImportRule(),
        HookUnguardedRule(),
        LayeringImportRule(),
        MutableDefaultRule(),
        BareExceptRule(),
        AwaitInterleavingRaceRule(),
        DroppedCoroutineRule(),
        SeedTaintRule(),
        ResourceLeakRule(),
    ]
    return sorted(rules, key=lambda rule: rule.rule_id)


def select_rules(patterns: list[str] | None) -> list[Rule]:
    """Rules whose id or family matches one of ``patterns`` (all rules
    when ``patterns`` is falsy)."""
    rules = all_rules()
    if not patterns:
        return rules
    wanted = {pattern.strip() for pattern in patterns if pattern.strip()}
    selected = [
        rule
        for rule in rules
        if rule.rule_id in wanted or rule.family in wanted
    ]
    unknown = wanted - {rule.rule_id for rule in rules} - {
        rule.family for rule in rules
    }
    if unknown:
        raise ValueError(f"unknown rule or family: {', '.join(sorted(unknown))}")
    return selected
