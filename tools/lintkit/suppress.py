"""Inline suppression directives.

A violation can be silenced in place with::

    something_flagged()  # lint: disable=rule-id -- why this is safe

or, when the justification does not fit on the code line, on a
comment-only line immediately above it::

    # lint: disable=rule-id,other-rule -- why this is safe
    something_flagged()

The justification (the text after ``--``) is **required**: a directive
without one does not suppress anything and is itself reported as a
``lint-suppress`` violation, so "disable and move on" is never silent.
The policy is documented in ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

#: ``# lint: disable=a,b -- justification``
DIRECTIVE_RE = re.compile(
    r"#\s*lint:\s*disable=([A-Za-z0-9_,\- ]+?)\s*(?:--\s*(.*\S))?\s*$"
)


@dataclass(frozen=True, slots=True)
class Suppression:
    """One parsed directive."""

    line: int                     # line the directive comment sits on
    rules: frozenset[str]         # rule ids it names
    justification: str            # "" when missing

    @property
    def justified(self) -> bool:
        return bool(self.justification.strip())


def parse_directives(source: str) -> list[Suppression]:
    """Every ``lint: disable`` directive in ``source``, via the tokenizer
    (so directives inside string literals are not mistaken for comments)."""
    directives: list[Suppression] = []
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = DIRECTIVE_RE.search(token.string)
        if match is None:
            continue
        rules = frozenset(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        if not rules:
            continue
        directives.append(
            Suppression(token.start[0], rules, match.group(2) or "")
        )
    return directives


class SuppressionIndex:
    """Per-file lookup: does a (line, rule) pair have a justified
    directive covering it?

    A directive covers its own line; a directive on a comment-only line
    additionally covers the next line (the standard spelling for long
    justifications).
    """

    def __init__(self, source: str) -> None:
        self.directives = parse_directives(source)
        lines = source.splitlines()
        self._by_line: dict[int, list[Suppression]] = {}
        for directive in self.directives:
            self._by_line.setdefault(directive.line, []).append(directive)
            text = (
                lines[directive.line - 1]
                if directive.line - 1 < len(lines)
                else ""
            )
            if text.lstrip().startswith("#"):
                self._by_line.setdefault(directive.line + 1, []).append(
                    directive
                )

    def covering(self, line: int, rule: str) -> Suppression | None:
        """The first directive naming ``rule`` at ``line`` (justified or
        not — the engine decides what an unjustified one means)."""
        for directive in self._by_line.get(line, []):
            if rule in directive.rules:
                return directive
        return None

    def naked(self) -> list[Suppression]:
        """Directives missing the required justification."""
        return [d for d in self.directives if not d.justified]
