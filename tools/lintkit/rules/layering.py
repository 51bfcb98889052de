"""Layering rule: the DESIGN.md §3 dependency direction, as an import
DAG check.

Protocol layers (``core``/``keytree``/``alm``/``crypto``/``net``) must
not import orchestration layers (``sim``/``distributed``/
``experiments``/``trace``/``verify``): the paper's contribution has to
stay runnable — and testable — without the simulator, the distributed
harness, or the observability stack.  The full package->forbidden map
lives in :data:`lintkit.config.LAYER_FORBIDDEN`; the hook slot
modules are the one sanctioned crossing.
"""

from __future__ import annotations

from typing import Iterator

from ..config import LAYER_FORBIDDEN, SLOT_MODULES
from ..modules import ModuleInfo, eager_imports
from ..violations import LintViolation
from . import Rule


class LayeringImportRule(Rule):
    rule_id = "layering-import"
    family = "layering"
    citation = "DESIGN.md §3 module inventory (dependency direction)"
    # ``tools/lint.py --list-rules`` output is held stable, so this
    # text keeps its old module path; the map is ``lintkit.config``'s.
    description = (
        "eager import from a forbidden layer (see "
        "repro.lint.config.LAYER_FORBIDDEN)"
    )

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        forbidden = LAYER_FORBIDDEN.get(module.package)
        if not forbidden:
            return
        for imported in eager_imports(module):
            target = imported.target
            if not target.startswith("repro.") or target in SLOT_MODULES:
                continue
            target_package = target.split(".")[1]
            if target_package not in forbidden:
                continue
            # `from ..trace import hooks` resolves to the package; the
            # bound name decides whether it is the sanctioned slot import.
            if (
                f"{target}.hooks" in SLOT_MODULES
                and imported.names
                and all(name == "hooks" for name in imported.names)
            ):
                continue
            yield self.violation(
                module,
                imported.node,
                f"`{module.package}` must not import `{target_package}` "
                f"(got `{target}`): protocol layers stay independent of "
                "orchestration layers",
            )
