"""The compute seam: pluggable kernels for the protocol's batch arithmetic.

Two pure-arithmetic paths of the reproduction — the FORWARD fan-out of
Fig. 2 (:mod:`repro.core.tmesh`) and key-tree batch-rekey node marking
(:mod:`repro.keytree.modified_tree`) — are integer/prefix algebra
executed once per receipt or per changed u-node.  This package names
those operations as a backend interface so the protocol modules depend
on the *seam*, never on how the arithmetic is executed (the same
inversion :mod:`repro.net.scheduling` applied to event scheduling in
PR 6).  (The Theorem-2 rekey split was a third such operation until it
became an index lookup in :mod:`repro.core.splitting`, which left its
vectorized twin slower than the one Python path at every size that
matters; docs/PERFORMANCE.md has the numbers.)

Two backends ship:

* ``"reference"`` — the pure-Python loops
  (:mod:`repro.compute.reference`): FORWARD is
  :func:`repro.core.tmesh.forward_session`, the marking loop was
  extracted verbatim from the hot path it used to live in.
  This is the semantic definition.
* ``"numpy"`` — batch-vectorized kernels (:mod:`repro.compute.
  numpy_backend`): bit-packed ID/prefix arrays (uint64 codes + length
  columns), whole-receipt-set FORWARD fan-out, and array-based rekey
  node marking.  Delegates to ``"reference"`` when a session violates
  the Theorem-1 preconditions the batch formulation relies on.

Equivalence discipline: both backends must produce **bitwise identical**
results — same receipts in the same order, same edge lists, same
floats — enforced by ``tests/test_perf_equivalence.py`` /
``tests/test_compute_backends.py`` and arbitrated by
:class:`repro.verify.oracle.DifferentialOracle` on any divergence
(``tools/check_invariants.py`` replays a fixed-seed session through
both backends and diffs them against the oracle's brute-force BFS).

Selection: hot-path entry points accept a ``compute=`` argument (a
backend name or instance); ``None`` resolves to the process default,
settable via :func:`set_default_backend`, ``python -m repro
--compute=numpy``, or the ``REPRO_COMPUTE`` environment variable (read
once, on first resolution — this is how the perf harness and forked
bench workers select a backend).
"""

from __future__ import annotations

import importlib
import os
from typing import Callable, Dict, List, Optional, Union

__all__ = [
    "ComputeBackend",
    "available_backends",
    "create_backend",
    "default_backend",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
]


class ComputeBackend:
    """Interface every compute backend implements.

    Methods mirror the protocol operations they accelerate; argument and
    return types are exactly those of the pure-Python code they replace,
    so call sites stay oblivious to the backend behind the seam.  A
    backend unable to handle a particular input (unsupported ID scheme,
    tables violating the Theorem-1 preconditions its batch formulation
    needs) must *delegate to the reference semantics*, never raise.
    """

    name: str = "abstract"

    # T-mesh FORWARD (Fig. 2) ------------------------------------------
    def fanout_session(self, sender_table, tables, topology,
                       processing_delay=0.0, failed_hosts=None):
        """One fault-free multicast session over 1-consistent tables:
        the fast path of :func:`repro.core.tmesh.run_multicast`."""
        raise NotImplementedError

    # Key-tree batch rekeying (Section 2.4) ----------------------------
    def mark_updated(self, changed_unodes, contains, num_digits):
        """K-nodes whose keys must change after a membership batch:
        every surviving k-node on a path from a changed u-node to the
        root, sorted by (depth, digits).  ``contains`` is a membership
        predicate over the ID tree."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_FACTORIES: Dict[str, Callable[[], ComputeBackend]] = {}

#: Built-in backends, resolved by lazy import so this module stays free
#: of heavy imports (and importable by the protocol layers).
_BUILTIN_MODULES = {
    "reference": "repro.compute.reference",
    "numpy": "repro.compute.numpy_backend",
}

_DEFAULT: Optional[ComputeBackend] = None
_DEFAULT_NAME: Optional[str] = None
_INSTANCES: Dict[str, ComputeBackend] = {}


def register_backend(name: str, factory: Callable[[], ComputeBackend]) -> None:
    """Register (or replace) a backend factory under ``name``."""
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> List[str]:
    """Names resolvable by :func:`create_backend` (built-ins included,
    imported or not)."""
    return sorted(set(_BUILTIN_MODULES) | set(_FACTORIES))


def create_backend(name: str) -> ComputeBackend:
    """Instantiate a backend by name (one shared instance per name —
    backends are stateless except for memoized compilation caches).

    Raises ``KeyError`` for unknown names.
    """
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    factory = _FACTORIES.get(name)
    if factory is None:
        module_name = _BUILTIN_MODULES.get(name)
        if module_name is None:
            raise KeyError(
                f"unknown compute backend {name!r}; have {available_backends()}"
            )
        module = importlib.import_module(module_name)
        factory = _FACTORIES.get(name)
        if factory is None:  # the module registers itself on import
            factory = getattr(module, "make_backend")
            _FACTORIES[name] = factory
    instance = factory()
    _INSTANCES[name] = instance
    return instance


def set_default_backend(name: Optional[str]) -> None:
    """Set the process-wide default (``None`` restores built-in
    resolution: ``REPRO_COMPUTE`` env var, else ``"reference"``)."""
    global _DEFAULT, _DEFAULT_NAME
    _DEFAULT_NAME = name
    _DEFAULT = None if name is None else create_backend(name)


def default_backend() -> ComputeBackend:
    """The backend used when a call site passes ``compute=None``.

    Resolution order: :func:`set_default_backend`, the ``REPRO_COMPUTE``
    environment variable, ``"reference"``.
    """
    global _DEFAULT
    if _DEFAULT is None:
        name = _DEFAULT_NAME or os.environ.get("REPRO_COMPUTE") or "reference"
        _DEFAULT = create_backend(name)
    return _DEFAULT


def resolve_backend(
    compute: Union[None, str, ComputeBackend],
) -> ComputeBackend:
    """Normalize a ``compute=`` argument: ``None`` -> process default,
    a name -> :func:`create_backend`, a backend instance -> itself."""
    if compute is None:
        return default_backend()
    if isinstance(compute, str):
        return create_backend(compute)
    return compute
