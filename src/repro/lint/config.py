"""Project policy the rule families enforce — pure data, no logic.

The constants here encode the three runtime disciplines the reproduction
depends on (byte-deterministic replays, zero-overhead-off module-slot
hooks, and the DESIGN.md layering direction) as static-analysis policy.
Rules read these at check time, so policy changes are one-file diffs
reviewed next to DESIGN.md.
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# Determinism (golden traces, fixed-seed oracle — docs/OBSERVABILITY.md,
# docs/VERIFY.md)
# ----------------------------------------------------------------------

#: Wall-clock reads, as flattened dotted call names.  ``time.perf_counter``
#: is deliberately absent: it is the sanctioned way to time *reporting*
#: (never protocol output) — see ``repro.experiments.report``.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Modules (root-relative posix paths) where wall-clock reads are allowed.
#: Empty on purpose: the one historical leak (experiments/report.py) now
#: routes through an injectable ``time.perf_counter`` clock.
WALL_CLOCK_ALLOWED: frozenset[str] = frozenset()

#: Module-global ``random.*`` functions — process-global RNG state, so a
#: call anywhere breaks seed-reproducibility for everyone downstream.
GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
    }
)

#: ``numpy.random`` legacy global-state functions (``np.random.seed`` and
#: friends).  ``np.random.default_rng(seed)`` is the sanctioned spelling;
#: an *argument-less* ``default_rng()`` is flagged separately because it
#: seeds from OS entropy.
GLOBAL_NP_RANDOM_FUNCS = frozenset(
    {
        "choice",
        "normal",
        "permutation",
        "rand",
        "randint",
        "randn",
        "random",
        "seed",
        "shuffle",
        "standard_normal",
        "uniform",
    }
)

#: Dotted call names that construct an RNG *instance*.  Constructing one
#: at module level — even with a seed — creates a process-wide shared
#: stream: any scenario that draws from it advances the sequence every
#: later scenario sees, so outputs stop being a function of the scenario
#: seed alone.  Generators must be built inside the scenario from its
#: seed (the ``rng = np.random.default_rng(seed)`` idiom).
RNG_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "default_rng",
        "np.random.default_rng",
        "numpy.random.default_rng",
        "np.random.RandomState",
        "numpy.random.RandomState",
        "np.random.Generator",
        "numpy.random.Generator",
    }
)

#: The only package whose modules may read OS entropy (``os.urandom``,
#: ``random.SystemRandom``): real keys are its job, everyone else must be
#: a deterministic function of a seed.
ENTROPY_PACKAGES = frozenset({"crypto"})

#: Packages whose outputs are ordering-sensitive (protocol paths feeding
#: golden traces and the differential oracle): iterating a *set* there is
#: nondeterministic across processes (hash randomization), unlike dicts,
#: whose insertion order is guaranteed.  ``net`` joined when the
#: scheduling seam (``repro.net.scheduling`` / ``repro.net.eventloop``)
#: moved message delivery onto protocol paths.
#: ``compute`` is here because its packed-ID array tables produce the
#: canonical receipt digest the scale ladder compares bit for bit.
PROTOCOL_PACKAGES = frozenset(
    {"core", "keytree", "alm", "sim", "distributed", "net", "compute"}
)

# ----------------------------------------------------------------------
# Hook discipline (zero-overhead module slots — repro.trace.hooks,
# repro.verify.hooks)
# ----------------------------------------------------------------------

#: The module-slot hook layers.  Hot-path modules may import exactly
#: these *modules* (``from ..trace import hooks``) — never names out of
#: them (binding ``ACTIVE`` or a context class snapshots the slot) and
#: never anything else from the packages (checkers/oracle/golden drag
#: protocol code into hot imports; they are loaded lazily by design).
SLOT_MODULES = frozenset({"repro.trace.hooks", "repro.verify.hooks"})

#: The packages the eager-import restriction applies to.  ``trace`` and
#: ``verify`` are free to import themselves; the top-level CLI/API
#: surface (``repro/__init__``, ``repro/__main__``) re-exports whole
#: packages legitimately.
HOT_PACKAGES = frozenset(
    {
        "alm",
        "compute",
        "core",
        "crypto",
        "distributed",
        "experiments",
        "faults",
        "keytree",
        "metrics",
        "net",
        "perf",
        "service",
        "sim",
    }
)

#: The slot attribute every instrumented call site must None-guard.
SLOT_ATTRIBUTE = "ACTIVE"

# ----------------------------------------------------------------------
# Layering (DESIGN.md §3 module inventory: protocol layers must not
# depend on orchestration layers)
# ----------------------------------------------------------------------

#: package -> packages it must never import eagerly (module level).
#: Importing a slot module (SLOT_MODULES) is exempt — that is the hook
#: discipline's sanctioned crossing.  Lazy (function-level) imports are
#: also exempt: they are the documented escape hatch the verification
#: layer itself uses to avoid cycles.
LAYER_FORBIDDEN: dict[str, frozenset[str]] = {
    # ``service`` is the live asyncio orchestration layer (docs/
    # SERVICE.md): it sits *above* net/distributed, so every protocol
    # package forbids it — the registry's lazy-import string in
    # ``repro.net.scheduling`` is the one sanctioned crossing.
    "core": frozenset(
        {"sim", "distributed", "experiments", "service", "trace", "verify"}
    ),
    "keytree": frozenset(
        {"alm", "sim", "distributed", "experiments", "service", "trace", "verify"}
    ),
    "alm": frozenset(
        {"sim", "distributed", "experiments", "service", "trace", "verify"}
    ),
    "crypto": frozenset(
        {
            "alm",
            "distributed",
            "experiments",
            "keytree",
            "metrics",
            "net",
            "service",
            "sim",
            "trace",
            "verify",
        }
    ),
    "net": frozenset(
        {"sim", "distributed", "experiments", "service", "trace", "verify"}
    ),
    # ``compute`` is a leaf over ``core.ids`` (packed-ID codes and the
    # array tables built on them): ``core`` is the only package it may
    # import.
    "compute": frozenset(
        {
            "alm",
            "crypto",
            "distributed",
            "experiments",
            "faults",
            "keytree",
            "metrics",
            "net",
            "perf",
            "service",
            "sim",
            "trace",
            "verify",
        }
    ),
    "sim": frozenset(
        {"distributed", "experiments", "service", "trace", "verify"}
    ),
    "metrics": frozenset(
        {"sim", "distributed", "experiments", "service", "trace", "verify"}
    ),
    "faults": frozenset(
        {
            "alm",
            "core",
            "crypto",
            "distributed",
            "experiments",
            "keytree",
            "metrics",
            "net",
            "perf",
            "service",
            "sim",
            "trace",
            "verify",
        }
    ),
    "perf": frozenset({"distributed", "service", "trace", "verify"}),
    "distributed": frozenset({"experiments", "service"}),
    # The service layer may import net/distributed (and everything below
    # them) but never the experiment drivers — the two orchestration
    # surfaces stay siblings.
    "service": frozenset({"experiments"}),
    # The linter is a leaf like verify.report: it must analyse the tree
    # without importing it.
    "lint": frozenset(
        {
            "alm",
            "core",
            "crypto",
            "distributed",
            "experiments",
            "faults",
            "keytree",
            "metrics",
            "net",
            "perf",
            "service",
            "sim",
            "trace",
            "verify",
        }
    ),
}

# ----------------------------------------------------------------------
# Flow rules (CFG + dataflow — repro.lint.flow, docs/STATIC_ANALYSIS.md
# "Flow rules")
# ----------------------------------------------------------------------

#: relpath prefixes the await-interleaving race detector covers: the
#: live asyncio layer plus the deterministic event loop its scheduler
#: conformance tests run against.  Coroutines elsewhere (wire helpers,
#: test scaffolding) do not share mutable ``self`` state across task
#: interleavings, so the rule stays scoped to where a stale read is a
#: protocol bug.
FLOW_RACE_PATHS: tuple[str, ...] = (
    "repro/service/",
    "repro/net/eventloop.py",
)

#: relpath prefixes the resource-leak rule covers: the layer that opens
#: real sockets/streams.  Simulation transports hold no OS handles.
FLOW_RESOURCE_PATHS: tuple[str, ...] = ("repro/service/",)

#: Dotted call names (flattened) that acquire an OS-backed handle the
#: flow-resource-leak rule must see released on every CFG exit path.
FLOW_RESOURCE_ACQUIRERS = frozenset(
    {
        "asyncio.open_connection",
        "asyncio.start_server",
        "socket.socket",
        "socket.create_connection",
        "open",
    }
)

#: Method names that count as releasing a handle (direct calls on the
#: bound name).  ``async with`` / ``with`` binding releases implicitly
#: and is exempted structurally by the rule.
FLOW_RESOURCE_RELEASERS = frozenset(
    {"close", "wait_closed", "aclose", "shutdown", "abort"}
)

#: Call names that legitimately consume a coroutine object without an
#: inline ``await``: task spawners and aggregators.  A coroutine value
#: that reaches none of these and no ``await`` on any CFG path is
#: silently dropped — it never runs.
FLOW_COROUTINE_SINKS = frozenset(
    {
        "asyncio.create_task",
        "asyncio.ensure_future",
        "asyncio.gather",
        "asyncio.wait",
        "asyncio.wait_for",
        "asyncio.shield",
        "asyncio.run",
        "asyncio.run_coroutine_threadsafe",
        "create_task",
        "ensure_future",
        "gather",
    }
)
