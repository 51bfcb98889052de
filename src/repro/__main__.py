"""Command-line entry point.

Usage::

    python -m repro report [--out EXPERIMENTS.md]   regenerate all figures
    python -m repro fig 13                          one figure's rows
    python -m repro quickstart                      the secure-group demo

Scale is controlled by the ``REPRO_SCALE`` environment variable
(``tiny`` / ``small`` / ``paper``).
"""

from __future__ import annotations

import argparse
import sys

from .experiments.config import current_scale


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import main as report_main

    text = report_main()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    scale = current_scale()
    number = args.number
    if number in (6, 7, 8, 9, 10, 11):
        from .experiments.latency_experiments import run_latency_experiment

        kind = "planetlab" if number in (6, 9) else "gtitm"
        users = (
            scale.planetlab_users
            if kind == "planetlab"
            else (
                scale.gtitm_users_small
                if number in (7, 10)
                else scale.gtitm_users_large
            )
        )
        mode = "rekey" if number <= 8 else "data"
        cmp = run_latency_experiment(
            f"Fig {number}", kind, users, mode=mode,
            runs=max(1, scale.latency_runs // 2), seed=number,
        )
        print(cmp.render())
    elif number == 12:
        from .experiments.rekey_cost import default_grid, run_rekey_cost

        surface = run_rekey_cost(
            num_users=scale.gtitm_users_large,
            grid=default_grid(scale.gtitm_users_large, scale.rekey_cost_grid),
            runs=scale.rekey_cost_runs,
            seed=12,
        )
        print(surface.render())
    elif number == 13:
        from .experiments.bandwidth_experiment import run_bandwidth_experiment

        exp = run_bandwidth_experiment(
            num_users=scale.gtitm_users_large,
            churn=scale.bandwidth_churn,
            seed=13,
        )
        print(exp.render())
    elif number == 14:
        from .experiments.thresholds import run_threshold_sweep

        print(run_threshold_sweep(num_users=scale.planetlab_users, seed=14).render())
    else:
        print(f"unknown figure {number}; the paper has Figs. 6-14",
              file=sys.stderr)
        return 2
    return 0


def _cmd_quickstart(_args: argparse.Namespace) -> int:
    from .core.group import SecureGroup
    from .net import TransitStubParams, TransitStubTopology

    topology = TransitStubTopology(
        num_hosts=33,
        params=TransitStubParams(
            transit_domains=3, transit_per_domain=3,
            stubs_per_transit=2, stub_size=6,
        ),
        seed=7,
    )
    group = SecureGroup(topology, server_host=32, seed=7)
    members = [group.join(host) for host in range(8)]
    report = group.end_interval()
    print(f"{len(members)} members joined; rekey cost "
          f"{report.rekey_cost} encryptions; audit "
          f"{'OK' if not group.verify_member_keys() else 'FAILED'}")
    blob = members[0].seal(b"hello, group")
    print(f"member 1 decrypts: {members[1].open(blob)!r}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Efficient Group Rekeying Using "
        "Application-Layer Multicast' (ICDCS 2005)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="run every session/group under the invariant checkers "
        "(docs/VERIFY.md); exits 3 with a structured report on violation",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="capture a structured trace of the command "
        "(docs/OBSERVABILITY.md); writes normalized JSONL to PATH, or "
        "prints a summary to stderr without one.  Flag goes before the "
        "subcommand: python -m repro --trace=out.jsonl fig 7",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="run all figures, emit markdown")
    p_report.add_argument("--out", default=None, help="write to a file")
    p_report.set_defaults(fn=_cmd_report)

    p_fig = sub.add_parser("fig", help="regenerate one figure's rows")
    p_fig.add_argument("number", type=int, help="figure number (6-14)")
    p_fig.set_defaults(fn=_cmd_fig)

    p_quick = sub.add_parser("quickstart", help="tiny secure-group demo")
    p_quick.set_defaults(fn=_cmd_quickstart)

    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Bare ``--trace`` would greedily eat the subcommand (nargs="?"), so
    # normalize it to the explicit empty form before parsing.
    argv = ["--trace=" if token == "--trace" else token for token in argv]
    args = parser.parse_args(argv)
    if not args.verify and args.trace is None:
        return args.fn(args)

    from contextlib import ExitStack

    from .verify import InvariantViolation, verification

    with ExitStack() as stack:
        vctx = stack.enter_context(verification()) if args.verify else None
        tctx = None
        if args.trace is not None:
            from .trace import tracing

            tctx = stack.enter_context(tracing(label=f"cli:{args.command}"))
        try:
            code = args.fn(args)
        except InvariantViolation as violation:
            print(str(violation), file=sys.stderr)
            return 3
    if vctx is not None:
        print(f"[verify] {vctx.summary()}", file=sys.stderr)
    if tctx is not None:
        if args.trace:
            from .metrics.export import write_trace_jsonl

            write_trace_jsonl(args.trace, tctx)
            print(f"[trace] wrote {args.trace}", file=sys.stderr)
        else:
            print(f"[trace] {tctx.summary()}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
