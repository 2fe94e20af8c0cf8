"""Command line interface: invariant checks, benchmarks, optimizer demos."""

import argparse
import sys

from .bench import FUNCTIONS, BenchConfig, bench_run, write_csv


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ttriem",
        description="Riemannian AD for fixed-rank matrices and tensor trains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the invariant suites")
    p_check.add_argument("--filter", default=None, help="substring filter on check names")

    p_bench = sub.add_parser("bench", help="time one method/op configuration")
    p_bench.add_argument("--function", required=True, choices=FUNCTIONS)
    p_bench.add_argument("--method", required=True, choices=("naive", "optimized", "ad"))
    p_bench.add_argument("--op", required=True, choices=("grad", "hvp"))
    p_bench.add_argument("--d", type=int, required=True)
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--rx", type=int, required=True)
    p_bench.add_argument("--rz", type=int, required=True)
    p_bench.add_argument("--ra", type=int, required=True)
    p_bench.add_argument("--trials", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", required=True, help="CSV output path")

    p_demo = sub.add_parser("demo", help="run a small gradient-descent demo")
    p_demo.add_argument("kind", choices=("solve", "eigen", "complete"))
    p_demo.add_argument("--steps", type=int, default=None)
    p_demo.add_argument("--step-size", type=float, default=None)
    p_demo.add_argument("--in", dest="infile", default=None,
                        help="initial tensor in TTv1 format")
    return parser


def _cmd_check(args):
    from .checks import run_checks

    return 1 if run_checks(args.filter) else 0


def _cmd_bench(args):
    cfg = BenchConfig(
        function=args.function, method=args.method, op=args.op,
        d=args.d, n=args.n, rx=args.rx, rz=args.rz, ra=args.ra,
        trials=args.trials, seed=args.seed,
    )
    records = bench_run(cfg)
    write_csv(records, args.out)
    for rec in records:
        row = rec.row()
        if rec.available:
            print(
                f"{row['function']} {row['method']} {row['op']}: "
                f"{row['seconds_mean']} s (std {row['seconds_std']}), "
                f"residual vs ad {row['residual_vs_ad'] or 'n/a'}"
            )
        else:
            print(f"{row['function']} {row['method']} {row['op']}: unavailable ({rec.note})")
    return 0


def _cmd_demo(args):
    from . import baselines
    from .tt import tt_read

    x0 = tt_read(args.infile) if args.infile else None
    kwargs = {}
    if args.steps is not None:
        kwargs["steps"] = args.steps
    if args.step_size is not None:
        kwargs["step_size"] = args.step_size
    if args.kind == "solve":
        _, history = baselines.demo_solve(x0=x0, **kwargs)
        target = "f (energy, A = I, F = 0)"
    elif args.kind == "eigen":
        _, history, lam = baselines.demo_eigen(x0=x0, **kwargs)
        target = f"Rayleigh quotient (min eigenvalue {lam:g})"
    else:
        _, history = baselines.demo_complete(x0=x0, **kwargs)
        target = "completion loss"
    print(f"{args.kind}: {target}")
    print(f"  start {history[0]:.6e}")
    print(f"  end   {history[-1]:.6e} after {len(history) - 1} steps")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handler = {"check": _cmd_check, "bench": _cmd_bench, "demo": _cmd_demo}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
