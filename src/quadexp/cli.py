"""Command-line front end: single-interval analysis, sweeps, the
partition-size experiment, and debugging dumps of every pipeline stage.

Data goes to standard output, diagnostics to standard error.  Exit codes:
0 for success, 1 for certification failures and invalid settings, 2 for
usage errors.  Numeric flags accept decimal literals or explicit
``0x...`` hex-floats; decimal endpoints are converted round-to-nearest.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from . import selfcheck as selfcheck_mod
from .digraph import build_representation, dump_graph, load_graph, min_cycle_mean_lowmem
from .expansivity import Settings, analyze, delta_bound, lambda_bound
from .family import ParamInterval
from .partition import breakpoint_dump, phase_partition, subdivide_parameters
from .rigor import representable
from .sweep import DEFAULT_N, SweepConfig, emit_plot_data, format_row, run_sweep


def _number(text: str) -> float:
    try:
        return representable(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _k_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not values:
        raise argparse.ArgumentTypeError("empty k list")
    for k in values:
        if k < 2 or k % 2 != 0:
            raise argparse.ArgumentTypeError(f"cell count must be even and >= 2, got {k}")
    return values


def _interval_from_flags(parser: argparse.ArgumentParser, args) -> ParamInterval:
    by_endpoints = args.a_lo is not None or args.a_hi is not None
    by_index = args.index is not None
    if by_endpoints == by_index:
        parser.error("give exactly one of --a-lo/--a-hi or --index")
    if by_index:
        # a usage error whatever --n is, so checked before the grid is built
        if not 0 <= args.index < args.n:
            parser.error(f"--index {args.index} outside [0, {args.n})")
        return subdivide_parameters(args.a_min, args.a_max, args.n).interval(args.index)
    if args.a_lo is None or args.a_hi is None:
        parser.error("--a-lo and --a-hi must be given together")
    if args.a_lo > args.a_hi:
        parser.error(f"reversed parameter interval [{args.a_lo!r}, {args.a_hi!r}]")
    return ParamInterval(0, args.a_lo, args.a_hi)


def _add_interval_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--a-lo", type=_number, default=None, help="left endpoint (decimal or hex)")
    sub.add_argument("--a-hi", type=_number, default=None, help="right endpoint")
    sub.add_argument("--index", type=int, default=None, help="grid interval index")
    sub.add_argument("--n", type=int, default=DEFAULT_N, help="grid size for --index")
    sub.add_argument("--a-min", type=_number, default=representable("1.4"))
    sub.add_argument("--a-max", type=_number, default=2.0)


def _add_settings_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k-coarse", type=int, default=Settings.k_coarse)
    sub.add_argument("--k-fine", type=int, default=Settings.k_fine)
    sub.add_argument("--delta0", type=_number, default=Settings.delta0)
    sub.add_argument("--steps", type=int, default=Settings.bisection_steps)


def _settings(args) -> Settings:
    return Settings(
        k_coarse=args.k_coarse, k_fine=args.k_fine, delta0=args.delta0, bisection_steps=args.steps
    )


def _fmt_value(value: float) -> str:
    return f"{value.hex()} {value:.17g}"


def _cmd_analyze(parser, args) -> int:
    omega = _interval_from_flags(parser, args)
    res = analyze(omega, settings=_settings(args))
    print(format_row(res, include_elapsed=True))
    return 0 if res.certified() else 1


def _cmd_lambda(parser, args) -> int:
    omega = _interval_from_flags(parser, args)
    print(_fmt_value(lambda_bound(omega, args.delta, args.k)))
    return 0


def _cmd_kstudy(parser, args) -> int:
    omega = _interval_from_flags(parser, args)
    settings = Settings(k_coarse=args.k_coarse, delta0=args.delta0, bisection_steps=args.steps)
    delta = args.delta
    if delta is None:
        bound = delta_bound(omega, settings=settings)
        if bound is None:
            print("no certified radius at the coarse stage", file=sys.stderr)
            return 1
        delta = bound.delta_bar
        print(f"using certified radius {delta.hex()}", file=sys.stderr)
    for k in args.k_list:
        start = time.perf_counter()
        value = lambda_bound(omega, delta, k)
        elapsed_ms = int(round((time.perf_counter() - start) * 1000.0))
        print(f"{k} {_fmt_value(value)} {elapsed_ms}")
    return 0


def _cmd_partition(parser, args) -> int:
    omega = _interval_from_flags(parser, args)
    part = phase_partition(omega, args.delta, args.k)
    for line in breakpoint_dump(part):
        print(line)
    return 0


def _cmd_graph(parser, args) -> int:
    omega = _interval_from_flags(parser, args)
    part = phase_partition(omega, args.delta, args.k)
    graph = build_representation(omega, part)
    sys.stdout.write(dump_graph(graph))
    return 0


def _cmd_mincyclemean(parser, args) -> int:
    with open(args.input, "r", encoding="ascii") as fh:
        graph = load_graph(fh.read())
    res = min_cycle_mean_lowmem(graph)
    if res.value is None:
        print("NONE")
    else:
        print(_fmt_value(res.value))
        if args.witness and res.witness_cycle is not None:
            print("witness " + " ".join(str(v) for v in res.witness_cycle))
    return 0


def _cmd_sweep(parser, args) -> int:
    config = SweepConfig(
        a_min=args.a_min,
        a_max=args.a_max,
        n=args.n,
        first=args.first,
        last=args.last if args.last is not None else args.n,
        settings=_settings(args),
        workers=args.workers,
        output_path=args.output,
    )
    path = run_sweep(config)
    print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_plotdata(parser, args) -> int:
    for path in emit_plot_data(args.results, args.out_dir):
        print(path, file=sys.stderr)
    return 0


def _cmd_selfcheck(parser, args) -> int:
    for flag, value in (("--orbits", args.orbits), ("--steps", args.steps)):
        if value < 1:
            parser.error(f"{flag} {value} is below 1")
    omega = _interval_from_flags(parser, args)
    rng = random.Random(args.seed)
    ok = selfcheck_mod.run_selfcheck(
        omega, args.delta, args.k, rng, orbits=args.orbits, steps=args.steps, out=sys.stdout
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadexp",
        description="Certified expansivity bounds for the quadratic family f_a(x) = a - x^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full certified analysis of one parameter interval")
    _add_interval_flags(p)
    _add_settings_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("lambda", help="expansion exponent bound for a fixed radius and cell count")
    _add_interval_flags(p)
    p.add_argument("--delta", type=_number, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("kstudy", help="exponent bound and wall time across partition sizes")
    _add_interval_flags(p)
    p.add_argument("--k-list", type=_k_list, required=True, help="comma-separated cell counts")
    p.add_argument("--delta", type=_number, default=None, help="radius; computed if omitted")
    p.add_argument("--k-coarse", type=int, default=Settings.k_coarse)
    p.add_argument("--delta0", type=_number, default=Settings.delta0)
    p.add_argument("--steps", type=int, default=Settings.bisection_steps)
    p.set_defaults(func=_cmd_kstudy)

    p = sub.add_parser("partition", help="dump phase partition breakpoints (hex floats)")
    _add_interval_flags(p)
    p.add_argument("--delta", type=_number, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("graph", help="dump the representation digraph")
    _add_interval_flags(p)
    p.add_argument("--delta", type=_number, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("mincyclemean", help="minimum cycle mean of a dumped graph, by the pipeline's solver")
    p.add_argument("--input", required=True, help="graph dump file")
    p.add_argument("--witness", action="store_true", help="also print a witness cycle")
    p.set_defaults(func=_cmd_mincyclemean)

    p = sub.add_parser("sweep", help="checkpointed batch analysis over grid intervals")
    p.add_argument("--a-min", type=_number, default=representable("1.4"))
    p.add_argument("--a-max", type=_number, default=2.0)
    p.add_argument("--n", type=int, default=DEFAULT_N)
    p.add_argument("--first", type=int, default=0)
    p.add_argument("--last", type=int, default=None)
    _add_settings_flags(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("plotdata", help="emit plot data files from a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_plotdata)

    p = sub.add_parser("selfcheck", help="sampling-based validity checks (not a proof)")
    _add_interval_flags(p)
    p.add_argument("--delta", type=_number, default=Settings.delta0)
    p.add_argument("--k", type=int, default=Settings.k_coarse)
    p.add_argument("--orbits", type=int, default=50)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0, help="sampling seed (rigorous pipeline has none)")
    p.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
