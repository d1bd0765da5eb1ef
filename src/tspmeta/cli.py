"""Command-line interface.

Subcommands: solve (run a metaheuristic), exact (brute-force optimum),
bench (experiment harness), convert (instance format conversion), and
plot (SVG tour figure). Exit codes: 0 success, 2 input/config error,
1 internal failure. City numbering in human-readable output is 1-based;
JSON output uses the internal 0-based ids.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import bench as bench_mod
from .errors import TspmetaError
from .instance import Instance, Metric, Tour, brute_force_optimal, validate_tour
from .pso import LocalSearch
from .svgplot import render_tour_svg
from .tsplib import (
    five_city_instance,
    load_instance_file,
    write_coords_csv,
    write_tsplib,
)


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("instance", nargs="?", default=None,
                        help="instance file (.tsp/.tsplib for TSPLIB, anything else for x,y CSV)")
    parser.add_argument("--builtin-paper", action="store_true",
                        help="use the built-in five-city demo instance")


def _load_instance(args: argparse.Namespace) -> Instance:
    if args.builtin_paper and args.instance:
        raise TspmetaError("give either an instance file or --builtin-paper, not both")
    if args.builtin_paper:
        return five_city_instance()
    if not args.instance:
        raise TspmetaError("no instance given (pass a file or --builtin-paper)")
    instance, diags = load_instance_file(args.instance)
    for line, message in diags.warnings:
        print(f"warning: {diags.source_name}:{line}: {message}", file=sys.stderr)
    return instance


def _format_tour(tour: Tour) -> str:
    ids = [str(c + 1) for c in tour]
    return " -> ".join(ids + [ids[0]]) if ids else ""


# Every solver flag's dest is a config field name; a flag left out is absent
# from the parsed args, so its value is the config dataclass's default.
_SOLVER_FIELDS = {f.name for s in bench_mod.SOLVERS.values() for f in fields(s.config_class)}


def _solve(instance: Instance, algo: str, seed: int, params: dict) -> bench_mod.TrialRecord:
    config = bench_mod.build_algorithm_config(algo, params)
    return bench_mod.run_trial(instance, bench_mod.AlgorithmEntry(algo, algo, config), seed, 0)


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    params = {k: v for k, v in vars(args).items() if k in _SOLVER_FIELDS and k != "seed"}
    record = _solve(instance, args.algo, args.seed, params)
    if args.format == "json":
        doc = {"instance": instance.name, "n": instance.n, **bench_mod.record_fields(record)}
        del doc["run_index"]
        print(json.dumps(doc, indent=2))
    else:
        print(f"instance: {instance.name} (n={instance.n})")
        print(f"algorithm: {record.algorithm} (seed {record.seed})")
        print(f"best cost: {record.best_cost:.5f}")
        print(f"best tour: {_format_tour(record.best_tour)}")
        print(f"iterations: {record.iterations}")
        print(f"evaluations: {record.evaluations}")
        print(f"time: {record.wall_time:.3f}s")
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    tour, cost = brute_force_optimal(instance)
    print(f"instance: {instance.name} (n={instance.n})")
    print(f"optimal cost: {cost:.5f}")
    print(f"optimal tour: {_format_tour(tour)}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    spec = bench_mod.load_experiment_spec(args.spec)
    records = bench_mod.run_experiment(spec, threads=args.threads)
    stats = bench_mod.summarize(records, reference=spec.reference_cost)

    header = f"{'algorithm':<12} {'runs':>4} {'best':>12} {'mean':>12} {'std':>10} {'worst':>12} {'gap%':>8}"
    print(header)
    print("-" * len(header))
    for s in stats:
        gap = f"{s.gap_percent:.3f}" if s.gap_percent is not None else "-"
        print(f"{s.algorithm:<12} {spec.runs_per_algorithm:>4} {s.best:>12.5f} {s.mean:>12.5f} "
              f"{s.sample_std:>10.5f} {s.worst:>12.5f} {gap:>8}")

    if args.out_csv:
        Path(args.out_csv).write_text(bench_mod.emit_csv(records), encoding="utf-8")
        print(f"wrote {args.out_csv}")
    if args.out_json:
        Path(args.out_json).write_text(bench_mod.emit_json(records, stats), encoding="utf-8")
        print(f"wrote {args.out_json}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    if args.to == "tsplib":
        if instance.metric is Metric.EUCLIDEAN_EXACT:
            print("warning: TSPLIB EUC_2D rounds distances to integers; "
                  "the converted instance uses the rounded metric", file=sys.stderr)
        text = write_tsplib(instance)
    else:
        text = write_coords_csv(instance)
    if args.out and args.out != "-":
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _parse_tour_arg(raw: str, n: int) -> Tour:
    try:
        ids = [int(tok) for tok in raw.split(",")]
    except ValueError:
        raise TspmetaError(f"--tour must be a comma list of integers, got {raw!r}") from None
    tour = tuple(i - 1 for i in ids)
    try:
        validate_tour(tour, n)
    except ValueError:
        raise TspmetaError(f"--tour must be a permutation of 1..{n}, got {raw!r}") from None
    return tour


def _cmd_plot(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    if (args.tour is None) == (not args.solve_first):
        raise TspmetaError("give exactly one of --tour or --solve-first")
    if args.solve_first:
        tour = _solve(instance, "pso", args.seed, {}).best_tour
    else:
        tour = _parse_tour_arg(args.tour, instance.n)
    svg = render_tour_svg(instance, tour)
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tspmeta",
        description="Metaheuristic TSP toolkit: particle swarm with swap-sequence "
                    "velocities, 2-opt/3-opt local search, GA/SA baselines, an exact "
                    "oracle, and a reproducible benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a metaheuristic on an instance")
    _add_instance_args(p_solve)
    p_solve.add_argument("--algo", choices=tuple(bench_mod.SOLVERS), default="pso")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--format", choices=("text", "json"), default="text")
    pso_group = p_solve.add_argument_group("pso options", argument_default=argparse.SUPPRESS)
    pso_group.add_argument("--particles", dest="n_particles", type=int)
    pso_group.add_argument("--iterations", dest="max_iter", type=int)
    pso_group.add_argument("--w", type=float, help="inertia factor")
    pso_group.add_argument("--c1", type=float)
    pso_group.add_argument("--c2", type=float)
    pso_group.add_argument("--w-end", type=float, help="final inertia; enables linear decay")
    pso_group.add_argument("--local-search", choices=[m.value for m in LocalSearch])
    pso_group.add_argument("--stagnation-limit", type=int)
    ga_group = p_solve.add_argument_group("ga options", argument_default=argparse.SUPPRESS)
    ga_group.add_argument("--population", type=int)
    ga_group.add_argument("--generations", type=int)
    ga_group.add_argument("--crossover-rate", type=float)
    ga_group.add_argument("--mutation-rate", type=float)
    ga_group.add_argument("--tournament-k", type=int)
    ga_group.add_argument("--elitism", type=int)
    sa_group = p_solve.add_argument_group("sa options", argument_default=argparse.SUPPRESS)
    sa_group.add_argument("--initial-temp", type=float,
                          help="starting temperature (default: auto from sampled deltas)")
    sa_group.add_argument("--cooling", type=float)
    sa_group.add_argument("--iters-per-temp", type=int,
                          help="proposals per temperature level (default: n^2)")
    sa_group.add_argument("--min-temp", type=float)
    p_solve.set_defaults(func=_cmd_solve)

    p_exact = sub.add_parser("exact", help="exact optimum by exhaustive enumeration (n <= 12)")
    _add_instance_args(p_exact)
    p_exact.set_defaults(func=_cmd_exact)

    p_bench = sub.add_parser("bench", help="run a JSON experiment spec")
    p_bench.add_argument("spec", help="experiment spec file (JSON)")
    p_bench.add_argument("--out-csv", default=None, help="write trial records as CSV")
    p_bench.add_argument("--out-json", default=None, help="write records + summary as JSON")
    p_bench.add_argument("--threads", type=int, default=None,
                         help=f"worker processes (default: ${bench_mod.THREADS_ENV_VAR} or 1)")
    p_bench.set_defaults(func=_cmd_bench)

    p_convert = sub.add_parser("convert", help="convert an instance between CSV and TSPLIB")
    _add_instance_args(p_convert)
    p_convert.add_argument("--to", choices=("csv", "tsplib"), required=True)
    p_convert.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p_convert.set_defaults(func=_cmd_convert)

    p_plot = sub.add_parser("plot", help="render an SVG figure of a tour")
    _add_instance_args(p_plot)
    p_plot.add_argument("--tour", default=None,
                        help="comma list of 1-based city ids, e.g. 1,2,3,4,5")
    p_plot.add_argument("--solve-first", action="store_true",
                        help="solve with default PSO and plot the result")
    p_plot.add_argument("--seed", type=int, default=0, help="seed for --solve-first")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.set_defaults(func=_cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TspmetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
