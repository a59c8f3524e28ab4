"""Command-line front end.

Subcommands: gen (write an instance file), solve (schedule an instance),
validate (check a schedule against an instance), experiment (randomized
campaigns with CSV/JSON reports).

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 capability
error (enumeration cap exceeded, non-bipartite topology, ...).  Asking
``solve --penalty`` of a fractional total (``lp``/``mis2p``) is a usage
error: a penalty is defined for integer totals only.  A schedule file
that ``validate`` cannot parse (including one that is not UTF-8) is a
validation failure.  Only the typed input errors map to exit 2; any other
exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, bipartite, experiments, metrics
from .conflict import SizeLimitError
from .exact import solve_ilp, solve_lp, solve_mis_suboptimal
from .model import (InstanceFormatError, InvalidSizeError, gen_complete,
                    gen_demands, gen_grid, gen_linear, gen_random, gen_ring,
                    load_instance, save_instance, Instance)
from .schedule import ScheduleFormatError, schedule_from_json, schedule_to_json

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_CAPABILITY = 3

_SOLVERS = ("hwf", "mdf", "hwf-mdf", "exact", "lp", "mis2p", "bipartite")


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtrsched",
        description="Minimum-airtime TDMA link scheduling for "
                    "multi-transmit-receive wireless networks.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--topology", required=True,
                     choices=["linear", "ring", "grid", "complete", "random"])
    gen.add_argument("--n", type=int, help="node count (non-grid topologies)")
    gen.add_argument("--rows", type=int, help="grid rows")
    gen.add_argument("--cols", type=int, help="grid columns")
    gen.add_argument("--p", type=float, help="edge probability (random topology)")
    gen.add_argument("--demand", required=True,
                     help="fixed:V or uniform:LO:HI")
    sym = gen.add_mutually_exclusive_group()
    sym.add_argument("--symmetric", action="store_true",
                     help="equal demands in both directions of each edge")
    sym.add_argument("--asymmetric", action="store_true",
                     help="independent demand per directional link")
    gen.add_argument("--seed", type=int,
                     help="RNG seed (required for any random draw)")
    gen.add_argument("--out", help="output path (default: stdout)")
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="schedule an instance")
    solve.add_argument("instance", help="instance JSON path")
    solve.add_argument("--alg", required=True, choices=_SOLVERS)
    solve.add_argument("--penalty", action="store_true",
                       help="also run the exact solver and print the "
                            "percentage cost penalty")
    solve.add_argument("--out", help="write the schedule/allocation JSON here")
    solve.set_defaults(func=cmd_solve)

    val = sub.add_parser("validate", help="check a schedule against an instance")
    val.add_argument("instance")
    val.add_argument("schedule")
    val.set_defaults(func=cmd_validate)

    exp = sub.add_parser("experiment", help="run a randomized campaign")
    exp.add_argument("--trials", type=int, required=True)
    exp.add_argument("--seed", type=int, required=True, help="master seed")
    exp.add_argument("--topology", default="random",
                     choices=["linear", "ring", "grid", "complete", "random"])
    exp.add_argument("--n", type=int, default=6)
    exp.add_argument("--rows", type=int, default=3)
    exp.add_argument("--cols", type=int, default=3)
    exp.add_argument("--p", type=float, default=0.5)
    exp.add_argument("--demand", default="uniform:1:10", help="uniform:LO:HI")
    sym = exp.add_mutually_exclusive_group(required=True)
    sym.add_argument("--symmetric", action="store_true")
    sym.add_argument("--asymmetric", action="store_true")
    exp.add_argument("--algorithms", default="hwf,mdf",
                     help="comma-separated subset of hwf,mdf,hwf-mdf")
    exp.add_argument("--demand-ranges",
                     help="comma-separated demand upper bounds; runs one "
                          "campaign per range and reports mean penalties")
    exp.add_argument("--jobs", type=int, default=1)
    exp.add_argument("--out-json", help="summary JSON path")
    exp.add_argument("--out-csv", help="per-trial CSV path")
    exp.set_defaults(func=cmd_experiment)
    return parser


def _parse_demand_spec(spec: str) -> tuple[str, int, int]:
    parts = spec.split(":")
    try:
        if parts[0] == "fixed" and len(parts) == 2:
            v = int(parts[1])
            return "fixed", v, v
        if parts[0] == "uniform" and len(parts) == 3:
            return "uniform", int(parts[1]), int(parts[2])
    except ValueError:
        pass
    raise _UsageError(f"demand spec must be fixed:V or uniform:LO:HI, got {spec!r}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise _UsageError(message)


def cmd_gen(args) -> int:
    kind, lo, hi = _parse_demand_spec(args.demand)
    if args.topology == "grid":
        _require(args.rows is not None and args.cols is not None,
                 "grid topology needs --rows and --cols")
        network = gen_grid(args.rows, args.cols)
    else:
        _require(args.n is not None, f"--n is required for {args.topology}")
        if args.topology == "linear":
            network = gen_linear(args.n)
        elif args.topology == "ring":
            network = gen_ring(args.n)
        elif args.topology == "complete":
            network = gen_complete(args.n)
        else:
            _require(args.p is not None, "random topology needs --p")
            _require(args.seed is not None, "random topology needs --seed")
            network = gen_random(args.n, args.p, args.seed)
    if kind == "fixed":
        demands = tuple([lo] * len(network.links))
    else:
        _require(args.seed is not None, "uniform demands need --seed")
        _require(args.symmetric or args.asymmetric,
                 "uniform demands need --symmetric or --asymmetric")
        demands = gen_demands(network, lo, hi, args.symmetric, args.seed + 1)
    instance = Instance(network, demands)
    text = save_instance(instance)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}: {network.node_count} nodes, "
              f"{len(network.edges)} edges, {len(network.links)} links")
    else:
        print(text)
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = _load_instance_file(args.instance)
    alg = args.alg
    out_doc = None
    if alg in experiments.ALGORITHMS:
        sched = experiments.ALGORITHMS[alg](instance)
        total = sched.total_slots
        print(total)
        out_doc = schedule_to_json(sched)
    elif alg == "exact":
        sol = solve_ilp(instance)
        total = sol.objective
        print(total)
        if sol.lp_objective != sol.objective:
            print(f"note: fractional relaxation {_fmt_fraction(sol.lp_objective)} "
                  f"is below the integer optimum {sol.objective}",
                  file=sys.stderr)
        out_doc = schedule_to_json(sol.schedule)
    elif alg == "lp":
        sol = solve_lp(instance)
        total = sol.objective
        print(_fmt_fraction(total))
        out_doc = json.dumps({
            "objective": str(total),
            "allocation": [
                {"links": [list(l) for l in sorted(m)], "slots": str(u)}
                for m, u in zip(sol.matchings, sol.allocation) if u],
        })
    elif alg == "mis2p":
        sol = solve_mis_suboptimal(instance)
        total = sol.objective
        print(_fmt_fraction(total))
        out_doc = json.dumps({
            "objective": str(total),
            "allocation": [
                {"nodes": sorted(s), "slots": str(u)}
                for s, u in zip(sol.node_sets, sol.allocation) if u],
        })
    else:  # bipartite
        parts = bipartite.bipartition(instance.network)
        if isinstance(parts, bipartite.NotBipartite):
            print(f"error: topology is not bipartite "
                  f"(odd cycle {list(parts.odd_cycle)})", file=sys.stderr)
            return EXIT_CAPABILITY
        sched = bipartite.two_phase_schedule(instance, parts)
        total = sched.total_slots
        print(total)
        out_doc = schedule_to_json(sched)

    if args.penalty:
        total = _as_int_total(total)
        optimum = total if alg == "exact" else solve_ilp(instance).objective
        penalty = metrics.cost_penalty(total, optimum)
        print(f"optimal {optimum}  penalty {float(penalty):.2f}%")
    if args.out and out_doc is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out_doc + "\n")
    return EXIT_OK


def _as_int_total(total) -> int:
    if isinstance(total, Fraction):
        if total.denominator != 1:
            raise _UsageError("penalty is defined for integer totals only")
        return int(total)
    return total


def _fmt_fraction(x: Fraction) -> str:
    return str(int(x)) if x.denominator == 1 else f"{x} ({float(x):.4f})"


def cmd_validate(args) -> int:
    instance = _load_instance_file(args.instance)
    try:
        with open(args.schedule, "rb") as fh:
            sched = schedule_from_json(fh.read())
    except ScheduleFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    violations = metrics.validate_schedule(instance, sched)
    if not violations:
        print(f"ok: {sched.total_slots} slots, "
              f"{len(sched.entries)} entries, all demands covered")
        return EXIT_OK
    for v in violations:
        print(f"violation [{v.kind}]: {v.message}")
    return EXIT_INVALID


def cmd_experiment(args) -> int:
    kind, lo, hi = _parse_demand_spec(args.demand)
    config = experiments.ExperimentConfig(
        trials=args.trials, master_seed=args.seed, topology=args.topology,
        nodes=args.n, edge_prob=args.p, rows=args.rows, cols=args.cols,
        demand_lo=lo, demand_hi=hi, symmetric=args.symmetric,
        algorithms=tuple(a.strip() for a in args.algorithms.split(",") if a.strip()),
        jobs=args.jobs)
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return EXIT_USAGE

    if args.demand_ranges:
        try:
            his = [int(x) for x in args.demand_ranges.split(",")]
        except ValueError:
            raise _UsageError("--demand-ranges must be comma-separated "
                              f"integers, got {args.demand_ranges!r}") from None
        sweep = experiments.run_demand_range_sweep(config, his)
        lines = ["demand_hi," + ",".join(f"mean_p_{a}" for a in config.algorithms)]
        for hi_val, report in sweep:
            means = [f"{float(report.summaries[a].mean_penalty):.4f}"
                     for a in config.algorithms]
            lines.append(f"{hi_val}," + ",".join(means))
        text = "\n".join(lines)
        print(text)
        if args.out_csv:
            with open(args.out_csv, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return EXIT_OK

    report = experiments.run_experiment(config)
    print(report.summary_table())
    if args.out_json:
        with open(args.out_json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
    return EXIT_OK


def _load_instance_file(path: str) -> Instance:
    with open(path, "rb") as fh:
        return load_instance(fh.read())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (_UsageError, experiments._ConfigError, InstanceFormatError,
            InvalidSizeError, ScheduleFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
