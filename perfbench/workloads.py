"""The benchmark's workloads.

Each workload turns (seed, k) into the k-th op's input, runs one op
through the package's public functions, checks the op's outputs, and,
in a traced run, replays the op's instance through the layers one
public call at a time so that each layer gets its own span.

* ``campaign``: the paper's experiment, one ``run_experiment`` trial on a
  random 6-node, p=0.5 network with demands 1..10, alternately symmetric
  and asymmetric.  Almost all of its time is the root LP.
* ``exact-dense``: ``solve_ilp`` then ``solve_mis_suboptimal`` on dense
  networks of 10-24 links with asymmetric demands 1..50: the largest LP
  tableaux (the 3x3 grid: 24 rows, 126 columns) and the branching
  instances, at several hundred ops per run.
* ``greedy-large``: the three greedy schedulers, validation, schedule
  JSON round trips, lower bounds and the bipartite two-phase schedule on
  networks of 30-266 links, far above the exact solver's cap, so the
  ``exact`` layer does no work there.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

from mtrsched import (Bipartition, ExperimentConfig, Instance, bipartition,
                      build_conflict_graph, cli, enumerate_maximal_matchings,
                      gen_complete, gen_demands, gen_grid, gen_random,
                      gen_ring, hwf, hwf_tiebreak_mdf, load_instance,
                      lower_bounds, mdf, run_experiment, save_instance,
                      schedule_from_json, schedule_to_json, solve_ilp,
                      solve_lp, solve_mis_suboptimal, two_phase_schedule,
                      validate_schedule)

GREEDIES = (("hwf", hwf), ("mdf", mdf), ("hwf_mdf", hwf_tiebreak_mdf))

# The 3x3 grid has 9 nodes, one more than the default node cap of the
# all-outgoing-links relaxation.
MIS_NODE_CAP = 9


def _rng(seed: int, k: int) -> random.Random:
    # string seeds hash through sha512: the same on every platform and run
    return random.Random(f"{seed}:{k}")


def _network(spec: tuple, rng: random.Random, lo: int, hi: int):
    kind, *args = spec
    if kind == "ring":
        return gen_ring(*args)
    if kind == "grid":
        return gen_grid(*args)
    if kind == "complete":
        return gen_complete(*args)
    n, p = args
    while True:
        net = gen_random(n, p, rng.getrandbits(62))
        if lo <= len(net.links) <= hi:
            return net


def schedule_errors(schedule, violations, node_bound: int) -> list[str]:
    """A schedule's validation violations, plus a frame shorter than the
    node lower bound."""
    errors = [v.message for v in violations]
    if schedule.total_slots < node_bound:
        errors.append(f"{schedule.total_slots} slots is below the node "
                      f"lower bound {node_bound}")
    return errors


def check_exact(instance, ilp, greedy_totals) -> list[str]:
    """The ILP witness is valid and lp <= optimum <= every greedy total."""
    node_bound = lower_bounds(instance)[1]
    errors = schedule_errors(ilp.schedule,
                             validate_schedule(instance, ilp.schedule), node_bound)
    if ilp.schedule.total_slots != ilp.objective:
        errors.append(f"witness has {ilp.schedule.total_slots} slots, "
                      f"objective is {ilp.objective}")
    if not ilp.lp_objective <= ilp.objective <= min(greedy_totals):
        errors.append(f"lp {ilp.lp_objective} <= optimum {ilp.objective} <= "
                      f"greedy totals {greedy_totals} does not hold")
    return errors


def exact_layers(instance, tr, ilp=None, mis=None, cli_dir=None) -> None:
    """Replay one instance through every layer an exact solve touches,
    one span per public call.  ``ilp`` and ``mis`` are the op's own
    results when the op already computed them."""
    net = instance.network
    with tr.span("model.instance_io"):
        text = save_instance(instance)
        load_instance(text)
    with tr.span("conflict.build"):
        cg = build_conflict_graph(net)
    with tr.span("conflict.enum"):
        matchings = enumerate_maximal_matchings(cg)
    with tr.span("exact.solve_lp"):
        lp = solve_lp(instance)
    scheds = []
    for name, alg in GREEDIES:
        with tr.span(f"heuristics.{name}"):
            scheds.append(alg(instance))
    if ilp is None:
        with tr.span("exact.solve_ilp"):
            ilp = solve_ilp(instance)
    with tr.span("metrics.validate"):
        validate_schedule(instance, ilp.schedule)
    with tr.span("schedule.json"):
        doc = schedule_to_json(ilp.schedule)
        schedule_from_json(doc)
    with tr.span("bipartite.two_phase"):
        parts = bipartition(net)
        if isinstance(parts, Bipartition):
            two_phase_schedule(instance, parts)
    if cli_dir is not None:
        path = Path(cli_dir) / "instance.json"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            with tr.span("cli.main"):
                code = cli.main(["solve", str(path), "--alg", "exact"])
        if code != 0:
            raise RuntimeError(f"cli solve --alg exact exited {code}")
    tr.count("conflict.matchings", len(matchings))
    tr.count("exact.lp_rows", len(net.links))
    tr.count("exact.lp_cols", len(lp.matchings))
    tr.count("exact.fractional_root_ops",
             any(x.denominator != 1 for x in lp.allocation))
    tr.count("exact.gap_ops", ilp.lp_objective != ilp.objective)
    tr.count("heuristics.entries", sum(len(s.entries) for s in scheds))
    tr.count("heuristics.excess_slots",
             sum(s.total_slots - ilp.objective for s in scheds))
    tr.count("schedule.json_bytes", len(doc))
    if mis is not None:
        tr.count("conflict.mis_sets", len(mis.node_sets))


class Campaign:
    name = "campaign"
    pool = 3000

    def make_input(self, seed: int, k: int) -> tuple[int, bool]:
        return _rng(seed, k).getrandbits(62), k % 2 == 0

    def op(self, inp, tr):
        master, symmetric = inp
        config = ExperimentConfig(
            trials=1, master_seed=master, nodes=6, edge_prob=0.5,
            demand_lo=1, demand_hi=10, symmetric=symmetric,
            algorithms=("hwf", "mdf", "hwf-mdf"))
        with tr.span("experiments.run_experiment"):
            return run_experiment(config)

    def check(self, inp, report) -> list[str]:
        r = report.records[0]
        totals = list(r.totals.values())
        if r.ilp >= 1 and r.lp <= r.ilp <= min(totals):
            return []
        return [f"trial seed {r.seed}: lp {r.lp} <= optimum {r.ilp} <= "
                f"greedy totals {totals} does not hold"]

    def digest(self, report) -> str:
        r = report.records[0]
        return f"{r.seed} {r.lp} {r.ilp} {sorted(r.totals.items())}"

    def layers(self, op_id, inp, report, tr, tmp_dir) -> None:
        with tr.span("experiments.report"):
            report.to_csv()
            report.to_json()
        # A trial of the same distribution, drawn with the public
        # generators: run_experiment does not hand out its instances.
        master, symmetric = inp
        rng = random.Random(master)
        net = _network(("random", 6, 0.5), rng, 1, 30)
        demands = gen_demands(net, 1, 10, symmetric, rng.getrandbits(62))
        exact_layers(Instance(net, demands), tr)


# Dense networks whose solve pair stays cheap enough for several hundred
# ops per run.  K6 and random 6-node networks at p >= 0.6 are left out:
# their branch-and-bound tail reaches 2-10 s for one solve, so a single
# draw would set a whole run.  The 3x3 grid, the slowest class, comes
# twice, so that p90 falls inside its times rather than at its edge.
DENSE_SPECS = ([("ring", 5), ("ring", 7), ("complete", 5), ("grid", 3, 3),
                ("random", 6, 0.5), ("grid", 3, 3)]
               + [("random", 5, p) for p in (0.5, 0.6, 0.7, 0.8, 0.9)])


class ExactDense:
    name = "exact-dense"
    pool = 80 * len(DENSE_SPECS)

    def make_input(self, seed: int, k: int) -> Instance:
        rng = _rng(seed, k)
        net = _network(DENSE_SPECS[k % len(DENSE_SPECS)], rng, 10, 24)
        return Instance(net, gen_demands(net, 1, 50, False, rng.getrandbits(62)))

    def op(self, inst, tr):
        with tr.span("exact.solve_ilp"):
            ilp = solve_ilp(inst)
        with tr.span("exact.solve_mis_suboptimal"):
            mis = solve_mis_suboptimal(inst, cap=MIS_NODE_CAP)
        return ilp, mis

    def check(self, inst, result) -> list[str]:
        ilp, mis = result
        errors = check_exact(inst, ilp, [alg(inst).total_slots
                                         for _, alg in GREEDIES])
        # mis2p is a fractional optimum: it can fall below the integer
        # optimum (a 5-ring with unit demands gives 5/2 against 3), but
        # never below the unrestricted LP.
        if mis.objective < ilp.lp_objective:
            errors.append(f"mis2p objective {mis.objective} is below the "
                          f"root LP {ilp.lp_objective}")
        return errors

    def digest(self, result) -> str:
        ilp, mis = result
        return (f"{ilp.objective} {ilp.lp_objective} {mis.objective} "
                f"{schedule_to_json(ilp.schedule)}")

    def layers(self, op_id, inst, result, tr, tmp_dir) -> None:
        ilp, mis = result
        # the CLI round trip on every tenth op only: it repeats the solve
        exact_layers(inst, tr, ilp, mis, tmp_dir if op_id % 10 == 0 else None)


def audit(instance, schedules, tr):
    """Validate each schedule and round-trip it through JSON; also the
    instance's lower bounds.  The greedy-large op's second half."""
    audits = []
    for s in schedules:
        with tr.span("metrics.validate"):
            violations = validate_schedule(instance, s)
        with tr.span("schedule.json"):
            doc = schedule_to_json(s)
            back = schedule_from_json(doc)
        audits.append((s, violations, doc, back))
    with tr.span("metrics.lower_bounds"):
        bounds = lower_bounds(instance)
    return audits, bounds


# Thirteen classes, so that the median op falls inside one (K12, whose
# time varies only with its demands) rather than in the gap between two.
LARGE_SPECS = ([("ring", 40), ("grid", 8, 8), ("complete", 12)]
               + [("random", n, 0.3) for n in range(12, 31, 2)])


class GreedyLarge:
    name = "greedy-large"
    pool = 24 * len(LARGE_SPECS)

    def make_input(self, seed: int, k: int) -> Instance:
        rng = _rng(seed, k)
        net = _network(LARGE_SPECS[k % len(LARGE_SPECS)], rng, 12, 10**6)
        return Instance(net, gen_demands(net, 1, 10, k % 2 == 0,
                                         rng.getrandbits(62)))

    def op(self, inst, tr):
        scheds = []
        for name, alg in GREEDIES:
            with tr.span(f"heuristics.{name}"):
                scheds.append(alg(inst))
        with tr.span("bipartite.two_phase"):
            parts = bipartition(inst.network)
            if isinstance(parts, Bipartition):
                scheds.append(two_phase_schedule(inst, parts))
        return audit(inst, scheds, tr)

    def check(self, inst, result) -> list[str]:
        audits, (_, node_bound) = result
        errors = []
        for s, violations, _, back in audits:
            errors += schedule_errors(s, violations, node_bound)
            if back != s:
                errors.append("schedule JSON round trip changed the schedule")
        return errors

    def digest(self, result) -> str:
        audits, bounds = result
        return f"{bounds} " + " ".join(doc for _, _, doc, _ in audits)

    def layers(self, op_id, inst, result, tr, tmp_dir) -> None:
        with tr.span("conflict.build"):
            build_conflict_graph(inst.network)
        with tr.span("model.instance_io"):
            load_instance(save_instance(inst))
        audits, _ = result
        greedy = audits[:len(GREEDIES)]
        tr.count("heuristics.entries", sum(len(s.entries) for s, *_ in greedy))
        tr.count("schedule.json_bytes", sum(len(doc) for _, _, doc, _ in audits))


WORKLOADS = {w.name: w for w in (Campaign(), ExactDense(), GreedyLarge())}
