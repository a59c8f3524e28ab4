"""Bit-identity of every solver's output on a fixed seeded corpus.

The package's contract is that a refactor or a speedup keeps every answer
the same: the exact optimum, the allocation, the root relaxation, the
witness schedule, every greedy schedule and the campaign CSV.  This test
folds all of them, on about a hundred seeded instances, into one sha256
and pins it.  A change that moves the digest changed an output; find which
one by running the corpus on both commits and comparing the lines.
"""

import hashlib
import random

import pytest

from mtrsched.exact import solve_ilp, solve_lp, solve_mis_suboptimal
from mtrsched.experiments import ExperimentConfig, run_experiment
from mtrsched.heuristics import hwf, hwf_tiebreak_mdf, mdf
from mtrsched.model import (Instance, _random_network, gen_complete, gen_grid,
                            gen_linear, gen_ring, save_instance)
from mtrsched.schedule import schedule_to_json

GOLDEN_SHA256 = "47d1358c15847c9a3bc69b55593e819e34f389d393438cceda4f04dcee799655"

# The corpus stops at 24 links.  At the 30-link cap, unit demands: ring 15
# (1,366 maximal matchings) and the 16-node line (1,220), whose allocation
# pins the column order of the largest LPs the exact layer admits.
CAP_EDGE_SHA256 = {
    "ring15": "458daee10cb889e438df7cd3a6ce9b68259022b7a3d1dc33dd2aa1e2df7855d9",
    "line16": "6ba49826e72d86edc82fecd3f7120c3d80e8f5fb89c1f7f4d43c5e42f8ce26c8",
}


def corpus():
    """Seeded random instances (2-6 nodes, at most 24 links, demands 0-20)
    and the named topologies with demands 1-20."""
    rng = random.Random(20240607)
    out = []
    while len(out) < 100:
        net = _random_network(rng.randint(2, 6), rng.choice([0.3, 0.5, 0.7]),
                              rng)
        if 0 < len(net.links) <= 24:
            out.append(Instance(net, tuple(rng.randint(0, 20)
                                           for _ in net.links)))
    for net in (gen_ring(5), gen_ring(7), gen_grid(3, 3), gen_complete(5)):
        out.append(Instance(net, tuple(rng.randint(1, 20) for _ in net.links)))
    return out


def output_lines():
    for inst in corpus():
        yield save_instance(inst)
        ilp = solve_ilp(inst)
        yield f"ilp {ilp.objective} {ilp.allocation} {ilp.lp_objective}"
        yield schedule_to_json(ilp.schedule)
        lp = solve_lp(inst)
        yield f"lp {lp.objective} {[str(v) for v in lp.allocation]}"
        mis = solve_mis_suboptimal(inst, cap=9)
        yield f"mis2p {mis.objective} {[str(v) for v in mis.allocation]}"
        for alg in (hwf, mdf, hwf_tiebreak_mdf):
            yield schedule_to_json(alg(inst))
    report = run_experiment(ExperimentConfig(
        trials=40, master_seed=7, algorithms=("hwf", "mdf", "hwf-mdf")))
    rows = [row.split(",") for row in report.to_csv().splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if not name.startswith("rt_")]
    for row in rows:
        yield ",".join(row[i] for i in keep)


def test_outputs_match_golden_digest():
    h = hashlib.sha256()
    for line in output_lines():
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == GOLDEN_SHA256


@pytest.mark.parametrize("name, net", [("ring15", gen_ring(15)),
                                       ("line16", gen_linear(16))])
def test_cap_edge_solves_match_digest(name, net):
    sol = solve_ilp(Instance(net, (1,) * len(net.links)))
    text = (f"{sol.objective} {sol.allocation} {sol.lp_objective}\n"
            f"{schedule_to_json(sol.schedule)}")
    assert hashlib.sha256(text.encode()).hexdigest() == CAP_EDGE_SHA256[name]
