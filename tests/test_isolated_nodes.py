"""A declared node without links changes no answer and costs no memory,
and neither does a high node label.

Every solver except ``mis2p`` works from the sorted link list, so extra
isolated nodes must leave its output identical, and a huge declared node
count or linked node label must not be paid for per node.
"""

import random
import tracemalloc

from mtrsched.bipartite import bipartition, two_phase_schedule
from mtrsched.conflict import build_conflict_graph
from mtrsched.exact import solve_ilp, solve_lp
from mtrsched.heuristics import hwf, hwf_tiebreak_mdf, mdf
from mtrsched.metrics import lower_bounds
from mtrsched.model import Instance, Network
from mtrsched.schedule import schedule_to_json

from helpers import random_instance


def _answers(inst: Instance):
    ilp = solve_ilp(inst)
    return (hwf(inst), mdf(inst), hwf_tiebreak_mdf(inst),
            ilp.objective, ilp.allocation, schedule_to_json(ilp.schedule),
            solve_lp(inst), lower_bounds(inst),
            build_conflict_graph(inst.network).masks,
            bipartition(inst.network))


def test_isolated_nodes_change_no_answer():
    rng = random.Random(14)
    for _ in range(200):
        inst = random_instance(rng, max_nodes=5, allow_zero=rng.random() < 0.3)
        net = inst.network
        padded = Instance(Network(net.node_count + rng.randint(1, 5), net.edges),
                          inst.demands)
        assert _answers(padded) == _answers(inst)


def test_huge_node_count_costs_no_memory():
    tracemalloc.start()
    try:
        inst = Instance(Network(10**6, [(1, 2)]), (3, 4))
        assert hwf(inst).total_slots == 7
        assert solve_ilp(inst).objective == 7
        assert lower_bounds(inst) == (7, 7)
        assert bipartition(inst.network).side_a == frozenset({1})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_high_node_label_costs_no_memory():
    tracemalloc.start()
    try:
        inst = Instance(Network(10**6, [(1, 10**6)]), (3, 4))
        assert hwf(inst).total_slots == 7
        assert solve_ilp(inst).objective == 7
        assert lower_bounds(inst) == (7, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_node_label_beyond_index_range():
    top = 2**63 - 1  # no list can have this many entries
    inst = Instance(Network(top, [(1, top)]), (1, 1))
    assert [alg(inst).total_slots for alg in (hwf, mdf, hwf_tiebreak_mdf)] \
        == [2, 2, 2]
    assert solve_ilp(inst).objective == 2
    assert solve_lp(inst).objective == 2
    assert lower_bounds(inst) == (2, 2)
    assert two_phase_schedule(inst, bipartition(inst.network)).total_slots == 2
