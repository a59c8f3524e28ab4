import random

import pytest

from mtrsched.conflict import build_conflict_graph, is_matching, is_maximal
from mtrsched.heuristics import (HWF, HWF_TIE_MDF, MDF, greedy_rounds, hwf,
                                 hwf_tiebreak_mdf, mdf)
from mtrsched.model import (Instance, gen_complete, gen_grid, gen_linear,
                            gen_random, gen_ring)
from mtrsched.schedule import Schedule

import reference
from helpers import random_graph, random_instance

ALL = (hwf, mdf, hwf_tiebreak_mdf)

# reference totals for the three fixed topologies
LINEAR6 = [
    ((5, 5, 5, 5, 5, 5, 5, 5, 5, 5), 10, 10),
    ((6, 6, 4, 4, 8, 8, 5, 5, 7, 7), 16, 16),
    ((6, 3, 4, 5, 7, 8, 5, 2, 7, 9), 16, 16),
]
LINEAR6_HYBRID = [10, 16, 16]
GRID33 = [
    ((5,) * 24, 10, 10),
    ((7, 8, 8, 4, 7, 2, 8, 1, 3, 1, 1, 9, 7, 4, 10, 1, 5, 4, 8, 8, 2, 5, 5, 7),
     20, 18),
]
RING6 = [
    ((5,) * 12, 10, 10),
    ((2, 5, 10, 3, 4, 6, 7, 8, 9, 11, 4, 12), 23, 23),
]


@pytest.mark.parametrize("demands,h,m", LINEAR6)
def test_linear_reference_totals(demands, h, m):
    inst = Instance(gen_linear(6), demands)
    assert hwf(inst).total_slots == h
    assert mdf(inst).total_slots == m


@pytest.mark.parametrize("demands,h,m", GRID33)
def test_grid_reference_totals(demands, h, m):
    inst = Instance(gen_grid(3, 3), demands)
    assert hwf(inst).total_slots == h
    assert mdf(inst).total_slots == m


@pytest.mark.parametrize("demands,h,m", RING6)
def test_ring_reference_totals(demands, h, m):
    inst = Instance(gen_ring(6), demands)
    assert hwf(inst).total_slots == h
    assert mdf(inst).total_slots == m


def test_four_node_hwf_schedule(four_node_instance):
    sched = hwf(four_node_instance)
    assert sched.total_slots == 3
    assert all(e.slots == 1 for e in sched.entries)
    assert {frozenset(e.links) for e in sched.entries} == {
        frozenset({(1, 2), (3, 2), (3, 4)}),
        frozenset({(2, 1), (3, 1), (3, 4)}),
        frozenset({(1, 3), (2, 3), (4, 3)}),
    }


@pytest.mark.parametrize("alg", ALL)
def test_zero_demand_gives_empty_schedule(alg, four_node):
    assert alg(Instance(four_node, (0,) * 8)) == Schedule()


def test_hybrid_linear_totals():
    for (demands, _, _), expected in zip(LINEAR6, LINEAR6_HYBRID):
        inst = Instance(gen_linear(6), demands)
        assert hwf_tiebreak_mdf(inst).total_slots == expected


def test_hybrid_equals_hwf_without_ties():
    # distinct demands at every step: degree key never consulted
    inst = Instance(gen_linear(4), (32, 16, 8, 4, 2, 1))
    assert hwf_tiebreak_mdf(inst) == hwf(inst)


def test_hybrid_first_round_matches_mdf_on_uniform_demands():
    inst = Instance(gen_grid(3, 3), (5,) * 24)
    assert hwf_tiebreak_mdf(inst).entries[0] == mdf(inst).entries[0]
    assert hwf_tiebreak_mdf(inst).total_slots == 10


class TestProperties:
    def _check(self, inst, sched):
        cg = build_conflict_graph(inst.network)
        active = set(l for l, d in zip(inst.network.links, inst.demands) if d)
        residual = dict(zip(inst.network.links, inst.demands))
        assert len(sched.entries) <= len(inst.network.links)
        for entry in sched.entries:
            assert is_matching(cg, entry.links)
            # maximal over the links still carrying demand
            assert is_maximal(cg, entry.links,
                              eligible=[l for l in active if residual[l] > 0])
            assert entry.slots >= 1
            for l in entry.links:
                residual[l] -= entry.slots
        # exact coverage: heuristics never over-serve
        assert all(v == 0 for v in residual.values())

    @pytest.mark.parametrize("alg", ALL)
    def test_validity_coverage_maximality(self, alg):
        rng = random.Random(1234)
        for _ in range(400):
            inst = random_instance(rng, allow_zero=True)
            if not any(inst.demands):
                continue
            self._check(inst, alg(inst))

    @pytest.mark.parametrize("alg", ALL)
    def test_deterministic(self, alg):
        rng = random.Random(77)
        for _ in range(50):
            inst = random_instance(rng)
            assert alg(inst) == alg(inst)

    def test_strictly_decreasing_residual(self):
        # every round allocates at least one slot to at least one link
        rng = random.Random(5)
        for _ in range(100):
            inst = random_instance(rng)
            sched = hwf(inst)
            totals = [sum(e.slots * len(e.links) for e in sched.entries[:i])
                      for i in range(len(sched.entries) + 1)]
            assert all(b > a for a, b in zip(totals, totals[1:]))

    @pytest.mark.parametrize("alg", ALL)
    def test_masks_wider_than_64_bits(self, alg):
        # 10-node complete network: 90 links, masks wider than 64 bits
        from mtrsched.model import gen_demands
        net = gen_complete(10)
        inst = Instance(net, gen_demands(net, 1, 10, False, seed=13))
        self._check(inst, alg(inst))

    def test_thread_safe_shared_instances(self):
        # pure functions over immutable inputs: concurrent calls agree
        from concurrent.futures import ThreadPoolExecutor
        rng = random.Random(6)
        instances = [random_instance(rng) for _ in range(24)]
        expected = [(alg(i).total_slots) for i in instances for alg in ALL]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda args: args[1](args[0]).total_slots,
                                [(i, alg) for i in instances for alg in ALL]))
        assert got == expected


@pytest.mark.parametrize("alg,mode", [(hwf, HWF), (mdf, MDF),
                                      (hwf_tiebreak_mdf, HWF_TIE_MDF)])
def test_matches_reference_greedy(alg, mode):
    # small demand ranges make many sort-key ties, so the stable order
    # carried between rounds decides the result
    rng = random.Random(41)
    instances = [random_instance(rng, max_nodes=30, allow_zero=True,
                                 demand_hi=rng.choice([1, 3, 10]))
                 for _ in range(60)]
    # slot counts beyond 64 bits
    instances.append(Instance(gen_linear(2), (2**63, 1)))
    for inst in instances:
        assert alg(inst) == reference.greedy(inst, mode)
    assert alg(instances[-1]).total_slots == 2**63 + 1


def test_greedy_rounds_match_reference():
    rng = random.Random(13)
    cases = []
    for _ in range(1000):
        n = rng.randint(0, 40)
        adj = random_graph(rng, n)
        cases.append(([rng.randint(0, rng.choice([1, 4, 15]))
                       for _ in range(n)], adj))
    # regular topologies up to 224 links: many links share every sort key,
    # so the order carried between rounds decides each round
    for net in (gen_ring(40), gen_grid(8, 8), gen_complete(12),
                gen_linear(30), gen_ring(5), gen_grid(3, 3)):
        adj = build_conflict_graph(net).masks
        n = len(net.links)
        cases.append(([5] * n, adj))
        cases.append(([rng.randint(0, 2) for _ in range(n)], adj))
        cases.append(([rng.randint(0, 10) for _ in range(n)], adj))
    # the largest greedy-large class: a random n=30, p=0.3 network
    adj = build_conflict_graph(gen_random(30, 0.3, 6)).masks
    assert len(adj) == 262
    cases.append(([rng.randint(1, 10) for _ in adj], adj))
    # residuals near 2**64: the hybrid's key residual * n + degree must
    # order as the reference's (-residual, -degree) tuples on big ints
    adj = build_conflict_graph(gen_complete(12)).masks
    cases.append(([2**64 + rng.randint(-2, 2) for _ in adj], adj))
    cases.append(([2**64 - 1] * len(adj), adj))
    for demands, adj in cases:
        for mode in (HWF, MDF, HWF_TIE_MDF):
            assert greedy_rounds(demands, adj, mode) == \
                reference.greedy_rounds(demands, adj, mode)


def test_greedy_rounds_empty():
    assert greedy_rounds([], [], HWF) == []
    assert greedy_rounds([0, 0], [2, 1], MDF) == []
