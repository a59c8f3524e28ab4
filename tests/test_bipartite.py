import random

import pytest

from mtrsched.bipartite import (Bipartition, NotBipartite, bipartition,
                                two_phase_schedule)
from mtrsched.conflict import DEFAULT_LINK_CAP
from mtrsched.exact import solve_ilp
from mtrsched.metrics import lower_bounds, validate_schedule
from mtrsched.model import (Instance, Network, gen_complete, gen_demands,
                            gen_grid, gen_linear, gen_ring)

from reference import bipartite_optimum


class TestBipartition:
    def test_seven_tree_sides(self, seven_tree):
        parts = bipartition(seven_tree)
        assert parts == Bipartition(frozenset({1, 5, 6, 7}),
                                    frozenset({2, 3, 4}))

    def test_triangle_rejected_with_witness(self):
        res = bipartition(gen_ring(3))
        assert isinstance(res, NotBipartite)
        assert len(res.odd_cycle) == 3

    def test_odd_cycle_witness_is_a_cycle(self):
        rng = random.Random(17)
        found = 0
        for seed in range(200):
            from mtrsched.model import gen_random
            net = gen_random(rng.randint(3, 7), 0.5, seed)
            res = bipartition(net)
            if isinstance(res, Bipartition):
                for a, b in net.edges:
                    assert (a in res.side_a) != (b in res.side_a)
                continue
            found += 1
            cyc = res.odd_cycle
            assert len(cyc) % 2 == 1 and len(cyc) >= 3
            assert len(set(cyc)) == len(cyc)
            for i in range(len(cyc)):
                a, b = cyc[i], cyc[(i + 1) % len(cyc)]
                assert b in net.neighbors(a)
        assert found > 20

    def test_random_trees_are_bipartite(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(2, 9)
            edges = [(rng.randint(1, k), k + 1) for k in range(1, n)]
            assert isinstance(bipartition(Network(n, edges)), Bipartition)

    def test_even_structures(self):
        assert isinstance(bipartition(gen_ring(6)), Bipartition)
        assert isinstance(bipartition(gen_grid(3, 3)), Bipartition)
        assert isinstance(bipartition(gen_complete(4)), NotBipartite)

    def test_isolated_nodes_left_out(self):
        net = Network(4, [(1, 2)])
        parts = bipartition(net)
        assert parts.side_a | parts.side_b == {1, 2}


class TestTwoPhase:
    def test_reference_instance(self, seven_tree_instance):
        parts = bipartition(seven_tree_instance.network)
        sched = two_phase_schedule(seven_tree_instance, parts)
        assert sched.total_slots == 18
        assert len(sched.entries) == 2
        assert sched.entries[0].slots == 10  # heaviest root-side demand
        assert sched.entries[1].slots == 8
        assert validate_schedule(seven_tree_instance, sched) == []

    def test_reference_instance_is_optimal(self, seven_tree_instance):
        # both directions of edge {1,4} force 10 + 8 slots
        assert solve_ilp(seven_tree_instance).objective == 18

    def test_zero_demands(self, seven_tree):
        parts = bipartition(seven_tree)
        sched = two_phase_schedule(Instance(seven_tree, (0,) * 12), parts)
        assert sched.entries == ()

    def test_total_is_sum_of_direction_maxima(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(2, 8)
            edges = [(rng.randint(1, k), k + 1) for k in range(1, n)]
            net = Network(n, edges)
            inst = Instance(net, tuple(rng.randint(0, 9)
                                       for _ in net.links))
            parts = bipartition(net)
            # the swapped partition must put side B's entry first
            for sides in (parts, Bipartition(parts.side_b, parts.side_a)):
                sched = two_phase_schedule(inst, sides)
                a_max = max((d for l, d in zip(net.links, inst.demands)
                             if l[0] in sides.side_a), default=0)
                b_max = max((d for l, d in zip(net.links, inst.demands)
                             if l[0] in sides.side_b), default=0)
                assert sched.total_slots == a_max + b_max
                assert validate_schedule(inst, sched) == []
                # one entry per side with positive demand, side A first:
                # its positive-demand links in link order, for their maximum
                expected = []
                for side in (sides.side_a, sides.side_b):
                    links = tuple(l for l in net.links
                                  if l[0] in side and inst.demand_of(l) > 0)
                    if links:
                        expected.append(
                            (links, max(map(inst.demand_of, links))))
                assert [(e.links, e.slots) for e in sched.entries] == expected

    def test_upper_bounds_integer_optimum(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(2, 7)
            edges = [(rng.randint(1, k), k + 1) for k in range(1, n)]
            net = Network(n, edges)
            inst = Instance(net, tuple(rng.randint(0, 9) for _ in net.links))
            sched = two_phase_schedule(inst, bipartition(net))
            assert sched.total_slots >= solve_ilp(inst).objective

    def test_not_always_optimal(self):
        # path 1-2-3-4 loaded only at its two ends schedules in 10 slots,
        # but the two direction phases cannot overlap and need 20
        net = gen_linear(4)
        demands = {(1, 2): 10, (4, 3): 10}
        inst = Instance(net, tuple(demands.get(l, 0) for l in net.links))
        sched = two_phase_schedule(inst, bipartition(net))
        assert sched.total_slots == 20
        assert solve_ilp(inst).objective == 10

    def test_partition_checked(self, seven_tree_instance):
        bad = Bipartition(frozenset({1, 2}), frozenset({3, 4, 5, 6, 7}))
        with pytest.raises(ValueError, match="does not cross"):
            two_phase_schedule(seven_tree_instance, bad)
        overlapping = Bipartition(frozenset({1, 2}), frozenset({2, 3}))
        with pytest.raises(ValueError, match="overlap"):
            two_phase_schedule(seven_tree_instance, overlapping)
        outside = Bipartition(frozenset({1, 5, 6, 7}), frozenset({2, 3, 4, 8}))
        with pytest.raises(ValueError, match="node 8 outside network"):
            two_phase_schedule(seven_tree_instance, outside)


def bipartite_networks(rng, count):
    """The fixed bipartite topologies under the link cap, then ``count``
    random bipartite graphs on at most 9 nodes, also under the cap."""
    yield from (gen_grid(3, 3), gen_grid(2, 4), gen_linear(8), gen_linear(16),
                gen_ring(6), gen_ring(8), gen_ring(14))
    while count:
        n = rng.randint(2, 9)
        side = [rng.random() < 0.5 for _ in range(n)]
        edges = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                 if side[a - 1] != side[b - 1] and rng.random() < 0.5]
        if 0 < 2 * len(edges) <= DEFAULT_LINK_CAP:
            count -= 1
            yield Network(n, edges)


class TestBipartiteOptimum:
    """On a bipartite topology the optimum equals the node bound, and
    ``reference.bipartite_optimum`` builds a schedule that meets it."""

    def test_split_point_schedule_meets_node_bound_and_optimum(self):
        rng = random.Random(41)
        checked = 0
        for net in bipartite_networks(rng, 12):
            for lo, hi in ((1, 1), (1, 10), (1, 50)):
                for symmetric in (True, False):
                    inst = Instance(net, gen_demands(
                        net, lo, hi, symmetric, rng.randrange(1 << 30)))
                    sched = bipartite_optimum(inst)
                    assert validate_schedule(inst, sched) == []
                    total = sched.total_slots
                    assert total == lower_bounds(inst)[1]
                    assert total == solve_ilp(inst).objective
                    checked += 1
        assert checked == 19 * 6
