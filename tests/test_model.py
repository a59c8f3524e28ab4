import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtrsched.model import (Instance, InstanceFormatError, InvalidSizeError,
                            Network, gen_complete, gen_demands, gen_grid,
                            gen_linear, gen_random, gen_ring, load_instance,
                            save_instance)


class TestNetwork:
    def test_links_sorted_and_paired(self):
        net = Network(4, [(3, 4), (1, 3), (2, 1), (2, 3)])
        assert net.edges == ((1, 2), (1, 3), (2, 3), (3, 4))
        assert net.links == ((1, 2), (1, 3), (2, 1), (2, 3),
                             (3, 1), (3, 2), (3, 4), (4, 3))
        assert all(net.links[i] < net.links[i + 1]
                   for i in range(len(net.links) - 1))

    def test_link_index_roundtrip(self):
        net = Network(3, [(1, 2), (2, 3)])
        for i, link in enumerate(net.links):
            assert net.link_index(link) == i
        with pytest.raises(KeyError):
            net.link_index((1, 3))

    def test_self_loop_rejected(self):
        with pytest.raises(InstanceFormatError, match="self-loop"):
            Network(3, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InstanceFormatError, match="duplicate"):
            Network(3, [(1, 2), (2, 1)])

    def test_out_of_range_node_rejected(self):
        with pytest.raises(InstanceFormatError, match="outside node range"):
            Network(3, [(1, 4)])


class TestGenerators:
    def test_linear_six(self):
        net = gen_linear(6)
        assert len(net.edges) == 5
        assert net.links == ((1, 2), (2, 1), (2, 3), (3, 2), (3, 4),
                             (4, 3), (4, 5), (5, 4), (5, 6), (6, 5))

    def test_linear_two(self):
        assert gen_linear(2).links == ((1, 2), (2, 1))

    def test_linear_too_small(self):
        with pytest.raises(InvalidSizeError):
            gen_linear(1)

    def test_ring_six(self):
        net = gen_ring(6)
        assert len(net.links) == 12
        assert net.links == ((1, 2), (1, 6), (2, 1), (2, 3), (3, 2), (3, 4),
                             (4, 3), (4, 5), (5, 4), (5, 6), (6, 1), (6, 5))
        assert all(len(net.neighbors(v)) == 2 for v in range(1, 7))

    def test_ring_three(self):
        assert len(gen_ring(3).edges) == 3

    def test_ring_too_small(self):
        with pytest.raises(InvalidSizeError):
            gen_ring(2)

    def test_grid_three_by_three(self):
        net = gen_grid(3, 3)
        assert net.edges == ((1, 2), (1, 6), (2, 3), (2, 5), (3, 4), (4, 5),
                             (4, 9), (5, 6), (5, 8), (6, 7), (7, 8), (8, 9))
        assert len(net.links) == 24
        assert len(net.neighbors(5)) == 4

    def test_grid_single_pair(self):
        assert gen_grid(1, 2).links == ((1, 2), (2, 1))

    def test_grid_degenerate(self):
        with pytest.raises(InvalidSizeError):
            gen_grid(1, 1)
        with pytest.raises(InvalidSizeError):
            gen_grid(0, 5)

    def test_complete_counts(self):
        assert len(gen_complete(4).edges) == 6
        assert len(gen_complete(4).links) == 12
        assert len(gen_complete(6).links) == 30
        assert gen_complete(2) == gen_linear(2)

    def test_random_extremes(self):
        assert gen_random(6, 1.0, seed=3) == gen_complete(6)
        assert gen_random(6, 0.0, seed=3).edges == ()

    def test_random_deterministic(self):
        a = gen_random(6, 0.5, seed=99)
        b = gen_random(6, 0.5, seed=99)
        assert a == b
        assert a != gen_random(6, 0.5, seed=100)

    def test_random_degree_matches_binomial_mean(self):
        # mean undirected degree is (n-1)p = 2.5 at n=6, p=0.5
        total = 0
        trials = 2000
        for seed in range(trials):
            net = gen_random(6, 0.5, seed)
            total += 2 * len(net.edges) / 6
        assert abs(total / trials - 2.5) < 0.2

    def test_demands_symmetric(self):
        net = gen_ring(6)
        demands = gen_demands(net, 1, 10, symmetric=True, seed=5)
        inst = Instance(net, demands)
        for a, b in net.edges:
            assert inst.demand_of((a, b)) == inst.demand_of((b, a))

    def test_demands_fixed_value(self):
        net = gen_linear(6)
        assert gen_demands(net, 5, 5, True, seed=1) == (5,) * 10

    def test_demands_asymmetric_mean(self):
        # law of large numbers: mean of uniform{1..10} is 5.5
        net = gen_complete(6)
        rng = random.Random(0)
        total = n = 0
        for _ in range(10 ** 5 // len(net.links) + 1):
            for d in gen_demands(net, 1, 10, False, rng.getrandbits(32)):
                total += d
                n += 1
        assert abs(total / n - 5.5) < 0.1

    def test_demands_bad_range(self):
        with pytest.raises(InvalidSizeError):
            gen_demands(gen_linear(2), 5, 4, True, seed=0)
        with pytest.raises(InvalidSizeError):
            gen_demands(gen_linear(2), 0, 4, True, seed=0)


class TestInstanceIO:
    def test_roundtrip(self, four_node_instance):
        again = load_instance(save_instance(four_node_instance))
        assert again == four_node_instance

    def test_roundtrip_bytes(self, four_node_instance):
        text = save_instance(four_node_instance).encode("utf-8")
        assert load_instance(text) == four_node_instance

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_roundtrip_random(self, seed):
        net = gen_random(6, 0.6, seed)
        if not net.links:
            return
        inst = Instance(net, gen_demands(net, 1, 10, False, seed))
        assert load_instance(save_instance(inst)) == inst

    def test_not_json(self):
        with pytest.raises(InstanceFormatError, match="not valid JSON"):
            load_instance("{nope")
        with pytest.raises(InstanceFormatError, match="utf-8"):
            load_instance(b"\xff{")
        # json.loads raises a plain ValueError for ints over 4300 digits
        with pytest.raises(InstanceFormatError, match="not valid JSON"):
            load_instance('{"nodes": ' + "1" * 5000 + "}")

    def test_missing_key(self):
        with pytest.raises(InstanceFormatError, match="missing required key"):
            load_instance('{"nodes": 2, "edges": []}')

    def test_demand_for_unknown_link(self):
        doc = {"nodes": 2, "edges": [[1, 2]],
               "demands": [{"tx": 1, "rx": 2, "d": 1},
                           {"tx": 2, "rx": 1, "d": 1},
                           {"tx": 1, "rx": 3, "d": 1}]}
        with pytest.raises(InstanceFormatError, match="nonexistent link"):
            load_instance(json.dumps(doc))

    def test_missing_demand(self):
        doc = {"nodes": 2, "edges": [[1, 2]],
               "demands": [{"tx": 1, "rx": 2, "d": 1}]}
        with pytest.raises(InstanceFormatError, match="missing demand"):
            load_instance(json.dumps(doc))

    def test_duplicate_demand(self):
        doc = {"nodes": 2, "edges": [[1, 2]],
               "demands": [{"tx": 1, "rx": 2, "d": 1},
                           {"tx": 1, "rx": 2, "d": 2}]}
        with pytest.raises(InstanceFormatError, match="duplicate demand"):
            load_instance(json.dumps(doc))

    def test_self_loop_document(self):
        doc = {"nodes": 2, "edges": [[1, 1]], "demands": []}
        with pytest.raises(InstanceFormatError, match="self-loop"):
            load_instance(json.dumps(doc))

    def test_duplicate_edge_document(self):
        doc = {"nodes": 2, "edges": [[1, 2], [2, 1]], "demands": []}
        with pytest.raises(InstanceFormatError, match="duplicate edge"):
            load_instance(json.dumps(doc))

    def test_negative_demand(self):
        doc = {"nodes": 2, "edges": [[1, 2]],
               "demands": [{"tx": 1, "rx": 2, "d": -1},
                           {"tx": 2, "rx": 1, "d": 1}]}
        with pytest.raises(InstanceFormatError, match="non-negative"):
            load_instance(json.dumps(doc))

    def test_demand_length_checked(self, four_node):
        with pytest.raises(InstanceFormatError, match="does not match"):
            Instance(four_node, (1, 2, 3))
