import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtrsched.conflict import (SizeLimitError, build_conflict_graph,
                               enumerate_maximal_matchings,
                               enumerate_mis_node_masks,
                               enumerate_mis_nodes, induced_matchings,
                               is_matching, is_maximal,
                               maximal_independent_sets, transpose)
from mtrsched.model import (Network, _random_network, gen_complete, gen_grid,
                            gen_linear, gen_ring)

import reference
from helpers import all_networks, random_graph
from reference import conflict_masks


@st.composite
def networks(draw):
    n = draw(st.integers(2, 30))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    return Network(n, draw(st.lists(st.sampled_from(pairs), unique=True,
                                    max_size=80)))


def canonical(masks):
    """Masks sorted by ascending member index tuples, decoded here rather
    than by the package."""
    return sorted(masks, key=lambda m: [v for v in range(m.bit_length())
                                        if m >> v & 1])


def node_adjacency(net):
    """Adjacency bitmasks of the undirected topology, node v as bit v-1."""
    adj = [0] * net.node_count
    for a, b in net.edges:
        adj[a - 1] |= 1 << (b - 1)
        adj[b - 1] |= 1 << (a - 1)
    return adj


def semantic_conflict(a, b):
    """Straight from the transmit/receive rules: two links clash iff some
    node would have to transmit and receive in the same slot."""
    txs = {a[0], b[0]}
    rxs = {a[1], b[1]}
    return bool(txs & rxs)


class TestConflictRule:
    def test_shared_relay_node(self, four_node):
        cg = build_conflict_graph(four_node)
        assert cg.adjacent((1, 2), (2, 3))  # node 2 both ends

    def test_shared_transmitter_allowed(self, four_node):
        cg = build_conflict_graph(four_node)
        assert not cg.adjacent((1, 2), (1, 3))

    def test_reverse_link_always_conflicts(self, four_node):
        cg = build_conflict_graph(four_node)
        assert cg.adjacent((1, 2), (2, 1))

    def test_rule_equals_semantics_up_to_five_nodes(self):
        # brute equivalence of the i==l / j==k rule against the role-based
        # definition, over every labeled graph on <= 5 nodes
        checked = 0
        for net in all_networks(5):
            cg = build_conflict_graph(net)
            assert list(cg.masks) == conflict_masks(net)
            links = net.links
            for x in range(len(links)):
                for y in range(x + 1, len(links)):
                    assert cg.adjacent(links[x], links[y]) == \
                        semantic_conflict(links[x], links[y])
                    checked += 1
        assert checked > 10_000

    @settings(max_examples=300, deadline=None)
    @given(networks())
    def test_masks_equal_pairwise_build(self, net):
        assert list(build_conflict_graph(net).masks) == conflict_masks(net)


class TestDegree:
    def test_complete_network_degree(self):
        # each link of K_n conflicts with incoming at its transmitter plus
        # outgoing at its receiver, overlapping on the reverse link
        for n in range(3, 8):
            cg = build_conflict_graph(gen_complete(n))
            for link in cg.network.links:
                assert cg.degree(link) == 2 * n - 3

    def test_two_node_degree(self):
        cg = build_conflict_graph(gen_linear(2))
        assert cg.degree((1, 2)) == 1
        assert cg.degree((2, 1)) == 1

    def test_pendant_link_degree(self, four_node):
        cg = build_conflict_graph(four_node)
        assert cg.degree((3, 4)) == 3


class TestMatching:
    def test_example_matching(self, five_node):
        cg = build_conflict_graph(five_node)
        assert is_matching(cg, [(1, 3), (2, 3), (5, 4)])

    def test_relay_violation(self, four_node):
        cg = build_conflict_graph(four_node)
        assert not is_matching(cg, [(2, 1), (3, 1), (3, 2), (3, 4)])

    def test_empty_is_matching(self, four_node):
        assert is_matching(build_conflict_graph(four_node), [])

    def test_maximal_full_eligible(self, four_node):
        cg = build_conflict_graph(four_node)
        assert is_maximal(cg, [(1, 2), (1, 3), (4, 3)])
        assert not is_maximal(cg, [(3, 4)])

    def test_maximal_relative_to_eligible(self, four_node):
        cg = build_conflict_graph(four_node)
        assert is_maximal(cg, [(3, 4)], eligible=[(3, 4)])

    def test_transpose(self, four_node):
        got = transpose(four_node, [(1, 2), (1, 3), (4, 3)])
        assert got == {(2, 1), (3, 1), (3, 4)}
        assert transpose(four_node, []) == frozenset()
        with pytest.raises(KeyError, match="no such link"):
            transpose(four_node, [(1, 2), (1, 4)])

    def test_transpose_involution_everywhere(self):
        count = 0
        for net in all_networks(5, min_nodes=3):
            cg = build_conflict_graph(net)
            for m in enumerate_maximal_matchings(cg):
                t = transpose(net, m)
                assert is_matching(cg, t)
                assert is_maximal(cg, t)
                assert transpose(net, t) == m
                count += 1
        assert count > 10_000


class TestEnumeration:
    def test_four_node_matchings(self, four_node):
        cg = build_conflict_graph(four_node)
        got = enumerate_maximal_matchings(cg)
        assert len(got) == 6
        expected = [
            {(1, 2), (1, 3), (4, 3)},
            {(2, 1), (2, 3), (4, 3)},
            {(3, 1), (3, 2), (3, 4)},
            {(2, 1), (3, 1), (3, 4)},
            {(1, 2), (3, 2), (3, 4)},
            {(1, 3), (2, 3), (4, 3)},
        ]
        assert {frozenset(m) for m in expected} == set(got)

    def test_two_link_network(self):
        cg = build_conflict_graph(gen_linear(2))
        assert enumerate_maximal_matchings(cg) == [
            frozenset({(1, 2)}), frozenset({(2, 1)})]

    def test_sorted_and_deterministic(self, five_node):
        cg = build_conflict_graph(five_node)
        a = enumerate_maximal_matchings(cg)
        b = enumerate_maximal_matchings(cg)
        assert a == b
        keys = [tuple(sorted(m)) for m in a]
        assert keys == sorted(keys)

    def test_postconditions_hold(self, five_node):
        cg = build_conflict_graph(five_node)
        for m in enumerate_maximal_matchings(cg):
            assert is_matching(cg, m)
            assert is_maximal(cg, m)

    def test_link_cap(self):
        cg = build_conflict_graph(gen_complete(7))  # 42 links
        with pytest.raises(SizeLimitError, match="exceeds the enumeration cap"):
            enumerate_maximal_matchings(cg)

    def test_node_cap(self):
        with pytest.raises(SizeLimitError):
            enumerate_mis_nodes(gen_complete(9))
        with pytest.raises(SizeLimitError):
            enumerate_mis_node_masks(gen_complete(9))

    def test_maximal_matchings_are_maximal_directed_cuts(self):
        # an oracle that shares no code with Bron-Kerbosch
        for net in all_networks(5):
            cuts = reference.directed_cuts(net)
            maximal = {c for c in cuts if not any(c < d for d in cuts)}
            found = enumerate_maximal_matchings(build_conflict_graph(net))
            assert len(found) == len(maximal)
            assert set(found) == maximal

    def test_maximal_independent_sets_match_naive(self):
        rng = random.Random(3)
        for _ in range(300):
            adj = random_graph(rng, rng.randint(0, 10))
            assert maximal_independent_sets(adj) == \
                canonical(reference.maximal_independent_sets(adj))

    @pytest.mark.parametrize("net, count", [
        (gen_ring(15), 1366), (gen_linear(16), 1220),
        (gen_complete(6), 62), (gen_grid(3, 3), 126)],
        ids=["ring15", "line16", "K6", "grid3x3"])
    def test_cap_size_matchings_are_maximal_directed_cuts(self, net, count):
        # a cut is maximal iff every outside link (a, b) conflicts with it:
        # a receives in the cut or b transmits in it
        maximal = []
        for cut in reference.directed_cuts(net):
            txs = {a for a, _ in cut}
            rxs = {b for _, b in cut}
            if all(a in rxs or b in txs for a, b in net.links if (a, b) not in cut):
                maximal.append(cut)
        found = enumerate_maximal_matchings(build_conflict_graph(net))
        assert len(found) == count
        assert found == sorted(maximal, key=sorted)

    def test_canonical_order_beyond_the_naive_filter(self):
        # the naive filter stops at 10 vertices; past it, check the order,
        # distinctness, independence and maximality of each set directly
        rng = random.Random(24)
        for _ in range(40):
            n = rng.randint(11, 30)
            adj = random_graph(rng, n)
            masks = maximal_independent_sets(adj)
            assert masks == canonical(masks)
            assert len(set(masks)) == len(masks)
            for m in masks:
                for v in range(n):
                    if m >> v & 1:
                        assert adj[v] & m == 0
                    else:
                        assert adj[v] & m

    def test_maximal_independent_sets_of_empty_graph(self):
        assert maximal_independent_sets([]) == [0]
        assert maximal_independent_sets([0, 0]) == [0b11]


class TestNodeSets:
    def test_four_node_mis(self, four_node):
        assert enumerate_mis_nodes(four_node) == [
            frozenset({1, 4}), frozenset({2, 4}), frozenset({3})]

    def test_single_edge(self):
        assert enumerate_mis_nodes(gen_linear(2)) == [
            frozenset({1}), frozenset({2})]

    def test_node_masks_match_naive_and_decode(self):
        # node v is bit v-1; the order is by ascending member tuples
        for net in all_networks(5):
            masks = enumerate_mis_node_masks(net)
            assert masks == canonical(
                reference.maximal_independent_sets(node_adjacency(net)))
            members = [tuple(v for v in range(net.node_count) if m >> v & 1)
                       for m in masks]
            assert enumerate_mis_nodes(net) == [
                frozenset(v + 1 for v in t) for t in members]

    def test_node_masks_match_naive_at_the_node_cap(self):
        rng = random.Random(8)
        for _ in range(60):
            net = _random_network(8, rng.choice((0.2, 0.4, 0.6)), rng)
            assert enumerate_mis_node_masks(net) == canonical(
                reference.maximal_independent_sets(node_adjacency(net)))

    def test_adjacent_nodes_never_together(self, five_node):
        for s in enumerate_mis_nodes(five_node):
            assert not ({1, 2} <= s)  # 1 and 2 are adjacent

    def test_induced_matchings_single(self, four_node):
        out, inc = induced_matchings(four_node, {3})
        assert out == {(3, 1), (3, 2), (3, 4)}
        assert inc == {(1, 3), (2, 3), (4, 3)}

    def test_induced_matchings_pair(self, four_node):
        out, inc = induced_matchings(four_node, {1, 4})
        assert out == {(1, 2), (1, 3), (4, 3)}
        assert inc == {(2, 1), (3, 1), (3, 4)}

    def test_induced_empty(self, four_node):
        assert induced_matchings(four_node, set()) == (frozenset(), frozenset())

    def test_induced_rejects_dependent_set(self, four_node):
        with pytest.raises(ValueError, match="adjacent"):
            induced_matchings(four_node, {1, 2})

    def test_mis_induction_yields_maximal_matchings(self):
        for net in all_networks(5, min_nodes=3):
            if not net.links:
                continue
            cg = build_conflict_graph(net)
            all_maximal = set(enumerate_maximal_matchings(cg))
            for s in enumerate_mis_nodes(net):
                out, inc = induced_matchings(net, s)
                if out:  # members may all be isolated
                    assert out in all_maximal
                    assert inc in all_maximal

    def test_not_every_maximal_matching_is_induced(self, five_node):
        cg = build_conflict_graph(five_node)
        m = frozenset({(1, 3), (2, 3), (5, 4)})
        assert is_matching(cg, m) and is_maximal(cg, m)
        induced = set()
        for s in enumerate_mis_nodes(five_node):
            out, inc = induced_matchings(five_node, s)
            induced.add(out)
            induced.add(inc)
        assert m not in induced
