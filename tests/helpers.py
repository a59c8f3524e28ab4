"""Shared helpers for the test suite."""

import random
from itertools import combinations

from mtrsched.model import Instance, Network, _random_demands, _random_network


def all_networks(max_nodes: int, min_nodes: int = 2):
    """Every labeled undirected graph on min_nodes..max_nodes nodes."""
    for n in range(min_nodes, max_nodes + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            yield Network(n, [pairs[i] for i in range(len(pairs))
                              if (bits >> i) & 1])


def random_instance(rng: random.Random, max_nodes: int = 6,
                    demand_hi: int = 10, allow_zero: bool = False) -> Instance:
    """Random instance (at least one link) for property tests."""
    n = rng.randint(2, max_nodes)
    p = rng.choice([0.3, 0.5, 0.8])
    while True:
        net = _random_network(n, p, rng)
        if net.links:
            break
    demands = list(_random_demands(net, 1, demand_hi, rng.random() < 0.5, rng))
    if allow_zero:
        for i in range(len(demands)):
            if rng.random() < 0.2:
                demands[i] = 0
    return Instance(net, tuple(demands))


def random_graph(rng: random.Random, n: int) -> list[int]:
    """Adjacency bitmasks of a random graph on n vertices, edge
    probability 0.4."""
    adj = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj
