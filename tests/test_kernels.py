"""Backend parity: the compiled kernels must match the pure-Python twin
bit for bit, and both must match a naive reference."""

import random
from itertools import combinations

import pytest

from mtrsched import _kernels_py as pure
from mtrsched import kernels

import reference

try:
    from mtrsched import _ckernels as compiled
except ImportError:
    compiled = None

needs_compiled = pytest.mark.skipif(compiled is None,
                                    reason="compiled kernels not built")


def random_graph(rng, n):
    adj = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj


def naive_mis(adj):
    """Reference: filter all subsets."""
    n = len(adj)
    independent = []
    for mask in range(1 << n):
        ok = True
        for v in range(n):
            if (mask >> v) & 1 and adj[v] & mask:
                ok = False
                break
        if ok:
            independent.append(mask)
    indep = set(independent)
    out = []
    for m in independent:
        if not any((m | (1 << v)) in indep for v in range(n)
                   if not (m >> v) & 1):
            out.append(m)
    return sorted(out)


def test_pure_mis_matches_naive():
    rng = random.Random(3)
    for _ in range(300):
        adj = random_graph(rng, rng.randint(0, 10))
        assert sorted(pure.maximal_independent_sets(adj)) == naive_mis(adj)


def test_pure_greedy_matches_reference():
    rng = random.Random(13)
    for _ in range(1000):
        n = rng.randint(0, 40)
        adj = random_graph(rng, n)
        demands = [rng.randint(0, rng.choice([1, 4, 15])) for _ in range(n)]
        for mode in (kernels.HWF, kernels.MDF, kernels.HWF_TIE_MDF):
            assert pure.greedy_rounds(list(demands), list(adj), mode) == \
                reference.greedy_rounds(demands, adj, mode)


@needs_compiled
def test_backend_parity_mis():
    rng = random.Random(11)
    for _ in range(2000):
        adj = random_graph(rng, rng.randint(0, 18))
        assert sorted(compiled.maximal_independent_sets(adj)) == \
            sorted(pure.maximal_independent_sets(adj))


@needs_compiled
def test_backend_parity_greedy():
    rng = random.Random(12)
    for _ in range(2000):
        n = rng.randint(0, 18)
        adj = random_graph(rng, n)
        demands = [rng.randint(0, 15) for _ in range(n)]
        for mode in (kernels.HWF, kernels.MDF, kernels.HWF_TIE_MDF):
            assert compiled.greedy_rounds(list(demands), list(adj), mode) == \
                pure.greedy_rounds(list(demands), list(adj), mode)


@needs_compiled
def test_dispatcher_uses_compiled_below_limit():
    assert kernels.backend() == "compiled"
    # beyond 64 vertices only the pure twin can run; results must agree on
    # a graph representable both ways
    adj = [0] * 70
    for a, b in combinations(range(70), 2):
        if (a * 31 + b) % 7 == 0:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    big = kernels.maximal_independent_sets(adj)
    assert sorted(big) == sorted(pure.maximal_independent_sets(adj))


def test_greedy_empty():
    assert kernels.greedy_rounds([], [], kernels.HWF) == []
    assert kernels.greedy_rounds([0, 0], [2, 1], kernels.MDF) == []


def test_mis_empty_graph():
    assert kernels.maximal_independent_sets([]) == [0]
    assert kernels.maximal_independent_sets([0, 0]) == [0b11]
