"""Pure-Python bitset kernels.

Twin of the compiled extension ``mtrsched._ckernels``: same inputs, same
outputs, bit for bit.  Vertices are identified with bit positions; a set of
vertices is an int bitmask.  This module handles graphs of any size
(Python ints are unbounded); the compiled twin is limited to 64 vertices.
"""

from __future__ import annotations

HWF = 0
MDF = 1
HWF_TIE_MDF = 2


def maximal_independent_sets(adj: list[int]) -> list[int]:
    """All maximal independent sets of the graph with adjacency bitmasks
    ``adj``, returned as bitmasks in no particular order.

    Bron-Kerbosch with pivoting, run on the complement graph (maximal
    independent sets are exactly the maximal cliques of the complement).
    """
    n = len(adj)
    if n == 0:
        return [0]
    full = (1 << n) - 1
    # complement adjacency: non[v] = vertices compatible with v
    non = [~adj[v] & full & ~(1 << v) for v in range(n)]
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        # pivot on the vertex of P|X covering most of P
        m = p | x
        best_cov = -1
        best = 0
        while m:
            b = m & -m
            m ^= b
            cov = (p & non[b.bit_length() - 1]).bit_count()
            if cov > best_cov:
                best_cov = cov
                best = b.bit_length() - 1
        cand = p & ~non[best]
        while cand:
            b = cand & -cand
            cand ^= b
            nv = non[b.bit_length() - 1]
            expand(r | b, p & nv, x & nv)
            p ^= b
            x |= b

    expand(0, full, 0)
    return out


def greedy_rounds(demands: list[int], adj: list[int],
                  mode: int) -> list[tuple[int, int]]:
    """Greedy maximal-matching rounds over links with positive residual
    demand.

    One persistent list holds the active links, initially in ascending
    index order.  Each round stable-sorts it by the mode's key (HWF:
    residual descending; MDF: residual-graph degree descending; hybrid:
    residual descending, then degree descending), so key ties keep their
    relative order from the previous round.  The sorted list is scanned
    once, adding every conflict-free link; the matching then gets the
    minimum residual among its members, which is subtracted, and
    exhausted links leave the list in place.
    Returns [(member_bitmask, slots), ...].

    Each round costs time linear in the active links: the sorts use
    C-level keys (``reverse=True`` keeps ties in order, as a negated key
    would), the hybrid key is two stable sorts, and residual degrees are
    kept incrementally by removing the links exhausted in each round.
    Around it, a greedy solve builds the conflict graph and decodes the
    rounds, and callers usually validate and serialise the schedule; that
    work now outweighs the kernel, so a faster kernel speeds up only part
    of a greedy pipeline (perfbench/ measures the shares).
    """
    n = len(demands)
    residual = list(demands)
    active = [v for v in range(n) if residual[v] > 0]
    by_residual = residual.__getitem__
    if mode != HWF:
        amask = 0
        for v in active:
            amask |= 1 << v
        deg = [(adj[v] & amask).bit_count() for v in range(n)]
        by_degree = deg.__getitem__
    rounds: list[tuple[int, int]] = []
    while active:
        if mode == HWF:
            active.sort(key=by_residual, reverse=True)
        elif mode == MDF:
            active.sort(key=by_degree, reverse=True)
        else:
            active.sort(key=by_degree, reverse=True)
            active.sort(key=by_residual, reverse=True)
        sel = 0
        members = []
        for v in active:
            if adj[v] & sel == 0:
                sel |= 1 << v
                members.append(v)
        slots = min(map(by_residual, members))
        rounds.append((sel, slots))
        gone = 0
        for v in members:
            residual[v] -= slots
            if not residual[v]:
                gone |= 1 << v
        active = [v for v in active if residual[v] > 0]
        if mode != HWF:
            for v in active:
                deg[v] -= (adj[v] & gone).bit_count()
    return rounds
