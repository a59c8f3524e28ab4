"""Exact schedulers: rational LP over all maximal matchings, integer
branch-and-bound on top of it, and the all-outgoing-links relaxation.

Everything here runs on exact rational arithmetic (fractions.Fraction);
there are no floating-point tolerances anywhere.  Exactness is not cheap:
the Fraction simplex takes nearly all of an exact solve's time, far more
than enumeration or the greedy seeding (perfbench/ measures the shares).

The solvers stay on bitmasks from enumeration to witness and decode
links or nodes only for the solution they return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import heuristics
from .conflict import (DEFAULT_LINK_CAP, DEFAULT_NODE_CAP, _mask_bits,
                       build_conflict_graph, enumerate_maximal_matching_masks,
                       enumerate_mis_node_masks, mask_to_links)
from .model import Instance, Link
from .schedule import Schedule, ScheduleEntry

__all__ = [
    "LpSolution",
    "IlpSolution",
    "MisSolution",
    "solve_lp",
    "solve_ilp",
    "reduce_node_demands",
    "solve_mis_suboptimal",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LpSolution:
    """Optimal fractional slot allocation over the maximal matchings."""

    objective: Fraction
    allocation: tuple[Fraction, ...]
    matchings: tuple[frozenset[Link], ...]


@dataclass(frozen=True)
class IlpSolution:
    """Optimal integer slot allocation and the schedule it induces.

    lp_objective carries the root fractional relaxation; it differs from
    the integer objective exactly when the relaxation is not integral.
    """

    objective: int
    allocation: tuple[int, ...]
    matchings: tuple[frozenset[Link], ...]
    schedule: Schedule
    lp_objective: Fraction = _ZERO


@dataclass(frozen=True)
class MisSolution:
    """Optimum of the restricted problem where a transmitting node must
    use all its outgoing links at once."""

    objective: Fraction
    allocation: tuple[Fraction, ...]
    node_sets: tuple[frozenset[int], ...]


class _Infeasible(Exception):
    pass


def _simplex_min_ge(cost: list[Fraction], rows: list[list[Fraction]],
                    rhs: list[Fraction]) -> tuple[Fraction, list[Fraction]]:
    """Minimize cost.x subject to rows.x >= rhs, x >= 0, exactly.

    Full-tableau two-phase simplex.  Entering column by most negative
    reduced cost, switching to Bland's rule after a pivot budget so
    degenerate tableaus cannot cycle.  Raises _Infeasible when the
    constraints admit no solution.
    """
    m = len(rows)
    n = len(cost)
    if m == 0:
        return _ZERO, [_ZERO] * n

    # a.x >= b  becomes  a.x - s = b.  Rows with b <= 0 are negated so the
    # surplus variable itself can start basic; rows with b > 0 get an
    # artificial variable instead.
    ncols = n + m
    art_of_row: dict[int, int] = {}
    for i in range(m):
        if rhs[i] > 0:
            art_of_row[i] = ncols
            ncols += 1
    tab: list[list[Fraction]] = []
    b: list[Fraction] = []
    basis: list[int] = []
    for i in range(m):
        row = [_ZERO] * ncols
        if rhs[i] > 0:
            for j in range(n):
                row[j] = rows[i][j]
            row[n + i] = -_ONE
            row[art_of_row[i]] = _ONE
            tab.append(row)
            b.append(rhs[i])
            basis.append(art_of_row[i])
        else:
            for j in range(n):
                row[j] = -rows[i][j]
            row[n + i] = _ONE
            tab.append(row)
            b.append(-rhs[i])
            basis.append(n + i)

    def pivot(pr: int, pc: int, red: list[Fraction]) -> None:
        prow = tab[pr]
        inv = _ONE / prow[pc]
        if inv != 1:
            for k in range(ncols):
                if prow[k]:
                    prow[k] *= inv
            b[pr] *= inv
        for r in range(len(tab)):
            if r == pr:
                continue
            factor = tab[r][pc]
            if factor:
                orow = tab[r]
                for k in range(ncols):
                    if prow[k]:
                        orow[k] -= factor * prow[k]
                b[r] -= factor * b[pr]
        factor = red[pc]
        if factor:
            for k in range(ncols):
                if prow[k]:
                    red[k] -= factor * prow[k]
        basis[pr] = pc

    def run_phase(c: list[Fraction], banned_from: int) -> None:
        red = list(c)
        for i in range(len(tab)):
            cb = c[basis[i]]
            if cb:
                row = tab[i]
                for k in range(ncols):
                    if row[k]:
                        red[k] -= cb * row[k]
        budget = 3 * (ncols + len(tab)) + 10
        pivots = 0
        while True:
            pc = -1
            if pivots < budget:
                best = _ZERO
                for j in range(banned_from):
                    if red[j] < best:
                        best = red[j]
                        pc = j
            else:  # Bland's rule: guaranteed finite
                for j in range(banned_from):
                    if red[j] < 0:
                        pc = j
                        break
            if pc < 0:
                return
            pr = -1
            ratio = None
            for i in range(len(tab)):
                a = tab[i][pc]
                if a > 0:
                    r = b[i] / a
                    if ratio is None or r < ratio or (r == ratio and basis[i] < basis[pr]):
                        ratio = r
                        pr = i
            if pr < 0:
                raise RuntimeError("unbounded program; covering LPs cannot do this")
            pivot(pr, pc, red)
            pivots += 1

    n_art = ncols - n - m
    if n_art:
        phase1_cost = [_ZERO] * (n + m) + [_ONE] * n_art
        run_phase(phase1_cost, ncols)
        total = sum((b[i] for i in range(len(tab)) if basis[i] >= n + m), _ZERO)
        if total != 0:
            raise _Infeasible
        # drive leftover (degenerate, value-0) artificials out of the basis
        for i in range(len(tab) - 1, -1, -1):
            if basis[i] < n + m:
                continue
            row = tab[i]
            for j in range(n + m):
                if row[j]:
                    pivot(i, j, [_ZERO] * ncols)
                    break
            else:  # redundant constraint
                del tab[i]
                del b[i]
                del basis[i]

    phase2_cost = list(cost) + [_ZERO] * (ncols - n)
    run_phase(phase2_cost, n + m)

    x = [_ZERO] * n
    for i in range(len(tab)):
        if basis[i] < n:
            x[basis[i]] = b[i]
    objective = sum((cost[j] * x[j] for j in range(n) if x[j]), _ZERO)
    return objective, x


def _covering_lp(col_masks: list[int], n_rows: int, demands: Sequence[int],
                 bounds: dict[int, tuple[int, int | None]] | None = None,
                 ) -> tuple[Fraction, list[Fraction]] | None:
    """min sum(u) s.t. coverage >= demands plus optional per-column integer
    bounds; returns None when infeasible."""
    k = len(col_masks)
    rows = []
    rhs = []
    for i in range(n_rows):
        rows.append([_ONE if (col_masks[j] >> i) & 1 else _ZERO for j in range(k)])
        rhs.append(Fraction(demands[i]))
    if bounds:
        for j, (lo, hi) in sorted(bounds.items()):
            if hi is not None and lo > hi:
                return None
            if lo > 0:
                row = [_ZERO] * k
                row[j] = _ONE
                rows.append(row)
                rhs.append(Fraction(lo))
            if hi is not None:
                row = [_ZERO] * k
                row[j] = -_ONE
                rows.append(row)
                rhs.append(Fraction(-hi))
    try:
        return _simplex_min_ge([_ONE] * k, rows, rhs)
    except _Infeasible:
        return None


def solve_lp(instance: Instance, cap: int = DEFAULT_LINK_CAP) -> LpSolution:
    """Exact fractional optimum of the covering program over all maximal
    matchings: the minimum airtime if slots were divisible."""
    masks = enumerate_maximal_matching_masks(
        build_conflict_graph(instance.network), cap)
    matchings = tuple(mask_to_links(instance.network, m) for m in masks)
    n = len(instance.network.links)
    if n == 0:
        return LpSolution(_ZERO, tuple(_ZERO for _ in masks), matchings)
    obj, x = _covering_lp(masks, n, instance.demands)
    return LpSolution(obj, tuple(x), matchings)


def solve_ilp(instance: Instance, cap: int = DEFAULT_LINK_CAP) -> IlpSolution:
    """Minimum integer airtime, by depth-first branch-and-bound with the
    rational LP as bound.

    The best greedy rounds (HWF, MDF, hybrid; first on ties), run on the
    solve's one conflict graph, seed the incumbent.  Branching fixes the
    matching with the largest fractional allocation (lowest index on
    ties), exploring the rounded-up branch first.  The search is fully
    deterministic, so repeated runs return the identical witness.
    """
    net = instance.network
    cg = build_conflict_graph(net)
    masks = enumerate_maximal_matching_masks(cg, cap)
    matchings = tuple(mask_to_links(net, m) for m in masks)
    k = len(masks)
    n = cg.n_links
    demands = instance.demands
    if n == 0 or not any(demands):
        return IlpSolution(0, tuple([0] * k), matchings, Schedule())

    adj = cg.masks
    mask_index = {m: j for j, m in enumerate(masks)}
    best_total = None
    best_alloc = None
    for mode in (heuristics.HWF, heuristics.MDF, heuristics.HWF_TIE_MDF):
        rounds = heuristics.greedy_rounds(demands, adj, mode)
        total = sum(slots for _, slots in rounds)
        if best_total is None or total < best_total:
            best_total = total
            best_alloc = [0] * k
            for ext, slots in rounds:  # extend to a maximal matching
                for v in range(n):
                    if not (ext >> v) & 1 and adj[v] & ext == 0:
                        ext |= 1 << v
                best_alloc[mask_index[ext]] += slots

    root_lp = _ZERO
    # depth-first stack of per-column (lo, hi) bound maps; the entry pushed
    # last is explored first, so push the floor branch before the ceil one
    stack: list[dict[int, tuple[int, int | None]]] = [{}]
    while stack:
        bounds = stack.pop()
        res = _covering_lp(masks, n, demands, bounds)
        if res is None:
            continue
        obj, x = res
        if not bounds:
            root_lp = obj
        if math.ceil(obj) >= best_total:
            continue
        frac = [(j, v) for j, v in enumerate(x) if v.denominator != 1]
        if not frac:
            best_total = int(sum(x))
            best_alloc = [int(v) for v in x]
            continue
        j, v = max(frac, key=lambda p: (p[1], -p[0]))
        lo, hi = bounds.get(j, (0, None))
        down = dict(bounds)
        down[j] = (lo, math.floor(v))
        stack.append(down)
        up = dict(bounds)
        up[j] = (math.ceil(v), hi)
        stack.append(up)

    # links are in canonical order, so ascending bits give sorted tuples
    schedule = Schedule(tuple(
        ScheduleEntry(tuple(net.links[b] for b in _mask_bits(masks[j])), u)
        for j, u in enumerate(best_alloc) if u > 0))
    return IlpSolution(best_total, tuple(best_alloc), matchings, schedule,
                       root_lp)


def reduce_node_demands(instance: Instance) -> tuple[int, ...]:
    """Per-node demand under the all-outgoing-links rule: the maximum
    demand over each node's outgoing links (0 for nodes without links)."""
    t = [0] * instance.network.node_count
    for (tx, _), d in zip(instance.network.links, instance.demands):
        if d > t[tx - 1]:
            t[tx - 1] = d
    return tuple(t)


def solve_mis_suboptimal(instance: Instance,
                         cap: int = DEFAULT_NODE_CAP) -> MisSolution:
    """Exact optimum of the restricted scheduling problem where a
    transmitting node drives all its outgoing links for the whole slot:
    cover the per-node demands with maximal independent node sets."""
    net = instance.network
    masks = enumerate_mis_node_masks(net, cap)
    # every node lies in some maximal independent set, so the covering LP
    # is always feasible and _covering_lp never returns None here
    obj, x = _covering_lp(masks, net.node_count, reduce_node_demands(instance))
    node_sets = tuple(frozenset(b + 1 for b in _mask_bits(m)) for m in masks)
    return MisSolution(obj, tuple(x), node_sets)
