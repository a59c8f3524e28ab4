"""Exact schedulers: rational LP over all maximal matchings, integer
branch-and-bound on top of it, and the all-outgoing-links relaxation.

Everything here is exact: the LP data are ints, the simplex divides
only through fractions.Fraction and keeps every whole-number entry as an
int, and every LP result is a Fraction; there are no floating-point
tolerances anywhere.  Exactness is not cheap:
in a solve that runs the LP, the rational simplex takes nearly all of the
time, far more than enumeration or the greedy seeding (perfbench/
measures the shares).

Branch-and-bound's root ends in one of three ways, decided in one
place: on the node bound of ``metrics.lower_bounds`` when the best
greedy meets it; on the root LP's value, priced by column generation on
the dual of the greedy seed's columns (Gilmore & Gomory 1961; Dantzig &
Wolfe 1960), when that rounds up to the incumbent; else on its own full
LP.  An LP's optimal value is unique, so no answer, allocation or
witness changes.

Seeding the incumbent stops at the first greedy whose total meets the
node bound.  No schedule is shorter than that bound, so no later greedy
could be a strict minimum, and the seed is the first of equal totals
either way: it, the root's outcome and the witness are those of running
all three.

The solvers stay on bitmasks from enumeration to witness and decode
links or nodes only for the solution they return.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import heuristics
from .conflict import (DEFAULT_NODE_CAP, _members, build_conflict_graph,
                       enumerate_maximal_matching_masks,
                       enumerate_mis_node_masks, mask_to_links)
from .metrics import _node_bound
from .model import Instance, Link
from .schedule import Schedule

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
    the integer objective exactly when the root LP lies below the optimum,
    which an integral LP can too (unit-demand K4: LP 3, optimum 4).
    """

    objective: int
    allocation: tuple[int, ...]
    matchings: tuple[frozenset[Link], ...]
    schedule: Schedule
    lp_objective: Fraction


@dataclass(frozen=True)
class MisSolution:
    """Optimum of the restricted problem where a transmitting node must
    use all its outgoing links at once."""

    objective: Fraction
    allocation: tuple[Fraction, ...]
    node_sets: tuple[frozenset[int], ...]


def _simplex_min_ge(cost: list[int], rows: list[list[int]],
                    rhs: list[int]) -> tuple[Fraction, list[Fraction]] | None:
    """Minimize cost.x subject to rows.x >= rhs, x >= 0, exactly; None
    when the constraints admit no solution.

    The data are ints (Fractions work too).  The pivot and the ratio test
    divide through Fraction, and a pivot stores every whole-number result
    back as an int, so the tableau stays in int arithmetic wherever its
    values allow.  An int compares equal to the Fraction it replaces, so
    the pivot rule sees the same values and the outputs do not change;
    the objective and x come back as Fractions.

    Two-phase simplex on one augmented tableau.  Its m constraint rows
    span the n structural columns, one surplus column per row, one
    artificial column per row with rhs > 0, and the right-hand side as the
    last column; below them sit the phase-2 and the phase-1 reduced-cost
    rows, which every pivot updates with the rest (the phase-1 row until
    phase 1 ends).  Row i reads
    a.x - s_i + t_i = b (artificial t_i basic) when b > 0, else
    -a.x + s_i = -b (surplus s_i basic).  Every row owns a surplus column
    no other row touches, so the rows are independent: a basic artificial
    left after phase 1 always has a nonzero structural or surplus entry
    to pivot on.

    Entering column: most negative reduced cost, lowest index on ties,
    switching to Bland's rule (lowest negative index) after
    3*(columns+m)+10 pivots per phase so degenerate tableaus cannot
    cycle.  Leaving row: minimum ratio, lower basic column on ties.
    """
    m = len(rows)
    n = len(cost)
    arts = [i for i in range(m) if rhs[i] > 0]
    ncols = n + m + len(arts)
    tab: list[list[int | Fraction]] = []
    basis: list[int] = []
    for i in range(m):
        pos = rhs[i] > 0
        row = [a if pos else -a for a in rows[i]] + [0] * (ncols - n + 1)
        row[n + i] = -1 if pos else 1
        row[-1] = rhs[i] if pos else -rhs[i]
        tab.append(row)
        basis.append(n + i)
    for k, i in enumerate(arts, n + m):
        tab[i][k] = 1
        basis[i] = k
    phase2 = list(cost) + [0] * (ncols - n + 1)
    phase1 = [0] * (n + m) + [1] * len(arts) + [0]
    for i in arts:
        for k, a in enumerate(tab[i]):
            if a:
                phase1[k] -= a
    tab += [phase2, phase1]

    def pivot(pr: int, pc: int) -> None:
        prow = tab[pr]
        nz = [k for k, a in enumerate(prow) if a]
        inv = _ONE / prow[pc]
        if inv != 1:
            for k in nz:
                v = prow[k] * inv
                prow[k] = v.numerator if v.denominator == 1 else v
        for row in tab:
            factor = row[pc]
            if factor and row is not prow:
                for k in nz:
                    v = row[k] - factor * prow[k]
                    row[k] = v.numerator if v.denominator == 1 else v
        basis[pr] = pc

    def run_phase(red: list[int | Fraction], banned_from: int) -> None:
        budget = 3 * (ncols + m) + 10
        for pivots in itertools.count():
            neg = [j for j in range(banned_from) if red[j] < 0]
            if not neg:
                return
            # Bland's rule once over budget: guaranteed finite
            pc = min(neg, key=red.__getitem__) if pivots < budget else neg[0]
            ratios = [(Fraction(tab[i][-1], tab[i][pc]), basis[i], i)
                      for i in range(m) if tab[i][pc] > 0]
            if not ratios:
                raise RuntimeError("unbounded program; covering LPs cannot do this")
            pivot(min(ratios)[2], pc)

    run_phase(phase1, ncols)
    if tab.pop()[-1]:  # phase 1's row ends in minus the artificials' sum
        return None
    # drive leftover (degenerate, value-0) artificials out of the basis
    for i in range(m - 1, -1, -1):
        if basis[i] >= n + m:
            pivot(i, next(j for j in range(n + m) if tab[i][j]))
    run_phase(phase2, n + m)

    x = [_ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][-1])
    return Fraction(-phase2[-1]), x


def _covering_lp(col_masks: list[int], demands: Sequence[int],
                 bounds: dict[int, tuple[int, int | None]] | None = None,
                 ) -> tuple[Fraction, list[Fraction]] | None:
    """min sum(u) s.t. coverage >= demands plus optional per-column integer
    bounds, as int data; None when infeasible, which no caller's program
    is: every link (node) lies in a maximal matching (independent set),
    and a B&B child of a column at parent value v sets lo = ceil(v) <= hi,
    which only adds coverage, or hi = floor(v) >= lo, made up by the other
    columns at their integer upper bounds, which cover d - v, hence
    d - floor(v)."""
    k = len(col_masks)
    rhs = list(demands)
    rows = [[(mask >> i) & 1 for mask in col_masks] for i in range(len(rhs))]
    if bounds:
        for j, (lo, hi) in sorted(bounds.items()):
            if lo > 0:
                row = [0] * k
                row[j] = 1
                rows.append(row)
                rhs.append(lo)
            if hi is not None:
                row = [0] * k
                row[j] = -1
                rows.append(row)
                rhs.append(-hi)
    return _simplex_min_ge([1] * k, rows, rhs)


def _priced_root(masks: list[int], demands: Sequence[int],
                 best_alloc: list[int], best_total: int) -> Fraction | None:
    """The root LP's value when its rounded-up value reaches best_total,
    else None, by column generation on the dual from the greedy seed's
    columns.

    The restricted dual, max d.y s.t. sum of y over each column's links
    <= 1, y >= 0, has every rhs negative as a >= program, so it needs no
    artificials.  It drops constraints of the full dual, so its value is
    never below the LP's: once its ceiling falls below best_total the
    full LP can only do the same.  Otherwise the most violated matching
    (the first of equal sums) joins, until none is violated and the value
    is the LP's own.  Columns are priced in rather than all taken at once
    because the count of maximal matchings grows exponentially: at the
    link cap it reaches tens of thousands, while the restricted duals
    stay a few rows each."""
    n = len(demands)
    cost = [-d for d in demands]

    def row(mask: int) -> list[int]:
        return [-(mask >> i & 1) for i in range(n)]

    rows = [row(m) for m, u in zip(masks, best_alloc) if u]
    while True:
        # never None: y = 0 is feasible; bounded, as the seed covers d
        neg, y = _simplex_min_ge(cost, rows, [-1] * len(rows))
        if math.ceil(-neg) < best_total:
            return None
        # price in ints: y over its common denominator
        den = math.lcm(*(v.denominator for v in y))
        support = [(1 << i, v.numerator * (den // v.denominator))
                   for i, v in enumerate(y) if v]
        sums = [sum(w for bit, w in support if m & bit) for m in masks]
        top = max(sums)
        if top <= den:
            return -neg
        rows.append(row(masks[sums.index(top)]))


def solve_lp(instance: Instance) -> LpSolution:
    """Exact fractional optimum of the covering program over all maximal
    matchings: the minimum airtime if slots were divisible."""
    masks = enumerate_maximal_matching_masks(
        build_conflict_graph(instance.network))
    matchings = tuple(mask_to_links(instance.network, m) for m in masks)
    obj, x = _covering_lp(masks, instance.demands)
    return LpSolution(obj, tuple(x), matchings)


def solve_ilp(instance: Instance) -> IlpSolution:
    """Minimum integer airtime, by depth-first branch-and-bound with the
    rational LP as bound.

    The best greedy rounds (HWF, MDF, hybrid; first on ties), run on the
    solve's one conflict graph, seed the incumbent.  Seeding stops once
    the best total meets the node bound of ``metrics.lower_bounds``: no
    valid schedule is shorter, so a later greedy could only tie, and a tie
    never replaces the first; the seed is that of all three.  Branching
    fixes the matching with the largest fractional allocation (lowest
    index on ties), exploring the rounded-up branch first.  A popped node
    whose parent's LP bound already reaches the incumbent is dropped
    before its LP is solved: a child only adds a bound row, so its LP can
    be no lower and solving it could only end in the same prune.

    The root ends in one of three ways, decided in one expression: the
    best greedy meets the node bound, which no fractional allocation
    undercuts, so that bound is the root LP's value; or _priced_root
    prices the value from the seed's columns and it rounds up to the
    incumbent; or the root alone enters the search, which solves its LP.
    A root ended either of the first two ways would have been pruned
    right after its LP solve, which leaves the incumbent as it is, and
    the optimal value is the same whichever method finds it, so the
    answer, allocation and witness are those of solving the root.  The
    search is fully deterministic, so repeated runs return the identical
    witness.
    """
    net = instance.network
    cg = build_conflict_graph(net)
    masks = enumerate_maximal_matching_masks(cg)
    matchings = tuple(mask_to_links(net, m) for m in masks)
    k = len(masks)
    n = cg.n_links
    demands = instance.demands
    adj = cg.masks
    mask_index = {m: j for j, m in enumerate(masks)}
    node_bound = _node_bound(net, demands)
    # no schedule undercuts the node bound, so a later greedy could only tie
    best_total = None
    for mode in (heuristics.HWF, heuristics.MDF, heuristics.HWF_TIE_MDF):
        r = heuristics.greedy_rounds(demands, adj, mode)
        total = sum(slots for _, slots in r)
        if best_total is None or total < best_total:
            rounds, best_total = r, total
            if total == node_bound:
                break
    best_alloc = [0] * k
    for ext, slots in rounds:  # extend to a maximal matching
        for v in range(n):
            if adj[v] & ext == 0:  # members pass too: no self bits
                ext |= 1 << v
        best_alloc[mask_index[ext]] += slots

    # the root ends on the node bound, on its priced value, or on its LP
    root_lp = (Fraction(node_bound) if best_total == node_bound
               else _priced_root(masks, demands, best_alloc, best_total))
    # depth-first stack of (per-column (lo, hi) bound map, ceil of the
    # parent's LP objective); the entry pushed last is explored first, so
    # push the floor branch before the ceil one
    stack: list[tuple[dict[int, tuple[int, int | None]], int]] = (
        [({}, 0)] if root_lp is None else [])
    while stack:
        bounds, lb = stack.pop()
        if lb >= best_total:  # a child's LP is never below its parent's
            continue
        # never None: every node's program is feasible (see _covering_lp)
        obj, x = _covering_lp(masks, demands, bounds)
        if not bounds:
            root_lp = obj
        lb = math.ceil(obj)
        if lb >= best_total:
            continue
        frac = [j for j, v in enumerate(x) if v.denominator != 1]
        if not frac:
            best_total = int(sum(x))
            best_alloc = [int(v) for v in x]
            continue
        j = max(frac, key=x.__getitem__)  # the first maximum: lowest index
        lo, hi = bounds.get(j, (0, None))
        down = dict(bounds)
        down[j] = (lo, math.floor(x[j]))
        stack.append((down, lb))
        up = dict(bounds)
        up[j] = (math.ceil(x[j]), hi)
        stack.append((up, lb))

    schedule = heuristics._schedule(
        net.links, [(masks[j], u) for j, u in enumerate(best_alloc) if u > 0])
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
    obj, x = _covering_lp(masks, reduce_node_demands(instance))
    nodes = range(1, net.node_count + 1)
    node_sets = tuple(frozenset(_members(m, nodes)) for m in masks)
    return MisSolution(obj, tuple(x), node_sets)
