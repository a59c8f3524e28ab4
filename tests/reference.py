"""Straightforward reference implementations that the fast paths of the
package must match exactly: the pairwise conflict-mask build, maximal
independent sets by filtering all vertex subsets, the directed cuts that
the maximal matchings must equal, the greedy kernel with
explicit sort keys and per-round degree recomputation, schedule
validation by pairwise conflict scan and per-link coverage sums,
the Fraction two-phase simplex as it was before its rewrite into one
augmented tableau, and the branch-and-bound loop as it was before it
dropped nodes on their parent's bound.
"""

import math
from fractions import Fraction

from mtrsched import exact, heuristics
from mtrsched.conflict import (build_conflict_graph,
                               enumerate_maximal_matching_masks, mask_to_links)
from mtrsched.heuristics import HWF, MDF
from mtrsched.metrics import Violation
from mtrsched.schedule import Schedule, ScheduleEntry


def conflict_masks(network):
    """Adjacency bitmasks from the pairwise rule: (i,j) and (k,l) conflict
    iff i == l or j == k."""
    links = network.links
    n = len(links)
    masks = [0] * n
    for a in range(n):
        i, j = links[a]
        for b in range(a + 1, n):
            k, l = links[b]
            if i == l or j == k:
                masks[a] |= 1 << b
                masks[b] |= 1 << a
    return masks


def maximal_independent_sets(adj):
    """Maximal independent sets as sorted bitmasks: filter all subsets."""
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


def directed_cuts(network):
    """Every link set T -> V \\ T, one per node set T.  A link set is a
    matching iff its transmitters and receivers are disjoint, so each cut
    is a matching and the maximal matchings are the inclusion-maximal cuts."""
    return {frozenset((a, b) for a, b in network.links
                      if t >> (a - 1) & 1 and not t >> (b - 1) & 1)
            for t in range(1 << network.node_count)}


def greedy_rounds(demands, adj, mode):
    """Greedy rounds: stable sorts on negated keys, degrees recomputed
    over the active links every round."""
    n = len(demands)
    residual = list(demands)
    active = [v for v in range(n) if residual[v] > 0]
    rounds = []
    while active:
        if mode == HWF:
            active.sort(key=lambda v: -residual[v])
        else:
            amask = 0
            for v in active:
                amask |= 1 << v
            deg = [(adj[v] & amask).bit_count() for v in range(n)]
            if mode == MDF:
                active.sort(key=lambda v: -deg[v])
            else:
                active.sort(key=lambda v: (-residual[v], -deg[v]))
        sel = 0
        members = []
        for v in active:
            if adj[v] & sel == 0:
                sel |= 1 << v
                members.append(v)
        slots = min(residual[v] for v in members)
        rounds.append((sel, slots))
        for v in members:
            residual[v] -= slots
        active = [v for v in active if residual[v] > 0]
    return rounds


def greedy(instance, mode):
    """A greedy schedule built from the reference masks and kernel."""
    links = instance.network.links
    if not links or not any(instance.demands):
        return Schedule()
    rounds = greedy_rounds(list(instance.demands),
                           conflict_masks(instance.network), mode)
    return Schedule(tuple(
        ScheduleEntry(tuple(links[v] for v in range(len(links)) if mask >> v & 1),
                      slots)
        for mask, slots in rounds))


def validate_schedule(instance, schedule):
    """Violations in the documented order: per entry bad slots, unknown
    links and pairwise R3 conflicts, then under-covered links."""
    net = instance.network
    out = []
    for e_idx, entry in enumerate(schedule.entries):
        if entry.slots <= 0:
            out.append(Violation(
                "bad-slots",
                f"entry {e_idx} has non-positive slot count {entry.slots}",
                links=entry.links))
        known = []
        for link in entry.links:
            if not net.has_link(link):
                out.append(Violation(
                    "unknown-link",
                    f"entry {e_idx} uses link {link} absent from the network",
                    links=(link,)))
            else:
                known.append(link)
        for x in range(len(known)):
            i, j = known[x]
            for y in range(x + 1, len(known)):
                k, l = known[y]
                if i == l or j == k:
                    node = i if i == l else j
                    out.append(Violation(
                        "conflict",
                        f"entry {e_idx}: links {known[x]} and {known[y]} make "
                        f"node {node} transmit and receive at once (rule R3)",
                        links=(known[x], known[y]), node=node, rule="R3"))
    for link, demand in zip(net.links, instance.demands):
        covered = schedule.coverage(link)
        if covered < demand:
            out.append(Violation(
                "under-coverage",
                f"link {link} gets {covered} of {demand} demanded slots",
                links=(link,)))
    return out


_ZERO = Fraction(0)
_ONE = Fraction(1)


class _Infeasible(Exception):
    pass


def _raising_simplex_min_ge(cost: list[Fraction], rows: list[list[Fraction]],
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


def _simplex_min_ge(cost, rows, rhs):
    """The copy above under the package's contract: None, not an
    exception, when the constraints admit no solution."""
    try:
        return _raising_simplex_min_ge(cost, rows, rhs)
    except _Infeasible:
        return None


def solve_ilp_unpruned(instance):
    """exact.solve_ilp as it was before pruning on the parent's bound:
    every popped node's LP is solved (through exact._covering_lp, so a
    test can count the solves) before the incumbent bound is applied."""
    net = instance.network
    cg = build_conflict_graph(net)
    masks = enumerate_maximal_matching_masks(cg)
    matchings = tuple(mask_to_links(net, m) for m in masks)
    k = len(masks)
    n = cg.n_links
    demands = instance.demands
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
    stack = [{}]
    while stack:
        bounds = stack.pop()
        # never None: every node's program is feasible (see _covering_lp)
        obj, x = exact._covering_lp(masks, n, demands, bounds)
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

    schedule = heuristics._schedule(
        net.links, [(masks[j], u) for j, u in enumerate(best_alloc) if u > 0])
    return exact.IlpSolution(best_total, tuple(best_alloc), matchings,
                             schedule, root_lp)
