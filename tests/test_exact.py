import math
import random
import sys
from fractions import Fraction

import pytest

from mtrsched import conflict, exact, heuristics
from mtrsched.conflict import SizeLimitError
from mtrsched.exact import (_simplex_min_ge, reduce_node_demands, solve_ilp,
                            solve_lp, solve_mis_suboptimal)
from mtrsched.heuristics import hwf, hwf_tiebreak_mdf, mdf
from mtrsched.metrics import lower_bounds, validate_schedule
from mtrsched.model import (Instance, Network, _random_demands,
                            _random_network, gen_complete, gen_demands,
                            gen_grid, gen_linear, gen_random, gen_ring)
from mtrsched.schedule import schedule_to_json

from helpers import all_networks, random_instance
from reference import (_simplex_min_ge as reference_simplex, directed_cuts,
                       maximal_independent_sets, solve_ilp_unpruned,
                       sperner_optimum)

F = Fraction

# complete graphs with equal demands and a fractional root LP, as
# (n, demand, lp_objective, objective); on K4 the integer optimum
# exceeds the rounded-up root LP
FRACTIONAL_ROOT_FIXTURES = [(4, 1, F(3), 4), (4, 3, F(9), 10), (5, 2, F(20, 3), 7)]


def fr(rows):
    return [[F(x) for x in row] for row in rows]


def _rational_lp_corpus():
    """1,202 seeded rational LPs: infeasible ones, m = 0, duplicate rows,
    Beale's program (it cycles under the most-negative rule and needs the
    Bland fallback) and min x st x <= 1, 2x >= 2, which ends phase 1 with
    an artificial basic at zero that must be driven out."""
    rng = random.Random(2025)

    def q(lo, hi):
        if rng.random() < 0.3:
            return F(0)
        return F(rng.randint(lo, hi), rng.choice((1, 1, 2, 3)))

    cases = [
        ([F(-3, 4), F(150), F(-1, 50), F(6)],
         fr([[F(-1, 4), 60, F(1, 25), -9], [F(-1, 2), 90, F(1, 50), -3],
             [0, 0, -1, 0]]),
         [F(0), F(0), F(-1)]),
        ([F(1)], fr([[-1], [2]]), [F(-1), F(2)]),
    ]
    for _ in range(1200):
        m = rng.randint(0, 6)
        n = rng.randint(0, 6)
        rows = [[q(-3, 4) for _ in range(n)] for _ in range(m)]
        rhs = [q(-4, 6) for _ in range(m)]
        for _ in range(rng.randint(0, 2) if m else 0):
            i = rng.randrange(len(rows))
            rows.append(list(rows[i]))
            rhs.append(rhs[i])
        cases.append(([q(0, 4) for _ in range(n)], rows, rhs))
    return cases


def _degenerate_covering_family():
    """301 LPs with a tight row a.x <= u and 2-3 scaled copies
    k.a.x >= k.u, shuffled: phase 1 ends with several artificials basic
    at zero, so the drive-out's row order and column choice both show in
    the pivot sequence.  The first is min x st x <= 1, 2x >= 2, 3x >= 3."""
    rng = random.Random(2026)
    cases = [([F(1)], fr([[-1], [2], [3]]), [F(-1), F(2), F(3)])]
    for _ in range(300):
        n = rng.randint(1, 4)
        a = [F(rng.randint(0, 3), rng.choice((1, 2))) for _ in range(n)]
        a[rng.randrange(n)] += 1
        u = F(rng.randint(1, 6), rng.choice((1, 2, 3)))
        rows = [[-v for v in a]]
        rhs = [-u]
        for k in rng.sample(range(2, 7), rng.randint(2, 3)):
            rows.append([k * v for v in a])
            rhs.append(k * u)
        order = list(range(len(rows)))
        rng.shuffle(order)
        cost = [F(rng.randint(0, 4)) for _ in range(n)]
        cases.append((cost, [rows[i] for i in order], [rhs[i] for i in order]))
    return cases


def _call_counter(monkeypatch, name):
    """Patch exact.<name> to count its calls; run(solve, inst) returns
    the solve's result and the calls it made."""
    calls = []
    real = getattr(exact, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    def run(solve, inst):
        calls.clear()
        return solve(inst), len(calls)

    run.calls = calls
    monkeypatch.setattr(exact, name, counting)
    return run


def _pivot_calls(simplex, cost, rows, rhs, elements=None):
    """Run one simplex and record the (row, column) arguments of every
    call to its inner ``pivot``; when ``elements`` is a list, also append
    each pivot's element, read from the simplex's tableau ``tab``."""
    calls = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "pivot":
            pr, pc = frame.f_locals["pr"], frame.f_locals["pc"]
            calls.append((pr, pc))
            if elements is not None:
                elements.append(frame.f_locals["tab"][pr][pc])

    sys.setprofile(hook)
    try:
        result = simplex(cost, rows, rhs)
    finally:
        sys.setprofile(None)
    return result, calls


class TestSimplex:
    def test_single_variable(self):
        obj, x = _simplex_min_ge([F(1)], fr([[1]]), [F(3)])
        assert obj == 3 and x == [F(3)]

    def test_two_constraints(self):
        # min x+y st x+y>=2, x>=1 -> 2
        obj, x = _simplex_min_ge([F(1), F(1)], fr([[1, 1], [1, 0]]), [F(2), F(1)])
        assert obj == 2

    def test_fractional_optimum(self):
        # min x+y st 2x+y>=2, x+2y>=2 -> x=y=2/3
        obj, x = _simplex_min_ge([F(1), F(1)], fr([[2, 1], [1, 2]]), [F(2), F(2)])
        assert obj == F(4, 3)
        assert x == [F(2, 3), F(2, 3)]

    def test_redundant_rows(self):
        obj, _ = _simplex_min_ge([F(1)], fr([[1], [1], [1]]),
                                 [F(2), F(2), F(1)])
        assert obj == 2

    def test_zero_rhs(self):
        obj, x = _simplex_min_ge([F(1), F(2)], fr([[1, 0], [0, 1]]),
                                 [F(0), F(0)])
        assert obj == 0 and x == [F(0), F(0)]

    def test_weighted_cost(self):
        # min 3x+y st x+y>=4 -> all on y
        obj, x = _simplex_min_ge([F(3), F(1)], fr([[1, 1]]), [F(4)])
        assert obj == 4 and x == [F(0), F(4)]

    def test_upper_bound_rows(self):
        # min x+y st x+y>=4, x<=1 (as -x>=-1) -> y=3
        obj, x = _simplex_min_ge([F(1), F(1)], fr([[1, 1], [-1, 0]]),
                                 [F(4), F(-1)])
        assert obj == 4 and x[0] <= 1

    def test_empty_program(self):
        assert _simplex_min_ge([], [], []) == (0, [])

    def test_matches_reference_on_random_rational_lps(self):
        # the Fraction simplex as it stood before the one-tableau rewrite
        # makes the same decisions, so (objective, x) and infeasibility
        # agree exactly
        infeasible = empty = 0
        for cost, rows, rhs in _rational_lp_corpus():
            got = _simplex_min_ge(cost, rows, rhs)
            assert got == reference_simplex(cost, rows, rhs)
            infeasible += got is None
            empty += not rows
        assert infeasible >= 300 and empty >= 100

    def test_pivot_sequence_matches_reference(self):
        # (objective, x) can agree while the pivots differ, e.g. when the
        # drive-out picks another row order or column; so compare every
        # pivot (row, column) of both simplex copies.  The degenerate
        # family leaves several artificials basic at zero after phase 1
        for cost, rows, rhs in (_rational_lp_corpus()
                                + _degenerate_covering_family()):
            got, got_pivots = _pivot_calls(_simplex_min_ge, cost, rows, rhs)
            want, want_pivots = _pivot_calls(reference_simplex, cost, rows, rhs)
            assert got == want
            assert got_pivots == want_pivots

    def test_pivot_sequence_matches_reference_when_artificial_reenters(self):
        # an artificial column that left the basis can re-enter in phase 1,
        # which the random corpora above rarely reach; so pin the pivots of
        # the campaign-distribution LPs (root and branch-and-bound nodes;
        # 6 nodes, p=0.5, demands 1..10, half symmetric) where the
        # reference simplex enters one: 13 LPs from ten of the seeds
        # 0..299 that have one.  The package gets the int programs that
        # _covering_lp builds, the reference exact Fraction copies of them
        programs = []

        def record(cost, rows, rhs):
            programs.append((list(cost), [list(r) for r in rows], list(rhs)))
            return _simplex_min_ge(cost, rows, rhs)

        for seed in (2, 7, 22, 47, 126, 134, 141, 204, 224, 260):
            rng = random.Random(seed)
            net = _random_network(6, 0.5, rng)
            demands = _random_demands(net, 1, 10, seed % 2 == 0, rng)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(exact, "_simplex_min_ge", record)
                solve_ilp(Instance(net, demands))
        reentering = 0
        for cost, rows, rhs in programs:
            want, want_pivots = _pivot_calls(
                reference_simplex, [F(c) for c in cost], fr(rows),
                [F(b) for b in rhs])
            if all(pc < len(cost) + len(rows) for _, pc in want_pivots):
                continue
            reentering += 1
            got, got_pivots = _pivot_calls(_simplex_min_ge, cost, rows, rhs)
            assert got == want
            assert got_pivots == want_pivots
        assert reentering >= 8

    def test_pivot_sequence_matches_reference_on_branching_dense_programs(self):
        # K5 and random 5-node p=0.9 networks with asymmetric demands 1..50
        # branch, so their programs carry bound rows with lo >= 2 and pivot
        # off +-1: whole-number results arise as Fractions there, and the
        # package stores them back as ints.  Pin (objective, x) and every
        # pivot of all their int programs, and that enough of them pivot
        # off +-1 that the test keeps reaching those results
        programs = []

        def record(cost, rows, rhs):
            programs.append((list(cost), [list(r) for r in rows], list(rhs)))
            return _simplex_min_ge(cost, rows, rhs)

        nets = ([(gen_complete(5), seed) for seed in (2, 3)]
                + [(gen_random(5, 0.9, seed), seed) for seed in (51, 145)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_simplex_min_ge", record)
            for net, seed in nets:
                solve_ilp(Instance(net, gen_demands(net, 1, 50, False, seed)))
        off_unit = 0
        for cost, rows, rhs in programs:
            elements = []
            want, want_pivots = _pivot_calls(
                reference_simplex, [F(c) for c in cost], fr(rows),
                [F(b) for b in rhs], elements)
            got, got_pivots = _pivot_calls(_simplex_min_ge, cost, rows, rhs)
            assert got == want
            assert got_pivots == want_pivots
            off_unit += any(abs(e) != 1 for e in elements)
        assert off_unit >= 15

    def test_results_are_fractions(self):
        # an int equals the Fraction of its value, so the comparisons with
        # the reference cannot tell whether an int left the tableau
        def check(result):
            if result is not None:
                obj, x = result
                assert type(obj) is Fraction
                assert all(type(v) is Fraction for v in x)

        for cost, rows, rhs in (_rational_lp_corpus()
                                + _degenerate_covering_family()):
            check(_simplex_min_ge(cost, rows, rhs))
        rng = random.Random(2027)
        for _ in range(60):
            inst = random_instance(rng, demand_hi=50)
            masks = conflict.enumerate_maximal_matching_masks(
                conflict.build_conflict_graph(inst.network))
            j = rng.randrange(len(masks))
            for bounds in (None, {j: (2, None)}, {j: (0, 1)}):
                check(exact._covering_lp(masks, inst.demands, bounds))

    def test_solvers_return_fractions(self):
        insts = [Instance(gen_complete(n), (d,) * (n * (n - 1)))
                 for n, d, _, _ in FRACTIONAL_ROOT_FIXTURES]
        insts.append(Instance(gen_grid(2, 4), (1,) * 20))
        rng = random.Random(2028)
        insts += [random_instance(rng, allow_zero=True) for _ in range(20)]
        for inst in insts:
            lp = solve_lp(inst)
            ilp = solve_ilp(inst)
            mis = solve_mis_suboptimal(inst)
            for v in (lp.objective, *lp.allocation, ilp.lp_objective,
                      mis.objective, *mis.allocation):
                assert type(v) is Fraction
            assert type(ilp.objective) is int
            assert all(type(u) is int for u in ilp.allocation)

    def test_int_data_beyond_float_precision(self):
        # int / int is a float, which cannot tell 2**60 + 1 from 2**60 - 3:
        # a float ratio test picks the wrong leaving row here and returns
        # 2**61 - 2, below the node bound
        inst = Instance(gen_linear(3), (2**60 + 1, 2**60 + 1, 2**60 - 3, 4))
        bound = lower_bounds(inst)[1]
        assert bound == 2**61 + 2
        lp = solve_lp(inst)
        ilp = solve_ilp(inst)
        assert lp.objective == ilp.objective == ilp.lp_objective == bound
        assert type(ilp.lp_objective) is Fraction
        assert all(type(v) is Fraction for v in lp.allocation)
        masks = conflict.enumerate_maximal_matching_masks(
            conflict.build_conflict_graph(inst.network))
        rows = [[m >> i & 1 for m in masks] for i in range(4)]
        rhs = list(inst.demands)
        want = _simplex_min_ge([F(1)] * len(masks), fr(rows),
                               [F(b) for b in rhs])
        assert want[0] == bound
        assert _simplex_min_ge([1] * len(masks), rows, rhs) == want

    def test_matches_scipy_on_random_covering(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = random.Random(2024)
        for _ in range(150):
            m = rng.randint(1, 8)
            n = rng.randint(1, 10)
            rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
            # every row needs some support or the program is infeasible
            for row in rows:
                if not any(row):
                    row[rng.randrange(n)] = 1
            rhs = [rng.randint(0, 9) for _ in range(m)]
            cost = [rng.randint(1, 4) for _ in range(n)]
            obj, x = _simplex_min_ge([F(c) for c in cost], fr(rows),
                                     [F(b) for b in rhs])
            assert _simplex_min_ge(cost, rows, rhs) == (obj, x)
            assert all(sum(F(a) * v for a, v in zip(row, x)) >= b
                       for row, b in zip(rows, rhs))
            res = scipy_opt.linprog(
                cost, A_ub=[[-a for a in row] for row in rows],
                b_ub=[-b for b in rhs], method="highs")
            assert res.success
            assert abs(float(obj) - res.fun) < 1e-7 * max(1.0, res.fun)


class TestScipyOracle:
    def test_ilp_and_root_lp_match_highs(self):
        # HiGHS shares no code with the solver, and neither do the columns:
        # every maximal matching is a directed cut and every cut a matching,
        # so covering with all cuts has the same optima
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = random.Random(606)
        for k in range(120):
            inst = random_instance(rng, allow_zero=k % 4 == 0)
            net = inst.network
            cuts = directed_cuts(net) - {frozenset()}
            cover = [[1 if link in c else 0 for c in cuts] for link in net.links]
            cost = [1] * len(cuts)
            sol = solve_ilp(inst)
            ilp = scipy_opt.milp(
                cost, integrality=[1] * len(cuts),
                constraints=scipy_opt.LinearConstraint(cover, lb=inst.demands))
            assert ilp.success
            assert sol.objective == round(ilp.fun)
            lp = scipy_opt.linprog(
                cost, A_ub=[[-a for a in row] for row in cover],
                b_ub=[-d for d in inst.demands], method="highs")
            assert lp.success
            assert abs(float(sol.lp_objective) - lp.fun) < 1e-6
            # mis2p: cover each node's largest outgoing demand with the
            # maximal independent node sets
            adj = [0] * net.node_count
            for a, b in net.edges:
                adj[a - 1] |= 1 << (b - 1)
                adj[b - 1] |= 1 << (a - 1)
            sets = maximal_independent_sets(adj)
            need = [max((d for (tx, _), d in zip(net.links, inst.demands)
                         if tx == v), default=0)
                    for v in range(1, net.node_count + 1)]
            mis = scipy_opt.linprog(
                [1] * len(sets),
                A_ub=[[-(s >> v & 1) for s in sets] for v in range(len(need))],
                b_ub=[-t for t in need], method="highs")
            assert mis.success
            assert abs(float(solve_mis_suboptimal(inst).objective)
                       - mis.fun) < 1e-6

    def test_solve_lp_matches_highs_on_dense_instances(self):
        # dense networks up to the link cap, where the LP has the most
        # columns; the allocation is checked exactly, HiGHS only to 1e-7
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = random.Random(707)
        nets = [gen_complete(5), gen_complete(6), gen_grid(3, 3), gen_grid(2, 4)]
        while len(nets) < 10:
            net = gen_random(6, rng.choice((0.7, 0.8, 0.9)), rng.randrange(10 ** 6))
            if net.links:
                nets.append(net)
        for net in nets:
            inst = Instance(net, tuple(rng.randint(1, 20) for _ in net.links))
            sol = solve_lp(inst)
            assert all(u >= 0 for u in sol.allocation)
            assert sum(sol.allocation) == sol.objective
            for link, d in zip(net.links, inst.demands):
                assert sum(u for m, u in zip(sol.matchings, sol.allocation)
                           if link in m) >= d
            cuts = directed_cuts(net) - {frozenset()}
            lp = scipy_opt.linprog(
                [1] * len(cuts),
                A_ub=[[-1 if link in c else 0 for c in cuts] for link in net.links],
                b_ub=[-d for d in inst.demands], method="highs")
            assert lp.success
            assert abs(float(sol.objective) - lp.fun) < 1e-7 * lp.fun

    def test_fractional_root_fixtures_match_highs(self):
        # the pinned values of TestSolveIlp.test_fractional_root_fixtures;
        # the formula covers only unit demands, so HiGHS checks the rest
        scipy_opt = pytest.importorskip("scipy.optimize")
        for n, d, lp_objective, objective in FRACTIONAL_ROOT_FIXTURES:
            net = gen_complete(n)
            cuts = directed_cuts(net) - {frozenset()}
            cover = [[1 if link in c else 0 for c in cuts] for link in net.links]
            ilp = scipy_opt.milp(
                [1] * len(cuts), integrality=[1] * len(cuts),
                constraints=scipy_opt.LinearConstraint(cover, lb=[d] * len(cover)))
            assert ilp.success and round(ilp.fun) == objective
            lp = scipy_opt.linprog(
                [1] * len(cuts), A_ub=[[-a for a in row] for row in cover],
                b_ub=[-d] * len(cover), method="highs")
            assert lp.success
            assert abs(float(lp_objective) - lp.fun) < 1e-7 * lp.fun


class TestSolveLp:
    def test_four_node(self, four_node_instance):
        sol = solve_lp(four_node_instance)
        assert sol.objective == 3

    def test_single_edge_sum(self):
        inst = Instance(gen_linear(2), (7, 4))
        assert solve_lp(inst).objective == 11

    def test_linear_asymmetric(self):
        inst = Instance(gen_linear(6), (6, 3, 4, 5, 7, 8, 5, 2, 7, 9))
        assert solve_lp(inst).objective == 16

    def test_allocation_is_feasible(self):
        rng = random.Random(8)
        for _ in range(60):
            inst = random_instance(rng, allow_zero=True)
            sol = solve_lp(inst)
            net = inst.network
            for i, link in enumerate(net.links):
                covered = sum(u for m, u in zip(sol.matchings, sol.allocation)
                              if link in m)
                assert covered >= inst.demands[i]

    def test_cap_respected(self):
        inst = Instance(gen_complete(7), (1,) * 42)
        with pytest.raises(SizeLimitError):
            solve_lp(inst)


def exhaustive_min_slots(instance):
    """Independent optimum: enumerate matchings straight from the
    transmit/receive role rules, then iterative-deepening search with a
    per-state failure memo.  Only usable on tiny instances."""
    net = instance.network
    links = net.links
    n = len(links)
    if n == 0 or not any(instance.demands):
        return 0

    def roles_ok(mask):
        txs, rxs = set(), set()
        for v in range(n):
            if (mask >> v) & 1:
                txs.add(links[v][0])
                rxs.add(links[v][1])
        return txs.isdisjoint(rxs)

    valid = {m for m in range(1 << n) if roles_ok(m)}
    maximal = [m for m in valid
               if all((m | (1 << v)) not in valid for v in range(n)
                      if not (m >> v) & 1)]

    # reverse-link pairs give a simple admissible bound
    pairs = []
    for a, b in net.edges:
        pairs.append((net.link_index((a, b)), net.link_index((b, a))))

    def bound(res):
        return max(res[i] + res[j] for i, j in pairs)

    start = tuple(instance.demands)
    for target in range(bound(start), sum(start) + 1):
        failed = {}

        def dfs(res, left):
            if not any(res):
                return True
            if bound(res) > left:
                return False
            if failed.get(res, -1) >= left:
                return False
            for m in maximal:
                nxt = list(res)
                hit = False
                for v in range(n):
                    if (m >> v) & 1 and nxt[v]:
                        nxt[v] -= 1
                        hit = True
                if hit and dfs(tuple(nxt), left - 1):
                    return True
            failed[res] = left
            return False

        if dfs(start, target):
            return target
    raise AssertionError("unreachable: sum of demands is always feasible")


class TestSolveIlp:
    def test_four_node(self, four_node_instance):
        sol = solve_ilp(four_node_instance)
        assert sol.objective == 3
        assert validate_schedule(four_node_instance, sol.schedule) == []

    def test_grid_asymmetric(self, lp_solves):
        # node bound 18, and MDF takes 18: the root needs no LP
        f = (7, 8, 8, 4, 7, 2, 8, 1, 3, 1, 1, 9, 7, 4, 10, 1, 5, 4, 8, 8, 2, 5, 5, 7)
        inst = Instance(gen_grid(3, 3), f)
        sol, solves = lp_solves(solve_ilp, inst)
        assert sol.objective == 18
        assert lower_bounds(inst)[1] == mdf(inst).total_slots == 18
        assert solves == 0
        assert sol.lp_objective == solve_lp(inst).objective

    def test_ring_asymmetric(self):
        f = (2, 5, 10, 3, 4, 6, 7, 8, 9, 11, 4, 12)
        assert solve_ilp(Instance(gen_ring(6), f)).objective == 23

    def test_all_zero(self, four_node):
        sol = solve_ilp(Instance(four_node, (0,) * 8))
        assert sol.objective == 0
        assert sol.schedule.entries == ()
        # the node bound 0 already meets the greedy total 0, so the root
        # is pruned before its LP is solved
        assert sol.lp_objective == 0 and type(sol.lp_objective) is Fraction

    def test_witness_consistent(self):
        rng = random.Random(31)
        for _ in range(40):
            inst = random_instance(rng, allow_zero=True)
            sol = solve_ilp(inst)
            assert sol.schedule.total_slots == sol.objective == sum(sol.allocation)
            assert validate_schedule(inst, sol.schedule) == []

    def test_deterministic_witness(self):
        rng = random.Random(32)
        for _ in range(20):
            inst = random_instance(rng)
            assert solve_ilp(inst) == solve_ilp(inst)

    def test_carries_root_relaxation(self):
        rng = random.Random(33)
        for _ in range(30):
            inst = random_instance(rng, allow_zero=True)
            assert solve_ilp(inst).lp_objective == solve_lp(inst).objective

    def test_fractional_gap_instance(self):
        # unit demands around a 5-ring: relaxation 5/2, integer optimum 3
        inst = Instance(gen_ring(5), (1,) * 10)
        sol = solve_ilp(inst)
        assert sol.lp_objective == F(5, 2)
        assert sol.objective == 3

    @pytest.mark.parametrize("n, d, lp_objective, objective",
                             FRACTIONAL_ROOT_FIXTURES)
    def test_fractional_root_fixtures(self, n, d, lp_objective, objective):
        sol = solve_ilp(Instance(gen_complete(n), (d,) * (n * (n - 1))))
        assert (sol.lp_objective, sol.objective) == (lp_objective, objective)
        if d == 1:
            assert objective == sperner_optimum(gen_complete(n))

    def test_unit_demands_match_sperner_optimum(self):
        # only branching proves the gap instances, where the optimum
        # exceeds the rounded-up root LP, and the fixed 7-node network:
        # its root LP is 3 but the greedies take 4, and the search finds an
        # integral allocation of 3 only below depth two
        rng = random.Random(16)
        nets = [Network(7, [(1, 2), (1, 3), (1, 5), (1, 6), (2, 4), (2, 6),
                            (2, 7), (3, 4), (4, 7), (5, 7), (6, 7)])]
        while len(nets) < 91:
            net = _random_network(rng.randint(2, 6),
                                  rng.choice([0.3, 0.5, 0.8]), rng)
            if net.links:
                nets.append(net)
        gaps = 0
        for net in nets:
            sol = solve_ilp(Instance(net, (1,) * len(net.links)))
            assert sol.objective == sperner_optimum(net)
            gaps += sol.objective > math.ceil(sol.lp_objective)
        assert gaps >= 5

    def test_matches_exhaustive_search_on_tiny_instances(self):
        rng = random.Random(99)
        for net in all_networks(4):
            if not net.links:
                continue
            for _ in range(4):
                demands = tuple(rng.randint(0, 3)
                                for _ in range(len(net.links)))
                inst = Instance(net, demands)
                assert solve_ilp(inst).objective == exhaustive_min_slots(inst)

    def test_matches_exhaustive_search_with_wider_demands(self):
        # 3-node networks, demands up to 8: exercises deeper searches
        rng = random.Random(98)
        for net in all_networks(3, min_nodes=3):
            if not net.links:
                continue
            for _ in range(8):
                demands = tuple(rng.randint(0, 8)
                                for _ in range(len(net.links)))
                inst = Instance(net, demands)
                assert solve_ilp(inst).objective == exhaustive_min_slots(inst)

    def test_cap_respected(self):
        inst = Instance(gen_complete(7), (1,) * 42)
        with pytest.raises(SizeLimitError):
            solve_ilp(inst)

    @pytest.fixture
    def lp_solves(self, monkeypatch):
        """Run a solve and count its exact._covering_lp calls, which
        solve_ilp and the unpruned reference both go through."""
        return _call_counter(monkeypatch, "_covering_lp")

    @pytest.fixture
    def programs(self, monkeypatch):
        """Run a solve and count its exact._simplex_min_ge calls: every
        program, the root's restricted duals included."""
        return _call_counter(monkeypatch, "_simplex_min_ge")

    def test_parent_bound_skips_lp_solves(self, lp_solves):
        # root 37/2: both children of the root inherit the bound 19, which
        # the first child's integral 19 then reaches, so the second child's
        # LP is never solved
        inst = Instance(Network(4, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
                        (8, 3, 9, 8, 6, 1, 3, 7, 5, 8))
        sol, solves = lp_solves(solve_ilp, inst)
        ref, ref_solves = lp_solves(solve_ilp_unpruned, inst)
        assert (sol.lp_objective, sol.objective) == (F(37, 2), 19)
        assert sol == ref
        assert (solves, ref_solves) == (2, 3)

    def test_matches_unpruned_reference(self, lp_solves):
        # pruning on the parent's bound only skips LPs whose solve would
        # end in a prune: the answer and witness stay those of the loop
        # that solves every node
        rng = random.Random(12)
        instances = []
        while len(instances) < 300:
            net = _random_network(rng.randint(4, 5),
                                  rng.choice((0.5, 0.6, 0.7, 0.8, 0.9)), rng)
            if net.links and len(net.links) <= 14:
                instances.append(Instance(net, tuple(
                    rng.randint(1, 9) for _ in net.links)))
        for n in (5, 7):
            instances.append(Instance(gen_ring(n), tuple(
                rng.randint(1, 9) for _ in range(2 * n))))
        fewer = 0
        for inst in instances:
            sol, solves = lp_solves(solve_ilp, inst)
            ref, ref_solves = lp_solves(solve_ilp_unpruned, inst)
            assert sol == ref
            assert schedule_to_json(sol.schedule) == schedule_to_json(ref.schedule)
            assert solves <= ref_solves
            fewer += solves < ref_solves
        assert fewer > 0

    def test_node_bound_skips_root_lp_on_cap_edge_line(self, lp_solves):
        # 16-node line, 30 links, at the cap: every greedy takes 2 slots,
        # which is already the node bound
        net = gen_linear(16)
        sol, solves = lp_solves(solve_ilp, Instance(net, (1,) * len(net.links)))
        assert len(net.links) == 30 and solves == 0
        assert (sol.lp_objective, sol.objective) == (2, 2)
        assert type(sol.lp_objective) is Fraction

    def test_node_bound_below_greedy_keeps_root_lp(self, lp_solves):
        # unit-demand K4: node bound 2, every greedy 4, root LP 3
        inst = Instance(gen_complete(4), (1,) * 12)
        sol, solves = lp_solves(solve_ilp, inst)
        assert lower_bounds(inst)[1] == 2
        assert solves == 3
        assert (sol.lp_objective, sol.objective) == (3, 4)

    def test_root_lp_skipped_iff_greedy_meets_node_bound(self, lp_solves,
                                                         programs):
        # no program at all iff the best greedy meets the node bound; no
        # full root LP iff the rounded-up LP reaches the best greedy, so the
        # root's restricted duals price it to a prune
        rng = random.Random(19)
        skipped = priced = solved = edge_below = 0
        for _ in range(80):
            inst = random_instance(rng, max_nodes=5, allow_zero=True)
            edge_b, node_b = lower_bounds(inst)
            greedy = min(alg(inst).total_slots
                         for alg in (hwf, mdf, hwf_tiebreak_mdf))
            lp = solve_lp(inst).objective
            (sol, solves), runs = programs(
                lambda i: lp_solves(solve_ilp, i), inst)
            assert (runs == 0) == (node_b == greedy)
            assert (solves == 0) == (math.ceil(lp) >= greedy)
            assert sol.lp_objective == lp
            skipped += runs == 0
            priced += runs > 0 and solves == 0
            solved += solves > 0
            # a root skipped here that the edge bound alone would not skip
            edge_below += runs == 0 and edge_b < node_b
        assert skipped and priced and solved and edge_below

    def test_priced_root_prunes_cap_edge_ring(self, lp_solves, programs):
        # ring 15 with unit demands, 30 links at the cap: 1,366 columns,
        # every greedy 3, LP 15/7; the seed's columns alone price above
        # 15/7, so columns join before the root is priced to a prune
        inst = Instance(gen_ring(15), (1,) * 30)
        (sol, solves), runs = programs(lambda i: lp_solves(solve_ilp, i), inst)
        assert solves == 0 and runs > 1
        assert (sol.lp_objective, sol.objective) == (F(15, 7), 3)
        assert type(sol.lp_objective) is Fraction

    def test_priced_root_keeps_programs_small_on_24576_columns(
            self, lp_solves, programs):
        # a triangle plus 12 disjoint edges, 30 links at the cap: 6 * 2**12
        # maximal matchings, every greedy 3, LP 3.  The root is priced to a
        # prune by restricted duals of a few rows each; one dual with a row
        # per matching takes minutes to solve.
        edges = [(1, 2), (1, 3), (2, 3)] + [(v, v + 1) for v in range(4, 28, 2)]
        net = Network(27, edges)
        inst = Instance(net, (1,) * len(net.links))
        assert len(net.links) == 30
        assert len(conflict.enumerate_maximal_matching_masks(
            conflict.build_conflict_graph(net))) == 24576
        (sol, solves), runs = programs(lambda i: lp_solves(solve_ilp, i), inst)
        assert (sol.lp_objective, sol.objective) == (3, 3)
        assert solves == 0 and runs > 0
        # each recorded call is (cost, rows, rhs), one rhs entry per row
        assert all(len(rhs) <= 5 for _, _, rhs in programs.calls)

    @pytest.mark.parametrize("net, demands, greedies", [
        (gen_linear(16), (1,) * 30, 1),
        (gen_linear(6), gen_demands(gen_linear(6), 1, 10, False, 1), 2),
        (gen_complete(4), (1,) * 12, 3)],
        ids=["line16-unit", "line6-seed1", "K4-unit"])
    def test_seeding_stops_at_node_bound(self, monkeypatch, net, demands,
                                         greedies):
        # no schedule is shorter than the node bound, so seeding stops at
        # the first greedy to meet it: HWF on the unit line (bound 2); MDF
        # on line 6 (bound 16, HWF 20, MDF 16); never on unit K4 (bound 2,
        # every greedy 4).  The seed stays that of all three greedies.
        inst = Instance(net, demands)
        ref = solve_ilp_unpruned(inst)
        modes = []
        real = heuristics.greedy_rounds

        def counting(demands, adj, mode):
            modes.append(mode)
            return real(demands, adj, mode)

        monkeypatch.setattr(heuristics, "greedy_rounds", counting)
        sol = solve_ilp(inst)
        assert modes == [heuristics.HWF, heuristics.MDF,
                         heuristics.HWF_TIE_MDF][:greedies]
        assert sol == ref
        assert schedule_to_json(sol.schedule) == schedule_to_json(ref.schedule)

    def test_one_conflict_graph_and_no_public_greedy(self, monkeypatch):
        builds = []
        real_init = conflict.ConflictGraph.__init__

        def counting_init(self, network):
            builds.append(network)
            real_init(self, network)

        def public_greedy(instance):
            raise AssertionError("solve_ilp called a public greedy")

        monkeypatch.setattr(conflict.ConflictGraph, "__init__", counting_init)
        for name in ("hwf", "mdf", "hwf_tiebreak_mdf"):
            monkeypatch.setattr(heuristics, name, public_greedy)
        f = (7, 8, 8, 4, 7, 2, 8, 1, 3, 1, 1, 9, 7, 4, 10, 1, 5, 4, 8, 8, 2, 5, 5, 7)
        sol = solve_ilp(Instance(gen_grid(3, 3), f))
        assert sol.objective == 18
        assert len(builds) == 1
        for entry in sol.schedule.entries:
            assert entry.links == tuple(sorted(entry.links))


class TestNodeDemands:
    def test_four_node(self, four_node_instance):
        assert reduce_node_demands(four_node_instance) == (1, 1, 2, 1)

    def test_zero(self, four_node):
        assert reduce_node_demands(Instance(four_node, (0,) * 8)) == (0, 0, 0, 0)

    def test_max_of_outgoing(self):
        inst = Instance(gen_linear(3), (3, 0, 7, 0))  # node 2 sends 3.. wait
        # links: (1,2),(2,1),(2,3),(3,2); node 2 outgoing: (2,1)=0,(2,3)=7
        assert reduce_node_demands(inst) == (3, 7, 0)


class TestMisSuboptimal:
    def test_four_node(self, four_node_instance):
        sol = solve_mis_suboptimal(four_node_instance)
        assert sol.objective == 4
        assert sol.node_sets == (frozenset({1, 4}), frozenset({2, 4}),
                                 frozenset({3}))
        assert sol.allocation == (F(1), F(1), F(2))

    def test_single_edge(self):
        inst = Instance(gen_linear(2), (5, 9))
        assert solve_mis_suboptimal(inst).objective == 14

    def test_never_below_matching_lp(self):
        rng = random.Random(61)
        for _ in range(80):
            inst = random_instance(rng, allow_zero=True)
            assert solve_lp(inst).objective <= \
                solve_mis_suboptimal(inst).objective

    def test_restriction_can_lose_to_integer_optimum(self):
        # all-outgoing-links relaxation on a 5-ring: fractional value 5/2,
        # yet the unrestricted integer optimum needs 3 slots
        inst = Instance(gen_ring(5), (1,) * 10)
        assert solve_mis_suboptimal(inst).objective == F(5, 2)
        assert solve_ilp(inst).objective == 3

    def test_allocation_covers_node_demands(self, four_node_instance):
        sol = solve_mis_suboptimal(four_node_instance)
        t = reduce_node_demands(four_node_instance)
        for v in range(1, 5):
            covered = sum(u for s, u in zip(sol.node_sets, sol.allocation)
                          if v in s)
            assert covered >= t[v - 1]


class TestSandwich:
    def test_bounds_lp_ilp_heuristics(self):
        rng = random.Random(4242)
        for _ in range(120):
            inst = random_instance(rng, allow_zero=True)
            edge_b, node_b = lower_bounds(inst)
            lp = solve_lp(inst).objective
            ilp = solve_ilp(inst).objective
            assert edge_b <= lp and node_b <= lp
            assert lp <= ilp
            assert math.ceil(lp) <= ilp
            for alg in (hwf, mdf, hwf_tiebreak_mdf):
                assert ilp <= alg(inst).total_slots
