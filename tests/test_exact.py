import math
import random
from fractions import Fraction

import pytest

from mtrsched import conflict, heuristics
from mtrsched.conflict import SizeLimitError
from mtrsched.exact import (_simplex_min_ge, reduce_node_demands, solve_ilp,
                            solve_lp, solve_mis_suboptimal)
from mtrsched.heuristics import hwf, hwf_tiebreak_mdf, mdf
from mtrsched.metrics import lower_bounds, validate_schedule
from mtrsched.model import (Instance, gen_complete, gen_grid, gen_linear,
                            gen_ring)

from helpers import all_networks, random_instance

F = Fraction


def fr(rows):
    return [[F(x) for x in row] for row in rows]


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
            assert all(sum(F(a) * v for a, v in zip(row, x)) >= b
                       for row, b in zip(rows, rhs))
            res = scipy_opt.linprog(
                cost, A_ub=[[-a for a in row] for row in rows],
                b_ub=[-b for b in rhs], method="highs")
            assert res.success
            assert abs(float(obj) - res.fun) < 1e-7 * max(1.0, res.fun)


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

    def test_grid_asymmetric(self):
        f = (7, 8, 8, 4, 7, 2, 8, 1, 3, 1, 1, 9, 7, 4, 10, 1, 5, 4, 8, 8, 2, 5, 5, 7)
        assert solve_ilp(Instance(gen_grid(3, 3), f)).objective == 18

    def test_ring_asymmetric(self):
        f = (2, 5, 10, 3, 4, 6, 7, 8, 9, 11, 4, 12)
        assert solve_ilp(Instance(gen_ring(6), f)).objective == 23

    def test_all_zero(self, four_node):
        sol = solve_ilp(Instance(four_node, (0,) * 8))
        assert sol.objective == 0
        assert sol.schedule.entries == ()

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
