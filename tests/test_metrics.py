import random
from fractions import Fraction

import pytest

from mtrsched.heuristics import hwf, mdf
from mtrsched.metrics import (UndefinedPenaltyError, cost_penalty,
                              lower_bounds, validate_schedule)
from mtrsched.model import Instance, Network, gen_linear
from mtrsched.schedule import Schedule, ScheduleEntry

import reference
from helpers import random_instance


class TestPenalty:
    def test_exact_fraction(self):
        assert cost_penalty(20, 18) == Fraction(100, 9)

    def test_zero_penalty(self):
        assert cost_penalty(16, 16) == 0
        assert cost_penalty(10, 10) == 0

    def test_zero_optimum(self):
        assert cost_penalty(0, 0) == 0
        with pytest.raises(UndefinedPenaltyError):
            cost_penalty(3, 0)


class TestLowerBounds:
    def test_seven_tree(self, seven_tree_instance):
        edge_b, node_b = lower_bounds(seven_tree_instance)
        assert edge_b == 18  # 10 one way plus 8 back on the same edge
        assert node_b >= edge_b

    def test_four_node(self, four_node_instance):
        edge_b, node_b = lower_bounds(four_node_instance)
        assert node_b == 3  # node 3: 2 outgoing + 1 incoming
        assert edge_b == 3

    def test_all_zero(self, four_node):
        assert lower_bounds(Instance(four_node, (0,) * 8)) == (0, 0)

    def test_node_dominates_edge(self):
        rng = random.Random(55)
        for _ in range(200):
            edge_b, node_b = lower_bounds(random_instance(rng, allow_zero=True))
            assert node_b >= edge_b

    def test_matches_bounds_from_demand_of(self):
        def by_demand_of(inst):
            net, d = inst.network, inst.demand_of
            edge_b = max([d((a, b)) + d((b, a)) for a, b in net.edges],
                         default=0)
            node_b = max([max([d((v, w)) for w in net.neighbors(v)], default=0)
                          + max([d((w, v)) for w in net.neighbors(v)], default=0)
                          for v in range(1, net.node_count + 1)])
            return edge_b, node_b

        rng = random.Random(56)
        instances = [random_instance(rng, max_nodes=rng.choice([4, 8, 12]),
                                     allow_zero=True) for _ in range(200)]
        assert any(not inst.network.neighbors(v) for inst in instances
                   for v in range(1, inst.network.node_count + 1))
        instances += [Instance(Network(4, []), ()),
                      Instance(Network(6, [(2, 5), (5, 6)]), (3, 0, 4, 1))]
        for inst in instances:
            assert lower_bounds(inst) == by_demand_of(inst)


class TestValidate:
    def test_heuristic_output_is_ok(self, four_node_instance):
        assert validate_schedule(four_node_instance,
                                 hwf(four_node_instance)) == []

    def test_conflict_names_node_and_rule(self):
        inst = Instance(gen_linear(3), (1, 0, 1, 0))
        sched = Schedule((ScheduleEntry(((1, 2), (2, 3)), 1),))
        violations = validate_schedule(inst, sched)
        conflict = [v for v in violations if v.kind == "conflict"]
        assert len(conflict) == 1
        assert conflict[0].node == 2
        assert conflict[0].rule == "R3"
        assert set(conflict[0].links) == {(1, 2), (2, 3)}

    def test_under_coverage_named(self, four_node_instance):
        sched = hwf(four_node_instance)
        # drop one slot from the entry serving (3,4)
        entries = list(sched.entries)
        for i, e in enumerate(entries):
            if (3, 4) in e.links:
                entries[i] = ScheduleEntry(e.links, e.slots)
                entries = entries[:i] + entries[i + 1:]
                break
        tampered = Schedule(tuple(entries))
        violations = validate_schedule(four_node_instance, tampered)
        assert any(v.kind == "under-coverage" and (3, 4) in v.links
                   for v in violations)

    def test_unknown_link(self, four_node_instance):
        sched = Schedule((ScheduleEntry(((1, 4),), 1),))
        violations = validate_schedule(four_node_instance, sched)
        assert any(v.kind == "unknown-link" for v in violations)

    def test_bad_slots(self, four_node_instance):
        sched = Schedule((ScheduleEntry(((1, 2),), 0),))
        violations = validate_schedule(four_node_instance, sched)
        assert any(v.kind == "bad-slots" for v in violations)

    def test_over_coverage_is_fine(self):
        inst = Instance(gen_linear(2), (1, 1))
        sched = Schedule((ScheduleEntry(((1, 2),), 5),
                          ScheduleEntry(((2, 1),), 5)))
        assert validate_schedule(inst, sched) == []


def _corrupt(rng, inst, sched):
    """A schedule with one to three random faults: a link swapped between
    two entries, a link duplicated within or across entries, an unknown
    link, a zero or negative slot count, a dropped entry."""
    n = inst.network.node_count
    entries = [[list(e.links), e.slots] for e in sched.entries]
    for _ in range(rng.randint(1, 3)):
        fault = rng.choice(["swap", "dup", "unknown", "slots", "drop"])
        if not entries:
            break
        e = rng.choice(entries)
        if fault == "swap" and len(entries) > 1:
            f = rng.choice([x for x in entries if x is not e])
            if e[0] and f[0]:
                a, b = rng.randrange(len(e[0])), rng.randrange(len(f[0]))
                e[0][a], f[0][b] = f[0][b], e[0][a]
        elif fault == "dup" and e[0]:
            rng.choice(entries)[0].append(rng.choice(e[0]))
        elif fault == "unknown":
            a, b = rng.sample(range(1, n + 2), 2)
            e[0].append((a, b))  # absent unless the network has it
        elif fault == "slots":
            e[1] = rng.choice([0, -1, -7])
        elif fault == "drop":
            entries.remove(e)
    return Schedule(tuple(ScheduleEntry(tuple(links), slots)
                          for links, slots in entries))


def test_validate_matches_reference_on_corrupted_schedules():
    rng = random.Random(77)
    kinds = set()
    for _ in range(400):
        inst = random_instance(rng, max_nodes=rng.choice([4, 8, 20]),
                               allow_zero=True)
        sched = _corrupt(rng, inst, rng.choice([hwf, mdf])(inst))
        got = validate_schedule(inst, sched)
        assert got == reference.validate_schedule(inst, sched)
        kinds.update(v.kind for v in got)
    assert kinds == {"bad-slots", "unknown-link", "conflict", "under-coverage"}
    # built by hand, past schedule_from_json's refusal of repeated links:
    # a known link twice, an absent link twice, a link with its reverse,
    # then an entry of 0 slots
    line3 = Instance(gen_linear(3), (3, 1, 1, 2))
    hand_built = Schedule((
        ScheduleEntry(((1, 2), (5, 6), (1, 2), (2, 1), (5, 6)), 2),
        ScheduleEntry(((2, 3),), 0)))
    got = validate_schedule(line3, hand_built)
    assert got == reference.validate_schedule(line3, hand_built)
    # unknown links in entry order; (1, 2) covered once by its entry
    assert [v.message for v in got] == [
        "entry 0 uses link (5, 6) absent from the network",
        "entry 0 uses link (5, 6) absent from the network",
        "entry 0: links (1, 2) and (2, 1) make node 1 transmit and receive "
        "at once (rule R3)",
        "entry 0: links (1, 2) and (2, 1) make node 1 transmit and receive "
        "at once (rule R3)",
        "entry 1 has non-positive slot count 0",
        "link (1, 2) gets 2 of 3 demanded slots",
        "link (2, 3) gets 0 of 1 demanded slots",
        "link (3, 2) gets 0 of 2 demanded slots",
    ]
