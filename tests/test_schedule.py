import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtrsched.bipartite import Bipartition, bipartition, two_phase_schedule
from mtrsched.heuristics import hwf, hwf_tiebreak_mdf, mdf
from mtrsched.model import (Instance, gen_complete, gen_demands, gen_grid,
                            gen_random, gen_ring, load_instance, save_instance)
from mtrsched.schedule import (Schedule, ScheduleEntry, ScheduleFormatError,
                               schedule_from_json, schedule_to_json)


links_st = st.lists(
    st.tuples(st.integers(1, 9), st.integers(1, 9)).filter(lambda l: l[0] != l[1]),
    min_size=1, max_size=6, unique=True)


@st.composite
def schedules(draw):
    n = draw(st.integers(0, 5))
    entries = tuple(
        ScheduleEntry(tuple(sorted(draw(links_st))), draw(st.integers(1, 20)))
        for _ in range(n))
    return Schedule(entries)


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_json_roundtrip(sched):
    assert schedule_from_json(schedule_to_json(sched)) == sched


def test_total_recomputed_and_checked():
    text = '{"entries": [{"links": [[1, 2]], "slots": 2}], "total": 5}'
    with pytest.raises(ScheduleFormatError, match="does not match"):
        schedule_from_json(text)


def test_reader_sorts_links():
    text = '{"entries": [{"links": [[3, 4], [1, 2]], "slots": 1}], "total": 1}'
    sched = schedule_from_json(text)
    assert sched.entries[0].links == ((1, 2), (3, 4))


def test_repeated_link_rejected():
    text = '{"entries": [{"links": [[3, 4]], "slots": 1},' \
           ' {"links": [[1, 2], [3, 4], [1, 2]], "slots": 1}]}'
    with pytest.raises(ScheduleFormatError,
                       match=r"entry 1 lists link \(1, 2\) twice"):
        schedule_from_json(text)


def test_coverage_counts_all_entries():
    sched = Schedule((ScheduleEntry(((1, 2),), 2),
                      ScheduleEntry(((1, 2), (3, 4)), 3)))
    assert sched.coverage((1, 2)) == 5
    assert sched.coverage((3, 4)) == 3
    assert sched.total_slots == 5



@pytest.mark.parametrize("text,field", [
    ('{"entries": [{"links": [[true, 2]], "slots": 7}]}', "pairs"),
    ('{"entries": [{"links": [[2, 1]], "slots": true}]}', "'slots'"),
    ('{"entries": [{"links": [[2, 1]], "slots": 1}], "total": true}', "'total'"),
])
def test_json_booleans_are_not_numbers(text, field):
    with pytest.raises(ScheduleFormatError, match=field):
        schedule_from_json(text)


@pytest.mark.parametrize("text", [
    '{"entries": 5}',
    '{"entries": {"links": [], "slots": 1}}',
    '{"entries": [{"links": 5, "slots": 1}]}',
    '{"entries": [{"links": [[1, 2]]}]}',
    '{"entries": [{"links": [[1, 2, 3]], "slots": 1}]}',
    '{"entries": [{"links": [[1, 2.0]], "slots": 1}]}',
    '{"entries": [{"links": [[1, 2], [1, 2]], "slots": 1}]}',
    '[]',
    b"\xff{",
    pytest.param('{"entries": [], "total": ' + "1" * 5000 + "}",
                 id="total-over-int-digit-limit"),
    pytest.param(b"[" * 100000, id="nested-100000-deep"),
])
def test_malformed_documents_rejected(text):
    with pytest.raises(ScheduleFormatError):
        schedule_from_json(text)


def _large_instances():
    """The greedy-large classes beyond the golden corpus's 24 links, with
    seeded asymmetric demands 1..10; ring 40 and the 8x8 grid are
    bipartite, K12 and the random n=30, p=0.3 network are not."""
    nets = (("ring40", gen_ring(40), True), ("grid8x8", gen_grid(8, 8), True),
            ("K12", gen_complete(12), False),
            ("random30", gen_random(30, 0.3, 5), False))
    return [pytest.param(Instance(net, gen_demands(net, 1, 10, False, seed)),
                         bip, id=name)
            for seed, (name, net, bip) in enumerate(nets)]


def _dumps(schedule):
    return json.dumps({
        "entries": [{"links": e.links, "slots": e.slots}
                    for e in schedule.entries],
        "total": schedule.total_slots,
    })


HUGE = 10**400 + 1


@pytest.mark.parametrize("instance,bip", _large_instances())
def test_large_schedules_encode_as_json_dumps(instance, bip):
    scheds = [alg(instance) for alg in (hwf, mdf, hwf_tiebreak_mdf)]
    parts = bipartition(instance.network)
    assert isinstance(parts, Bipartition) == bip
    if bip:
        scheds.append(two_phase_schedule(instance, parts))
    for sched in scheds:
        huge = Schedule(tuple(ScheduleEntry(e.links, HUGE)
                              for e in sched.entries))
        for s in (sched, huge):
            text = schedule_to_json(s)
            assert text == _dumps(s)
            assert schedule_from_json(text) == s


@pytest.mark.parametrize("instance,bip", _large_instances())
def test_large_instances_save_as_json_dumps(instance, bip):
    net = instance.network
    for inst in (instance, Instance(net, (HUGE,) * len(net.links))):
        text = save_instance(inst)
        assert text == json.dumps({
            "nodes": net.node_count,
            "edges": [[a, b] for a, b in net.edges],
            "demands": [{"tx": tx, "rx": rx, "d": d}
                        for (tx, rx), d in zip(net.links, inst.demands)],
        })
        assert load_instance(text) == inst


def test_self_containing_links_raise_recursion_error():
    links = [(1, 2)]
    links.append(links)
    with pytest.raises(RecursionError):
        schedule_to_json(Schedule((ScheduleEntry(links, 1),)))
