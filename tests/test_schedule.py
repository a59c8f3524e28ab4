import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    '{"entries": [{"links": [[1, 2, 3]], "slots": 1}]}',
    '{"entries": [{"links": [[1, 2.0]], "slots": 1}]}',
    '[]',
    b"\xff{",
    pytest.param('{"entries": [], "total": ' + "1" * 5000 + "}",
                 id="total-over-int-digit-limit"),
])
def test_malformed_documents_rejected(text):
    with pytest.raises(ScheduleFormatError):
        schedule_from_json(text)
