"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from mtrsched import (Instance, Schedule, ScheduleEntry,  # noqa: E402
                      save_instance)
from run import percentile  # noqa: E402
from speed import NOMINAL_S, factors  # noqa: E402
from tracing import NullTracer, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, audit  # noqa: E402


def one_slot_removed(schedule: Schedule) -> Schedule:
    first, *rest = schedule.entries
    if first.slots == 1:
        return Schedule(tuple(rest))
    return Schedule((ScheduleEntry(first.links, first.slots - 1), *rest))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_input_bytes(name):
    wl = WORKLOADS[name]

    def encoded(seed):
        inputs = [wl.make_input(seed, k) for k in range(30)]
        return [save_instance(i) if isinstance(i, Instance) else json.dumps(i)
                for i in inputs]

    assert encoded(7) == encoded(7)
    assert encoded(7) != encoded(8)


def test_exact_check_flags_one_slot_removed():
    wl = WORKLOADS["exact-dense"]
    inst = wl.make_input(3, 0)
    ilp, mis = wl.op(inst, NullTracer())
    assert wl.check(inst, (ilp, mis)) == []
    short = dataclasses.replace(ilp, schedule=one_slot_removed(ilp.schedule))
    assert wl.check(inst, (short, mis))


def test_greedy_check_flags_one_slot_removed():
    wl = WORKLOADS["greedy-large"]
    inst = wl.make_input(3, 0)
    result = wl.op(inst, NullTracer())
    assert wl.check(inst, result) == []
    short = one_slot_removed(result[0][0][0])
    assert wl.check(inst, audit(inst, [short], NullTracer()))


@pytest.mark.parametrize("n", range(1, 420))
def test_percentile_keeps_ten_samples_beyond(n):
    samples = list(range(n))
    for q in (50, 90, 95):
        try:
            p = percentile(samples, q)
        except ValueError:
            assert n * (100 - q) / 100 < 11
            continue
        assert sum(1 for x in samples if x > p) >= 10


def test_percentile_needs_ten_samples_beyond():
    assert percentile(range(200), 95) == 189
    assert percentile(range(100), 90) == 89
    with pytest.raises(ValueError):
        percentile(range(199), 95)
    with pytest.raises(ValueError):
        percentile(range(99), 90)


def test_self_time_subtracts_direct_children():
    spans = [["op", 0.0, 10.0, None, 0], ["a", 1.0, 4.0, 0, 0],
             ["b", 2.0, 3.0, 1, 0], ["c", 5.0, 6.0, 0, 0]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_records_nesting_and_op():
    tr = Tracer()
    tr.op = 4
    with tr.span("op"):
        with tr.span("inner"):
            tr.count("things", 2)
    (n0, s0, e0, p0, o0), (n1, s1, e1, p1, o1) = tr.spans
    assert (n0, p0, o0, n1, p1, o1) == ("op", None, 4, "inner", 0, 4)
    assert s0 <= s1 <= e1 <= e0
    assert tr.counts["things"] == 2


def test_speed_factor_uses_the_probes_around_each_op():
    # probes[k] ran before op k, probes[k + 1] after it
    probes = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    scale = factors(probes, radius=1)
    assert len(scale) == len(probes) - 1
    assert scale[0] == NOMINAL_S / 1.0
    assert scale[-1] == NOMINAL_S / 2.0
