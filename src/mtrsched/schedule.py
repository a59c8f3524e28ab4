"""Schedule data type and its JSON document form."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .model import Link

__all__ = ["ScheduleEntry", "Schedule", "ScheduleFormatError",
           "schedule_to_json", "schedule_from_json"]


class ScheduleFormatError(ValueError):
    """Malformed schedule document."""


@dataclass(frozen=True)
class ScheduleEntry:
    """A matching and the number of consecutive slots assigned to it."""

    links: tuple[Link, ...]
    slots: int


@dataclass(frozen=True)
class Schedule:
    """Ordered list of (matching, slots) entries."""

    entries: tuple[ScheduleEntry, ...] = ()

    @property
    def total_slots(self) -> int:
        return sum(e.slots for e in self.entries)

    def coverage(self, link: Link) -> int:
        """Total slots over entries containing the given link."""
        return sum(e.slots for e in self.entries if link in e.links)


def schedule_to_json(schedule: Schedule) -> str:
    doc = {
        "entries": [
            {"links": e.links, "slots": e.slots}  # tuples encode as arrays
            for e in schedule.entries
        ],
        "total": schedule.total_slots,
    }
    return json.dumps(doc)


def schedule_from_json(text: str | bytes) -> Schedule:
    """Parse a schedule document; inverse of schedule_to_json.  Node ids
    and slot counts must be JSON integers: ``true``/``false`` are refused
    (``type(v) is int`` excludes bool, as ``model._json_int`` does)."""
    try:  # bad UTF-8, bad JSON and over-long ints all raise ValueError
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except ValueError as exc:
        raise ScheduleFormatError(f"not valid JSON: {exc}") from None
    if type(doc) is not dict or type(doc.get("entries")) is not list:
        raise ScheduleFormatError("schedule document must be an object with "
                                  "an 'entries' list")
    entries = []
    for rec in doc["entries"]:
        if type(rec) is not dict or "links" not in rec or "slots" not in rec:
            raise ScheduleFormatError(f"entry must have 'links' and 'slots': {rec!r}")
        slots = rec["slots"]
        if type(slots) is not int:
            raise ScheduleFormatError(f"'slots' must be an integer, got {slots!r}")
        pairs = rec["links"]
        if type(pairs) is not list:
            raise ScheduleFormatError(f"'links' must be a list, got {pairs!r}")
        links = []
        for pair in pairs:
            if (type(pair) is not list or len(pair) != 2
                    or type(pair[0]) is not int or type(pair[1]) is not int):
                raise ScheduleFormatError(f"links must be [tx, rx] pairs, got {pair!r}")
            links.append((pair[0], pair[1]))
        entries.append(ScheduleEntry(tuple(sorted(links)), slots))
    sched = Schedule(tuple(entries))
    if "total" in doc:
        total = doc["total"]
        if type(total) is not int:
            raise ScheduleFormatError(f"'total' must be an integer, got {total!r}")
        if total != sched.total_slots:
            raise ScheduleFormatError(
                f"declared total {total} does not match entry sum {sched.total_slots}")
    return sched
