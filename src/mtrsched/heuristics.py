"""Greedy schedulers.

``hwf``, ``mdf`` and ``hwf_tiebreak_mdf`` each return a schedule whose
every entry is a matching maximal among the links that still have demand,
that covers every link exactly as much as it demands, and that has no
more entries than links.  They differ only in the order in which each
round offers the links to its matching:

* ``hwf``  - heaviest residual demand first,
* ``mdf``  - highest degree in the residual conflict graph first; the
  residual demand is never consulted, so degree ties keep the previous
  round's order,
* ``hwf_tiebreak_mdf`` - heaviest residual first, demand ties broken by
  residual degree.

``greedy_rounds`` holds the loop all three share.
"""

from __future__ import annotations

from typing import Sequence

from .conflict import _members, build_conflict_graph
from .model import Instance, Link
from .schedule import Schedule, ScheduleEntry

__all__ = ["hwf", "mdf", "hwf_tiebreak_mdf"]

HWF = 0
MDF = 1
HWF_TIE_MDF = 2


def greedy_rounds(demands: Sequence[int], adj: Sequence[int],
                  mode: int) -> list[tuple[int, int]]:
    """Greedy maximal-matching rounds over links with positive residual
    demand.  Returns [(member_bitmask, slots), ...].

    One persistent list holds the active links, initially in ascending
    index order.  Each round makes one stable descending sort of it by
    the mode's key, so key ties keep their relative order from the
    previous round; ``reverse=True`` keeps ties in order, as a negated key
    would.  A mode is one key: HWF the residual, MDF the degree, the
    hybrid ``residual * n + degree`` for n links.  A conflict mask has no
    self bit, so a degree is below n and the hybrid's key orders by
    residual, then degree.  The degree is the popcount of a link's
    conflict mask against ``amask``, the live mask of active links, from
    which each exhausted link is XORed out.

    The sorted list is scanned once, adding every conflict-free link; the
    matching then gets the minimum residual among its members, which is
    subtracted, and exhausted links leave the list in place.  Residuals
    never go negative, so the live links are those whose residual is
    truthy.  Each round exhausts at least one link, so there are at most
    N rounds.

    Around it, a greedy solve builds the conflict graph and decodes the
    rounds, and callers usually validate and serialise the schedule; that
    work outweighs the rounds themselves (perfbench/ measures the shares).
    """
    residual = list(demands)
    n = len(residual)
    active = [v for v in range(n) if residual[v] > 0]
    amask = 0
    for v in active:
        amask |= 1 << v
    by_residual = residual.__getitem__

    def by_degree(v: int) -> int:
        return (adj[v] & amask).bit_count()

    def by_residual_then_degree(v: int) -> int:
        return residual[v] * n + (adj[v] & amask).bit_count()

    key = {HWF: by_residual, MDF: by_degree,
           HWF_TIE_MDF: by_residual_then_degree}[mode]
    rounds: list[tuple[int, int]] = []
    while active:
        active.sort(key=key, reverse=True)
        sel = 0
        members = []
        for v in active:
            if adj[v] & sel == 0:
                sel |= 1 << v
                members.append(v)
        slots = min(map(by_residual, members))
        rounds.append((sel, slots))
        for v in members:
            residual[v] -= slots
            if not residual[v]:
                amask ^= 1 << v
        active = list(filter(by_residual, active))
    return rounds


def _schedule(all_links: Sequence[Link],
              rounds: list[tuple[int, int]]) -> Schedule:
    """Decode (link bitmask, slots) rounds; ascending bits give sorted tuples."""
    return Schedule(tuple(ScheduleEntry(tuple(_members(mask, all_links)), slots)
                          for mask, slots in rounds))


def _greedy(instance: Instance, mode: int) -> Schedule:
    cg = build_conflict_graph(instance.network)
    return _schedule(instance.network.links,
                     greedy_rounds(instance.demands, cg.masks, mode))


def hwf(instance: Instance) -> Schedule:
    """Heaviest-demand-first greedy schedule."""
    return _greedy(instance, HWF)


def mdf(instance: Instance) -> Schedule:
    """Highest-conflict-degree-first greedy schedule."""
    return _greedy(instance, MDF)


def hwf_tiebreak_mdf(instance: Instance) -> Schedule:
    """Heaviest-demand-first with demand ties broken by residual degree."""
    return _greedy(instance, HWF_TIE_MDF)
