"""Greedy schedulers.

All three follow the same loop: re-sort the list of links that still have
demand, scan it building a matching greedily, give that matching as many
slots as its most starved member needs, subtract, repeat.  The list
persists across rounds and the sort is stable, so links tied under the
sort key stay in their previous relative order.  The keys:

* ``hwf``  - heaviest residual demand first,
* ``mdf``  - highest degree in the residual conflict graph first,
  then heaviest residual,
* ``hwf_tiebreak_mdf`` - heaviest residual first, demand ties broken by
  residual degree.

Each round's matching is maximal with respect to the still-active links,
every link is covered exactly as much as it demands, and each round
exhausts at least one link, so the loop runs at most N times.
"""

from __future__ import annotations

from . import kernels
from .conflict import build_conflict_graph
from .model import Instance
from .schedule import Schedule, ScheduleEntry

__all__ = ["hwf", "mdf", "hwf_tiebreak_mdf"]


def _greedy(instance: Instance, mode: int) -> Schedule:
    network = instance.network
    if not network.links or not any(instance.demands):
        return Schedule()
    cg = build_conflict_graph(network)
    rounds = kernels.greedy_rounds(list(instance.demands), list(cg.masks), mode)
    all_links = network.links
    entries = []
    for mask, slots in rounds:
        links = []
        while mask:
            b = mask & -mask
            mask ^= b
            links.append(all_links[b.bit_length() - 1])
        entries.append(ScheduleEntry(tuple(links), slots))
    return Schedule(tuple(entries))


def hwf(instance: Instance) -> Schedule:
    """Heaviest-demand-first greedy schedule."""
    return _greedy(instance, kernels.HWF)


def mdf(instance: Instance) -> Schedule:
    """Highest-conflict-degree-first greedy schedule."""
    return _greedy(instance, kernels.MDF)


def hwf_tiebreak_mdf(instance: Instance) -> Schedule:
    """Heaviest-demand-first with demand ties broken by residual degree."""
    return _greedy(instance, kernels.HWF_TIE_MDF)
