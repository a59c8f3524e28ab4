"""Schedule quality metrics and validity checking."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

from .model import Instance, Link, Network
from .schedule import Schedule

__all__ = ["UndefinedPenaltyError", "cost_penalty", "lower_bounds",
           "Violation", "validate_schedule"]


class UndefinedPenaltyError(ValueError):
    """Penalty against a zero optimum with nonzero total is undefined."""


def cost_penalty(total: int, optimum: int) -> Fraction:
    """Percentage excess airtime of a schedule over the optimum,
    (total - optimum) / optimum * 100, as an exact fraction."""
    if optimum == 0:
        if total == 0:
            return Fraction(0)
        raise UndefinedPenaltyError(
            f"total {total} > 0 against optimum 0 has no defined penalty")
    return Fraction(100 * (total - optimum), optimum)


def _node_bound(network: Network, demands: Sequence[int]) -> int:
    """The largest incoming plus largest outgoing demand of any node."""
    # keyed by the nodes that have links, whatever their labels
    max_in = dict.fromkeys(network._neighbors, 0)
    max_out = max_in.copy()
    for (tx, rx), d in zip(network.links, demands):
        max_out[tx] = max(max_out[tx], d)
        max_in[rx] = max(max_in[rx], d)
    return max([max_in[v] + max_out[v] for v in max_in], default=0)


def lower_bounds(instance: Instance) -> tuple[int, int]:
    """Two cheap lower bounds on any feasible frame length.

    Edge bound: both directions of an edge conflict, so an edge needs
    f_ij + f_ji slots.  Node bound: a node cannot transmit and receive in
    the same slot, so it needs its largest incoming plus largest outgoing
    demand.  (The node bound dominates the edge bound; both are reported
    for cross-checking.)  Both are also at most the root LP (the
    fractional relaxation of ``exact.solve_lp``): no matching holds both
    links that a bound adds up, so every fractional allocation covering
    them spends at least their sum.
    """
    net = instance.network
    index, demands = net._index, instance.demands
    edge_bound = max([demands[index[a, b]] + demands[index[b, a]]
                      for a, b in net.edges], default=0)
    return edge_bound, _node_bound(net, demands)


_tx, _rx = itemgetter(0), itemgetter(1)


@dataclass(frozen=True)
class Violation:
    """One way a schedule fails its instance."""

    kind: str  # "unknown-link" | "bad-slots" | "conflict" | "under-coverage"
    message: str
    links: tuple[Link, ...] = ()
    node: int | None = None
    rule: str | None = None


def validate_schedule(instance: Instance, schedule: Schedule) -> list[Violation]:
    """Every rule violation and under-covered link; empty list means the
    schedule is valid and covers all demands.

    Violations come entry by entry (bad slot count, unknown links, then
    R3 conflicts in pair order), followed by under-covered links in link
    order.  One walk over an entry's links looks each link up once: an
    unknown link is reported in entry order, a known one is kept along
    with its index.  An entry's links conflict iff some node both
    transmits and receives in it, so entries whose transmitter and
    receiver sets are disjoint skip the pairwise scan.
    Coverage is a list indexed by link index and counts each entry once
    per distinct link, as ``Schedule.coverage`` does, in one pass.
    """
    net = instance.network
    index = net._index
    out: list[Violation] = []
    coverage = [0] * len(net.links)
    for e_idx, entry in enumerate(schedule.entries):
        slots = entry.slots
        if slots <= 0:
            out.append(Violation(
                "bad-slots",
                f"entry {e_idx} has non-positive slot count {slots}",
                links=entry.links))
        known, ids = [], set()
        for link in entry.links:
            i = index.get(link)
            if i is None:
                out.append(Violation(
                    "unknown-link",
                    f"entry {e_idx} uses link {link} absent from the network",
                    links=(link,)))
            else:
                known.append(link)
                ids.add(i)
        for i in ids:
            coverage[i] += slots
        if set(map(_tx, known)).isdisjoint(map(_rx, known)):
            continue
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
    for link, demand, covered in zip(net.links, instance.demands, coverage):
        if covered < demand:
            out.append(Violation(
                "under-coverage",
                f"link {link} gets {covered} of {demand} demanded slots",
                links=(link,)))
    return out
