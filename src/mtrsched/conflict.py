"""Conflict graph over directional links, matchings, and enumeration.

Two links (i,j) and (k,l) conflict iff i == l or j == k: some node would
have to transmit and receive in the same slot, which half-duplex hardware
cannot do.  Links sharing only a transmitter or only a receiver do not
conflict (a node may transmit on several outgoing links at once, or
receive on several incoming links at once).

A matching is a set of links that are pairwise conflict-free, i.e. an
independent set of the conflict graph.

Equivalently, link (i,j) conflicts with exactly the links into i and the
links out of j, so the conflict graph is built from one incoming and one
outgoing bitmask per node in time linear in the number of links.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .model import Link, Network

DEFAULT_LINK_CAP = 30
DEFAULT_NODE_CAP = 8

__all__ = [
    "DEFAULT_LINK_CAP",
    "DEFAULT_NODE_CAP",
    "SizeLimitError",
    "ConflictGraph",
    "build_conflict_graph",
    "is_matching",
    "is_maximal",
    "transpose",
    "mask_to_links",
    "enumerate_maximal_matching_masks",
    "enumerate_maximal_matchings",
    "enumerate_mis_node_masks",
    "enumerate_mis_nodes",
    "induced_matchings",
]


class SizeLimitError(Exception):
    """Instance too large for exhaustive enumeration; use the heuristics."""


class ConflictGraph:
    """One vertex per directional link; adjacency as bitmasks over the
    canonical link indices of the underlying network."""

    __slots__ = ("network", "n_links", "masks")

    def __init__(self, network: Network):
        self.network = network
        links = network.links
        self.n_links = len(links)
        # (i,j) conflicts exactly with the links into i and out of j.  The
        # masks are keyed by the nodes that have links, whatever their
        # labels; every edge adds both orientations, so each endpoint of a
        # link has both masks.
        into: dict[int, int] = {}
        out: dict[int, int] = {}
        for a, (i, j) in enumerate(links):
            out[i] = out.get(i, 0) | 1 << a
            into[j] = into.get(j, 0) | 1 << a
        self.masks: tuple[int, ...] = tuple(into[i] | out[j] for i, j in links)

    def adjacent(self, a: Link, b: Link) -> bool:
        ia = self.network.link_index(a)
        ib = self.network.link_index(b)
        return bool(self.masks[ia] >> ib & 1)

    def degree(self, link: Link) -> int:
        return self.masks[self.network.link_index(link)].bit_count()


def build_conflict_graph(network: Network) -> ConflictGraph:
    return ConflictGraph(network)


def _to_mask(cg: ConflictGraph, links: Iterable[Link]) -> int:
    mask = 0
    for link in links:
        mask |= 1 << cg.network.link_index(link)
    return mask


def _members(mask: int, items: Sequence) -> list:
    """``items[b]`` for each set bit b of the mask, in ascending order."""
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(items[b.bit_length() - 1])
    return out


def mask_to_links(network: Network, mask: int) -> frozenset[Link]:
    """Decode a link-index bitmask into the links it names."""
    return frozenset(_members(mask, network.links))


def is_matching(cg: ConflictGraph, links: Iterable[Link]) -> bool:
    """True iff the links are pairwise conflict-free."""
    mask = _to_mask(cg, links)
    return all(m & mask == 0 for m in _members(mask, cg.masks))


def is_maximal(cg: ConflictGraph, matching: Iterable[Link],
               eligible: Iterable[Link] | None = None) -> bool:
    """True iff no eligible link outside the matching can be added without
    a conflict.  ``eligible`` defaults to all links of the network."""
    mmask = _to_mask(cg, matching)
    if eligible is None:
        emask = (1 << cg.n_links) - 1
    else:
        emask = _to_mask(cg, eligible)
    return all(m & mmask for m in _members(emask & ~mmask, cg.masks))


def transpose(network: Network, matching: Iterable[Link]) -> frozenset[Link]:
    """Reverse every link of a matching.  The result is again a matching:
    swapping all transmit and receive roles preserves half-duplexity."""
    out = set()
    for tx, rx in matching:
        if not network.has_link((tx, rx)):
            raise KeyError(f"no such link {(tx, rx)}")
        out.add((rx, tx))
    return frozenset(out)


def maximal_independent_sets(adj: Sequence[int]) -> list[int]:
    """All maximal independent sets of the graph with adjacency bitmasks
    ``adj``, returned as bitmasks in the canonical order (sorted by
    ascending member index tuples).

    Bron-Kerbosch with pivoting, on ``adj`` itself: a set R grows by a
    candidate b of P, and b's closed neighbourhood leaves P and the
    excluded set X.  The pivot u is the lowest vertex of X, or of P when X
    is empty, and only the candidates in u's closed neighbourhood are
    branched on.  Any u in P | X is a valid pivot: a maximal set extending
    R that held neither u nor a neighbour of u could add u.  The branch
    order depends on the pivot, hence the final sort.

    The sort needs no decoding.  Maximal sets form an antichain, so no
    set's member tuple is a proper prefix of another's, and two tuples
    first differ at the lowest vertex in which the sets differ; the tuple
    holding it sorts first.  With vertex v as bit w-1-v of a reversed
    mask (w = len(adj)), that vertex is the highest differing bit, so
    ascending member tuples are descending reversed masks.  R carries its
    reversed mask as a sort key through the recursion.
    """
    w = len(adj)
    closed = [a | 1 << v for v, a in enumerate(adj)]
    rev = [1 << (w - 1 - v) for v in range(w)]
    out: list[tuple[int, int]] = []

    def expand(key: int, r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append((key, r))
            return
        u = x & -x if x else p & -p
        cand = p & closed[u.bit_length() - 1]
        while cand:
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            keep = ~closed[v]
            expand(key | rev[v], r | b, p & keep, x & keep)
            p ^= b
            x |= b

    expand(0, 0, (1 << w) - 1, 0)
    out.sort(reverse=True)  # keys are distinct: masks are never compared
    return [r for _, r in out]


def enumerate_maximal_matching_masks(cg: ConflictGraph) -> list[int]:
    """Maximal matchings as link-index bitmasks, in the canonical order
    (sorted by ascending member index tuples)."""
    if cg.n_links > DEFAULT_LINK_CAP:
        raise SizeLimitError(
            f"{cg.n_links} links exceeds the enumeration cap of {DEFAULT_LINK_CAP}; "
            "use the greedy schedulers for networks this large")
    return maximal_independent_sets(cg.masks)


def enumerate_maximal_matchings(cg: ConflictGraph) -> list[frozenset[Link]]:
    """All maximal matchings (maximal independent sets of the conflict
    graph), sorted by their sorted link tuples.

    Exhaustive enumeration is exponential in the worst case, so networks
    with more than ``DEFAULT_LINK_CAP`` links are refused.
    """
    return [mask_to_links(cg.network, m)
            for m in enumerate_maximal_matching_masks(cg)]


def enumerate_mis_node_masks(network: Network,
                             cap: int = DEFAULT_NODE_CAP) -> list[int]:
    """Maximal independent sets of the undirected topology graph as node
    bitmasks (node v is bit v-1), in the canonical order (sorted by
    ascending member index tuples, hence by sorted node tuples)."""
    n = network.node_count
    if n > cap:
        raise SizeLimitError(
            f"{n} nodes exceeds the enumeration cap of {cap}")
    adj = [0] * n
    for a, b in network.edges:
        adj[a - 1] |= 1 << (b - 1)
        adj[b - 1] |= 1 << (a - 1)
    return maximal_independent_sets(adj)


def enumerate_mis_nodes(network: Network) -> list[frozenset[int]]:
    """All maximal independent sets of the undirected topology graph,
    sorted by their sorted node tuples."""
    nodes = range(1, network.node_count + 1)
    return [frozenset(_members(m, nodes))
            for m in enumerate_mis_node_masks(network)]


def induced_matchings(network: Network,
                      node_set: Iterable[int]) -> tuple[frozenset[Link], frozenset[Link]]:
    """The two matchings induced by an independent node set: all outgoing
    links of its members, and all incoming links (the transpose)."""
    nodes = set(node_set)
    for v in nodes:
        for w in network.neighbors(v):
            if w in nodes:
                raise ValueError(f"nodes {v} and {w} are adjacent; "
                                 "not an independent set")
    outgoing = frozenset((v, w) for v in nodes for w in network.neighbors(v))
    incoming = frozenset((w, v) for v in nodes for w in network.neighbors(v))
    return outgoing, incoming
