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
        # (i,j) conflicts exactly with the links into i and out of j, so
        # one pass collects per-node masks and a second ORs two of them.
        into = [0] * (network.node_count + 1)
        out = [0] * (network.node_count + 1)
        for a, (i, j) in enumerate(links):
            bit = 1 << a
            out[i] |= bit
            into[j] |= bit
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


def _mask_bits(mask: int) -> tuple[int, ...]:
    """The set bits of a mask in ascending order: the one decoder every
    link and node bitmask goes through."""
    bits = []
    while mask:
        b = mask & -mask
        mask ^= b
        bits.append(b.bit_length() - 1)
    return tuple(bits)


def mask_to_links(network: Network, mask: int) -> frozenset[Link]:
    """Decode a link-index bitmask into the links it names."""
    links = network.links
    return frozenset(links[b] for b in _mask_bits(mask))


def is_matching(cg: ConflictGraph, links: Iterable[Link]) -> bool:
    """True iff the links are pairwise conflict-free."""
    mask = _to_mask(cg, links)
    return all(cg.masks[b] & mask == 0 for b in _mask_bits(mask))


def is_maximal(cg: ConflictGraph, matching: Iterable[Link],
               eligible: Iterable[Link] | None = None) -> bool:
    """True iff no eligible link outside the matching can be added without
    a conflict.  ``eligible`` defaults to all links of the network."""
    mmask = _to_mask(cg, matching)
    if eligible is None:
        emask = (1 << cg.n_links) - 1
    else:
        emask = _to_mask(cg, eligible)
    return all(cg.masks[b] & mmask for b in _mask_bits(emask & ~mmask))


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
    ``adj``, returned as bitmasks in no particular order.

    Bron-Kerbosch with pivoting, run on the complement graph (maximal
    independent sets are exactly the maximal cliques of the complement).
    """
    n = len(adj)
    if n == 0:
        return [0]
    full = (1 << n) - 1
    # complement adjacency: non[v] = vertices compatible with v
    non = [~adj[v] & full & ~(1 << v) for v in range(n)]
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        # pivot on the vertex of P|X covering most of P
        m = p | x
        best_cov = -1
        best = 0
        while m:
            b = m & -m
            m ^= b
            cov = (p & non[b.bit_length() - 1]).bit_count()
            if cov > best_cov:
                best_cov = cov
                best = b.bit_length() - 1
        cand = p & ~non[best]
        while cand:
            b = cand & -cand
            cand ^= b
            nv = non[b.bit_length() - 1]
            expand(r | b, p & nv, x & nv)
            p ^= b
            x |= b

    expand(0, full, 0)
    return out


def enumerate_maximal_matching_masks(cg: ConflictGraph,
                                     cap: int = DEFAULT_LINK_CAP) -> list[int]:
    """Maximal matchings as link-index bitmasks, in the canonical order
    (sorted by ascending member index tuples)."""
    if cg.n_links > cap:
        raise SizeLimitError(
            f"{cg.n_links} links exceeds the enumeration cap of {cap}; "
            "use the greedy schedulers for networks this large")
    if cg.n_links == 0:
        return [0]
    masks = maximal_independent_sets(cg.masks)
    masks.sort(key=_mask_bits)
    return masks


def enumerate_maximal_matchings(cg: ConflictGraph,
                                cap: int = DEFAULT_LINK_CAP) -> list[frozenset[Link]]:
    """All maximal matchings (maximal independent sets of the conflict
    graph), sorted by their sorted link tuples.

    Exhaustive enumeration is exponential in the worst case, so networks
    with more than ``cap`` links are refused.
    """
    return [mask_to_links(cg.network, m)
            for m in enumerate_maximal_matching_masks(cg, cap)]


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
    masks = maximal_independent_sets(adj)
    masks.sort(key=_mask_bits)
    return masks


def enumerate_mis_nodes(network: Network,
                        cap: int = DEFAULT_NODE_CAP) -> list[frozenset[int]]:
    """All maximal independent sets of the undirected topology graph,
    sorted by their sorted node tuples."""
    return [frozenset(b + 1 for b in _mask_bits(m))
            for m in enumerate_mis_node_masks(network, cap)]


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
