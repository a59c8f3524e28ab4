"""Network topologies, per-link traffic demands, and instance files.

Nodes are numbered 1..n.  A directional link is a ``(tx, rx)`` tuple; every
undirected edge contributes both orientations.  Links are always kept in
lexicographic ``(tx, rx)`` order, and that order defines the link indices
used by every other module (conflict graphs, demand vectors, schedules).

All generators are pure functions of their arguments.  Randomized ones take
an explicit integer seed and draw from ``random.Random`` (CPython's Mersenne
Twister), which is reproducible across platforms and versions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable

Link = tuple[int, int]

__all__ = [
    "Link",
    "Network",
    "Instance",
    "InvalidSizeError",
    "InstanceFormatError",
    "TOPOLOGIES",
    "gen_linear",
    "gen_ring",
    "gen_grid",
    "gen_complete",
    "gen_random",
    "gen_fixed_topology",
    "gen_demands",
    "load_instance",
    "save_instance",
]


TOPOLOGIES = ("linear", "ring", "grid", "complete", "random")


class InvalidSizeError(ValueError):
    """Topology or demand parameters outside a generator's domain."""


class InstanceFormatError(ValueError):
    """Malformed instance document."""


class Network:
    """Undirected topology plus the canonical list of directional links."""

    __slots__ = ("node_count", "edges", "links", "_index", "_neighbors")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]]):
        if type(node_count) is not int or node_count < 1:
            raise InvalidSizeError(f"node_count must be an integer >= 1, "
                                   f"got {node_count!r}")
        seen: set[tuple[int, int]] = set()
        for a, b in edges:
            if not (type(a) is int and type(b) is int):  # refuses bool
                raise InstanceFormatError(f"edge endpoints must be integers: ({a!r}, {b!r})")
            if a == b:
                raise InstanceFormatError(f"self-loop edge at node {a}")
            if not (1 <= a <= node_count and 1 <= b <= node_count):
                raise InstanceFormatError(
                    f"edge ({a}, {b}) outside node range 1..{node_count}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise InstanceFormatError(f"duplicate edge {key}")
            seen.add(key)
        self.node_count = node_count
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))
        links: list[Link] = []
        for a, b in self.edges:
            links.append((a, b))
            links.append((b, a))
        links.sort()
        self.links: tuple[Link, ...] = tuple(links)
        self._index = {link: i for i, link in enumerate(self.links)}
        # a node's links are one run of the sorted list, ascending by rx
        self._neighbors = {tx: tuple(rx for _, rx in run)
                           for tx, run in groupby(links, itemgetter(0))}

    def link_index(self, link: Link) -> int:
        """Position of ``link`` in the canonical link order."""
        try:
            return self._index[link]
        except KeyError:
            raise KeyError(f"no such link {link}") from None

    def has_link(self, link: Link) -> bool:
        return link in self._index

    def neighbors(self, node: int) -> tuple[int, ...]:
        """The nodes sharing an edge with ``node``, ascending; ``()`` for a
        node without links.  KeyError for a node outside 1..node_count."""
        if not 1 <= node <= self.node_count:
            raise KeyError(node)
        return self._neighbors.get(node, ())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Network)
                and self.node_count == other.node_count
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.node_count, self.edges))

    def __repr__(self) -> str:
        return f"Network(node_count={self.node_count}, edges={list(self.edges)})"


@dataclass(frozen=True)
class Instance:
    """A network together with one integer slot demand per directional link."""

    network: Network
    demands: tuple[int, ...]

    def __post_init__(self):
        # a caller's list would stay mutable and unhashable
        object.__setattr__(self, "demands", tuple(self.demands))
        if len(self.demands) != len(self.network.links):
            raise InstanceFormatError(
                f"demand vector length {len(self.demands)} does not match "
                f"link count {len(self.network.links)}")
        for link, d in zip(self.network.links, self.demands):
            if type(d) is not int or d < 0:  # refuses bool
                raise InstanceFormatError(f"demand for link {link} must be a "
                                          f"non-negative integer, got {d!r}")

    def demand_of(self, link: Link) -> int:
        return self.demands[self.network.link_index(link)]


def gen_linear(n: int) -> Network:
    """Path topology 1-2-...-n."""
    if n < 2:
        raise InvalidSizeError(f"linear network needs n >= 2, got {n}")
    return Network(n, [(k, k + 1) for k in range(1, n)])


def gen_ring(n: int) -> Network:
    """Cycle topology 1-2-...-n-1."""
    if n < 3:
        raise InvalidSizeError(f"ring network needs n >= 3, got {n}")
    return Network(n, [(k, k + 1) for k in range(1, n)] + [(n, 1)])


def gen_grid(rows: int, cols: int) -> Network:
    """rows x cols lattice, numbered boustrophedon (left-to-right on even
    rows, right-to-left on odd rows, counting from the top).

    For 3x3 this yields nodes 1 2 3 / 6 5 4 / 7 8 9 and the corresponding
    12 lattice edges.
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise InvalidSizeError(f"grid needs rows, cols >= 1 and rows*cols >= 2, "
                               f"got {rows}x{cols}")

    def node(r: int, c: int) -> int:
        if r % 2 == 0:
            return r * cols + c + 1
        return r * cols + (cols - 1 - c) + 1

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((node(r, c), node(r, c + 1)))
            if r + 1 < rows:
                edges.append((node(r, c), node(r + 1, c)))
    return Network(rows * cols, edges)


def gen_complete(n: int) -> Network:
    """Fully connected topology on n nodes."""
    if n < 2:
        raise InvalidSizeError(f"complete network needs n >= 2, got {n}")
    return Network(n, [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)])


def gen_fixed_topology(topology: str, n: int, rows: int, cols: int) -> Network:
    """The named non-random topology: ``grid`` takes rows x cols, the
    others n nodes."""
    if topology == "grid":
        return gen_grid(rows, cols)
    return {"linear": gen_linear, "ring": gen_ring,
            "complete": gen_complete}[topology](n)


def gen_random(n: int, p: float, seed: int) -> Network:
    """Each unordered node pair becomes an edge independently with
    probability p.  Isolated nodes are kept; they simply carry no links.
    """
    _check_random_topology(n, p)
    return _random_network(n, p, random.Random(seed))


def _check_random_topology(n: int, p: float) -> None:
    if n < 2:
        raise InvalidSizeError(f"random network needs n >= 2, got {n}")
    if not 0.0 <= p <= 1.0:
        raise InvalidSizeError(f"edge probability must be in [0, 1], got {p}")


def _random_network(n: int, p: float, rng: random.Random) -> Network:
    edges = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if rng.random() < p:
                edges.append((a, b))
    return Network(n, edges)


def gen_demands(network: Network, lo: int, hi: int, symmetric: bool,
                seed: int) -> tuple[int, ...]:
    """Uniform integer demands in lo..hi, one draw per link, or one draw
    per undirected edge when symmetric."""
    _check_demand_range(lo, hi)
    return _random_demands(network, lo, hi, symmetric, random.Random(seed))


def _check_demand_range(lo: int, hi: int) -> None:
    if not 1 <= lo <= hi:
        raise InvalidSizeError(f"demand range needs 1 <= lo <= hi, got {lo}..{hi}")


def _random_demands(network: Network, lo: int, hi: int, symmetric: bool,
                    rng: random.Random) -> tuple[int, ...]:
    demands = [0] * len(network.links)
    if symmetric:
        for a, b in network.edges:
            d = rng.randint(lo, hi)
            demands[network.link_index((a, b))] = d
            demands[network.link_index((b, a))] = d
    else:
        for i in range(len(network.links)):
            demands[i] = rng.randint(lo, hi)
    return tuple(demands)


# The package's documents are trees of dicts, lists, tuples, ints and strs,
# so the encoder's circular-reference table, which records and forgets an
# id for every container it enters, never finds a cycle; without it the
# output is byte-identical to ``json.dumps``, and a document that does
# contain itself raises RecursionError instead of ValueError.
_dump_json = json.JSONEncoder(check_circular=False).encode


def save_instance(instance: Instance) -> str:
    """Serialize an instance to its canonical JSON document."""
    net = instance.network
    doc = {
        "nodes": net.node_count,
        "edges": [[a, b] for a, b in net.edges],
        "demands": [
            {"tx": tx, "rx": rx, "d": instance.demands[i]}
            for i, (tx, rx) in enumerate(net.links)
        ],
    }
    return _dump_json(doc)


def _parse_json(text: str | bytes, error_cls: type[ValueError]):
    """Decode a UTF-8 JSON document, raising ``error_cls`` for anything
    that is not one."""
    try:  # bad UTF-8, bad JSON and over-long ints raise ValueError,
        # deeply nested arrays or objects RecursionError
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:
        raise error_cls(f"not valid JSON: {exc}") from None


def load_instance(text: str | bytes) -> Instance:
    """Parse an instance document; inverse of save_instance.  Counts and
    node ids must be JSON integers: ``type(v) is int`` refuses
    ``true``/``false``."""
    doc = _parse_json(text, InstanceFormatError)
    if not isinstance(doc, dict):
        raise InstanceFormatError("top-level document must be an object")
    for key in ("nodes", "edges", "demands"):
        if key not in doc:
            raise InstanceFormatError(f"missing required key {key!r}")
    nodes = doc["nodes"]
    if type(nodes) is not int or nodes < 1:
        raise InstanceFormatError(f"'nodes' must be a positive integer, got {nodes!r}")
    if not isinstance(doc["edges"], list):
        raise InstanceFormatError("'edges' must be a list of node pairs")
    edges = []
    for e in doc["edges"]:
        if (not isinstance(e, list) or len(e) != 2
                or type(e[0]) is not int or type(e[1]) is not int):
            raise InstanceFormatError(f"edge entries must be [a, b] integer pairs, got {e!r}")
        edges.append((e[0], e[1]))
    network = Network(nodes, edges)

    if not isinstance(doc["demands"], list):
        raise InstanceFormatError("'demands' must be a list of records")
    demands = {}  # link index -> "d"; Instance checks the values
    for rec in doc["demands"]:
        if not isinstance(rec, dict) or set(rec) != {"tx", "rx", "d"}:
            raise InstanceFormatError(f"demand records must have keys tx, rx, d; got {rec!r}")
        link = (rec["tx"], rec["rx"])
        if type(link[0]) is not int or type(link[1]) is not int:
            raise InstanceFormatError(f"demand tx and rx must be integer node ids, got {link!r}")
        if not network.has_link(link):
            raise InstanceFormatError(f"demand given for nonexistent link {link}")
        i = network.link_index(link)
        if i in demands:
            raise InstanceFormatError(f"duplicate demand record for link {link}")
        demands[i] = rec["d"]
    for i, link in enumerate(network.links):
        if i not in demands:
            raise InstanceFormatError(f"missing demand for link {link}")
    return Instance(network, tuple(demands[i] for i in range(len(demands))))
