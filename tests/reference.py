"""Straightforward reference implementations that the fast paths of the
package must match exactly: the pairwise conflict-mask build, maximal
independent sets by filtering all vertex subsets, the directed cuts that
the maximal matchings must equal, the greedy kernel with
explicit sort keys and per-round degree recomputation, and schedule
validation by pairwise conflict scan and per-link coverage sums.
"""

from mtrsched.heuristics import HWF, MDF
from mtrsched.metrics import Violation
from mtrsched.schedule import Schedule, ScheduleEntry


def conflict_masks(network):
    """Adjacency bitmasks from the pairwise rule: (i,j) and (k,l) conflict
    iff i == l or j == k."""
    links = network.links
    n = len(links)
    masks = [0] * n
    for a in range(n):
        i, j = links[a]
        for b in range(a + 1, n):
            k, l = links[b]
            if i == l or j == k:
                masks[a] |= 1 << b
                masks[b] |= 1 << a
    return masks


def maximal_independent_sets(adj):
    """Maximal independent sets as sorted bitmasks: filter all subsets."""
    n = len(adj)
    independent = []
    for mask in range(1 << n):
        ok = True
        for v in range(n):
            if (mask >> v) & 1 and adj[v] & mask:
                ok = False
                break
        if ok:
            independent.append(mask)
    indep = set(independent)
    out = []
    for m in independent:
        if not any((m | (1 << v)) in indep for v in range(n)
                   if not (m >> v) & 1):
            out.append(m)
    return sorted(out)


def directed_cuts(network):
    """Every link set T -> V \\ T, one per node set T.  A link set is a
    matching iff its transmitters and receivers are disjoint, so each cut
    is a matching and the maximal matchings are the inclusion-maximal cuts."""
    return {frozenset((a, b) for a, b in network.links
                      if t >> (a - 1) & 1 and not t >> (b - 1) & 1)
            for t in range(1 << network.node_count)}


def greedy_rounds(demands, adj, mode):
    """Greedy rounds: stable sorts on negated keys, degrees recomputed
    over the active links every round."""
    n = len(demands)
    residual = list(demands)
    active = [v for v in range(n) if residual[v] > 0]
    rounds = []
    while active:
        if mode == HWF:
            active.sort(key=lambda v: -residual[v])
        else:
            amask = 0
            for v in active:
                amask |= 1 << v
            deg = [(adj[v] & amask).bit_count() for v in range(n)]
            if mode == MDF:
                active.sort(key=lambda v: -deg[v])
            else:
                active.sort(key=lambda v: (-residual[v], -deg[v]))
        sel = 0
        members = []
        for v in active:
            if adj[v] & sel == 0:
                sel |= 1 << v
                members.append(v)
        slots = min(residual[v] for v in members)
        rounds.append((sel, slots))
        for v in members:
            residual[v] -= slots
        active = [v for v in active if residual[v] > 0]
    return rounds


def greedy(instance, mode):
    """A greedy schedule built from the reference masks and kernel."""
    links = instance.network.links
    if not links or not any(instance.demands):
        return Schedule()
    rounds = greedy_rounds(list(instance.demands),
                           conflict_masks(instance.network), mode)
    return Schedule(tuple(
        ScheduleEntry(tuple(links[v] for v in range(len(links)) if mask >> v & 1),
                      slots)
        for mask, slots in rounds))


def validate_schedule(instance, schedule):
    """Violations in the documented order: per entry bad slots, unknown
    links and pairwise R3 conflicts, then under-covered links."""
    net = instance.network
    out = []
    for e_idx, entry in enumerate(schedule.entries):
        if entry.slots <= 0:
            out.append(Violation(
                "bad-slots",
                f"entry {e_idx} has non-positive slot count {entry.slots}",
                links=entry.links))
        known = []
        for link in entry.links:
            if not net.has_link(link):
                out.append(Violation(
                    "unknown-link",
                    f"entry {e_idx} uses link {link} absent from the network",
                    links=(link,)))
            else:
                known.append(link)
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
    for link, demand in zip(net.links, instance.demands):
        covered = schedule.coverage(link)
        if covered < demand:
            out.append(Violation(
                "under-coverage",
                f"link {link} gets {covered} of {demand} demanded slots",
                links=(link,)))
    return out
