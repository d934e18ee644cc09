"""Independent oracles used by the tests.

Everything here is deliberately implemented from first principles (path
enumeration, Floyd-Warshall, plain BFS, list-based LRU, Fractions) and never
calls into the package, so disagreement means a real defect.
"""

from fractions import Fraction

import numpy as np


# -- path enumeration ---------------------------------------------------------


def adjacency(n, edges):
    adj = {i: [] for i in range(n)}
    for a, b, w in edges:
        adj[a].append((b, w))
        adj[b].append((a, w))
    for i in adj:
        adj[i].sort()
    return adj


def all_simple_paths(adj, src, dst):
    """Yields lists of edge weights along every simple src->dst path."""
    stack = [(src, [src], [])]
    while stack:
        node, visited, weights = stack.pop()
        if node == dst:
            yield weights
            continue
        for nbr, w in adj[node]:
            if nbr not in visited:
                stack.append((nbr, visited + [nbr], weights + [w]))


def brute_additive(n, edges, a, b):
    """Minimum path weight sum by exhaustive enumeration; None if unreachable."""
    if a == b:
        return 0
    adj = adjacency(n, edges)
    best = None
    for weights in all_simple_paths(adj, a, b):
        total = sum(weights)
        if best is None or total < best:
            best = total
    return best


def brute_bottleneck(n, edges, a, b):
    """Maximum over paths of the minimum edge weight; None if unreachable."""
    if a == b:
        return float("inf")
    adj = adjacency(n, edges)
    best = None
    for weights in all_simple_paths(adj, a, b):
        width = min(weights)
        if best is None or width > best:
            best = width
    return best


def bfs_hops(n, edges, src, dst):
    """Plain queue BFS hop count; None if unreachable."""
    if src == dst:
        return 0
    adj = adjacency(n, edges)
    dist = {src: 0}
    queue = [src]
    while queue:
        node = queue.pop(0)
        for nbr, _ in adj[node]:
            if nbr not in dist:
                dist[nbr] = dist[node] + 1
                queue.append(nbr)
    return dist.get(dst)


def floyd_warshall(n, edges):
    big = float("inf")
    dist = [[0 if i == j else big for j in range(n)] for i in range(n)]
    for a, b, w in edges:
        if w < dist[a][b]:
            dist[a][b] = dist[b][a] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = dist[i][k] + dist[k][j]
                if via < dist[i][j]:
                    dist[i][j] = via
    return dist


# -- containment oracle ---------------------------------------------------------


def oracle_level_groups(n, edges, target, mode):
    """Greedy grouping: from each unassigned seed (ascending order), collect
    the still-unassigned nodes reachable within the target, searching only
    through unassigned nodes -- Floyd-Warshall over contracted weights for
    additive/exact targets, BFS over surviving edges for bottleneck."""
    remaining = set(range(n))
    groups = []
    for seed in range(n):
        if seed not in remaining:
            continue
        if mode in ("additive", "exact_hit"):
            sub = sorted(remaining)
            idx = {v: i for i, v in enumerate(sub)}
            sub_edges = [
                (idx[a], idx[b], 0 if w < target else w)
                for a, b, w in edges
                if a in remaining and b in remaining
            ]
            dist = floyd_warshall(len(sub), sub_edges)
            si = idx[seed]
            bound_ok = (lambda d: d < target) if mode == "additive" else (lambda d: d <= target)
            grp = {v for v in sub if bound_ok(dist[si][idx[v]])}
        else:
            kept = [
                (a, b, w) for a, b, w in edges
                if w >= target and a in remaining and b in remaining
            ]
            adj = adjacency(n, kept)
            grp = {seed}
            queue = [seed]
            while queue:
                node = queue.pop(0)
                for nbr, _ in adj[node]:
                    if nbr in remaining and nbr not in grp:
                        grp.add(nbr)
                        queue.append(nbr)
        grp.add(seed)
        groups.append(sorted(grp))
        remaining -= grp
    return groups


def oracle_quotient(n_groups, labels, edges, mode):
    """Super-edges between groups: min inter-group weight (additive/exact),
    max for bottleneck."""
    agg = {}
    for a, b, w in edges:
        la, lb = labels[a], labels[b]
        if la == lb:
            continue
        key = (min(la, lb), max(la, lb))
        if key not in agg:
            agg[key] = w
        elif mode == "bottleneck":
            agg[key] = max(agg[key], w)
        else:
            agg[key] = min(agg[key], w)
    return [(a, b, w) for (a, b), w in sorted(agg.items())]


def oracle_hierarchy(n, edges, targets, mode):
    """Full nested hierarchy: groups per level as sorted node lists."""
    levels = []
    cur_n, cur_edges = n, list(edges)
    member_sets = [[i] for i in range(n)]
    for target in targets:
        groups = oracle_level_groups(cur_n, cur_edges, target, mode)
        # groups are over the current quotient's super-nodes
        level_members = [
            sorted(m for gi in grp for m in member_sets[gi]) for grp in groups
        ]
        levels.append(level_members)
        labels = {}
        for gi, grp in enumerate(groups):
            for node in grp:
                labels[node] = gi
        cur_edges = oracle_quotient(len(groups), labels, cur_edges, mode)
        cur_n = len(groups)
        member_sets = level_members
    return levels


# -- cache replacement oracle ------------------------------------------------------


class ListLru:
    """Reference LRU over (id, size) pairs kept as an explicit recency list."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []  # (id, size), most recent last
        self.evicted = []

    def lookup(self, oid):
        for i, (known, size) in enumerate(self.items):
            if known == oid:
                self.items.append(self.items.pop(i))
                return True
        return False

    def insert(self, oid, size):
        if size > self.capacity:
            return False
        self.items = [(k, s) for k, s in self.items if k != oid]
        while sum(s for _, s in self.items) + size > self.capacity:
            self.evicted.append(self.items.pop(0)[0])
        self.items.append((oid, size))
        return True

    def contents(self):
        return [k for k, _ in self.items]


# -- identifier-locator mapping oracle --------------------------------------------------


class IlmModel:
    """Reference record table as plain dicts of sets.

    Identifiers are ints (the 160-bit value) and locators are IPv4 addresses
    as ints. A failed operation returns an error name instead of raising:
    "not_found", "limit" (a fifth locator) or "loop" (an indirect cycle).
    """

    LIMIT = 4

    def __init__(self):
        self.hrn = {}       # id -> human-readable name
        self.locators = {}  # id -> set of addresses
        self.target = {}    # id -> the id it is indirectly bound to

    def _record(self, gid, hrn):
        if gid not in self.hrn:
            self.hrn[gid] = hrn
            self.locators[gid] = set()
        return self.locators[gid]

    def _add(self, locs, addr):
        if addr not in locs and len(locs) >= self.LIMIT:
            return "limit"
        locs.add(addr)
        return None

    def register(self, gid, hrn, addr):
        return self._add(self._record(gid, hrn), addr)

    def register_indirect(self, gid, hrn, target):
        self._record(gid, hrn)
        self.target[gid] = target

    def update(self, gid, action, addr):
        if gid not in self.hrn:
            return "not_found"
        locs = self.locators[gid]
        if action == "add":
            return self._add(locs, addr)
        locs.discard(addr)
        if not locs and gid not in self.target:
            del self.hrn[gid], self.locators[gid]
        return None

    def resolve(self, gid):
        """The union of locators along the indirect chain from `gid`."""
        if gid not in self.hrn:
            return "not_found"
        chain, found = [gid], set()
        while True:
            found |= self.locators[chain[-1]]
            nxt = self.target.get(chain[-1])
            if nxt is None:
                break
            if nxt in chain:
                return "loop"
            if nxt not in self.hrn:
                return "not_found"
            chain.append(nxt)
        return found or "not_found"

    def dump(self):
        """One `rec <id> <hrn> <target|-> <addr,addr|->` line per id, in id
        order, addresses ascending in dotted quads."""
        def quad(addr):
            return ".".join(str(addr >> shift & 255) for shift in (24, 16, 8, 0))

        lines = []
        for gid in sorted(self.hrn):
            target = self.target.get(gid)
            shown = "-" if target is None else format(target, "040x")
            locs = ",".join(quad(a) for a in sorted(self.locators[gid])) or "-"
            lines.append(f"rec {gid:040x} {self.hrn[gid]} {shown} {locs}\n")
        return "".join(lines)


# -- metric oracle ------------------------------------------------------------------


def fraction_ito(rows):
    """rows: (J_n paths list, H_cn, V_n). Exact Fraction arithmetic."""
    num = Fraction(0)
    den = Fraction(0)
    for paths, hc, vol in rows:
        jn = len(paths)
        num += Fraction((jn * hc - sum(paths)) * vol)
        den += Fraction(jn * hc * vol)
    return num / den


# -- dense tied-weight reconstruction oracle ------------------------------------------


def dense_reconstruction(widths, weights, biases, alive, y):
    """Explicit matrix-transpose evaluation of the negative pass."""
    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    r = np.asarray(y, dtype=float) * alive[-1]
    for l in range(len(widths) - 2, -1, -1):
        r = sig(weights[l].T @ r + biases[l]) * alive[l]
    return r


# -- finite differences ----------------------------------------------------------------


def central_difference(fn, get, set_, eps=1e-6):
    """d fn / d theta at the parameter addressed by get/set_."""
    orig = get()
    set_(orig + eps)
    hi = fn()
    set_(orig - eps)
    lo = fn()
    set_(orig)
    return (hi - lo) / (2.0 * eps)


# -- independent mini simulator (exhaustive replay) --------------------------------------


class ReplaySim:
    """From-scratch re-implementation of the forwarding/caching contracts for
    tiny instances: serve if held, else walk one BFS hop toward the closest
    registered copy (lowest address on ties), cache on the reverse path at
    forwarding elements under byte-LRU."""

    def __init__(self, n, edges, forwarding, publisher_of, volume_of, capacity):
        self.n = n
        self.edges = edges
        self.adj = adjacency(n, edges)
        self.forwarding = set(forwarding)
        self.publisher_of = dict(publisher_of)
        self.volume_of = dict(volume_of)
        self.caches = {i: ListLru(capacity) for i in range(n)}

    def _bfs_dist_from(self, src):
        dist = {src: 0}
        queue = [src]
        while queue:
            node = queue.pop(0)
            for nbr, _ in self.adj[node]:
                if nbr not in dist:
                    dist[nbr] = dist[node] + 1
                    queue.append(nbr)
        return dist

    def _next_hop(self, u, target):
        dist = self._bfs_dist_from(target)
        for nbr, _ in self.adj[u]:  # adjacency is sorted ascending
            if dist.get(nbr, -2) == dist[u] - 1:
                return nbr
        raise AssertionError("no route in replay")

    def _holds(self, node, oid):
        if self.publisher_of[oid] == node:
            return "origin"
        if oid in self.caches[node].contents():
            return "cache"
        return ""

    def request(self, origin, oid):
        current = origin
        path = [current]
        hops = 0
        while not self._holds(current, oid):
            # only the publisher is registered in these instances
            target = self.publisher_of[oid]
            current = self._next_hop(current, target)
            hops += 1
            path.append(current)
        serving = current
        if self._holds(serving, oid) == "cache":
            self.caches[serving].lookup(oid)  # serving refreshes recency
        for node in reversed(path):
            if node != serving and node in self.forwarding:
                self.caches[node].insert(oid, self.volume_of[oid])
        return hops, serving

    def baseline(self, origin, oid):
        return self._bfs_dist_from(origin)[self.publisher_of[oid]]
