"""Weighted network graphs: node roles, distance measurement, centrality, and
seeded scenario topology generation.

Distances are integer-valued and unit-tagged per graph (microseconds of
latency, hop counts, or bits/s of bandwidth). Graphs are undirected and
immutable after construction, so they can be shared across parallel runs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DanglingEndpoint,
    DuplicateEdge,
    InvalidParams,
    NegativeWeight,
    Unreachable,
)


class WeightUnit(str, Enum):
    LATENCY_US = "latency_us"
    HOPS = "hops"
    BANDWIDTH_BPS = "bandwidth_bps"


class NodeKind(str, Enum):
    SERVER = "server"
    SWITCH = "switch"
    ACCESS_POINT = "access_point"
    GATEWAY = "gateway"
    PC = "pc"
    MOBILE_DEVICE = "mobile_device"
    MMTC_DEVICE = "mmtc_device"


# Kinds that forward and cache traffic (as opposed to end hosts).
FORWARDING_KINDS = frozenset(
    {NodeKind.SWITCH, NodeKind.ACCESS_POINT, NodeKind.GATEWAY}
)
END_DEVICE_KINDS = frozenset(
    {NodeKind.PC, NodeKind.MOBILE_DEVICE, NodeKind.MMTC_DEVICE}
)

_KIND_ORDER = list(NodeKind)
_KIND_INDEX = {k: i for i, k in enumerate(_KIND_ORDER)}
_FORWARDING_INDICES = sorted(_KIND_INDEX[k] for k in FORWARDING_KINDS)

# 80% of memory is reserved for audio-visual media on full-size elements;
# constrained machine-type devices keep no media partition.
MEDIA_MEMORY_SHARE = 0.8

# Full-size element defaults: 8 GB memory, 1.2 Gb/s down / 0.4 Gb/s up.
DEFAULT_MEMORY = 8_000_000_000
DEFAULT_STORAGE = 100_000_000_000
DEFAULT_DOWNLINK = 1_200_000_000
DEFAULT_UPLINK = 400_000_000
DEFAULT_COMPUTE = 2_100_000_000

# Machine-type device ceilings: <50 MHz compute, <50 kB memory, <300 kB storage.
MMTC_MAX_COMPUTE = 50_000_000
MMTC_MAX_MEMORY = 50_000
MMTC_MAX_STORAGE = 300_000
MMTC_MAX_PAYLOAD = 128

_MMTC_MEMORY = 32_000
_MMTC_STORAGE = 200_000
_MMTC_COMPUTE = 32_000_000
_MMTC_UPLINK = 10_000
_MMTC_DOWNLINK = 30_000


def media_partition(kind: NodeKind, memory_total: int) -> int:
    if kind == NodeKind.MMTC_DEVICE:
        return 0
    return int(math.floor(MEDIA_MEMORY_SHARE * memory_total))


@dataclass(frozen=True)
class Node:
    id: int
    kind: NodeKind
    memory_total: int = DEFAULT_MEMORY
    storage: int = DEFAULT_STORAGE
    downlink_bw: int = DEFAULT_DOWNLINK
    uplink_bw: int = DEFAULT_UPLINK
    compute: int = DEFAULT_COMPUTE

    @property
    def memory_media_partition(self) -> int:
        return media_partition(self.kind, self.memory_total)


def mmtc_node(node_id: int) -> Node:
    """A constrained machine-type device with compliant resource ceilings."""
    return Node(
        node_id,
        NodeKind.MMTC_DEVICE,
        memory_total=_MMTC_MEMORY,
        storage=_MMTC_STORAGE,
        downlink_bw=_MMTC_DOWNLINK,
        uplink_bw=_MMTC_UPLINK,
        compute=_MMTC_COMPUTE,
    )


@dataclass(frozen=True)
class Edge:
    a: int
    b: int
    weight: int


def _validate_node(node: Node) -> None:
    if node.downlink_bw != 3 * node.uplink_bw:
        raise InvalidParams(
            f"node {node.id}: downlink must be 3x uplink "
            f"({node.downlink_bw} vs {node.uplink_bw})"
        )
    if node.kind == NodeKind.MMTC_DEVICE:
        if node.compute >= MMTC_MAX_COMPUTE:
            raise InvalidParams(f"node {node.id}: mMTC compute >= 50 MHz")
        if node.memory_total >= MMTC_MAX_MEMORY:
            raise InvalidParams(f"node {node.id}: mMTC memory >= 50 kB")
        if node.storage >= MMTC_MAX_STORAGE:
            raise InvalidParams(f"node {node.id}: mMTC storage >= 300 kB")


class WeightedGraph:
    """Immutable undirected graph with integer edge weights.

    Node attributes live in flat arrays indexed by node id; edges are kept in
    canonical order (a < b, sorted). Use build_graph() to construct one with
    validation, or from_arrays() when the arrays are already consistent.
    """

    def __init__(self, kinds, mems, storages, downs, ups, computes, ea, eb, ew, unit):
        self.kinds = kinds
        self.mems = mems
        self.storages = storages
        self.downs = downs
        self.ups = ups
        self.computes = computes
        self.ea = ea
        self.eb = eb
        self.ew = ew
        self.unit = unit
        self._csr = None
        self._tree = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_arrays(cls, kinds, mems, storages, downs, ups, computes, ea, eb, ew, unit):
        kinds = np.asarray(kinds, dtype=np.int8)
        mems = np.asarray(mems, dtype=np.int64)
        storages = np.asarray(storages, dtype=np.int64)
        downs = np.asarray(downs, dtype=np.int64)
        ups = np.asarray(ups, dtype=np.int64)
        computes = np.asarray(computes, dtype=np.int64)
        ea = np.asarray(ea, dtype=np.int64)
        eb = np.asarray(eb, dtype=np.int64)
        ew = np.asarray(ew, dtype=np.int64)
        lo = np.minimum(ea, eb)
        hi = np.maximum(ea, eb)
        order = np.lexsort((hi, lo))
        return cls(
            kinds, mems, storages, downs, ups, computes,
            lo[order], hi[order], ew[order], WeightUnit(unit),
        )

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.kinds)

    @property
    def m(self) -> int:
        return len(self.ea)

    def kind(self, i: int) -> NodeKind:
        return _KIND_ORDER[self.kinds[i]]

    def node(self, i: int) -> Node:
        return Node(
            int(i),
            self.kind(i),
            memory_total=int(self.mems[i]),
            storage=int(self.storages[i]),
            downlink_bw=int(self.downs[i]),
            uplink_bw=int(self.ups[i]),
            compute=int(self.computes[i]),
        )

    def nodes(self):
        return (self.node(i) for i in range(self.n))

    def edges(self):
        return (
            Edge(int(a), int(b), int(w))
            for a, b, w in zip(self.ea, self.eb, self.ew)
        )

    def nodes_of_kind(self, kind: NodeKind) -> np.ndarray:
        return np.flatnonzero(self.kinds == _KIND_INDEX[kind])

    # -- adjacency ---------------------------------------------------------

    def _ensure_csr(self):
        if self._csr is None:
            # Edges are sorted with a < b, so the entries of row v are its
            # lower neighbours (from eb == v) ascending, then its higher ones
            # (from ea == v) ascending: a stable sort by row alone leaves
            # every row in ascending neighbour order.
            src = np.concatenate([self.eb, self.ea])
            order = np.argsort(src, kind="stable")
            dst = np.concatenate([self.ea, self.eb])[order]
            wts = np.concatenate([self.ew, self.ew])[order]
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(src, minlength=self.n), out=indptr[1:])
            self._csr = (indptr, dst, wts)
        return self._csr

    def neighbors(self, i: int):
        indptr, dst, wts = self._ensure_csr()
        lo, hi = indptr[i], indptr[i + 1]
        return dst[lo:hi], wts[lo:hi]

    def degree(self, i: int) -> int:
        indptr, _, _ = self._ensure_csr()
        return int(indptr[i + 1] - indptr[i])

    def degrees(self) -> np.ndarray:
        """Degree of every node, as an int64 array indexed by node id."""
        return np.diff(self._ensure_csr()[0])

    def forwarding_mask(self) -> bytes:
        """One byte per node: 1 where the node's kind forwards and caches
        traffic (FORWARDING_KINDS), else 0."""
        return np.isin(self.kinds, _FORWARDING_INDICES).tobytes()

    # -- tree navigation (fast path for generated topologies) --------------

    def _tree_info(self):
        """(True, parents, depths) when the graph is a tree rooted at node 0,
        else (False, None, None). parents and depths are Python lists, which
        the per-hop walks index much faster than numpy arrays."""
        if self._tree is None:
            self._tree = (False, None, None)
            if self.n >= 1 and self.m == self.n - 1:
                indptr, dst, _ = self._ensure_csr()
                depths, parents = _bfs(indptr, dst, 0)
                if depths.min() >= 0:  # connected with n - 1 edges
                    self._tree = (True, parents.tolist(), depths.tolist())
        return self._tree

    def is_tree(self) -> bool:
        return self._tree_info()[0]


# Frontiers up to this size are expanded row by row (see _bfs).
_NARROW_FRONTIER = 4


def _bfs(indptr, dst, src):
    """Level-synchronous BFS from src over CSR rows (indptr, dst).

    Returns (dist, parents): the hop count of every node from src and the
    node it was first reached from, both -1 where src cannot reach (parents
    is also -1 at src). Each step expands the whole frontier at once, so the
    cost is a few numpy calls per BFS level. On deep, narrow graphs such as
    long paths and rings that step costs more than it saves, so a frontier
    of a few nodes is expanded one row slice at a time.
    """
    n = len(indptr) - 1
    dist = np.full(n, -1, dtype=np.int64)
    parents = np.full(n, -1, dtype=np.int64)
    dist[src] = 0
    frontier = np.array([src], dtype=np.int64)
    depth = 0
    while len(frontier):
        depth += 1
        if len(frontier) <= _NARROW_FRONTIER:
            reached = []
            for u in frontier.tolist():
                nb = dst[indptr[u]:indptr[u + 1]]
                nb = nb[dist[nb] < 0]
                parents[nb] = u
                dist[nb] = depth
                reached.append(nb)
            frontier = reached[0] if len(reached) == 1 else np.concatenate(reached)
            continue
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        ends = np.cumsum(counts)
        par = np.repeat(frontier, counts)
        nb = dst[np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)]
        fresh = dist[nb] < 0
        nb, par = nb[fresh], par[fresh]
        parents[nb] = par
        dist[nb] = depth
        # A node reached from several frontier nodes got one of them as its
        # parent; keeping the entries whose parent is that one leaves each
        # new node once. This relies on the graph having no repeated edges
        # (build_graph rejects them and the generators make none), so no
        # (node, parent) pair occurs twice.
        frontier = nb[parents[nb] == par]
    return dist, parents


def build_graph(nodes, edges, unit) -> WeightedGraph:
    """Validate nodes and edges and pack them into a WeightedGraph."""
    nodes = list(nodes)
    edges = list(edges)
    unit = WeightUnit(unit)
    n = len(nodes)
    if n == 0:
        raise InvalidParams("graph needs at least one node")
    ids = sorted(node.id for node in nodes)
    if ids != list(range(n)):
        raise InvalidParams("node ids must be dense in [0, node_count)")
    kinds = np.zeros(n, dtype=np.int8)
    mems = np.zeros(n, dtype=np.int64)
    storages = np.zeros(n, dtype=np.int64)
    downs = np.zeros(n, dtype=np.int64)
    ups = np.zeros(n, dtype=np.int64)
    computes = np.zeros(n, dtype=np.int64)
    for node in nodes:
        _validate_node(node)
        i = node.id
        kinds[i] = _KIND_INDEX[node.kind]
        mems[i] = node.memory_total
        storages[i] = node.storage
        downs[i] = node.downlink_bw
        ups[i] = node.uplink_bw
        computes[i] = node.compute

    seen = set()
    ea = np.zeros(len(edges), dtype=np.int64)
    eb = np.zeros(len(edges), dtype=np.int64)
    ew = np.zeros(len(edges), dtype=np.int64)
    for j, edge in enumerate(edges):
        a, b, w = edge.a, edge.b, edge.weight
        if not (0 <= a < n) or not (0 <= b < n):
            raise DanglingEndpoint(f"edge ({a},{b}) references a missing node")
        if a == b:
            raise InvalidParams(f"self-loop on node {a}")
        if w < 0:
            raise NegativeWeight(f"edge ({a},{b}) has weight {w}")
        if int(w) != w:
            raise InvalidParams(f"edge ({a},{b}) weight must be an integer")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise DuplicateEdge(f"duplicate edge {key}")
        seen.add(key)
        ea[j], eb[j], ew[j] = a, b, int(w)
    return WeightedGraph.from_arrays(
        kinds, mems, storages, downs, ups, computes, ea, eb, ew, unit
    )


# -- distance measurement ----------------------------------------------------


def measure_distance(g: WeightedGraph, a: int, b: int, mode: str = "additive"):
    """Distance between two nodes.

    additive: shortest-path sum of weights (latency, hops).
    bottleneck: widest path -- maximum over paths of the minimum edge weight
    (bandwidth). A node's bottleneck distance to itself is +inf (unconstrained).
    """
    if not (0 <= a < g.n) or not (0 <= b < g.n):
        raise InvalidParams(f"nodes ({a},{b}) outside graph")
    if mode == "additive":
        if a == b:
            return 0
        dist = _dijkstra_single(g, a, b)
        if dist is None:
            raise Unreachable(f"no path {a} -> {b}")
        return dist
    if mode == "bottleneck":
        if a == b:
            return math.inf
        width = _widest_single(g, a, b)
        if width is None:
            raise Unreachable(f"no path {a} -> {b}")
        return width
    raise InvalidParams(f"unknown distance mode {mode!r}")


def _dijkstra_single(g, src, dst):
    dist = {src: 0}
    heap = [(0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == dst:
            return d
        if d > dist.get(u, math.inf):
            continue
        nbrs, wts = g.neighbors(u)
        for v, w in zip(nbrs.tolist(), wts.tolist()):
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return None


def _widest_single(g, src, dst):
    width = {src: math.inf}
    heap = [(-math.inf, src)]
    done = set()
    while heap:
        negw, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == dst:
            return -negw
        nbrs, wts = g.neighbors(u)
        for v, w in zip(nbrs.tolist(), wts.tolist()):
            cand = min(-negw, w)
            if cand > width.get(v, -math.inf):
                width[v] = cand
                heapq.heappush(heap, (-cand, v))
    return None


def node_centrality(g: WeightedGraph, v: int) -> float:
    """Degree centrality normalized to [0, 1]; a single-node graph scores 1."""
    if not (0 <= v < g.n):
        raise InvalidParams(f"node {v} outside graph")
    if g.n == 1:
        return 1.0
    return g.degree(v) / (g.n - 1)


# -- hop routing helpers -----------------------------------------------------


def hop_distance(g: WeightedGraph, a: int, b: int) -> int:
    """Fewest-edges distance, ignoring weights; ids outside [0, n) raise
    InvalidParams."""
    n = g.n
    if not (0 <= a < n and 0 <= b < n):
        raise InvalidParams(f"nodes ({a},{b}) outside graph")
    if a == b:
        return 0
    is_tree, parents, depths = g._tree_info()
    if is_tree:
        return _tree_hops(parents, depths, a, b)
    dist = _bfs_dists(g, a)
    if dist[b] < 0:
        raise Unreachable(f"no path {a} -> {b}")
    return int(dist[b])


def _tree_hops(parents, depths, a, b):
    da, db = depths[a], depths[b]
    hops = abs(da - db)
    while da > db:
        a = parents[a]
        da -= 1
    while db > da:
        b = parents[b]
        db -= 1
    while a != b:
        a = parents[a]
        b = parents[b]
        hops += 2
    return hops


def _bfs_dists(g, src):
    indptr, dst, _ = g._ensure_csr()
    return _bfs(indptr, dst, src)[0]


def next_hop_toward(g: WeightedGraph, u: int, target: int) -> int:
    """First node after u on a fewest-hops path to target (ties: lowest id);
    ids outside [0, n) raise InvalidParams."""
    n = g.n
    if not (0 <= u < n and 0 <= target < n):
        raise InvalidParams(f"nodes ({u},{target}) outside graph")
    if u == target:
        return u
    is_tree, parents, depths = g._tree_info()
    if is_tree:
        below = depths[u] + 1
        if depths[target] >= below:
            w = target
            while depths[w] > below:
                w = parents[w]
            if parents[w] == u:
                return w
        up = parents[u]
        return up if up >= 0 else _no_route(u, target)
    dist = _bfs_dists(g, target)
    if dist[u] < 0:
        _no_route(u, target)
    nbrs, _ = g.neighbors(u)
    return int(nbrs[dist[nbrs] == dist[u] - 1][0])  # rows are ascending


def _no_route(u, target):
    raise Unreachable(f"no route {u} -> {target}")


# -- scenario topology generation --------------------------------------------

SCENARIOS = ("embb", "urllc", "mmtc")

# Latency windows (microseconds) used when drawing edge weights so that the
# three-level targets T1=1 ms, T2=150 ms, T3=500 ms carve the intended tiers.
_LOCAL_LAT = (100, 900)         # device/gateway attach links, under T1
_MID_LAT = (5_000, 120_000)     # access tier links, between T1 and T2
_CORE_LAT = (160_000, 450_000)  # core tier links, between T2 and T3

_URLLC_BASE_LATENCY_MS = 8.0


def generate_topology(params, seed: int) -> WeightedGraph:
    """Seeded scenario topology: a latency-weighted access tree.

    Core layout is root - zone switches - switches - access points; end
    devices hang off the access points. The mMTC scenario inserts gateways
    between access points and constrained devices, one local domain per
    gateway. Pure function of (params, seed).
    """
    scenario = getattr(params, "scenario", None)
    if scenario not in SCENARIOS:
        raise InvalidParams(f"unknown scenario {scenario!r}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xA11CE]))

    devices_per_ap = int(getattr(params, "devices_per_ap", 16))
    aps_per_switch = int(getattr(params, "aps_per_switch", 4))
    switches_per_zone = int(getattr(params, "switches_per_zone", 4))
    n_servers = int(getattr(params, "n_servers", 2))
    if min(devices_per_ap, aps_per_switch, switches_per_zone, n_servers) < 1:
        raise InvalidParams("structure parameters must be >= 1")

    if scenario == "mmtc":
        density = float(getattr(params, "density_k_per_km2", 0.0)) * 1000.0
        area = float(getattr(params, "area_km2", 1.0))
        if density <= 0 or area <= 0:
            raise InvalidParams("mMTC needs positive density and area")
        n_devices = int(round(density * area))
        devices_per_gw = int(getattr(params, "devices_per_gateway", 200))
        if not (1 <= devices_per_gw <= 256):
            raise InvalidParams("devices_per_gateway must be in [1, 256]")
    else:
        n_devices = int(getattr(params, "n_devices", 0))
        devices_per_gw = 0
    if n_devices < 1:
        raise InvalidParams("need at least one end device")

    if scenario == "urllc":
        latency_ms = float(getattr(params, "latency_ms", _URLLC_BASE_LATENCY_MS))
        if latency_ms <= 0:
            raise InvalidParams("latency_ms must be positive")
        # Tighter latency budgets shrink the service area of one access point.
        devices_per_ap = max(
            1, int(round(devices_per_ap * latency_ms / _URLLC_BASE_LATENCY_MS))
        )

    if scenario == "mmtc":
        n_gateways = -(-n_devices // devices_per_gw)
        n_aps = -(-n_gateways // devices_per_ap)
    else:
        n_gateways = 0
        n_aps = -(-n_devices // devices_per_ap)
    n_switches = -(-n_aps // aps_per_switch)
    n_zones = -(-n_switches // switches_per_zone)

    # id layout: root, servers, zones, switches, aps, gateways, devices
    root = 0
    servers = np.arange(1, 1 + n_servers)
    zones = np.arange(servers[-1] + 1, servers[-1] + 1 + n_zones)
    switches = np.arange(zones[-1] + 1, zones[-1] + 1 + n_switches)
    aps = np.arange(switches[-1] + 1, switches[-1] + 1 + n_aps)
    if scenario == "mmtc":
        gateways = np.arange(aps[-1] + 1, aps[-1] + 1 + n_gateways)
        devices = np.arange(gateways[-1] + 1, gateways[-1] + 1 + n_devices)
    else:
        gateways = np.arange(0)
        devices = np.arange(aps[-1] + 1, aps[-1] + 1 + n_devices)
    n = int(devices[-1]) + 1

    kinds = np.zeros(n, dtype=np.int8)
    kinds[root] = _KIND_INDEX[NodeKind.SERVER]
    kinds[servers] = _KIND_INDEX[NodeKind.SERVER]
    kinds[zones] = _KIND_INDEX[NodeKind.SWITCH]
    kinds[switches] = _KIND_INDEX[NodeKind.SWITCH]
    kinds[aps] = _KIND_INDEX[NodeKind.ACCESS_POINT]
    if scenario == "mmtc":
        kinds[gateways] = _KIND_INDEX[NodeKind.GATEWAY]
        kinds[devices] = _KIND_INDEX[NodeKind.MMTC_DEVICE]
    else:
        half = len(devices) // 2
        kinds[devices[:half]] = _KIND_INDEX[NodeKind.PC]
        kinds[devices[half:]] = _KIND_INDEX[NodeKind.MOBILE_DEVICE]

    mems = np.full(n, DEFAULT_MEMORY, dtype=np.int64)
    storages = np.full(n, DEFAULT_STORAGE, dtype=np.int64)
    downs = np.full(n, DEFAULT_DOWNLINK, dtype=np.int64)
    ups = np.full(n, DEFAULT_UPLINK, dtype=np.int64)
    computes = np.full(n, DEFAULT_COMPUTE, dtype=np.int64)
    if scenario == "mmtc":
        mems[devices] = _MMTC_MEMORY
        storages[devices] = _MMTC_STORAGE
        downs[devices] = _MMTC_DOWNLINK
        ups[devices] = _MMTC_UPLINK
        computes[devices] = _MMTC_COMPUTE

    ea_parts, eb_parts, ew_parts = [], [], []

    def attach(children, parents_of, lo, hi):
        ea_parts.append(children)
        eb_parts.append(parents_of)
        ew_parts.append(rng.integers(lo, hi, size=len(children), dtype=np.int64))

    attach(servers, np.full(n_servers, root, dtype=np.int64), *_MID_LAT)
    attach(zones, np.full(n_zones, root, dtype=np.int64), *_CORE_LAT)
    attach(switches, zones[np.arange(n_switches) // switches_per_zone], *_CORE_LAT)
    if scenario == "urllc":
        base = max(1000.0, latency_ms * 1000.0)
        raw = base * rng.uniform(0.8, 1.2, size=n_aps)
        ap_w = np.clip(raw.astype(np.int64), 1000, 149_999)
        ea_parts.append(aps)
        eb_parts.append(switches[np.arange(n_aps) // aps_per_switch])
        ew_parts.append(ap_w)
    else:
        attach(aps, switches[np.arange(n_aps) // aps_per_switch], *_MID_LAT)
    if scenario == "mmtc":
        attach(gateways, aps[np.arange(n_gateways) // devices_per_ap], *_MID_LAT)
        attach(devices, gateways[np.arange(n_devices) // devices_per_gw], *_LOCAL_LAT)
    else:
        attach(devices, aps[np.arange(n_devices) // devices_per_ap], *_LOCAL_LAT)

    ea = np.concatenate(ea_parts)
    eb = np.concatenate(eb_parts)
    ew = np.concatenate(ew_parts)
    return WeightedGraph.from_arrays(
        kinds, mems, storages, downs, ups, computes, ea, eb, ew,
        WeightUnit.LATENCY_US,
    )


# -- graph file format --------------------------------------------------------


def graph_to_text(g: WeightedGraph) -> str:
    lines = [f"graph {g.unit.value} {g.n}"]
    for i in range(g.n):
        lines.append(
            f"node {i} {g.kind(i).value} {g.mems[i]} {g.storages[i]} "
            f"{g.downs[i]} {g.ups[i]} {g.computes[i]}"
        )
    for a, b, w in zip(g.ea.tolist(), g.eb.tolist(), g.ew.tolist()):
        lines.append(f"edge {a} {b} {w}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str, source: str = "graph text") -> WeightedGraph:
    """Parse `graph_to_text` output; a malformed line raises InvalidParams
    naming `source` and the line number."""
    header, nodes, edges = None, [], []
    for lineno, ln in enumerate(text.splitlines(), start=1):
        parts = ln.split()
        if not parts:
            continue
        where = f"{source}, line {lineno}"
        try:
            if header is None:
                if parts[0] != "graph":
                    raise InvalidParams(f"{where}: missing graph header")
                _, unit, count = parts
                header = (WeightUnit(unit), int(count))
            elif parts[0] == "node":
                nodes.append(
                    Node(
                        int(parts[1]),
                        NodeKind(parts[2]),
                        memory_total=int(parts[3]),
                        storage=int(parts[4]),
                        downlink_bw=int(parts[5]),
                        uplink_bw=int(parts[6]),
                        compute=int(parts[7]),
                    )
                )
            elif parts[0] == "edge":
                edges.append(Edge(int(parts[1]), int(parts[2]), int(parts[3])))
            else:
                raise InvalidParams(f"{where}: unknown line {parts[0]!r}")
        except IndexError:
            raise InvalidParams(f"{where}: too few fields in {parts[0]!r} line") from None
        except ValueError as exc:
            raise InvalidParams(f"{where}: {exc}") from None
    if header is None:
        raise InvalidParams(f"{source}: missing graph header")
    if len(nodes) != header[1]:
        raise InvalidParams(f"{source}: node count mismatch with header")
    return build_graph(nodes, edges, header[0])


def load_graph(path) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_text(fh.read(), str(path))
