"""Weighted network graphs: node roles, distance measurement, centrality, and
seeded scenario topology generation.

Distances are integer-valued and unit-tagged per graph (microseconds of
latency, hop counts, or bits/s of bandwidth). Graphs are undirected and
immutable after construction, so they can be shared across parallel runs.
"""

from __future__ import annotations

import heapq
import math
import operator
from array import array
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

_KIND_ORDER = list(NodeKind)
_KIND_INDEX = {k: i for i, k in enumerate(_KIND_ORDER)}
_FORWARDING_INDICES = sorted(_KIND_INDEX[k] for k in FORWARDING_KINDS)

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

# Resources of each node kind, in Node's field order: memory, storage,
# downlink, uplink, compute. A generated graph derives its nodes' resources
# from their kinds through this table.
KIND_RESOURCES = {
    kind: (DEFAULT_MEMORY, DEFAULT_STORAGE, DEFAULT_DOWNLINK, DEFAULT_UPLINK, DEFAULT_COMPUTE)
    for kind in NodeKind
}
KIND_RESOURCES[NodeKind.MMTC_DEVICE] = (32_000, 200_000, 30_000, 10_000, 32_000_000)
_RESOURCE_TABLE = np.array([KIND_RESOURCES[k] for k in _KIND_ORDER], dtype=np.int64)
# a graph holds its resources and weights as int64
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True)
class Node:
    id: int
    kind: NodeKind
    memory_total: int = DEFAULT_MEMORY
    storage: int = DEFAULT_STORAGE
    downlink_bw: int = DEFAULT_DOWNLINK
    uplink_bw: int = DEFAULT_UPLINK
    compute: int = DEFAULT_COMPUTE


@dataclass(frozen=True)
class Edge:
    a: int
    b: int
    weight: int


_RESOURCE_COLUMNS = ("mems", "storages", "downs", "ups", "computes")


class _KindColumn:
    """A node resource column of a WeightedGraph. A graph built without it
    fills it from its node kinds and KIND_RESOURCES the first time it is
    read; the array then shadows this descriptor."""

    def __set_name__(self, owner, name):
        self.name, self.col = name, _RESOURCE_COLUMNS.index(name)

    def __get__(self, g, owner=None):
        if g is None:
            return self
        g.__dict__[self.name] = column = _RESOURCE_TABLE[g.kinds, self.col]
        return column


class WeightedGraph:
    """Immutable undirected graph with integer edge weights.

    Node attributes live in flat arrays indexed by node id; edges are kept in
    canonical order (a < b, sorted). Use build_graph() to construct one with
    validation, or from_arrays() when the arrays are already consistent.
    `resources` holds the five _RESOURCE_COLUMNS in order, or nothing, in
    which case they derive from the node kinds when first read.
    """

    mems = _KindColumn()
    storages = _KindColumn()
    downs = _KindColumn()
    ups = _KindColumn()
    computes = _KindColumn()

    def __init__(self, kinds, ea, eb, ew, unit, resources=()):
        self.kinds = kinds
        self.__dict__.update(zip(_RESOURCE_COLUMNS, resources))
        self.ea = ea
        self.eb = eb
        # the arrays are never reassigned, so the counts are plain attributes
        self.n = len(kinds)
        self.m = len(ea)
        self.ew = ew
        self.unit = unit
        self._csr = None
        self._degrees = None
        self._tree = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_arrays(cls, kinds, mems, storages, downs, ups, computes, ea, eb, ew, unit):
        resources = [np.asarray(v, dtype=np.int64) for v in (mems, storages, downs, ups, computes)]
        ea, eb, ew = (np.asarray(v, dtype=np.int64) for v in (ea, eb, ew))
        lo = np.minimum(ea, eb)
        hi = np.maximum(ea, eb)
        order = np.lexsort((hi, lo))
        return cls(
            np.asarray(kinds, dtype=np.int8), lo[order], hi[order], ew[order],
            WeightUnit(unit), resources,
        )

    # -- basic accessors ---------------------------------------------------

    def kind(self, i: int) -> NodeKind:
        return _KIND_ORDER[self.kinds[i]]

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
            np.cumsum(self.degrees(), out=indptr[1:])
            self._csr = (indptr, dst, wts)
        return self._csr

    def neighbors(self, i: int):
        indptr, dst, wts = self._ensure_csr()
        lo, hi = indptr[i], indptr[i + 1]
        return dst[lo:hi], wts[lo:hi]

    def degrees(self) -> np.ndarray:
        """Degree of every node, as a read-only int64 array indexed by node
        id. Counted from the edge list, so it builds no adjacency."""
        if self._degrees is None:
            degs = np.bincount(self.ea, minlength=self.n)
            degs += np.bincount(self.eb, minlength=self.n)
            degs.flags.writeable = False
            self._degrees = degs
        return self._degrees

    def degrees_of(self, nodes: np.ndarray) -> np.ndarray:
        """Degrees (int64) of the ascending ids `nodes`, with no count per graph
        node: binary searches count the sorted lower ends, a mask the higher."""
        listed = np.zeros(self.n, dtype=bool)
        listed[nodes] = True
        higher = np.searchsorted(nodes, self.eb[listed[self.eb]])
        lower = np.searchsorted(self.ea, nodes, "right") - np.searchsorted(self.ea, nodes)
        return lower + np.bincount(higher, minlength=len(nodes))

    def forwarding_mask(self) -> bytes:
        """One byte per node: 1 where the node's kind forwards and caches
        traffic (FORWARDING_KINDS), else 0."""
        return np.isin(self.kinds, _FORWARDING_INDICES).tobytes()

    def forwarding_nodes(self) -> np.ndarray:
        """Ids of the nodes that forwarding_mask marks, ascending."""
        return np.flatnonzero(np.isin(self.kinds, _FORWARDING_INDICES))

    # -- tree navigation (fast path for generated topologies) --------------

    def _tree_info(self):
        """(True, parents, depths) when the graph is a tree rooted at node 0,
        else (False, None, None), as _tree_columns lays them out. A generated
        topology hands them over at construction; any other graph learns
        them by one BFS."""
        if self._tree is None:
            self._tree = (False, None, None)
            if self.n >= 1 and self.m == self.n - 1:
                indptr, dst, _ = self._ensure_csr()
                depths, parents = _bfs(indptr, dst, 0)
                if depths.min() >= 0:  # connected with n - 1 edges
                    self._tree = _tree_columns(parents[1:], depths)
        return self._tree

    def is_tree(self) -> bool:
        return self._tree_info()[0]


def _tree_columns(up: np.ndarray, depths: np.ndarray) -> tuple:
    """_tree_info's (True, parents, depths) from root 0, `up` the parents of
    nodes 1..: parents one C int per node (int64 past int32), no object for
    the GC to walk, a read 38 ns (18 from a list); depths bytes, or a list
    past 255 so none wraps."""
    parents = array("i" if len(depths) <= np.iinfo(np.int32).max else "q", [-1]) * len(depths)
    np.frombuffer(parents, f"i{parents.itemsize}")[1:] = up
    return True, parents, bytes(depths.astype(np.uint8)) if depths.max() < 256 else depths.tolist()


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
    node_rows = []
    for node in nodes:
        node_id, *resources = _int_fields(node, _NODE_FIELDS)
        try:
            node_rows.append((node_id, _kind_index(node.kind), *resources))
        except (TypeError, ValueError):  # unhashable, or no kind's name
            raise InvalidParams(f"node {node_id}: {node.kind!r} is not a valid NodeKind") from None
    edge_rows = [_int_fields(edge, ("a", "b", "weight")) for edge in edges]
    node_table, node_fault = _screen(node_rows, 7, _node_rules, n)
    edge_table, edge_fault = _screen(edge_rows, 3, _edge_rules, n)
    if node_fault or edge_fault:
        raise (node_fault or edge_fault)[1]
    return _pack_graph(node_table, edge_table, unit)


_NODE_FIELDS = ("id", "memory_total", "storage", "downlink_bw", "uplink_bw", "compute")


def _int_fields(item, names) -> tuple:
    """The fields `names` of a Node or Edge as Python ints. An integral
    float such as 5.0 passes; any other value that is not an integer raises
    InvalidParams naming the item and the field."""
    row = []
    for name in names:
        value = getattr(item, name)
        try:
            row.append(int(value) if isinstance(value, float) and value.is_integer()
                       else operator.index(value))
        except TypeError:
            what = f"node {item.id}:" if isinstance(item, Node) else f"edge ({item.a},{item.b})"
            raise InvalidParams(f"{what} {name} must be an integer") from None
    return tuple(row)


def _pack_graph(node_rows: np.ndarray, edge_rows: np.ndarray, unit) -> WeightedGraph:
    """Pack checked rows into a WeightedGraph: node rows of (id, kind index,
    the five resources), one per id, and edge rows of (a, b, weight)."""
    columns = np.zeros((6, len(node_rows)), dtype=np.int64)  # kind index, then the resources
    columns[:, node_rows[:, 0]] = node_rows[:, 1:].T
    kinds, *resources = columns
    return WeightedGraph.from_arrays(kinds, *resources, *edge_rows.T, unit)


# -- distance measurement ----------------------------------------------------


def measure_distance(g: WeightedGraph, a: int, b: int, mode: str = "additive"):
    """Distance between two nodes.

    additive: shortest-path sum of weights (latency, hops).
    bottleneck: widest path -- maximum over paths of the minimum edge weight
    (bandwidth). A node's bottleneck distance to itself is +inf (unconstrained).
    """
    if not (0 <= a < g.n) or not (0 <= b < g.n):
        raise InvalidParams(f"nodes ({a},{b}) outside graph")
    if mode not in ("additive", "bottleneck"):
        raise InvalidParams(f"unknown distance mode {mode!r}")
    key = _best_first(g, a, b, mode == "bottleneck")
    if key is None:
        raise Unreachable(f"no path {a} -> {b}")
    return -key if mode == "bottleneck" else key


def _best_first(g, src, dst, bottleneck):
    """dst's key from src by Dijkstra's search, where a smaller key is
    better, or None when dst cannot be reached. Additive: 0 at src, and an
    edge of weight w extends key k to k + w. Bottleneck: -inf at src and
    max(k, -w), the negated width of the widest path (the maximum-capacity
    path problem, Pollack 1960)."""
    start = -math.inf if bottleneck else 0
    best = {src: start}
    heap = [(start, src)]
    while heap:
        k, u = heapq.heappop(heap)
        if u == dst:
            return k
        if k > best[u]:
            continue
        nbrs, wts = g.neighbors(u)
        for v, w in zip(nbrs.tolist(), wts.tolist()):
            nk = max(k, -w) if bottleneck else k + w
            if nk < best.get(v, math.inf):
                best[v] = nk
                heapq.heappush(heap, (nk, v))
    return None


def node_centrality(g: WeightedGraph, v: int) -> float:
    """Degree centrality normalized to [0, 1]; a single-node graph scores 1."""
    if not (0 <= v < g.n):
        raise InvalidParams(f"node {v} outside graph")
    if g.n == 1:
        return 1.0
    return int(g.degrees()[v]) / (g.n - 1)


# -- hop routing helpers -----------------------------------------------------


def hop_distance(g: WeightedGraph, a: int, b: int) -> int:
    """Fewest-edges distance, ignoring weights; ids outside [0, n) raise
    InvalidParams. On a tree, both ends climb to their lowest common
    ancestor."""
    is_tree, parents, depths = g._tree or g._tree_info()
    if is_tree and 0 <= a < len(depths) and 0 <= b < len(depths):
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
    n = g.n
    if not (0 <= a < n and 0 <= b < n):
        raise InvalidParams(f"nodes ({a},{b}) outside graph")
    if a == b:
        return 0
    hops = int(_dists_to(g, b)[a])
    if hops < 0:
        raise Unreachable(f"no path {a} -> {b}")
    return hops


def _dists_to(g, t):
    """Hop count from every node to t, -1 where t cannot be reached: one
    _bfs from the far end, which every off-tree query reads."""
    indptr, dst, _ = g._ensure_csr()
    return _bfs(indptr, dst, t)[0]


def next_hop_toward(g: WeightedGraph, u: int, target: int) -> int:
    """First node after u on a fewest-hops path to target (ties: lowest id),
    u itself when u == target; ids outside [0, n) raise InvalidParams."""
    path = closest_path(g, u, (target,))
    if path is None:
        raise Unreachable(f"no route {u} -> {target}")
    return path[0] if path else u


def closest_path(g: WeightedGraph, u: int, targets) -> list:
    """The nodes after u on a fewest-hops path to the first of `targets`
    with the fewest hops from u, ending at that target: each is the lowest-id
    neighbour one hop closer to it than the node before it, so there are
    hop_distance of them. None when no target is reachable; ids outside
    [0, n) raise InvalidParams. Off the tree this is one _dists_to per
    distinct target."""
    n = g.n
    if not 0 <= u < n or targets and not 0 <= min(targets) <= max(targets) < n:
        raise InvalidParams(f"node {u} or one of {list(targets)} is outside the graph")
    is_tree, parents, depths = g._tree_info()
    if is_tree:
        return _tree_path(parents, depths, u, targets)
    best = None
    for t in dict.fromkeys(targets):
        dist = _dists_to(g, t)
        if dist[u] >= 0 and (best is None or dist[u] < best[u]):
            best = dist
    if best is None:
        return None
    indptr, dst, _ = g._ensure_csr()
    path = []
    while best[u]:
        nbrs = dst[indptr[u]:indptr[u + 1]]
        u = int(nbrs[best[nbrs] == best[u] - 1][0])  # rows are ascending
        path.append(u)
    return path


def _tree_path(parents, depths, u, targets):
    """closest_path on a tree: one walk up from u, then each target climbs
    until it meets that walk, at their lowest common ancestor."""
    up = [u]
    x = parents[u]
    while x >= 0:
        up.append(x)
        x = parents[x]
    top = len(up) - 1  # u's depth; up[top - d] is u's ancestor at depth d
    best = None
    for t in targets:
        down, x, d = [], t, depths[t]
        while d > top:  # climb to u's depth
            down.append(x)
            x = parents[x]
            d -= 1
        while x != up[top - d]:  # climb until the walk from u is met
            down.append(x)
            x = parents[x]
            d -= 1
        hops = len(down) + top - d
        if best is None or hops < best[0]:
            best = (hops, d, down)
    if best is None:
        return None
    _, d, down = best
    path = up[1:top - d + 1]
    path.extend(reversed(down))
    return path


# -- scenario topology generation --------------------------------------------

SCENARIOS = ("embb", "urllc", "mmtc")

# Latency windows (microseconds) used when drawing edge weights so that the
# three-level targets T1=1 ms, T2=150 ms, T3=500 ms carve the intended tiers.
_LOCAL_LAT = (100, 900)         # device/gateway attach links, under T1
_MID_LAT = (5_000, 120_000)     # access tier links, between T1 and T2
_CORE_LAT = (160_000, 450_000)  # core tier links, between T2 and T3

_URLLC_BASE_LATENCY_MS = 8.0

# Most end devices one generated topology may hold, and the largest
# structure parameter. `icnsim run` peaks about 55 MiB per million mMTC
# devices over the 35 MiB that importing icnsim takes (94 MiB at 1.05M, the
# largest default sweep point, 148 MiB at 2.1M), so the cap is about 0.25 GiB.
MAX_DEVICES = 4_000_000

# Most mMTC devices behind one gateway: the 8-bit short names of one local
# domain of the identifier-locator mapping.
LOCAL_DOMAIN_SIZE = 256


def topology_size(params) -> tuple:
    """(n_devices, devices_per_ap, devices_per_gw, n_gateways, n_aps,
    n_switches, n_zones) of the topology that `generate_topology` builds for
    `params`, an `evaluation.ScenarioParams`.

    Every check on the parameters that shape a topology lives here, per
    scenario, so `evaluation.sweep_points` rejects a bad sweep point before
    any point runs. Raises InvalidParams. devices_per_ap is the URLLC one
    after latency scaling; devices_per_gw and n_gateways are 0 outside mMTC.
    """
    scenario = params.scenario
    if scenario not in SCENARIOS:
        raise InvalidParams(f"unknown scenario {scenario!r}")
    devices_per_ap = int(params.devices_per_ap)
    structure = (
        devices_per_ap,
        int(params.aps_per_switch),
        int(params.switches_per_zone),
        int(params.n_servers),
    )
    if not 1 <= min(structure) <= max(structure) <= MAX_DEVICES:
        raise InvalidParams(
            "devices_per_ap, aps_per_switch, switches_per_zone and n_servers "
            f"must lie in [1, {MAX_DEVICES}]"
        )

    if scenario == "mmtc":
        density = float(params.density_k_per_km2) * 1000.0
        area = float(params.area_km2)
        if not (density > 0 and area > 0):
            raise InvalidParams("mMTC needs positive density_k_per_km2 and area_km2")
        expected = density * area
        if not expected <= MAX_DEVICES:  # also catches an overflow to inf
            raise InvalidParams(
                f"density_k_per_km2 times area_km2 gives {expected:.6g} devices, "
                f"more than {MAX_DEVICES}"
            )
        n_devices = int(round(expected))
        devices_per_gw = int(params.devices_per_gateway)
        if not (1 <= devices_per_gw <= LOCAL_DOMAIN_SIZE):
            raise InvalidParams(
                f"devices_per_gateway must be in [1, {LOCAL_DOMAIN_SIZE}]"
            )
    else:
        n_devices = int(params.n_devices)
        devices_per_gw = 0
    if n_devices < 1:
        raise InvalidParams("need at least one end device")
    if n_devices > MAX_DEVICES:
        raise InvalidParams(f"n_devices must be at most {MAX_DEVICES}")

    if scenario == "urllc":
        latency_ms = float(params.latency_ms)
        if not latency_ms > 0:
            raise InvalidParams("latency_ms must be positive")
        # Tighter latency budgets shrink the service area of one access point;
        # an area beyond every device (or an overflow to inf) serves them all.
        scaled = devices_per_ap * latency_ms / _URLLC_BASE_LATENCY_MS
        devices_per_ap = max(1, int(round(min(scaled, n_devices))))
    if scenario == "mmtc":
        n_gateways = -(-n_devices // devices_per_gw)
        n_aps = -(-n_gateways // devices_per_ap)
    else:
        n_gateways = 0
        n_aps = -(-n_devices // devices_per_ap)
    n_switches = -(-n_aps // int(params.aps_per_switch))
    n_zones = -(-n_switches // int(params.switches_per_zone))
    return n_devices, devices_per_ap, devices_per_gw, n_gateways, n_aps, n_switches, n_zones


def generate_topology(params, seed: int) -> WeightedGraph:
    """Seeded scenario topology: a latency-weighted access tree.

    Core layout is root - zone switches - switches - access points; end
    devices hang off the access points. The mMTC scenario inserts gateways
    between access points and constrained devices, one local domain per
    gateway. Pure function of (params, seed), where `params` is an
    `evaluation.ScenarioParams`. The graph comes with its tree from root 0
    already known: parents as one C int per node, depths as one byte.
    """
    (n_devices, devices_per_ap, devices_per_gw,
     n_gateways, n_aps, n_switches, n_zones) = topology_size(params)
    scenario = params.scenario
    aps_per_switch = int(params.aps_per_switch)
    switches_per_zone = int(params.switches_per_zone)
    n_servers = int(params.n_servers)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xA11CE]))

    # id layout: root, servers, zones, switches, aps, gateways, devices
    n = 1 + n_servers + n_zones + n_switches + n_aps + n_gateways + n_devices
    kinds = np.full(n, _KIND_INDEX[NodeKind.SERVER], dtype=np.int8)  # attach sets all but the root

    # The layers attach in id order, each one deeper than its parent layer.
    # Edge i - 1 joins node i to its parent, so `ea` is the parents past the
    # root, in canonical (parent, child) order since parents never decrease.
    depths, top = np.zeros(n, dtype=np.uint8), 1  # top: the next id to attach
    ea = np.empty(n - 1, dtype=np.int64)
    eb = np.arange(1, n, dtype=np.int64)
    ew = np.empty(n - 1, dtype=np.int64)

    def attach(kind, count, parent_layer, fanout, weights):
        """Take the next `count` ids as `kind` nodes and hang them below
        `parent_layer`, the first `fanout` below its first node, and so on
        (one node, if fanout passes them); return their ids as a range."""
        nonlocal top
        lo, top = top, top + count
        edges = slice(lo - 1, lo - 1 + count)
        kinds[lo:lo + count] = _KIND_INDEX[kind]
        # child lo + c hangs below parent_layer[c // fanout], computed in place
        np.subtract(eb[edges], lo, out=ea[edges])
        ea[edges] //= fanout
        ea[edges] += parent_layer[0]
        ew[edges] = weights
        depths[lo:lo + count] = depths[parent_layer[0]] + 1
        return range(lo, lo + count)

    def draw(lo, hi, size):
        return rng.integers(lo, hi, size=size, dtype=np.int64)

    attach(NodeKind.SERVER, n_servers, range(1), n_servers, draw(*_MID_LAT, n_servers))
    zones = attach(NodeKind.SWITCH, n_zones, range(1), n_zones, draw(*_CORE_LAT, n_zones))
    switches = attach(NodeKind.SWITCH, n_switches, zones, switches_per_zone,
                      draw(*_CORE_LAT, n_switches))
    if scenario == "urllc":
        base = max(1000.0, float(params.latency_ms) * 1000.0)
        raw = base * rng.uniform(0.8, 1.2, size=n_aps)
        ap_w = np.clip(raw, 1000, 149_999).astype(np.int64)  # clip before the cast: raw may pass int64
    else:
        ap_w = draw(*_MID_LAT, n_aps)
    aps = attach(NodeKind.ACCESS_POINT, n_aps, switches, aps_per_switch, ap_w)
    if scenario == "mmtc":
        gateways = attach(NodeKind.GATEWAY, n_gateways, aps, devices_per_ap,
                          draw(*_MID_LAT, n_gateways))
        attach(NodeKind.MMTC_DEVICE, n_devices, gateways, devices_per_gw,
               draw(*_LOCAL_LAT, n_devices))
    else:
        devices = attach(NodeKind.PC, n_devices, aps, devices_per_ap,
                         draw(*_LOCAL_LAT, n_devices))
        kinds[devices[n_devices // 2]:] = _KIND_INDEX[NodeKind.MOBILE_DEVICE]

    g = WeightedGraph(kinds, ea, eb, ew, WeightUnit.LATENCY_US)
    g._tree = _tree_columns(ea, depths)  # what _tree_info's BFS would find
    return g


# -- graph file format --------------------------------------------------------


def graph_to_text(g: WeightedGraph) -> str:
    lines = [f"graph {g.unit.value} {g.n}"]
    columns = (g.mems, g.storages, g.downs, g.ups, g.computes)
    for i, (k, mem, sto, down, up, cpu) in enumerate(
        zip(g.kinds.tolist(), *(c.tolist() for c in columns))
    ):
        lines.append(f"node {i} {_KIND_ORDER[k].value} {mem} {sto} {down} {up} {cpu}")
    for a, b, w in zip(g.ea.tolist(), g.eb.tolist(), g.ew.tolist()):
        lines.append(f"edge {a} {b} {w}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str, source: str = "graph text") -> WeightedGraph:
    """Parse `graph_to_text` output; a malformed line, or the first node or
    edge that `build_graph` would reject, raises InvalidParams (or its
    subclass) naming `source` and the line number.

    The lines are parsed into int rows first, then screened as columns by
    the rule tables `build_graph` uses. A faulty line goes ahead of any
    malformed later line."""
    header, nodes, edges = None, [], []  # int rows
    node_lines, edge_lines = [], []  # the line number of each row
    failure = None
    for lineno, ln in enumerate(text.splitlines(), start=1):
        parts = ln.split()
        if not parts:
            continue
        where = f"{source}, line {lineno}"
        try:
            if header is None:
                if parts[0] != "graph":
                    raise InvalidParams("missing graph header")
                _, unit, count = parts
                header = (WeightUnit(unit), int(count))
                if header[1] < 1:
                    raise InvalidParams("graph needs at least one node")
            elif parts[0] == "node":
                nodes.append((
                    int(parts[1]), _kind_index(parts[2]), int(parts[3]),
                    int(parts[4]), int(parts[5]), int(parts[6]), int(parts[7]),
                ))
                node_lines.append(lineno)
            elif parts[0] == "edge":
                edges.append((int(parts[1]), int(parts[2]), int(parts[3])))
                edge_lines.append(lineno)
            else:
                raise InvalidParams(f"unknown line {parts[0]!r}")
        except IndexError:
            failure = InvalidParams(f"{where}: too few fields in {parts[0]!r} line")
            break
        except ValueError as exc:
            failure = InvalidParams(f"{where}: {exc}")
            break
        except InvalidParams as exc:
            failure = type(exc)(f"{where}: {exc}")
            break
    n = header[1] if header is not None else 0
    node_table, node_fault = _screen(nodes, 7, _node_rules, n)
    edge_table, edge_fault = _screen(edges, 3, _edge_rules, n)
    faults = [(lines[fault[0]], fault[1]) for lines, fault in
              ((node_lines, node_fault), (edge_lines, edge_fault)) if fault]
    if faults:
        lineno, exc = min(faults, key=lambda fault: fault[0])
        raise type(exc)(f"{source}, line {lineno}: {exc}")
    if failure is not None:
        raise failure from None
    if header is None:
        raise InvalidParams(f"{source}: missing graph header")
    if len(nodes) != n:
        raise InvalidParams(f"{source}: node count mismatch with header")
    return _pack_graph(node_table, edge_table, header[0])


_KIND_BY_NAME = {k.value: i for k, i in _KIND_INDEX.items()}


def _kind_index(name: str) -> int:
    """The kind index of a node kind's name; an unknown name raises
    NodeKind's ValueError."""
    index = _KIND_BY_NAME.get(name)
    return _KIND_INDEX[NodeKind(name)] if index is None else index


# -- graph rules -------------------------------------------------------------
# build_graph and graph_from_text screen their rows with one rule table per
# row kind. An entry is (the mask of the rows that break the rule, given the
# rows before them; the error class; the message, from the row's original
# values), in the order a row's faults are reported.


def _node_rules(cols, clamped, n: int) -> tuple:
    """The node rule table over int64 columns (id, kind index, memory,
    storage, downlink, uplink, compute) and the marks of the fields clamped
    into int64."""
    ids, kinds, mem, sto, down, up, cpu = cols
    third = _INT64_MAX // 3  # past +-third, 3 * up leaves int64, where no downlink is
    mmtc = kinds == _KIND_INDEX[NodeKind.MMTC_DEVICE]
    return (
        ((ids < 0) | (ids >= n) | clamped[0] | _repeated(ids), InvalidParams,
         lambda i, *_: f"node {i}: ids must be dense in [0, {n}), each once"),
        (clamped[2:].any(axis=0), InvalidParams,
         lambda i, *_: f"node {i}: a resource lies outside int64"),
        ((up > third) | (up < -third) | (down != 3 * up), InvalidParams,
         lambda i, kind, mem, sto, down, up, cpu:
             f"node {i}: downlink must be 3x uplink ({down} vs {up})"),
        (mmtc & (cpu >= MMTC_MAX_COMPUTE), InvalidParams,
         lambda i, *_: f"node {i}: mMTC compute >= 50 MHz"),
        (mmtc & (mem >= MMTC_MAX_MEMORY), InvalidParams,
         lambda i, *_: f"node {i}: mMTC memory >= 50 kB"),
        (mmtc & (sto >= MMTC_MAX_STORAGE), InvalidParams,
         lambda i, *_: f"node {i}: mMTC storage >= 300 kB"),
    )


def _edge_rules(cols, clamped, n: int) -> tuple:
    """The edge rule table over int64 columns (a, b, weight) and the marks
    of the fields clamped into int64."""
    a, b, w = cols
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return (
        ((lo < 0) | (hi >= n) | clamped[0] | clamped[1], DanglingEndpoint,
         lambda a, b, w: f"edge ({a},{b}) references a missing node"),
        (a == b, InvalidParams, lambda a, b, w: f"self-loop on node {a}"),
        (w < 0, NegativeWeight, lambda a, b, w: f"edge ({a},{b}) has weight {w}"),
        (clamped[2], InvalidParams, lambda a, b, w: f"edge ({a},{b}) weight {w} lies outside int64"),
        (_repeated(lo, hi), DuplicateEdge, lambda a, b, w: f"duplicate edge {(min(a, b), max(a, b))}"),
    )


def _screen(rows: list, width: int, rules, n: int) -> tuple:
    """Screen `rows`, tuples of `width` ints, with the `rules` table of an
    n-node graph. Returns (the rows as an int64 table, None) when all pass,
    else (None, (the index of the first faulty row, the error its first
    broken rule raises)). Rows after the first one past int64 are not read;
    that one is clamped into int64, its clamped fields marked for the rules."""
    clamped = np.zeros((len(rows), width), dtype=bool)
    try:
        table = np.array(rows, dtype=np.int64).reshape(-1, width)
    except OverflowError:
        end = next(i for i, row in enumerate(rows) if min(row) < _INT64_MIN or max(row) > _INT64_MAX)
        fitted = [min(max(v, _INT64_MIN), _INT64_MAX) for v in rows[end]]
        table = np.array(rows[:end] + [fitted], dtype=np.int64)
        clamped = clamped[:end + 1]
        clamped[end] = [f != v for f, v in zip(fitted, rows[end])]
    table_rules = rules(table.T, clamped.T, n)
    flagged = np.flatnonzero(np.logical_or.reduce([mask for mask, _, _ in table_rules]))
    if not len(flagged):
        return table, None
    i = int(flagged[0])
    error, message = next((error, message) for mask, error, message in table_rules if mask[i])
    return None, (i, error(message(*rows[i])))


def _repeated(*keys) -> np.ndarray:
    """Mask of the rows whose `keys` values all equal those of an earlier row."""
    order = np.lexsort(keys[::-1])  # stable: equal keys keep row order
    same = np.ones(max(len(order) - 1, 0), dtype=bool)
    for key in keys:
        ordered = key[order]
        same &= ordered[1:] == ordered[:-1]
    out = np.zeros(len(order), dtype=bool)
    out[order[1:][same]] = True
    return out


def load_graph(path) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_text(fh.read(), str(path))
