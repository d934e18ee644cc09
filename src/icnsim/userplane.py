"""User plane: hop-by-hop request forwarding, on-path caching with LRU
replacement in the media partition, and probabilistic high-centrality
prefetch placement.

Requests walk the topology one forwarding element at a time. Each element
serves from its own cache when it can, otherwise it forwards one hop toward
the closest copy (fewest hops, ties to the lowest address) among the
locators the run's resolver lists for the requested identifier. Data
transits the reverse path and is cached implicitly at forwarding elements;
implicit copies never update the resolver, explicit (prefetch) copies do.
Each cache evicts in least-recently used order, which its insertion order
records.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDistribution,
    InvalidParams,
    LocatorLimitExceeded,
    NoRoute,
    NotFound,
    Unresolvable,
)
from .ilm import GlobalId, NetworkAddress, Resolver, resolve, update_binding
from .topology import WeightedGraph, closest_path

_ADDR_BASE = 0x0A000000  # 10.0.0.0/8; node id maps directly into it


def address_of(node_id: int) -> NetworkAddress:
    return NetworkAddress("v4", _ADDR_BASE + int(node_id))


def node_of_address(na: NetworkAddress) -> int:
    node = na.value - _ADDR_BASE
    if na.version != "v4" or node < 0:
        raise InvalidParams(f"address {na} is outside the simulation block")
    return node


@dataclass
class ContentObject:
    id: GlobalId
    volume: int
    publisher: int
    popularity_rank: int = 1

    def __post_init__(self):
        if self.volume <= 0:
            raise InvalidParams("object volume must be positive")
        if self.popularity_rank < 1:
            raise InvalidParams("popularity rank starts at 1")


class CacheStore:
    """Byte-budgeted LRU store over the media partition of one element."""

    def __init__(self, owner: int, media_capacity: int, on_evict=None):
        self.owner = owner
        self.media_capacity = int(media_capacity)
        self.entries = OrderedDict()  # id -> size, least recently used first
        self.used = 0
        self.on_evict = on_evict  # on_evict(owner, id) runs on evicting an id in `explicit`
        self.explicit = set()  # ids of the copies here registered with the resolver

    def __contains__(self, oid) -> bool:
        return oid in self.entries

    def insert(self, oid, size: int) -> bool:
        """Insert with LRU eviction; oversized objects are simply skipped."""
        if size > self.media_capacity:
            return False
        if oid in self.entries:
            self.used -= self.entries.pop(oid)
        while self.used + size > self.media_capacity:
            evicted_id, evicted = self.entries.popitem(last=False)
            self.used -= evicted
            if evicted_id in self.explicit:
                self.explicit.remove(evicted_id)
                self.on_evict(self.owner, evicted_id)
        self.entries[oid] = size
        self.used += size
        return True


@dataclass(slots=True)
class RequestMsg:
    """A request for one object: the requested identifier and the node the
    request starts from."""

    requested: GlobalId
    origin_node: int


@dataclass(slots=True)
class DeliveryTrace:
    request: RequestMsg
    path: list
    hops: int
    serving_node: int
    cache_hit: bool
    volume: int


@dataclass
class PrefetchPlan:
    placements: list        # (object id, node id, probability used)
    nodes: list
    objects: list
    probabilities: np.ndarray


class NetState:
    """Everything one simulation run owns: topology, resolver, caches, the
    catalog (each object names its publisher) and the explicitly registered
    copies."""

    def __init__(self, graph: WeightedGraph, resolver: Resolver, media_capacity: int):
        self.graph = graph
        self.resolver = resolver
        self.media_capacity = int(media_capacity)
        self.caches = {}
        self.objects = {}
        self.explicit = set()  # (node, object id) pairs registered with the ILM, as stores hold them
        self.forwarding = graph.forwarding_mask()
        self.parents = graph._tree_info()[1]  # None off the tree
        self._hosts = {}  # object id -> (listed hosts, above), as of _hosts_at
        self._hosts_at = resolver.mutations

    def local_ilm(self, node: int) -> Resolver:
        # kept for perfbench/mesh.py, which registers its catalog through it
        if not 0 <= node < self.graph.n:
            raise InvalidParams(f"node {node} is outside the graph")
        return self.resolver

    def cache_of(self, node: int) -> CacheStore:
        store = self.caches.get(node)
        if store is None:
            store = CacheStore(node, self.media_capacity, self._deregister_explicit)
            self.caches[node] = store
        return store

    def _deregister_explicit(self, node: int, oid) -> None:
        """Evicting an explicitly registered copy must inform the resolver,
        or routing would chase a copy that no longer exists."""
        self.explicit.remove((node, oid))
        try:
            update_binding(self.resolver, oid, "remove", address_of(node))
        except NotFound:
            pass

    def listing(self, oid) -> tuple:
        """(listed hosts in address order, above): on a tree, `above` is the
        set of nodes whose subtree holds a listed host, each host's chain to
        the root; off it, None. Both are kept until the resolver's next
        binding change (an indirect record's answer changes with its
        target's, so all are dropped)."""
        res = self.resolver
        if self._hosts_at != res.mutations:
            self._hosts.clear()
            self._hosts_at = res.mutations
        kept = self._hosts.get(oid)
        if kept is None:
            try:
                locators = resolve(res, oid)
            except NotFound:
                raise Unresolvable(
                    f"identifier {oid.hex[:12]}.. is unknown and uncached on the path"
                )
            hosts = tuple(node_of_address(na) for na in sorted(locators))
            if hosts[-1] >= self.graph.n:  # resolve lists at least one
                raise InvalidParams(f"listed node {hosts[-1]} is outside the graph")
            above = None
            if self.parents is not None:
                above = set()
                for x in hosts:
                    while x >= 0 and x not in above:
                        above.add(x)
                        x = self.parents[x]
            kept = self._hosts[oid] = (hosts, above)
        return kept

    def add_object(self, obj: ContentObject) -> None:
        self.objects[obj.id] = obj


def build_network(graph: WeightedGraph, hierarchy, resolver: Resolver,
                  media_capacity: int) -> NetState:
    # `hierarchy` is unread; perfbench/mesh.py passes it
    return NetState(graph, resolver, media_capacity)


# -- request handling -----------------------------------------------------------


def handle_request(net: NetState, req: RequestMsg) -> DeliveryTrace:
    """Walk the request hop by hop until a copy is found: a climb, then a
    descent. Every element on the way checks its own store; the listing is
    read at the first that misses (see NetState.listing). The climb: on a
    tree, an element whose subtree holds no listed host reaches every host
    through its parent, so the request climbs there. The descent: from the
    first element not climbed past, it heads for the listed copy whose host
    is the fewest forwarding hops away (ties broken by the lowest address).
    Along a fewest-hops path every step brings that host one hop closer and
    no other host more than one, so it stays the closest all the way and is
    picked once. A listed host found without the object is dropped for the
    rest of the request, which from there heads for the closest remaining
    host (each path ends at a listed host, so no later step climbs).
    """
    oid = req.requested
    obj = net.objects.get(oid)
    publisher = obj.publisher if obj is not None else None
    caches, parents = net.caches, net.parents
    current = req.origin_node
    if not 0 <= current < net.graph.n:
        raise InvalidParams(f"origin {current} is outside the graph")
    path = [current]
    store = caches.get(current)
    found = current == publisher or (store is not None and oid in store.entries)
    if not found:
        kept = net._hosts.get(oid) if net._hosts_at == net.resolver.mutations else None
        hosts, above = kept or net.listing(oid)
        while above is not None and current not in above:  # the climb
            current = parents[current]
            path.append(current)
            store = caches.get(current)
            if current == publisher or (store is not None and oid in store.entries):
                found = True
                break
    while not found:  # the descent, one leg per closest listed host
        if current in hosts:  # it was checked above: the listing is stale
            hosts = [host for host in hosts if host != current]
        leg = closest_path(net.graph, current, hosts)
        if leg is None:
            raise NoRoute(f"no reachable host for {oid.hex[:12]}..")
        for current in leg:
            path.append(current)
            store = caches.get(current)
            if current == publisher or (store is not None and oid in store.entries):
                found = True
                break
    cache_hit = current != publisher
    if cache_hit:
        store.entries.move_to_end(oid)
    return DeliveryTrace(req, path, len(path) - 1, current, cache_hit,
                         obj.volume if obj else 0)


def deliver_data(net: NetState, trace: DeliveryTrace) -> list:
    """Send the object back along the reverse path; forwarding elements on the
    way cache an implicit copy (no resolver update). Returns the nodes that
    stored a copy."""
    obj = net.objects.get(trace.request.requested)
    if obj is None:
        return []
    stored = []
    forwarding, caches = net.forwarding, net.caches
    serving, oid, volume = trace.serving_node, obj.id, obj.volume
    for node in reversed(trace.path):
        if node == serving or not forwarding[node]:
            continue
        store = caches.get(node) or net.cache_of(node)
        if store.insert(oid, volume):
            stored.append(node)
    return stored


# -- popularity and prefetch ------------------------------------------------------


def zipf_popularity(j: int, s: float, shift: float = 0.0) -> np.ndarray:
    """Shifted power-law rank popularity, normalized to sum to one."""
    if j < 1 or s <= 0 or shift < 0:
        raise InvalidParams("need catalog size >= 1, exponent > 0, shift >= 0")
    ranks = np.arange(1, j + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        fp = 1.0 / (ranks + shift) ** s
    total = fp.sum()
    if not (np.isfinite(total) and total > 0):
        # a large exponent sends every power to inf, so every weight to zero
        raise InvalidParams(f"popularity weights for exponent {s!r} sum to {float(total)!r}")
    return fp / total


def _draw_without_replacement(probs: np.ndarray, budget: int, rng) -> list:
    """Sequential seeded draws from a categorical distribution, renormalizing
    after each pick; returns flat cell indices."""
    remaining = probs.astype(np.float64).copy()
    picks = []
    for _ in range(budget):
        total = remaining.sum()
        if total <= 0:
            break
        cum = np.cumsum(remaining / total)
        cell = int(np.searchsorted(cum, rng.random(), side="right"))
        cell = min(cell, len(remaining) - 1)
        picks.append(cell)
        remaining[cell] = 0.0
    return picks


def prefetch_plan(nc: dict, fp: dict, budget: int, seed: int) -> PrefetchPlan:
    """Placement plan drawn from the centrality-times-popularity distribution.

    The full probability matrix over (candidate node, object) cells is
    normalized to one; `budget` placements are drawn without replacement from
    the seeded generator.
    """
    if budget < 1:
        raise InvalidParams("placement budget must be >= 1")
    if not nc or not fp:
        raise DegenerateDistribution("need candidate nodes and objects")
    nodes = sorted(nc)
    objects = sorted(fp, key=lambda oid: (-fp[oid], oid))
    nc_vec = np.array([nc[i] for i in nodes], dtype=np.float64)
    fp_vec = np.array([fp[o] for o in objects], dtype=np.float64)
    if nc_vec.min() < 0 or fp_vec.min() < 0:
        raise InvalidParams("centralities and popularities must be positive")
    mass = np.outer(nc_vec, fp_vec)
    total = mass.sum()
    if total <= 0:
        raise DegenerateDistribution("all-zero selection mass")
    probs = mass / total
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x9F]))
    budget = min(budget, probs.size)
    picks = _draw_without_replacement(probs.ravel(), budget, rng)
    placements = [
        (objects[cell % len(objects)], nodes[cell // len(objects)],
         float(probs.ravel()[cell]))
        for cell in picks
    ]
    return PrefetchPlan(
        placements=placements, nodes=nodes, objects=objects, probabilities=probs
    )


def apply_prefetch(net: NetState, plan: PrefetchPlan) -> list:
    """Execute a plan: insert each object into the target's media store and
    register the explicit copy with the resolver (until the locator cap).
    A placement at the object's own publisher is skipped, since evicting it
    would deregister the publisher. Returns (object id, node) per placed copy."""
    placed = []
    for oid, node, _p in plan.placements:
        obj = net.objects.get(oid)
        if obj is None:
            raise NotFound(f"object {oid.hex[:12]}.. is not in the catalog")
        if not 0 <= node < net.graph.n:
            raise InvalidParams(f"placement node {node} is outside the graph")
        if node == obj.publisher or not net.cache_of(node).insert(obj.id, obj.volume):
            continue
        try:
            update_binding(net.resolver, oid, "add", address_of(node))
            net.explicit.add((node, oid))
            net.caches[node].explicit.add(oid)
        except LocatorLimitExceeded:
            pass  # cached copy stays useful on-path even when unregistered
        placed.append((oid, node))
    return placed


# -- trace log --------------------------------------------------------------------


def traces_to_csv(traces) -> str:
    lines = ["request_n,path_j,hops,serving_node,volume_bytes,cache_hit"]
    for n, per_request in enumerate(traces, start=1):
        if isinstance(per_request, DeliveryTrace):
            per_request = [per_request]
        for j, tr in enumerate(per_request, start=1):
            lines.append(
                f"{n},{j},{tr.hops},{tr.serving_node},{tr.volume},"
                f"{'1' if tr.cache_hit else '0'}"
            )
    return "\n".join(lines) + "\n"
