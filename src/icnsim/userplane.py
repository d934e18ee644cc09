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
    Unreachable,
    Unresolvable,
)
from .ilm import GlobalId, NetworkAddress, Resolver, resolve, update_binding
from .topology import WeightedGraph, hop_distance, next_hop_toward

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
        self.on_evict = on_evict

    def __contains__(self, oid) -> bool:
        return oid in self.entries

    def touch(self, oid) -> None:
        self.entries.move_to_end(oid)

    def insert(self, oid, size: int) -> bool:
        """Insert with LRU eviction; oversized objects are simply skipped."""
        if size > self.media_capacity:
            return False
        if oid in self.entries:
            self.used -= self.entries.pop(oid)
        while self.used + size > self.media_capacity:
            evicted_id, evicted = self.entries.popitem(last=False)
            self.used -= evicted
            if self.on_evict is not None:
                self.on_evict(evicted_id)
        self.entries[oid] = size
        self.used += size
        return True


@dataclass
class RequestMsg:
    """A request for one object: the requested identifier, the node the
    request starts from, and the hop count that handle_request stamps on it
    once a copy is found."""

    requested: GlobalId
    origin_node: int
    hop_count: int = 0


@dataclass
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

    @property
    def total_probability(self) -> float:
        return float(self.probabilities.sum())


class NetState:
    """Everything one simulation run owns: topology, resolver, caches, the
    publisher stores and the explicitly registered copies."""

    def __init__(self, graph: WeightedGraph, resolver: Resolver, media_capacity: int):
        self.graph = graph
        self.resolver = resolver
        self.media_capacity = int(media_capacity)
        self.caches = {}
        self.permanent = {}
        self.objects = {}
        self.explicit = set()  # (node, object id) pairs registered with the ILM
        self.forwarding = graph.forwarding_mask()

    def local_ilm(self, node: int) -> Resolver:
        # kept for perfbench/mesh.py, which registers its catalog through it
        if not 0 <= node < self.graph.n:
            raise InvalidParams(f"node {node} is outside the graph")
        return self.resolver

    def cache_of(self, node: int) -> CacheStore:
        store = self.caches.get(node)
        if store is None:
            store = CacheStore(
                node, self.media_capacity,
                on_evict=lambda oid, node=node: self._deregister_explicit(node, oid),
            )
            self.caches[node] = store
        return store

    def _deregister_explicit(self, node: int, oid) -> None:
        """Evicting an explicitly registered copy must inform the resolver,
        or routing would chase a copy that no longer exists."""
        if (node, oid) in self.explicit:
            self.explicit.discard((node, oid))
            try:
                update_binding(self.resolver, oid, "remove", address_of(node))
            except NotFound:
                pass

    def add_object(self, obj: ContentObject) -> None:
        self.objects[obj.id] = obj
        self.permanent.setdefault(obj.publisher, set()).add(obj.id)

    def holds(self, node: int, oid) -> str:
        """'origin' when the node publishes the object, 'cache' on a cache
        hit, '' otherwise."""
        if oid in self.permanent.get(node, ()):
            return "origin"
        store = self.caches.get(node)
        if store is not None and oid in store:
            return "cache"
        return ""


def build_network(graph: WeightedGraph, hierarchy, resolver: Resolver,
                  media_capacity: int) -> NetState:
    # `hierarchy` is unread; perfbench/mesh.py passes it
    return NetState(graph, resolver, media_capacity)


# -- request handling -----------------------------------------------------------


def handle_request(net: NetState, req: RequestMsg) -> DeliveryTrace:
    """Walk the request hop by hop until a copy is found.

    Every element first checks its own store, then forwards one hop toward
    the listed copy whose host is the fewest forwarding hops away (ties
    broken by the lowest address). The identifier is resolved once, at the
    first element that misses: nothing writes the record table while a
    request is forwarded.
    """
    oid = req.requested
    obj = net.objects.get(oid)
    current = req.origin_node
    path = [current]
    hops = 0
    hosts = None  # listed hosts in address order, once resolved
    for _ in range(net.graph.n + 1):
        held = net.holds(current, oid)
        if held:
            if held == "cache":
                net.cache_of(current).touch(oid)
            req.hop_count = hops
            return DeliveryTrace(
                request=req,
                path=path,
                hops=hops,
                serving_node=current,
                cache_hit=(held == "cache"),
                volume=obj.volume if obj else 0,
            )
        if hosts is None:
            try:
                locators = resolve(net.resolver, oid)
            except NotFound:
                raise Unresolvable(
                    f"identifier {oid.hex[:12]}.. is unknown and uncached on the path"
                )
            hosts = [node_of_address(na) for na in sorted(locators)]
        best = None
        for host in hosts:
            if host == current:
                continue  # already checked above; a listed copy here is stale
            try:
                d = hop_distance(net.graph, current, host)
            except Unreachable:
                continue
            if best is None or d < best[0]:
                best = (d, host)
        if best is None:
            raise NoRoute(f"no reachable host for {oid.hex[:12]}..")
        current = next_hop_toward(net.graph, current, best[1])
        hops += 1
        path.append(current)
    raise NoRoute("forwarding did not converge")


def deliver_data(net: NetState, trace: DeliveryTrace) -> list:
    """Send the object back along the reverse path; forwarding elements on the
    way cache an implicit copy (no resolver update). Returns the nodes that
    stored a copy."""
    obj = net.objects.get(trace.request.requested)
    if obj is None:
        return []
    stored = []
    forwarding = net.forwarding
    for node in reversed(trace.path):
        if node == trace.serving_node:
            continue
        if forwarding[node]:
            if net.cache_of(node).insert(obj.id, obj.volume):
                stored.append(node)
    return stored


# -- popularity and prefetch ------------------------------------------------------


def zipf_popularity(j: int, s: float, shift: float = 0.0) -> np.ndarray:
    """Shifted power-law rank popularity, normalized to sum to one."""
    if j < 1 or s <= 0 or shift < 0:
        raise InvalidParams("need catalog size >= 1, exponent > 0, shift >= 0")
    ranks = np.arange(1, j + 1, dtype=np.float64)
    fp = 1.0 / (ranks + shift) ** s
    return fp / fp.sum()


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


def prefetch_plan(hierarchy, nc: dict, fp: dict, budget: int, seed: int) -> PrefetchPlan:
    """Placement plan drawn from the centrality-times-popularity distribution.

    The full probability matrix over (candidate node, object) cells is
    normalized to one; `budget` placements are drawn without replacement from
    the seeded generator.
    """
    if budget < 1:
        raise InvalidParams("placement budget must be >= 1")
    if not nc or not fp:
        raise DegenerateDistribution("need candidate nodes and objects")
    if hierarchy is not None:
        n_covered = len(hierarchy.labels()[0])
        for node in nc:
            if not (0 <= node < n_covered):
                raise InvalidParams(f"candidate {node} is outside the hierarchy")
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
    """Execute a plan: push each object along the minimum-distance path from
    its publisher into the target's media store, and register the explicit
    copy with the resolver (until the locator cap)."""
    placed = []
    for oid, node, _p in plan.placements:
        obj = net.objects.get(oid)
        if obj is None:
            raise NotFound(f"object {oid.hex[:12]}.. is not in the catalog")
        if not 0 <= node < net.graph.n:
            raise InvalidParams(f"placement node {node} is outside the graph")
        if not net.cache_of(node).insert(obj.id, obj.volume):
            continue
        try:
            update_binding(net.resolver, oid, "add", address_of(node))
            net.explicit.add((node, oid))
        except LocatorLimitExceeded:
            pass  # cached copy stays useful on-path even when unregistered
        try:
            hops = hop_distance(net.graph, obj.publisher, node)
        except Unreachable:
            hops = -1
        placed.append((oid, node, hops))
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
