"""Multi-level container hierarchies over weighted graphs.

A container groups nodes whose mutual distance satisfies a target: for
additive targets (latency, hops) every edge under the target is contracted to
zero cost and nodes are grouped while their accumulated contracted distance
stays under the target; for bottleneck targets (bandwidth) edges under the
target are removed and nodes are grouped along the surviving links. Levels
nest: each level above the first is built on the quotient graph of the level
below, which guarantees that a container is the exact union of the
containers below it that it covers.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidParams, UnitMismatch
from .topology import WeightedGraph, WeightUnit


class TargetMode(str, Enum):
    ADDITIVE = "additive"
    BOTTLENECK = "bottleneck"
    EXACT_HIT = "exact_hit"


@dataclass(frozen=True)
class Target:
    level: int
    value: int
    mode: TargetMode = TargetMode.ADDITIVE

    def __post_init__(self):
        if self.level < 1:
            raise InvalidParams("target level must be >= 1")
        if self.value <= 0:
            raise InvalidParams("target value must be positive")


@dataclass(frozen=True, eq=False)
class Container:
    """One container of a hierarchy level.

    `nodes` holds the member node ids in ascending order as a read-only int64
    array; `containerize` stores a slice of the level's sorted node array
    there. Any other iterable of ids (a frozenset, a list) is sorted into one
    at construction; an int64 array is taken as given. Containers compare by
    identity: two containers with equal fields are still two containers.
    """

    level: int
    index: int
    nodes: np.ndarray

    def __post_init__(self):
        nodes = self.nodes
        if not (isinstance(nodes, np.ndarray) and nodes.dtype == np.int64):
            nodes = np.array(sorted(set(nodes)), dtype=np.int64)
        nodes = nodes.view()
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)


@dataclass
class ContainerHierarchy:
    """Containers per level, lowest target first; each container's
    membership is an ascending node-id array (`Container.nodes`)."""

    levels: list          # levels[i] is the list of containers for targets[i]
    targets: list
    source_graph: WeightedGraph
    level_labels: list = field(default_factory=list)  # per level: node -> container position

    def labels(self) -> list:
        """`level_labels`, which the prefetch plan's range check reads. Only
        `containerize` records them; a hierarchy read back from its dump has
        none and raises InvalidParams."""
        if not self.level_labels:
            raise InvalidParams("hierarchy has no level labels; build it with containerize")
        return self.level_labels


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_unit(g: WeightedGraph, t: Target) -> None:
    if t.mode == TargetMode.BOTTLENECK:
        if g.unit != WeightUnit.BANDWIDTH_BPS:
            raise UnitMismatch(f"bottleneck target on {g.unit.value} graph")
    elif g.unit == WeightUnit.BANDWIDTH_BPS:
        raise UnitMismatch(f"{t.mode.value} target on bandwidth graph")


def _grouping_labels(g: WeightedGraph, t: Target) -> np.ndarray:
    """Component label per node after the contraction/removal step.

    Additive: edges under the target contract to zero, and since every
    surviving edge weighs at least the target, any path accumulating less
    than the target uses contracted edges only -- the reachable set from a
    seed is exactly its component over contracted edges. Bottleneck: edges
    under the target are removed, so reachability along the survivors means
    some path has every edge at or above the target.
    """
    if t.mode == TargetMode.BOTTLENECK:
        mask = g.ew >= t.value
    else:
        mask = g.ew < t.value
    ea, eb = g.ea[mask], g.eb[mask]
    # Every node points at a smaller or equal id of its component; a root
    # points at itself. Each round hooks the larger root of every kept edge
    # whose ends still differ onto the smaller, then jumps pointers until
    # every node points at a root. At the end a component's root is its
    # lowest id.
    f = np.arange(g.n)
    while True:
        fa, fb = f[ea], f[eb]
        split = fa != fb
        if not split.any():
            break
        np.minimum.at(f, np.maximum(fa, fb)[split], np.minimum(fa, fb)[split])
        while True:
            ff = f[f]
            if np.array_equal(ff, f):
                break
            f = ff
    is_root = f == np.arange(g.n)
    return (np.cumsum(is_root) - 1)[f]


def _exact_hit_groups(g: WeightedGraph, t: Target, order) -> list:
    """Greedy grouping for the closed-bound mode: from each seed, collect the
    still-unassigned nodes whose contracted path distance is <= the target,
    searching only through unassigned nodes."""
    contracted = {}
    for a, b, w in zip(g.ea.tolist(), g.eb.tolist(), g.ew.tolist()):
        cw = 0 if w < t.value else w
        contracted[(a, b)] = cw
        contracted[(b, a)] = cw
    remaining = set(range(g.n))
    groups = []
    for seed in order:
        if seed not in remaining:
            continue
        dist = {seed: 0}
        heap = [(0, seed)]
        hit = set()
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, math.inf):
                continue
            hit.add(u)
            nbrs, _ = g.neighbors(u)
            for v in nbrs.tolist():
                if v not in remaining:
                    continue
                nd = d + contracted[(u, v)]
                if nd <= t.value and nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        groups.append(sorted(hit))
        remaining -= hit
        if not remaining:
            break
    return groups


def _level_groups(g: WeightedGraph, t: Target, order: np.ndarray) -> list:
    """Node groups for one level, in container order (the group holding the
    earliest node of `order`, an int64 permutation of the node ids, comes
    first); each group is an ascending int64 id array."""
    if t.mode == TargetMode.EXACT_HIT:
        return [
            np.asarray(grp, dtype=np.int64)
            for grp in _exact_hit_groups(g, t, order.tolist())
        ]
    labels = _grouping_labels(g, t)
    n = g.n
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    k = int(labels.max()) + 1
    first = np.full(k, n, dtype=np.int64)
    np.minimum.at(first, labels, position)
    label_rank = np.argsort(first, kind="stable")
    by_node = np.argsort(labels, kind="stable")  # grouped by label, ascending id
    counts = np.bincount(labels, minlength=k)
    splits = np.split(by_node, np.cumsum(counts)[:-1])
    return [splits[lab] for lab in label_rank]


def containerize_level(g: WeightedGraph, t: Target, seed_order=None) -> list:
    """One containerization level: a partition of the graph's nodes.

    seed_order fixes which unassigned node seeds the next container
    (default: ascending node id). Deterministic.
    """
    if g.n == 0:
        raise InvalidParams("cannot containerize an empty graph")
    _check_unit(g, t)
    order = np.arange(g.n) if seed_order is None else np.asarray(list(seed_order))
    if order.shape != (g.n,) or not np.array_equal(np.sort(order), np.arange(g.n)):
        raise InvalidParams("seed_order must enumerate every node exactly once")
    groups = _level_groups(g, t, order.astype(np.int64, copy=False))
    return [
        Container(level=t.level, index=k + 1, nodes=nodes)
        for k, nodes in enumerate(groups)
    ]


def _quotient(g: WeightedGraph, labels: np.ndarray, k: int, mode: TargetMode) -> WeightedGraph:
    """Collapse each container to a super-node; parallel inter-container edges
    aggregate to the minimum weight (additive) or the maximum (bottleneck)."""
    la = labels[g.ea]
    lb = labels[g.eb]
    mask = la != lb
    la, lb, w = la[mask], lb[mask], g.ew[mask]
    lo = np.minimum(la, lb)
    hi = np.maximum(la, lb)
    key = lo * k + hi
    uniq, inv = np.unique(key, return_inverse=True)
    if mode == TargetMode.BOTTLENECK:
        agg = np.full(len(uniq), np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(agg, inv, w)
    else:
        agg = np.full(len(uniq), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(agg, inv, w)
    qa = (uniq // k).astype(np.int64)
    qb = (uniq % k).astype(np.int64)
    zero = np.zeros(k, dtype=np.int64)
    return WeightedGraph.from_arrays(
        np.full(k, 1, dtype=np.int8),  # switch placeholders; only weights matter here
        zero, zero, zero, zero, zero, qa, qb, agg, g.unit,
    )


def containerize(g: WeightedGraph, targets) -> ContainerHierarchy:
    """Build the full nested hierarchy, lowest target level first."""
    targets = sorted(targets, key=lambda t: t.level)
    if not targets:
        raise InvalidParams("need at least one target")
    levels_seen = [t.level for t in targets]
    if len(set(levels_seen)) != len(levels_seen):
        raise InvalidParams("target levels must be strictly increasing")
    values = [t.value for t in targets]
    if len(set(values)) != len(values):
        raise InvalidParams("repeated target values are not allowed")
    if len({t.mode for t in targets}) > 1:
        raise InvalidParams("targets in one sequence must share a distance mode")

    base_groups = _level_groups(g, targets[0], np.arange(g.n))
    base = [
        Container(level=targets[0].level, index=k + 1, nodes=grp)
        for k, grp in enumerate(base_groups)
    ]
    levels = [base]
    labels = np.empty(g.n, dtype=np.int64)
    for pos, grp in enumerate(base_groups):
        labels[grp] = pos
    level_labels = [labels.copy()]

    current = g          # graph the newest level was built on
    q_labels = labels    # current-graph node -> newest-level container position
    for t in targets[1:]:
        k = len(levels[-1])
        quotient = _quotient(current, q_labels, k, t.mode)
        super_groups = _level_groups(quotient, t, np.arange(k))
        new_q = np.empty(k, dtype=np.int64)
        for pos, grp in enumerate(super_groups):
            new_q[grp] = pos
        labels = new_q[labels]
        # original-node membership per super container, computed in one pass
        by_node = np.argsort(labels, kind="stable")
        counts = np.bincount(labels, minlength=len(super_groups))
        member_splits = np.split(by_node, np.cumsum(counts)[:-1])
        levels.append([
            Container(level=t.level, index=pos + 1, nodes=nodes)
            for pos, nodes in enumerate(member_splits)
        ])
        level_labels.append(labels.copy())
        current = quotient
        q_labels = new_q
    return ContainerHierarchy(
        levels=levels, targets=list(targets), source_graph=g, level_labels=level_labels
    )


def validate_hierarchy(h: ContainerHierarchy) -> ValidationReport:
    """Checks disjointness and coverage per level plus nesting between levels.

    Works on the concatenated `nodes` arrays of each level: a node that
    already sits in an earlier container of its level is an overlap, a node
    in none is uncovered, and a child is nested when all its nodes sit in
    one container of the level above (where that level overlaps, a node
    counts as sitting in the earliest container holding it). Ids outside the
    graph are reported and then ignored.
    """
    report = ValidationReport()
    n = h.source_graph.n
    below = None  # the level below: (its containers, concatenated nodes, owners)
    for li, containers in enumerate(h.levels):
        level_no = containers[0].level if containers else li + 1
        sizes = [len(c.nodes) for c in containers]
        cat = np.concatenate([c.nodes for c in containers] + [np.empty(0, np.int64)])
        owner = np.repeat(np.arange(len(containers)), sizes)
        outside = (cat < 0) | (cat >= n)
        for c, ids in _by_container(containers, owner, cat, outside):
            report.violations.append(
                f"level {c.level}: container {c.index} has nodes "
                f"{ids[:5].tolist()} outside the graph"
            )
        cat, owner = cat[~outside], owner[~outside]
        first = np.full(n, len(cat))
        np.minimum.at(first, cat, np.arange(len(cat)))
        repeated = first[cat] != np.arange(len(cat))
        for c, ids in _by_container(containers, owner, cat, repeated):
            report.violations.append(
                f"level {c.level}: container {c.index} overlaps siblings "
                f"on {np.unique(ids)[:5].tolist()}"
            )
        missing = np.flatnonzero(first == len(cat))
        if len(missing):
            report.violations.append(
                f"level {level_no}: nodes {missing[:5].tolist()} uncovered"
            )
        if below is not None:
            # each node's container position at this level, -1 if uncovered
            label = np.full(n, -1)
            label[cat[~repeated]] = owner[~repeated]
            children, child_cat, child_owner = below
            up = label[child_cat]
            k = len(children)
            lo = np.full(k, len(containers))
            hi = np.full(k, -1)
            np.minimum.at(lo, child_owner, up)
            np.maximum.at(hi, child_owner, up)
            for pos in np.flatnonzero((lo != hi) | (lo < 0)).tolist():
                child = children[pos]
                report.violations.append(
                    f"level {child.level} container {child.index} is not nested "
                    f"in exactly one parent"
                )
        below = (containers, cat, owner)
    return report


def _by_container(containers, owner, cat, flagged):
    """(container, its flagged ids) for each container with a flagged id;
    `owner` is ascending, as the level's `nodes` are concatenated in order."""
    hit = np.unique(owner[flagged], return_index=True)
    for pos, ids in zip(hit[0].tolist(), np.split(cat[flagged], hit[1][1:])):
        yield containers[pos], ids


# -- hierarchy dump format -----------------------------------------------------


def hierarchy_to_text(h: ContainerHierarchy) -> str:
    lines = []
    for containers in h.levels:
        for c in sorted(containers, key=lambda c: c.index):
            ids = ",".join(map(str, c.nodes.tolist()))
            lines.append(f"container {c.level} {c.index} {ids}")
    return "\n".join(lines) + "\n"


def hierarchy_from_text(text: str, graph: WeightedGraph = None) -> ContainerHierarchy:
    """Rebuild a hierarchy from its dump. The dump carries no level labels,
    so `labels()` of the result raises InvalidParams. A malformed line
    raises InvalidParams naming the line number."""
    by_level = {}
    for lineno, ln in enumerate(text.splitlines(), start=1):
        parts = ln.split()
        if not parts:
            continue
        where = f"hierarchy text, line {lineno}"
        if parts[0] != "container":
            raise InvalidParams(f"{where}: unknown line {parts[0]!r}")
        try:
            level, index = int(parts[1]), int(parts[2])
            nodes = frozenset(int(x) for x in parts[3].split(","))
        except IndexError:
            raise InvalidParams(f"{where}: too few fields in container line") from None
        except ValueError as exc:
            raise InvalidParams(f"{where}: {exc}") from None
        by_level.setdefault(level, []).append((index, nodes))
    levels = [
        [Container(level=level, index=index, nodes=nodes)
         for index, nodes in sorted(by_level[level], key=lambda row: row[0])]
        for level in sorted(by_level)
    ]
    return ContainerHierarchy(levels=levels, targets=[], source_graph=graph)
