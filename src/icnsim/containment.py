"""Multi-level container hierarchies over weighted graphs.

A container groups nodes whose mutual distance satisfies a target: for
additive targets (latency, hops) every edge under the target is contracted to
zero cost and nodes are grouped while their accumulated contracted distance
stays under the target; for bottleneck targets (bandwidth) edges under the
target are removed and nodes are grouped along the surviving links; exact_hit
targets close the additive bound, which then also admits one edge weighing
exactly the target. Levels nest: each level above the first is built on the
quotient graph of the level below, which guarantees that a container is the
exact union of the containers below it that it covers.
"""

from __future__ import annotations

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


class ContainerHierarchy:
    """The levels of containers over the graph they partition, lowest target
    first, held as one label map per level.

    `maps` holds (target level, label map, container count) per level. The
    first level's map holds each graph node's container position, and each
    higher level's map the position of each container of the level below;
    a container's index is its position + 1. `labels()` composes the maps,
    and `levels` materializes each level's containers from them on its first
    read and keeps them. `containerize` and the dump reader build only
    nested partitions; maps assembled by hand may hold anything, and
    `validate_hierarchy` reports what is wrong with them.
    """

    def __init__(self, maps: list, source_graph: WeightedGraph):
        self.maps = maps
        self.source_graph = source_graph
        self._levels = None

    @property
    def levels(self) -> list:
        """levels[i][j]: the ascending, read-only int64 node ids of container
        j + 1 of the i-th lowest level, each level's arrays slices of one
        sorted array."""
        if self._levels is None:
            self._levels = [
                _group_members(labels, k)
                for (_, _, k), labels in zip(self.maps, self.labels(), strict=True)
            ]
        return self._levels

    def labels(self) -> list:
        """Per level, each graph node's container position (int64, one entry
        per node); the first entry is the stored level-1 map."""
        out = []
        for _, q_labels, _ in self.maps:
            out.append(q_labels[out[-1]] if out else q_labels)
        return out


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_graph(g: WeightedGraph, t: Target) -> None:
    """Reject an empty graph, or one whose unit `t`'s mode cannot read."""
    if g.n == 0:
        raise InvalidParams("cannot containerize an empty graph")
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
    # int32 ids, where they fit, halve the memory each round touches
    ids = np.int32 if g.n <= np.iinfo(np.int32).max else np.int64
    f = np.arange(g.n, dtype=ids)  # each node's root so far; a root points at itself
    kept = _contracted(g, t)
    while _hook(f, g.ea, g.eb, kept):
        pass
    labels = np.cumsum(f == np.arange(g.n, dtype=ids), dtype=ids)  # roots numbered from 1
    labels -= 1
    labels = labels[f]
    del f, kept  # freed before the one int64 copy
    return labels.astype(np.int64)


def _contracted(g: WeightedGraph, t: Target) -> np.ndarray:
    """The edges `t` contracts, each inside one container of t's level."""
    return g.ew >= t.value if t.mode == TargetMode.BOTTLENECK else g.ew < t.value


def _hook(f: np.ndarray, ea, eb, kept) -> bool:
    """One round, in place, over the pointers `f` to smaller or equal ids of
    each node's component: hook the larger root of every kept edge whose
    ends' roots differ onto the smaller, then jump pointers until each node
    points at a root (at the end, the lowest id). False if no edge is left."""
    fa, fb = f[ea], f[eb]
    split = fa != fb
    split &= kept
    if not split.any():
        return False
    fa = fa[split]  # one at a time, so no two full-size copies meet
    fb = fb[split]
    lo = np.minimum(fa, fb)
    np.minimum.at(f, np.maximum(fa, fb, out=fa), lo)
    del fa, fb, lo, split  # freed before the jumps
    while not np.array_equal(ff := f[f], f):
        f[:] = ff
    return True


def _group_members(labels: np.ndarray, k: int) -> list:
    """The members of each of `k` groups, from a group label per node: one
    ascending read-only int64 id array per label, in label order, each a
    slice of one sorted array."""
    by_node = np.argsort(labels, kind="stable")  # grouped by label, ascending id
    by_node.flags.writeable = False
    bounds = [0]
    bounds.extend(np.cumsum(np.bincount(labels, minlength=k)).tolist())
    return [by_node[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _level_labels(g: WeightedGraph, t: Target) -> tuple:
    """(labels, k) for one level seeded in ascending id order: each node's
    container position and the number of containers. _grouping_labels
    already numbers components by their lowest id, which is that order."""
    labels = _grouping_labels(g, t)
    k = int(labels.max()) + 1
    if t.mode == TargetMode.EXACT_HIT:
        return _absorb_exact_hits(g, t, labels, k)
    return labels, k


def _absorb_exact_hits(g: WeightedGraph, t: Target, labels: np.ndarray, k: int) -> tuple:
    """(labels, k) under the closed bound, from the `k` additive components
    `labels` of `g`.

    Every uncontracted edge weighs at least the target, so a path within the
    bound crosses at most one of them, and that one weighs exactly the
    target. A container is thus one seed component plus the still-unassigned
    components one exact-weight edge away from it. Seeds go by ascending
    component, as the additive labels number components by lowest id.
    """
    hit = g.ew == t.value
    la, lb = labels[g.ea[hit]], labels[g.eb[hit]]
    cross = la != lb
    # one key per component pair, ascending by (low, high) component
    pairs = np.unique(np.minimum(la, lb)[cross] * k + np.maximum(la, lb)[cross])
    seed_of = {}  # absorbed component -> the seed whose container takes it
    for a, b in zip((pairs // k).tolist(), (pairs % k).tolist()):
        # every pair naming a lower component came earlier, so whether `a`
        # was absorbed is settled; `b` > `a` has not been a seed yet
        if a not in seed_of and b not in seed_of:
            seed_of[b] = a
    owner = np.arange(k)
    owner[list(seed_of)] = list(seed_of.values())
    is_seed = owner == np.arange(k)
    return (np.cumsum(is_seed) - 1)[owner][labels], k - len(seed_of)


def _quotient(g: WeightedGraph, labels: np.ndarray, k: int, below: Target) -> WeightedGraph:
    """Collapse each container, built for target `below`, to a super-node;
    parallel inter-container edges, which `below` does not contract, keep
    the minimum weight (additive) or the maximum (bottleneck)."""
    outer = ~_contracted(g, below)
    la, lb, w = labels[g.ea[outer]], labels[g.eb[outer]], g.ew[outer]
    mask = la != lb
    la, lb, w = la[mask], lb[mask], w[mask]
    key = np.minimum(la, lb) * k + np.maximum(la, lb)
    uniq, inv = np.unique(key, return_inverse=True)
    if below.mode == TargetMode.BOTTLENECK:
        agg = np.full(len(uniq), np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(agg, inv, w)
    else:
        agg = np.full(len(uniq), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(agg, inv, w)
    # uniq ascends by (lo, hi), which is the canonical edge order
    return WeightedGraph(
        np.full(k, 1, dtype=np.int8),  # switch placeholders; only weights matter here
        uniq // k, uniq % k, agg, g.unit,
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

    _check_graph(g, targets[0])
    # Each level is seeded in ascending id order of the graph it is built on,
    # so its labels are its container positions as they come.
    q_labels, k = _level_labels(g, targets[0])  # current-graph node -> position
    maps = [(targets[0].level, q_labels, k)]
    current = g          # graph the newest level was built on
    for below, t in zip(targets, targets[1:]):
        current = _quotient(current, q_labels, k, below)
        q_labels, k = _level_labels(current, t)
        maps.append((t.level, q_labels, k))
    for _, q_labels, _ in maps:
        q_labels.flags.writeable = False
    return ContainerHierarchy(maps, g)


def validate_hierarchy(h: ContainerHierarchy) -> ValidationReport:
    """Checks that every entry of each level's map lies in [0, k), k the
    level's container count, and that no container is empty.

    The maps nest by construction, so nothing else can be wrong but a
    hierarchy with no maps at all. An entry out of range is reported by the
    graph nodes it holds, a negative one as uncovered; those nodes are left
    out at the levels above.
    """
    report = ValidationReport()
    if not h.maps:
        report.violations.append("no levels")
    nodes = np.arange(h.source_graph.n)  # graph nodes placed at every level so far
    below = nodes                        # each one's position at the level below
    for level, q_labels, k in h.maps:
        up = q_labels[below]
        for bad, what in ((up < 0, "uncovered"), (up >= k, f"placed past its {k} containers")):
            if bad.any():
                report.violations.append(f"level {level}: nodes {nodes[bad][:5].tolist()} {what}")
        in_range = (q_labels >= 0) & (q_labels < k)
        empty = np.flatnonzero(np.bincount(q_labels[in_range], minlength=k) == 0)
        if len(empty):
            report.violations.append(f"level {level}: containers {(empty[:5] + 1).tolist()} empty")
        placed = (up >= 0) & (up < k)
        nodes, below = nodes[placed], up[placed]
    return report


# -- hierarchy dump format -----------------------------------------------------


def hierarchy_to_text(h: ContainerHierarchy) -> str:
    lines = []
    for (level, _, _), containers in zip(h.maps, h.levels, strict=True):
        for index, nodes in enumerate(containers, start=1):
            lines.append(f"container {level} {index} {','.join(map(str, nodes.tolist()))}")
    return "\n".join(lines) + "\n"


def hierarchy_from_text(text: str, graph: WeightedGraph) -> ContainerHierarchy:
    """Rebuild a hierarchy from its dump over the graph it partitions. A line
    that is malformed, has a level or index below 1 or an index past the
    node count, repeats a container of its level, or names a node outside
    the graph or one that an earlier line of its level holds raises
    InvalidParams naming the line; a level whose indexes are not 1..k, that
    leaves a node in no container, or that splits a container of the level
    below raises it naming the level, and a dump with no container line
    raises it too."""
    by_level = {}  # level -> (each node's container position or -1, indexes seen)
    for lineno, ln in enumerate(text.splitlines(), start=1):
        parts = ln.split()
        if not parts:
            continue
        where = f"hierarchy text, line {lineno}"
        if parts[0] != "container":
            raise InvalidParams(f"{where}: unknown line {parts[0]!r}")
        try:
            level, index = int(parts[1]), int(parts[2])
            ids = [int(x) for x in parts[3].split(",")]
        except IndexError:
            raise InvalidParams(f"{where}: too few fields in container line") from None
        except ValueError as exc:
            raise InvalidParams(f"{where}: {exc}") from None
        if len(parts) > 4:
            raise InvalidParams(f"{where}: too many fields in container line")
        if level < 1 or index < 1:
            raise InvalidParams(f"{where}: container level and index must be >= 1")
        if min(ids) < 0 or max(ids) >= graph.n:
            raise InvalidParams(f"{where}: node ids outside the {graph.n}-node graph")
        if index > graph.n:
            raise InvalidParams(f"{where}: container index past the {graph.n}-node graph's")
        labels, indexes = by_level.setdefault(level, (np.full(graph.n, -1, dtype=np.int64), set()))
        if index in indexes:
            raise InvalidParams(f"{where}: level {level} repeats container {index}")
        indexes.add(index)
        nodes = np.array(ids, dtype=np.int64)
        held = nodes[labels[nodes] >= 0]
        if len(held):
            raise InvalidParams(
                f"{where}: node {held[0]} is already in level {level} container {labels[held[0]] + 1}"
            )
        labels[nodes] = index - 1
    if not by_level:
        raise InvalidParams("hierarchy text: no container line")
    maps, below = [], None  # below: the level below's (level, node labels, container count)
    for level in sorted(by_level):
        labels, indexes = by_level[level]
        where = f"hierarchy text, level {level}"
        k = len(indexes)
        if max(indexes) != k:
            raise InvalidParams(f"{where}: container indexes are not 1..{k}")
        missing = np.flatnonzero(labels < 0)
        if len(missing):
            raise InvalidParams(f"{where}: node {missing[0]} is in no container")
        q_labels = labels
        if below is not None:
            low_level, low_labels, low_k = below
            q_labels = np.empty(low_k, dtype=np.int64)
            q_labels[low_labels] = labels
            split = np.flatnonzero(q_labels[low_labels] != labels)
            if len(split):
                raise InvalidParams(
                    f"{where}: level {low_level} container "
                    f"{low_labels[split[0]] + 1} is split across its containers"
                )
        q_labels.flags.writeable = False
        maps.append((level, q_labels, k))
        below = (level, labels, k)
    return ContainerHierarchy(maps, graph)
