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


@dataclass(frozen=True, eq=False)
class Container:
    """One container of a hierarchy level.

    `nodes` holds the member node ids in ascending order as a read-only int64
    array. `containerize` stores no containers: its hierarchy derives a
    level's containers from the level's labels the first time `levels` is
    read, each `nodes` a slice of the level's read-only sorted node array.
    The array is taken as given, through a read-only view when it is
    writeable. Containers compare by identity: two containers with equal
    fields are still two containers.
    """

    level: int
    index: int
    nodes: np.ndarray

    def __post_init__(self):
        if self.nodes.flags.writeable:
            nodes = self.nodes.view()
            nodes.flags.writeable = False
            object.__setattr__(self, "nodes", nodes)


class ContainerHierarchy:
    """The levels of containers over the graph they partition, lowest target
    first.

    `containerize` stores one label map per level and derives the rest. The
    first level's map holds each graph node's container position, and each
    higher level's map holds the position of each container of the level
    below; the map's container count and target level come with it.
    `labels()` composes the maps. `levels`, the `Container` lists, is built
    from them on its first read and then kept. A hierarchy constructed from
    explicit container lists (a dump read back, or one made by hand, valid
    or not) stores those lists, and its labels derive from them.
    """

    def __init__(self, levels: list, source_graph: WeightedGraph):
        self._levels = levels
        self.source_graph = source_graph
        self._maps = None  # [(target level, label map, container count)] per level

    @classmethod
    def _from_maps(cls, maps: list, source_graph: WeightedGraph) -> "ContainerHierarchy":
        h = cls(None, source_graph)
        h._maps = maps
        return h

    @property
    def levels(self) -> list:
        """levels[i]: the containers of the i-th lowest level, by position."""
        if self._levels is None:
            self._levels = [
                _containers(level, labels, k)
                for (level, _, k), labels in zip(self._maps, self.labels(), strict=True)
            ]
        return self._levels

    def labels(self) -> list:
        """Per level, each node's container position (int64, one entry per
        graph node); a node that no container covers gets -1. A built
        hierarchy's first entry is its stored, read-only map."""
        if self._maps is None:
            n = self.source_graph.n
            return [_positions([c.nodes for c in level], n) for level in self._levels]
        out = []
        for _, q_labels, _ in self._maps:
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
    if t.mode == TargetMode.BOTTLENECK:
        mask = g.ew >= t.value
    else:
        mask = g.ew < t.value
    # int32 ids, where they fit, halve the memory each round touches
    ids = np.int32 if g.n <= np.iinfo(np.int32).max else np.int64
    ea, eb = g.ea[mask].astype(ids), g.eb[mask].astype(ids)
    # Every node points at a smaller or equal id of its component; a root
    # points at itself. Each round hooks the larger root of every kept edge
    # whose ends still differ onto the smaller, then jumps pointers until
    # every node points at a root. At the end a component's root is its
    # lowest id.
    f = np.arange(g.n, dtype=ids)
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
    is_root = f == np.arange(g.n, dtype=ids)
    return (np.cumsum(is_root) - 1)[f]


def _positions(groups, n: int) -> np.ndarray:
    """Each id in 0..n-1's position among the id arrays `groups`, else -1."""
    out = np.full(n, -1, dtype=np.int64)
    for pos, grp in enumerate(groups):
        out[grp] = pos
    return out


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


def _containers(level: int, labels: np.ndarray, k: int) -> list:
    """The containers of one level, from each node's container position."""
    return [
        Container(level=level, index=pos + 1, nodes=nodes)
        for pos, nodes in enumerate(_group_members(labels, k))
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
    for t in targets[1:]:
        current = _quotient(current, q_labels, k, t.mode)
        q_labels, k = _level_labels(current, t)
        maps.append((t.level, q_labels, k))
    for _, q_labels, _ in maps:
        q_labels.flags.writeable = False
    return ContainerHierarchy._from_maps(maps, g)


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


def hierarchy_from_text(text: str, graph: WeightedGraph) -> ContainerHierarchy:
    """Rebuild a hierarchy from its dump over the graph it partitions. A
    malformed line, one with a level or index below 1, one repeating a
    container of its level, or one naming a node outside the graph raises
    InvalidParams naming the line number."""
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
        rows = by_level.setdefault(level, {})
        if index in rows:
            raise InvalidParams(f"{where}: level {level} repeats container {index}")
        rows[index] = np.unique(np.array(ids, dtype=np.int64))
    levels = [
        [Container(level=level, index=index, nodes=nodes)
         for index, nodes in sorted(by_level[level].items())]
        for level in sorted(by_level)
    ]
    return ContainerHierarchy(levels=levels, source_graph=graph)
