import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icnsim.containment import (
    Container,
    ContainerHierarchy,
    Target,
    TargetMode,
    _grouping_labels,
    containerize,
    containerize_level,
    hierarchy_from_text,
    hierarchy_to_text,
    validate_hierarchy,
)
from icnsim.errors import InvalidParams, UnitMismatch
from icnsim.evaluation import ScenarioParams
from icnsim.topology import Edge, Node, NodeKind, build_graph, generate_topology

from oracles import oracle_hierarchy, oracle_level_groups


def make(n, edges, unit="latency_us"):
    nodes = [Node(i, NodeKind.SWITCH) for i in range(n)]
    return build_graph(nodes, [Edge(*e) for e in edges], unit)


def members(containers):
    return [c.nodes.tolist() for c in containers]


def random_graph(rng, n, max_extra=4):
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, int(rng.integers(1, 30))))
    seen = {(min(a, b), max(a, b)) for a, b, _ in edges}
    for _ in range(int(rng.integers(0, max_extra + 1))):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        key = (min(a, b), max(a, b))
        if a != b and key not in seen:
            seen.add(key)
            edges.append((a, b, int(rng.integers(1, 30))))
    return edges


class TestContainerizeLevel:
    def test_single_isolated_node(self):
        g = make(1, [])
        out = containerize_level(g, Target(1, 5))
        assert members(out) == [[0]]

    def test_edge_not_under_target_stays_split(self):
        # brute-force oracle agrees: weight 10 is not contracted for T=5
        g = make(2, [(0, 1, 10)])
        out = containerize_level(g, Target(1, 5))
        assert members(out) == [[0], [1]]
        assert members(out) == oracle_level_groups(2, [(0, 1, 10)], 5, "additive")

    def test_contracted_chain_merges(self):
        edges = [(0, 1, 2), (1, 2, 2)]
        g = make(3, edges)
        out = containerize_level(g, Target(1, 5))
        assert members(out) == [[0, 1, 2]]
        assert members(out) == oracle_level_groups(3, edges, 5, "additive")

    def test_bottleneck_keeps_wide_links(self):
        edges = [(0, 1, 10), (1, 2, 3)]
        g = make(3, edges, "bandwidth_bps")
        out = containerize_level(g, Target(1, 5, TargetMode.BOTTLENECK))
        assert members(out) == [[0, 1], [2]]
        assert members(out) == oracle_level_groups(3, edges, 5, "bottleneck")

    def test_exact_hit_closes_the_bound(self):
        edges = [(0, 1, 5), (1, 2, 9)]
        g = make(3, edges)
        closed = containerize_level(g, Target(1, 5, TargetMode.EXACT_HIT))
        open_ = containerize_level(g, Target(1, 5))
        assert members(closed) == oracle_level_groups(3, edges, 5, "exact_hit")
        assert members(closed) == [[0, 1], [2]]
        assert members(open_) == [[0], [1], [2]]

    def test_unit_mismatch(self):
        g = make(2, [(0, 1, 3)], "bandwidth_bps")
        with pytest.raises(UnitMismatch):
            containerize_level(g, Target(1, 5))
        g2 = make(2, [(0, 1, 3)])
        with pytest.raises(UnitMismatch):
            containerize_level(g2, Target(1, 5, TargetMode.BOTTLENECK))

    def test_seed_order_changes_indexing_only(self):
        edges = [(0, 1, 1), (2, 3, 1)]
        g = make(4, edges)
        fwd = containerize_level(g, Target(1, 5))
        rev = containerize_level(g, Target(1, 5), seed_order=[3, 2, 1, 0])
        assert members(fwd) == [[0, 1], [2, 3]]
        assert members(rev) == [[2, 3], [0, 1]]

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(100)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            edges = random_graph(rng, n)
            target = int(rng.integers(2, 35))
            mode = ("additive", "bottleneck", "exact_hit")[int(rng.integers(0, 3))]
            unit = "bandwidth_bps" if mode == "bottleneck" else "latency_us"
            g = make(n, edges, unit)
            out = containerize_level(g, Target(1, target, TargetMode(mode)))
            assert members(out) == oracle_level_groups(n, edges, target, mode)


class TestContainerize:
    def test_single_target_equals_single_level(self):
        g = make(3, [(0, 1, 2), (1, 2, 9)])
        h = containerize(g, [Target(1, 5)])
        assert members(h.levels[0]) == members(containerize_level(g, Target(1, 5)))

    def test_four_node_chain_two_levels(self):
        # brute-force oracle on the 4-node instance
        g = make(4, [(0, 1, 1), (1, 2, 10), (2, 3, 1)])
        h = containerize(g, [Target(1, 5), Target(2, 50)])
        assert members(h.levels[0]) == [[0, 1], [2, 3]]
        assert members(h.levels[1]) == [[0, 1, 2, 3]]

    def test_every_low_container_has_exactly_one_parent(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(2, 10))
            g = make(n, random_graph(rng, n))
            h = containerize(g, [Target(1, 4), Target(2, 12), Target(3, 40)])
            for low, high in zip(h.levels, h.levels[1:]):
                for child in low:
                    owners = [c for c in high if np.isin(child.nodes, c.nodes).all()]
                    assert len(owners) == 1

    def test_matches_multilevel_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            edges = random_graph(rng, n)
            g = make(n, edges)
            targets = sorted(set(int(t) for t in rng.integers(2, 40, size=3)))
            if len(targets) < 3:
                continue
            h = containerize(g, [Target(i + 1, t) for i, t in enumerate(targets)])
            expected = oracle_hierarchy(n, edges, targets, "additive")
            assert [members(level) for level in h.levels] == expected

    def test_determinism(self):
        g = make(6, [(0, 1, 3), (1, 2, 8), (3, 4, 2), (4, 5, 30), (2, 3, 14)])
        t = [Target(1, 5), Target(2, 20)]
        a, b = containerize(g, t), containerize(g, t)
        assert hierarchy_to_text(a) == hierarchy_to_text(b)

    def test_rejects_bad_sequences(self):
        g = make(2, [(0, 1, 3)])
        with pytest.raises(InvalidParams):
            containerize(g, [])
        with pytest.raises(InvalidParams):
            containerize(g, [Target(1, 5), Target(1, 9)])
        with pytest.raises(InvalidParams):
            containerize(g, [Target(1, 5), Target(2, 5)])
        with pytest.raises(InvalidParams):
            containerize(
                g, [Target(1, 5), Target(2, 9, TargetMode.EXACT_HIT)]
            )

    def test_target_validation(self):
        with pytest.raises(InvalidParams):
            Target(0, 5)
        with pytest.raises(InvalidParams):
            Target(1, 0)

    def test_container_count_non_increasing_in_target(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            g = make(n, random_graph(rng, n))
            counts = [
                len(containerize_level(g, Target(1, t))) for t in (2, 5, 12, 25, 60)
            ]
            assert counts == sorted(counts, reverse=True)


class TestContainer:
    def test_nodes_ascending_from_any_iterable(self):
        c = Container(1, 1, frozenset({2, 0}))
        assert c.nodes.dtype == np.int64
        assert c.nodes.tolist() == [0, 2]
        assert Container(1, 1, [5, 3, 5]).nodes.tolist() == [3, 5]
        assert Container(1, 1, frozenset()).nodes.tolist() == []

    def test_nodes_are_read_only(self):
        c = Container(1, 1, np.array([0, 2], dtype=np.int64))
        with pytest.raises(ValueError):
            c.nodes[0] = 1

    def test_equality_is_identity(self):
        a = Container(1, 1, frozenset({0, 1}))
        b = Container(1, 1, frozenset({0, 1}))
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_containerize_slices_one_array_per_level(self):
        g = make(6, [(0, 1, 1), (1, 2, 10), (2, 3, 1), (3, 4, 30), (4, 5, 1)])
        h = containerize(g, [Target(1, 5), Target(2, 20)])
        for level in h.levels:
            nodes = [c.nodes for c in level]
            assert all(np.all(np.diff(ids) > 0) for ids in nodes)
            assert np.array_equal(np.sort(np.concatenate(nodes)), np.arange(6))
            # zero-copy slices of the level's sorted node array
            assert len({id(ids.base) for ids in nodes}) == 1


class TestValidateHierarchy:
    def test_constructed_hierarchies_are_valid(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            g = make(n, random_graph(rng, n))
            h = containerize(g, [Target(1, 4), Target(2, 18)])
            assert validate_hierarchy(h).ok

    def test_overlap_violation(self):
        g = make(3, [(0, 1, 1)])
        h = ContainerHierarchy(
            levels=[[
                Container(1, 1, frozenset({0, 1})),
                Container(1, 2, frozenset({1, 2})),
            ]],
            targets=[], source_graph=g,
        )
        report = validate_hierarchy(h)
        assert not report.ok
        assert sum("overlaps" in v for v in report.violations) == 1

    def test_coverage_violation(self):
        g = make(3, [(0, 1, 1)])
        h = ContainerHierarchy(
            levels=[[Container(1, 1, frozenset({0, 1}))]],
            targets=[], source_graph=g,
        )
        report = validate_hierarchy(h)
        assert not report.ok
        assert sum("uncovered" in v for v in report.violations) == 1

    def test_nesting_violation(self):
        g = make(2, [(0, 1, 1)])
        h = ContainerHierarchy(
            levels=[
                [Container(1, 1, frozenset({0, 1}))],
                [Container(2, 1, frozenset({0}))],
            ],
            targets=[], source_graph=g,
        )
        assert any("nested" in v for v in validate_hierarchy(h).violations)

    def test_nodes_outside_the_graph(self):
        g = make(2, [(0, 1, 1)])
        h = ContainerHierarchy(
            levels=[[Container(1, 1, frozenset({0, 1, 7}))]],
            targets=[], source_graph=g,
        )
        report = validate_hierarchy(h)
        assert report.violations == ["level 1: container 1 has nodes [7] outside the graph"]

    def test_generated_mmtc_hierarchy_of_53k_nodes(self):
        """A generated mMTC hierarchy of about 53k nodes validates, and each
        kind of damage to it is reported."""
        params = ScenarioParams(scenario="mmtc", density_k_per_km2=50.0)
        g = generate_topology(params, 2)
        assert g.n >= 50_000
        h = containerize(g, [Target(1, 1_000), Target(2, 150_000), Target(3, 500_000)])
        assert validate_hierarchy(h).ok

        def damaged(level, pos, nodes=None):
            """Violations with a container replaced by one holding `nodes`,
            or removed when `nodes` is None."""
            levels = [list(row) for row in h.levels]
            old = levels[level].pop(pos)
            if nodes is not None:
                levels[level].insert(pos, Container(old.level, old.index, nodes))
            report = validate_hierarchy(
                ContainerHierarchy(levels=levels, targets=h.targets, source_graph=g)
            )
            return report.violations

        low = h.levels[0]
        pos = next(i for i, c in enumerate(low) if len(c.nodes) > 1)
        nodes, index = low[pos].nodes, low[pos].index
        # a node dropped from its container is uncovered
        assert damaged(0, pos, nodes[1:]) == [f"level 1: nodes [{nodes[0]}] uncovered"]
        # a node of the same parent copied in overlaps its own container
        parent = h.labels()[1]
        near = next(c for c in low[pos + 1:] if parent[c.nodes[0]] == parent[nodes[0]])
        stray = int(near.nodes[0])
        assert damaged(0, pos, np.union1d(nodes, [stray])) == [
            f"level 1: container {near.index} overlaps siblings on [{stray}]"
        ]
        # a node from under another parent also breaks the nesting
        far = next(c for c in low[pos + 1:] if parent[c.nodes[0]] != parent[nodes[0]])
        moved = int(far.nodes[0])
        got = damaged(0, pos, np.union1d(nodes, [moved]))
        assert got[0] == f"level 1: container {far.index} overlaps siblings on [{moved}]"
        assert got[1:] == [f"level 1 container {index} is not nested in exactly one parent"]
        # a parent removed leaves its nodes uncovered and its children unnested
        gone = h.levels[1][0]
        kids = [c.index for c in low if parent[c.nodes[0]] == 0]
        assert damaged(1, 0) == [f"level 2: nodes {gone.nodes[:5].tolist()} uncovered"] + [
            f"level 1 container {i} is not nested in exactly one parent" for i in kids
        ]


@st.composite
def grouping_cases(draw):
    """A random simple graph over shuffled ids with isolated nodes, or a
    path, plus a target that keeps some of its edges."""
    n = draw(st.integers(1, 40))
    label = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        pairs = [(label[v - 1], label[v]) for v in range(1, n)]
    else:
        span = draw(st.integers(1, n))  # nodes from span on have no edges
        pairs = draw(st.lists(
            st.tuples(st.integers(0, span - 1), st.integers(0, span - 1)), max_size=50,
        ))
        pairs = [(label[a], label[b]) for a, b in pairs]
    edges, seen = [], set()
    for a, b in pairs:
        if a != b and frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            edges.append((a, b, draw(st.integers(1, 30))))
    mode = draw(st.sampled_from([TargetMode.ADDITIVE, TargetMode.BOTTLENECK]))
    return n, edges, Target(1, draw(st.integers(1, 31)), mode)


def scipy_components(n, edges):
    """Component labels by scipy's connected_components (a test-only oracle)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    rows = [a for a, _, _ in edges]
    cols = [b for _, b, _ in edges]
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return connected_components(adj, directed=False)[1]


def assert_same_partition(labels, want):
    assert labels.dtype == np.int64
    # dense labels, as _level_groups sizes its tables by labels.max() + 1
    assert sorted(set(labels.tolist())) == list(range(len(set(labels.tolist()))))
    pairs = set(zip(labels.tolist(), want.tolist()))
    assert len(pairs) == len(set(labels.tolist())) == len(set(want.tolist()))


@settings(max_examples=150, deadline=None)
@given(grouping_cases())
def test_grouping_labels_partition_matches_scipy(case):
    n, edges, t = case
    unit = "bandwidth_bps" if t.mode == TargetMode.BOTTLENECK else "latency_us"
    g = make(n, edges, unit)
    if t.mode == TargetMode.BOTTLENECK:
        kept = [e for e in edges if e[2] >= t.value]
    else:
        kept = [e for e in edges if e[2] < t.value]
    assert_same_partition(_grouping_labels(g, t), scipy_components(n, kept))


def test_grouping_labels_on_long_shuffled_paths_and_forests():
    rng = np.random.default_rng(9)
    n = 20_000
    label = rng.permutation(n)
    path = [(int(label[v - 1]), int(label[v]), 1) for v in range(1, n)]
    tree = [
        (int(label[int(rng.integers(0, v))]), int(label[v]), int(rng.integers(1, 30)))
        for v in range(1, n)
    ]
    for edges in (path, tree):  # below a target, the tree's kept edges form a forest
        g = make(n, edges)
        for value in (2, 15, 31):
            kept = [e for e in edges if e[2] < value]
            assert_same_partition(
                _grouping_labels(g, Target(1, value)), scipy_components(n, kept)
            )


class TestHierarchyDump:
    def test_round_trip(self):
        g = make(5, [(0, 1, 2), (1, 2, 9), (3, 4, 1), (2, 3, 30)])
        h = containerize(g, [Target(1, 5), Target(2, 50)])
        text = hierarchy_to_text(h)
        again = hierarchy_from_text(text, g)
        assert hierarchy_to_text(again) == text
        assert [members(level) for level in again.levels] == [
            members(level) for level in h.levels
        ]

    @pytest.mark.parametrize(
        "line", ["container 1", "container x 1 0", "container 1 1 0,a"]
    )
    def test_malformed_line_raises_invalid_params_with_its_line(self, line):
        text = "container 1 0 0,1\n\n" + line + "\n"
        with pytest.raises(InvalidParams, match="line 3"):
            hierarchy_from_text(text)
