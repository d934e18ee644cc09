import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icnsim.containment import (
    ContainerHierarchy,
    Target,
    TargetMode,
    _grouping_labels,
    containerize,
    hierarchy_from_text,
    hierarchy_to_text,
    validate_hierarchy,
)
from icnsim.errors import InvalidParams, UnitMismatch
from icnsim.evaluation import ScenarioParams, point_targets
from icnsim.topology import Edge, Node, NodeKind, build_graph, generate_topology

from oracles import oracle_hierarchy, oracle_level_groups


def make(n, edges, unit="latency_us"):
    nodes = [Node(i, NodeKind.SWITCH) for i in range(n)]
    return build_graph(nodes, [Edge(*e) for e in edges], unit)


def members(containers):
    return [c.tolist() for c in containers]


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
        out = containerize(g, [Target(1, 5)]).levels[0]
        assert members(out) == [[0]]

    def test_edge_not_under_target_stays_split(self):
        # brute-force oracle agrees: weight 10 is not contracted for T=5
        g = make(2, [(0, 1, 10)])
        out = containerize(g, [Target(1, 5)]).levels[0]
        assert members(out) == [[0], [1]]
        assert members(out) == oracle_level_groups(2, [(0, 1, 10)], 5, "additive")

    def test_contracted_chain_merges(self):
        edges = [(0, 1, 2), (1, 2, 2)]
        g = make(3, edges)
        out = containerize(g, [Target(1, 5)]).levels[0]
        assert members(out) == [[0, 1, 2]]
        assert members(out) == oracle_level_groups(3, edges, 5, "additive")

    def test_bottleneck_keeps_wide_links(self):
        edges = [(0, 1, 10), (1, 2, 3)]
        g = make(3, edges, "bandwidth_bps")
        out = containerize(g, [Target(1, 5, TargetMode.BOTTLENECK)]).levels[0]
        assert members(out) == [[0, 1], [2]]
        assert members(out) == oracle_level_groups(3, edges, 5, "bottleneck")

    def test_exact_hit_closes_the_bound(self):
        edges = [(0, 1, 5), (1, 2, 9)]
        g = make(3, edges)
        closed = containerize(g, [Target(1, 5, TargetMode.EXACT_HIT)]).levels[0]
        open_ = containerize(g, [Target(1, 5)]).levels[0]
        assert members(closed) == oracle_level_groups(3, edges, 5, "exact_hit")
        assert members(closed) == [[0, 1], [2]]
        assert members(open_) == [[0], [1], [2]]

    def test_unit_mismatch(self):
        g = make(2, [(0, 1, 3)], "bandwidth_bps")
        with pytest.raises(UnitMismatch):
            containerize(g, [Target(1, 5)])
        g2 = make(2, [(0, 1, 3)])
        with pytest.raises(UnitMismatch):
            containerize(g2, [Target(1, 5, TargetMode.BOTTLENECK)])

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(100)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            edges = random_graph(rng, n)
            target = int(rng.integers(2, 35))
            mode = ("additive", "bottleneck", "exact_hit")[int(rng.integers(0, 3))]
            unit = "bandwidth_bps" if mode == "bottleneck" else "latency_us"
            g = make(n, edges, unit)
            out = containerize(g, [Target(1, target, TargetMode(mode))]).levels[0]
            assert members(out) == oracle_level_groups(n, edges, target, mode)


class TestContainerize:
    @pytest.mark.parametrize("mode", list(TargetMode))
    def test_equals_the_oracle_hierarchy(self, mode):
        rng = np.random.default_rng(21)
        unit = "bandwidth_bps" if mode == TargetMode.BOTTLENECK else "latency_us"
        for _ in range(25):
            n = int(rng.integers(1, 40))
            edges = random_graph(rng, n, max_extra=int(rng.integers(0, 12)))
            edges = [e for e in edges if rng.random() > 0.15]  # a forest at times
            g = make(n, edges, unit)
            values = sorted(rng.choice(np.arange(2, 60), size=3, replace=False).tolist())
            if mode == TargetMode.BOTTLENECK:
                values.reverse()  # wider links group first
            targets = [Target(i + 1, v, mode) for i, v in enumerate(values)]
            h = containerize(g, targets)
            expected = oracle_hierarchy(n, edges, values, mode.value)
            assert [members(level) for level in h.levels] == expected
            assert [(level, k) for level, _, k in h.maps] == [
                (t.level, len(level)) for t, level in zip(targets, h.levels, strict=True)
            ]
            for level in h.levels:
                assert not any(c.flags.writeable for c in level)

    def test_single_target_equals_single_level(self):
        edges = [(0, 1, 2), (1, 2, 9)]
        h = containerize(make(3, edges), [Target(1, 5)])
        assert members(h.levels[0]) == oracle_level_groups(3, edges, 5, "additive")

    def test_unit_mismatch(self):
        # the first level checks the unit for every level: modes are shared
        g = make(2, [(0, 1, 3)])
        with pytest.raises(UnitMismatch):
            containerize(g, [Target(level, value, TargetMode.BOTTLENECK) for level, value in ((1, 5), (2, 2))])

    def test_labels_give_each_nodes_container_position(self):
        g = make(4, [(0, 1, 1), (1, 2, 10), (2, 3, 1)])
        h = containerize(g, [Target(1, 5), Target(2, 50)])
        assert [lab.tolist() for lab in h.labels()] == [[0, 0, 1, 1], [0, 0, 0, 0]]

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
                    owners = [c for c in high if np.isin(child, c).all()]
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
                len(containerize(g, [Target(1, t)]).levels[0]) for t in (2, 5, 12, 25, 60)
            ]
            assert counts == sorted(counts, reverse=True)


class TestContainer:
    def test_nodes_are_read_only(self):
        h = containerize(make(2, [(0, 1, 1)]), [Target(1, 5)])
        with pytest.raises(ValueError):
            h.levels[0][0][0] = 1

    def test_containerize_slices_one_array_per_level(self):
        g = make(6, [(0, 1, 1), (1, 2, 10), (2, 3, 1), (3, 4, 30), (4, 5, 1)])
        h = containerize(g, [Target(1, 5), Target(2, 20)])
        for nodes in h.levels:
            assert all(ids.dtype == np.int64 and np.all(np.diff(ids) > 0) for ids in nodes)
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

    def test_coverage_violation(self):
        g = make(3, [(0, 1, 1)])
        h = ContainerHierarchy([(1, np.array([0, 0, -1]), 1)], g)
        assert validate_hierarchy(h).violations == ["level 1: nodes [2] uncovered"]

    def test_an_uncovered_container_uncovers_its_nodes(self):
        g = make(4, [(0, 1, 1), (2, 3, 1)])
        h = ContainerHierarchy([(1, np.array([0, 0, 1, 1]), 2), (3, np.array([0, -1]), 1)], g)
        assert validate_hierarchy(h).violations == ["level 3: nodes [2, 3] uncovered"]

    def test_entries_past_the_count_and_empty_containers(self):
        g = make(3, [(0, 1, 1)])
        h = ContainerHierarchy([(1, np.array([0, 3, 0]), 3)], g)
        assert validate_hierarchy(h).violations == [
            "level 1: nodes [1] placed past its 3 containers",
            "level 1: containers [2, 3] empty",
        ]

    def test_a_hierarchy_with_no_levels_is_a_violation(self):
        h = ContainerHierarchy([], make(3, [(0, 1, 1)]))
        assert validate_hierarchy(h).violations == ["no levels"]

    def test_generated_mmtc_hierarchy_of_53k_nodes(self):
        """A generated mMTC hierarchy of about 53k nodes validates and reads
        back from its dump, and the reader rejects each kind of damage to the
        dump, naming its line or level."""
        params = ScenarioParams(scenario="mmtc", density_k_per_km2=50.0)
        g = generate_topology(params, 2)
        assert g.n >= 50_000
        h = containerize(g, [Target(1, 1_000), Target(2, 150_000), Target(3, 500_000)])
        assert validate_hierarchy(h).ok
        text = hierarchy_to_text(h)
        assert hierarchy_to_text(hierarchy_from_text(text, g)) == text

        lines = text.splitlines()
        low, parent = h.levels[0], h.labels()[1]

        def rejected(edits):
            """The reader's message for the dump with the lines at the given
            positions replaced; a removed line is left blank, which keeps
            the line numbers."""
            damaged = [edits.get(i, ln) for i, ln in enumerate(lines)]
            with pytest.raises(InvalidParams) as err:
                hierarchy_from_text("\n".join(damaged) + "\n", g)
            return str(err.value)

        def holding(pos, nodes):
            """The line of level-1 container pos + 1 holding `nodes`."""
            return f"container 1 {pos + 1} {','.join(map(str, nodes))}"

        pos = next(i for i, c in enumerate(low) if len(c) > 1)
        nodes = low[pos]
        # a node dropped from its container is in none
        assert rejected({pos: holding(pos, nodes[1:])}) == (
            f"hierarchy text, level 1: node {nodes[0]} is in no container"
        )
        # a node copied in from the next container: the later line is named
        stray = int(low[pos + 1][0])
        assert rejected({pos: holding(pos, np.union1d(nodes, [stray]))}) == (
            f"hierarchy text, line {pos + 2}: node {stray} is already in level 1 container {pos + 1}"
        )
        # a node moved in from under another parent splits its new container
        far = next(
            i for i in range(pos + 1, len(low))
            if parent[low[i][0]] != parent[nodes[0]] and len(low[i]) > 1
        )
        moved = int(low[far][0])
        edits = {pos: holding(pos, np.union1d(nodes, [moved])), far: holding(far, low[far][1:])}
        assert rejected(edits) == (
            f"hierarchy text, level 2: level 1 container {pos + 1} is split across its containers"
        )
        # a removed parent leaves a gap in its level's indexes
        k = len(h.levels[1])
        assert rejected({len(low): ""}) == (
            f"hierarchy text, level 2: container indexes are not 1..{k - 1}"
        )


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
    # dense labels, as _level_labels counts containers as labels.max() + 1
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
    labels = _grouping_labels(g, t)
    assert_same_partition(labels, scipy_components(n, kept))
    # numbered by lowest id: label k's first node comes before label k + 1's,
    # so the labels are the container positions of an ascending-id seeding
    assert np.all(np.diff(np.unique(labels, return_index=True)[1]) > 0)


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


def test_containerize_scratch_under_12_bytes_per_node():
    # about 100k mMTC devices under the default targets; peak less retained
    # is 10.6 B per node, 14.0 when the level-1 labels were numbered and
    # gathered in int64, and 35.5 when the grouping kernel made int32 copies
    # of the kept edges through int64 masks and the quotient gathered both
    # end labels of every edge
    params = ScenarioParams(scenario="mmtc", density_k_per_km2=100.0)
    g = generate_topology(params, 1)
    tracemalloc.start()
    try:
        h = containerize(g, point_targets(params))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n > 100_000 and len(h.maps) == 3
    assert (peak - retained) / g.n < 12


@st.composite
def exact_hit_cases(draw):
    """A random simple graph whose weights cluster at its targets: each edge
    weighs T - 1, T or T + 1 for one of the one or three targets T, which
    rise or fall level by level, or more than all of them. On average a
    third of the edges or more weigh exactly a target."""
    n = draw(st.integers(1, 14))
    levels = draw(st.sampled_from([1, 3]))
    values = draw(st.lists(st.integers(2, 30), min_size=levels, max_size=levels, unique=True))
    values.sort(reverse=draw(st.booleans()))
    near = sorted({t + d for t in values for d in (-1, 0, 1)})
    weight = st.sampled_from(values) | st.sampled_from(near) | st.integers(max(values) + 1, 60)
    edges, seen = [], set()
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=25)):
        if a != b and frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            edges.append((a, b, draw(weight)))
    return n, edges, values


@settings(max_examples=200, deadline=None)
@given(exact_hit_cases())
def test_exact_hit_matches_the_oracle_at_weights_near_the_targets(case):
    n, edges, values = case
    targets = [Target(i + 1, v, TargetMode.EXACT_HIT) for i, v in enumerate(values)]
    h = containerize(make(n, edges), targets)
    expected = oracle_hierarchy(n, edges, values, "exact_hit")
    assert [members(level) for level in h.levels] == expected


@st.composite
def hierarchy_cases(draw):
    """A random simple graph, one to three targets in one mode, and weights
    that often sit at or next to a target."""
    n = draw(st.integers(1, 20))
    mode = draw(st.sampled_from(list(TargetMode)))
    levels = draw(st.integers(1, 3))
    values = sorted(draw(st.lists(st.integers(2, 40), min_size=levels, max_size=levels, unique=True)))
    if mode == TargetMode.BOTTLENECK:
        values.reverse()  # wider links group first
    near = sorted({t + d for t in values for d in (-1, 0, 1)})
    weight = st.sampled_from(near) | st.integers(1, 60)
    edges, seen = [], set()
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=30)):
        if a != b and frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            edges.append((a, b, draw(weight)))
    return n, edges, mode, values


@settings(max_examples=150, deadline=None)
@given(hierarchy_cases())
def test_containers_derive_from_the_stored_label_maps(case):
    n, edges, mode, values = case
    unit = "bandwidth_bps" if mode == TargetMode.BOTTLENECK else "latency_us"
    targets = [Target(i + 1, v, mode) for i, v in enumerate(values)]
    h = containerize(make(n, edges, unit), targets)
    labels = h.labels()  # composed from the maps, before any container exists
    assert h.levels is h.levels
    assert [members(level) for level in h.levels] == oracle_hierarchy(n, edges, values, mode.value)
    assert [(level, k) for level, _, k in h.maps] == [
        (t.level, len(level)) for t, level in zip(targets, h.levels, strict=True)
    ]
    for level, lab in zip(h.levels, labels, strict=True):
        assert lab.dtype == np.int64 and len(lab) == n
        assert sum(map(len, level)) == n
        assert all(np.all(lab[c] == j) for j, c in enumerate(level))


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

    @pytest.mark.parametrize("line,where", [
        pytest.param(line, where, id=line) for where, lines in (
            ("line 3", (
                "container 1", "container x 1 0", "container 1 1 0,a",
                "container 2 1 0,2", "container 2 1 -1,0",  # ids outside the 2-node graph
                "container 2 1 0,99999999999999999999",
                "container 1 99999999999999999999 0",  # more containers than nodes
                # lines no dump has: a repeated (level, index), a level or
                # index below 1, a field after the ids, a node an earlier
                # line of the level holds
                "container 1 1 1", "container 1 -3 0,1", "container 1 0 0,1",
                "container 0 1 0,1", "container 1 2 0,1 extra", "container 1 2 1",
            )),
            # levels no dump has: an index gap, a node in no container
            ("level 2", ("container 2 2 0,1", "container 2 1 0")),
        ) for line in lines
    ])
    def test_malformed_line_raises_invalid_params_with_its_line(self, line, where):
        text = "container 1 1 0,1\n\n" + line + "\n"
        with pytest.raises(InvalidParams, match=where):
            hierarchy_from_text(text, make(2, [(0, 1, 1)]))

    def test_read_back_labels_equal_the_built_ones(self):
        """A dump read back with its graph is a full hierarchy: its labels
        are those of the hierarchy it was written from, and it dumps to the
        same bytes."""
        rng = np.random.default_rng(12)
        for mode in TargetMode:
            unit = "bandwidth_bps" if mode == TargetMode.BOTTLENECK else "latency_us"
            for _ in range(10):
                n = int(rng.integers(2, 12))
                g = make(n, random_graph(rng, n), unit)
                values = rng.choice(np.arange(2, 40), size=int(rng.integers(1, 4)), replace=False)
                values = sorted(values.tolist(), reverse=mode == TargetMode.BOTTLENECK)
                h = containerize(g, [Target(i + 1, v, mode) for i, v in enumerate(values)])
                text = hierarchy_to_text(h)
                again = hierarchy_from_text(text, g)
                assert again.source_graph is g
                assert hierarchy_to_text(again) == text
                for built, read in zip(h.labels(), again.labels(), strict=True):
                    assert np.array_equal(built, read)

    @pytest.mark.parametrize("text", ["", "\n", "  \n\n\t\n"])
    def test_a_dump_with_no_container_line_is_rejected(self, text):
        with pytest.raises(InvalidParams, match="no container line"):
            hierarchy_from_text(text, make(3, [(0, 1, 1)]))

    def test_uncovered_node_is_rejected(self):
        with pytest.raises(InvalidParams, match="level 1: node 1 is in no container"):
            hierarchy_from_text("container 1 1 0,2\n", make(3, [(0, 1, 1)]))

    def test_unsorted_and_repeated_ids_read_as_their_sorted_set(self):
        g = make(3, [(0, 1, 1)])
        messy = hierarchy_from_text("container 1 1 2,0,2\ncontainer 1 2 1\n", g)
        clean = hierarchy_from_text("container 1 1 0,2\ncontainer 1 2 1\n", g)
        got, want = messy.levels[0][0], clean.levels[0][0]
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.tolist() == want.tolist() == [0, 2]
        assert messy.labels()[0].tolist() == clean.labels()[0].tolist() == [0, 1, 0]
