import gc
import math
import tracemalloc
from array import array
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from icnsim import containment
from icnsim.errors import (
    DanglingEndpoint,
    DuplicateEdge,
    InvalidParams,
    NegativeWeight,
    Unreachable,
)
from icnsim.evaluation import DEFAULT_SWEEPS, ScenarioParams
from icnsim.topology import (
    FORWARDING_KINDS,
    KIND_RESOURCES,
    LOCAL_DOMAIN_SIZE,
    MAX_DEVICES,
    Edge,
    Node,
    NodeKind,
    WeightedGraph,
    build_graph,
    closest_path,
    generate_topology,
    graph_from_text,
    graph_to_text,
    hop_distance,
    measure_distance,
    next_hop_toward,
    node_centrality,
    _dists_to,
)

from oracles import _check_edge, _check_node, brute_additive, brute_bottleneck, bfs_hops


def switch(i):
    return Node(i, NodeKind.SWITCH)


def make(n, edges, unit="latency_us"):
    return build_graph([switch(i) for i in range(n)], [Edge(*e) for e in edges], unit)


def random_graph(rng, n, extra=3):
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, int(rng.integers(1, 20))))
    seen = {(min(a, b), max(a, b)) for a, b, _ in edges}
    for _ in range(extra):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a != b and (min(a, b), max(a, b)) not in seen:
            seen.add((min(a, b), max(a, b)))
            edges.append((a, b, int(rng.integers(1, 20))))
    return edges


class TestBuildGraph:
    def test_single_isolated_node(self):
        g = make(1, [])
        assert g.n == 1 and g.m == 0

    def test_counts_match_the_arrays_of_every_construction(self):
        # n and m are set once in __init__; no builder reassigns the arrays
        generated = generate_topology(ScenarioParams(scenario="mmtc", area_km2=0.05), 3)
        zero = np.zeros(3, dtype=np.int64)
        graphs = [
            generated,
            WeightedGraph.from_arrays(
                [1, 1, 1], zero, zero, zero, zero, zero, [0, 1], [1, 2], [4, 5], "latency_us"
            ),
            graph_from_text(graph_to_text(generated)),
            containment._quotient(
                generated, np.arange(generated.n) % 7, 7, containment.Target(1, 1_000)
            ),
        ]
        for g in graphs:
            assert (g.n, g.m) == (len(g.kinds), len(g.ea))
        assert (graphs[1].n, graphs[1].m, graphs[3].n) == (3, 2, 7)

    def test_two_nodes_single_edge(self):
        g = make(2, [(0, 1, 10)])
        assert measure_distance(g, 0, 1) == 10

    def test_dangling_endpoint(self):
        with pytest.raises(DanglingEndpoint):
            make(2, [(0, 99, 1)])

    def test_duplicate_edge_either_direction(self):
        with pytest.raises(DuplicateEdge):
            make(3, [(0, 1, 1), (1, 0, 2)])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            make(2, [(0, 1, -5)])

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidParams):
            make(2, [(1, 1, 3)])

    def test_ids_must_be_dense(self):
        with pytest.raises(InvalidParams):
            build_graph([switch(0), switch(2)], [], "latency_us")

    def test_node_invariants_enforced(self):
        bad = Node(0, NodeKind.PC, downlink_bw=100, uplink_bw=100)
        with pytest.raises(InvalidParams):
            build_graph([bad], [], "latency_us")

    def test_values_beyond_int64_rejected(self):
        with pytest.raises(InvalidParams, match="int64"):
            make(2, [(0, 1, 10**23)])
        with pytest.raises(InvalidParams, match="int64"):
            build_graph([Node(0, NodeKind.PC, memory_total=8 * 10**25)], [], "latency_us")
        with pytest.raises(InvalidParams, match="int64"):
            build_graph([Node(0, NodeKind.PC, compute=-(2**63) - 1)], [], "latency_us")
        assert make(2, [(0, 1, 2**63 - 1)]).ew.tolist() == [2**63 - 1]

    @pytest.mark.parametrize("value", [math.nan, math.inf, 1.5, 2.5, "5"], ids=repr)
    @pytest.mark.parametrize("build,named", [
        (lambda v: build_graph([Node(0, NodeKind.PC, memory_total=v)], [], "latency_us"),
         "node 0: memory_total"),
        (lambda v: make(2, [(0, 1, v)]), r"edge \(0,1\) weight"),
    ], ids=["resource", "weight"])
    def test_fields_that_are_not_integers_rejected(self, build, named, value):
        with pytest.raises(InvalidParams, match=f"^{named} must be an integer$"):
            build(value)

    @pytest.mark.parametrize("kind", ["router", None], ids=repr)
    def test_a_kind_that_is_no_node_kind_is_rejected_by_name(self, kind):
        with pytest.raises(InvalidParams, match=rf"^node 0: {kind!r} is not a valid NodeKind$"):
            build_graph([Node(0, kind)], [], "latency_us")

    def test_integral_floats_pass(self):
        g = build_graph([Node(0.0, NodeKind.PC, memory_total=5.0), switch(1)],
                        [Edge(1.0, 0, 5.0)], "latency_us")
        assert g.mems.tolist() == [5, 8_000_000_000]
        assert (g.ea.tolist(), g.eb.tolist(), g.ew.tolist()) == ([0], [1], [5])

    def test_mmtc_ceilings(self):
        dev = Node(0, NodeKind.MMTC_DEVICE, *KIND_RESOURCES[NodeKind.MMTC_DEVICE])
        assert dev.compute < 50_000_000
        assert dev.memory_total < 50_000
        assert dev.storage < 300_000
        with pytest.raises(InvalidParams):
            build_graph(
                [Node(0, NodeKind.MMTC_DEVICE, memory_total=60_000,
                      downlink_bw=30_000, uplink_bw=10_000, compute=1_000_000)],
                [], "latency_us",
            )


# The resource columns as the generator used to fill them per node: the
# full-size values everywhere, then the constrained ones on mMTC devices.
FULL_SIZE = (8_000_000_000, 100_000_000_000, 1_200_000_000, 400_000_000, 2_100_000_000)
CONSTRAINED = (32_000, 200_000, 30_000, 10_000, 32_000_000)
RESOURCE_COLUMNS = ("mems", "storages", "downs", "ups", "computes")


def node_resources(node):
    return (node.memory_total, node.storage, node.downlink_bw, node.uplink_bw, node.compute)


class TestKindResources:
    @pytest.mark.parametrize("case", [
        dict(scenario="embb", n_devices=300),
        dict(scenario="urllc", n_devices=200, latency_ms=2.0),
        dict(scenario="mmtc", area_km2=0.02),
    ], ids=["embb", "urllc", "mmtc"])
    def test_derived_columns_equal_the_per_node_fill(self, case):
        g = generate_topology(ScenarioParams(**case), 5)
        assert not set(RESOURCE_COLUMNS) & set(vars(g))
        devices = g.nodes_of_kind(NodeKind.MMTC_DEVICE)
        for name, full, constrained in zip(RESOURCE_COLUMNS, FULL_SIZE, CONSTRAINED):
            want = np.full(g.n, full, dtype=np.int64)
            want[devices] = constrained
            got = getattr(g, name)
            assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
            assert getattr(g, name) is got  # filled once, then kept

    def test_nodes_agree_with_the_table(self):
        assert set(KIND_RESOURCES) == set(NodeKind)
        nodes = [Node(i, kind, *KIND_RESOURCES[kind]) if kind == NodeKind.MMTC_DEVICE
                 else Node(i, kind) for i, kind in enumerate(NodeKind)]
        for node in nodes:
            want = CONSTRAINED if node.kind == NodeKind.MMTC_DEVICE else FULL_SIZE
            assert node_resources(node) == KIND_RESOURCES[node.kind] == want
        g = build_graph(nodes, [Edge(0, i, 1) for i in range(1, len(nodes))], "latency_us")
        derived = WeightedGraph(g.kinds, g.ea, g.eb, g.ew, g.unit)
        for name in RESOURCE_COLUMNS:
            assert getattr(derived, name).tobytes() == getattr(g, name).tobytes()

    def test_explicit_columns_are_kept(self):
        zero = np.zeros(3, dtype=np.int64)
        g = WeightedGraph.from_arrays(
            [1, 1, 1], zero, zero, zero, zero, zero, [0, 1], [1, 2], [4, 5], "latency_us"
        )
        for name in RESOURCE_COLUMNS:
            assert getattr(g, name).tolist() == [0, 0, 0]

    def test_generation_allocates_under_36_bytes_per_node(self):
        # about 100k mMTC devices; the five per-node int64 resource columns
        # the generator used to fill took its peak to 105-112 B per node; it
        # is 34.0 B with the parents as one int32 column, 42.2 with a parents
        # list and 49.2 with a depth list as well
        g, _, peak = traced_generation()
        assert g.n > 100_000
        assert peak / g.n < 36

    def test_generation_retains_under_32_bytes_per_node(self):
        # about 100k mMTC devices; the graph and its tree keep 30.0 B per
        # node: kinds 1, ea/eb/ew 24, the parents column 4 and the depths 1;
        # a parents list kept 34.2, and depths as a list of ints 41.2
        g, retained, _ = traced_generation()
        assert g.n > 100_000
        assert retained / g.n < 32

    def test_generation_scratch_under_5_bytes_per_node(self):
        # about 100k mMTC devices; peak less retained is 4.0 B per node, 8.0
        # while a parents list grew beside the drawn device weights, 16.0
        # when every layer held a full-size id array and 23.9 when each
        # attach step gathered its parents through an int64 `arange //
        # fanout` and built its depths as a list first
        g, retained, peak = traced_generation()
        assert g.n > 100_000
        assert (peak - retained) / g.n < 5


def traced_generation():
    """(graph, retained bytes, peak bytes) of generating the mMTC point of
    about 100k devices under tracemalloc, after a small generation has made
    the allocations of a process's first call."""
    generate_topology(ScenarioParams(scenario="mmtc", area_km2=0.01), 1)
    tracemalloc.start()
    try:
        g = generate_topology(ScenarioParams(scenario="mmtc", density_k_per_km2=100.0), 1)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return g, retained, peak


class TestMeasureDistance:
    def test_additive_two_edge_path(self):
        g = make(3, [(0, 1, 2), (1, 2, 2)])
        assert measure_distance(g, 0, 2) == 4

    def test_bottleneck_single_path(self):
        g = make(3, [(0, 1, 5), (1, 2, 3)], "bandwidth_bps")
        assert measure_distance(g, 0, 2, "bottleneck") == 3

    def test_unreachable(self):
        g = make(4, [(0, 1, 1)])
        with pytest.raises(Unreachable):
            measure_distance(g, 0, 3)

    def test_self_distances(self):
        g = make(2, [(0, 1, 7)])
        assert measure_distance(g, 1, 1) == 0
        assert measure_distance(g, 1, 1, "bottleneck") == math.inf

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            n = int(rng.integers(2, 9))
            edges = random_graph(rng, n)
            g = make(n, edges)
            for _ in range(6):
                a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
                if a == b:
                    continue
                assert measure_distance(g, a, b) == brute_additive(n, edges, a, b)
                assert measure_distance(g, a, b, "bottleneck") == brute_bottleneck(
                    n, edges, a, b
                )

    def test_triangle_inequality_and_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            edges = random_graph(rng, n)
            g = make(n, edges)
            for _ in range(10):
                a, b, c = (int(x) for x in rng.integers(0, n, size=3))
                dab = measure_distance(g, a, b)
                dba = measure_distance(g, b, a)
                assert dab == dba
                assert measure_distance(g, a, c) <= dab + measure_distance(g, b, c)


@st.composite
def weighted_graphs(draw):
    """A simple graph of up to seven nodes, often disconnected, with weights
    from 0, so zero-weight edges and unreachable pairs both get drawn."""
    n = draw(st.integers(1, 7))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    edges, seen = [], set()
    for a, b in pairs:
        if a != b and frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            edges.append((a, b, draw(st.integers(0, 20))))
    return n, edges


@settings(max_examples=80, deadline=None)
@given(weighted_graphs())
def test_both_distance_modes_match_brute_force_on_every_pair(case):
    """Every ordered pair, a == b included: the value and its type equal the
    oracle's (0 and +inf to itself), and where the oracle finds no path the
    search raises Unreachable."""
    n, edges = case
    g = make(n, edges)
    for a in range(n):
        for b in range(n):
            for mode, oracle in (("additive", brute_additive), ("bottleneck", brute_bottleneck)):
                want = oracle(n, edges, a, b)
                if want is None:
                    with pytest.raises(Unreachable):
                        measure_distance(g, a, b, mode)
                    continue
                got = measure_distance(g, a, b, mode)
                assert got == want and type(got) is type(want)


class TestCentrality:
    def star(self):
        return make(5, [(0, i, 1) for i in range(1, 5)])

    def test_star_center(self):
        assert node_centrality(self.star(), 0) == 1.0

    def test_star_leaf(self):
        # direct evaluation: degree 1 over (5 - 1)
        assert node_centrality(self.star(), 3) == 0.25

    def test_isolated_node(self):
        g = make(3, [(0, 1, 1)])
        assert node_centrality(g, 2) == 0.0

    def test_single_node_graph(self):
        assert node_centrality(make(1, []), 0) == 1.0

    def test_centrality_sum_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            n = int(rng.integers(2, 9))
            edges = random_graph(rng, n)
            g = make(n, edges)
            total = sum(node_centrality(g, v) for v in range(n))
            assert total == pytest.approx(2 * g.m / (n - 1))


class TestGenerateTopology:
    @pytest.mark.parametrize("scenario", ["embb", "mmtc"])
    def test_forwarding_nodes_are_the_forwarding_kinds(self, scenario):
        params = ScenarioParams(scenario=scenario, n_devices=40, density_k_per_km2=0.5)
        g = generate_topology(params, 4)
        want = sorted(i for i in range(g.n) if g.kind(i) in FORWARDING_KINDS)
        assert g.forwarding_nodes().tolist() == want
        assert list(g.forwarding_mask()) == [int(i in want) for i in range(g.n)]
        assert (NodeKind.GATEWAY in {g.kind(i) for i in want}) == (scenario == "mmtc")

    def test_mmtc_density_gives_exact_device_count(self):
        params = ScenarioParams(scenario="mmtc", density_k_per_km2=63.0, area_km2=1.0)
        g = generate_topology(params, 7)
        assert len(g.nodes_of_kind(NodeKind.MMTC_DEVICE)) == 63_000

    def test_same_seed_same_graph(self):
        params = ScenarioParams(scenario="urllc", n_devices=40)
        a = generate_topology(params, 9)
        b = generate_topology(params, 9)
        assert graph_to_text(a) == graph_to_text(b)

    def test_different_seed_different_graph(self):
        params = ScenarioParams(scenario="embb", n_devices=40)
        a = generate_topology(params, 1)
        b = generate_topology(params, 2)
        assert graph_to_text(a) != graph_to_text(b)

    def test_zero_devices_rejected(self):
        with pytest.raises(InvalidParams):
            generate_topology(ScenarioParams(scenario="embb", n_devices=0), 1)

    def test_unknown_scenario_rejected(self):
        class P:
            scenario = "5g"

        with pytest.raises(InvalidParams):
            generate_topology(P(), 1)

    def test_tree_structure_and_local_latency(self):
        params = ScenarioParams(scenario="urllc", n_devices=64, latency_ms=4.0)
        g = generate_topology(params, 5)
        assert g.is_tree()
        # device attach links stay under the sub-millisecond tier target
        device_kinds = {NodeKind.PC, NodeKind.MOBILE_DEVICE, NodeKind.MMTC_DEVICE}
        for a, b, w in zip(g.ea.tolist(), g.eb.tolist(), g.ew.tolist()):
            if g.kind(a) in device_kinds or g.kind(b) in device_kinds:
                assert w < 1_000


    @pytest.mark.parametrize("case", [
        dict(scenario="mmtc", area_km2=1e300),  # density * area overflows
        dict(scenario="mmtc", area_km2=1e12),
        dict(scenario="mmtc", density_k_per_km2=1e3, area_km2=MAX_DEVICES / 1e6 + 1),
        dict(scenario="embb", n_devices=MAX_DEVICES + 1),
        dict(scenario="urllc", n_devices=10**30),
        dict(scenario="embb", n_devices=16, n_servers=MAX_DEVICES + 1),
        dict(scenario="urllc", n_devices=16, devices_per_ap=10**400),
        dict(scenario="mmtc", aps_per_switch=MAX_DEVICES + 1),
        dict(scenario="mmtc", devices_per_gateway=LOCAL_DOMAIN_SIZE + 1),
    ])
    def test_sizes_over_the_cap_raise_before_allocating(self, case):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParams):
                generate_topology(ScenarioParams(**case), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cap_admits_the_million_device_sweep_point(self):
        # the largest default mMTC point: 1049 k devices per km^2 over 1 km^2
        assert DEFAULT_SWEEPS["mmtc"][-1] * 1000 * ScenarioParams().area_km2 <= MAX_DEVICES

    def test_huge_latency_budget_gives_one_access_point(self):
        g = generate_topology(ScenarioParams(scenario="urllc", n_devices=40, latency_ms=1e300), 3)
        aps = g.nodes_of_kind(NodeKind.ACCESS_POINT)
        assert len(aps) == 1
        # the access link weight is clipped just under the 150 ms tier target
        # (its switch has the lower id, so that link is the one ending at it)
        assert g.ew[g.eb == aps[0]].tolist() == [149_999]


def mmtc_domains(n_devices, per_gateway):
    """Devices below each gateway of a 0.5 km^2 mMTC topology with
    `n_devices` devices, `per_gateway` to a gateway, in gateway id order."""
    params = ScenarioParams(scenario="mmtc", density_k_per_km2=n_devices / 500,
                            area_km2=0.5, devices_per_gateway=per_gateway)
    g = generate_topology(params, 6)
    domains = Counter(a for a, b in zip(g.ea.tolist(), g.eb.tolist())
                      if g.kind(b) == NodeKind.MMTC_DEVICE)
    assert {g.kind(gw) for gw in domains} == {NodeKind.GATEWAY}
    return [domains[gw] for gw in sorted(domains)]


class TestLocalDomain:
    """The 8-bit short names of one gateway's local domain cap the mMTC
    devices behind that gateway."""

    def test_the_domain_is_eight_bits(self):
        assert LOCAL_DOMAIN_SIZE == 1 << 8

    def test_the_default_fits_one_domain(self):
        assert 1 <= ScenarioParams().devices_per_gateway <= LOCAL_DOMAIN_SIZE

    def test_full_domains_fill_every_gateway(self):
        assert mmtc_domains(2 * LOCAL_DOMAIN_SIZE, LOCAL_DOMAIN_SIZE) == [256, 256]

    def test_the_last_gateway_takes_the_remainder(self):
        assert mmtc_domains(600, LOCAL_DOMAIN_SIZE) == [256, 256, 88]

    @pytest.mark.parametrize("per_gateway", [LOCAL_DOMAIN_SIZE + 1, 0, -1])
    def test_a_domain_outside_eight_bits_is_rejected(self, per_gateway):
        params = ScenarioParams(scenario="mmtc", area_km2=0.5, devices_per_gateway=per_gateway)
        with pytest.raises(InvalidParams, match=r"devices_per_gateway must be in \[1, 256\]"):
            generate_topology(params, 1)


class TestGraphFile:
    def test_round_trip_bit_exact(self):
        params = ScenarioParams(scenario="mmtc", density_k_per_km2=0.5)
        g = generate_topology(params, 11)
        text = graph_to_text(g)
        assert graph_to_text(graph_from_text(text)) == text

    def test_round_trip_preserves_distances(self):
        g = make(4, [(0, 1, 3), (1, 2, 4), (0, 3, 9)])
        g2 = graph_from_text(graph_to_text(g))
        assert measure_distance(g2, 0, 2) == 7

    def test_header_mismatch_rejected(self):
        with pytest.raises(InvalidParams):
            graph_from_text("graph latency_us 2\nnode 0 switch 1 1 3 1 1\n")

    TEXT = "graph latency_us 3\n" + "".join(f"node {i} switch 1 1 3 1 1\n" for i in range(3))

    @pytest.mark.parametrize("tail,error,lineno", [
        ("edge 0 1 5\nedge 2 7 1\n", DanglingEndpoint, 6),
        ("edge 0 1 5\nedge 1 2 1\nedge 1 0 2\n", DuplicateEdge, 7),
        ("edge 0 1 5\nedge 1 2 -1\n", NegativeWeight, 6),
        ("edge 0 0 5\n", InvalidParams, 5),
    ])
    def test_structural_faults_name_their_edge_line(self, tail, error, lineno):
        with pytest.raises(error, match=f"^topo.txt, line {lineno}: "):
            graph_from_text(self.TEXT + tail, "topo.txt")

    @pytest.mark.parametrize("old,new,lineno", [
        ("node 1 switch 1 1 3", "node 1 switch 1 1 4", 3),  # downlink != 3 x uplink
        ("node 2 switch", "node 0 switch", 4),  # an id twice
        ("node 1 switch", "node 3 switch", 3),  # an id past the header count
        # in int64, 3 x this uplink wraps round to this downlink
        ("node 1 switch 1 1 3 1", "node 1 switch 1 1 -9223372036854775807 3074457345618258603", 3),
        ("node 1 switch 1 1 3 1 1", "node 1 mmtc_device 49999 299999 3 1 50000000", 3),
        ("node 1 switch 1 1 3 1 1", "node 1 mmtc_device 50000 299999 3 1 49999999", 3),
        ("node 1 switch 1 1 3 1 1", "node 1 mmtc_device 49999 300000 3 1 49999999", 3),
    ])
    def test_node_faults_name_their_line(self, old, new, lineno):
        with pytest.raises(InvalidParams, match=f"^topo.txt, line {lineno}: node "):
            graph_from_text(self.TEXT.replace(old, new), "topo.txt")

    @pytest.mark.parametrize("line,error", [
        ("node 9223372036854775808 switch 1 1 3 1 1", InvalidParams),
        ("edge 0 9223372036854775808 1", DanglingEndpoint),
    ])
    def test_an_id_past_int64_names_its_line_under_any_count(self, line, error):
        # the header count passes int64 too, so the id lies below it
        text = f"graph latency_us {10**30}\nnode 0 switch 1 1 3 1 1\n{line}\n"
        with pytest.raises(error, match="^topo.txt, line 3: "):
            graph_from_text(text, "topo.txt")


THIRD = (2**63 - 1) // 3
# values on both sides of every bound the node and edge checks apply
RESOURCES = [0, 1, 10_000, 30_000, 49_999, 50_000, 299_999, 300_000, 49_999_999,
             50_000_000, THIRD, THIRD + 1, -THIRD - 1, 2**63 - 1, 2**63, -2**63, -2**63 - 1]


@st.composite
def graph_lines(draw):
    """(n, lines) of a graph text body: n node lines in a shuffled order
    with edge lines, mostly well formed, some with one fault."""
    n = draw(st.integers(1, 4))

    def rarely(values, usual):
        return draw(st.sampled_from(values)) if draw(st.integers(0, 7)) == 0 else usual

    lines = []
    for node_id in draw(st.permutations(range(n))):
        node_id = rarely([-1, n, 0, 0, 2**63], node_id)
        kind = draw(st.sampled_from([NodeKind.SWITCH, NodeKind.MMTC_DEVICE]))
        mem, sto, up, cpu = (rarely(RESOURCES, 1) for _ in range(4))
        down = rarely(RESOURCES, 3 * up)
        lines.append(f"node {node_id} {kind.value} {mem} {sto} {down} {up} {cpu}")
    pairs = []
    for _ in range(draw(st.integers(0, 5))):
        if pairs and draw(st.integers(0, 3)) == 0:
            b, a = draw(st.sampled_from(pairs))  # the same edge again
        else:
            a, b = (rarely([-1, n, 2**63], draw(st.integers(0, n - 1))) for _ in range(2))
        pairs.append((a, b))
        w = rarely([-1, 0, 2**63 - 1, 2**63, -2**63 - 1], 7)
        lines.append(f"edge {a} {b} {w}")
    return n, draw(st.permutations(lines))


def first_fault(items, n):
    """(position, error type, message) of the first of `items`, Node and
    Edge objects checked in order, that the per-line checks reject, or None
    when they accept all of them."""
    node_ids, edge_keys = set(), set()
    for i, item in enumerate(items):
        try:
            if isinstance(item, Node):
                _check_node(item, n, node_ids)
            else:
                _check_edge(item, n, edge_keys)
        except InvalidParams as exc:
            return i, type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(graph_lines())
def test_graph_text_raises_what_the_per_line_checks_raise_first(case):
    # the reference checks the text's lines in order, and build_graph's
    # nodes and edges (the same objects) in its order: all nodes, then edges
    n, lines = case
    text = f"graph latency_us {n}\n" + "".join(ln + "\n" for ln in lines)
    items = []
    for ln in lines:
        tag, *fields = ln.split()
        if tag == "node":
            node_id, kind, *resources = fields
            items.append(Node(int(node_id), NodeKind(kind), *map(int, resources)))
        else:
            items.append(Edge(*map(int, fields)))
    nodes = [item for item in items if isinstance(item, Node)]
    edges = [item for item in items if isinstance(item, Edge)]
    fault = first_fault(items, n)
    want = fault and (fault[1], f"t, line {fault[0] + 2}: {fault[2]}")  # line 1 is the header
    try:
        got = graph_from_text(text, "t")
    except InvalidParams as exc:
        assert (type(exc), str(exc)) == want
    else:
        assert want is None
        assert graph_to_text(got) == graph_to_text(build_graph(nodes, edges, "latency_us"))
    fault = first_fault(nodes + edges, n)
    try:
        build_graph(nodes, edges, "latency_us")
    except InvalidParams as exc:
        assert (type(exc), str(exc)) == (fault and fault[1:])
    else:
        assert fault is None


class TestHopDistance:
    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            edges = random_graph(rng, n)
            g = make(n, edges)
            a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
            assert hop_distance(g, a, b) == bfs_hops(n, edges, a, b)

    def test_tree_fast_path_agrees_with_bfs(self):
        params = ScenarioParams(scenario="embb", n_devices=48)
        g = generate_topology(params, 3)
        assert g.is_tree()
        edges = list(zip(g.ea.tolist(), g.eb.tolist(), g.ew.tolist()))
        rng = np.random.default_rng(0)
        for _ in range(15):
            a, b = (int(x) for x in rng.integers(0, g.n, size=2))
            assert hop_distance(g, a, b) == bfs_hops(g.n, edges, a, b)

    def test_disconnected_graph_with_n_minus_one_edges_is_not_a_tree(self):
        g = make(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])  # triangle plus node 3
        assert not g.is_tree()
        assert hop_distance(g, 0, 2) == 1
        with pytest.raises(Unreachable):
            hop_distance(g, 0, 3)
        with pytest.raises(Unreachable):
            next_hop_toward(g, 3, 0)

    def test_out_of_range_ids_rejected(self):
        tree = generate_topology(ScenarioParams(scenario="embb", n_devices=32), 1)
        assert tree.n == 39 and tree.is_tree()
        ring = make(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        for g in (tree, ring):
            # a negative id would otherwise index from the end of the arrays
            for a, b in [(-1, 2), (2, -1), (-1, -1), (0, g.n), (g.n + 3, 0), (g.n, g.n)]:
                for query in (hop_distance, next_hop_toward, closest_one, closest_to):
                    with pytest.raises(InvalidParams):
                        query(g, a, b)


def closest_one(g, u, target):
    return closest_path(g, u, (target,))


def closest_to(g, u, target):
    return closest_path(g, u, [0, target])


@st.composite
def connected_graphs(draw):
    """A random spanning tree over relabelled nodes, plus up to two extra
    edges, so both the tree walk and the off-tree BFS get drawn."""
    n = draw(st.integers(2, 12))
    label = draw(st.permutations(range(n)))
    edges = [
        (label[draw(st.integers(0, v - 1))], label[v], draw(st.integers(1, 20)))
        for v in range(1, n)
    ]
    pairs = {frozenset(e[:2]) for e in edges}
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if a != b and frozenset((a, b)) not in pairs:
            pairs.add(frozenset((a, b)))
            edges.append((a, b, draw(st.integers(1, 20))))
    return n, edges


def check_hop_paths(n, edges):
    """closest_path against a brute-force walk: from each node, the lowest-id
    neighbour one BFS hop closer to the target."""
    g = make(n, edges)
    nbrs = {i: set() for i in range(n)}
    for a, b, _ in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    hops = [[bfs_hops(n, edges, a, b) for b in range(n)] for a in range(n)]
    walks = [[None] * n for _ in range(n)]  # the brute-force walk from u to t
    for u in range(n):
        for t in range(n):
            if hops[u][t] is None:
                assert closest_path(g, u, (t,)) is None
                for query in (hop_distance, next_hop_toward):
                    with pytest.raises(Unreachable):
                        query(g, u, t)
                continue
            want, v = [], u
            while v != t:
                v = min(w for w in nbrs[v] if hops[w][t] == hops[v][t] - 1)
                want.append(v)
            walks[u][t] = want
            assert closest_path(g, u, (t,)) == want
            assert len(want) == hop_distance(g, u, t)
            assert next_hop_toward(g, u, t) == (want[0] if want else u)
    # several targets: the walk to the fewest-hops target, ties to the
    # earliest; on a tree this is _tree_path's walk
    for u in range(n):
        some = [t for t in range(n) if (t + u) % 3]
        for targets in (list(range(n - 1, -1, -1)), some, [], [u], [*some, *some, u]):
            reach = [(hops[u][t], i) for i, t in enumerate(targets) if hops[u][t] is not None]
            want = walks[u][targets[min(reach)[1]]] if reach else None
            assert closest_path(g, u, targets) == want


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_hop_queries_match_brute_force(case):
    check_hop_paths(*case)


@st.composite
def sparse_graphs(draw):
    """A random simple graph that may have isolated nodes; when drawn, the
    last node has no edges, which leaves the final CSR row empty."""
    n = draw(st.integers(1, 12))
    span = n - 1 if draw(st.booleans()) else n
    pairs = draw(st.lists(
        st.tuples(st.integers(0, max(span - 1, 0)), st.integers(0, max(span - 1, 0))),
        max_size=20,
    ))
    edges, seen = [], set()
    for a, b in pairs:
        if a != b and frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            edges.append((a, b, draw(st.integers(1, 50))))
    return n, edges


@settings(max_examples=80, deadline=None)
@given(sparse_graphs())
def test_csr_rows_match_the_edge_list(case):
    n, edges = case
    g = make(n, edges)
    adj = {i: [] for i in range(n)}
    for a, b, w in edges:
        adj[a].append((b, w))
        adj[b].append((a, w))
    indptr, dst, wts_all = g._ensure_csr()
    for i in range(n):
        want = sorted(adj[i])
        nbrs, wts = g.neighbors(i)
        assert list(zip(nbrs.tolist(), wts.tolist())) == want
        assert g.degrees()[i] == len(want)
        lo, hi = indptr[i], indptr[i + 1]
        assert list(zip(dst[lo:hi].tolist(), wts_all[lo:hi].tolist())) == want
    assert indptr.tolist() == np.cumsum([0] + [len(adj[i]) for i in range(n)]).tolist()


@settings(max_examples=80, deadline=None)
@given(sparse_graphs())
def test_degrees_match_the_edge_list(case):
    n, edges = case
    g = make(n, edges)
    want = [0] * n
    for a, b, _ in edges:
        want[a] += 1
        want[b] += 1
    degs = g.degrees()
    assert degs.tolist() == want
    assert g._csr is None  # counted from the edge list alone
    assert degs.dtype == np.int64 and not degs.flags.writeable
    assert np.array_equal(degs, np.diff(g._ensure_csr()[0]))


@settings(max_examples=80, deadline=None)
@given(sparse_graphs(), st.data())
def test_degrees_of_some_nodes_match_the_full_count(case, data):
    n, edges = case
    g = make(n, edges)
    nodes = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=np.int64)
    degs = g.degrees_of(nodes)
    assert degs.dtype == np.int64 and degs.tolist() == g.degrees()[nodes].tolist()


HANDOVER_CASES = [
    dict(scenario="embb", n_devices=1),
    dict(scenario="embb", n_devices=48, devices_per_ap=5, aps_per_switch=2),
    dict(scenario="embb", n_devices=300, switches_per_zone=1, n_servers=3),
    dict(scenario="urllc", n_devices=1),
    dict(scenario="urllc", n_devices=64, latency_ms=1.0),
    dict(scenario="urllc", n_devices=40, latency_ms=1e300),  # one AP serves all
    dict(scenario="mmtc", density_k_per_km2=1.0, area_km2=0.001),  # one device
    dict(scenario="mmtc", area_km2=0.005, devices_per_gateway=1),
    dict(scenario="mmtc", area_km2=0.02, devices_per_gateway=256),
    dict(scenario="mmtc", area_km2=0.01, devices_per_ap=3, aps_per_switch=1),
]


@pytest.mark.parametrize("case", HANDOVER_CASES)
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_handed_over_tree_equals_the_bfs_one(case, seed):
    g = generate_topology(ScenarioParams(**case), seed)
    handed = g._tree_info()
    assert g._csr is None  # no BFS ran
    rebuilt = WeightedGraph.from_arrays(
        g.kinds, g.mems, g.storages, g.downs, g.ups, g.computes,
        g.ea, g.eb, g.ew, g.unit,
    )
    assert rebuilt._tree is None
    assert handed == rebuilt._tree_info()
    assert handed[0] and len(handed[1]) == len(handed[2]) == g.n


@pytest.mark.parametrize("case", HANDOVER_CASES)
def test_tree_parents_are_one_int32_column(case):
    """Handed over or found by the BFS, parents is one int32 entry per node,
    and the GC sees no object per node behind it."""
    g = generate_topology(ScenarioParams(**case), 3)
    rebuilt = WeightedGraph.from_arrays(
        g.kinds, g.mems, g.storages, g.downs, g.ups, g.computes,
        g.ea, g.eb, g.ew, g.unit,
    )
    handed, found = g._tree_info()[1], rebuilt._tree_info()[1]
    for parents in (handed, found):
        assert type(parents) is array and parents.itemsize == 4 and len(parents) == g.n
        assert np.frombuffer(parents, np.int32).tolist() == [-1] + g.ea.tolist()
        assert all(isinstance(r, type) for r in gc.get_referents(parents))  # no int per node
    assert handed == found


@st.composite
def generator_shapes(draw):
    """Scenario parameters of every shape, down to one device or one server."""
    scenario = draw(st.sampled_from(["embb", "urllc", "mmtc"]))
    params = ScenarioParams(
        scenario=scenario,
        n_devices=draw(st.sampled_from([1, 2, 7, 33, 200])),
        devices_per_ap=draw(st.integers(1, 9)),
        aps_per_switch=draw(st.integers(1, 5)),
        switches_per_zone=draw(st.integers(1, 5)),
        n_servers=draw(st.integers(1, 4)),
        devices_per_gateway=draw(st.integers(1, 9)),
        density_k_per_km2=draw(st.sampled_from([1.0, 7.0, 40.0])),
        area_km2=draw(st.sampled_from([0.001, 0.005])),  # 1 to 200 mMTC devices
        latency_ms=draw(st.sampled_from([1.0, 8.0, 1e300])),
    )
    return params, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(generator_shapes())
def test_generated_edges_are_the_canonical_ones(case):
    # The generator fills its edge arrays in place; from_arrays on the same
    # edges, child first and shuffled, must sort them into the same arrays.
    params, seed = case
    g = generate_topology(params, seed)
    order = np.random.default_rng(seed).permutation(g.m)
    rebuilt = WeightedGraph.from_arrays(
        g.kinds, g.mems, g.storages, g.downs, g.ups, g.computes,
        g.eb[order], g.ea[order], g.ew[order], g.unit,
    )
    for name in ("ea", "eb", "ew"):
        got, want = getattr(g, name), getattr(rebuilt, name)
        assert got.dtype == want.dtype == np.int64
        assert got.tolist() == want.tolist()
    assert g.m == g.n - 1
    assert g._tree_info() == rebuilt._tree_info()  # a BFS over the edges


def scipy_tree_parents(n, edges):
    """BFS parents from node 0 by scipy's breadth_first_order (a test-only
    oracle); -1 at the root and at unreachable nodes."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    rows = [a for a, _, _ in edges] + [b for _, b, _ in edges]
    cols = [b for _, b, _ in edges] + [a for a, _, _ in edges]
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    _, parents = breadth_first_order(adj, 0, directed=False, return_predecessors=True)
    return np.where(parents < 0, -1, parents).tolist()


@st.composite
def relabelled_trees(draw, min_n=1):
    """A random tree over shuffled ids; when drawn, a path (each node hangs
    off the one before it), the deepest tree of its size."""
    n = draw(st.integers(min_n, 40))
    label = draw(st.permutations(range(n)))
    chain = draw(st.booleans())
    edges = [
        (label[v - 1 if chain else draw(st.integers(0, v - 1))], label[v],
         draw(st.integers(1, 20)))
        for v in range(1, n)
    ]
    return n, edges


@settings(max_examples=80, deadline=None)
@given(relabelled_trees())
def test_tree_info_matches_scipy_and_the_bfs_oracle(case):
    n, edges = case
    g = make(n, edges)
    is_tree, parents, depths = g._tree_info()
    assert is_tree
    assert list(parents) == scipy_tree_parents(n, edges)
    assert list(depths) == [bfs_hops(n, edges, 0, v) for v in range(n)]


@settings(max_examples=60, deadline=None)
@given(relabelled_trees())
def test_hop_routes_on_trees(case):
    n, edges = case
    assert make(n, edges).is_tree()
    check_hop_paths(n, edges)


@settings(max_examples=60, deadline=None)
@given(sparse_graphs())
def test_hop_routes_on_sparse_graphs(case):
    # isolated nodes and several components: unreachable pairs raise
    check_hop_paths(*case)


@settings(max_examples=60, deadline=None)
@given(relabelled_trees(min_n=3), relabelled_trees(), st.data())
def test_n_minus_one_edges_with_a_cycle_is_not_a_tree(cyclic, rest, data):
    # A tree plus one edge has as many edges as nodes; beside a second,
    # separate tree the whole graph has n - 1 edges but is no tree.
    na, a_edges = cyclic
    pairs = {frozenset(e[:2]) for e in a_edges}
    extra = [(u, v) for u in range(na) for v in range(u + 1, na)
             if frozenset((u, v)) not in pairs]
    u, v = data.draw(st.sampled_from(extra))
    nb, b_edges = rest
    n = na + nb
    label = data.draw(st.permutations(range(n)))
    edges = [(label[x], label[y], w) for x, y, w in a_edges + [(u, v, 1)]]
    edges += [(label[na + x], label[na + y], w) for x, y, w in b_edges]
    g = make(n, edges)
    assert g.m == n - 1
    assert not g.is_tree()
    assert g._tree_info() == (False, None, None)


@settings(max_examples=80, deadline=None)
@given(sparse_graphs())
def test_bfs_dists_match_the_oracle_off_the_tree(case):
    n, edges = case
    g = make(n, edges)
    assume(not g.is_tree())
    for src in range(n):
        want = [bfs_hops(n, edges, src, v) for v in range(n)]
        assert _dists_to(g, src).tolist() == [-1 if d is None else d for d in want]


def test_deep_graphs():
    """A long path and a long ring over shuffled ids: hundreds of BFS
    levels, with one- and two-node frontiers."""
    n = 1_500
    order = np.random.default_rng(4).permutation(n)  # the nodes along the path
    at = np.argsort(order)  # each node's position on the path
    path = [(int(order[k - 1]), int(order[k]), 1) for k in range(1, n)]
    g = make(n, path)
    is_tree, parents, depths = g._tree_info()
    assert is_tree
    assert depths == np.abs(at - at[0]).tolist()
    assert list(parents) == scipy_tree_parents(n, path)
    ring = make(n, path + [(int(order[-1]), int(order[0]), 1)])
    assert not ring.is_tree()
    for src in (0, int(order[0]), int(order[n // 2])):
        gap = np.abs(at - at[src])
        assert _dists_to(ring, src).tolist() == np.minimum(gap, n - gap).tolist()


def test_a_path_deeper_than_a_byte_keeps_every_depth():
    """A 300-node path from root 0 over shuffled ids: depths past 255 do not
    wrap, and the tree walks match the oracle at both ends and the middle."""
    n = 300
    order = [0] + (np.random.default_rng(6).permutation(n - 1) + 1).tolist()  # the path
    path = [(order[k - 1], order[k], 1) for k in range(1, n)]
    g = make(n, path)
    is_tree, _, depths = g._tree_info()
    assert is_tree
    assert [depths[v] for v in order] == list(range(n))
    for pa in (0, n // 2, n - 1):
        for pb in (0, n // 2, n - 1):
            a, b = order[pa], order[pb]
            step = 1 if pb >= pa else -1
            assert hop_distance(g, a, b) == bfs_hops(n, path, a, b) == abs(pb - pa)
            assert closest_path(g, a, (b,)) == [order[k] for k in range(pa + step, pb + step, step)]


def test_off_tree_queries_run_one_bfs_per_distinct_target(monkeypatch):
    """Off the tree each query reads one distance array per far end, so
    closest_path runs k BFS over k distinct targets (repeats included), so
    one for a single target."""
    import icnsim.topology as topology

    n = 12
    ring = make(n, [(i, (i + 1) % n, 1) for i in range(n)] + [(0, 6, 1)])
    assert not ring.is_tree()
    calls = []
    bfs = topology._bfs

    def counting(*args):
        calls.append(args[2])
        return bfs(*args)

    monkeypatch.setattr(topology, "_bfs", counting)
    for targets in ((3,), (3, 9), (9, 3, 5), (2, 4, 8, 10), (5, 7, 5, 7, 11)):
        calls.clear()
        path = closest_path(ring, 1, targets)
        assert sorted(calls) == sorted(set(targets))
        assert path[-1] in targets
    calls.clear()
    assert closest_path(ring, 1, (9,)) == [0, 11, 10, 9]
    assert calls == [9]
    calls.clear()
    assert hop_distance(ring, 1, 9) == 4
    assert calls == [9]
