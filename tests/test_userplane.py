import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icnsim.containment import Target, containerize, hierarchy_from_text, hierarchy_to_text
from icnsim.errors import (
    DegenerateDistribution,
    InvalidParams,
    Unresolvable,
)
from icnsim.evaluation import ScenarioParams
from icnsim import userplane
from icnsim.ilm import GlobalId, Resolver, register, resolve
from icnsim.topology import Edge, Node, NodeKind, build_graph, generate_topology
from icnsim.userplane import (
    CacheStore,
    ContentObject,
    RequestMsg,
    address_of,
    apply_prefetch,
    build_network,
    deliver_data,
    handle_request,
    prefetch_plan,
    traces_to_csv,
    zipf_popularity,
)

from oracles import ListLru, bfs_hops


def make_net(capacity=10**6):
    """server(0) core, server(1) publisher, switch(2), ap(3), pcs(4, 5)."""
    nodes = [
        Node(0, NodeKind.SERVER), Node(1, NodeKind.SERVER),
        Node(2, NodeKind.SWITCH), Node(3, NodeKind.ACCESS_POINT),
        Node(4, NodeKind.PC), Node(5, NodeKind.PC),
    ]
    edges = [
        Edge(0, 1, 5_000), Edge(0, 2, 160_000),
        Edge(2, 3, 5_000), Edge(3, 4, 500), Edge(3, 5, 600),
    ]
    g = build_graph(nodes, edges, "latency_us")
    h = containerize(g, [Target(1, 1_000), Target(2, 150_000), Target(3, 500_000)])
    net = build_network(g, h, Resolver(), capacity)
    return g, net, net.resolver


def publish(net, res, hrn="urn:movie", publisher=1, volume=1000):
    gid = register(res, hrn, address_of(publisher))
    obj = ContentObject(gid, volume, publisher)
    net.add_object(obj)
    return obj


def request(net, obj, origin):
    req = RequestMsg(requested=obj.id, origin_node=origin)
    return handle_request(net, req)


class TestCacheStore:
    def test_oversized_object_skipped(self):
        store = CacheStore(0, media_capacity=100)
        assert not store.insert("big", 200)
        assert store.used == 0

    def test_eviction_order_matches_reference(self):
        store = CacheStore(0, media_capacity=200)
        ref = ListLru(200)
        script = [
            ("insert", "a", 100), ("insert", "b", 100), ("touch", "a", None),
            ("insert", "c", 100), ("insert", "d", 200), ("insert", "e", 100),
        ]
        for op, key, size in script:
            if op == "insert":
                assert store.insert(key, size) == ref.insert(key, size)
            else:
                if key in store:
                    store.touch(key)
                ref.lookup(key)
            assert list(store.entries) == ref.contents()

    @given(st.lists(
        st.tuples(st.sampled_from("abcdef"), st.integers(10, 60),
                  st.booleans()),
        max_size=40,
    ))
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_capacity_and_matches_reference(self, ops):
        store = CacheStore(0, media_capacity=100)
        ref = ListLru(100)
        for key, size, is_touch in ops:
            if is_touch:
                if key in store:
                    store.touch(key)
                ref.lookup(key)
            else:
                store.insert(key, size)
                ref.insert(key, size)
            assert store.used <= 100
            assert list(store.entries) == ref.contents()


class TestZipf:
    def test_singleton_catalog(self):
        assert zipf_popularity(1, 0.8, 10.0) == pytest.approx([1.0])

    def test_two_ranks_unshifted(self):
        fp = zipf_popularity(2, 1.0, 0.0)
        assert fp == pytest.approx([2.0 / 3.0, 1.0 / 3.0])

    def test_strictly_decreasing(self):
        fp = zipf_popularity(50, 0.8, 10.0)
        assert np.all(np.diff(fp) < 0)
        assert fp.sum() == pytest.approx(1.0)

    def test_invalid_params(self):
        for bad in ((0, 1.0, 0.0), (3, 0.0, 0.0), (3, 1.0, -1.0)):
            with pytest.raises(InvalidParams):
                zipf_popularity(*bad)


class TestPrefetchPlan:
    def test_singleton_is_forced(self):
        plan = prefetch_plan(None, {7: 1.0}, {GlobalId(1): 1.0}, budget=1, seed=0)
        assert plan.placements == [(GlobalId(1), 7, 1.0)]

    def test_matrix_matches_direct_evaluation(self):
        # nc=(1,3), fp=(2,1): products (2,1,6,3)/12 in (node, object) order
        oa, ob = GlobalId(10), GlobalId(20)
        plan = prefetch_plan(None, {0: 1.0, 1: 3.0}, {oa: 2.0, ob: 1.0}, 1, 0)
        assert plan.nodes == [0, 1]
        assert plan.objects == [oa, ob]
        assert plan.probabilities.ravel().tolist() == pytest.approx(
            [2 / 12, 1 / 12, 6 / 12, 3 / 12]
        )

    def test_uniform_inputs_give_uniform_cells(self):
        nc = {i: 2.0 for i in range(3)}
        fp = {GlobalId(i): 5.0 for i in range(4)}
        plan = prefetch_plan(None, nc, fp, 2, 1)
        assert np.allclose(plan.probabilities, 1.0 / 12.0)

    def test_normalization_within_tolerance(self):
        rng = np.random.default_rng(2)
        nc = {i: float(rng.uniform(0.1, 5)) for i in range(6)}
        fp = {GlobalId(i): float(rng.uniform(0.1, 5)) for i in range(7)}
        plan = prefetch_plan(None, nc, fp, 10, 3)
        assert abs(plan.total_probability - 1.0) <= 1e-9

    def test_draws_without_replacement(self):
        nc = {i: 1.0 for i in range(3)}
        fp = {GlobalId(i): 1.0 for i in range(3)}
        plan = prefetch_plan(None, nc, fp, budget=9, seed=5)
        cells = {(node, oid) for oid, node, _ in plan.placements}
        assert len(cells) == 9

    def test_deterministic_for_seed(self):
        nc = {i: float(i + 1) for i in range(4)}
        fp = {GlobalId(i): float(5 - i) for i in range(4)}
        a = prefetch_plan(None, nc, fp, 6, 11)
        b = prefetch_plan(None, nc, fp, 6, 11)
        assert a.placements == b.placements

    def test_hierarchy_without_level_labels_is_rejected(self):
        g, net, res = make_net()
        bare = hierarchy_from_text(hierarchy_to_text(containerize(g, [Target(1, 1_000)])), g)
        with pytest.raises(InvalidParams):
            prefetch_plan(bare, {3: 1.0}, {GlobalId(1): 1.0}, 1, 0)

    def test_degenerate_mass(self):
        with pytest.raises(DegenerateDistribution):
            prefetch_plan(None, {0: 0.0}, {GlobalId(1): 0.0}, 1, 0)
        with pytest.raises(DegenerateDistribution):
            prefetch_plan(None, {}, {}, 1, 0)


class TestHandleRequest:
    def test_no_cache_walks_to_publisher(self):
        g, net, res = make_net(capacity=0)
        obj = publish(net, res)
        trace = request(net, obj, origin=4)
        edges = [(a, b, w) for a, b, w in zip(g.ea.tolist(), g.eb.tolist(), g.ew.tolist())]
        assert trace.hops == bfs_hops(g.n, edges, 4, 1) == 4
        assert trace.serving_node == 1
        assert not trace.cache_hit
        assert trace.path[0] == 4 and trace.path[-1] == 1

    def test_access_point_copy_served_in_one_hop(self):
        g, net, res = make_net()
        obj = publish(net, res)
        net.cache_of(3).insert(obj.id, obj.volume)
        trace = request(net, obj, origin=4)
        assert trace.hops == 1
        assert trace.cache_hit and trace.serving_node == 3

    def test_origin_copy_is_zero_hops(self):
        g, net, res = make_net()
        obj = publish(net, res)
        trace = request(net, obj, origin=1)
        assert trace.hops == 0 and trace.serving_node == 1

    def test_unregistered_and_uncached_is_unresolvable(self):
        g, net, res = make_net()
        obj = ContentObject(GlobalId(999), 10, 1)
        net.objects[obj.id] = obj  # present in catalog but never registered
        with pytest.raises(Unresolvable):
            request(net, obj, origin=4)

    def test_hop_count_stamped_on_message(self):
        g, net, res = make_net(capacity=0)
        obj = publish(net, res)
        req = RequestMsg(requested=obj.id, origin_node=5)
        trace = handle_request(net, req)
        assert req.hop_count == trace.hops == 4

    def test_origin_outside_the_graph_is_invalid(self):
        g = generate_topology(ScenarioParams(scenario="embb", n_devices=48), 2)
        h = containerize(g, [Target(1, 1_000), Target(2, 150_000), Target(3, 500_000)])
        net = build_network(g, h, Resolver(), 10**6)
        obj = publish(net, net.resolver, publisher=1)
        for origin in (-1, g.n, g.n + 5):
            with pytest.raises(InvalidParams):
                request(net, obj, origin=origin)
        for node in (-1, g.n):
            with pytest.raises(InvalidParams):
                net.local_ilm(node)
        assert net.local_ilm(0) is net.resolver
        assert net.local_ilm(g.n - 1) is net.resolver

    def test_origin_cache_copy_is_served_without_a_lookup(self, monkeypatch):
        g, net, res = make_net()
        obj = ContentObject(GlobalId(999), 10, 1)
        net.objects[obj.id] = obj  # in the catalog, never registered
        net.cache_of(3).insert(obj.id, obj.volume)
        lookups = []
        monkeypatch.setattr(userplane, "resolve", lambda *args: lookups.append(args))
        trace = request(net, obj, origin=3)
        assert (trace.hops, trace.serving_node, trace.cache_hit) == (0, 3, True)
        assert lookups == []

    def test_one_lookup_per_request(self, monkeypatch):
        g, net, res = make_net(capacity=0)
        obj = publish(net, res)
        lookups = []

        def counted(*args):
            lookups.append(args)
            return resolve(*args)

        monkeypatch.setattr(userplane, "resolve", counted)
        assert request(net, obj, origin=4).hops == 4
        assert lookups == [(res, obj.id)]

    def test_dumped_hierarchy_drives_a_network(self):
        g, _, _ = make_net(capacity=0)
        h = containerize(g, [Target(1, 1_000), Target(2, 150_000)])
        bare = hierarchy_from_text(hierarchy_to_text(h), g)
        net = build_network(g, bare, Resolver(), 0)
        obj = publish(net, net.resolver)
        assert request(net, obj, origin=5).hops == 4


class TestDeliverData:
    def test_second_request_takes_strictly_fewer_hops(self):
        g, net, res = make_net()
        obj = publish(net, res)
        first = request(net, obj, origin=4)
        deliver_data(net, first)
        second = request(net, obj, origin=4)
        assert second.hops < first.hops
        assert second.cache_hit

    def test_oversized_object_caches_nowhere_but_delivers(self):
        g, net, res = make_net(capacity=10)
        obj = publish(net, res, volume=50_000)
        trace = request(net, obj, origin=4)
        stored = deliver_data(net, trace)
        assert stored == []
        again = request(net, obj, origin=4)
        assert again.hops == trace.hops == 4

    def test_only_forwarding_elements_cache(self):
        g, net, res = make_net()
        obj = publish(net, res)
        trace = request(net, obj, origin=4)
        stored = deliver_data(net, trace)
        kinds = {g.kind(node) for node in stored}
        assert kinds <= {NodeKind.SWITCH, NodeKind.ACCESS_POINT, NodeKind.GATEWAY}
        assert 4 not in stored and 1 not in stored

    def test_caching_never_lengthens_paths(self):
        rng = np.random.default_rng(6)
        origins = [int(rng.choice([4, 5])) for _ in range(20)]
        bare_hops = []
        g, net, res = make_net(capacity=0)
        obj = publish(net, res)
        for origin in origins:
            tr = request(net, obj, origin)
            deliver_data(net, tr)
            bare_hops.append(tr.hops)
        g, net, res = make_net(capacity=10**6)
        obj = publish(net, res)
        for origin, bare in zip(origins, bare_hops):
            tr = request(net, obj, origin)
            deliver_data(net, tr)
            assert tr.hops <= bare


class TestApplyPrefetch:
    def test_placement_registers_and_serves(self):
        g, net, res = make_net()
        obj = publish(net, res)
        plan = prefetch_plan(None, {3: 1.0}, {obj.id: 1.0}, budget=1, seed=0)
        placed = apply_prefetch(net, plan)
        assert [(oid, node) for oid, node, _ in placed] == [(obj.id, 3)]
        assert address_of(3) in resolve(res, obj.id)
        trace = request(net, obj, origin=5)
        assert trace.hops == 1 and trace.cache_hit

    def test_placement_outside_the_graph_changes_nothing(self):
        g, net, res = make_net()
        obj = publish(net, res)
        plan = prefetch_plan(None, {g.n: 1.0}, {obj.id: 1.0}, budget=1, seed=0)
        with pytest.raises(InvalidParams):
            apply_prefetch(net, plan)
        assert resolve(res, obj.id) == frozenset({address_of(1)})
        assert net.caches == {} and net.explicit == set()

    def test_eviction_deregisters_explicit_copy(self):
        g, net, res = make_net(capacity=1000)
        obj = publish(net, res, volume=1000)
        other = publish(net, res, hrn="urn:other", volume=1000)
        plan = prefetch_plan(None, {3: 1.0}, {obj.id: 1.0}, budget=1, seed=0)
        apply_prefetch(net, plan)
        assert address_of(3) in resolve(res, obj.id)
        net.cache_of(3).insert(other.id, other.volume)  # evicts obj
        assert address_of(3) not in resolve(res, obj.id)


class TestTraceCsv:
    def test_columns_and_rows(self):
        g, net, res = make_net(capacity=0)
        obj = publish(net, res)
        traces = [request(net, obj, origin=4), request(net, obj, origin=5)]
        text = traces_to_csv(traces)
        lines = text.splitlines()
        assert lines[0] == "request_n,path_j,hops,serving_node,volume_bytes,cache_hit"
        assert lines[1] == "1,1,4,1,1000,0"
        assert len(lines) == 3
