import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from icnsim.containment import Target, containerize, hierarchy_from_text, hierarchy_to_text
from icnsim.errors import (
    DegenerateDistribution,
    InvalidParams,
    LocatorLimitExceeded,
    NoRoute,
    NotFound,
    Unresolvable,
)
from icnsim.evaluation import ScenarioParams, reports_to_csv, run_scenario
from icnsim import userplane
from icnsim.ilm import (
    LOCATOR_LIMIT,
    GlobalId,
    Resolver,
    dump_table,
    register,
    register_indirect,
    resolve,
    update_binding,
)
from icnsim.topology import Edge, Node, NodeKind, build_graph, closest_path, generate_topology
from icnsim.userplane import (
    CacheStore,
    ContentObject,
    DeliveryTrace,
    PrefetchPlan,
    RequestMsg,
    address_of,
    apply_prefetch,
    build_network,
    deliver_data,
    handle_request,
    node_of_address,
    prefetch_plan,
    traces_to_csv,
    zipf_popularity,
)

from oracles import ListLru, adjacency, bfs_hops


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
                    store.entries.move_to_end(key)
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
                    store.entries.move_to_end(key)
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

    @pytest.mark.parametrize("s", [400.0, 1e300, float("nan")])
    def test_weights_that_vanish_or_are_not_finite(self, s):
        # (1 + 10) ** 400 overflows, so every weight 1 / that is zero
        with pytest.raises(InvalidParams):
            zipf_popularity(8, s, 10.0)

    def test_large_exponent_without_shift_puts_all_mass_on_rank_one(self):
        assert zipf_popularity(3, 1e300, 0.0).tolist() == [1.0, 0.0, 0.0]


class TestPrefetchPlan:
    def test_singleton_is_forced(self):
        plan = prefetch_plan({7: 1.0}, {GlobalId(1): 1.0}, budget=1, seed=0)
        assert plan.placements == [(GlobalId(1), 7, 1.0)]

    def test_matrix_matches_direct_evaluation(self):
        # nc=(1,3), fp=(2,1): products (2,1,6,3)/12 in (node, object) order
        oa, ob = GlobalId(10), GlobalId(20)
        plan = prefetch_plan({0: 1.0, 1: 3.0}, {oa: 2.0, ob: 1.0}, 1, 0)
        assert plan.nodes == [0, 1]
        assert plan.objects == [oa, ob]
        assert plan.probabilities.ravel().tolist() == pytest.approx(
            [2 / 12, 1 / 12, 6 / 12, 3 / 12]
        )

    def test_uniform_inputs_give_uniform_cells(self):
        nc = {i: 2.0 for i in range(3)}
        fp = {GlobalId(i): 5.0 for i in range(4)}
        plan = prefetch_plan(nc, fp, 2, 1)
        assert np.allclose(plan.probabilities, 1.0 / 12.0)

    def test_normalization_within_tolerance(self):
        rng = np.random.default_rng(2)
        nc = {i: float(rng.uniform(0.1, 5)) for i in range(6)}
        fp = {GlobalId(i): float(rng.uniform(0.1, 5)) for i in range(7)}
        plan = prefetch_plan(nc, fp, 10, 3)
        assert abs(plan.probabilities.sum() - 1.0) <= 1e-9

    def test_draws_without_replacement(self):
        nc = {i: 1.0 for i in range(3)}
        fp = {GlobalId(i): 1.0 for i in range(3)}
        plan = prefetch_plan(nc, fp, budget=9, seed=5)
        cells = {(node, oid) for oid, node, _ in plan.placements}
        assert len(cells) == 9

    def test_deterministic_for_seed(self):
        nc = {i: float(i + 1) for i in range(4)}
        fp = {GlobalId(i): float(5 - i) for i in range(4)}
        a = prefetch_plan(nc, fp, 6, 11)
        b = prefetch_plan(nc, fp, 6, 11)
        assert a.placements == b.placements

    def test_degenerate_mass(self):
        with pytest.raises(DegenerateDistribution):
            prefetch_plan({0: 0.0}, {GlobalId(1): 0.0}, 1, 0)
        with pytest.raises(DegenerateDistribution):
            prefetch_plan({}, {}, 1, 0)


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


    def test_stale_listings_are_dropped_not_bounced_between(self):
        # A line 0-1-...-6 with the publisher at 0 and the requester at 5;
        # nodes 4 and 6 are listed but hold nothing. From 5 both are one hop
        # away (4 wins on address); from 4 the closest other is 6, and from 6
        # it is 4, so re-ranking at every hop would bounce between them.
        nodes = [Node(i, NodeKind.SWITCH) for i in range(7)]
        g = build_graph(nodes, [Edge(i, i + 1, 1) for i in range(6)], "latency_us")
        net = build_network(g, None, Resolver(), 10**6)
        obj = publish(net, net.resolver, publisher=0)
        for stale in (4, 6):
            update_binding(net.resolver, obj.id, "add", address_of(stale))
        trace = request(net, obj, origin=5)
        assert trace.path == [5, 4, 5, 6, 5, 4, 3, 2, 1, 0]
        assert (trace.hops, trace.serving_node, trace.cache_hit) == (9, 0, False)

    def test_only_stale_listings_raise_no_route(self):
        # a line 0-1-2-3-4 and an isolated node 5 that publishes the object
        nodes = [Node(i, NodeKind.SWITCH) for i in range(6)]
        g = build_graph(nodes, [Edge(i, i + 1, 1) for i in range(4)], "latency_us")
        net = build_network(g, None, Resolver(), 10**6)
        gid = register(net.resolver, "urn:gone", address_of(0))
        update_binding(net.resolver, gid, "add", address_of(4))
        net.add_object(ContentObject(gid, 10, 5))  # listed at 0 and 4, held at neither
        with pytest.raises(NoRoute, match="no reachable host"):
            handle_request(net, RequestMsg(requested=gid, origin_node=2))


def reranking_reference(net, oid, origin):
    """Per-hop forwarding written from scratch: at every element that misses,
    rank the listed hosts by BFS hops from there (lowest address on ties) and
    step to the lowest-id neighbour one hop closer to the first. The
    resolver is asked afresh, once the origin misses, and a listed host
    reached without the object is dropped. Returns (path, serving node, cache
    hit), NoRoute when no host is reachable, or Unresolvable when the
    resolver lists none."""
    g = net.graph
    edges = list(zip(g.ea.tolist(), g.eb.tolist(), g.ew.tolist()))
    adj = adjacency(g.n, edges)
    hosts = listed = None
    current, path = origin, [origin]
    # Each stale listed host is dropped once, and each leg between drops is a
    # fewest-hops path of at most n - 1 hops, so a walk that converges takes
    # fewer than (listed hosts + 1) * n steps.
    while listed is None or len(path) <= (len(listed) + 1) * g.n:
        publisher = net.objects[oid].publisher
        if current == publisher or oid in net.caches.get(current, ()):
            if current != publisher:
                net.cache_of(current).entries.move_to_end(oid)
            return path, current, current != publisher
        if hosts is None:
            try:
                hosts = listed = sorted(node_of_address(na)
                                        for na in resolve(net.resolver, oid))
            except NotFound:
                return Unresolvable
        hosts = [h for h in hosts if h != current]
        ranked = sorted(
            (bfs_hops(g.n, edges, current, h), h) for h in hosts
            if bfs_hops(g.n, edges, current, h) is not None
        )
        if not ranked:
            return NoRoute
        d, target = ranked[0]
        current = min(v for v, _ in adj[current]
                      if bfs_hops(g.n, edges, v, target) == d - 1)
        path.append(current)
    raise AssertionError("the reference did not converge")


@st.composite
def forwarding_cases(draw):
    """A random graph (a relabelled tree, or some of its links plus
    cross-links: cycles, often several components), 1 to LOCATOR_LIMIT
    listed hosts that hold the object, a few unlisted cached copies, and an
    origin."""
    n = draw(st.integers(2, 14))
    nodes = st.integers(0, n - 1)
    label = draw(st.permutations(range(n)))
    pairs = [(label[draw(st.integers(0, v - 1))], label[v]) for v in range(1, n)]
    if not draw(st.booleans()):
        # drop some tree links (components), add cross-links (cycles)
        pairs = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
        pairs += draw(st.lists(st.tuples(nodes, nodes), min_size=1, max_size=n))
    edges, seen = [], set()
    for a, b in pairs:
        if a != b and frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            edges.append((a, b))
    listed = draw(st.lists(nodes, min_size=1, max_size=LOCATOR_LIMIT, unique=True))
    held = draw(st.integers(1, len(listed)))
    cached = draw(st.lists(nodes, max_size=3, unique=True))
    return n, edges, listed[:held], cached, draw(nodes), listed[held:]


def forwarding_net(n, edges, hosts, cached, stale=(), publisher=None):
    """The resolver lists `hosts`, which hold the object, and `stale`
    nodes, which hold nothing. The publisher is the first host unless
    named; the other hosts hold registered cache copies, and `cached` nodes
    hold unregistered ones."""
    g = build_graph([Node(i, NodeKind.SWITCH) for i in range(n)],
                    [Edge(a, b, 1) for a, b in edges], "latency_us")
    net = build_network(g, None, Resolver(), 10**6)
    publisher = hosts[0] if publisher is None else publisher
    listed = [*hosts, *stale]
    obj = ContentObject(register(net.resolver, "urn:movie", address_of(listed[0])), 1000,
                        publisher)
    net.add_object(obj)
    for node in listed[1:]:
        update_binding(net.resolver, obj.id, "add", address_of(node))
    for node in [*hosts, *cached]:
        if node != publisher:
            net.cache_of(node).insert(obj.id, obj.volume)
    return net, obj


# A tree rooted at 0: 1 and 4 under 0, 2 and 3 under 1, 5 under 4, 6 under 2.
TREE = (7, [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (2, 6)])
LINE = (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])


@settings(max_examples=150, deadline=None)
@given(forwarding_cases())
@example((4, [(0, 1), (1, 2), (2, 3), (3, 0)], [2], [], 0))  # two ways round a ring
@example((6, [(0, 1), (1, 2), (3, 4)], [4, 2], [1], 0))  # host 4 is unreachable
@example(TREE + ([5, 3], [], 6))  # climbs 6-2-1, then down to 3 beside 2
@example(TREE + ([5, 1], [], 6))  # the listed copy at 1 is the origin's ancestor
@example(TREE + ([5], [], 6, [2]))  # a stale host on the climb ends it
@example(TREE + ([5], [], 6, [3]))  # a stale host beside the climb, then on to 5
# every listed node is stale: the listing empties and the request raises NoRoute
@example(LINE + ([], [], 2, [0, 3], 5))
def test_handle_request_matches_per_hop_reranking(case):
    n, edges, hosts, cached, origin, *rest = case
    net, obj = forwarding_net(n, edges, hosts, cached, *rest)
    want = reranking_reference(net, obj.id, origin)
    net, obj = forwarding_net(n, edges, hosts, cached, *rest)
    if want is NoRoute:
        with pytest.raises(NoRoute):
            request(net, obj, origin)
        return
    trace = request(net, obj, origin)
    assert (trace.path, trace.serving_node, trace.cache_hit) == want
    assert trace.hops == len(want[0]) - 1


@st.composite
def generated_tree_scripts(draw):
    """A small generated eMBB or mMTC tree, three objects published at
    nodes that do not forward (as in a run, whose publishers are servers or
    devices), prefetch placements on its forwarding elements and a run of
    requests (object, origin)."""
    if draw(st.booleans()):
        params = ScenarioParams(scenario="embb", n_devices=draw(st.integers(2, 24)),
                                devices_per_ap=4, aps_per_switch=2, switches_per_zone=2)
    else:
        params = ScenarioParams(scenario="mmtc", devices_per_gateway=8,
                                area_km2=draw(st.sampled_from([0.0002, 0.0005])))
    g = generate_topology(params, draw(st.integers(0, 2**16)))
    nodes = st.integers(0, g.n - 1)
    objects = st.integers(0, 2)
    forwarding = g.forwarding_nodes().tolist()
    others = sorted(set(range(g.n)) - set(forwarding))
    publishers = draw(st.lists(st.sampled_from(others), min_size=3, max_size=3))
    placements = draw(st.lists(st.tuples(objects, st.sampled_from(forwarding)), max_size=10))
    requests = draw(st.lists(st.tuples(objects, nodes), min_size=1, max_size=12))
    return g, publishers, placements, requests


def generated_net(g, publishers, placements):
    """Stores hold two of the three objects, so placements and deliveries
    evict, and evicting a placed copy deregisters it."""
    net = build_network(g, None, Resolver(), 200)
    gids = [publish(net, net.resolver, f"urn:obj:{k}", publisher, 100).id
            for k, publisher in enumerate(publishers)]
    apply_prefetch(net, PrefetchPlan([(gids[k], node, 1.0) for k, node in placements],
                                     [], [], np.ones((1, 1))))
    return net, gids


@settings(max_examples=40, deadline=None)
@given(generated_tree_scripts())
def test_climb_on_generated_trees_matches_per_hop_reranking(case):
    g, publishers, placements, requests = case
    assert g.is_tree()
    net, gids = generated_net(g, publishers, placements)
    ref, ref_gids = generated_net(g, publishers, placements)
    for k, origin in requests:
        want = reranking_reference(ref, ref_gids[k], origin)
        trace = request(net, net.objects[gids[k]], origin)
        assert (trace.path, trace.serving_node, trace.cache_hit) == want
        deliver_data(net, trace)
        path, serving, hit = want
        deliver_data(ref, DeliveryTrace(trace.request, path, len(path) - 1, serving,
                                        hit, 100))
        assert net.explicit == ref.explicit


class TestClimb:
    """On a tree a request climbs while no listed host lies below it and
    asks `closest_path` only from the first element that has one."""

    def counted_paths(self, monkeypatch):
        calls = []

        def counted(g, u, targets):
            calls.append((u, tuple(targets)))
            return closest_path(g, u, targets)

        monkeypatch.setattr(userplane, "closest_path", counted)
        return calls

    def test_a_copy_at_the_access_point_needs_no_path(self, monkeypatch):
        g, net, res = make_net()
        obj = publish(net, res)
        net.cache_of(3).insert(obj.id, obj.volume)
        calls = self.counted_paths(monkeypatch)
        trace = request(net, obj, origin=4)
        assert (trace.path, trace.serving_node, trace.cache_hit) == ([4, 3], 3, True)
        assert calls == []

    def test_the_path_starts_where_a_listed_host_lies_below(self, monkeypatch):
        g, net, res = make_net()
        obj = publish(net, res)
        calls = self.counted_paths(monkeypatch)
        assert request(net, obj, origin=4).path == [4, 3, 2, 0, 1]
        assert calls == [(0, (1,))]
        net.cache_of(2).insert(obj.id, obj.volume)
        update_binding(res, obj.id, "add", address_of(2))
        assert request(net, obj, origin=5).path == [5, 3, 2]
        assert calls == [(0, (1,))]


class TestListedHosts:
    """The user plane keeps each identifier's host list until the resolver's
    next binding change."""

    def test_above_holds_each_hosts_chain_to_the_root(self):
        g, net, res = make_net()  # a tree: 1 and 2 under 0, 3 under 2, 4 and 5 under 3
        obj = publish(net, res)
        assert net.listing(obj.id) == ((1,), {0, 1})
        update_binding(res, obj.id, "add", address_of(3))
        assert net.listing(obj.id) == ((1, 3), {0, 1, 2, 3})
        ring = build_graph([Node(i, NodeKind.SWITCH) for i in range(3)],
                           [Edge(0, 1, 1), Edge(1, 2, 1), Edge(0, 2, 1)], "latency_us")
        off_tree = build_network(ring, None, Resolver(), 10**6)
        obj = publish(off_tree, off_tree.resolver, publisher=2)
        assert off_tree.listing(obj.id) == ((2,), None)

    def indirect_net(self):
        g, net, res = make_net()
        dev = register(res, "urn:dev:a", address_of(4))
        other = register(res, "urn:dev:b", address_of(5))
        gid = register_indirect(res, "urn:data", dev)
        net.add_object(ContentObject(gid, 10, 4))
        return net, res, gid, other

    def test_each_direct_mutation_refreshes_the_list(self):
        g, net, res = make_net()
        obj = publish(net, res)
        assert net.listing(obj.id)[0] == (1,)
        register(res, "urn:movie", address_of(3))
        assert net.listing(obj.id)[0] == (1, 3)
        update_binding(res, obj.id, "add", address_of(0))
        assert net.listing(obj.id)[0] == (0, 1, 3)
        update_binding(res, obj.id, "remove", address_of(1))
        assert net.listing(obj.id)[0] == (0, 3)

    def test_each_indirect_mutation_refreshes_the_list(self):
        net, res, gid, other = self.indirect_net()
        assert net.listing(gid)[0] == (4,)
        register(res, "urn:dev:a", address_of(2))  # the target moves
        assert net.listing(gid)[0] == (2, 4)
        update_binding(res, res.table[gid].indirect_target, "remove", address_of(4))
        assert net.listing(gid)[0] == (2,)
        register_indirect(res, "urn:data", other)  # re-targeted
        assert net.listing(gid)[0] == (5,)

    @pytest.mark.parametrize("mutate", [
        lambda res, gid: register(res, "urn:x", address_of(0)),
        lambda res, gid: register_indirect(res, "urn:y", gid),
        lambda res, gid: update_binding(res, gid, "add", address_of(0)),
        lambda res, gid: update_binding(res, gid, "remove", address_of(0)),
    ], ids=["register", "register_indirect", "add", "remove"])
    def test_every_mutation_moves_the_counter_and_drops_the_lists(self, mutate):
        net, res, gid, _ = self.indirect_net()
        net.listing(gid)
        before = res.mutations
        mutate(res, gid)
        assert res.mutations == before + 1
        assert net.listing(gid)[0] == tuple(
            sorted(node_of_address(na) for na in resolve(res, gid)))
        assert net._hosts_at == res.mutations

    def test_rejected_mutations_leave_the_counter(self):
        g, net, res = make_net()
        obj = publish(net, res)
        for node in (0, 2, 3):
            update_binding(res, obj.id, "add", address_of(node))
        before = res.mutations
        with pytest.raises(LocatorLimitExceeded):
            update_binding(res, obj.id, "add", address_of(4))
        with pytest.raises(LocatorLimitExceeded):
            register(res, "urn:movie", address_of(5))
        with pytest.raises(NotFound):
            update_binding(res, GlobalId(7), "add", address_of(4))
        assert res.mutations == before

    def test_a_failed_resolve_is_not_kept(self, monkeypatch):
        g, net, res = make_net()
        obj = ContentObject(GlobalId(999), 10, 1)
        net.add_object(obj)  # in the catalog, never registered
        lookups = []

        def counted(*args):
            lookups.append(args)
            return resolve(*args)

        monkeypatch.setattr(userplane, "resolve", counted)
        for _ in range(2):
            with pytest.raises(Unresolvable):
                request(net, obj, origin=4)
        assert len(lookups) == 2 and net._hosts == {}

    def test_one_lookup_per_identifier_between_changes(self, monkeypatch):
        g, net, res = make_net(capacity=0)
        obj = publish(net, res)
        lookups = []

        def counted(*args):
            lookups.append(args)
            return resolve(*args)

        monkeypatch.setattr(userplane, "resolve", counted)
        for origin in (4, 5, 4):
            assert request(net, obj, origin).hops == 4
        assert len(lookups) == 1
        update_binding(res, obj.id, "add", address_of(0))
        request(net, obj, 4)
        assert len(lookups) == 2

    def test_a_stale_drop_leaves_the_kept_list_whole(self):
        nodes = [Node(i, NodeKind.SWITCH) for i in range(7)]
        g = build_graph(nodes, [Edge(i, i + 1, 1) for i in range(6)], "latency_us")
        net = build_network(g, None, Resolver(), 10**6)
        obj = publish(net, net.resolver, publisher=0)
        for stale in (4, 6):
            update_binding(net.resolver, obj.id, "add", address_of(stale))
        assert request(net, obj, origin=5).serving_node == 0
        assert net.listing(obj.id)[0] == (0, 4, 6)
        assert request(net, obj, origin=4).path == [4, 5, 6, 5, 4, 3, 2, 1, 0]

    def test_a_listed_node_outside_the_graph_is_invalid(self):
        g, net, res = make_net()
        obj = publish(net, res)
        update_binding(res, obj.id, "add", address_of(g.n))
        for _ in range(2):
            with pytest.raises(InvalidParams):
                request(net, obj, origin=4)


@st.composite
def binding_scripts(draw):
    """A forwarding case's graph, three publishers and a script that
    interleaves binding changes, explicit placements and requests."""
    n, edges, *_ = draw(forwarding_cases())
    nodes = st.integers(0, n - 1)
    publishers = draw(st.lists(nodes, min_size=3, max_size=3))
    request = st.tuples(st.just("request"), st.integers(0, 1), nodes)
    ops = draw(st.lists(st.one_of(
        request, request, request,
        st.tuples(st.just("register"), st.sampled_from(HRNS), nodes),
        st.tuples(st.just("retarget"), st.integers(0, 1)),
        st.tuples(st.just("update"), st.integers(0, 1),
                  st.sampled_from(["add", "remove"]), nodes),
        st.tuples(st.just("place"), st.integers(0, 1), nodes),
    ), min_size=4, max_size=40))
    return n, edges, publishers, ops


HRNS = ("urn:obj:0", "urn:obj:1", "urn:dev:0", "urn:dev:1")


def scripted_net(n, edges, publishers):
    """Object 0 is listed at publishers[0]. Object 1 binds to device 0,
    listed at publishers[1], which publishes it; device 1 is listed at
    publishers[2]. Each store holds one object."""
    g = build_graph([Node(i, NodeKind.SWITCH) for i in range(n)],
                    [Edge(a, b, 1) for a, b in edges], "latency_us")
    net = build_network(g, None, Resolver(), 100)
    res = net.resolver
    devices = [register(res, f"urn:dev:{k}", address_of(publishers[k + 1]))
               for k in range(2)]
    gids = [register(res, "urn:obj:0", address_of(publishers[0])),
            register_indirect(res, "urn:obj:1", devices[0])]
    for gid, publisher in zip(gids, publishers):
        net.add_object(ContentObject(gid, 100, publisher))
    return net, gids, devices


def play(net, gids, devices, op):
    """Apply one scripted step other than a request; a change the resolver
    rejects changes nothing."""
    res = net.resolver
    try:
        if op[0] == "register":
            register(res, op[1], address_of(op[2]))
        elif op[0] == "retarget":
            register_indirect(res, "urn:obj:1", devices[op[1]])
        elif op[0] == "update":
            update_binding(res, gids[op[1]], op[2], address_of(op[3]))
        elif op[0] == "place":
            plan = PrefetchPlan([(gids[op[1]], op[2], 1.0)], [op[2]], [gids[op[1]]],
                                np.ones((1, 1)))
            apply_prefetch(net, plan)
    except (LocatorLimitExceeded, NotFound):
        pass


# A path 0-1-2-3 with node 4 off node 2 and node 5 off node 1. A request
# from 5 leaves copies at 5 and 1; from 3, node 4 is then two hops away and
# node 0 three, so a listing at 4 changes the path from 3.
FORK = (6, [(0, 1), (1, 2), (2, 3), (2, 4), (1, 5)], [0, 0, 4])


@settings(max_examples=200, deadline=None)
@given(binding_scripts())
@example(FORK + ([("request", 0, 5), ("register", "urn:obj:0", 4), ("request", 0, 3)],))
@example(FORK + ([("request", 0, 5), ("update", 0, "add", 4), ("request", 0, 3)],))
@example(FORK + ([("request", 0, 5), ("update", 0, "remove", 0), ("request", 0, 3)],))
@example(FORK + ([("request", 1, 5), ("retarget", 1), ("request", 1, 3)],))
@example(FORK + ([("request", 1, 5), ("register", "urn:dev:0", 4),  # the target moves
                  ("request", 1, 3)],))
# a request that passes two stale listed hosts walks 13 hops before NoRoute
@example((12, [(2, 4), (2, 0), (2, 7), (2, 6), (4, 5), (7, 1), (2, 3), (2, 8), (6, 9),
               (2, 10), (2, 11)], [0, 8, 1],
          [("retarget", 1), ("register", "urn:obj:1", 0), ("register", "urn:obj:1", 9),
           ("update", 1, "add", 5), ("request", 1, 3)]))
def test_kept_host_lists_match_a_fresh_resolve_per_request(case):
    """Every request against the kept host lists takes the path a fresh
    resolve would give, across binding changes, re-targeted indirect
    records and evictions of explicit copies, on trees and on cyclic, often
    disconnected graphs."""
    n, edges, publishers, ops = case
    net, gids, devices = scripted_net(n, edges, publishers)
    ref, ref_gids, ref_devices = scripted_net(n, edges, publishers)
    for op in ops:
        if op[0] != "request":
            play(net, gids, devices, op)
            play(ref, ref_gids, ref_devices, op)
            assert dump_table(net.resolver) == dump_table(ref.resolver)
            continue
        _, k, origin = op
        want = reranking_reference(ref, ref_gids[k], origin)
        if want in (NoRoute, Unresolvable):
            with pytest.raises(want):
                request(net, net.objects[gids[k]], origin)
            continue
        trace = request(net, net.objects[gids[k]], origin)
        assert (trace.path, trace.serving_node, trace.cache_hit) == want
        deliver_data(net, trace)
        path, serving, hit = want
        deliver_data(ref, DeliveryTrace(trace.request, path, len(path) - 1, serving,
                                        hit, 100))
        assert net.explicit == ref.explicit


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
        plan = prefetch_plan({3: 1.0}, {obj.id: 1.0}, budget=1, seed=0)
        placed = apply_prefetch(net, plan)
        assert placed == [(obj.id, 3)]
        assert address_of(3) in resolve(res, obj.id)
        trace = request(net, obj, origin=5)
        assert trace.hops == 1 and trace.cache_hit

    def test_placement_outside_the_graph_changes_nothing(self):
        g, net, res = make_net()
        obj = publish(net, res)
        plan = prefetch_plan({g.n: 1.0}, {obj.id: 1.0}, budget=1, seed=0)
        with pytest.raises(InvalidParams):
            apply_prefetch(net, plan)
        assert resolve(res, obj.id) == frozenset({address_of(1)})
        assert net.caches == {} and net.explicit == set()

    def test_eviction_deregisters_explicit_copy(self):
        g, net, res = make_net(capacity=1000)
        obj = publish(net, res, volume=1000)
        other = publish(net, res, hrn="urn:other", volume=1000)
        plan = prefetch_plan({3: 1.0}, {obj.id: 1.0}, budget=1, seed=0)
        apply_prefetch(net, plan)
        assert address_of(3) in resolve(res, obj.id)
        net.cache_of(3).insert(other.id, other.volume)  # evicts obj
        assert address_of(3) not in resolve(res, obj.id)

    def test_placement_at_the_publisher_is_skipped(self):
        # a copy there, once evicted, would deregister the publisher itself
        g, net, res = make_net(capacity=1000)
        obj = publish(net, res, volume=1000)
        other = publish(net, res, hrn="urn:other", volume=1000)
        plan = prefetch_plan({1: 1.0}, {obj.id: 1.0}, budget=1, seed=0)
        assert apply_prefetch(net, plan) == []
        assert net.caches == {} and net.explicit == set()
        net.cache_of(1).insert(other.id, other.volume)
        assert resolve(res, obj.id) == frozenset({address_of(1)})
        trace = request(net, obj, origin=5)
        assert trace.serving_node == 1 and not trace.cache_hit



def insert_calling_back_on_every_eviction(store, oid, size):
    """CacheStore.insert as it was when every eviction called back, with
    the network checking each evicted (node, id) against `net.explicit`."""
    if size > store.media_capacity:
        return False
    if oid in store.entries:
        store.used -= store.entries.pop(oid)
    net = store.on_evict.__self__
    while store.used + size > store.media_capacity:
        evicted_id, evicted = store.entries.popitem(last=False)
        store.used -= evicted
        if (store.owner, evicted_id) in net.explicit:
            net.explicit.discard((store.owner, evicted_id))
            net.deregistered.append((store.owner, evicted_id))
            try:
                update_binding(net.resolver, evicted_id, "remove", address_of(store.owner))
            except NotFound:
                pass
    store.entries[oid] = size
    store.used += size
    return True


@st.composite
def evicting_points(draw):
    """Small points of every scenario with prefetch on and stores of a few
    objects, so placements and deliveries evict prefetched copies."""
    scenario = draw(st.sampled_from(["embb", "urllc", "mmtc"]))
    sweep = {"embb": [8.0, 64.0], "urllc": [1.0, 8.0], "mmtc": [3.0, 20.0]}[scenario]
    return ScenarioParams(
        scenario=scenario,
        sweep_values=(draw(st.sampled_from(sweep)),),
        seed=draw(st.integers(0, 50)),
        n_devices=draw(st.integers(2, 80)),
        devices_per_ap=draw(st.integers(1, 8)),
        area_km2=0.005,
        catalog_size=draw(st.integers(2, 16)),
        request_count=draw(st.integers(1, 200)),
        cache_fraction=draw(st.sampled_from([0.1, 0.2, 0.4])),
        prefetch_budget=draw(st.integers(1, 24)),
        prefetch_top_j=draw(st.integers(1, 16)),
    )


def replayed(params, reference):
    """(report.csv text, the network) of one point, its deregistrations of
    evicted explicit copies in `net.deregistered`: through the callback as
    it runs, or, as `reference`, through a check of every eviction."""
    nets = []
    build, deregister = build_network, userplane.NetState._deregister_explicit

    def kept(*args):
        nets.append(build(*args))
        nets[-1].deregistered = []
        return nets[-1]

    def counted(net, node, oid):
        net.deregistered.append((node, oid))
        deregister(net, node, oid)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(userplane, "build_network", kept)
        mp.setattr(userplane.NetState, "_deregister_explicit", counted)
        if reference:
            mp.setattr(userplane.CacheStore, "insert", insert_calling_back_on_every_eviction)
        text = reports_to_csv(run_scenario(params))
    (net,) = nets
    return text, net


@settings(max_examples=40, deadline=None)
@given(evicting_points())
@example(ScenarioParams(scenario="embb", sweep_values=(8.0,), n_devices=40,
                        catalog_size=12, request_count=120, cache_fraction=0.2,
                        prefetch_budget=16))
def test_only_evicted_explicit_copies_call_back(params):
    """The eviction callback runs once per evicted explicit copy, in the
    order of the evictions that a check of every evicted entry finds, and
    the explicit copies, the resolver and the report end as they do then."""
    text, net = replayed(params, reference=False)
    ref_text, ref = replayed(params, reference=True)
    assert net.deregistered == ref.deregistered
    assert text == ref_text
    assert net.explicit == ref.explicit
    assert net.explicit == {(node, oid) for node, store in net.caches.items()
                            for oid in store.explicit}
    assert dump_table(net.resolver) == dump_table(ref.resolver)
    for oid in net.objects:
        assert net.listing(oid)[0] == ref.listing(oid)[0]


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
