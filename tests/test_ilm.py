import pytest
from hypothesis import given, settings, strategies as st

from icnsim.containment import Target, containerize, hierarchy_from_text, hierarchy_to_text
from icnsim.errors import (
    CollisionDetected,
    SimError,
    EmptyHrn,
    IndirectLoop,
    InvalidParams,
    LocatorLimitExceeded,
    NamespaceExhausted,
    NotFound,
)
from icnsim.ilm import (
    Gateway,
    GlobalId,
    NamingService,
    NetworkAddress,
    build_ilm_tree,
    dump_table,
    register,
    register_indirect,
    resolve,
    update_binding,
)
from icnsim.evaluation import ScenarioParams
from icnsim.topology import Edge, Node, NodeKind, build_graph, generate_topology


def na(last: int) -> NetworkAddress:
    return NetworkAddress("v4", (10 << 24) + last)


def chain_tree(n_leaf_pairs=3):
    """Line graph with tight pairs so the hierarchy has two genuine levels."""
    n = 2 * n_leaf_pairs
    nodes = [Node(i, NodeKind.SWITCH) for i in range(n)]
    edges = []
    for p in range(n_leaf_pairs):
        edges.append(Edge(2 * p, 2 * p + 1, 1))
        if p:
            edges.append(Edge(2 * p - 1, 2 * p, 10))
    g = build_graph(nodes, edges, "latency_us")
    h = containerize(g, [Target(1, 5), Target(2, 50)])
    return g, h, build_ilm_tree(h)


class TestNaming:
    def test_deterministic_ids(self):
        ns = NamingService()
        assert ns.assign_id("urn:a") == ns.assign_id("urn:a")

    def test_distinct_hrns_distinct_ids(self):
        ns = NamingService()
        assert ns.assign_id("urn:a") != ns.assign_id("urn:b")

    def test_empty_hrn(self):
        with pytest.raises(EmptyHrn):
            NamingService().assign_id("")

    def test_collision_detected_is_fatal(self):
        ns = NamingService()
        gid = ns.assign_id("urn:a")
        ns._hrn_of[gid] = "urn:other"  # forge a prior claim on the digest
        with pytest.raises(CollisionDetected):
            ns.assign_id("urn:a")

    def test_width_is_160_bits(self):
        gid = NamingService().assign_id("urn:wide")
        assert 0 <= gid.value < 1 << 160
        assert len(gid.hex) == 40


class TestRegisterResolve:
    def test_leaf_registration_resolves_at_root(self):
        _, h, tree = chain_tree()
        leaf = tree.levels[0][0]
        gid = register(leaf, "urn:cam", na(1))
        assert resolve(tree.root, gid) == frozenset({na(1)})

    def test_resolves_from_every_tree_position(self):
        _, h, tree = chain_tree()
        gid = register(tree.levels[0][2], "urn:obj", na(9))
        for row in tree.levels:
            for node in row:
                assert resolve(node, gid) == frozenset({na(9)})

    def test_fifth_locator_rejected(self):
        _, _, tree = chain_tree()
        leaf = tree.levels[0][0]
        for i in range(4):
            register(leaf, "urn:multi", na(i))
        with pytest.raises(LocatorLimitExceeded):
            register(leaf, "urn:multi", na(99))

    def test_idempotent_registration(self):
        _, _, tree = chain_tree()
        leaf = tree.levels[0][1]
        gid = register(leaf, "urn:same", na(7))
        register(leaf, "urn:same", na(7))
        assert resolve(leaf, gid) == frozenset({na(7)})

    def test_unknown_id_not_found(self):
        _, _, tree = chain_tree()
        with pytest.raises(NotFound):
            resolve(tree.root, GlobalId(12345))


class TestIndirect:
    def test_data_id_chases_device_id(self):
        _, _, tree = chain_tree()
        leaf = tree.levels[0][0]
        device = register(leaf, "urn:device", na(3))
        data = register_indirect(leaf, "urn:data", device)
        assert resolve(tree.root, data) == frozenset({na(3)})

    def test_own_and_chased_locators_combine(self):
        _, _, tree = chain_tree()
        leaf = tree.levels[0][0]
        device = register(leaf, "urn:dev2", na(4))
        data = register_indirect(leaf, "urn:data2", device)
        update_binding(leaf, data, "add", na(8))  # cached copy alongside
        assert resolve(tree.root, data) == frozenset({na(4), na(8)})

    def test_self_cycle_detected(self):
        _, _, tree = chain_tree()
        leaf = tree.levels[0][0]
        device = register(leaf, "urn:loop-dev", na(5))
        data = register_indirect(leaf, "urn:loop-data", device)
        register_indirect(leaf, "urn:loop-dev", device)  # device -> itself
        with pytest.raises(IndirectLoop):
            resolve(tree.root, data)

    def test_unresolved_target_not_found(self):
        _, _, tree = chain_tree()
        leaf = tree.levels[0][0]
        data = register_indirect(leaf, "urn:dangling", GlobalId(777))
        with pytest.raises(NotFound):
            resolve(tree.root, data)


class TestUpdateBinding:
    def test_add_then_resolve(self):
        _, _, tree = chain_tree()
        leaf = tree.levels[0][0]
        gid = register(leaf, "urn:mv", na(1))
        update_binding(leaf, gid, "add", na(2))
        assert resolve(tree.root, gid) == frozenset({na(1), na(2)})

    def test_remove_reflected_everywhere(self):
        _, _, tree = chain_tree()
        leaf = tree.levels[0][0]
        gid = register(leaf, "urn:mv2", na(1))
        update_binding(leaf, gid, "add", na(2))
        update_binding(tree.root, gid, "remove", na(1))
        for row in tree.levels:
            for node in row:
                assert na(1) not in resolve(node, gid)

    def test_removing_last_locator_deletes_record(self):
        _, _, tree = chain_tree()
        leaf = tree.levels[0][0]
        gid = register(leaf, "urn:gone", na(1))
        update_binding(leaf, gid, "remove", na(1))
        with pytest.raises(NotFound):
            resolve(tree.root, gid)
        assert gid not in leaf.table and gid not in tree.root.table

    def test_update_unknown_id(self):
        _, _, tree = chain_tree()
        with pytest.raises(NotFound):
            update_binding(tree.root, GlobalId(1), "add", na(1))

    def test_sustained_update_workload(self):
        # 1000 identifiers each updated 100 times, coherent afterwards
        _, _, tree = chain_tree()
        leaves = tree.levels[0]
        gids = [
            register(leaves[i % len(leaves)], f"urn:w:{i}", na(i % 200))
            for i in range(1000)
        ]
        for day_update in range(100):
            for i, gid in enumerate(gids):
                leaf = leaves[i % len(leaves)]
                update_binding(leaf, gid, "add", na((i + day_update + 1) % 250 + 1))
                update_binding(leaf, gid, "remove", na((i + day_update) % 250 + 1))
        for i, gid in enumerate(gids):
            locs = resolve(tree.root, gid)
            assert 1 <= len(locs) <= 4


class TestLocalDomain:
    def test_first_registration_gets_zero(self):
        gw = Gateway(NamingService())
        assert gw.register_local("urn:t0") == 0

    def test_namespace_exhausts_at_257(self):
        gw = Gateway(NamingService())
        for i in range(256):
            assert gw.register_local(f"urn:t{i}") == i
        with pytest.raises(NamespaceExhausted):
            gw.register_local("urn:t-too-many")

    def test_freed_short_name_is_reused(self):
        gw = Gateway(NamingService())
        for i in range(256):
            gw.register_local(f"urn:r{i}")
        gw.deregister_local(97)
        assert gw.register_local("urn:r-new") == 97

    def test_round_trip_bijection(self):
        gw = Gateway(NamingService())
        for i in range(40):
            lid = gw.register_local(f"urn:x{i}")
            assert gw.translate_back(gw.translate(lid)) == lid

    def test_unallocated_short_name(self):
        gw = Gateway(NamingService())
        with pytest.raises(NotFound):
            gw.translate(9)

    def test_domains_scope_short_names_independently(self):
        ns = NamingService()
        gw1, gw2 = Gateway(ns), Gateway(ns)
        lid1 = gw1.register_local("urn:d1")
        lid2 = gw2.register_local("urn:d2")
        assert lid1 == lid2 == 0
        assert gw1.translate(0) != gw2.translate(0)


class TestDump:
    def test_dump_format_and_ordering(self):
        _, _, tree = chain_tree()
        leaf = tree.levels[0][0]
        a = register(leaf, "urn:a", na(1))
        b = register(leaf, "urn:b", na(2))
        register_indirect(leaf, "urn:c", a)
        lines = dump_table(tree.root).splitlines()
        assert len(lines) == 3
        assert [ln.split()[1] for ln in lines] == sorted(ln.split()[1] for ln in lines)
        for ln in lines:
            parts = ln.split()
            assert parts[0] == "rec"
            assert len(parts[1]) == 40
        by_hrn = {ln.split()[2]: ln.split() for ln in lines}
        assert by_hrn["urn:c"][3] == a.hex
        assert by_hrn["urn:a"][4] == "10.0.0.1"


class TestBuildTree:
    def test_one_resolver_per_container_under_one_root(self):
        _, h, tree = chain_tree()
        assert [len(row) for row in tree.levels] == [len(row) for row in h.levels]
        for row in tree.levels:
            for node in row:
                assert node.root is tree.root and node.table is tree.root.table
        for li in range(len(h.levels) - 1):
            upper = tree.levels[li + 1]
            for c, node in zip(h.levels[li], tree.levels[li]):
                assert c.members <= h.levels[li + 1][upper.index(node.parent)].members
        assert all(node.parent is tree.root for node in tree.levels[-1])

    def test_hierarchy_without_level_labels_is_rejected(self):
        _, h, _ = chain_tree()
        with pytest.raises(InvalidParams):
            build_ilm_tree(hierarchy_from_text(hierarchy_to_text(h)))


# -- resolution does not depend on the asking resolver ------------------------

PROPERTY_HRNS = [f"urn:p:{i}" for i in range(5)]
PROPERTY_GIDS = [NamingService().assign_id(h) for h in PROPERTY_HRNS]
UNKNOWN_GID = GlobalId(12345)


def _outcome(node, gid):
    try:
        return resolve(node, gid)
    except SimError as exc:
        return type(exc)


_slot = st.integers(0, 10**6)  # resolver position, modulo the resolver count
_name = st.integers(0, len(PROPERTY_HRNS) - 1)
_addr = st.integers(0, 5)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("register"), _slot, _name, _addr),
        st.tuples(st.just("indirect"), _slot, _name, _name),
        st.tuples(st.sampled_from(["add", "remove"]), _slot, _name, _addr),
    ),
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(_ops)
def test_every_resolver_answers_like_the_root(ops):
    g = generate_topology(ScenarioParams(scenario="embb", n_devices=48), 2)
    tree = build_ilm_tree(
        containerize(g, [Target(1, 1_000), Target(2, 150_000), Target(3, 500_000)])
    )
    resolvers = [tree.root] + [node for row in tree.levels for node in row]
    assert len(tree.levels) == 3
    for action, slot, k, arg in ops:
        node = resolvers[slot % len(resolvers)]
        try:
            if action == "register":
                register(node, PROPERTY_HRNS[k], na(arg))
            elif action == "indirect":
                register_indirect(node, PROPERTY_HRNS[k], PROPERTY_GIDS[arg])
            else:
                update_binding(node, PROPERTY_GIDS[k], action, na(arg))
        except SimError:
            pass
    for node in resolvers:
        assert node.root is tree.root
        for gid, rec in node.table.items():
            assert tree.root.table[gid] is rec
        for gid in PROPERTY_GIDS:
            assert _outcome(node, gid) == _outcome(tree.root, gid)
        assert _outcome(node, UNKNOWN_GID) is NotFound
        assert dump_table(node) == dump_table(tree.root)
