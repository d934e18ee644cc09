import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from icnsim.containment import Target, containerize, hierarchy_from_text, hierarchy_to_text
from icnsim.errors import (
    CollisionDetected,
    EmptyHrn,
    IndirectLoop,
    InvalidParams,
    LocatorLimitExceeded,
    NotFound,
)
from icnsim.ilm import (
    GlobalId,
    NamingService,
    NetworkAddress,
    Resolver,
    build_ilm_tree,
    dump_table,
    register,
    register_indirect,
    resolve,
    update_binding,
)
from icnsim.topology import Edge, Node, NodeKind, build_graph
from icnsim.userplane import build_network

from oracles import IlmModel


def na(last: int) -> NetworkAddress:
    return NetworkAddress("v4", (10 << 24) + last)


def chain_hierarchy(n_leaf_pairs=3):
    """Line graph with tight pairs so the hierarchy has two genuine levels."""
    n = 2 * n_leaf_pairs
    nodes = [Node(i, NodeKind.SWITCH) for i in range(n)]
    edges = []
    for p in range(n_leaf_pairs):
        edges.append(Edge(2 * p, 2 * p + 1, 1))
        if p:
            edges.append(Edge(2 * p - 1, 2 * p, 10))
    g = build_graph(nodes, edges, "latency_us")
    return g, containerize(g, [Target(1, 5), Target(2, 50)])


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


class TestGlobalId:
    @pytest.mark.parametrize("bad", [1.5, -1, 1 << 160, "7", None])
    def test_non_integers_and_out_of_range_values_raise(self, bad):
        with pytest.raises(InvalidParams):
            GlobalId(bad)

    def test_value_is_a_plain_int(self):
        gid = GlobalId((1 << 160) - 1)
        assert type(gid.value) is int and gid.value == (1 << 160) - 1
        assert gid.hex == "f" * 40 and repr(gid) == "GlobalId(ffffffff..)"

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trips(self, protocol):
        gid = NamingService().assign_id("urn:pickled")
        back = pickle.loads(pickle.dumps(gid, protocol))
        assert type(back) is GlobalId and back == gid and back.hex == gid.hex

    def test_hashes_and_orders_in_c(self):
        # no Python-level __hash__ or __lt__ runs on a dict or sort by id
        assert GlobalId.__hash__ is int.__hash__ and GlobalId.__lt__ is int.__lt__


class TestRegisterResolve:
    def test_leaf_registration_resolves_at_root(self):
        res = Resolver()
        gid = register(res, "urn:cam", na(1))
        assert resolve(res, gid) == frozenset({na(1)})
        assert res.table[gid].locators == {na(1)}

    def test_resolves_from_every_tree_position(self):
        # every node's local resolver is the run's one resolver
        g, h = chain_hierarchy()
        net = build_network(g, h, build_ilm_tree(h), 10**6)
        gid = register(net.local_ilm(4), "urn:obj", na(9))
        for node in range(g.n):
            assert net.local_ilm(node) is net.resolver
            assert resolve(net.local_ilm(node), gid) == frozenset({na(9)})

    def test_fifth_locator_rejected(self):
        res = Resolver()
        for i in range(4):
            register(res, "urn:multi", na(i))
        with pytest.raises(LocatorLimitExceeded):
            register(res, "urn:multi", na(99))

    def test_idempotent_registration(self):
        res = Resolver()
        gid = register(res, "urn:same", na(7))
        register(res, "urn:same", na(7))
        assert resolve(res, gid) == frozenset({na(7)})

    def test_unknown_id_not_found(self):
        with pytest.raises(NotFound):
            resolve(Resolver(), GlobalId(12345))


class TestIndirect:
    def test_data_id_chases_device_id(self):
        res = Resolver()
        device = register(res, "urn:device", na(3))
        data = register_indirect(res, "urn:data", device)
        assert resolve(res, data) == frozenset({na(3)})

    def test_own_and_chased_locators_combine(self):
        res = Resolver()
        device = register(res, "urn:dev2", na(4))
        data = register_indirect(res, "urn:data2", device)
        update_binding(res, data, "add", na(8))  # cached copy alongside
        assert resolve(res, data) == frozenset({na(4), na(8)})

    def test_self_cycle_detected(self):
        res = Resolver()
        device = register(res, "urn:loop-dev", na(5))
        data = register_indirect(res, "urn:loop-data", device)
        register_indirect(res, "urn:loop-dev", device)  # device -> itself
        with pytest.raises(IndirectLoop):
            resolve(res, data)

    def test_unresolved_target_not_found(self):
        res = Resolver()
        data = register_indirect(res, "urn:dangling", GlobalId(777))
        with pytest.raises(NotFound):
            resolve(res, data)


class TestUpdateBinding:
    def test_add_then_resolve(self):
        res = Resolver()
        gid = register(res, "urn:mv", na(1))
        update_binding(res, gid, "add", na(2))
        assert resolve(res, gid) == frozenset({na(1), na(2)})

    def test_remove_reflected_everywhere(self):
        res = Resolver()
        gid = register(res, "urn:mv2", na(1))
        update_binding(res, gid, "add", na(2))
        assert update_binding(res, gid, "remove", na(1)) == frozenset({na(2)})
        assert resolve(res, gid) == frozenset({na(2)})
        assert dump_table(res).split()[-1] == "10.0.0.2"

    def test_removing_last_locator_deletes_record(self):
        res = Resolver()
        gid = register(res, "urn:gone", na(1))
        update_binding(res, gid, "remove", na(1))
        with pytest.raises(NotFound):
            resolve(res, gid)
        assert gid not in res.table

    def test_update_unknown_id(self):
        with pytest.raises(NotFound):
            update_binding(Resolver(), GlobalId(1), "add", na(1))

    def test_sustained_update_workload(self):
        # 1000 identifiers each updated 100 times, coherent afterwards
        res = Resolver()
        gids = [register(res, f"urn:w:{i}", na(i % 200)) for i in range(1000)]
        for day_update in range(100):
            for i, gid in enumerate(gids):
                update_binding(res, gid, "add", na((i + day_update + 1) % 250 + 1))
                update_binding(res, gid, "remove", na((i + day_update) % 250 + 1))
        for gid in gids:
            locs = resolve(res, gid)
            assert 1 <= len(locs) <= 4


class TestDump:
    def test_dump_format_and_ordering(self):
        res = Resolver()
        a = register(res, "urn:a", na(1))
        register(res, "urn:b", na(2))
        register_indirect(res, "urn:c", a)
        lines = dump_table(res).splitlines()
        assert len(lines) == 3
        assert [ln.split()[1] for ln in lines] == sorted(ln.split()[1] for ln in lines)
        for ln in lines:
            parts = ln.split()
            assert parts[0] == "rec"
            assert len(parts[1]) == 40
        by_hrn = {ln.split()[2]: ln.split() for ln in lines}
        assert by_hrn["urn:c"][3] == a.hex
        assert by_hrn["urn:a"][4] == "10.0.0.1"

    def test_indirect_target_zero_is_dumped(self):
        res = Resolver()
        register_indirect(res, "urn:z", GlobalId(0))
        assert dump_table(res).split()[3] == "0" * 40


class TestBuildTree:
    def test_one_fresh_resolver_per_build(self):
        _, h = chain_hierarchy()
        first, second = build_ilm_tree(h), build_ilm_tree(h)
        assert isinstance(first, Resolver) and isinstance(second, Resolver)
        assert first.table == {} and first.table is not second.table
        assert first.naming is not second.naming

    def test_hierarchy_without_level_labels_is_accepted(self):
        g, h = chain_hierarchy()
        dumped = hierarchy_from_text(hierarchy_to_text(h), g)
        res = build_ilm_tree(dumped)
        assert isinstance(res, Resolver) and res.table == {}
        net = build_network(g, dumped, res, 10**6)
        gid = register(net.resolver, "urn:a", na(1))
        assert {a.value for a in resolve(net.resolver, gid)} == {na(1).value}


# -- the resolver against the reference record model ---------------------------

PROPERTY_HRNS = [f"urn:p:{i}" for i in range(3)]
PROPERTY_GIDS = [NamingService().assign_id(h) for h in PROPERTY_HRNS]
UNKNOWN_GID = NamingService().assign_id("urn:p:never-registered")
TARGETS = PROPERTY_GIDS + [UNKNOWN_GID]

_ERROR_NAMES = {NotFound: "not_found", LocatorLimitExceeded: "limit", IndirectLoop: "loop"}


def _outcome(call, *args):
    """The call's result, or the model's name for the error it raised."""
    try:
        return call(*args)
    except (NotFound, LocatorLimitExceeded, IndirectLoop) as exc:
        return _ERROR_NAMES[type(exc)]


def _resolved(res, gid):
    found = _outcome(resolve, res, gid)
    return found if isinstance(found, str) else {a.value for a in found}


_name = st.integers(0, len(PROPERTY_HRNS) - 1)
_addr = st.integers(0, 5)  # six addresses, so one record can pass the limit
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("register"), _name, _addr),
        st.tuples(st.just("indirect"), _name, st.integers(0, len(TARGETS) - 1)),
        st.tuples(st.sampled_from(["add", "remove"]), _name, _addr),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(_ops)
@example([("register", 0, a) for a in range(5)])  # a fifth locator by register
@example([("register", 1, 0)] + [("add", 1, a) for a in range(1, 5)])  # ... by add
@example([("indirect", 0, 1), ("indirect", 1, 0), ("register", 1, 2)])  # a two-cycle
@example([("register", 2, 0), ("indirect", 2, 3), ("remove", 2, 0)])  # kept, dangling
def test_resolver_matches_the_record_model(ops):
    res, model = Resolver(), IlmModel()
    for action, k, arg in ops:
        gid, hrn = PROPERTY_GIDS[k], PROPERTY_HRNS[k]
        if action == "register":
            got = _outcome(register, res, hrn, na(arg))
            assert (None if got == gid else got) == model.register(gid.value, hrn, na(arg).value)
        elif action == "indirect":
            assert register_indirect(res, hrn, TARGETS[arg]) == gid
            model.register_indirect(gid.value, hrn, TARGETS[arg].value)
        else:
            got = _outcome(update_binding, res, gid, action, na(arg))
            want = model.update(gid.value, action, na(arg).value)
            assert (got if isinstance(got, str) else None) == want
        for other in TARGETS:
            assert _resolved(res, other) == model.resolve(other.value)
        assert dump_table(res) == model.dump()
