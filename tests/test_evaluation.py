import gc
import os
import signal
import tempfile
import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from icnsim import cli, congruity, containment, evaluation, topology, userplane
from icnsim.congruity import Hyperparams
from icnsim.containment import Target, containerize, validate_hierarchy
from icnsim.errors import (
    EmptyLog,
    InvalidParams,
    SimError,
    Unreachable,
    ZeroDenominator,
)
from icnsim.evaluation import (
    DEFAULT_SWEEPS,
    MAX_CATALOG_SIZE,
    MAX_REQUESTS,
    ItoReport,
    RequestLog,
    RequestRecord,
    ScenarioParams,
    _learned_graph,
    baseline_hops,
    compute_ito,
    reports_to_csv,
    run_scenario,
    run_sweep,
    sweep_points,
    sweep_report,
)
from icnsim.topology import Edge, Node, NodeKind, build_graph, generate_topology

from oracles import bfs_hops, fraction_ito


def line_graph(n):
    nodes = [Node(i, NodeKind.SWITCH) for i in range(n)]
    edges = [Edge(i, i + 1, 10) for i in range(n - 1)]
    return build_graph(nodes, edges, "latency_us")


class TestBaselineHops:
    def test_adjacent_is_one(self):
        assert baseline_hops(line_graph(3), 0, 1) == 1

    def test_chain_of_five(self):
        assert baseline_hops(line_graph(5), 0, 4) == 4

    def test_disconnected(self):
        g = build_graph(
            [Node(0, NodeKind.SWITCH), Node(1, NodeKind.SWITCH)], [], "latency_us"
        )
        with pytest.raises(Unreachable):
            baseline_hops(g, 0, 1)


class TestComputeIto:
    def test_no_offloading_is_zero(self):
        records = [RequestRecord(1, [5], volume=1, baseline_hops=5)]
        assert compute_ito(records) == 0.0

    def test_local_copy_is_full_offloading(self):
        records = [RequestRecord(1, [0], volume=3, baseline_hops=7)]
        assert compute_ito(records) == 1.0

    def test_two_request_fixture(self):
        # (3*2 + 3*1) / (4*2 + 6*1) = 9/14
        records = [
            RequestRecord(1, [1], volume=2, baseline_hops=4),
            RequestRecord(2, [3], volume=1, baseline_hops=6),
        ]
        assert compute_ito(records) == float(9) / 14

    def test_matches_fraction_oracle(self):
        rng = np.random.default_rng(5)
        rows = []
        records = []
        for n in range(1, 21):
            jn = int(rng.integers(1, 4))
            hc = int(rng.integers(1, 9))
            paths = [int(rng.integers(0, hc + 1)) for _ in range(jn)]
            vol = int(rng.integers(1, 50))
            rows.append((paths, hc, vol))
            records.append(RequestRecord(n, paths, volume=vol, baseline_hops=hc))
        assert compute_ito(records) == float(fraction_ito(rows))

    def test_empty_log(self):
        with pytest.raises(EmptyLog):
            compute_ito([])
        with pytest.raises(EmptyLog):
            compute_ito(RequestLog())

    def test_zero_denominator_guard(self):
        bogus = SimpleNamespace(paths=[0], baseline_hops=1, volume=0)
        with pytest.raises(ZeroDenominator):
            compute_ito([bogus])

    def test_record_invariants(self):
        with pytest.raises(InvalidParams):
            RequestRecord(1, [], volume=1, baseline_hops=1)
        with pytest.raises(InvalidParams):
            RequestRecord(1, [1], volume=1, baseline_hops=0)
        with pytest.raises(InvalidParams):
            RequestRecord(1, [-1], volume=1, baseline_hops=1)
        with pytest.raises(InvalidParams):
            RequestRecord(1, [1], volume=0, baseline_hops=1)


def request_log(rows):
    """A RequestLog holding one (hops, volume, baseline hops) row per request."""
    log = RequestLog()
    for h, v, b in rows:
        log.hops.append(h)
        log.volumes.append(v)
        log.baseline_hops.append(b)
    return log


class TestRequestLog:
    def test_entries_are_records_built_when_read(self):
        log = request_log([(1, 2, 4), (3, 1, 6)])
        want = [RequestRecord(1, [1], 2, 4), RequestRecord(2, [3], 1, 6)]
        assert len(log) == 2
        assert list(log) == want
        assert [log[0], log[1]] == want and log[-1] == want[1]
        assert log[0] is not log[0]
        with pytest.raises(IndexError):
            log[2]
        assert compute_ito(log) == compute_ito(want) == float(9) / 14

    @pytest.mark.parametrize("column,value", [
        ("hops", -1), ("baseline_hops", 0), ("volumes", 0), ("volumes", -5),
    ])
    def test_a_bad_column_value_raises(self, column, value):
        log = request_log([(1, 2, 4), (0, 3, 1), (2, 1, 5)])
        getattr(log, column)[1] = value
        with pytest.raises(InvalidParams):
            compute_ito(log)
        with pytest.raises(InvalidParams):
            log[1]


def small_params(**overrides):
    base = dict(
        scenario="embb", sweep_values=(8, 32), n_devices=64, request_count=60,
        catalog_size=12, cache_fraction=0.5, prefetch_budget=6, seed=4,
    )
    base.update(overrides)
    return ScenarioParams(**base)


def scalar_requesters(pool, wrng, drawn):
    """One scalar `integers` call per requester, as each draw used to be."""
    while True:
        drawn.append(int(pool[int(wrng.integers(0, len(pool)))]))
        yield drawn[-1]


class TestRequesterDraws:
    @pytest.mark.parametrize("bound", [1, 7, 3_840, 4_096, 1_000_003])
    def test_chunked_draws_equal_scalar_draws(self, bound):
        pool = np.arange(bound, dtype=np.int64) * 3
        chunked = evaluation._requesters(pool, np.random.default_rng(5), chunk=7)
        scalar = scalar_requesters(pool, np.random.default_rng(5), [])
        for _ in range(40):  # several refills
            assert next(chunked) == next(scalar)

    def test_runs_with_redraws_match_scalar_draws(self, monkeypatch):
        # two devices, each publishing some of the catalog: a requester drawn
        # equal to the object's publisher is redrawn, so the run takes more
        # draws than requests and refills its chunk
        params = ScenarioParams(
            scenario="mmtc", sweep_values=(1.0,), area_km2=0.002, seed=3,
            devices_per_gateway=2, catalog_size=6, request_count=40,
        )
        reports, details = run_scenario(params, with_details=True)
        drawn = []
        monkeypatch.setattr(
            evaluation, "_requesters",
            lambda pool, wrng, chunk: scalar_requesters(pool, wrng, drawn),
        )
        want_reports, want_details = run_scenario(params, with_details=True)
        assert len(set(drawn)) == 2 and len(drawn) > params.request_count
        origins = [[t.request.origin_node for t in d[0][1]] for d in (details, want_details)]
        assert origins[0] == origins[1]
        assert reports_to_csv(reports) == reports_to_csv(want_reports)


class TestRunScenario:
    def test_one_report_per_sweep_point(self):
        reports = run_scenario(small_params())
        assert [r.sweep_value for r in reports] == [8.0, 32.0]
        assert all(r.sweep_variable == "data_rate_mbps" for r in reports)

    def test_zero_cache_zero_prefetch_gives_zero_ito(self):
        reports = run_scenario(small_params(cache_fraction=0.0, prefetch_budget=0))
        assert all(r.ito == 0.0 for r in reports)

    def test_universal_preplacement_hits_analytic_maximum(self):
        params = small_params(sweep_values=(8,), preplace_everywhere=True)
        reports, details = run_scenario(params, with_details=True)
        records, traces = details[0]
        assert all(t.hops == 1 for t in traces)
        best = sum((r.baseline_hops - 1) * r.volume for r in records) / sum(
            r.baseline_hops * r.volume for r in records
        )
        assert abs(reports[0].ito - best) <= 1e-9

    def test_identical_runs_are_identical(self):
        a = reports_to_csv(run_scenario(small_params()))
        b = reports_to_csv(run_scenario(small_params()))
        assert a == b

    def test_ito_at_most_one(self):
        for scenario, value in (("embb", 8), ("urllc", 4), ("mmtc", 1)):
            params = small_params(
                scenario=scenario, sweep_values=(value,),
                density_k_per_km2=1.0, n_devices=64,
            )
            for r in run_scenario(params):
                assert r.ito <= 1.0
                assert 0.0 <= r.cache_hit_rate <= 1.0

    def test_default_sweeps_used_when_unset(self):
        params = small_params(sweep_values=(), request_count=20, catalog_size=6)
        reports = run_scenario(params)
        assert [r.sweep_value for r in reports] == [
            float(v) for v in DEFAULT_SWEEPS["embb"]
        ]

    def test_sweep_points_resolve_the_default_sweep(self):
        points = sweep_points(small_params(scenario="urllc", sweep_values=()))
        assert [p.latency_ms for p in points] == list(DEFAULT_SWEEPS["urllc"])
        assert {p.sweep_values for p in points} == {DEFAULT_SWEEPS["urllc"]}

    @pytest.mark.parametrize("scenario,values,key", [
        ("embb", (8, -8), "data_rate_mbps"),
        ("embb", (0,), "data_rate_mbps"),
        ("embb", (8, 1e308), "data_rate_mbps = 1e[+]308 and service_seconds"),
        ("urllc", (8, 0), "latency_ms"),
        ("urllc", (8, float("nan")), "latency_ms"),
        ("mmtc", (1, -1), "density_k_per_km2"),
        ("mmtc", (1, 5_000), "density_k_per_km2 times area_km2"),  # 5M devices
    ])
    def test_a_bad_sweep_point_fails_before_any_point_runs(
        self, scenario, values, key, monkeypatch
    ):
        def unreachable(*args):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(evaluation, "_run_point", unreachable)
        with pytest.raises(InvalidParams, match=key):
            run_scenario(small_params(scenario=scenario, sweep_values=values))

    @pytest.mark.parametrize("base,var,values", [
        # the default density of 63 k/km^2 over 100 km^2 would be 6.3M devices
        (dict(scenario="mmtc", area_km2=100.0), "density_k_per_km2", (10, 20)),
        (dict(scenario="mmtc", density_k_per_km2=0.0), "density_k_per_km2", (1,)),
        (dict(scenario="urllc", latency_ms=0.0), "latency_ms", (4, 8)),
    ])
    def test_only_the_points_pass_the_topology_checks(self, base, var, values):
        # no run uses the base value of the sweep variable, so it goes unchecked
        points = sweep_points(small_params(**base, sweep_values=values))
        assert [getattr(p, var) for p in points] == list(values)

    @pytest.mark.parametrize("scenario,overrides", [
        ("mmtc", dict(sweep_values=(63,), area_km2=0.01)),
        ("embb", dict(sweep_values=(8,))),
        ("embb", dict(sweep_values=(8,), n_devices=64, use_learner=True)),
    ])
    def test_generated_runs_need_no_bfs_and_no_adjacency(
        self, scenario, overrides, monkeypatch
    ):
        # A generated topology hands its tree over, as does the graph of its
        # learned weights, and counts degrees from its edge list, so a run
        # learns nothing by BFS and builds no CSR.
        params = ScenarioParams(scenario=scenario, seed=2, **overrides)
        want = reports_to_csv(run_scenario(params))

        def forbidden(*args):
            raise AssertionError("the run built graph structure it was handed")

        monkeypatch.setattr(topology, "_bfs", forbidden)
        monkeypatch.setattr(topology.WeightedGraph, "_ensure_csr", forbidden)
        assert reports_to_csv(run_scenario(params)) == want

    @pytest.mark.parametrize("scenario,overrides", [
        ("mmtc", dict(sweep_values=(63,), area_km2=0.01)),
        ("embb", dict(sweep_values=(8,), n_devices=64, use_learner=True)),
    ])
    def test_a_run_point_builds_no_container(self, scenario, overrides, monkeypatch):
        # a run reads no container, so its hierarchy keeps only label maps
        (point,) = sweep_points(ScenarioParams(scenario=scenario, seed=2, **overrides))
        want = reports_to_csv([evaluation._run_point(point, 0)[0]])

        def forbidden(*args, **kwargs):
            raise AssertionError("the run built containers")

        monkeypatch.setattr(containment, "_group_members", forbidden)
        assert reports_to_csv([evaluation._run_point(point, 0)[0]]) == want

    def test_run_sweep_concatenates_seeds(self):
        params = small_params(sweep_values=(8,), request_count=30)
        reports = run_sweep(params, seeds=[1, 2])
        assert [r.seed for r in reports] == [1, 2]
        assert reports[0].ito != reports[1].ito  # different workloads

    def test_lone_publishing_requester_rejected(self):
        # 1k devices/km^2 on 0.001 km^2: one device publishes every object
        params = small_params(scenario="mmtc", sweep_values=(1,), area_km2=0.001)
        with pytest.raises(InvalidParams, match="only possible requester"):
            run_scenario(params)

    def test_many_names_behind_one_gateway_run(self):
        # 200 devices behind one gateway and 200 objects: more identifiers
        # than one 8-bit local domain holds, which the mMTC pipeline accepts
        params = small_params(
            scenario="mmtc", sweep_values=(1,), area_km2=0.2,
            catalog_size=200, request_count=64,
        )
        (report,) = run_scenario(params)
        assert report.request_count == 64

    def test_mmtc_run_builds_no_member_sets(self, monkeypatch):
        # a container is its read-only id array: there is no member set to
        # build, and the run cannot write to a container it was handed
        built = []

        def recording(g, targets):
            built.append(containerize(g, targets))
            return built[-1]

        monkeypatch.setattr(evaluation, "containerize", recording)
        run_scenario(small_params(scenario="mmtc", sweep_values=(1, 2), area_km2=0.5))
        containers = [c for h in built for level in h.levels for c in level]
        assert len(built) == 2 and len(containers) > 2
        assert all(type(c) is np.ndarray and not c.flags.writeable for c in containers)

    def test_validation(self):
        with pytest.raises(InvalidParams):
            run_scenario(small_params(scenario="6g"))
        with pytest.raises(InvalidParams):
            run_scenario(small_params(request_count=0))

    @pytest.mark.parametrize("case,key", [
        (dict(request_count=MAX_REQUESTS + 1), "request_count"),
        (dict(request_count=10**12), "request_count"),
        (dict(catalog_size=MAX_CATALOG_SIZE + 1), "catalog_size"),
        (dict(catalog_size=10**8), "catalog_size"),
        (dict(catalog_size=10**5, prefetch_top_j=10**5, prefetch_budget=10**4),
         "prefetch_budget"),
        (dict(n_devices=4_000_000, catalog_size=1_001, prefetch_top_j=1_001,
              prefetch_candidates=20_000, prefetch_budget=1), "prefetch_top_j"),
    ])
    def test_workloads_over_the_cap_raise_before_allocating(self, case, key):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParams, match=key):
                run_scenario(small_params(**case))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_caps_admit_their_own_values(self):
        small_params(request_count=MAX_REQUESTS, catalog_size=MAX_CATALOG_SIZE).validate()

    @pytest.mark.parametrize("at_cap,past_cap", [
        # 40 candidates x 25,000 objects: 1,000 placements over 1M cells
        (dict(prefetch_budget=1_000, prefetch_candidates=40, prefetch_top_j=25_000,
              catalog_size=25_000),
         dict(prefetch_budget=1_001, prefetch_candidates=40, prefetch_top_j=25_000,
              catalog_size=25_000)),
        # candidates past the 42 forwarding nodes, prefetch_top_j past the
        # catalog and a budget past the cells count as those: every one of
        # 42 x 752 = 31,584 cells placed is 997.5M, of 42 x 753 1,000.2M
        (dict(prefetch_budget=10**12, prefetch_candidates=10**9, prefetch_top_j=10**9,
              catalog_size=752),
         dict(prefetch_budget=10**12, prefetch_candidates=10**9, prefetch_top_j=10**9,
              catalog_size=753)),
    ])
    def test_prefetch_work_admits_its_cap_and_no_more(self, at_cap, past_cap):
        # eMBB at 512 devices has 42 forwarding nodes: 32 access points, 8
        # switches and 2 zone switches; sweep_points only sizes them
        assert sum(topology.topology_size(small_params(n_devices=512))[3:]) == 42
        sweep_points(small_params(n_devices=512, **at_cap))
        with pytest.raises(InvalidParams, match=r"prefetch_budget .* \(prefetch_candidates x"):
            sweep_points(small_params(n_devices=512, **past_cap))

    def test_prefetch_cells_admit_their_cap_and_no_more(self):
        # eMBB at 4M devices has 328,125 forwarding nodes, so 20,000
        # candidates count in full; one placement keeps MAX_PREFETCH_WORK off
        assert 20_000 * 1_000 == evaluation.MAX_PREFETCH_CELLS
        point = dict(n_devices=4_000_000, prefetch_candidates=20_000, prefetch_budget=1)
        assert sum(topology.topology_size(small_params(**point))[3:]) == 328_125
        sweep_points(small_params(**point, prefetch_top_j=1_000, catalog_size=1_000))
        past = dict(point, prefetch_top_j=1_001, catalog_size=1_001)
        with pytest.raises(InvalidParams, match=r"prefetch_candidates x prefetch_top_j give 20020000"):
            sweep_points(small_params(**past))
        # a point that plans nothing holds no cells
        sweep_points(small_params(**dict(past, prefetch_budget=0)))

    @pytest.mark.parametrize("case,key", [
        (dict(hidden_widths=(10**9,)), "hidden_widths"),
        (dict(hidden_widths=(8,) * 10**4), "hidden_widths"),
        (dict(learner=Hyperparams(max_epochs=10**9, tolerance=1e-300)), "max_epochs"),
    ])
    def test_learners_over_the_cap_raise_before_allocating(self, case, key):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParams, match=key):
                run_scenario(small_params(use_learner=True, **case))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_learner_caps_admit_their_own_values(self):
        # one hidden layer of width w has 19 * w + 18 weights and biases
        assert 19 * 525 + 18 <= congruity.MAX_PARAMETERS < 19 * 526 + 18
        small_params(hidden_widths=(525,), use_learner=True,
                     learner=Hyperparams(max_epochs=congruity.MAX_EPOCHS)).validate()
        with pytest.raises(InvalidParams, match="hidden_widths"):
            small_params(hidden_widths=(526,)).validate()
        with pytest.raises(InvalidParams, match="max_epochs"):
            Hyperparams(max_epochs=congruity.MAX_EPOCHS + 1).validate()


@st.composite
def replay_configs(draw):
    """Small eMBB, URLLC and mMTC points with hundreds of requests, so the
    mean hop counts and hit rates have long binary fractions."""
    scenario = draw(st.sampled_from(["embb", "urllc", "mmtc"]))
    sweep = {
        "embb": st.sampled_from([8.0, 64.0]),
        "urllc": st.sampled_from([1.0, 8.0, 64.0]),
        "mmtc": st.sampled_from([3.0, 20.0]),  # k devices per km^2 over 0.005 km^2
    }[scenario]
    return ScenarioParams(
        scenario=scenario,
        sweep_values=tuple(draw(st.lists(sweep, min_size=2, max_size=2, unique=True))),
        seed=draw(st.integers(0, 50)),
        n_devices=draw(st.integers(2, 120)),
        devices_per_ap=draw(st.integers(1, 8)),
        area_km2=0.005,
        catalog_size=draw(st.integers(1, 24)),
        request_count=draw(st.integers(1, 400)),
        cache_fraction=draw(st.sampled_from([0.0, 0.05, 0.5])),
        prefetch_budget=draw(st.integers(0, 8)),
    )


class TestDetailsOnRequest:
    @settings(max_examples=30, deadline=None)
    @given(replay_configs())
    def test_reports_equal_the_detailed_run_and_its_traces(self, params):
        plain = run_scenario(params)
        reports, details = run_scenario(params, with_details=True)
        assert reports_to_csv(plain) == reports_to_csv(reports)
        for report, (records, traces) in zip(reports, details):
            assert len(records) == len(traces) == report.request_count
            # the running totals give the mean over the traces, bit for bit
            hops = float(np.mean([t.hops for t in traces]))
            hit_rate = float(np.mean([1.0 if t.cache_hit else 0.0 for t in traces]))
            assert report.mean_hops.hex() == hops.hex()
            assert report.cache_hit_rate.hex() == hit_rate.hex()

    @settings(max_examples=30, deadline=None)
    @given(replay_configs())
    def test_the_log_equals_the_records_its_traces_give(self, params):
        nets = []
        build = userplane.build_network

        def kept(*args):
            nets.append(build(*args))
            return nets[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(userplane, "build_network", kept)
            _, details = run_scenario(params, with_details=True)
        assert len(nets) == len(details) == 2
        for net, (log, traces) in zip(nets, details):
            g = net.graph
            edges = list(zip(g.ea.tolist(), g.eb.tolist(), g.ew.tolist()))
            baseline, records = {}, []
            for n, t in enumerate(traces, start=1):
                ends = (t.request.origin_node, net.objects[t.request.requested].publisher)
                if ends not in baseline:
                    baseline[ends] = bfs_hops(g.n, edges, *ends)
                records.append(RequestRecord(n, [t.hops], t.volume, baseline[ends]))
            rows = [(r.paths, r.baseline_hops, r.volume) for r in records]
            assert list(log) == records
            assert [log[i] for i in range(len(log))] == records
            assert compute_ito(log) == compute_ito(list(log)) == float(fraction_ito(rows))

    def test_the_log_holds_no_object_per_request(self):
        # The memory a point's result keeps, from tracemalloc after the run
        # at N and 4N requests: three list slots, about 26 B, per request.
        # One record per request with its path list took about 165 B.
        def retained(count):
            (point,) = sweep_points(ScenarioParams(
                scenario="embb", sweep_values=(8,), n_devices=256,
                request_count=count, seed=1))
            gc.collect()
            tracemalloc.start()
            try:
                _, log, _ = evaluation._run_point(point, 0)
                gc.collect()
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            columns = (log.hops, log.volumes, log.baseline_hops)
            tracked = sum(gc.is_tracked(x) for c in columns for x in (c, *c))
            return held, tracked

        n = 5_000
        retained(n)  # the first run fills caches that outlive it
        (small, tracked_small), (large, tracked_large) = retained(n), retained(4 * n)
        assert (large - small) / (3 * n) < 64
        assert tracked_small == tracked_large == 3  # the three columns

    def test_a_point_keeps_no_traces_unless_asked(self):
        (point,) = sweep_points(small_params(sweep_values=(8,)))
        assert evaluation._run_point(point, 0)[2] is None
        assert len(evaluation._run_point(point, 0, with_details=True)[2]) == 60

    @pytest.mark.parametrize("overrides", [
        dict(sweep_values=(8,)),
        dict(scenario="mmtc", sweep_values=(2,), area_km2=0.05),
    ], ids=["embb", "mmtc"])
    def test_a_point_without_the_learner_derives_no_node_resources(self, overrides, monkeypatch):
        # no resource column is read, so none is filled from the node kinds
        graphs = []

        def kept(params, seed):
            graphs.append(generate_topology(params, seed))
            return graphs[-1]

        monkeypatch.setattr(evaluation, "generate_topology", kept)
        (point,) = sweep_points(small_params(**overrides))
        evaluation._run_point(point, 0)
        (g,) = graphs
        assert not set(topology._RESOURCE_COLUMNS) & set(vars(g))
        assert g.mems is vars(g)["mems"]  # a read fills a column the check would see

    def test_a_replayed_request_holds_under_128_bytes(self):
        # What a request holds until its point ends (its draws and log
        # entries, about 53 B), from the tracemalloc peaks of runs at two
        # request counts; a run that keeps every trace (with_details=True)
        # reads about 305 B.
        def peak(count):
            params = ScenarioParams(scenario="embb", sweep_values=(8,), n_devices=256,
                                    request_count=count, seed=1)
            tracemalloc.start()
            try:
                run_scenario(params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(5_000)  # the first run fills caches that outlive it
        per_request = (peak(20_000) - peak(5_000)) / 15_000
        assert per_request < 128


class TestLearnerIntegration:
    def test_replaced_weights_still_containerize_cleanly(self):
        params = ScenarioParams(
            scenario="embb", n_devices=48, learned_fraction=0.1,
            learner=Hyperparams(
                max_epochs=10, learning_rate=0.05, batch_size=32
            ),
        )
        g = generate_topology(params, 3)
        g2 = _learned_graph(g, params, seed=3)
        changed = int((g.ew != g2.ew).sum())
        assert changed <= int(round(0.1 * g.m))
        h = containerize(g2, [Target(1, 1_000), Target(2, 150_000), Target(3, 500_000)])
        assert validate_hierarchy(h).ok

    def test_use_learner_end_to_end(self):
        params = small_params(
            sweep_values=(8,), use_learner=True, request_count=20,
            learner=Hyperparams(
                max_epochs=5, learning_rate=0.05, batch_size=64
            ),
        )
        reports = run_scenario(params)
        assert len(reports) == 1 and reports[0].ito <= 1.0


def scalar_edge_samples(g, max_w):
    """The per-edge loop that `_edge_samples` replaced, kept as its
    reference: (feature matrix, distance labels)."""
    degs = g.degrees().astype(np.float64)
    max_deg = max(1.0, degs.max())
    scale = {
        "sto": max(1.0, float(g.storages.max())),
        "up": max(1.0, float(g.ups.max())),
        "down": max(1.0, float(g.downs.max())),
        "cpu": max(1.0, float(g.computes.max())),
    }
    rows, labels = [], []
    m = max(1, g.m)
    for j, (a, b, w) in enumerate(zip(g.ea.tolist(), g.eb.tolist(), g.ew.tolist())):
        lat = w / max_w
        rows.append([
            j / m, 0.5, g.ups[a] / scale["up"], g.downs[a] / scale["down"],
            g.computes[a] / scale["cpu"], degs[a] / max_deg, degs[b] / max_deg,
            lat, g.storages[a] / scale["sto"], g.ups[b] / scale["up"],
            g.computes[b] / scale["cpu"], (degs[a] + degs[b]) / (2 * max_deg),
            a / g.n, b / g.n, g.kinds[a] / 8.0, g.kinds[b] / 8.0, 0.5,
        ])
        labels.append(lat)
    return np.array(rows, dtype=np.float64).reshape(-1, congruity.N_FEATURES), labels


class TestEdgeSamples:
    @settings(max_examples=30, deadline=None)
    @given(
        scenario=st.sampled_from(["embb", "urllc", "mmtc"]),
        n_devices=st.integers(1, 40),
        per_parent=st.integers(1, 8),
        density=st.sampled_from([1.0, 3.0, 20.0]),
        seed=st.integers(0, 3),
    )
    @example(scenario="embb", n_devices=1, per_parent=1, density=1.0, seed=0)
    @example(scenario="urllc", n_devices=1, per_parent=1, density=1.0, seed=0)
    @example(scenario="mmtc", n_devices=1, per_parent=1, density=1.0, seed=0)
    def test_columns_equal_the_scalar_loop(self, scenario, n_devices, per_parent,
                                           density, seed):
        params = ScenarioParams(
            scenario=scenario, n_devices=n_devices, devices_per_ap=per_parent,
            devices_per_gateway=per_parent, area_km2=0.001, density_k_per_km2=density,
        )
        g = generate_topology(params, seed)
        max_w = float(g.ew.max())
        got, lat = evaluation._edge_samples(g, max_w)
        want, labels = scalar_edge_samples(g, max_w)
        assert got.shape == want.shape == (g.m, congruity.N_FEATURES)
        assert got.tobytes() == want.tobytes()
        assert lat.tolist() == labels


class TestSweepReport:
    def make_report(self, ito, seed=0, value=8.0):
        return ItoReport(
            scenario="embb", sweep_variable="data_rate_mbps", sweep_value=value,
            seed=seed, request_count=10, ito=ito, mean_hops=2.0, cache_hit_rate=0.5,
        )

    def test_single_report_single_row(self):
        text = sweep_report([self.make_report(0.25)])
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("scenario,sweep_var,sweep_value,n_seeds")

    def test_identical_reports_zero_variance(self):
        text = sweep_report([self.make_report(0.3, seed=1), self.make_report(0.3, seed=2)])
        assert text.splitlines()[1].endswith(",0.0")

    def test_three_report_fixture_hand_computed(self):
        reports = [
            self.make_report(0.2, seed=1),
            self.make_report(0.4, seed=2),
            self.make_report(0.9, seed=3),
        ]
        row = sweep_report(reports).splitlines()[1].split(",")
        assert float(row[4]) == pytest.approx(0.5)            # mean
        assert float(row[5]) == 0.2 and float(row[6]) == 0.9  # min, max
        assert float(row[7]) == pytest.approx(0.26 / 3.0)     # population variance

    def test_csv_round_trip_columns(self):
        text = reports_to_csv([self.make_report(0.125)])
        lines = text.splitlines()
        assert lines[0] == "scenario,sweep_var,sweep_value,seed,N,ito,mean_hops,cache_hit_rate"
        assert lines[1] == "embb,data_rate_mbps,8.0,0,10,0.125,2.0,0.5"


# -- config fuzz: every small config finishes or raises a SimError ---------------

FUZZ_SECONDS = 10


@contextmanager
def time_limit(seconds):
    """Fail the block with TimeoutError when it runs longer than `seconds`
    (a hang never returns, so a check after the call would not catch it)."""

    def expire(signum, frame):
        raise TimeoutError(f"run exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def small_scenarios(draw):
    scenario = draw(st.sampled_from(["embb", "urllc", "mmtc"]))
    sweep = {
        "embb": st.sampled_from([8.0, 64.0]),
        "urllc": st.sampled_from([1.0, 8.0, 64.0]),
        "mmtc": st.sampled_from([0.5, 1.0, 3.0, 20.0]),  # k devices per km^2
    }[scenario]
    return ScenarioParams(
        scenario=scenario,
        sweep_values=(draw(sweep),),
        seed=draw(st.integers(0, 3)),
        n_devices=draw(st.integers(1, 40)),
        devices_per_ap=draw(st.integers(1, 8)),
        devices_per_gateway=draw(st.integers(1, 8)),
        area_km2=draw(st.sampled_from([0.001, 0.002, 0.005, 1e12, 1e300])),
        catalog_size=draw(st.integers(1, 12)),
        request_count=draw(st.integers(1, 30)),
        zipf_exponent=draw(st.sampled_from([0.6, 0.8, 1.2])),
        cache_fraction=draw(st.sampled_from([0.0, 0.05, 0.5, 2.0])),
        prefetch_budget=draw(st.integers(0, 8)),
        prefetch_candidates=draw(st.integers(1, 8)),
        preplace_everywhere=draw(st.booleans()),
    )


@pytest.mark.parametrize("exponent", [400.0, 1e300])
def test_exponents_whose_weights_vanish_raise_before_any_replay(exponent, monkeypatch):
    # every power (rank + shift) ** s overflows, so no request can be drawn
    handled = []
    monkeypatch.setattr(userplane, "handle_request", lambda *a: handled.append(a))
    with pytest.raises(InvalidParams, match="popularity weights"):
        run_scenario(small_params(sweep_values=(8,), zipf_exponent=exponent))
    assert handled == []


@settings(max_examples=40, deadline=None)
@given(small_scenarios())
def test_small_configs_finish_or_raise_sim_error(params):
    with time_limit(FUZZ_SECONDS):
        try:
            reports = run_scenario(params)
        except SimError:
            return
    assert len(reports) == 1
    assert reports[0].ito <= 1.0 and 0.0 <= reports[0].cache_hit_rate <= 1.0


# the fields small_scenarios draws that a config key sets
SMALL_SCENARIO_KEYS = (
    "scenario", "n_devices", "devices_per_ap", "devices_per_gateway", "area_km2",
    "catalog_size", "request_count", "zipf_exponent", "cache_fraction",
    "prefetch_budget", "prefetch_candidates",
)


@st.composite
def small_run_configs(draw):
    """(config text, whether it repeats a seed or a sweep value): a small
    scenario with one to three seeds and sweep values."""
    params = draw(small_scenarios())
    value = params.sweep_values[0]
    values = draw(st.lists(st.sampled_from([value, 2 * value]), min_size=1, max_size=3))
    seeds = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    text = "".join(f"{key} = {getattr(params, key)}\n" for key in SMALL_SCENARIO_KEYS)
    text += f"sweep_values = {', '.join(map(repr, values))}\nseeds = {', '.join(map(str, seeds))}\n"
    return text, len(set(values)) < len(values) or len(set(seeds)) < len(seeds)


@settings(max_examples=40, deadline=None)
@given(small_run_configs())
def test_report_accepts_every_report_run_gives(case):
    text, repeats = case
    with tempfile.TemporaryDirectory() as tmp:
        config, report = os.path.join(tmp, "exp.cfg"), os.path.join(tmp, "report.csv")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            with time_limit(FUZZ_SECONDS):
                files = cli.outputs(["run", "--config", config])[1]
        except SimError:
            return
        assert not repeats
        with open(report, "w", encoding="utf-8") as fh:
            fh.write(files["report.csv"])
        assert cli.main(["report", report, "--out", tmp]) == 0


@st.composite
def small_train_configs(draw):
    return (
        f"seeds = {draw(st.integers(0, 5))}\n"
        f"q_norm = {draw(st.sampled_from([1, 2, 64, 300, 2000]))}\n"
        f"lambda_q = {draw(st.sampled_from([0, 0.3]))}\n"
        f"lambda_k = {draw(st.sampled_from([0, 0.3]))}\n"
        f"learning_rate = {draw(st.sampled_from([0.1, 1e3, 1e300]))}\n"
        f"max_epochs = {draw(st.integers(1, 4))}\n"
        f"alpha = {draw(st.sampled_from([0.0, 0.5, 1.0]))}\n"
        f"hidden_widths = {draw(st.sampled_from(['3', '4, 2']))}\n"
        "n_personal = 12\nn_general = 20\nbatch_size = 8\n"
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(small_train_configs())
def test_small_train_configs_finish_or_raise_sim_error(text):
    config = cli.parse_config(text)
    seed = cli.command_seeds(config, None)[0]
    h = cli.hyperparams_from(config, seed)
    spec = cli.from_config(congruity.DatasetSpec, config)
    dp, dg = congruity.synthesize_dataset(spec, seed)
    arch = (congruity.N_FEATURES, *config["hidden_widths"], 1)
    with time_limit(FUZZ_SECONDS):
        try:
            result = congruity.train(dp, dg, h, arch)
        except SimError:
            return
    assert all(np.isfinite(result.loss_history))
