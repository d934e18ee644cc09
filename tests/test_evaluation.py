import signal
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icnsim import cli, congruity, evaluation
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
    ItoReport,
    RequestRecord,
    ScenarioParams,
    _learned_graph,
    baseline_hops,
    compute_ito,
    reports_to_csv,
    run_scenario,
    run_sweep,
    sweep_report,
)
from icnsim.topology import Edge, Node, NodeKind, build_graph, generate_topology

from oracles import fraction_ito


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


def small_params(**overrides):
    base = dict(
        scenario="embb", sweep_values=(8, 32), n_devices=64, request_count=60,
        catalog_size=12, cache_fraction=0.5, prefetch_budget=6, seed=4,
    )
    base.update(overrides)
    return ScenarioParams(**base)


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
        # the run path reads container counts and id arrays, never the
        # frozenset a container builds on first read of `members`
        built = []

        def recording(g, targets):
            built.append(containerize(g, targets))
            return built[-1]

        monkeypatch.setattr(evaluation, "containerize", recording)
        run_scenario(small_params(scenario="mmtc", sweep_values=(1, 2), area_km2=0.5))
        containers = [c for h in built for level in h.levels for c in level]
        assert len(built) == 2 and len(containers) > 2
        assert not any("members" in vars(c) for c in containers)

    def test_validation(self):
        with pytest.raises(InvalidParams):
            run_scenario(small_params(scenario="6g"))
        with pytest.raises(InvalidParams):
            run_scenario(small_params(request_count=0))


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
        area_km2=draw(st.sampled_from([0.001, 0.002, 0.005])),
        catalog_size=draw(st.integers(1, 12)),
        request_count=draw(st.integers(1, 30)),
        cache_fraction=draw(st.sampled_from([0.0, 0.05, 0.5, 2.0])),
        prefetch_budget=draw(st.integers(0, 8)),
        prefetch_candidates=draw(st.integers(1, 8)),
        preplace_everywhere=draw(st.booleans()),
    )


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
    h = cli.hyperparams_from(config, config["seeds"][0])
    spec = congruity.DatasetSpec(n_personal=config["n_personal"], n_general=config["n_general"])
    dp, dg = congruity.synthesize_dataset(spec, config["seeds"][0])
    arch = (congruity.N_FEATURES, *config["hidden_widths"], 1)
    with time_limit(FUZZ_SECONDS):
        try:
            result = congruity.train(dp, dg, h, arch)
        except SimError:
            return
    assert all(np.isfinite(result.loss_history))
