"""Self-tests of the benchmark: the mesh generator, the tracer, the checks,
the in-run sampler, the run timeout, and the metric names in BENCHMARK.json.

Run from the repository root with `PYTHONPATH=src python -m pytest -q perfbench`.
"""

import json
import re
import signal
import time

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import icnsim.cli

from perfbench import ROOT, checks, hostref, mesh, run, tracer
from perfbench.workloads import Workload, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _components(g) -> int:
    ones = np.ones(2 * g.m, dtype=np.int8)
    adj = csr_matrix((ones, (np.concatenate([g.ea, g.eb]), np.concatenate([g.eb, g.ea]))),
                     shape=(g.n, g.n))
    return connected_components(adj, directed=False, return_labels=False)


def test_mesh_graph_is_seeded_connected_and_not_a_tree():
    g = mesh.mesh_graph(7)
    assert (g.n, g.m) == (4435, 4769)
    assert len(set(zip(g.ea.tolist(), g.eb.tolist()))) == g.m
    assert _components(g) == 1
    assert not g.is_tree()
    again = mesh.mesh_graph(7)
    for field in ("kinds", "ea", "eb", "ew"):
        assert np.array_equal(getattr(g, field), getattr(again, field))
    assert not np.array_equal(g.ew, mesh.mesh_graph(8).ew)


def test_mesh_inputs_are_deterministic_per_seed():
    a, b = mesh.mesh_inputs(3, n_devices=1024, n_requests=20), \
        mesh.mesh_inputs(3, n_devices=1024, n_requests=20)
    assert (a.catalog, a.requests, a.capacity) == (b.catalog, b.requests, b.capacity)
    c = mesh.mesh_inputs(4, n_devices=1024, n_requests=20)
    assert a.requests != c.requests


def test_trimmed_graph_keeps_hop_counts():
    oracles = checks.load_oracles()
    g = mesh.mesh_graph(5, n_devices=1024)
    full = list(zip(g.ea.tolist(), g.eb.tolist(), g.ew.tolist()))
    rng = np.random.default_rng(0)
    pairs = [tuple(int(x) for x in rng.integers(0, g.n, size=2)) for _ in range(10)]
    trimmed = checks.TrimmedGraph(g, {v for pair in pairs for v in pair})
    assert trimmed.n < g.n
    for a, b in pairs:
        assert oracles.bfs_hops(trimmed.n, trimmed.edges, trimmed[a], trimmed[b]) \
            == oracles.bfs_hops(g.n, full, a, b)


def _originals():
    found = {}
    for hook in tracer.HOOKS:
        target = tracer.Tracer._find(hook)
        assert target is not None, hook.name
        found[hook.name] = target
    return found


def test_traced_cli_report_matches_untraced_and_passes_checks(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("scenario = embb\nsweep_values = 8\nseeds = 3\n"
                      "n_devices = 128\nrequest_count = 300\n", encoding="utf-8")
    assert icnsim.cli.main(["run", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
    before = _originals()
    tr = tracer.Tracer().install()
    assert icnsim.cli.main(["run", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
    assert tr.uninstall() == []
    for name, (owner, attr, original) in before.items():
        assert getattr(owner, attr) is original, name
    untraced = (tmp_path / "a" / "report.csv").read_bytes()
    traced = (tmp_path / "b" / "report.csv").read_bytes()
    assert traced == untraced
    assert checks.check_run(tr, traced.decode(), seed=3, replay=False) == []
    metrics = tr.metrics(1.0)
    assert metrics["userplane.handle_request.calls"][0] == 300
    request_ids = {}
    for _, _, rid, name, *_ in tr.spans:
        request_ids.setdefault(name, set()).add(rid)
    assert request_ids["ilm.build_ilm_tree"] == {0}
    for name in ("evaluation.baseline_hops", "userplane.handle_request",
                 "userplane.deliver_data"):
        assert request_ids[name] == set(range(1, 301)), name


def test_traced_mesh_pipeline_matches_untraced_and_replay():
    inputs = mesh.mesh_inputs(2, n_devices=1024, n_requests=30)
    untraced = mesh.run_pipeline(inputs)
    tr = tracer.Tracer().install()
    traced = tr.run_root(tracer.Hook("icnsim.evaluation", "pipeline", span=True),
                         mesh.run_pipeline, inputs)
    assert tr.uninstall() == []
    assert traced == untraced
    assert checks.check_run(tr, traced, seed=2, replay=True) == []
    assert tr.metrics(1.0)["topology.offtree.share"][0] == 1.0


def test_absent_hook_is_reported_not_raised():
    tr = tracer.Tracer(tracer.HOOKS + (tracer.Hook("icnsim.ilm", "no_such_function"),))
    tr.install()
    assert tr.absent == ["ilm.no_such_function"]
    assert tr.uninstall() == []


def test_overrunning_run_is_killed_and_counted(tmp_path):
    slow = Workload(name="embb-replay", requests=1, rep_timeout_s=0.01)
    runner = run.Runner(slow, seed=1, work=tmp_path)
    assert runner.spawn("probe") is None
    assert (runner.attempted, runner.failed) == (1, 1)


def test_sampler_ticks_during_the_block_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with hostref.Sampler() as sampler:
        while time.perf_counter() - start < 0.6:
            pass
    wall = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.times) >= 5
    assert sampler.spent_s >= sum(sampler.times)
    assert 0 < sampler.run_s <= wall - sampler.spent_s
    assert sampler.reference_s() == pytest.approx(sum(sampler.times) / len(sampler.times))
    with hostref.Sampler() as short:
        pass
    assert short.times == [] and short.reference_s() > 0


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
