"""Acceptance suite: one test per criterion, each printing a PASS line and
holding to its stated tolerance and runtime budget."""

import time

import numpy as np
import pytest

from icnsim import congruity
from icnsim.cli import main
from icnsim.congruity import (
    Dataset,
    Hyperparams,
    N_FEATURES,
    congruity_objective,
    grad_congruity,
    grad_general,
    grad_personal,
    init_parameters,
    train,
)
from icnsim.containment import Target, TargetMode, containerize, validate_hierarchy
from icnsim.errors import InvalidParams
from icnsim.evaluation import (
    DEFAULT_SWEEPS,
    RequestRecord,
    ScenarioParams,
    baseline_hops,
    compute_ito,
    point_seeds,
    reports_to_csv,
    run_scenario,
)
from icnsim.ilm import (
    NetworkAddress,
    Resolver,
    register,
    register_indirect,
    resolve,
    update_binding,
)
from icnsim.topology import (
    LOCAL_DOMAIN_SIZE,
    Edge,
    Node,
    NodeKind,
    build_graph,
    generate_topology,
    topology_size,
)
from icnsim.userplane import (
    ContentObject,
    GlobalId,
    RequestMsg,
    _draw_without_replacement,
    address_of,
    build_network,
    deliver_data,
    handle_request,
    prefetch_plan,
)

from oracles import (
    ReplaySim,
    adjacency,
    floyd_warshall,
    fraction_ito,
    oracle_level_groups,
    oracle_quotient,
)


def random_connected(rng, n, wmax=20):
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, int(rng.integers(1, wmax))))
    seen = {(min(a, b), max(a, b)) for a, b, _ in edges}
    for _ in range(int(rng.integers(0, 3))):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        key = (min(a, b), max(a, b))
        if a != b and key not in seen:
            seen.add(key)
            edges.append((a, b, int(rng.integers(1, wmax))))
    return edges


def test_criterion_1_ito_oracle_equivalence():
    """Simulated traces equal an independent exhaustive replay exactly."""
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    kinds = [NodeKind.SWITCH, NodeKind.ACCESS_POINT, NodeKind.PC]
    for instance in range(50):
        n = int(rng.integers(2, 7))
        edges = random_connected(rng, n)
        nodes = [Node(0, NodeKind.SERVER)]
        for i in range(1, n):
            nodes.append(Node(i, kinds[int(rng.integers(0, len(kinds)))]))
        g = build_graph(nodes, [Edge(*e) for e in edges], "latency_us")
        hier = containerize(g, [Target(1, int(rng.integers(2, 30)))])
        capacity = int(rng.integers(0, 9))
        net = build_network(g, hier, Resolver(), capacity)

        n_objects = int(rng.integers(1, 4))
        publisher_of, volume_of, objects = {}, {}, []
        for j in range(n_objects):
            gid = register(net.resolver, f"urn:i{instance}:o{j}", address_of(0))
            vol = int(rng.integers(1, 6))
            obj = ContentObject(gid, vol, 0)
            net.add_object(obj)
            objects.append(obj)
            publisher_of[gid] = 0
            volume_of[gid] = vol

        forwarding = [
            i for i in range(n)
            if g.kind(i) in (NodeKind.SWITCH, NodeKind.ACCESS_POINT, NodeKind.GATEWAY)
        ]
        replay = ReplaySim(n, edges, forwarding, publisher_of, volume_of, capacity)

        records, rows = [], []
        n_requests = int(rng.integers(1, 6))
        for k in range(1, n_requests + 1):
            origin = int(rng.integers(1, n))
            obj = objects[int(rng.integers(0, n_objects))]
            req = RequestMsg(obj.id, origin)
            trace = handle_request(net, req)
            deliver_data(net, trace)
            expected_hops, expected_serving = replay.request(origin, obj.id)
            assert trace.hops == expected_hops
            assert trace.serving_node == expected_serving
            hc = baseline_hops(g, origin, 0)
            assert hc == replay.baseline(origin, obj.id)
            records.append(RequestRecord(k, [trace.hops], obj.volume, hc))
            rows.append(([expected_hops], replay.baseline(origin, obj.id), obj.volume))
        assert compute_ito(records) == float(fraction_ito(rows))
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 (ITO oracle equivalence, 50 instances, {elapsed:.1f}s): PASS")


def test_criterion_2_ito_boundaries():
    """No caching at all yields ITO 0; universal pre-placement is maximal."""
    start = time.monotonic()
    off = ScenarioParams(
        scenario="embb", sweep_values=(8, 64), n_devices=96, request_count=100,
        catalog_size=16, cache_fraction=0.0, prefetch_budget=0, seed=21,
    )
    for report in run_scenario(off):
        assert report.ito == 0.0
    full = ScenarioParams(
        scenario="embb", sweep_values=(8,), n_devices=96, request_count=100,
        catalog_size=16, cache_fraction=0.0, prefetch_budget=0, seed=21,
        preplace_everywhere=True,
    )
    reports, details = run_scenario(full, with_details=True)
    records, traces = details[0]
    assert all(t.hops == 1 for t in traces)
    best = sum((r.baseline_hops - 1) * r.volume for r in records) / sum(
        r.baseline_hops * r.volume for r in records
    )
    assert abs(reports[0].ito - best) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 2 (ITO boundary cases, {elapsed:.1f}s): PASS")


def _pairwise_ok(n, edges, groups, target, mode):
    if mode == "bottleneck":
        kept = [(a, b, w) for a, b, w in edges if w >= target]
        adj = adjacency(n, kept)
        comp = {}
        for node in range(n):
            if node in comp:
                continue
            queue = [node]
            comp[node] = node
            while queue:
                u = queue.pop(0)
                for v, _ in adj[u]:
                    if v not in comp:
                        comp[v] = node
                        queue.append(v)
        return all(len({comp[i] for i in grp}) == 1 for grp in groups)
    contracted = [(a, b, 0 if w < target else w) for a, b, w in edges]
    dist = floyd_warshall(n, contracted)
    return all(
        dist[i][j] < target for grp in groups for i in grp for j in grp
    )


def test_criterion_3_containerization_soundness():
    """200 random graphs: brute-force pairwise constraints at every level,
    plus disjointness, coverage and nesting."""
    start = time.monotonic()
    rng = np.random.default_rng(33)
    for trial in range(200):
        n = int(rng.integers(2, 11))
        mode = "bottleneck" if trial % 3 == 2 else "additive"
        unit = "bandwidth_bps" if mode == "bottleneck" else "latency_us"
        edges = random_connected(rng, n, wmax=30)
        g = build_graph(
            [Node(i, NodeKind.SWITCH) for i in range(n)],
            [Edge(*e) for e in edges], unit,
        )
        if mode == "additive":
            t_values = sorted({int(t) for t in rng.integers(2, 45, size=2)})
        else:
            t_values = sorted({int(t) for t in rng.integers(2, 28, size=2)}, reverse=True)
        targets = [
            Target(i + 1, t, TargetMode(mode)) for i, t in enumerate(t_values)
        ]
        h = containerize(g, targets)
        assert validate_hierarchy(h).ok

        # levels checked on the graph each was built on, in quotient coordinates
        cur_n, cur_edges = n, edges
        for li, (level_containers, t) in enumerate(zip(h.levels, targets)):
            if li == 0:
                groups = [c.tolist() for c in level_containers]
            else:
                # a container's children: the level-below positions of its nodes
                below = h.labels()[li - 1]
                groups = [np.unique(below[c]).tolist() for c in level_containers]
            assert _pairwise_ok(cur_n, cur_edges, groups, t.value, mode)
            assert groups == oracle_level_groups(cur_n, cur_edges, t.value, mode)
            labels = {}
            for gi, grp in enumerate(groups):
                for node in grp:
                    labels[node] = gi
            cur_edges = oracle_quotient(len(groups), labels, cur_edges, mode)
            cur_n = len(groups)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3 (containerization soundness, 200 graphs, {elapsed:.1f}s): PASS")


def _partly_labeled(kind, rng, n, every):
    """n random samples; those at an index that is not a multiple of
    `every` carry a random distance label."""
    rows = [(rng.random(N_FEATURES), float(rng.random()) if i % every else None)
            for i in range(n)]
    labels = ([d or 0.0 for _, d in rows], [d is not None for _, d in rows])
    return Dataset(kind, [f for f, _ in rows], {"distance": labels})


def test_criterion_4_gradient_check():
    """Analytic gradients match central finite differences at 100 probes."""
    start = time.monotonic()
    rng = np.random.default_rng(44)
    probes_done = 0
    worst = 0.0
    while probes_done < 100:
        hidden = [int(w) for w in rng.integers(1, 11, size=int(rng.integers(1, 4)))]
        widths = (N_FEATURES, *hidden, 1)
        ps = init_parameters(widths, rng=rng)
        dp = _partly_labeled("personal", rng, 5, 2)
        dg = _partly_labeled("general", rng, 6, 3)
        h = Hyperparams(
            alpha=float(rng.uniform(0.1, 0.9)), lambda_g=1.0, lambda_q=0.3,
            lambda_p=0.7, lambda_k=0.5, q=int(rng.integers(1, 4)), k=5,
        )
        centroid = dp.centroid()
        dW, db = ps.views(grad_congruity(ps, dp, dg, h, centroid=centroid))
        eps = 1e-6
        for _ in range(10):
            if rng.random() < 0.6:
                l = int(rng.integers(0, len(ps.weights)))
                r = int(rng.integers(0, ps.weights[l].shape[0]))
                c = int(rng.integers(0, ps.weights[l].shape[1]))
                getter = lambda: ps.weights[l][r, c]
                setter = lambda v: ps.weights[l].__setitem__((r, c), v)
                analytic = dW[l][r, c]
            else:
                l = int(rng.integers(0, len(ps.biases)))
                j = int(rng.integers(0, len(ps.biases[l])))
                getter = lambda: ps.biases[l][j]
                setter = lambda v: ps.biases[l].__setitem__(j, v)
                analytic = db[l][j]
            orig = getter()
            setter(orig + eps)
            hi = congruity_objective(ps, dp, dg, h, centroid=centroid)
            setter(orig - eps)
            lo = congruity_objective(ps, dp, dg, h, centroid=centroid)
            setter(orig)
            fd = (hi - lo) / (2 * eps)
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8)
            worst = max(worst, rel)
            assert rel <= 1e-4
            probes_done += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 4 (gradient check, 100 probes, worst {worst:.2e}, {elapsed:.1f}s): PASS")


def _toy_datasets(seed=17):
    rng = np.random.default_rng(seed)
    feats = rng.random((200, N_FEATURES))
    dist = [float(f.mean()) for f in feats]
    ones = np.ones(100)
    return (Dataset("personal", feats[:100], {"distance": (dist[:100], ones)}),
            Dataset("general", feats[100:], {"distance": (dist[100:], ones)}))


def _reference_descent(dp, dg, h, arch, epochs, objective):
    """Plain gradient descent on a single error function."""
    ps = init_parameters(arch, d_max=500, rng=np.random.default_rng(h.rng_seed))
    centroid = dp.centroid()
    batches = []
    for i in range(4):
        batches.append((dp.slice(i * 25, (i + 1) * 25), dg.slice(i * 25, (i + 1) * 25)))
    snaps = [
        ([w.copy() for w in ps.weights], [b.copy() for b in ps.biases])
    ]
    for _ in range(epochs):
        for bp, bg in batches:
            if objective == "general":
                grad = grad_general(ps, bg, h)
            else:
                grad = grad_personal(ps, bp, h, centroid=centroid)
            ps.theta -= h.learning_rate * grad
        snaps.append(([w.copy() for w in ps.weights], [b.copy() for b in ps.biases]))
    return snaps


def _oracle_plain_mlp(dp, dg, seed, epochs=500, lr=1.0):
    """Independent from-scratch MLP confirming the 50% reduction is attainable."""
    X = np.vstack([dp.features, dg.features])
    y = np.concatenate([dp.label_arrays("distance")[0], dg.label_arrays("distance")[0]])
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-0.5, 0.5, (8, N_FEATURES))
    b1 = rng.uniform(-0.5, 0.5, 8)
    w2 = rng.uniform(-0.5, 0.5, (1, 8))
    b2 = rng.uniform(-0.5, 0.5, 1)

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    def loss():
        out = sig(sig(X @ w1.T + b1) @ w2.T + b2)[:, 0]
        return float(((out - y) ** 2).sum())

    first = loss()
    for _ in range(epochs):
        a1 = sig(X @ w1.T + b1)
        out = sig(a1 @ w2.T + b2)
        gout = 2.0 * (out[:, 0] - y)[:, None] * out * (1 - out)
        gw2 = gout.T @ a1
        gb2 = gout.sum(0)
        ga1 = gout @ w2 * a1 * (1 - a1)
        gw1 = ga1.T @ X
        gb1 = ga1.sum(0)
        w1 -= lr * gw1 / len(X)
        b1 -= lr * gb1 / len(X)
        w2 -= lr * gw2 / len(X)
        b2 -= lr * gb2 / len(X)
    return loss() / first


def test_criterion_5_learning_progress(monkeypatch):
    """Halved objective on the toy task; alpha boundaries follow the pure
    single-error descent step for step. `train` evaluates the objective
    once before the prune phase, once after it and once per epoch, so the
    parameters seen by every evaluation after the first are the run's
    per-epoch trajectory."""
    dp, dg = _toy_datasets()
    assert _oracle_plain_mlp(dp, dg, seed=7) <= 0.5  # bound is attainable at all

    h = Hyperparams(alpha=0.5, learning_rate=0.1, max_epochs=500, batch_size=25,
                    rng_seed=7, tolerance=1e-15, lambda_q=0.0, lambda_k=0.0)
    result = train(dp, dg, h, (N_FEATURES, 8, 1), d_max=500)
    assert len(result.loss_history) - 1 <= 500
    assert result.e_star <= 0.5 * result.e_initial

    epochs = 30
    for alpha, objective in ((0.0, "general"), (1.0, "personal")):
        hb = Hyperparams(alpha=alpha, learning_rate=0.05, max_epochs=epochs,
                         batch_size=25, rng_seed=7, tolerance=1e-300,
                         lambda_q=0.01, lambda_k=0.01)
        snaps = []

        def snapshot(ps, *args, **kwargs):
            snaps.append(([w.copy() for w in ps.weights], [b.copy() for b in ps.biases]))
            return congruity_objective(ps, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(congruity, "congruity_objective", snapshot)
            run = train(dp, dg, hb, (N_FEATURES, 8, 1), d_max=500)
        ref = _reference_descent(dp, dg, hb, (N_FEATURES, 8, 1), epochs, objective)
        assert len(run.loss_history) == len(ref) == epochs + 1
        assert len(snaps) == epochs + 2
        for (run_w, run_b), (ref_w, ref_b) in zip(snaps[1:], ref, strict=True):
            for a, b in zip(run_w, ref_w, strict=True):
                assert np.array_equal(a, b)
            for a, b in zip(run_b, ref_b, strict=True):
                assert np.array_equal(a, b)
    print(
        f"ACCEPTANCE 5 (learning progress, E {result.e_initial:.3f} -> "
        f"{result.e_star:.4f}, boundary trajectories exact): PASS"
    )


def test_criterion_6_prefetch_distribution():
    """Cell probabilities normalize to one and seeded draws track them."""
    start = time.monotonic()
    rng = np.random.default_rng(66)
    nc = {i: float(rng.uniform(0.2, 3.0)) for i in range(3)}
    fp = {GlobalId(i): float(rng.uniform(0.2, 3.0)) for i in range(4)}
    plan = prefetch_plan(nc, fp, budget=5, seed=0)
    assert abs(plan.probabilities.sum() - 1.0) <= 1e-9

    probs = plan.probabilities.ravel()
    draw_rng = np.random.default_rng(606)
    counts = np.zeros(len(probs))
    n_draws = 100_000
    for _ in range(n_draws):
        picks = _draw_without_replacement(probs, 1, draw_rng)
        counts[picks[0]] += 1
    tvd = 0.5 * float(np.abs(counts / n_draws - probs).sum())
    assert tvd <= 0.01
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 6 (prefetch distribution, TVD {tvd:.4f}, {elapsed:.1f}s): PASS")


def test_criterion_7_ilm_protocol_suite():
    """Registration reachability, locator cap, indirection, the 8-bit local
    domain, and a sustained update workload."""
    start = time.monotonic()
    params = ScenarioParams(scenario="embb", n_devices=64)
    g = generate_topology(params, 77)
    hier = containerize(g, [Target(1, 1_000), Target(2, 150_000), Target(3, 500_000)])
    net = build_network(g, hier, Resolver(), 10**6)
    res = net.resolver

    def na(i):
        return NetworkAddress("v4", (10 << 24) + i)

    # register -> resolve round trips through every node's resolver
    gid = register(net.local_ilm(0), "urn:acc:obj", na(1))
    for node in range(g.n):
        assert resolve(net.local_ilm(node), gid) == frozenset({na(1)})

    # locator cap at four
    for i in range(2, 5):
        update_binding(res, gid, "add", na(i))
    with pytest.raises(Exception) as exc:
        update_binding(res, gid, "add", na(99))
    assert "binds" in str(exc.value)
    assert len(resolve(res, gid)) == 4

    # indirect data -> device chase
    dev = register(res, "urn:acc:dev", na(50))
    data = register_indirect(res, "urn:acc:data", dev)
    assert resolve(res, data) == frozenset({na(50)})

    # the 8-bit local domain: 256 devices per gateway, and not 257 or 0
    def mmtc(per_gateway):
        return ScenarioParams(scenario="mmtc", area_km2=0.5, devices_per_gateway=per_gateway)

    assert LOCAL_DOMAIN_SIZE == 256
    assert topology_size(mmtc(256))[2] == 256
    for bad in (257, 0):
        with pytest.raises(InvalidParams, match="devices_per_gateway"):
            topology_size(mmtc(bad))

    # 10^3 identifiers x 100 binding updates with coherent reads afterwards
    gids = [register(res, f"urn:acc:w{i}", na(i % 100)) for i in range(1000)]
    for round_no in range(100):
        for i, g_id in enumerate(gids):
            update_binding(res, g_id, "add", na((i + round_no + 1) % 250 + 1))
            update_binding(res, g_id, "remove", na((i + round_no) % 250 + 1))
    for g_id in gids:
        locs = resolve(res, g_id)
        assert 1 <= len(locs) <= 4
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 7 (ILM protocol suite, {elapsed:.1f}s): PASS")


def test_criterion_8_monotonicity():
    """ITO never decreases with more cache or more prefetch budget."""
    base = dict(
        scenario="urllc", sweep_values=(8,), n_devices=128, request_count=300,
        catalog_size=64, seed=5,
    )
    cache_curve = [
        run_scenario(ScenarioParams(**base, cache_fraction=f, prefetch_budget=0))[0].ito
        for f in (0.0, 0.25, 0.5, 1.0)
    ]
    assert cache_curve == sorted(cache_curve)
    budget_curve = [
        run_scenario(ScenarioParams(**base, cache_fraction=1.0, prefetch_budget=b))[0].ito
        for b in (0, 8, 16)
    ]
    assert budget_curve == sorted(budget_curve)
    print(
        f"ACCEPTANCE 8 (monotonicity, cache {['%.3f' % x for x in cache_curve]}, "
        f"budget {['%.3f' % x for x in budget_curve]}): PASS"
    )


def test_criterion_9_determinism_at_scale(tmp_path):
    """Byte-identical CSVs across reruns, mMTC sweep at 1e5 objects in
    under five minutes per run."""
    cfg = tmp_path / "mmtc.cfg"
    cfg.write_text(
        "scenario = mmtc\nsweep_values = 63, 100\nseeds = 0\n"
        "request_count = 200\ncatalog_size = 32\ncache_fraction = 0.5\n"
        "prefetch_budget = 16\n"
    )
    durations = []
    outputs = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        t0 = time.monotonic()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        durations.append(time.monotonic() - t0)
        outputs.append((out / "report.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert all(d < 300.0 for d in durations)
    print(
        f"ACCEPTANCE 9 (determinism at 1e5 objects, runs "
        f"{durations[0]:.1f}s/{durations[1]:.1f}s, byte-identical): PASS"
    )


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


def test_criterion_10_scenario_sweep_shape():
    """All three sweeps over their full axes, one ITO per point; URLLC
    level-1 containers sit within the sub-millisecond tier."""
    axes = {
        "embb": (8, 16, 32, 64, 128, 256, 512),
        "urllc": (1, 2, 4, 8, 16, 32, 64, 128),
        "mmtc": (63, 131, 262, 524, 1049),
    }
    assert axes == {k: tuple(v) for k, v in DEFAULT_SWEEPS.items()}
    for scenario, values in axes.items():
        params = ScenarioParams(
            scenario=scenario, sweep_values=values, n_devices=512,
            request_count=128, catalog_size=32, cache_fraction=0.5,
            prefetch_budget=16, seed=10,
        )
        reports = run_scenario(params)
        assert [r.sweep_value for r in reports] == [float(v) for v in values]
        assert all(r.ito <= 1.0 for r in reports)

    # sub-millisecond check: every URLLC level-1 container is connected by
    # links under 1000 us, so intra-container contracted distances vanish
    urllc = ScenarioParams(
        scenario="urllc", sweep_values=axes["urllc"], n_devices=512,
        request_count=128, catalog_size=32, cache_fraction=0.5,
        prefetch_budget=16, seed=10,
    )
    from dataclasses import replace
    for idx, value in enumerate(axes["urllc"]):
        point = replace(urllc, latency_ms=value)
        topo_seed = point_seeds(urllc.seed, idx)[0]
        g = generate_topology(point, topo_seed)
        hier = containerize(
            g, [Target(1, 1_000), Target(2, 150_000), Target(3, 500_000)]
        )
        uf = _UnionFind(g.n)
        for a, b, w in zip(g.ea.tolist(), g.eb.tolist(), g.ew.tolist()):
            if w < 1_000:
                uf.union(a, b)
        for container in hier.levels[0]:
            roots = {uf.find(m) for m in container.tolist()}
            assert len(roots) == 1
    print("ACCEPTANCE 10 (scenario sweep shape, three full axes): PASS")
