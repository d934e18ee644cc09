"""Traffic-offloading evaluation: the ITO metric, scenario workloads for the
three 5G sweeps, and cache-free baseline hop counts.

ITO weighs, per request, the hop savings against the no-cache/no-prefetch
baseline route to the original publisher, volume-weighted across the request
log:

    ITO = sum_n (J_n * Hc_n - sum_j H_nj) * V_n / sum_n J_n * Hc_n * V_n

Each sweep point runs the full pipeline: generate a topology, build the
container hierarchy (optionally over learner-predicted distances), register
the catalog with the run's resolver, place prefetched copies, then replay a
seeded Zipf-popularity request workload and aggregate the records.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import congruity, ilm, userplane
from .containment import Target, TargetMode, containerize
from .errors import EmptyLog, InvalidParams, ZeroDenominator
from .topology import (
    NodeKind,
    WeightedGraph,
    generate_topology,
    hop_distance,
    node_centrality,
)

SWEEP_VARS = {
    "embb": "data_rate_mbps",
    "urllc": "latency_ms",
    "mmtc": "density_k_per_km2",
}

DEFAULT_SWEEPS = {
    "embb": (8, 16, 32, 64, 128, 256, 512),          # Mb/s
    "urllc": (1, 2, 4, 8, 16, 32, 64, 128),          # ms
    "mmtc": (63, 131, 262, 524, 1049),               # kilo-objects per km^2
}

_URLLC_VOLUME = 2_000  # bytes per tactile update


@dataclass
class RequestRecord:
    n: int
    paths: list          # hop count per routing path in this request
    volume: int
    baseline_hops: int

    def __post_init__(self):
        if len(self.paths) < 1:
            raise InvalidParams("each request needs at least one path")
        if any(h < 0 for h in self.paths):
            raise InvalidParams("hop counts must be non-negative")
        if self.baseline_hops < 1:
            raise InvalidParams("baseline hop count must be >= 1")
        if self.volume <= 0:
            raise InvalidParams("object volume must be positive")


@dataclass
class ItoReport:
    scenario: str
    sweep_variable: str
    sweep_value: float
    seed: int
    request_count: int
    ito: float
    mean_hops: float
    cache_hit_rate: float


@dataclass
class ScenarioParams:
    scenario: str = "embb"
    sweep_values: tuple = ()
    seed: int = 0
    # topology shape
    n_devices: int = 512
    devices_per_ap: int = 16
    aps_per_switch: int = 4
    switches_per_zone: int = 4
    n_servers: int = 2
    devices_per_gateway: int = 200
    area_km2: float = 1.0
    density_k_per_km2: float = 63.0
    latency_ms: float = 8.0
    data_rate_mbps: float = 8.0
    service_seconds: float = 1.0
    targets_us: tuple = (1_000, 150_000, 500_000)
    # workload
    request_count: int = 256
    catalog_size: int = 64
    cache_fraction: float = 0.5
    prefetch_budget: int = 32
    prefetch_candidates: int = 32
    prefetch_top_j: int = 16
    zipf_exponent: float = 0.8
    zipf_shift: float = 10.0
    # learner
    use_learner: bool = False
    learned_fraction: float = 0.1
    hidden_widths: tuple = (8,)
    learner: congruity.Hyperparams = field(default_factory=congruity.Hyperparams)
    # ablation bound: put every object on every forwarding element up front
    preplace_everywhere: bool = False

    def validate(self):
        if self.scenario not in SWEEP_VARS:
            raise InvalidParams(f"unknown scenario {self.scenario!r}")
        if self.request_count < 1 or self.catalog_size < 1:
            raise InvalidParams("request_count and catalog_size must be >= 1")
        if not (0.0 <= self.cache_fraction):
            raise InvalidParams("cache_fraction must be non-negative")
        if self.prefetch_budget < 0:
            raise InvalidParams("prefetch_budget must be >= 0")
        if not (0.0 <= self.learned_fraction <= 1.0):
            raise InvalidParams("learned_fraction must lie in [0, 1]")
        if len(self.targets_us) < 1:
            raise InvalidParams("need at least one containerization target")
        return self


# -- the metric -----------------------------------------------------------------


def baseline_hops(g: WeightedGraph, requester: int, publisher: int) -> int:
    """Fewest-hops route length to the original source on the raw topology."""
    return hop_distance(g, requester, publisher)


def compute_ito(records) -> float:
    """Exact evaluation of the offloading ratio over a request log."""
    records = list(records)
    if not records:
        raise EmptyLog("no request records")
    num = 0
    den = 0
    for r in records:
        jn = len(r.paths)
        num += (jn * r.baseline_hops - sum(r.paths)) * r.volume
        den += jn * r.baseline_hops * r.volume
    if den == 0:
        raise ZeroDenominator("baseline traffic volume is zero")
    return float(Fraction(num, den))


# -- one sweep point --------------------------------------------------------------


def _nominal_volume(params, sweep_value=None) -> int:
    if params.scenario == "embb":
        rate = params.data_rate_mbps if sweep_value is None else sweep_value
        return max(1, int(round(rate * 1e6 / 8.0 * params.service_seconds)))
    if params.scenario == "urllc":
        return _URLLC_VOLUME
    return 64  # mMTC sensor objects


def _object_volume(params, crng) -> int:
    if params.scenario == "embb":
        base = _nominal_volume(params)
        return max(1, int(round(base * crng.uniform(0.5, 1.5))))
    if params.scenario == "urllc":
        return _URLLC_VOLUME
    return int(crng.integers(16, 128))  # stays under the 128-byte device payload


def _learned_graph(g: WeightedGraph, params, seed: int) -> WeightedGraph:
    """Train the distance learner on the edge set and substitute predictions
    for a seeded fraction of the measured weights."""
    max_w = float(g.ew.max()) if g.m else 1.0
    samples = _edge_samples(g, max_w)
    half = max(1, len(samples) // 2)
    dp = congruity.Dataset("personal", samples[:half])
    dg = congruity.Dataset("general", samples[half:] or samples[:half])
    h = replace(params.learner, rng_seed=int(seed) & 0xFFFFFFFF)
    arch = (congruity.N_FEATURES, *params.hidden_widths, 1)
    result = congruity.train(dp, dg, h, arch)
    n_sub = int(round(params.learned_fraction * g.m))
    if n_sub == 0:
        return g
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x1EA2]))
    chosen = rng.choice(g.m, size=n_sub, replace=False)
    new_w = g.ew.copy()
    for j in chosen.tolist():
        feats = samples[j].features
        pred = congruity.predict_distance(result.theta_star, feats, scale=max_w)
        new_w[j] = max(0, int(round(pred)))
    return WeightedGraph.from_arrays(
        g.kinds, g.mems, g.storages, g.downs, g.ups, g.computes,
        g.ea, g.eb, new_w, g.unit,
    )


def _edge_samples(g: WeightedGraph, max_w: float) -> list:
    degs = g.degrees().astype(np.float64)
    max_deg = max(1.0, degs.max())
    scale = {
        "mem": max(1.0, float(g.mems.max())),
        "sto": max(1.0, float(g.storages.max())),
        "up": max(1.0, float(g.ups.max())),
        "down": max(1.0, float(g.downs.max())),
        "cpu": max(1.0, float(g.computes.max())),
    }
    n_kind = 8.0
    samples = []
    m = max(1, g.m)
    for j, (a, b, w) in enumerate(zip(g.ea.tolist(), g.eb.tolist(), g.ew.tolist())):
        lat = w / max_w
        feats = np.array([
            j / m,
            0.5,
            g.ups[a] / scale["up"],
            g.downs[a] / scale["down"],
            g.computes[a] / scale["cpu"],
            degs[a] / max_deg,
            degs[b] / max_deg,
            lat,
            g.storages[a] / scale["sto"],
            g.ups[b] / scale["up"],
            g.computes[b] / scale["cpu"],
            (degs[a] + degs[b]) / (2 * max_deg),
            a / g.n,
            b / g.n,
            g.kinds[a] / n_kind,
            g.kinds[b] / n_kind,
            0.5,
        ])
        samples.append(congruity.Sample(feats, {"distance": lat}))
    return samples


def point_seeds(seed: int, point_index: int):
    """(topology, catalog, workload, prefetch) sub-seeds for one sweep point."""
    ss = np.random.SeedSequence([int(seed), int(point_index), 0x51E7])
    return tuple(int(s) for s in ss.generate_state(4, dtype=np.uint64))


def _run_point(params: ScenarioParams, var: str, value, point_index: int):
    topo_seed, catalog_seed, workload_seed, prefetch_seed = point_seeds(
        params.seed, point_index
    )
    g = generate_topology(params, topo_seed)
    if params.use_learner:
        g = _learned_graph(g, params, topo_seed)
    targets = [
        Target(i + 1, int(v), TargetMode.ADDITIVE)
        for i, v in enumerate(params.targets_us)
    ]
    hierarchy = containerize(g, targets)

    first_value = (params.sweep_values or DEFAULT_SWEEPS[params.scenario])[0]
    capacity = int(round(
        params.cache_fraction * params.catalog_size * _nominal_volume(params, first_value)
    ))
    net = userplane.build_network(g, hierarchy, ilm.build_ilm_tree(hierarchy), capacity)

    crng = np.random.default_rng(np.random.SeedSequence([catalog_seed, 0xCA7]))
    if params.scenario == "mmtc":
        publishers_pool = g.nodes_of_kind(NodeKind.MMTC_DEVICE)
    else:
        servers = g.nodes_of_kind(NodeKind.SERVER)
        publishers_pool = servers[servers != 0] if len(servers) > 1 else servers
    catalog = []
    for j in range(params.catalog_size):
        publisher = int(publishers_pool[int(crng.integers(0, len(publishers_pool)))])
        volume = _object_volume(params, crng)
        hrn = f"urn:obj:{j}"
        if params.scenario == "mmtc":
            dev_hrn = f"urn:dev:{publisher}"
            dev_gid = ilm.register(net.resolver, dev_hrn, userplane.address_of(publisher))
            gid = ilm.register_indirect(net.resolver, hrn, dev_gid, service_meta=j)
        else:
            gid = ilm.register(
                net.resolver, hrn, userplane.address_of(publisher), service_meta=j
            )
        obj = userplane.ContentObject(gid, volume, publisher, popularity_rank=j + 1)
        net.add_object(obj)
        catalog.append(obj)

    fp = userplane.zipf_popularity(
        params.catalog_size, params.zipf_exponent, params.zipf_shift
    )

    fwd = np.concatenate([
        g.nodes_of_kind(NodeKind.ACCESS_POINT),
        g.nodes_of_kind(NodeKind.SWITCH),
        g.nodes_of_kind(NodeKind.GATEWAY),
    ])
    if params.preplace_everywhere:
        total_volume = sum(obj.volume for obj in catalog)
        net.media_capacity = max(net.media_capacity, total_volume)
        net.caches.clear()
        for node in fwd.tolist():
            store = net.cache_of(node)
            for obj in catalog:
                store.insert(obj.id, obj.volume)
    elif params.prefetch_budget >= 1 and capacity > 0:
        degs = g.degrees()[fwd]
        order = np.lexsort((fwd, -degs))
        candidates = fwd[order][: params.prefetch_candidates].tolist()
        nc = {int(i): node_centrality(g, int(i)) for i in candidates}
        top_j = catalog[: min(params.prefetch_top_j, len(catalog))]
        fp_by_id = {obj.id: float(fp[obj.popularity_rank - 1]) for obj in top_j}
        plan = userplane.prefetch_plan(
            hierarchy, nc, fp_by_id, params.prefetch_budget, prefetch_seed
        )
        userplane.apply_prefetch(net, plan)

    if params.scenario == "mmtc":
        pool = g.nodes_of_kind(NodeKind.MMTC_DEVICE)
    else:
        pool = np.concatenate([
            g.nodes_of_kind(NodeKind.PC), g.nodes_of_kind(NodeKind.MOBILE_DEVICE)
        ])
    # a requester is redrawn until it differs from the object's publisher,
    # which never happens when that publisher is the pool's only node
    if len(pool) == 1 and any(obj.publisher == pool[0] for obj in catalog):
        raise InvalidParams(
            f"node {int(pool[0])} is the only possible requester and also a publisher"
        )
    wrng = np.random.default_rng(np.random.SeedSequence([workload_seed, 0x3E0]))
    obj_draws = wrng.choice(params.catalog_size, size=params.request_count, p=fp)
    records = []
    traces = []
    for n in range(1, params.request_count + 1):
        obj = catalog[int(obj_draws[n - 1])]
        requester = int(pool[int(wrng.integers(0, len(pool)))])
        while requester == obj.publisher:
            requester = int(pool[int(wrng.integers(0, len(pool)))])
        req = userplane.RequestMsg(requested=obj.id, origin_node=requester)
        hc = baseline_hops(g, requester, obj.publisher)
        trace = userplane.handle_request(net, req)
        userplane.deliver_data(net, trace)
        records.append(
            RequestRecord(n, paths=[trace.hops], volume=obj.volume, baseline_hops=hc)
        )
        traces.append(trace)

    ito = compute_ito(records)
    report = ItoReport(
        scenario=params.scenario,
        sweep_variable=var,
        sweep_value=float(value),
        seed=int(params.seed),
        request_count=params.request_count,
        ito=ito,
        mean_hops=float(np.mean([t.hops for t in traces])),
        cache_hit_rate=float(np.mean([1.0 if t.cache_hit else 0.0 for t in traces])),
    )
    return report, records, traces


def run_scenario(params: ScenarioParams, with_details: bool = False):
    """One ItoReport per sweep point (plus records and traces on request)."""
    params.validate()
    var = SWEEP_VARS[params.scenario]
    values = tuple(params.sweep_values) or DEFAULT_SWEEPS[params.scenario]
    reports = []
    details = []
    for idx, value in enumerate(values):
        point = replace(params, **{var: value, "sweep_values": values})
        report, records, traces = _run_point(point, var, value, idx)
        reports.append(report)
        details.append((records, traces))
    if with_details:
        return reports, details
    return reports


def run_sweep(params: ScenarioParams, seeds) -> list:
    """The same sweep across several seeds, concatenated in seed order."""
    reports = []
    for seed in seeds:
        reports.extend(run_scenario(replace(params, seed=int(seed))))
    return reports


# -- report emission ---------------------------------------------------------------


REPORT_COLUMNS = "scenario,sweep_var,sweep_value,seed,N,ito,mean_hops,cache_hit_rate"


def reports_to_csv(reports) -> str:
    lines = [REPORT_COLUMNS]
    for r in reports:
        lines.append(
            f"{r.scenario},{r.sweep_variable},{r.sweep_value!r},{r.seed},"
            f"{r.request_count},{r.ito!r},{r.mean_hops!r},{r.cache_hit_rate!r}"
        )
    return "\n".join(lines) + "\n"


SUMMARY_COLUMNS = (
    "scenario,sweep_var,sweep_value,n_seeds,mean_ito,min_ito,max_ito,var_ito"
)


def sweep_report(reports) -> str:
    """Summary statistics per sweep point across seeds (population variance)."""
    reports = list(reports)
    if not reports:
        raise EmptyLog("no reports to summarize")
    groups = {}
    for r in reports:
        groups.setdefault((r.scenario, r.sweep_variable, r.sweep_value), []).append(r.ito)
    lines = [SUMMARY_COLUMNS]
    for key in sorted(groups):
        itos = groups[key]
        mean = sum(itos) / len(itos)
        var = sum((x - mean) ** 2 for x in itos) / len(itos)
        lines.append(
            f"{key[0]},{key[1]},{key[2]!r},{len(itos)},"
            f"{mean!r},{min(itos)!r},{max(itos)!r},{var!r}"
        )
    return "\n".join(lines) + "\n"
