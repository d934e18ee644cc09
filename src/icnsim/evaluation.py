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

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import mul

import numpy as np

from . import congruity, ilm, userplane
from .containment import Target, TargetMode, containerize
from .errors import EmptyLog, InvalidParams, UnitMismatch, ZeroDenominator
from .topology import (
    NodeKind,
    WeightedGraph,
    generate_topology,
    hop_distance,
    topology_size,
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

# Workload caps. One replayed request keeps its draws and log entries, about
# 60 B, and one catalog object its entry, resolver listing and name,
# about 0.9 KiB (tracemalloc over small eMBB and mMTC points), so either cap
# alone keeps a point under about 1 GiB and a minute (0.01-0.03 ms each).
MAX_REQUESTS = 1_000_000
MAX_CATALOG_SIZE = 1_000_000
# Prefetch cap: each placement renormalizes every (candidate, object) cell,
# 5-8 ns a cell (20-27 ms a placement at 3.36M cells), so a point whose
# min(prefetch_budget, cells) x cells stays under this plans in 5-8 s.
MAX_PREFETCH_WORK = 1_000_000_000


@dataclass(slots=True)
class RequestRecord:
    n: int
    paths: list          # hop count per routing path in this request
    volume: int
    baseline_hops: int

    def __post_init__(self):
        if len(self.paths) < 1:
            raise InvalidParams("each request needs at least one path")
        if min(self.paths) < 0:
            raise InvalidParams("hop counts must be non-negative")
        if self.baseline_hops < 1:
            raise InvalidParams("baseline hop count must be >= 1")
        if self.volume <= 0:
            raise InvalidParams("object volume must be positive")


class RequestLog:
    """A point's request log as integer columns, one path per request: hop
    count, object volume and baseline hop count. It holds no object per
    request; reading an entry (by index or iteration) builds its record."""

    __slots__ = ("hops", "volumes", "baseline_hops")

    def __init__(self):
        self.hops, self.volumes, self.baseline_hops = [], [], []

    def __len__(self) -> int:
        return len(self.hops)

    def __getitem__(self, i) -> RequestRecord:
        i = range(len(self.hops))[i]  # raises IndexError past either end
        return RequestRecord(i + 1, [self.hops[i]], self.volumes[i], self.baseline_hops[i])


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
    target_mode: TargetMode = TargetMode.ADDITIVE
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
        if not 1 <= self.request_count <= MAX_REQUESTS:
            raise InvalidParams(f"request_count must lie in [1, {MAX_REQUESTS}]")
        if not 1 <= self.catalog_size <= MAX_CATALOG_SIZE:
            raise InvalidParams(f"catalog_size must lie in [1, {MAX_CATALOG_SIZE}]")
        if not (0.0 <= self.cache_fraction):
            raise InvalidParams("cache_fraction must be non-negative")
        if self.prefetch_budget < 0:
            raise InvalidParams("prefetch_budget must be >= 0")
        if min(self.prefetch_candidates, self.prefetch_top_j) < 1:
            raise InvalidParams("prefetch_candidates and prefetch_top_j must be >= 1")
        if not (self.data_rate_mbps > 0 and self.service_seconds > 0):
            raise InvalidParams("data_rate_mbps and service_seconds must be positive")
        if not (0.0 <= self.learned_fraction <= 1.0):
            raise InvalidParams("learned_fraction must lie in [0, 1]")
        if len(self.targets_us) < 1:
            raise InvalidParams("need at least one containerization target")
        congruity.check_widths((congruity.N_FEATURES, *self.hidden_widths, 1))
        return self


def sweep_points(params: ScenarioParams) -> list:
    """One validated ScenarioParams per sweep point: the sweep variable set to
    each of `sweep_values`, or of the scenario's default sweep when that is
    empty, and `sweep_values` set to the values swept. Each point also passes
    the topology's own checks, stays within MAX_PREFETCH_WORK and has finite
    object volumes and cache capacity; the base `params` need not, as no run
    uses its value of the sweep variable."""
    params.validate()
    var = SWEEP_VARS[params.scenario]
    values = tuple(params.sweep_values) or DEFAULT_SWEEPS[params.scenario]
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise InvalidParams(f"sweep_values repeats {repeated[0]!r}")
    points = [
        replace(params, **{var: value, "sweep_values": values}).validate()
        for value in values
    ]
    for point in points:
        forwarding = sum(topology_size(point)[3:])  # gateways, access points, switches, zones
        cells = (min(point.prefetch_candidates, forwarding)
                 * min(point.prefetch_top_j, point.catalog_size))
        if min(point.prefetch_budget, cells) * cells > MAX_PREFETCH_WORK:
            raise InvalidParams(
                f"prefetch_budget = {point.prefetch_budget} placements over {cells} cells "
                f"(prefetch_candidates x prefetch_top_j) pass {MAX_PREFETCH_WORK} cell updates"
            )
        largest = 1.5 * _nominal_bytes(point)  # the largest _object_volume draw
        if not math.isfinite(largest):
            raise InvalidParams(
                f"data_rate_mbps = {point.data_rate_mbps!r} and service_seconds = "
                f"{point.service_seconds!r} give objects of {largest!r} bytes"
            )
    capacity = _capacity_bytes(points[0])
    if not math.isfinite(capacity):
        raise InvalidParams(
            f"cache_fraction = {params.cache_fraction!r} and catalog_size = "
            f"{params.catalog_size} give a cache of {capacity!r} bytes"
        )
    return points


# -- the metric -----------------------------------------------------------------


def baseline_hops(g: WeightedGraph, requester: int, publisher: int) -> int:
    """Fewest-hops route length to the original source on the raw topology."""
    return hop_distance(g, requester, publisher)


def compute_ito(records) -> float:
    """Exact evaluation of the offloading ratio over a request log: a
    RequestLog, read by its columns after one check of each, or any
    iterable of records."""
    if isinstance(records, RequestLog):
        spent, cost, vols = records.hops, records.baseline_hops, records.volumes
        if spent and (min(spent) < 0 or min(cost) < 1 or min(vols) <= 0):
            raise InvalidParams("a logged request breaks a RequestRecord invariant")
    else:
        records = list(records)
        spent = [sum(r.paths) for r in records]  # hops over the request's paths
        cost = [len(r.paths) * r.baseline_hops for r in records]
        vols = [r.volume for r in records]
    if not vols:
        raise EmptyLog("no request records")
    den = sum(map(mul, cost, vols))
    if den == 0:
        raise ZeroDenominator("baseline traffic volume is zero")
    return float(Fraction(den - sum(map(mul, spent, vols)), den))


# -- one sweep point --------------------------------------------------------------


def _nominal_bytes(params, sweep_value=None) -> float:
    if params.scenario == "embb":
        rate = params.data_rate_mbps if sweep_value is None else sweep_value
        return rate * 1e6 / 8.0 * params.service_seconds
    if params.scenario == "urllc":
        return _URLLC_VOLUME
    return 64  # mMTC sensor objects


def _nominal_volume(params, sweep_value=None) -> int:
    return max(1, int(round(_nominal_bytes(params, sweep_value))))


def _capacity_bytes(params) -> float:
    """Each element's cache budget, sized on the first sweep point's volume."""
    return (params.cache_fraction * params.catalog_size
            * _nominal_volume(params, params.sweep_values[0]))


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
    max_w = float(g.ew.max())
    X, lat = _edge_samples(g, max_w)
    half = g.m // 2
    ones = np.ones(g.m)
    dp = congruity.Dataset("personal", X[:half], {"distance": (lat[:half], ones[:half])})
    dg = congruity.Dataset("general", X[half:], {"distance": (lat[half:], ones[half:])})
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
        new_w[j] = int(round(congruity.predict_distance(result.theta_star, X[j], scale=max_w)))
    learned = WeightedGraph(g.kinds, g.ea, g.eb, new_w, g.unit)
    learned._tree = g._tree  # same edges, so the same tree (or none)
    return learned


def _edge_samples(g: WeightedGraph, max_w: float):
    """One learner sample per edge (a, b): a row of 17 features in [0, 1],
    built as numpy columns, and the edge's normalized latency, its distance
    label."""
    a, b = g.ea, g.eb
    degs = g.degrees().astype(np.float64)
    max_deg = max(1.0, degs.max())
    up, down, cpu, sto = (v / max(1.0, float(v.max()))
                          for v in (g.ups, g.downs, g.computes, g.storages))
    lat = g.ew / max_w
    half = np.full(g.m, 0.5)
    X = np.column_stack([
        np.arange(g.m) / g.m, half, up[a], down[a], cpu[a],
        degs[a] / max_deg, degs[b] / max_deg, lat, sto[a], up[b], cpu[b],
        (degs[a] + degs[b]) / (2 * max_deg), a / g.n, b / g.n,
        g.kinds[a] / 8.0, g.kinds[b] / 8.0, half,
    ])
    return X, lat


def point_seeds(seed: int, point_index: int):
    """(topology, catalog, workload, prefetch) sub-seeds for one sweep point."""
    ss = np.random.SeedSequence([int(seed), int(point_index), 0x51E7])
    return tuple(int(s) for s in ss.generate_state(4, dtype=np.uint64))


def _requesters(pool: np.ndarray, wrng, chunk: int):
    """Requesters drawn uniformly from `pool`, `chunk` draws per generator
    call. A batch of bounded integer draws yields the same stream as one
    scalar `integers` call per draw, so consuming them one at a time, with
    redraws, gives the same requesters as scalar draws would."""
    while True:
        yield from pool[wrng.integers(0, len(pool), size=chunk)].tolist()


def point_graph(params: ScenarioParams, point_index: int) -> WeightedGraph:
    """The graph that sweep point `point_index`, an entry of `sweep_points`,
    runs on: learned weights replace measured ones under `use_learner`."""
    topo_seed = point_seeds(params.seed, point_index)[0]
    g = generate_topology(params, topo_seed)
    return _learned_graph(g, params, topo_seed) if params.use_learner else g


def point_targets(params: ScenarioParams) -> list:
    """Level i + 1 targets `targets_us[i]`, in `target_mode`."""
    return [Target(i + 1, int(v), params.target_mode) for i, v in enumerate(params.targets_us)]


def _run_point(params: ScenarioParams, point_index: int, with_details: bool = False):
    """One sweep point; `params` is an entry of `sweep_points`. Returns
    (report, RequestLog, traces); traces is None unless `with_details`."""
    var = SWEEP_VARS[params.scenario]
    _, catalog_seed, workload_seed, prefetch_seed = point_seeds(params.seed, point_index)
    g = point_graph(params, point_index)
    hierarchy = containerize(g, point_targets(params))

    capacity = int(round(_capacity_bytes(params)))
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

    # Each store fills on its own and candidates sort by (-degree, id), so
    # the order of these ids reaches no output.
    fwd = g.forwarding_nodes()
    if params.preplace_everywhere:
        total_volume = sum(obj.volume for obj in catalog)
        net.media_capacity = max(net.media_capacity, total_volume)
        for node in fwd.tolist():
            store = net.cache_of(node)
            for obj in catalog:
                store.insert(obj.id, obj.volume)
    elif params.prefetch_budget >= 1 and capacity > 0:
        degs = g.degrees_of(fwd)
        top = np.lexsort((fwd, -degs))[: params.prefetch_candidates]
        # each candidate's node_centrality, from the degrees at hand
        nc = {i: d / (g.n - 1) for i, d in zip(fwd[top].tolist(), degs[top].tolist())}
        top_j = catalog[: min(params.prefetch_top_j, len(catalog))]
        fp_by_id = {obj.id: float(fp[obj.popularity_rank - 1]) for obj in top_j}
        plan = userplane.prefetch_plan(nc, fp_by_id, params.prefetch_budget, prefetch_seed)
        userplane.apply_prefetch(net, plan)

    if params.scenario == "mmtc":
        pool = publishers_pool  # the devices both publish and request
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
    requesters = _requesters(pool, wrng, params.request_count)
    log = RequestLog()
    log_hops, log_volume, log_baseline = (
        log.hops.append, log.volumes.append, log.baseline_hops.append)
    traces = [] if with_details else None
    hits = 0
    # read after a tracer has patched them, so its wrappers see every call
    hops, handle, deliver = baseline_hops, userplane.handle_request, userplane.deliver_data
    request = userplane.RequestMsg
    for k in obj_draws.tolist():
        obj = catalog[k]
        publisher = obj.publisher
        requester = next(requesters)
        while requester == publisher:
            requester = next(requesters)
        hc = hops(g, requester, publisher)
        trace = handle(net, request(obj.id, requester))
        deliver(net, trace)
        log_hops(trace.hops)
        log_volume(obj.volume)
        log_baseline(hc)
        hits += trace.cache_hit
        if with_details:
            traces.append(trace)

    ito = compute_ito(log)
    # Integer totals below 2**53 are exact in float64, so dividing them by
    # the request count gives the same IEEE result as np.mean over the traces.
    report = ItoReport(
        scenario=params.scenario,
        sweep_variable=var,
        sweep_value=float(getattr(params, var)),
        seed=int(params.seed),
        request_count=params.request_count,
        ito=ito,
        mean_hops=sum(log.hops) / params.request_count,
        cache_hit_rate=hits / params.request_count,
    )
    return report, log, traces


def run_scenario(params: ScenarioParams, with_details: bool = False):
    """One ItoReport per sweep point, plus (RequestLog, traces) per point
    when `with_details`; only then are the per-request traces kept."""
    if params.target_mode == TargetMode.BOTTLENECK:
        raise UnitMismatch("target_mode = bottleneck, but every generated topology is latency_us")
    reports = []
    details = []
    for idx, point in enumerate(sweep_points(params)):
        report, records, traces = _run_point(point, idx, with_details)
        reports.append(report)
        if with_details:
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
