"""Correctness checks for one traced run, against the independent oracles in
`tests/oracles.py`.

The tracer captures the request records, the delivery traces and the network
of the run; the checks reconcile them with the run's report and recompute
what the oracles can recompute. Each check returns a list of failure
messages; an empty list means the run is correct.
"""

from __future__ import annotations

import importlib.util

import numpy as np

from icnsim.topology import NodeKind

from . import TESTS

BASELINE_SAMPLE = 64
_FORWARDING = (NodeKind.SWITCH, NodeKind.ACCESS_POINT, NodeKind.GATEWAY)


def load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", TESTS / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_report(text: str) -> list:
    """Report rows as dicts; numeric fields parsed from their repr."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        row["N"] = int(row["N"])
        for key in ("ito", "mean_hops", "cache_hit_rate"):
            row[key] = float(row[key])
        rows.append(row)
    return rows


class TrimmedGraph:
    """The graph without its degree-1 nodes, except the nodes in `keep`,
    relabelled in ascending id order.

    A degree-1 node is interior to no path, so between kept nodes the hop
    counts are unchanged, and so is the lowest-id fewest-hops next hop
    (relabelling keeps the id order). This lets the pure-Python oracles run
    on million-node topologies.
    """

    def __init__(self, g, keep):
        degree = np.bincount(np.concatenate([g.ea, g.eb]), minlength=g.n)
        self.nodes = np.union1d(np.flatnonzero(degree > 1),
                                np.asarray(sorted(keep), dtype=np.int64))
        self.index = np.full(g.n, -1, dtype=np.int64)
        self.index[self.nodes] = np.arange(len(self.nodes))
        ia, ib = self.index[g.ea], self.index[g.eb]
        kept = (ia >= 0) & (ib >= 0)
        self.edges = list(zip(ia[kept].tolist(), ib[kept].tolist(),
                              g.ew[kept].tolist()))

    @property
    def n(self) -> int:
        return len(self.nodes)

    def __getitem__(self, node: int) -> int:
        return int(self.index[node])


def check_run(tracer, report_text: str, seed: int, replay: bool) -> list:
    """Reconcile one traced run with its report and the oracles. `replay`
    also replays every request against `oracles.ReplaySim`, which models
    routing to publishers only (prefetch off)."""
    rows = parse_report(report_text)
    if not (len(rows) == len(tracer.record_logs) == len(tracer.nets) == 1):
        return [f"expected one sweep point, got {len(rows)} report rows, "
                f"{len(tracer.record_logs)} request logs, {len(tracer.nets)} networks"]
    row, records, net = rows[0], tracer.record_logs[0], tracer.nets[0]
    traces = tracer.traces
    n = row["N"]
    failures = []
    if not (len(records) == len(traces) == n):
        return [f"report N={n} but {len(records)} records and {len(traces)} traces"]

    hits = tracer.counters["hits"]
    misses = sum(1 for t in traces if not t.cache_hit)
    if hits + misses != n:
        failures.append(f"hits {hits} + misses {misses} != requests {n}")
    if row["cache_hit_rate"] != hits / n:
        failures.append(f"cache_hit_rate {row['cache_hit_rate']!r} != {hits}/{n}")
    hops = sum(t.hops for t in traces)
    if hops != tracer.counters["hops"] or row["mean_hops"] != hops / n:
        failures.append(f"mean_hops {row['mean_hops']!r} != {hops}/{n}")
    if any(r.paths != [t.hops] for r, t in zip(records, traces)):
        failures.append("a request record's path differs from its trace")

    oracles = load_oracles()
    ito = oracles.fraction_ito([(r.paths, r.baseline_hops, r.volume) for r in records])
    if float(ito) != row["ito"]:
        failures.append(f"ito {row['ito']!r} != oracle {float(ito)!r}")

    publisher = [net.objects[t.request.requested].publisher for t in traces]
    origin = [t.request.origin_node for t in traces]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xB45E]))
    sample = sorted(rng.choice(n, size=min(BASELINE_SAMPLE, n), replace=False).tolist())
    g = net.graph
    trimmed = TrimmedGraph(g, {origin[i] for i in sample} | {publisher[i] for i in sample})
    for i in sample:
        want = oracles.bfs_hops(trimmed.n, trimmed.edges,
                                trimmed[origin[i]], trimmed[publisher[i]])
        if records[i].baseline_hops != want:
            failures.append(f"request {i + 1}: baseline_hops "
                            f"{records[i].baseline_hops} != oracle {want}")

    if replay:
        failures += _replay(oracles, net, traces, records, origin, publisher)
    return failures


def _replay(oracles, net, traces, records, origin, publisher) -> list:
    g = net.graph
    trimmed = TrimmedGraph(g, set(origin) | set(publisher))
    forwarding = [trimmed[v] for v in trimmed.nodes.tolist() if g.kind(v) in _FORWARDING]
    publisher_of = {oid: trimmed[obj.publisher] for oid, obj in net.objects.items()}
    volume_of = {oid: obj.volume for oid, obj in net.objects.items()}
    sim = oracles.ReplaySim(trimmed.n, trimmed.edges, forwarding, publisher_of,
                            volume_of, net.media_capacity)
    failures = []
    for i, (t, r) in enumerate(zip(traces, records)):
        oid = t.request.requested
        hops, serving = sim.request(trimmed[origin[i]], oid)
        if hops != t.hops or int(trimmed.nodes[serving]) != t.serving_node:
            failures.append(f"request {i + 1}: {t.hops} hops from node "
                            f"{t.serving_node}, replay says {hops} from "
                            f"{int(trimmed.nodes[serving])}")
        if sim.baseline(trimmed[origin[i]], oid) != r.baseline_hops:
            failures.append(f"request {i + 1}: baseline differs from replay")
    return failures
