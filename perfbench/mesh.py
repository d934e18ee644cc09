"""The mesh-replay workload: a non-tree graph driven through the public
pipeline in `evaluation._run_point`'s order.

The graph is `generate_topology`'s eMBB tree (4,096 devices) plus seeded
cross-links: a ring over the access points and a chain over the switches,
which gives 4,435 nodes and 4,769 edges. Prefetch is off, so only the
publishers are registered and every request can be replayed against
`oracles.ReplaySim`. Inputs (graph, catalog, request draws) are made before
the timer starts; `run_pipeline` is the timed part.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from icnsim import containment, evaluation, ilm, topology, userplane

from .workloads import WORKLOADS

N_DEVICES = 4096
CATALOG_SIZE = 64
CACHE_FRACTION = 0.5
RATE_MBPS = 8.0
TARGETS_US = (1_000, 150_000, 500_000)
ZIPF_EXPONENT, ZIPF_SHIFT = 0.8, 10.0

# Cross-link latency windows (microseconds): the AP ring sits in the access
# tier (between the 1 ms and 150 ms targets), the switch chain in the core
# tier (between 150 ms and 500 ms), like the tree links they run beside.
_RING_US = (5_000, 120_000)
_CHAIN_US = (160_000, 450_000)


@dataclasses.dataclass
class MeshInputs:
    seed: int
    graph: topology.WeightedGraph
    catalog: list       # (publisher node, volume bytes) per object
    requests: list      # (requester node, object index) per request
    capacity: int       # media bytes per forwarding element


def mesh_graph(seed: int, n_devices: int = N_DEVICES) -> topology.WeightedGraph:
    """The eMBB tree for `seed` with an AP ring and a switch chain added.

    Consecutive access points, and consecutive switch-kind nodes (zone
    switches then switches, in id order), are not adjacent in the tree once
    there are two zones or more (from 257 devices on), so no cross-link
    duplicates a tree edge.
    """
    params = evaluation.ScenarioParams(scenario="embb", n_devices=n_devices)
    tree = topology.generate_topology(params, seed)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x3E54]))
    aps = tree.nodes_of_kind(topology.NodeKind.ACCESS_POINT)
    switches = tree.nodes_of_kind(topology.NodeKind.SWITCH)
    ea = np.concatenate([tree.ea, aps, switches[:-1]])
    eb = np.concatenate([tree.eb, np.roll(aps, -1), switches[1:]])
    ew = np.concatenate([
        tree.ew,
        rng.integers(*_RING_US, size=len(aps), dtype=np.int64),
        rng.integers(*_CHAIN_US, size=len(switches) - 1, dtype=np.int64),
    ])
    return topology.WeightedGraph.from_arrays(
        tree.kinds, tree.mems, tree.storages, tree.downs, tree.ups,
        tree.computes, ea, eb, ew, tree.unit,
    )


def mesh_inputs(seed: int, n_devices: int = N_DEVICES,
                n_requests: int = WORKLOADS["mesh-replay"].requests) -> MeshInputs:
    """Graph, catalog and request draws for one seed (benchmark-side work);
    the sizes are the workload's unless a test asks for a smaller one."""
    g = mesh_graph(seed, n_devices)
    base_volume = int(round(RATE_MBPS * 1e6 / 8.0))
    crng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xCA7]))
    servers = g.nodes_of_kind(topology.NodeKind.SERVER)
    publishers = servers[servers != 0]
    catalog = [
        (int(publishers[int(crng.integers(0, len(publishers)))]),
         max(1, int(round(base_volume * crng.uniform(0.5, 1.5)))))
        for _ in range(CATALOG_SIZE)
    ]
    ranks = np.arange(1, CATALOG_SIZE + 1, dtype=np.float64)
    popularity = 1.0 / (ranks + ZIPF_SHIFT) ** ZIPF_EXPONENT
    popularity /= popularity.sum()
    devices = np.concatenate([
        g.nodes_of_kind(topology.NodeKind.PC),
        g.nodes_of_kind(topology.NodeKind.MOBILE_DEVICE),
    ])
    wrng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x3E0]))
    draws = wrng.choice(CATALOG_SIZE, size=n_requests, p=popularity)
    requests = [
        (int(devices[int(wrng.integers(0, len(devices)))]), int(k))
        for k in draws.tolist()
    ]
    capacity = int(round(CACHE_FRACTION * CATALOG_SIZE * base_volume))
    return MeshInputs(int(seed), g, catalog, requests, capacity)


def _request(naming, oid, requester: int, rank: int):
    """A RequestMsg built the way `_run_point` builds one, passing only the
    fields the message type still declares."""
    fields = {f.name for f in dataclasses.fields(userplane.RequestMsg)}
    kwargs = {"requested": oid, "origin_node": requester}
    if "requester" in fields:
        kwargs["requester"] = naming.assign_id(f"urn:user:{requester}")
    if "priority" in fields:
        kwargs["priority"] = rank
    return userplane.RequestMsg(**kwargs)


def run_pipeline(inp: MeshInputs) -> str:
    """Containerize, build the resolver tree and network, register the
    catalog, replay every request, and return the one-row report CSV.

    Every package function is looked up on its module at call time, so a
    tracer's wrappers see the calls.
    """
    g = inp.graph
    targets = [
        containment.Target(i + 1, v, containment.TargetMode.ADDITIVE)
        for i, v in enumerate(TARGETS_US)
    ]
    hierarchy = containment.containerize(g, targets)
    tree = ilm.build_ilm_tree(hierarchy)
    net = userplane.build_network(g, hierarchy, tree, inp.capacity)
    catalog = []
    for j, (publisher, volume) in enumerate(inp.catalog):
        gid = ilm.register(
            net.local_ilm(publisher), f"urn:obj:{j}",
            userplane.address_of(publisher), service_meta=j,
        )
        obj = userplane.ContentObject(gid, volume, publisher, popularity_rank=j + 1)
        net.add_object(obj)
        catalog.append(obj)

    records, traces = [], []
    for n, (requester, k) in enumerate(inp.requests, start=1):
        obj = catalog[k]
        req = _request(tree.naming, obj.id, requester, obj.popularity_rank)
        hc = evaluation.baseline_hops(g, requester, obj.publisher)
        trace = userplane.handle_request(net, req)
        userplane.deliver_data(net, trace)
        records.append(
            evaluation.RequestRecord(n, paths=[trace.hops], volume=obj.volume,
                                     baseline_hops=hc)
        )
        traces.append(trace)

    report = evaluation.ItoReport(
        scenario="embb",
        sweep_variable="data_rate_mbps",
        sweep_value=RATE_MBPS,
        seed=inp.seed,
        request_count=len(inp.requests),
        ito=evaluation.compute_ito(records),
        mean_hops=float(np.mean([t.hops for t in traces])),
        cache_hit_rate=float(np.mean([1.0 if t.cache_hit else 0.0 for t in traces])),
    )
    return evaluation.reports_to_csv([report])
