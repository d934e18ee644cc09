# Follow requests hop by hop: cache misses walk to the publisher, on-path
# copies shorten later requests, and centrality-weighted prefetch pushes
# popular objects toward well-connected elements up front.
from icnsim import (
    ContentObject, RequestMsg, Resolver, ScenarioParams, Target,
    containerize, generate_topology, node_centrality,
    prefetch_plan, zipf_popularity,
)
from icnsim.ilm import register
from icnsim.topology import NodeKind
from icnsim.userplane import (
    address_of, apply_prefetch, build_network, deliver_data, handle_request,
    traces_to_csv,
)

params = ScenarioParams(scenario="embb", n_devices=48)
g = generate_topology(params, seed=2)
hierarchy = containerize(g, [Target(1, 1_000), Target(2, 150_000), Target(3, 500_000)])
net = build_network(g, hierarchy, Resolver(), media_capacity=5_000_000)

publisher = int(g.nodes_of_kind(NodeKind.SERVER)[1])
catalog = []
for j in range(4):
    gid = register(net.resolver, f"urn:obj:{j}", address_of(publisher))
    obj = ContentObject(gid, volume=1_000_000, publisher=publisher, popularity_rank=j + 1)
    net.add_object(obj)
    catalog.append(obj)

device = int(g.nodes_of_kind(NodeKind.PC)[0])

def ask(obj, origin):
    trace = handle_request(net, RequestMsg(obj.id, origin))
    deliver_data(net, trace)
    return trace

first = ask(catalog[0], device)
print(f"cold request: {first.hops} hops to node {first.serving_node} (publisher)")
second = ask(catalog[0], device)
print(f"warm request: {second.hops} hop(s), cache hit = {second.cache_hit}")

# Prefetch: popularity follows a shifted power law, placement probability
# is centrality times popularity over all (node, object) cells.
fp = zipf_popularity(len(catalog), s=0.8, shift=10.0)
candidates = [int(i) for i in g.nodes_of_kind(NodeKind.ACCESS_POINT)]
nc = {i: node_centrality(g, i) for i in candidates}
plan = prefetch_plan(
    hierarchy, nc, {obj.id: float(fp[obj.popularity_rank - 1]) for obj in catalog},
    budget=3, seed=1,
)
print("\nplacement probabilities sum to", round(plan.total_probability, 12))
placed = apply_prefetch(net, plan)
for oid, node, hops in placed:
    print(f"  placed {oid.hex[:10]}.. at node {node} ({hops} hops from the publisher)")

other_device = int(g.nodes_of_kind(NodeKind.PC)[5])
traces = [ask(obj, other_device) for obj in catalog]
print("\ntrace log:")
print(traces_to_csv(traces))
