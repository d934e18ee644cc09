"""Deterministic simulator for hierarchical information-centric networking:
weighted topologies, container hierarchies, a congruity-trained distance
learner, identifier-locator mapping, caching/prefetching, and
traffic-offloading sweeps."""

from .containment import (
    Container,
    ContainerHierarchy,
    Target,
    TargetMode,
    containerize,
    containerize_level,
    validate_hierarchy,
)
from .congruity import (
    Dataset,
    DatasetSpec,
    Hyperparams,
    ParameterSet,
    Sample,
    congruity_objective,
    filter_topk,
    forward_negative,
    forward_positive,
    general_error,
    personal_error,
    predict_distance,
    regularizer,
    synthesize_dataset,
    train,
)
from .evaluation import (
    ItoReport,
    RequestRecord,
    ScenarioParams,
    baseline_hops,
    compute_ito,
    run_scenario,
    run_sweep,
    sweep_report,
)
from .ilm import (
    Gateway,
    GlobalId,
    NameRecord,
    NamingService,
    NetworkAddress,
    Resolver,
    register,
    register_indirect,
    resolve,
    update_binding,
)
from .topology import (
    Edge,
    Node,
    NodeKind,
    WeightedGraph,
    WeightUnit,
    build_graph,
    generate_topology,
    measure_distance,
    node_centrality,
)
from .userplane import (
    CacheStore,
    ContentObject,
    DeliveryTrace,
    NetState,
    PrefetchPlan,
    RequestMsg,
    deliver_data,
    handle_request,
    prefetch_plan,
    zipf_popularity,
)

__version__ = "0.1.0"
