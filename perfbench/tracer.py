"""A tracer installed from outside the package, around the calls into each
module's public functions.

Each hook wraps one function or method under every name that callers look it
up by (`icnsim.userplane.resolve`, `icnsim.evaluation.hop_distance`, ...).
Span hooks record one span per call: id, parent span, request id, name,
start, end and self time. Hot leaf hooks (`filter_topk`, `hop_distance`, ...)
only aggregate count, total, self and maximum time. Self time is a call's
duration minus the time of the hooked calls inside it, so the self times of
all hooks add up to the outermost hooked call. Spans stay in memory until
`write_spans`. `uninstall` puts every original object back and reports any
name that does not hold its original afterwards.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    module: str            # defining module, e.g. "icnsim.ilm"
    attr: str              # function name, or "Class.method"
    span: bool = False     # one span per call; otherwise aggregate only
    pre: object = None     # pre(tracer, args) -> state
    post: object = None    # post(tracer, args, result, state)

    @property
    def layer(self) -> str:
        return self.module.rsplit(".", 1)[-1]

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr}"


# -- observers: counters and captures at the hooked boundaries ---------------------


def _request_starts(tr, args):
    """A request begins at its first hooked call (`baseline_hops` or
    `handle_request`) and ends when `deliver_data` returns."""
    if not tr.request_open:
        tr.request_id += 1
        tr.request_open = True


def _request_ends(tr, args, result, state):
    tr.request_open = False


def _hop_query(tr, args, result, state):
    is_tree = getattr(args[0], "is_tree", None)
    if is_tree is not None and not is_tree():
        tr.counters["offtree"] += 1


def _resolve_levels(tr, args, result, state):
    """Chain steps from the asking resolver to the one holding the record."""
    ilm_node, gid = args[0], args[1]
    chain = getattr(ilm_node, "chain", None)
    if chain is None:
        return
    for steps, node in enumerate(chain()):
        if gid in getattr(node, "table", ()):
            tr.counters["resolve_levels"] += steps
            return


def _insert_before(tr, args):
    store, oid = args[0], args[1]
    return len(store.entries), oid in store.entries


def _insert_after(tr, args, result, state):
    if result:
        before, had = state
        tr.counters["cache_inserts"] += 1
        tr.counters["cache_evictions"] += before - len(args[0].entries) + 1 - had


def _request_done(tr, args, result, state):
    tr.counters["hops"] += result.hops
    tr.counters["hits"] += bool(result.cache_hit)
    tr.traces.append(result)


def _plan_drawn(tr, args, result, state):
    tr.counters["prefetch_drawn"] += len(result.placements)


def _plan_placed(tr, args, result, state):
    tr.counters["prefetch_placed"] += len(result)


def _containers(tr, args, result, state):
    for level, containers in enumerate(result.levels, start=1):
        tr.counters[f"containers_l{level}"] += len(containers)


def _network_built(tr, args, result, state):
    tr.nets.append(result)


def _records_logged(tr, args):
    tr.record_logs.append(args[0])


def _train_starts(tr, args):
    tr.train_state = {"start": time.perf_counter(), "objectives": 0, "split": None}


def _train_done(tr, args, result, state):
    end = time.perf_counter()
    st = tr.train_state
    split = st["split"] if st["split"] is not None else end
    tr.times["prune"] += split - st["start"]
    tr.times["descent"] += end - split
    tr.counters["epochs"] += len(result.loss_history) - 1
    tr.counters["pruned"] += result.pruned_count
    tr.train_state = None


def _objective_starts(tr, args):
    """`train`'s second objective evaluation ends the prune phase."""
    st = tr.train_state
    if st is not None:
        st["objectives"] += 1
        if st["objectives"] == 2:
            st["split"] = time.perf_counter()


def _grad_personal_starts(tr, args):
    st = tr.train_state
    if st is not None and st["split"] is None:
        tr.counters["prune_grad_calls"] += 1


HOOKS = (
    Hook("icnsim.cli", "main", span=True),
    Hook("icnsim.evaluation", "run_sweep", span=True),
    Hook("icnsim.evaluation", "run_scenario", span=True),
    Hook("icnsim.evaluation", "baseline_hops", span=True, pre=_request_starts),
    Hook("icnsim.evaluation", "compute_ito", span=True, pre=_records_logged),
    Hook("icnsim.topology", "generate_topology", span=True),
    Hook("icnsim.topology", "hop_distance", post=_hop_query),
    Hook("icnsim.topology", "next_hop_toward", post=_hop_query),
    Hook("icnsim.containment", "containerize", span=True, post=_containers),
    Hook("icnsim.ilm", "build_ilm_tree", span=True),
    Hook("icnsim.ilm", "register", span=True),
    Hook("icnsim.ilm", "register_indirect", span=True),
    Hook("icnsim.ilm", "resolve", post=_resolve_levels),
    Hook("icnsim.ilm", "update_binding", span=True),
    Hook("icnsim.ilm", "NamingService.assign_id"),
    Hook("icnsim.userplane", "build_network", span=True, post=_network_built),
    Hook("icnsim.userplane", "prefetch_plan", span=True, post=_plan_drawn),
    Hook("icnsim.userplane", "apply_prefetch", span=True, post=_plan_placed),
    Hook("icnsim.userplane", "handle_request", span=True, pre=_request_starts,
         post=_request_done),
    Hook("icnsim.userplane", "deliver_data", span=True, post=_request_ends),
    Hook("icnsim.userplane", "CacheStore.insert", pre=_insert_before,
         post=_insert_after),
    Hook("icnsim.congruity", "train", span=True, pre=_train_starts, post=_train_done),
    Hook("icnsim.congruity", "congruity_objective", pre=_objective_starts),
    Hook("icnsim.congruity", "grad_personal", pre=_grad_personal_starts),
    Hook("icnsim.congruity", "filter_topk"),
)


class Tracer:
    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.stats = {h.name: [0, 0.0, 0.0, 0.0] for h in hooks}  # calls, total, self, max
        self.layer_of = {h.name: h.layer for h in hooks}
        self.counters = Counter()
        self.times = Counter()
        self.spans = []          # (id, parent id, request id, name, start, end, self)
        self.traces = []         # DeliveryTrace per handled request
        self.record_logs = []    # request-record list per compute_ito call
        self.nets = []           # NetState per build_network call
        self.absent = []         # hooks whose target no longer exists
        self.request_id = 0
        self.request_open = False
        self.train_state = None
        self._stack = []         # open frames: [start, hooked child time]
        self._span_stack = []    # ids of the open spans
        self._patches = []       # (owner, attribute, original, was in owner's dict)

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        for hook in self.hooks:
            target = self._find(hook)
            if target is None:
                self.absent.append(hook.name)
                continue
            owner, attr, original = target
            wrapper = self._wrap(hook, original)
            if "." in hook.attr:   # a method: patch the class
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in [m for k, m in sys.modules.items()
                        if k == "icnsim" or k.startswith("icnsim.")]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)
        return self

    @staticmethod
    def _find(hook):
        try:
            owner = importlib.import_module(hook.module)
        except ImportError:
            return None
        *path, attr = hook.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        original = getattr(owner, attr, None)
        if not callable(original):
            return None
        return owner, attr, original

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> list:
        """Restore every patched name; return those not holding their
        original object afterwards."""
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        wrong = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original, _ in self._patches
            if getattr(owner, attr, None) is not original
        ]
        self._patches = []
        return wrong

    # -- recording -------------------------------------------------------

    def _wrap(self, hook, fn):
        stat = self.stats[hook.name]
        stack, span_stack, spans = self._stack, self._span_stack, self.spans
        clock = time.perf_counter
        pre, post, name, is_span = hook.pre, hook.post, hook.name, hook.span
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(tracer, args) if pre is not None else None
            if is_span:
                span_id = len(spans) + len(span_stack) + 1
                parent = span_stack[-1] if span_stack else 0
                span_stack.append(span_id)
            frame = [0.0, 0.0]
            stack.append(frame)
            frame[0] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += own
                if duration > stat[3]:
                    stat[3] = duration
                if is_span:
                    span_stack.pop()
                    rid = tracer.request_id if tracer.request_open else 0
                    spans.append((span_id, parent, rid, name, start, end, own))
            if post is not None:
                post(tracer, args, result, state)
            return result

        return wrapper

    def run_root(self, hook: Hook, fn, *args):
        """Run `fn`, a pipeline the benchmark drives itself, as a span of
        `hook`'s layer, so that its own time is attributed too."""
        self.stats.setdefault(hook.name, [0, 0.0, 0.0, 0.0])
        self.layer_of[hook.name] = hook.layer
        return self._wrap(hook, fn)(*args)

    def write_spans(self, path) -> None:
        """Spans as CSV, in the order they ended."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,request_id,name,start_s,end_s,self_s\n")
            for sid, parent, rid, name, start, end, own in self.spans:
                fh.write(f"{sid},{parent},{rid},{name},{start!r},{end!r},{own!r}\n")

    # -- per-layer metrics ------------------------------------------------

    def metrics(self, run_s: float) -> dict:
        """Per-layer metrics (name -> (value, unit)) for one traced run that
        took `run_s` seconds of wall time."""
        st, c, t = self.stats, self.counters, self.times

        def calls(name):
            return st.get(name, [0])[0]

        def total(name):
            return st.get(name, [0, 0.0])[1]

        def ratio(num, den):
            return num / den if den else 0.0

        layer_self = Counter()
        for name, (_, _, own, _) in st.items():
            layer_self[self.layer_of[name]] += own
        hop_calls = calls("topology.hop_distance") + calls("topology.next_hop_toward")
        resolve_calls = calls("ilm.resolve")
        requests = calls("userplane.handle_request")
        out = {
            "topology.self_s": (layer_self["topology"], "s"),
            "topology.generate.s": (total("topology.generate_topology"), "s"),
            "topology.hop_distance.calls": (calls("topology.hop_distance"), "count"),
            "topology.hop_distance.s": (total("topology.hop_distance"), "s"),
            "topology.hop_distance.max_s": (st["topology.hop_distance"][3], "s"),
            "topology.next_hop.calls": (calls("topology.next_hop_toward"), "count"),
            "topology.next_hop.s": (total("topology.next_hop_toward"), "s"),
            "topology.offtree.share": (ratio(c["offtree"], hop_calls), "ratio"),
            "containment.self_s": (layer_self["containment"], "s"),
            "containment.containerize.s": (total("containment.containerize"), "s"),
        }
        for level in (1, 2, 3):
            out[f"containment.containers.level{level}"] = (
                c[f"containers_l{level}"], "count")
        out.update({
            "ilm.self_s": (layer_self["ilm"], "s"),
            "ilm.build_tree.s": (total("ilm.build_ilm_tree"), "s"),
            "ilm.register.calls": (
                calls("ilm.register") + calls("ilm.register_indirect"), "count"),
            "ilm.register.s": (
                total("ilm.register") + total("ilm.register_indirect"), "s"),
            "ilm.resolve.calls": (resolve_calls, "count"),
            "ilm.resolve.s": (total("ilm.resolve"), "s"),
            "ilm.resolve.levels_walked": (
                ratio(c["resolve_levels"], resolve_calls), "levels"),
            "ilm.update_binding.calls": (calls("ilm.update_binding"), "count"),
            "ilm.update_binding.s": (total("ilm.update_binding"), "s"),
            "ilm.assign_id.calls": (calls("ilm.NamingService.assign_id"), "count"),
            "ilm.assign_id.s": (total("ilm.NamingService.assign_id"), "s"),
            "userplane.self_s": (layer_self["userplane"], "s"),
            "userplane.handle_request.calls": (requests, "count"),
            "userplane.handle_request.self_s": (
                st["userplane.handle_request"][2], "s"),
            "userplane.hops": (c["hops"], "count"),
            "userplane.deliver.s": (total("userplane.deliver_data"), "s"),
            "userplane.cache.inserts": (c["cache_inserts"], "count"),
            "userplane.cache.evictions": (c["cache_evictions"], "count"),
            "userplane.cache.hit_ratio": (ratio(c["hits"], requests), "ratio"),
            "userplane.prefetch.s": (
                total("userplane.prefetch_plan") + total("userplane.apply_prefetch"),
                "s"),
            "userplane.prefetch.placed_ratio": (
                ratio(c["prefetch_placed"], c["prefetch_drawn"]), "ratio"),
            "congruity.self_s": (layer_self["congruity"], "s"),
            "congruity.train.s": (total("congruity.train"), "s"),
            "congruity.prune.s": (t["prune"], "s"),
            "congruity.descent.s": (t["descent"], "s"),
            "congruity.epochs": (c["epochs"], "count"),
            "congruity.pruned": (c["pruned"], "count"),
            "congruity.prune.accept_ratio": (
                ratio(c["pruned"], c["prune_grad_calls"]), "ratio"),
            "congruity.filter_topk.calls": (calls("congruity.filter_topk"), "count"),
            "congruity.filter_topk.s": (total("congruity.filter_topk"), "s"),
            "evaluation.self_s": (layer_self["evaluation"], "s"),
            "evaluation.baseline_hops.s": (total("evaluation.baseline_hops"), "s"),
            "evaluation.compute_ito.s": (total("evaluation.compute_ito"), "s"),
            "cli.self_s": (layer_self["cli"], "s"),
            "trace.run_s": (run_s, "s"),
            "trace.accounted_share": (ratio(sum(layer_self.values()), run_s), "ratio"),
        })
        return out
