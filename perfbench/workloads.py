"""The benchmark's workloads.

Three run a one-point sweep through `icnsim.cli.main(["run", ...])`, the way
a user runs the simulator. `mesh-replay` runs a non-tree graph through the
public pipeline functions (see mesh.py), because no config can produce one.
Why each workload exists is recorded in NOTES.md and BENCHMARK.json.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    requests: int           # simulated requests one run completes
    rep_timeout_s: float    # a run process that overruns this is killed
    config: str = ""        # CLI config template; empty for mesh-replay


WORKLOADS = {
    w.name: w
    for w in (
        # request replay dominates
        Workload(
            name="embb-replay",
            requests=32768,
            rep_timeout_s=60.0,
            config=(
                "scenario = embb\n"
                "sweep_values = 8\n"
                "seeds = {seed}\n"
                "n_devices = 4096\n"
                "request_count = 32768\n"
            ),
        ),
        # about 1.05M nodes: the build stages dominate
        Workload(
            name="mmtc-million",
            requests=256,
            rep_timeout_s=60.0,
            config=(
                "scenario = mmtc\n"
                "sweep_values = 1049\n"
                "seeds = {seed}\n"
                "request_count = 256\n"
            ),
        ),
        # congruity training dominates
        Workload(
            name="learner",
            requests=256,
            rep_timeout_s=90.0,
            config=(
                "scenario = embb\n"
                "sweep_values = 8\n"
                "seeds = {seed}\n"
                "n_devices = 512\n"
                "request_count = 256\n"
                "use_learner = true\n"
            ),
        ),
        # hop routing off the tree fast path
        Workload(name="mesh-replay", requests=100, rep_timeout_s=90.0),
    )
}
