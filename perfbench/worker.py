"""One benchmark run in a fresh process.

    python3 perfbench/worker.py <job.json> <t0>

`t0` is CLOCK_MONOTONIC (system-wide on Linux) read by the parent just
before it started this process, so `setup_s` covers process start up to the
end of `import icnsim.cli`, which imports the whole package. Then the
process times the host reference kernel (hostref.py). A `probe` job stops
there; a `run` job times the workload while the kernel is sampled inside
it; a `traced` job does the same under the tracer, then checks the
outputs. The last stdout line is one JSON object with the results.
"""

import hashlib
import json
import platform
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    t0 = float(sys.argv[2])

    import icnsim.cli

    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
    import numpy
    import scipy

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench import checks, hostref, mesh, tracer

    result = {
        "setup_s": setup_s,
        "setup_ref_s": hostref.reference_s(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if job["mode"] == "probe":
        print(json.dumps(result))
        return 0

    out = Path(job["out"])
    out.mkdir(parents=True, exist_ok=True)
    is_mesh = job["workload"] == "mesh-replay"
    inputs = mesh.mesh_inputs(job["seed"]) if is_mesh else None

    tr = tracer.Tracer().install() if job["mode"] == "traced" else None
    with hostref.Sampler() as sampler:
        if is_mesh and tr is not None:
            report = tr.run_root(tracer.Hook("icnsim.evaluation", "pipeline", span=True),
                                 mesh.run_pipeline, inputs)
        elif is_mesh:
            report = mesh.run_pipeline(inputs)
        else:
            code = icnsim.cli.main(["run", "--config", job["config"], "--out", str(out)])
            if code != 0:
                print(f"icnsim run exited with {code}", file=sys.stderr)
                return 2
    run_s = sampler.run_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report_path = out / "report.csv"
    if is_mesh:
        report_path.write_text(report, encoding="utf-8")
    report = report_path.read_text(encoding="utf-8")
    result.update({
        "run_s": run_s,
        "run_ref_s": sampler.reference_s(),
        "peak_rss_mb": peak_rss_mb,
        "requests": checks.parse_report(report)[0]["N"],
        "sha256": hashlib.sha256(report.encode("utf-8")).hexdigest(),
    })
    if tr is not None:
        failures = [f"{name} not restored" for name in tr.uninstall()]
        failures += checks.check_run(tr, report, job["seed"], replay=is_mesh)
        tr.write_spans(out / "spans.csv")
        # The spans' clock includes the sampler's ticks, so their
        # shares are taken of the run's whole wall time.
        result["layers"] = tr.metrics(run_s + sampler.spent_s)
        result["absent"] = tr.absent
        result["failures"] = failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
