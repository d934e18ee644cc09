"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Every run of the workload is a fresh Python
process (perfbench/worker.py), one at a time, with BLAS/OpenMP pinned to one
thread. With `--trace 0` the command times import-only probes and untraced
runs for `--seconds` seconds, then makes one traced run to check the outputs,
and prints the end-to-end metrics (medians of times scaled to a reference
host speed, see hostref.py). With `--trace 1` it splits the
time between untraced and traced runs and prints the per-layer metrics.
Every traced run is checked against tests/oracles.py, and every run's
report must be byte-identical. A run that fails, overruns its timeout or
fails a check counts in `failed`. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Exit code 0 means correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT, SRC, TESTS, hostref  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ROOT / ".perfbench_work"
PROBES = 2            # import-only set-up samples per run, after one warm-up
DEADLINE_S = 170.0    # the whole command ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "req_per_s": "req/s",
                    "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {key: unit for key, (_, unit) in Tracer().metrics(0.0).items()}
PER_LAYER_UNITS["trace.overhead_ratio"] = "ratio"


class Runner:
    """Starts the run processes of one benchmark command, one at a time,
    and keeps what they report."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.jobs = 0
        self.attempted = 0
        self.failed = 0         # runs that failed, overran or failed a check
        self.probes = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        **{var: "1" for var in THREAD_VARS})
        self.config = ""
        if workload.config:
            self.config = str(work / "run.cfg")
            Path(self.config).write_text(workload.config.format(seed=seed),
                                         encoding="utf-8")

    def left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, mode: str, counted: bool = True):
        """Run one worker; its result dict, or None when it failed."""
        self.jobs += 1
        job = {"mode": mode, "workload": self.workload.name, "seed": self.seed,
               "config": self.config, "out": str(self.work / f"run{self.jobs}")}
        job_path = self.work / f"job{self.jobs}.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        timeout = min(self.workload.rep_timeout_s, self.left())
        if counted:
            self.attempted += 1
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(job_path), repr(t0)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            return self._fail(f"{mode} run {self.jobs} overran {timeout:.0f} s")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        if proc.returncode != 0:
            tail = " | ".join(err.strip().splitlines()[-3:])
            return self._fail(f"{mode} run {self.jobs} exited {proc.returncode}: {tail}")
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return self._fail(f"{mode} run {self.jobs} printed no result")
        if result.get("failures"):
            return self._fail(f"{mode} run {self.jobs}: "
                              + "; ".join(result["failures"][:5]))
        return result

    def _fail(self, message: str):
        print(f"FAIL {message}", file=sys.stderr)
        self.failed += 1
        return None

    def probe(self) -> None:
        """One warm-up probe (fills the bytecode cache), then PROBES more."""
        self.spawn("probe", counted=False)
        for _ in range(PROBES):
            result = self.spawn("probe")
            if result is not None:
                self.probes.append(result)

    def repeat(self, mode: str, seconds: float) -> list:
        """Runs of `mode` until `seconds` have passed (at least one)."""
        results = []
        until = time.monotonic() + seconds
        while not results or time.monotonic() < until:
            if self.left() < 10.0:
                if not results:
                    self._fail(f"no time left for a {mode} run")
                break
            result = self.spawn(mode)
            if result is None:
                break
            results.append(result)
        return results


def _check_reports(runner: Runner, results: list) -> str:
    """All reports must be byte-identical and cover the stated size; the
    SHA-256 of the first one is returned."""
    if not results:
        return ""
    sha = results[0]["sha256"]
    for r in results:
        if r["sha256"] != sha or r["requests"] != runner.workload.requests:
            runner._fail(f"report {r['sha256'][:12]} (N={r['requests']}) differs "
                         f"from {sha[:12]} (N={runner.workload.requests})")
    return sha


def _median(values):
    return statistics.median(values) if values else 0.0


def _scaled(result: dict, key: str) -> float:
    """A process's `setup_s` or `run_s` scaled by the host reference kernel
    it timed alongside (`setup_ref_s` or `run_ref_s`)."""
    return result[key] * hostref.REF_S / result[key.removesuffix("_s") + "_ref_s"]


def _print_env(runner: Runner, results: list) -> None:
    versions = results[0] if results else {}
    env = {
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: runner.env[var] for var in THREAD_VARS},
    }
    print("env " + json.dumps(env, sort_keys=True))


def _report(runner: Runner, values: dict, units: dict, runs: list, traced: list) -> dict:
    """Print every metric by name with its unit, the failure ratio, the
    report hash and the environment; return the metrics for the JSON line."""
    sha = _check_reports(runner, runs + traced)
    name = f"{runner.workload.name} seed={runner.seed}"
    for metric, value in values.items():
        print(f"{name} {metric} {value:.6g} {units[metric]}")
    fail_ratio = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"{name} fail_ratio {fail_ratio:.6g} ratio "
          f"({runner.failed} of {runner.attempted} runs)")
    print(f"{name} runs={len(runs)} traced={len(traced)} probes={len(runner.probes)} "
          f"report_sha256={sha}")
    samples = ", ".join(f"{r['run_s']:.4g}/{r['run_ref_s'] * 1e3:.4g}" for r in runs)
    print(f"{name} untraced run_s samples (wall s/reference ms): {samples}")
    if traced and traced[0]["absent"]:
        print(f"{name} absent hooks: {', '.join(traced[0]['absent'])}")
    _print_env(runner, runs + traced)
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def end_to_end(runner: Runner, seconds: float) -> dict:
    """Set-up probes and untraced runs for `seconds`, then one traced run
    that checks the outputs. Each process's times are scaled by the host
    reference kernel timed alongside (hostref.py); values are medians
    over the call, and the unscaled wall-time medians are printed beside."""
    runner.probe()
    runs = runner.repeat("run", seconds)
    traced = runner.repeat("traced", 0.0) if runs else []
    setups = runner.probes + runs
    wall = {
        "setup_s": _median([r["setup_s"] for r in setups]),
        "run_s": _median([r["run_s"] for r in runs]),
        "req_per_s": _median([r["requests"] / r["run_s"] for r in runs]),
    }
    print(f"{runner.workload.name} seed={runner.seed} host reference kernel "
          f"{_median([r['run_ref_s'] for r in runs]):.4g} s in runs, "
          f"{_median([r['setup_ref_s'] for r in setups]):.4g} s after imports "
          f"(scaled to {hostref.REF_S} s); "
          "wall medians: "
          + ", ".join(f"{k} {v:.6g} {END_TO_END_UNITS[k]}" for k, v in wall.items()))
    values = {
        "setup_s": _median([_scaled(r, "setup_s") for r in setups]),
        "run_s": _median([_scaled(r, "run_s") for r in runs]),
        "req_per_s": _median([r["requests"] / _scaled(r, "run_s") for r in runs]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in runs]),
    }
    return _report(runner, values, END_TO_END_UNITS, runs, traced)


def per_layer(runner: Runner, seconds: float) -> dict:
    """Untraced runs for half of `seconds`, traced runs for the other half;
    medians of the traced runs' layer metrics (wall time, unscaled). The
    overhead ratio compares scaled medians."""
    runner.spawn("probe", counted=False)
    runs = runner.repeat("run", seconds / 2)
    traced = runner.repeat("traced", seconds / 2) if runs else []
    values = {key: _median([t["layers"][key][0] for t in traced])
              for key in PER_LAYER_UNITS if key != "trace.overhead_ratio"}
    untraced_s = _median([_scaled(r, "run_s") for r in runs])
    values["trace.overhead_ratio"] = (
        _median([_scaled(t, "run_s") for t in traced]) / untraced_s if traced else 0.0)
    return _report(runner, values, PER_LAYER_UNITS, runs, traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "icnsim" / "__init__.py", TESTS / "oracles.py")
               if not p.is_file()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from the "
              "root of an icnsim checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = Runner(workload, args.seed, work)
    if args.trace:
        metrics = per_layer(runner, args.seconds)
    else:
        metrics = end_to_end(runner, args.seconds)
    correct = runner.failed == 0 and runner.attempted > 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
