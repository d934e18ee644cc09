"""Experiment harness: flat key=value configs and the five subcommands
(gen-topo, containerize, train, run, report).

Exit codes: 0 success, 1 validation problem (usage, config), 2 runtime
failure. Outputs are written atomically after all computation succeeds, so a
failed run leaves no partial files.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import congruity, evaluation
from .containment import Target, TargetMode, containerize, hierarchy_to_text
from .errors import (
    ConfigError,
    InvalidParams,
    InvalidSpec,
    SimError,
    UnitMismatch,
)
from .evaluation import ScenarioParams
from .topology import generate_topology, graph_to_text, load_graph

_VALIDATION_ERRORS = (ConfigError, InvalidParams, InvalidSpec, UnitMismatch)


def _parse_int_list(text):
    return tuple(int(x) for x in text.replace(",", " ").split())


def _parse_float_list(text):
    return tuple(float(x) for x in text.replace(",", " ").split())


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# key -> (parser, default, help)
CONFIG_KEYS = {
    "scenario": (str, "embb", "embb | urllc | mmtc"),
    "sweep_values": (_parse_float_list, (), "sweep axis values (empty = scenario default)"),
    "seeds": (_parse_int_list, (0,), "seeds to run"),
    "n_devices": (int, 512, "end devices (embb/urllc)"),
    "devices_per_ap": (int, 16, "devices per access point"),
    "aps_per_switch": (int, 4, "access points per switch"),
    "switches_per_zone": (int, 4, "switches per zone switch"),
    "n_servers": (int, 2, "content servers at the core"),
    "devices_per_gateway": (int, 200, "mMTC devices per local domain"),
    "area_km2": (float, 1.0, "mMTC coverage area"),
    "density_k_per_km2": (float, 63.0, "mMTC device density (thousands per km^2)"),
    "latency_ms": (float, 8.0, "URLLC access latency"),
    "data_rate_mbps": (float, 8.0, "eMBB data rate"),
    "service_seconds": (float, 1.0, "nominal service duration per object"),
    "targets_us": (_parse_int_list, (1_000, 150_000, 500_000), "containerization targets"),
    "target_mode": (str, "additive", "additive | bottleneck | exact_hit"),
    "request_count": (int, 256, "requests per sweep point"),
    "catalog_size": (int, 64, "content objects"),
    "cache_fraction": (float, 0.5, "media cache budget as a catalog-volume fraction"),
    "prefetch_budget": (int, 32, "prefetch placements (0 disables)"),
    "prefetch_candidates": (int, 32, "candidate nodes for prefetch"),
    "prefetch_top_j": (int, 16, "top-popularity objects eligible for prefetch"),
    "zipf_exponent": (float, 0.8, "popularity skew"),
    "zipf_shift": (float, 10.0, "popularity plateau shift"),
    "use_learner": (_parse_bool, False, "substitute learned distances"),
    "learned_fraction": (float, 0.1, "fraction of edge weights replaced"),
    "hidden_widths": (_parse_int_list, (8,), "hidden layer widths"),
    "alpha": (float, 0.5, "blend between general and personal errors"),
    "lambda_g": (float, 1.0, "general prediction weight"),
    "lambda_q": (float, 0.0, "general reconstruction weight"),
    "lambda_p": (float, 1.0, "personal prediction weight"),
    "lambda_k": (float, 0.0, "personal reconstruction weight"),
    "q_norm": (int, 2, "regularizer norm order"),
    "top_k": (int, 5, "filter top-k coordinates"),
    "learning_rate": (float, 0.1, "gradient step size"),
    "prune_probability": (float, 0.5, "chance of zeroing a prunable parameter"),
    "batch_size": (int, 32, "training batch size"),
    "max_epochs": (int, 200, "training epoch cap"),
    "tolerance": (float, 1e-9, "relative improvement stop threshold"),
    "d_max": (int, 0, "layer advance threshold for pruning (0 = auto)"),
    "n_personal": (int, 200, "synthesized personal samples"),
    "n_general": (int, 400, "synthesized general samples"),
    "label_coverage": (float, 1.0, "labeled fraction of general samples"),
    "conflict_fraction": (float, 0.0, "conflicting duplicate fraction"),
    "noise_std": (float, 0.02, "distance label noise"),
    "class_proportions": (_parse_float_list, (0.947, 0.0343, 0.0183), "class mix"),
}


def parse_config(text: str) -> dict:
    config = {key: default for key, (_, default, _) in CONFIG_KEYS.items()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        parser = CONFIG_KEYS[key][0]
        try:
            config[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return config


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")


def hyperparams_from(config: dict, seed: int) -> congruity.Hyperparams:
    return congruity.Hyperparams(
        alpha=config["alpha"],
        lambda_g=config["lambda_g"],
        lambda_q=config["lambda_q"],
        lambda_p=config["lambda_p"],
        lambda_k=config["lambda_k"],
        q=config["q_norm"],
        k=config["top_k"],
        learning_rate=config["learning_rate"],
        prune_probability=config["prune_probability"],
        batch_size=config["batch_size"],
        max_epochs=config["max_epochs"],
        tolerance=config["tolerance"],
        rng_seed=seed,
    ).validate()


def scenario_params_from(config: dict, seed: int) -> ScenarioParams:
    return ScenarioParams(
        scenario=config["scenario"],
        sweep_values=tuple(config["sweep_values"]),
        seed=seed,
        n_devices=config["n_devices"],
        devices_per_ap=config["devices_per_ap"],
        aps_per_switch=config["aps_per_switch"],
        switches_per_zone=config["switches_per_zone"],
        n_servers=config["n_servers"],
        devices_per_gateway=config["devices_per_gateway"],
        area_km2=config["area_km2"],
        density_k_per_km2=config["density_k_per_km2"],
        latency_ms=config["latency_ms"],
        data_rate_mbps=config["data_rate_mbps"],
        service_seconds=config["service_seconds"],
        targets_us=tuple(config["targets_us"]),
        request_count=config["request_count"],
        catalog_size=config["catalog_size"],
        cache_fraction=config["cache_fraction"],
        prefetch_budget=config["prefetch_budget"],
        prefetch_candidates=config["prefetch_candidates"],
        prefetch_top_j=config["prefetch_top_j"],
        zipf_exponent=config["zipf_exponent"],
        zipf_shift=config["zipf_shift"],
        use_learner=config["use_learner"],
        learned_fraction=config["learned_fraction"],
        hidden_widths=tuple(config["hidden_widths"]),
        learner=hyperparams_from(config, seed),
    ).validate()


def _write_atomic(*outputs) -> None:
    """Write (path, content) pairs as one set: every content goes to a temp
    file first and the renames follow only once all writes succeeded, so a
    failed write leaves the previous outputs as they were."""
    written = []
    try:
        for path, content in outputs:
            tmp = f"{path}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                written.append(tmp)
                fh.write(content)
    except BaseException:
        for tmp in written:
            os.remove(tmp)
        raise
    for path, _ in outputs:
        os.replace(f"{path}.tmp", path)


def _sweep_point_value(config) -> float:
    values = config["sweep_values"]
    if values:
        return values[0]
    return evaluation.DEFAULT_SWEEPS[config["scenario"]][0]


# -- subcommands ------------------------------------------------------------------


def cmd_gen_topo(args) -> int:
    config = load_config(args.config)
    seed = args.seed if args.seed is not None else config["seeds"][0]
    params = scenario_params_from(config, seed)
    var = evaluation.SWEEP_VARS[params.scenario]
    params = replace(params, **{var: _sweep_point_value(config)})
    graph = generate_topology(params, seed)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "topology.txt")
    _write_atomic((out_path, graph_to_text(graph)))
    print(f"wrote {out_path} ({graph.n} nodes, {graph.m} edges)")
    return 0


def cmd_containerize(args) -> int:
    config = load_config(args.config)
    try:
        graph = load_graph(args.topo)
    except FileNotFoundError:
        raise SimError(f"topology file not found: {args.topo}")
    mode = TargetMode(config["target_mode"])
    targets = [
        Target(i + 1, int(v), mode) for i, v in enumerate(config["targets_us"])
    ]
    hierarchy = containerize(graph, targets)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "hierarchy.txt")
    _write_atomic((out_path, hierarchy_to_text(hierarchy)))
    counts = ",".join(str(len(level)) for level in hierarchy.levels)
    print(f"wrote {out_path} (containers per level: {counts})")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    seed = args.seed if args.seed is not None else config["seeds"][0]
    h = hyperparams_from(config, seed)
    if args.personal and args.general:
        try:
            dp = congruity.load_dataset(args.personal, "personal")
            dg = congruity.load_dataset(args.general, "general")
        except FileNotFoundError as exc:
            raise SimError(f"dataset file not found: {exc.filename}")
    else:
        spec = congruity.DatasetSpec(
            n_personal=config["n_personal"],
            n_general=config["n_general"],
            label_coverage=config["label_coverage"],
            class_proportions=tuple(config["class_proportions"]),
            conflict_fraction=config["conflict_fraction"],
            noise_std=config["noise_std"],
        )
        dp, dg = congruity.synthesize_dataset(spec, seed)
    arch = (congruity.N_FEATURES, *config["hidden_widths"], 1)
    d_max = config["d_max"] if config["d_max"] > 0 else None
    result = congruity.train(dp, dg, h, arch, d_max=d_max)
    os.makedirs(args.out, exist_ok=True)
    model_path = os.path.join(args.out, "model.txt")
    loss_path = os.path.join(args.out, "loss.csv")
    loss_csv = "epoch,loss\n" + "\n".join(
        f"{i},{loss!r}" for i, loss in enumerate(result.loss_history)
    ) + "\n"
    _write_atomic(
        (model_path, congruity.model_to_text(result.theta_star, h)),
        (loss_path, loss_csv),
    )
    print(
        f"wrote {model_path} and {loss_path} "
        f"(E {result.e_initial!r} -> {result.e_star!r}, pruned {result.pruned_count})"
    )
    return 0


def cmd_run(args) -> int:
    config = load_config(args.config)
    seeds = [args.seed] if args.seed is not None else list(config["seeds"])
    params = scenario_params_from(config, seeds[0])
    reports = evaluation.run_sweep(params, seeds)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "report.csv")
    _write_atomic((out_path, evaluation.reports_to_csv(reports)))
    print(f"wrote {out_path} ({len(reports)} sweep points)")
    return 0


def _reports_from_csv(path) -> list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise SimError(f"report file not found: {path}")
    if not lines or lines[0] != evaluation.REPORT_COLUMNS:
        raise InvalidParams(f"{path}, line 1: not a report CSV header")
    reports = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split(",")
        try:
            reports.append(
                evaluation.ItoReport(
                    scenario=parts[0],
                    sweep_variable=parts[1],
                    sweep_value=float(parts[2]),
                    seed=int(parts[3]),
                    request_count=int(parts[4]),
                    ito=float(parts[5]),
                    mean_hops=float(parts[6]),
                    cache_hit_rate=float(parts[7]),
                )
            )
        except IndexError:
            raise InvalidParams(f"{path}, line {lineno}: too few columns") from None
        except ValueError as exc:
            raise InvalidParams(f"{path}, line {lineno}: {exc}") from None
    return reports


def cmd_report(args) -> int:
    reports = []
    for path in args.reports:
        reports.extend(_reports_from_csv(path))
    summary = evaluation.sweep_report(reports)
    os.makedirs(args.out, exist_ok=True)
    summary_path = os.path.join(args.out, "summary.csv")
    plot_path = os.path.join(args.out, "plotdata.csv")
    plot_lines = ["scenario,sweep_value,mean_ito"]
    for ln in summary.splitlines()[1:]:
        parts = ln.split(",")
        plot_lines.append(f"{parts[0]},{parts[2]},{parts[4]}")
    _write_atomic((summary_path, summary), (plot_path, "\n".join(plot_lines) + "\n"))
    print(summary, end="")
    print(f"wrote {summary_path} and {plot_path}")
    return 0


# -- entry point --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _config_epilog() -> str:
    lines = ["config keys (key = value per line, # comments):"]
    for key, (_, default, help_text) in CONFIG_KEYS.items():
        shown = ",".join(str(v) for v in default) if isinstance(default, tuple) else default
        lines.append(f"  {key:<22} default {shown!r:<28} {help_text}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="icnsim",
        description=__doc__.splitlines()[0],
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seeds")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("gen-topo", help="generate a scenario topology file")
    common(p)
    p.set_defaults(func=cmd_gen_topo)

    p = sub.add_parser("containerize", help="build a container hierarchy dump")
    common(p)
    p.add_argument("--topo", required=True, help="topology file from gen-topo")
    p.set_defaults(func=cmd_containerize)

    p = sub.add_parser("train", help="train the distance learner")
    common(p)
    p.add_argument("--personal", default=None, help="personal dataset CSV")
    p.add_argument("--general", default=None, help="general dataset CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("run", help="run the configured scenario sweep")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="summarize report CSVs")
    p.add_argument("reports", nargs="+", help="report.csv files")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
