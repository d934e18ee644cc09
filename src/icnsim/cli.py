"""Experiment harness: flat key=value configs and the five subcommands
(gen-topo, containerize, train, run, report).

Exit codes: 0 success, 1 validation problem (usage, config), 2 runtime
failure. Each command computes its files without writing anything
(`outputs`); `main` then writes them all atomically, so a failed run leaves
no partial files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

from . import congruity, evaluation
from .containment import TargetMode, containerize, hierarchy_to_text, validate_hierarchy
from .errors import ConfigError, InvalidParams, InvalidSpec, SimError, UnitMismatch
from .evaluation import ScenarioParams
from .topology import graph_to_text, load_graph

_VALIDATION_ERRORS = (ConfigError, InvalidParams, InvalidSpec, UnitMismatch)


def _list_of(parse):
    """A parser for a comma- or space-separated list of `parse` values."""
    return lambda text: tuple(parse(x) for x in text.replace(",", " ").split())


def _parse_seed(text):
    """A non-negative integer; argparse shows an ArgumentTypeError as is."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return seed


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# key -> (parser, help). A key's default is the default of the field it sets
# on ScenarioParams, Hyperparams or DatasetSpec, or else in CLI_DEFAULTS.
CONFIG_KEYS = {
    "scenario": (str, "embb | urllc | mmtc"),
    "sweep_values": (_list_of(_parse_float), "sweep axis values (empty = scenario default)"),
    "seeds": (_list_of(_parse_seed), "seeds to run"),
    "n_devices": (int, "end devices (embb/urllc)"),
    "devices_per_ap": (int, "devices per access point"),
    "aps_per_switch": (int, "access points per switch"),
    "switches_per_zone": (int, "switches per zone switch"),
    "n_servers": (int, "content servers at the core"),
    "devices_per_gateway": (int, "mMTC devices per local domain"),
    "area_km2": (_parse_float, "mMTC coverage area"),
    "density_k_per_km2": (_parse_float, "mMTC device density (thousands per km^2)"),
    "latency_ms": (_parse_float, "URLLC access latency"),
    "data_rate_mbps": (_parse_float, "eMBB data rate"),
    "service_seconds": (_parse_float, "nominal service duration per object"),
    "targets_us": (_list_of(int), "containerization targets"),
    "target_mode": (TargetMode, "additive | bottleneck | exact_hit (run rejects bottleneck)"),
    "request_count": (int, "requests per sweep point"),
    "catalog_size": (int, "content objects"),
    "cache_fraction": (_parse_float, "media cache budget as a catalog-volume fraction"),
    "prefetch_budget": (int, "prefetch placements (0 disables)"),
    "prefetch_candidates": (int, "candidate nodes for prefetch"),
    "prefetch_top_j": (int, "top-popularity objects eligible for prefetch"),
    "zipf_exponent": (_parse_float, "popularity skew"),
    "zipf_shift": (_parse_float, "popularity plateau shift"),
    "use_learner": (_parse_bool, "substitute learned distances"),
    "learned_fraction": (_parse_float, "fraction of edge weights replaced"),
    "hidden_widths": (_list_of(int), "hidden layer widths"),
    "alpha": (_parse_float, "blend between general and personal errors"),
    "lambda_g": (_parse_float, "general prediction weight"),
    "lambda_q": (_parse_float, "general reconstruction weight"),
    "lambda_p": (_parse_float, "personal prediction weight"),
    "lambda_k": (_parse_float, "personal reconstruction weight"),
    "q_norm": (int, "regularizer norm order"),
    "top_k": (int, "filter top-k coordinates"),
    "learning_rate": (_parse_float, "gradient step size"),
    "prune_probability": (_parse_float, "chance of zeroing a prunable parameter"),
    "batch_size": (int, "training batch size"),
    "max_epochs": (int, "training epoch cap"),
    "tolerance": (_parse_float, "relative improvement stop threshold"),
    "n_personal": (int, "synthesized personal samples"),
    "n_general": (int, "synthesized general samples"),
    "label_coverage": (_parse_float, "labeled fraction of general samples"),
    "conflict_fraction": (_parse_float, "conflicting duplicate fraction"),
    "noise_std": (_parse_float, "distance label noise"),
}

# the key that sets no dataclass field
CLI_DEFAULTS = {"seeds": (0,)}

# keys named otherwise than their field (model.txt writes q= and k=)
RENAMED = {"q_norm": "q", "top_k": "k"}

_KEY_OF_FIELD = {RENAMED.get(key, key): key for key in CONFIG_KEYS}
_CONFIG_CLASSES = (ScenarioParams, congruity.Hyperparams, congruity.DatasetSpec)


def _keyed_fields(cls) -> list:
    """(config key, field) for each field of `cls` that a config key sets."""
    return [(_KEY_OF_FIELD[f.name], f) for f in fields(cls) if f.name in _KEY_OF_FIELD]


_DEFAULTS = {
    **CLI_DEFAULTS,
    **{key: f.default for cls in _CONFIG_CLASSES for key, f in _keyed_fields(cls)},
}


def parse_config(text: str) -> dict:
    config = dict(_DEFAULTS)
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
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return config


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")


def from_config(cls, config: dict, **given):
    """A `cls` (ScenarioParams, Hyperparams or DatasetSpec) whose fields take
    the values of the config keys that name them; `given` sets others."""
    return cls(**{f.name: config[key] for key, f in _keyed_fields(cls)}, **given)


def hyperparams_from(config: dict, seed: int) -> congruity.Hyperparams:
    return from_config(congruity.Hyperparams, config, rng_seed=seed).validate()


def scenario_params_from(config: dict, seed: int) -> ScenarioParams:
    learner = hyperparams_from(config, seed)
    return from_config(ScenarioParams, config, seed=seed, learner=learner).validate()


def _write_atomic(texts: dict) -> None:
    """Write {path: text} as one set: every text goes to a temp file first
    and the renames follow only once all writes succeeded, so a failed write
    leaves the previous outputs as they were."""
    written = []
    try:
        for path, text in texts.items():
            tmp = f"{path}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                written.append(tmp)
                fh.write(text)
    except BaseException:
        for tmp in written:
            os.remove(tmp)
        raise
    for path in texts:
        os.replace(f"{path}.tmp", path)


# -- subcommands: each returns ({file name: text}, message) and writes nothing -----


def command_seeds(config: dict, seed) -> list:
    """The seeds a command runs: `--seed` when given, else the config's
    `seeds`, which must name at least one seed and none twice."""
    if seed is not None:
        return [seed]
    seeds = list(config["seeds"])
    repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]]
    if repeated or not seeds:
        raise ConfigError(f"seeds repeats seed {repeated[0]}" if repeated else "seeds names no seed")
    return seeds


def cmd_gen_topo(args):
    config = load_config(args.config)
    seed = command_seeds(config, args.seed)[0]
    point = evaluation.sweep_points(scenario_params_from(config, seed))[0]
    graph = evaluation.point_graph(point, 0)
    return {"topology.txt": graph_to_text(graph)}, f"wrote {{}} ({graph.n} nodes, {graph.m} edges)"


def cmd_containerize(args):
    config = load_config(args.config)
    try:
        graph = load_graph(args.topo)
    except FileNotFoundError:
        raise SimError(f"topology file not found: {args.topo}")
    targets = evaluation.point_targets(from_config(ScenarioParams, config))
    hierarchy = containerize(graph, targets)
    violations = validate_hierarchy(hierarchy).violations
    if violations:
        raise SimError(f"invalid hierarchy: {'; '.join(violations[:3])}")
    counts = ",".join(str(len(level)) for level in hierarchy.levels)
    text = hierarchy_to_text(hierarchy)
    return {"hierarchy.txt": text}, f"wrote {{}} (containers per level: {counts})"


def cmd_train(args):
    config = load_config(args.config)
    seed = command_seeds(config, args.seed)[0]
    h = hyperparams_from(config, seed)
    arch = congruity.check_widths((congruity.N_FEATURES, *config["hidden_widths"], 1))
    if (args.personal is None) != (args.general is None):
        missing = "--general" if args.general is None else "--personal"
        raise ConfigError(f"a dataset file needs its pair: {missing} is missing")
    if args.personal is not None:
        try:
            dp = congruity.load_dataset(args.personal, "personal")
            dg = congruity.load_dataset(args.general, "general")
        except FileNotFoundError as exc:
            raise SimError(f"dataset file not found: {exc.filename}")
    else:
        spec = from_config(congruity.DatasetSpec, config)
        dp, dg = congruity.synthesize_dataset(spec, seed)
    r = congruity.train(dp, dg, h, arch)
    files = {
        "model.txt": congruity.model_to_text(r.theta_star, h),
        "loss.csv": "epoch,loss\n" + "".join(f"{i},{x!r}\n" for i, x in enumerate(r.loss_history)),
    }
    return files, f"wrote {{}} (E {r.e_initial!r} -> {r.e_star!r}, pruned {r.pruned_count})"


def cmd_run(args):
    config = load_config(args.config)
    seeds = command_seeds(config, args.seed)
    reports = evaluation.run_sweep(scenario_params_from(config, seeds[0]), seeds)
    text = evaluation.reports_to_csv(reports)
    return {"report.csv": text}, f"wrote {{}} ({len(reports)} sweep points)"


def _report_problem(r) -> str:
    """Why no run could write the report row `r`, or "" when one could."""
    checks = (
        (r.scenario in evaluation.SWEEP_VARS, f"unknown scenario {r.scenario!r}"),
        (evaluation.SWEEP_VARS.get(r.scenario) == r.sweep_variable,
         f"{r.scenario} does not sweep {r.sweep_variable!r}"),
        (r.sweep_value > 0, "sweep_value must be positive"),
        (r.seed >= 0, "seed must be non-negative"),
        (1 <= r.request_count <= evaluation.MAX_REQUESTS,
         f"N must lie in [1, {evaluation.MAX_REQUESTS}]"),
        (r.ito <= 1, "ito must be at most 1"),
        (r.mean_hops >= 0, "mean_hops must be non-negative"),
        (0 <= r.cache_hit_rate <= 1, "cache_hit_rate must lie in [0, 1]"),
    )
    return next((problem for ok, problem in checks if not ok), "")


def _reports_from_csv(path, seen: dict) -> list:
    """The rows of one report CSV. `seen` maps each (scenario, sweep_var,
    sweep_value, seed) read so far, from any file, to its place; a row that
    repeats one is rejected."""
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
        where = f"{path}, line {lineno}"
        parts = ln.split(",")
        if len(parts) != 8:
            raise InvalidParams(f"{where}: {len(parts)} columns, not 8")
        try:
            r = evaluation.ItoReport(
                scenario=parts[0],
                sweep_variable=parts[1],
                sweep_value=_parse_float(parts[2]),
                seed=int(parts[3]),
                request_count=int(parts[4]),
                ito=_parse_float(parts[5]),
                mean_hops=_parse_float(parts[6]),
                cache_hit_rate=_parse_float(parts[7]),
            )
        except ValueError as exc:
            raise InvalidParams(f"{where}: {exc}") from None
        problem = _report_problem(r)
        if problem:
            raise InvalidParams(f"{where}: {problem}")
        key = (r.scenario, r.sweep_variable, r.sweep_value, r.seed)
        if key in seen:
            raise InvalidParams(f"{where}: repeats the point and seed of {seen[key]}")
        seen[key] = where
        reports.append(r)
    return reports


def cmd_report(args):
    reports, seen = [], {}
    for path in args.reports:
        reports.extend(_reports_from_csv(path, seen))
    summary = evaluation.sweep_report(reports)
    rows = [ln.split(",") for ln in summary.splitlines()[1:]]
    plot = "scenario,sweep_value,mean_ito\n" + "".join(f"{r[0]},{r[2]},{r[4]}\n" for r in rows)
    return {"summary.csv": summary, "plotdata.csv": plot}, summary + "wrote {}"


# -- entry point --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _config_epilog() -> str:
    lines = ["config keys (key = value per line, # comments):"]
    for key, (_, help_text) in CONFIG_KEYS.items():
        default = _DEFAULTS[key]
        shown = ",".join(str(v) for v in default) if isinstance(default, tuple) else default
        shown = getattr(shown, "value", shown)  # target_mode shows 'additive', not the enum
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
        p.add_argument("--seed", type=_parse_seed, default=None, help="override the config seeds")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("gen-topo", help="write the graph of sweep point 0 as run builds it")
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


def outputs(argv) -> tuple:
    """Run the command `argv` names without writing anything: its output
    directory, its files as {name: text}, and the message to print once
    they are written, in which `{}` stands for their paths."""
    args = build_parser().parse_args(argv)
    files, message = args.func(args)
    return args.out, files, message


def main(argv=None) -> int:
    """Run the command `argv` names and write its files: the only writer."""
    try:
        out, files, message = outputs(argv)
        paths = {os.path.join(out, name): text for name, text in files.items()}
        os.makedirs(out, exist_ok=True)
        _write_atomic(paths)
        print(message.format(" and ".join(paths)))
        return 0
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
