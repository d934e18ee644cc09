import glob
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import pytest

import icnsim
from icnsim import cli, evaluation, ilm, userplane
from icnsim.cli import (
    CLI_DEFAULTS, CONFIG_KEYS, RENAMED, from_config, hyperparams_from, main,
    parse_config, scenario_params_from,
)
from icnsim.congruity import (
    FEATURE_NAMES, LABEL_KINDS, DatasetSpec, Hyperparams, load_model,
)
from icnsim.containment import (
    ContainerHierarchy, Target, containerize, hierarchy_to_text,
)
from icnsim.errors import ConfigError
from icnsim.evaluation import ScenarioParams
from icnsim.topology import graph_to_text, load_graph
from regen_goldens import GOLDENS

BASE_CONFIG = """
# tiny but complete experiment
scenario = embb
sweep_values = 8, 32
seeds = 1, 2
n_devices = 64
request_count = 40
catalog_size = 12
cache_fraction = 0.5
prefetch_budget = 6
max_epochs = 15
n_personal = 40
n_general = 60
"""


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def child_env():
    """The environment with this icnsim first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(icnsim.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def run_module(*args):
    """`python -m icnsim.cli <args>` in a child that imports this icnsim."""
    return subprocess.run(
        [sys.executable, "-m", "icnsim.cli", *args],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE_CONFIG)
    return str(path)


class TestConfigParsing:
    def test_defaults_and_overrides(self):
        config = parse_config("scenario = mmtc\nrequest_count = 9\n")
        assert config["scenario"] == "mmtc"
        assert config["request_count"] == 9
        assert config["catalog_size"] == 64  # untouched default

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("no_such_thing = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("request_count = many\n")

    def test_comments_and_blank_lines(self):
        config = parse_config("# hi\n\nscenario = urllc  # trailing\n")
        assert config["scenario"] == "urllc"

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("scenario mmtc\n")


CONFIG_CLASSES = (ScenarioParams, Hyperparams, DatasetSpec)
# fields that a command sets itself, or that only the library reaches
UNKEYED_FIELDS = {"seed", "rng_seed", "learner", "preplace_everywhere"}


class TestSingleDeclaration:
    def test_each_key_sets_one_field_or_has_a_cli_default(self):
        assert len(CONFIG_KEYS) == 44
        assert CLI_DEFAULTS == {"seeds": (0,)}
        for key in CONFIG_KEYS:
            name = RENAMED.get(key, key)
            owners = [c for c in CONFIG_CLASSES if name in {f.name for f in fields(c)}]
            assert len(owners) + (key in CLI_DEFAULTS) == 1, key

    def test_every_field_but_the_unkeyed_ones_has_a_key(self):
        keyed = {RENAMED.get(key, key) for key in CONFIG_KEYS}
        for cls in CONFIG_CLASSES:
            for f in fields(cls):
                assert (f.name in keyed) != (f.name in UNKEYED_FIELDS), (cls, f.name)

    def test_empty_config_builds_the_dataclass_defaults(self):
        config = parse_config("")
        assert scenario_params_from(config, 0) == ScenarioParams(seed=0)
        assert hyperparams_from(config, 0) == Hyperparams()
        assert from_config(DatasetSpec, config) == DatasetSpec()
        assert {key: config[key] for key in CLI_DEFAULTS} == CLI_DEFAULTS

    def test_renamed_keys_set_their_fields(self):
        h = hyperparams_from(parse_config("q_norm = 3\ntop_k = 7\n"), 4)
        assert (h.q, h.k, h.rng_seed) == (3, 7, 4)


def readme_config() -> str:
    """The config file of README's CLI example."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return re.search(r"cat > \S+ <<EOF\n(.*?\n)EOF\n", fh.read(), re.S).group(1)


def golden_config(name: str) -> str:
    """A config file of the golden manifest (tests/goldens)."""
    with open(os.path.join(GOLDENS, name), encoding="utf-8") as fh:
        return fh.read()


# README's example, an mMTC point of about a thousand devices, and the
# benchmark's learner workload
POINT_ZERO_CONFIGS = {
    "readme": readme_config(),
    "mmtc": golden_config("mmtc-1k.cfg"),
    "learner": golden_config("learner.cfg"),
}


class StopAtFirstPoint(Exception):
    """Ends a run once its first point is containerized."""


class TestGenTopo:
    def test_round_trips_to_equal_graph(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen-topo", "--config", config_path, "--out", str(out)]) == 0
        g = load_graph(out / "topology.txt")
        assert g.n > 64
        text = (out / "topology.txt").read_text()
        from icnsim.topology import graph_to_text
        assert graph_to_text(g) == text

    def test_same_seed_byte_identical(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["gen-topo", "--config", config_path, "--seed", "5", "--out", str(out_a)])
        main(["gen-topo", "--config", config_path, "--seed", "5", "--out", str(out_b)])
        assert (out_a / "topology.txt").read_bytes() == (out_b / "topology.txt").read_bytes()

    @pytest.mark.parametrize("mode", ["additive", "exact_hit"])
    @pytest.mark.parametrize("flags", [[], ["--seed", "7"]], ids=["config-seed", "seed-flag"])
    @pytest.mark.parametrize("config", ["readme", "mmtc", "learner"])
    def test_writes_the_point_that_run_containerizes(
        self, config, flags, mode, tmp_path, monkeypatch
    ):
        """`gen-topo` writes the graph `run` containerizes for point 0 of the
        seed, learned weights included, and `containerize --topo` on that
        file writes the hierarchy `run` builds there."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(POINT_ZERO_CONFIGS[config] + f"target_mode = {mode}\n")
        built = []
        real = evaluation.containerize

        def first_point_only(g, targets):
            built.append((g, real(g, targets)))
            raise StopAtFirstPoint

        with monkeypatch.context() as m:
            m.setattr(evaluation, "containerize", first_point_only)
            with pytest.raises(StopAtFirstPoint):
                main(["run", "--config", str(cfg), *flags, "--out", str(tmp_path / "run")])
        (graph, hierarchy), = built
        out = tmp_path / "out"
        assert main(["gen-topo", "--config", str(cfg), *flags, "--out", str(out)]) == 0
        assert (out / "topology.txt").read_text() == graph_to_text(graph)
        assert main([
            "containerize", "--config", str(cfg),
            "--topo", str(out / "topology.txt"), "--out", str(out),
        ]) == 0
        assert (out / "hierarchy.txt").read_text() == hierarchy_to_text(hierarchy)

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["gen-topo", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_names_the_config_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "bogus.cfg"
        cfg.write_text("scenario = embb\nbogus = 1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {cfg}, line 2: unknown key 'bogus'\n"
        assert not (tmp_path / "out").exists()

    def test_prefetch_cells_past_the_cap_exit_one_before_any_point(self, tmp_path, capsys):
        # 20,000 candidates x 1,001 objects over 4M eMBB devices pass
        # MAX_PREFETCH_CELLS by 20,000 cells; one placement keeps the work cap off
        cfg = tmp_path / "cells.cfg"
        cfg.write_text("scenario = embb\nsweep_values = 8\nseeds = 1\nn_devices = 4000000\n"
                       "catalog_size = 1001\nprefetch_budget = 1\n"
                       "prefetch_candidates = 20000\nprefetch_top_j = 1001\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "prefetch_candidates x prefetch_top_j give 20020000 cells" in err
        assert not (tmp_path / "out").exists()


class TestContainerizeCmd:
    def test_three_level_dump(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["gen-topo", "--config", config_path, "--out", str(out)])
        code = main([
            "containerize", "--config", config_path,
            "--topo", str(out / "topology.txt"), "--out", str(out),
        ])
        assert code == 0
        text = (out / "hierarchy.txt").read_text()
        levels = {int(ln.split()[1]) for ln in text.splitlines()}
        assert levels == {1, 2, 3}
        g = load_graph(out / "topology.txt")
        expected = containerize(
            g, [Target(1, 1_000), Target(2, 150_000), Target(3, 500_000)]
        )
        assert hierarchy_to_text(expected) == text

    def test_single_target_single_level(self, config_path, tmp_path):
        out = tmp_path / "out"
        (tmp_path / "one.cfg").write_text(BASE_CONFIG + "targets_us = 1000\n")
        main(["gen-topo", "--config", config_path, "--out", str(out)])
        main([
            "containerize", "--config", str(tmp_path / "one.cfg"),
            "--topo", str(out / "topology.txt"), "--out", str(out),
        ])
        levels = {
            int(ln.split()[1])
            for ln in (out / "hierarchy.txt").read_text().splitlines()
        }
        assert levels == {1}

    def test_bottleneck_target_on_latency_topology_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bottleneck.cfg"
        cfg.write_text(
            "scenario = embb\nsweep_values = 8\nn_devices = 256\ntarget_mode = bottleneck\n"
        )
        out = tmp_path / "out"
        assert main(["gen-topo", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        code = main([
            "containerize", "--config", str(cfg),
            "--topo", str(out / "topology.txt"), "--out", str(out),
        ])
        assert code == 1
        assert "bottleneck target on latency_us graph" in capsys.readouterr().err
        assert not (out / "hierarchy.txt").exists()

    def test_invalid_hierarchy_exits_two_writing_nothing(
        self, config_path, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "out"
        assert main(["gen-topo", "--config", config_path, "--out", str(out)]) == 0
        real = cli.containerize

        def dropping_a_node(graph, targets):
            h = real(graph, targets)
            (level, first, k), *above = h.maps
            first = first.copy()
            first[0] = -1  # node 0 in no container
            return ContainerHierarchy([(level, first, k), *above], h.source_graph)

        monkeypatch.setattr(cli, "containerize", dropping_a_node)
        capsys.readouterr()
        code = main([
            "containerize", "--config", config_path,
            "--topo", str(out / "topology.txt"), "--out", str(out),
        ])
        assert code == 2
        assert "uncovered" in capsys.readouterr().err
        assert not (out / "hierarchy.txt").exists()

    def test_missing_topo_exits_two(self, config_path, tmp_path, capsys):
        code = main([
            "containerize", "--config", config_path,
            "--topo", str(tmp_path / "nope.txt"), "--out", str(tmp_path),
        ])
        assert code == 2
        assert "nope.txt" in capsys.readouterr().err


class TestTrainCmd:
    def test_model_round_trips(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["train", "--config", config_path, "--out", str(out)]) == 0
        ps, h = load_model(out / "model.txt")
        assert ps.widths == (17, 8, 1)
        loss_lines = (out / "loss.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,loss"
        assert len(loss_lines) >= 3

    def test_loss_curve_monotone_after_warmup(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["train", "--config", config_path, "--out", str(out)])
        losses = [
            float(ln.split(",")[1])
            for ln in (out / "loss.csv").read_text().splitlines()[1:]
        ]
        tail = losses[min(10, len(losses) - 1):]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_alpha_out_of_range_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BASE_CONFIG + "alpha = 1.5\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_failed_second_write_leaves_both_outputs_unchanged(self, config_path, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "model.txt").write_text("old model\n")
        (out / "loss.csv").write_text("old loss\n")
        (out / "loss.csv.tmp").mkdir()  # the loss file cannot be written
        assert main(["train", "--config", config_path, "--out", str(out)]) == 2
        assert (out / "model.txt").read_text() == "old model\n"
        assert (out / "loss.csv").read_text() == "old loss\n"
        assert not (out / "model.txt.tmp").exists()

    @pytest.mark.parametrize("given,missing", [
        ("--personal", "--general"), ("--general", "--personal"),
    ])
    def test_a_lone_dataset_flag_exits_one(self, given, missing, config_path, tmp_path,
                                           monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("training ran")

        monkeypatch.setattr(cli.congruity, "train", unreachable)
        out = tmp_path / "out"
        code = main(["train", "--config", config_path, given, str(tmp_path / "none.csv"),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and missing in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command,lines,key", [
        ("train", "hidden_widths = 1000000000\n", "hidden_widths"),
        ("train", "max_epochs = 1000000000\ntolerance = 1e-300\n", "max_epochs"),
        ("run", "hidden_widths = 1000000000\n", "hidden_widths"),
        ("run", "max_epochs = 1000000000\ntolerance = 1e-300\n", "max_epochs"),
    ])
    def test_an_oversized_learner_exits_one_before_training(
        self, command, lines, key, tmp_path, monkeypatch, capsys
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("training ran")

        monkeypatch.setattr(cli.congruity, "train", unreachable)
        cfg = tmp_path / "big.cfg"
        cfg.write_text("scenario = embb\nn_devices = 32\nrequest_count = 10\n"
                       "use_learner = true\nn_personal = 20\nn_general = 20\n" + lines)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err, err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["n_personal", "n_general"])
    def test_an_oversized_dataset_exits_one_before_any_draw(
        self, key, config_path, tmp_path, capsys
    ):
        # 10**9 samples would take about 600 GiB
        cfg = tmp_path / "big.cfg"
        cfg.write_text(BASE_CONFIG + f"{key} = 1000000000\n")
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["train", "--config", str(cfg), "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err, err
        assert peak < 1 << 20
        assert not out.exists()


class TestRunCmd:
    def test_zero_cache_config_gives_all_zero_ito(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(
            BASE_CONFIG + "cache_fraction = 0.0\nprefetch_budget = 0\nseeds = 1\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert rows and all(row.split(",")[5] == "0.0" for row in rows)

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", config_path, "--out", str(out_a)])
        main(["run", "--config", config_path, "--out", str(out_b)])
        assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()

    def test_no_partial_files_on_failure(self, tmp_path):
        cfg = tmp_path / "invalid.cfg"
        cfg.write_text(BASE_CONFIG + "request_count = 0\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("lines,key", [
        ("scenario = urllc\nsweep_values = 8, 0\n", "latency_ms"),
        ("scenario = mmtc\narea_km2 = 0\n", "area_km2"),
    ])
    def test_bad_topology_point_exits_one_before_any_point_runs(
        self, lines, key, tmp_path, monkeypatch, capsys
    ):
        def unreachable(*args):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(evaluation, "_run_point", unreachable)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BASE_CONFIG + lines)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err, err
        assert not out.exists()

    @pytest.mark.parametrize("line,key", [
        ("sweep_values = 1e308\n", "data_rate_mbps = 1e+308"),
        ("service_seconds = 1e306\n", "service_seconds = 1e+306"),
        ("cache_fraction = 1e307\n", "cache_fraction = 1e+307"),
        ("request_count = 1000000000000\n", "request_count must lie"),
        ("catalog_size = 100000000\n", "catalog_size must lie"),
    ])
    def test_oversized_workload_exits_one_before_any_point_runs(
        self, line, key, tmp_path, monkeypatch, capsys
    ):
        def unreachable(*args):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(evaluation, "_run_point", unreachable)
        cfg = tmp_path / "big.cfg"
        cfg.write_text("scenario = embb\nn_devices = 32\nrequest_count = 10\n" + line)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err, err
        assert not out.exists()

    def test_an_unused_base_value_of_the_sweep_variable_is_not_checked(self):
        # 10 and 20 k/km^2 over 100 km^2 are 1M and 2M devices; the default
        # density of 63 k/km^2, which no point uses, would be 6.3M
        config = parse_config(BASE_CONFIG + "scenario = mmtc\narea_km2 = 100\nsweep_values = 10, 20\n")
        points = evaluation.sweep_points(scenario_params_from(config, 1))
        assert [p.density_k_per_km2 for p in points] == [10, 20]

    def test_bottleneck_targets_exit_one_before_any_topology(self, tmp_path, monkeypatch, capsys):
        def unreachable(*args):
            raise AssertionError("a topology was generated")

        monkeypatch.setattr(evaluation, "generate_topology", unreachable)
        cfg = tmp_path / "bottleneck.cfg"
        cfg.write_text(BASE_CONFIG + "target_mode = bottleneck\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "target_mode" in err, err
        assert not out.exists()

    def test_seed_flag_runs_a_config_that_names_no_seed(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(BASE_CONFIG + "seeds =\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["3", "3"]

    def test_lone_mmtc_device_exits_one(self, tmp_path):
        # one device is both the only publisher and the only requester
        cfg = tmp_path / "lone.cfg"
        cfg.write_text("scenario = mmtc\narea_km2 = 0.001\nsweep_values = 1\nseeds = 1\n")
        proc = run_module("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1, proc.stderr
        assert "requester" in proc.stderr
        assert not (tmp_path / "o").exists()

    # the prefetch counts of three manifest configs (tests/goldens), whose
    # reports the manifest pins
    @pytest.mark.parametrize("config,adds,removes,indirect", [
        ("embb-evictions.cfg", 48, 48, 0),
        ("mmtc-evictions.cfg", 48, 47, 4 * 24),
        ("urllc-evictions.cfg", 48, 46, 0),
    ])
    def test_prefetched_copies_bind_and_evicted_ones_unbind(
        self, config, adds, removes, indirect, monkeypatch
    ):
        actions, names = [], []
        binding, register_indirect = userplane.update_binding, ilm.register_indirect

        def counted(ilm_node, gid, action, na):
            actions.append(action)
            return binding(ilm_node, gid, action, na)

        def counted_indirect(*args, **kwargs):
            names.append(args[1])
            return register_indirect(*args, **kwargs)

        monkeypatch.setattr(userplane, "update_binding", counted)
        monkeypatch.setattr(ilm, "register_indirect", counted_indirect)
        cli.outputs(["run", "--config", os.path.join(GOLDENS, config)])
        assert (actions.count("add"), actions.count("remove")) == (adds, removes)
        assert len(names) == indirect


class TestReportCmd:
    def test_three_seed_summary_with_variance(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(BASE_CONFIG + "seeds = 1, 2, 3\nsweep_values = 8\n")
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        code = main(["report", str(out / "report.csv"), "--out", str(out)])
        assert code == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("scenario,sweep_var,sweep_value,n_seeds")
        assert summary[1].split(",")[3] == "3"
        plot = (out / "plotdata.csv").read_text().splitlines()
        assert plot[0] == "scenario,sweep_value,mean_ito"
        assert len(plot) == 2

    def test_failed_second_write_leaves_both_outputs_unchanged(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        (out / "summary.csv").write_text("old summary\n")
        (out / "plotdata.csv").write_text("old plot\n")
        (out / "plotdata.csv.tmp").mkdir()  # the plot file cannot be written
        assert main(["report", str(out / "report.csv"), "--out", str(out)]) == 2
        assert (out / "summary.csv").read_text() == "old summary\n"
        assert (out / "plotdata.csv").read_text() == "old plot\n"
        assert not (out / "summary.csv.tmp").exists()

    def test_a_row_repeated_in_another_file_exits_one_naming_both(self, tmp_path, capsys):
        row = "embb,data_rate_mbps,8.0,1,40,0.5,1.5,0.25\n"
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text(REPORT + row)
        second.write_text(REPORT + row.replace(",1,", ",2,") + row)
        out = tmp_path / "out"
        assert main(["report", str(first), str(second), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{second}, line 3" in err and f"{first}, line 2" in err, err
        assert not out.exists()

    def test_missing_report_file_exits_two(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "ghost.csv"), "--out", str(tmp_path)]) == 2
        assert "ghost.csv" in capsys.readouterr().err


TOPOLOGY = "graph latency_us 2\nnode 0 switch 1 1 3 1 1\nnode 1 switch 1 1 3 1 1\nedge 0 1 5\n"
REPORT = "scenario,sweep_var,sweep_value,seed,N,ito,mean_hops,cache_hit_rate\n"
DATASET = ",".join([*FEATURE_NAMES, *(f"label_{k}" for k in LABEL_KINDS)]) + "\n"
MALFORMED_INPUTS = {
    "topology-short-node-line": ("containerize", TOPOLOGY.replace("node 1 switch 1 1 3 1 1", "node 1 switch")),
    "topology-unknown-kind": ("containerize", TOPOLOGY.replace("node 1 switch", "node 1 router")),
    "topology-unknown-unit": ("containerize", TOPOLOGY.replace("latency_us", "furlongs")),
    "topology-non-integer-count": ("containerize", TOPOLOGY.replace("latency_us 2", "latency_us two")),
    "topology-zero-count": ("containerize", "graph latency_us 0\n"),
    "topology-non-integer-weight": ("containerize", TOPOLOGY.replace("edge 0 1 5", "edge 0 1 5.5")),
    "topology-dangling-edge": ("containerize", TOPOLOGY.replace("edge 0 1 5", "edge 0 5 5")),
    "topology-duplicate-edge": ("containerize", TOPOLOGY + "edge 1 0 7\n"),
    "topology-negative-weight": ("containerize", TOPOLOGY.replace("edge 0 1 5", "edge 0 1 -5")),
    "topology-downlink-not-three-uplinks": ("containerize", TOPOLOGY.replace("node 1 switch 1 1 3", "node 1 switch 1 1 4")),
    "topology-non-dense-ids": ("containerize", TOPOLOGY.replace("node 1 switch", "node 2 switch")),
    "topology-huge-weight": ("containerize", TOPOLOGY.replace("edge 0 1 5", "edge 0 1 100000000000000000000000")),
    "topology-huge-memory": ("containerize", TOPOLOGY.replace("node 1 switch 1", "node 1 switch 80000000000000000000000000")),
    "report-wrong-header": ("report", REPORT.replace("seed", "run")),
    "report-short-row": ("report", REPORT + "embb,data_rate_mbps,8.0,1\n"),
    "report-non-numeric-row": ("report", REPORT + "embb,data_rate_mbps,8.0,1,40,high,1.5,0.25\n"),
    "report-long-row": ("report", REPORT + "embb,data_rate_mbps,8.0,1,40,0.5,1.5,0.25,9\n"),
    "report-nan-ito": ("report", REPORT + "embb,data_rate_mbps,8.0,1,40,nan,1.5,0.25\n"),
    "report-unknown-scenario": ("report", REPORT + "foo,data_rate_mbps,8.0,1,40,0.5,1.5,0.25\n"),
    "report-other-scenarios-sweep-var": ("report", REPORT + "embb,latency_ms,8.0,1,40,0.5,1.5,0.25\n"),
    "report-zero-sweep-value": ("report", REPORT + "embb,data_rate_mbps,0.0,1,40,0.5,1.5,0.25\n"),
    "report-negative-seed": ("report", REPORT + "embb,data_rate_mbps,8.0,-1,40,0.5,1.5,0.25\n"),
    "report-zero-requests": ("report", REPORT + "embb,data_rate_mbps,8.0,1,0,0.5,1.5,0.25\n"),
    "report-too-many-requests": ("report", REPORT + "embb,data_rate_mbps,8.0,1,1000001,0.5,1.5,0.25\n"),
    "report-ito-above-one": ("report", REPORT + "embb,data_rate_mbps,8.0,1,40,1.5,1.5,0.25\n"),
    "report-negative-mean-hops": ("report", REPORT + "embb,data_rate_mbps,8.0,1,40,0.5,-1.5,0.25\n"),
    "report-hit-rate-above-one": ("report", REPORT + "embb,data_rate_mbps,8.0,1,40,0.5,1.5,3.25\n"),
    "report-repeated-row": ("report", REPORT + "embb,data_rate_mbps,8.0,1,40,0.5,1.5,0.25\n" * 2),
    "dataset-empty": ("train", ""),
    "dataset-non-numeric-cell": (
        "train", DATASET + ",".join(["0.5"] * (len(FEATURE_NAMES) - 1) + ["x"] + [""] * len(LABEL_KINDS)) + "\n"
    ),
    "dataset-extra-label-cell": (
        "train", DATASET + ",".join(["0.5"] * (len(FEATURE_NAMES) + len(LABEL_KINDS) + 1)) + "\n"
    ),
    "dataset-features-only": ("train", DATASET + ",".join(["0.5"] * len(FEATURE_NAMES)) + "\n"),
    "dataset-infinite-label": (
        "train", DATASET + ",".join(["0.5"] * len(FEATURE_NAMES) + ["inf"] + [""] * (len(LABEL_KINDS) - 1)) + "\n"
    ),
    "dataset-nan-label": (
        "train", DATASET + ",".join(["0.5"] * len(FEATURE_NAMES) + [""] * 2 + ["nan"] + [""] * (len(LABEL_KINDS) - 3)) + "\n"
    ),
    "dataset-out-of-range-feature": (
        "train", DATASET + ",".join(["0.5"] * (len(FEATURE_NAMES) - 1) + ["1.5"] + [""] * len(LABEL_KINDS)) + "\n"
    ),
}


@pytest.mark.parametrize("command,content", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS)
def test_malformed_input_file_exits_one_with_its_line(command, content, config_path, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(content)
    argv = {
        "containerize": ["containerize", "--config", config_path, "--topo", str(bad)],
        "report": ["report", str(bad)],
        "train": ["train", "--config", config_path, "--personal", str(bad), "--general", str(bad)],
    }[command]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{bad}, line " in err
    assert not (tmp_path / "out").exists()


MALFORMED_VALUES = {
    "negative-seeds-run": ("run", "seeds = -1", [], "seeds"),
    "negative-seeds-gen-topo": ("gen-topo", "seeds = 1, -1", [], "seeds"),
    "negative-seeds-train": ("train", "seeds = -1", [], "seeds"),
    "negative-seed-flag-run": ("run", "", ["--seed", "-1"], "--seed"),
    "negative-seed-flag-gen-topo": ("gen-topo", "", ["--seed", "-1"], "--seed"),
    "negative-seed-flag-train": ("train", "", ["--seed", "-1"], "--seed"),
    "empty-seeds-run": ("run", "seeds =", [], "seeds names no seed"),
    "empty-seeds-gen-topo": ("gen-topo", "seeds =", [], "seeds names no seed"),
    "empty-seeds-train": ("train", "seeds =", [], "seeds names no seed"),
    # a report with a repeated (point, seed) is one `report` rejects
    "repeated-seed-run": ("run", "seeds = 2, 1, 2", [], "seeds repeats seed 2"),
    "repeated-seed-gen-topo": ("gen-topo", "seeds = 1, 1", [], "seeds repeats seed 1"),
    "repeated-seed-train": ("train", "seeds = 1, 1", [], "seeds repeats seed 1"),
    "repeated-sweep-value-run": ("run", "sweep_values = 8, 32, 8.0", [], "sweep_values repeats 8.0"),
    "repeated-sweep-value-gen-topo": ("gen-topo", "sweep_values = 8, 8", [], "sweep_values repeats 8.0"),
    "infinite-cache-fraction": ("run", "cache_fraction = inf", [], "cache_fraction"),
    "infinite-area": ("run", "scenario = mmtc\narea_km2 = inf", [], "area_km2"),
    "infinite-sweep-value": ("run", "sweep_values = 8, inf", [], "sweep_values"),
    "nan-zipf-exponent": ("run", "zipf_exponent = nan", [], "zipf_exponent"),
    "nan-sweep-value": ("run", "sweep_values = nan", [], "sweep_values"),
    "nan-service-seconds": ("run", "service_seconds = nan", [], "service_seconds"),
    "zero-service-seconds": ("run", "service_seconds = 0", [], "service_seconds"),
    "zero-data-rate": ("run", "data_rate_mbps = 0", [], "data_rate_mbps"),
    "negative-sweep-point-run": ("run", "sweep_values = -8", [], "data_rate_mbps"),
    "zero-second-sweep-point-run": ("run", "sweep_values = 8, 0", [], "data_rate_mbps"),
    "negative-sweep-point-gen-topo": ("gen-topo", "sweep_values = -8", [], "data_rate_mbps"),
    "zero-sweep-point-gen-topo": ("gen-topo", "sweep_values = 0", [], "data_rate_mbps"),
    "zero-prefetch-candidates": ("run", "prefetch_candidates = 0", [], "prefetch_candidates"),
    "zero-prefetch-candidates-no-prefetch": (
        "run", "prefetch_budget = 0\nprefetch_candidates = 0", [], "prefetch_candidates"
    ),
    "negative-prefetch-top-j": ("run", "prefetch_top_j = -2", [], "prefetch_top_j"),
    "unknown-target-mode-containerize": (
        "containerize", "target_mode = nonsense", ["--topo", "topology.txt"], "target_mode"
    ),
    "unknown-target-mode-run": ("run", "target_mode = nonsense", [], "target_mode"),
    # d_max was a train-only key; no command accepts it now
    "d-max-run": ("run", "d_max = 30", [], "d_max"),
    "d-max-train": ("train", "d_max = 30", [], "d_max"),
    "d-max-gen-topo": ("gen-topo", "d_max = 30", [], "d_max"),
    "d-max-containerize": ("containerize", "d_max = 30", ["--topo", "topology.txt"], "d_max"),
    # the class mix is fixed (congruity.CLASS_PROPORTIONS); no command accepts the key
    "class-proportions-train": ("train", "class_proportions = 0.2, 0.8", [], "class_proportions"),
}


@pytest.mark.parametrize(
    "command,line,flags,key", MALFORMED_VALUES.values(), ids=MALFORMED_VALUES
)
def test_malformed_config_value_exits_one_naming_its_key(
    command, line, flags, key, tmp_path, capsys
):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BASE_CONFIG + line + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert key in err and "Traceback" not in err
    assert not out.exists()


class TestEntryPoints:
    def test_bad_usage_exits_one(self, capsys):
        assert main(["gen-topo"]) == 1  # --config is required

    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario = embb\nn_devices = 32\nrequest_count = 10\ncatalog_size = 4\nsweep_values = 8\n")
        proc = run_module("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "report.csv").exists()

    def test_help_documents_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "cache_fraction" in out and "default" in out

    def test_help_shows_the_target_mode_value_and_no_d_max(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        line, = [ln for ln in out.splitlines() if ln.strip().startswith("target_mode ")]
        assert "default 'additive' " in line
        assert "d_max" not in out


def test_readme_cli_example_runs(tmp_path, monkeypatch, capsys):
    """The shell block of README's CLI section: each `icnsim` line exits 0
    and writes the files its comment lists."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    name, config = re.search(r"cat > (\S+) <<EOF\n(.*?\n)EOF\n", block, re.S).groups()
    commands = [ln for ln in block.splitlines() if ln.startswith("icnsim ")]
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(config)
    listed = []
    for line in commands:
        command, _, comment = line.partition("#")
        assert main(shlex.split(command)[1:]) == 0, line
        files = comment.replace(",", " ").split()
        assert files and all((tmp_path / f).is_file() for f in files), line
        listed += files
    assert len(listed) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, demo],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


HASH_SEED_CONFIG = (
    "scenario = mmtc\nsweep_values = 20\narea_km2 = 0.005\nseeds = 1, 2\n"
    "request_count = 60\ncatalog_size = 12\nuse_learner = true\nmax_epochs = 5\n"
    "n_personal = 40\nn_general = 60\n"
)


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """`run` (with the learner) and `train` write the same bytes under two
    string-hash seeds, so no output follows set or dict order of strings,
    and `outputs` returns those bytes twice in this process."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(HASH_SEED_CONFIG)
    outputs = {}
    for hash_seed in ("0", "12345"):
        for command in ("run", "train"):
            out = tmp_path / f"{command}-{hash_seed}"
            proc = subprocess.run(
                [sys.executable, "-m", "icnsim.cli", command, "--config", str(cfg),
                 "--out", str(out)],
                env={**child_env(), "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.setdefault(command, []).append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())})
    for command in ("run", "train"):
        for _ in range(2):
            files = cli.outputs([command, "--config", str(cfg)])[1]
            outputs[command].append({name: files[name].encode() for name in sorted(files)})
    assert set(outputs["run"][0]) >= {"report.csv"}
    assert set(outputs["train"][0]) == {"model.txt", "loss.csv"}
    for command, (first, *others) in outputs.items():
        assert len(others) == 3 and all(other == first for other in others), command


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, icnsim.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
