import glob
import hashlib
import os
import subprocess
import sys

import pytest

import icnsim
from icnsim import ilm, userplane
from icnsim.cli import main, parse_config
from icnsim.congruity import FEATURE_NAMES, LABEL_KINDS, load_model
from icnsim.containment import Target, containerize, hierarchy_to_text
from icnsim.errors import ConfigError
from icnsim.topology import load_graph

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

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["gen-topo", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "error:" in capsys.readouterr().err


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

    # A 557-node eMBB topology: 45, 11 and 1 containers per level.
    GOLDEN_CONFIG = "scenario = embb\nsweep_values = 8\nseeds = 5\nn_devices = 512\n"
    GOLDEN_SHA256 = "9c06d552c402e957c5fb4c2728bb1671caefbeafea9e25c4549fcd12f60f79ad"

    def test_golden_dump(self, tmp_path):
        cfg = tmp_path / "golden.cfg"
        cfg.write_text(self.GOLDEN_CONFIG)
        out = tmp_path / "out"
        assert main(["gen-topo", "--config", str(cfg), "--out", str(out)]) == 0
        assert main([
            "containerize", "--config", str(cfg),
            "--topo", str(out / "topology.txt"), "--out", str(out),
        ]) == 0
        digest = hashlib.sha256((out / "hierarchy.txt").read_bytes()).hexdigest()
        assert digest == self.GOLDEN_SHA256

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

    def test_lone_mmtc_device_exits_one(self, tmp_path):
        # one device is both the only publisher and the only requester
        cfg = tmp_path / "lone.cfg"
        cfg.write_text("scenario = mmtc\narea_km2 = 0.001\nsweep_values = 1\nseeds = 1\n")
        proc = run_module("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1, proc.stderr
        assert "requester" in proc.stderr
        assert not (tmp_path / "o").exists()

    # Two rates, two seeds, a cache of a fifth of the catalog: every
    # prefetched copy (48 placements) gets evicted and deregistered.
    GOLDEN_CONFIG = (
        "scenario = embb\nsweep_values = 8, 12\nseeds = 3, 4\nn_devices = 256\n"
        "request_count = 400\ncatalog_size = 24\ncache_fraction = 0.2\n"
        "prefetch_budget = 12\n"
    )
    GOLDEN_SHA256 = "c293fbd9d479be826aa12c5f965223856a79daa0c0ec38c88f62bb33b349d1a9"

    def test_golden_report(self, tmp_path, monkeypatch):
        actions = []
        binding = userplane.update_binding

        def counted(ilm, gid, action, na):
            actions.append(action)
            return binding(ilm, gid, action, na)

        monkeypatch.setattr(userplane, "update_binding", counted)
        cfg = tmp_path / "golden.cfg"
        cfg.write_text(self.GOLDEN_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "report.csv").read_bytes()).hexdigest()
        assert digest == self.GOLDEN_SHA256
        assert actions.count("add") > 0 and actions.count("remove") > 0

    # Indirect (data id -> device id) registrations for every object, and a
    # cache of a fifth of the catalog: 47 of the 48 prefetched copies are
    # evicted and deregistered.
    GOLDEN_MMTC_CONFIG = (
        "scenario = mmtc\nsweep_values = 1, 2\nseeds = 3, 4\narea_km2 = 0.5\n"
        "request_count = 400\ncatalog_size = 24\ncache_fraction = 0.2\n"
        "prefetch_budget = 12\n"
    )
    GOLDEN_MMTC_SHA256 = "85b242a79ed44dba7d4e0cd1bc00be33c79d0f84d3eb7d0e37766b111fc79a94"

    def test_golden_mmtc_report(self, tmp_path, monkeypatch):
        actions = []
        binding = userplane.update_binding
        indirect = []
        register_indirect = ilm.register_indirect

        def counted(ilm_node, gid, action, na):
            actions.append(action)
            return binding(ilm_node, gid, action, na)

        def counted_indirect(*args, **kwargs):
            indirect.append(args[1])
            return register_indirect(*args, **kwargs)

        monkeypatch.setattr(userplane, "update_binding", counted)
        monkeypatch.setattr(ilm, "register_indirect", counted_indirect)
        cfg = tmp_path / "golden_mmtc.cfg"
        cfg.write_text(self.GOLDEN_MMTC_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "report.csv").read_bytes()).hexdigest()
        assert digest == self.GOLDEN_MMTC_SHA256
        assert len(indirect) == 4 * 24
        assert actions.count("add") == 48 and actions.count("remove") == 47


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
    "topology-non-integer-weight": ("containerize", TOPOLOGY.replace("edge 0 1 5", "edge 0 1 5.5")),
    "report-wrong-header": ("report", REPORT.replace("seed", "run")),
    "report-short-row": ("report", REPORT + "embb,data_rate_mbps,8.0,1\n"),
    "report-non-numeric-row": ("report", REPORT + "embb,data_rate_mbps,8.0,1,40,high,1.5,0.25\n"),
    "dataset-empty": ("train", ""),
    "dataset-non-numeric-cell": (
        "train", DATASET + ",".join(["0.5"] * (len(FEATURE_NAMES) - 1) + ["x"] + [""] * len(LABEL_KINDS)) + "\n"
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


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, demo],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, icnsim.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
