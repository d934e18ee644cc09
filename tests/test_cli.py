import os
import subprocess
import sys

import pytest

import icnsim
from icnsim.cli import main, parse_config
from icnsim.congruity import load_model
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


def run_module(*args):
    """`python -m icnsim.cli <args>` in a child that imports this icnsim."""
    src = os.path.dirname(os.path.dirname(icnsim.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "icnsim.cli", *args],
        env=env, capture_output=True, text=True, timeout=120,
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
