"""CLI surface: config loading, run/sweep/check/plot, exit codes, CSV io."""

from pathlib import Path

import numpy as np
import pytest
from test_acceptance import comparative_config

from dpga import engine
from dpga.checks import check_gradients, check_reductions
from dpga.cli import (CSV_HEADER, load_config, main, read_metrics_csv,
                      write_metrics_csv)
from dpga.engine import MetricsRecord
from dpga.errors import ConfigurationError
from dpga.models import loss_and_gradient
from dpga.protocol import apply_correction

README = Path(__file__).resolve().parents[1] / "README.md"

BASE_INI = """\
[run]
algorithm = dpga
rounds = 5
local_epochs = 2
eta = 0.1
seed = 3

[dataset]
classes = 3
dim = 4
per_class = 12
test_per_class = 6

[network]
bandwidth = 1e6
delay = 1
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_INI)
    return path


class TestLoadConfig:
    def test_file_values_applied(self, config_file):
        cfg = load_config(str(config_file), [], None)
        assert cfg.algorithm == "dpga"
        assert cfg.rounds == 5
        assert cfg.dim == 4
        assert cfg.delay == 1
        assert cfg.seed == 3

    def test_defaults_without_file(self):
        cfg = load_config(None, [], None)
        assert cfg.rounds == 50
        assert cfg.batch_size is None

    def test_unknown_key_rejected(self, config_file):
        with pytest.raises(ConfigurationError, match=r"unknown config key \[walk\] q"):
            load_config(str(config_file), ["walk.q=3"], None)

    def test_bad_value_names_key(self, config_file):
        with pytest.raises(ConfigurationError, match=r"\[run\] rounds"):
            load_config(str(config_file), ["run.rounds=soon"], None)

    def test_set_overrides_file(self, config_file):
        cfg = load_config(str(config_file), ["run.rounds=9"], None)
        assert cfg.rounds == 9

    def test_special_values(self, config_file):
        cfg = load_config(str(config_file),
                          ["run.batch_size=full", "network.delay=auto",
                           "model.hidden=8,4"], None)
        assert cfg.batch_size is None
        assert cfg.delay is None
        assert cfg.hidden_dims == (8, 4)

    def test_seed_precedence(self, config_file, monkeypatch):
        monkeypatch.setenv("DPGA_SEED", "21")
        assert load_config(str(config_file), [], None).seed == 21
        assert load_config(str(config_file), [], 99).seed == 99
        monkeypatch.delenv("DPGA_SEED")
        assert load_config(str(config_file), [], None).seed == 3

    def test_bad_env_seed(self, config_file, monkeypatch):
        monkeypatch.setenv("DPGA_SEED", "many")
        with pytest.raises(ConfigurationError):
            load_config(str(config_file), [], None)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(str(tmp_path / "nope.ini"), [], None)

    def test_readme_sample_is_the_comparative_config(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DPGA_SEED", raising=False)
        sample = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "sample.ini"
        path.write_text(sample)
        assert load_config(str(path), [], None) == comparative_config("dpga")

    def test_malformed_override(self, config_file):
        with pytest.raises(ConfigurationError):
            load_config(str(config_file), ["rounds=9"], None)


class TestMetricsCsv:
    def _records(self):
        return [MetricsRecord(round=1, sim_time=1.5, up_bytes=100,
                              down_bytes=100, p=0.5, train_loss=1.0986,
                              eval_acc=0.4),
                MetricsRecord(round=2, sim_time=3.0, up_bytes=200,
                              down_bytes=200, p=0.6, train_loss=float("nan"),
                              eval_acc=float("nan"))]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(self._records(), path)
        text = path.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        cols = read_metrics_csv(path)
        assert cols["round"] == [1.0, 2.0]
        assert cols["p"] == [0.5, 0.6]
        assert np.isnan(cols["eval_acc"][1])

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("round,acc\n1,2\n")
        with pytest.raises(ConfigurationError, match="row 1"):
            read_metrics_csv(path)

    def test_short_row_reports_position(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(CSV_HEADER + "\n1,2\n")
        with pytest.raises(ConfigurationError, match="row 2"):
            read_metrics_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "m.csv"
        good = "1,1.5,10,10,0.5,1.0,0.5"
        path.write_text(f"{CSV_HEADER}\n{good}\n1,1.5,10,10,0.5,oops,0.5\n")
        with pytest.raises(ConfigurationError, match="row 3"):
            read_metrics_csv(path)


class TestRunCommand:
    def test_writes_csv(self, config_file, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        code = main(["run", "--config", str(config_file), "--out", str(out)])
        assert code == 0
        assert str(out) in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 5

    def test_byte_identical_reruns(self, config_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", str(config_file), "--out", str(a)]) == 0
        assert main(["run", "--config", str(config_file), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_key_exits_2(self, config_file, tmp_path, capsys):
        code = main(["run", "--config", str(config_file),
                     "--set", "walk.q=1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "unknown config key [walk] q" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, config_file, tmp_path, capsys):
        code = main(["run", "--config", str(config_file),
                     "--set", "run.eta=-1", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_nan_latency_exits_2(self, config_file, tmp_path, capsys):
        code = main(["run", "--config", str(config_file),
                     "--set", "network.latency=nan", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "latency must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, env, sets", [
        (["--seed", "-1"], None, []),
        ([], "-3", []),
        ([], None, ["--set", "run.seed=-1"]),
    ], ids=["flag", "env", "key"])
    def test_negative_seed_exits_2(self, config_file, tmp_path, capsys,
                                   monkeypatch, flag, env, sets):
        if env is not None:
            monkeypatch.setenv("DPGA_SEED", env)
        code = main(["run", "--config", str(config_file), *flag, *sets,
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err
        assert "Traceback" not in err

    def test_derived_delay_at_rounding_edge_runs(self, tmp_path):
        # 13 rounds of compute end one float step short of this round trip.
        code = main(["run", "--set", "run.algorithm=dga",
                     "--set", "network.bandwidth=inf",
                     "--set", "network.latency=121.07555316910238",
                     "--set", "network.t_compute=9.313504089930952",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 0

    def test_overflowing_clock_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["run", "--set", "run.algorithm=fedavg",
                     "--set", "network.latency=1e308", "--set", "run.rounds=3",
                     "--out", str(out)])
        assert code == 2
        assert "clock would reach inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sets, reason", [
        (["run.algorithm=dga", "network.delay=1" + "0" * 400],
         "more rounds than a float can hold"),
        (["walk.m=1000000000000"], "walk m must be in"),
        (["run.algorithm=fedavg", "walk.m=1000000000000"], "walk m must be in"),
        (["dataset.dim=100000000000000000000", "run.rounds=1"], "DPG1"),
        (["dataset.classes=100000000000000000000", "run.rounds=1"], "DPG1"),
        (["dataset.spread=1e308", "run.rounds=2"], "dataset.spread"),
    ], ids=["delay", "walk-m", "walk-m-fedavg", "dim", "classes", "spread"])
    @pytest.mark.filterwarnings("error")  # no numpy overflow warning either
    def test_oversized_value_exits_2(self, tmp_path, capsys, sets, reason):
        out = tmp_path / "x.csv"
        code = main(["run", *(arg for s in sets for arg in ("--set", s)),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert reason in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_out_is_directory_exits_2(self, config_file, tmp_path, capsys):
        code = main(["run", "--config", str(config_file), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot write {tmp_path}" in err
        assert "Traceback" not in err

    def test_seed_flag_changes_output(self, config_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", str(config_file), "--out", str(a)])
        main(["run", "--config", str(config_file), "--seed", "4",
              "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestSweepCommand:
    def test_algorithm_axis(self, config_file, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(config_file),
                     "--set", "network.delay=auto", "--set", "run.rounds=4",
                     "--axis", "run.algorithm",
                     "--values", "fedavg,dga,dpga", "--out", str(out)])
        assert code == 0
        files = sorted(p.name for p in out.glob("*.csv"))
        assert files == ["run_algorithm_dga.csv", "run_algorithm_dpga.csv",
                         "run_algorithm_fedavg.csv", "summary.csv"]
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == ("value,final_eval_acc,total_up_bytes,"
                              "total_down_bytes,final_sim_time")
        assert len(summary) == 4

    def test_summary_matches_run_files(self, config_file, tmp_path):
        out = tmp_path / "sweep"
        main(["sweep", "--config", str(config_file),
              "--set", "network.delay=auto", "--set", "run.rounds=4",
              "--axis", "run.algorithm", "--values", "fedavg,dga",
              "--out", str(out)])
        for line in (out / "summary.csv").read_text().splitlines()[1:]:
            value, acc, up, down, sim_time = line.split(",")
            cols = read_metrics_csv(out / f"run_algorithm_{value}.csv")
            assert float(acc) == cols["eval_acc"][-1]
            assert int(up) == cols["up_bytes"][-1]
            assert int(down) == cols["down_bytes"][-1]
            assert float(sim_time) == cols["sim_time"][-1]

    def test_empty_values_exit_2(self, config_file, tmp_path):
        assert main(["sweep", "--config", str(config_file),
                     "--axis", "run.algorithm", "--values", "",
                     "--out", str(tmp_path / "s")]) == 2

    def test_colliding_values_exit_2(self, config_file, tmp_path):
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(config_file),
                     "--axis", "run.algorithm", "--values", "dga, dga",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_values_are_stripped(self, config_file, tmp_path):
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(config_file),
                     "--set", "run.rounds=2", "--axis", "run.algorithm",
                     "--values", " dga , dpga", "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["dga", "dpga"]

    def test_seed_axis_with_seed_flag_exit_2(self, config_file, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(config_file), "--seed", "7",
                     "--set", "run.rounds=3", "--axis", "run.seed",
                     "--values", "1,2", "--out", str(out)]) == 2
        assert "run.seed axis" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_axis_runs_each_seed(self, config_file, tmp_path):
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(config_file),
                     "--set", "run.rounds=3", "--axis", "run.seed",
                     "--values", "3,4", "--out", str(out)]) == 0
        assert ((out / "run_seed_3.csv").read_bytes()
                != (out / "run_seed_4.csv").read_bytes())

    def test_invalid_value_exits_2_before_any_run(self, config_file, tmp_path,
                                                  capsys):
        # fedavg is synchronous and rejects delay 4; dpga, first, accepts it.
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(config_file),
                     "--axis", "run.algorithm", "--values", "dpga,fedavg",
                     "--set", "network.delay=4", "--set", "run.rounds=3",
                     "--out", str(out)]) == 2
        assert "fedavg is synchronous" in capsys.readouterr().err
        assert not out.exists()

    def test_out_is_file_exits_2(self, config_file, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["sweep", "--config", str(config_file),
                     "--axis", "run.algorithm", "--values", "dga",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {out}" in err
        assert "Traceback" not in err

    def test_bad_axis_exit_2(self, config_file, tmp_path):
        assert main(["sweep", "--config", str(config_file),
                     "--axis", "algorithm", "--values", "dga",
                     "--out", str(tmp_path / "s")]) == 2


class TestCheckCommand:
    def test_clean_build_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        for name in ("finite-diff", "walk-enumeration", "codec-roundtrip",
                     "exchange", "reduction-identities"):
            assert f"{name}: PASS" in out

    def test_injected_gradient_bug_fails(self, capsys):
        def broken(params, batch, spec):
            loss, grad = loss_and_gradient(params, batch, spec)
            return loss, grad * 1.01

        from dpga.cli import cmd_check
        code = cmd_check(None, suites=[
            lambda: check_gradients(cases=5, grad_fn=broken)])
        assert code == 1
        assert "finite-diff: FAIL" in capsys.readouterr().out

    def test_summed_replay_fails(self, monkeypatch):
        """A correction that replays the later rounds as one summed step
        keeps every correction at 0.0 but leaves the bitwise trajectory."""
        def summed(client, agg, eta, scope="own-shared"):
            delta = apply_correction(client, agg, eta, scope=scope)
            later = sum(p.z_full for p in client.pending)
            client.weights = client.anchor - eta * later
            return delta

        monkeypatch.setattr(engine, "apply_correction", summed)
        assert not check_reductions().passed


class TestPlotCommand:
    def test_single_file(self, config_file, tmp_path, capsys):
        csv_path = tmp_path / "m.csv"
        main(["run", "--config", str(config_file), "--out", str(csv_path)])
        svg_path = tmp_path / "p.svg"
        code = main(["plot", str(csv_path), "--x", "round",
                     "--out", str(svg_path)])
        assert code == 0
        svg = svg_path.read_text()
        assert svg.count("<polyline") == 1
        points = svg.split('points="')[1].split('"')[0].split()
        assert len(points) == 5  # one per evaluated round
        assert ">round<" in svg

    def test_multiple_files_get_legend_entries(self, config_file, tmp_path):
        a, b = tmp_path / "one.csv", tmp_path / "two.csv"
        main(["run", "--config", str(config_file), "--out", str(a)])
        main(["run", "--config", str(config_file), "--seed", "5",
              "--out", str(b)])
        svg_path = tmp_path / "p.svg"
        assert main(["plot", str(a), str(b), "--x", "sim_time",
                     "--out", str(svg_path)]) == 0
        svg = svg_path.read_text()
        assert svg.count("<polyline") == 2
        assert ">one<" in svg and ">two<" in svg

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(CSV_HEADER + "\n1,2,3\n")
        code = main(["plot", str(bad), "--out", str(tmp_path / "p.svg")])
        assert code == 2
        assert "row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"\xff\xfe\x00", b"1" * 200_000],
                             ids=["missing", "not-utf8", "oversized-field"])
    def test_unreadable_csv_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "m.csv"
        if content is not None:
            path.write_bytes(content)
        code = main(["plot", str(path), "--out", str(tmp_path / "p.svg")])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot read metrics CSV" in err
        assert "Traceback" not in err

    def test_out_is_directory_exits_2(self, config_file, tmp_path, capsys):
        csv_path = tmp_path / "m.csv"
        main(["run", "--config", str(config_file), "--out", str(csv_path)])
        code = main(["plot", str(csv_path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot write {tmp_path}" in err
        assert "Traceback" not in err

    def test_no_evaluated_rows_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(CSV_HEADER + "\n1,1,10,10,1,nan,nan\n")
        code = main(["plot", str(path), "--out", str(tmp_path / "p.svg")])
        assert code == 2
        assert "no evaluated rows" in capsys.readouterr().err
        assert not (tmp_path / "p.svg").exists()
