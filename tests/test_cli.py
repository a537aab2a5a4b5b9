"""CLI surface: config loading, run/sweep/check/plot, exit codes, CSV io."""

import glob
import math
import shlex
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from test_acceptance import comparative_config

from dpga import checks, engine
from dpga.checks import check_reductions
from dpga.cli import (CSV_HEADER, PLOT_X_CHOICES, SCHEMA, load_config, main,
                      read_metrics_csv, write_metrics_csv)
from dpga.engine import ALGORITHMS, MetricsRecord
from dpga.errors import ConfigurationError, ContractViolationError, DecodeError
from dpga.masking import SharedSet, SparseGradient, decode, encode, topk_shared_indices
from dpga.models import loss_and_gradient
from dpga.protocol import (CORRECTION_SCOPES, GlobalAggregate, apply_correction,
                           server_aggregate)
from dpga.ratewalk import GRID, MAX_STEPS, one_step_matrix

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


def _sets(*items: str) -> list[str]:
    return [arg for item in items for arg in ("--set", item)]


# Two runs that diverge: features so large that the training loss sums to
# inf, and a step so large that the weights overflow and the loss is nan.
DIVERGING_SPREAD = _sets("dataset.spread=1e154", "run.rounds=3")
DIVERGING_STEP = _sets(
    "run.algorithm=dpga", "run.n_clients=1", "run.rounds=2", "run.local_epochs=2",
    "run.eta=1.3234973166941617e+38", "run.batch_size=full", "run.eval_every=1",
    "run.seed=1", "model.kind=mlp", "model.hidden=1", "model.activation=relu",
    "dataset.classes=2", "dataset.dim=1", "dataset.per_class=2",
    "dataset.test_per_class=1", "dataset.spread=2.0", "network.bandwidth=1.0",
    "network.delay=auto", "walk.m=1000000000", "walk.p0=0.1", "walk.per_client=true",
    "static.fraction=1.0")


@pytest.fixture
def no_run(monkeypatch):
    """Fail the test if any simulation runs."""
    def run(sim):
        raise AssertionError("a simulation ran")

    monkeypatch.setattr(engine.Simulation, "run", run)


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

    @pytest.mark.parametrize("link, reason", [
        ("network.bandwidth=0", "bandwidth must be positive"),
        ("network.latency=-1", "latency must be >= 0"),
    ])
    def test_bad_link_exits_2(self, tmp_path, capsys, link, reason):
        code = main(["run", "--set", link, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert reason in err
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
        # Sizes numpy cannot allocate at all, refused before any allocation.
        ([f"run.local_epochs={2 ** 63}"], "one round's local steps"),
        ([f"run.n_clients={2 ** 62}"], "training examples"),
        ([f"run.n_clients={10 ** 20}"], "training examples"),
        ([f"dataset.per_class={2 ** 62}"], "the dataset's"),
        ([f"dataset.per_class={10 ** 20}"], "the dataset's"),
        ([f"dataset.test_per_class={10 ** 20}"], "the dataset's"),
    ], ids=["delay", "walk-m", "walk-m-fedavg", "dim", "classes", "spread",
            "epochs", "clients", "clients-1e20", "per-class", "per-class-1e20",
            "test-per-class-1e20"])
    @pytest.mark.filterwarnings("error")  # no numpy overflow warning either
    def test_oversized_value_exits_2(self, tmp_path, capsys, sets, reason):
        out = tmp_path / "x.csv"
        tracemalloc.start()
        try:
            code = main(["run", *(arg for s in sets for arg in ("--set", s)),
                         "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2 ** 20  # nothing sized by the value was allocated
        lines = [ln for ln in capsys.readouterr().err.splitlines()
                 if not ln.startswith("INFO ")]
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert reason in lines[0]
        assert not out.exists()

    def test_out_is_directory_exits_2(self, config_file, tmp_path, capsys, no_run):
        # --out is checked before round 1, so no round is computed.
        code = main(["run", "--config", str(config_file), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot write {tmp_path}" in err
        assert "Traceback" not in err

    def test_out_under_a_file_exits_2(self, config_file, tmp_path, capsys, no_run):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["run", "--config", str(config_file),
                     "--out", str(blocker / "m.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot write {blocker}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("ini, sets, reason", [
        (b"[run\nrounds = 3\n", [], "cannot parse config"),
        (BASE_INI.encode(), ["walk.per_client=maybe"], "not a boolean: 'maybe'"),
        # A % is literal text: configs have no interpolation.
        (b"[run]\nalgorithm = dp%ga\n", [], "unknown algorithm 'dp%ga'"),
        (b"\xff\xfe[run]\nrounds = 3\n", [], "cannot read config"),
        # A [DEFAULT] key is refused, not dropped or copied into each section.
        (b"[DEFAULT]\nrounds = 5\n", [], "[DEFAULT] rounds"),
        (b"[DEFAULT]\nrounds = 5\n[run]\nalgorithm = dpga\n", [], "[DEFAULT] rounds"),
        (b"[DEFAULT]\nrounds = 5\n[model]\nkind = mlp\n", [], "[DEFAULT] rounds"),
    ], ids=["unparsable-ini", "not-a-boolean", "percent-sign", "not-utf-8",
            "default-alone", "default-beside-run", "default-beside-model"])
    def test_bad_config_text_exits_2(self, tmp_path, capsys, ini, sets, reason):
        path, out = tmp_path / "exp.ini", tmp_path / "x.csv"
        path.write_bytes(ini)
        code = main(["run", "--config", str(path), *_sets(*sets), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert reason in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("sets", [DIVERGING_SPREAD, DIVERGING_STEP],
                             ids=["inf-loss", "nan-loss"])
    def test_diverging_run_exits_3(self, tmp_path, capsys, sets):
        # RuntimeWarning is an error here, so a numpy warning would escape.
        out = tmp_path / "x.csv"
        assert main(["run", *sets, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "contract violation: loss/gradient overflowed" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("error", [ContractViolationError])
    def test_contract_break_exits_3(self, config_file, tmp_path, capsys,
                                    monkeypatch, error):
        def run(sim):
            raise error("injected")

        monkeypatch.setattr(engine.Simulation, "run", run)
        out = tmp_path / "m.csv"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "contract violation: injected" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 9.34 GiB for an array",
         "error: out of memory: Unable to allocate 9.34 GiB for an array"),
        ("", "error: out of memory: an allocation was refused")],
        ids=["numpy", "bare"])
    def test_out_of_memory_exits_2(self, config_file, tmp_path, capsys, monkeypatch,
                                   message, line):
        """A problem too large for memory is a configuration the machine
        cannot run, not a failed check suite."""
        def run(sim):
            raise MemoryError(message)

        monkeypatch.setattr(engine.Simulation, "run", run)
        out = tmp_path / "m.csv"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert not out.exists()

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

    @pytest.mark.parametrize("axis, values", [
        ("partition.alpha", "100,0.001"),
        ("partition.alpha", "100,-1"),
        ("partition.rho", "1,0"),
        ("dataset.spread", "1,-1"),
    ], ids=["empty-client", "alpha", "rho", "spread"])
    def test_value_the_simulation_rejects_exits_2_before_any_run(
            self, tmp_path, capsys, no_run, axis, values):
        # Only building the Simulation finds these; the first value is valid.
        out = tmp_path / "sw"
        assert main(["sweep", "--axis", axis, "--values", values,
                     "--set", "run.n_clients=4", "--set", "run.rounds=2",
                     "--set", "dataset.per_class=10", "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
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

    def test_unwritable_name_exits_2_before_any_run(self, tmp_path, capsys,
                                                    no_run):
        # The second value's file name is longer than file systems allow.
        out, long = tmp_path / "sw", "0" * 300 + "2"
        code = main(["sweep", "--set", "run.n_clients=2", "--set", "run.rounds=2",
                     "--set", "dataset.per_class=6", "--axis", "run.seed",
                     "--values", f"1,{long}", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot write {out / f'run_seed_{long}.csv'}: " in err
        assert "Traceback" not in err
        assert list(out.glob("*.csv")) == []

    def test_bad_axis_exit_2(self, config_file, tmp_path):
        assert main(["sweep", "--config", str(config_file),
                     "--axis", "algorithm", "--values", "dga",
                     "--out", str(tmp_path / "s")]) == 2


def _ints(lo: int, hi: int):
    """(valid, out of range) for an integer key whose range starts at lo."""
    return st.integers(lo, hi), st.integers(lo - 2, lo - 1)


def _names(valid, bad: str):
    return st.sampled_from(valid), st.just(bad)


# Every config key as (valid draw, out-of-range draw), at sizes that keep
# each run to a few milliseconds. An out-of-range real is any float at all:
# negative, huge, subnormal, infinite or nan.
SURFACE = {
    ("run", "algorithm"): _names(ALGORITHMS, "gossip"),
    ("run", "n_clients"): _ints(1, 6),
    ("run", "rounds"): _ints(1, 3),
    ("run", "local_epochs"): _ints(1, 3),
    ("run", "eta"): (st.floats(0.01, 1.0), st.floats()),
    ("run", "batch_size"): (st.just("full") | st.integers(1, 8), st.integers(-1, 0)),
    ("run", "eval_every"): _ints(1, 3),
    ("run", "seed"): (st.integers(0, 2 ** 64), st.integers(-2 ** 64, -1)),
    ("model", "kind"): _names(["logistic-regression", "mlp"], "cnn"),
    ("model", "hidden"): (st.lists(st.integers(1, 4), min_size=1, max_size=2),
                          st.lists(st.integers(-1, 0), min_size=1, max_size=2)),
    ("model", "activation"): _names(["relu", "tanh"], "gelu"),
    ("dataset", "classes"): _ints(2, 4),
    ("dataset", "dim"): _ints(1, 6),
    ("dataset", "per_class"): _ints(1, 20),
    ("dataset", "test_per_class"): _ints(1, 20),
    ("dataset", "spread"): (st.floats(0.0, 5.0), st.floats()),
    ("partition", "alpha"): (st.floats(0.05, 10.0), st.floats()),
    ("partition", "rho"): (st.floats(0.05, 1.0), st.floats()),
    ("network", "bandwidth"): (st.floats(1.0, 1e9) | st.just(math.inf), st.floats()),
    ("network", "latency"): (st.floats(0.0, 10.0), st.floats()),
    ("network", "t_compute"): (st.floats(0.1, 10.0), st.floats()),
    ("network", "delay"): (st.just("auto") | st.integers(0, 20),
                           st.integers(-2, -1) | st.just(10 ** 400)),
    ("walk", "m"): (st.integers(0, 4) | st.just(MAX_STEPS),
                    st.sampled_from([-1, MAX_STEPS + 1])),
    ("walk", "p0"): (st.sampled_from([float(p) for p in GRID]), st.floats()),
    ("walk", "per_client"): _names(["true", "false"], "maybe"),
    ("aggregation", "correction_scope"): _names(CORRECTION_SCOPES, "everything"),
    ("static", "fraction"): (st.floats(0.01, 1.0), st.floats()),
}


def _text(value) -> str:
    if isinstance(value, list):
        return ",".join(map(str, value))
    return str(value)


@st.composite
def overrides(draw) -> list[str]:
    """--set arguments for every key; up to two keys (or their text) broken."""
    broken = draw(st.sets(st.sampled_from(sorted(SURFACE)), max_size=2))
    raw = {k: draw(st.one_of(bad.map(_text), st.just("?"))) if k in broken
           else _text(draw(good)) for k, (good, bad) in SURFACE.items()}
    # A valid hidden list is one that fits the model kind.
    if ("model", "hidden") not in broken and raw[("model", "kind")] != "mlp":
        raw[("model", "hidden")] = ""
    return [arg for (section, key), value in raw.items()
            for arg in ("--set", f"{section}.{key}={value}")]


class TestConfigSurface:
    def test_surface_covers_the_schema(self):
        assert SURFACE.keys() == SCHEMA.keys()

    @settings(max_examples=100, deadline=None)
    @given(sets=overrides())
    @example(sets=DIVERGING_STEP)
    def test_any_config_ends_in_a_documented_exit(self, sets):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "m.csv"
            code = main(["run", *sets, "--out", str(out)])
            assert code in (0, 2, 3)
            if code == 0:
                cols = read_metrics_csv(out)
                for name in ("sim_time", "up_bytes", "down_bytes"):
                    assert all(math.isfinite(v) for v in cols[name])
                # An evaluated row is one with an accuracy.
                assert all(math.isfinite(loss) for loss, acc in
                           zip(cols["train_loss"], cols["eval_acc"]) if acc == acc)


# Keys every sweep property run starts from: a few milliseconds per value.
SWEEP_BASE = ["--set", "run.n_clients=2", "--set", "run.rounds=2",
              "--set", "dataset.per_class=6", "--set", "dataset.test_per_class=2",
              "--set", "dataset.dim=3"]


@st.composite
def sweeps(draw) -> tuple[str, list[str]]:
    """An axis (a config key or junk) and 1-3 values for it: valid, out of
    range, unparsable or colliding."""
    key = draw(st.sampled_from(sorted(SURFACE)))
    good, bad = SURFACE[key]
    axis = draw(st.just(".".join(key))
                | st.sampled_from(["run.nope", "rounds", "run.", ".rounds"]))
    value = st.one_of(good.map(_text), bad.map(_text),
                      st.sampled_from(["?", "a/b", "a-b", " "]))
    values = draw(st.lists(value, min_size=1, max_size=3))
    if len(values) > 1 and draw(st.booleans()):
        values[-1] = values[0]
    return axis, values


_CELLS = st.one_of(st.floats(0.0, 1.0).map(str),       # an accuracy
                   st.integers(0, 10 ** 6).map(str),   # a round, time or count
                   st.floats().map(str),               # nan and inf included
                   st.sampled_from(["", "x", "1e999", "-inf", "nan"]))
_WIDTH = len(CSV_HEADER.split(","))


@st.composite
def metrics_csvs(draw) -> bytes:
    """CSV bytes: a good or bad header, full or short rows of numbers,
    junk and non-finite cells, and now and then a byte that is not UTF-8."""
    header = draw(st.sampled_from([CSV_HEADER, CSV_HEADER.replace(",p,", ",q,"),
                                   CSV_HEADER + ",extra"]))
    rows = draw(st.lists(st.lists(_CELLS, min_size=_WIDTH, max_size=_WIDTH)
                         | st.lists(_CELLS, max_size=_WIDTH + 1),
                         min_size=1, max_size=4))
    blob = "\n".join([header] + [",".join(r) for r in rows]).encode() + b"\n"
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(blob)))
        blob = blob[:at] + b"\xff" + blob[at:]
    return blob


class TestSweepAndPlotSurface:
    @settings(max_examples=40, deadline=None)
    @given(sweep=sweeps())
    def test_any_sweep_ends_in_a_documented_exit(self, sweep):
        axis, values = sweep
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "sw"
            code = main(["sweep", *SWEEP_BASE, f"--axis={axis}",
                         f"--values={','.join(values)}", "--out", str(out)])
            assert code in (0, 2)
            written = sorted(p.name for p in out.glob("*.csv"))
            if code == 2:
                assert written == []
            else:
                assert "summary.csv" in written

    @settings(max_examples=80, deadline=None)
    @given(blob=metrics_csvs(), x=st.sampled_from(PLOT_X_CHOICES))
    # One evaluated row: both axes are flat.
    @example(blob=f"{CSV_HEADER}\n3,2.5,100,100,1,0.5,0.75\n".encode(), x="sim_time")
    @example(blob=f"{CSV_HEADER}\n1,1e17,9,9,1,1,1\n".encode(), x="sim_time")
    # A finite span whose top tick overflowed when scaled before dividing.
    @example(blob=f"{CSV_HEADER}\n0,0,0,0,0,0,0\n1,0,0,0,0,0,4.3e307\n".encode(),
             x="sim_time")
    def test_any_csv_ends_in_a_documented_exit(self, blob, x):
        with tempfile.TemporaryDirectory() as tmp:
            path, svg = Path(tmp) / "m.csv", Path(tmp) / "p.svg"
            path.write_bytes(blob)
            code = main(["plot", str(path), f"--x={x}", "--out", str(svg)])
            assert code in (0, 2)
            if code == 0:
                text = svg.read_text()
                ET.fromstring(text)  # well-formed XML
                assert "nan" not in text and "inf" not in text
            else:
                assert not svg.exists()


# Faults that an oracle suite must catch, each patched over its name in
# dpga.checks, with the failure detail the suite reports.
def _encode_extra_byte(msg):
    return encode(msg) + b"\0"


def _decode_flipped_bit(blob):
    msg = decode(blob)
    msg.values.view(np.int64)[0] ^= 1
    return msg


def _decode_unsigned_zero(blob):
    """Decoding that turns -0.0 into 0.0, which compares equal to it."""
    msg = decode(blob)
    return SparseGradient(msg.round, msg.p, msg.shared, msg.values + 0.0)


def _topk_ties_high(z, p):
    """Top-K with magnitude ties resolved toward the higher index."""
    d = z.shape[0]
    return SharedSet((d - 1 - topk_shared_indices(z[::-1], p).indices)[::-1], d)


def _aggregate_over_messages(messages, d, weights=None):
    """Each coordinate's sum divided by the message count, not its own."""
    agg = server_aggregate(messages, d, weights)
    return GlobalAggregate(agg.round, agg.values * agg.counts / len(messages),
                           agg.counts)


def _one_set_ignoring_weights(messages, d, weights=None):
    """The plain mean whenever every message carries one fixed set, even
    when weights are given."""
    if all(m.indices is messages[0].indices for m in messages):
        weights = None
    return server_aggregate(messages, d, weights)


def _walk_without_hold(m):
    """The m-step matrix with the boundary's held half-step dropped."""
    one = one_step_matrix()
    np.fill_diagonal(one, 0.0)
    return np.linalg.matrix_power(one, m)


def _gradient_scaled(params, batch, spec):
    loss, grad = loss_and_gradient(params, batch, spec)
    return loss, grad * 1.01


def _relu_mlp_gradient_scaled(params, batch, spec):
    """A gradient that is wrong for relu MLPs only."""
    loss, grad = loss_and_gradient(params, batch, spec)
    relu_mlp = spec.kind == "mlp" and spec.activation == "relu"
    return loss, grad * 1.01 if relu_mlp else grad


def _raise(exc):
    def fault(*args):
        raise exc
    return fault


class TestCheckCommand:
    def test_clean_build_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        for name in ("finite-diff", "walk-enumeration", "codec-roundtrip",
                     "exchange", "reduction-identities"):
            assert f"{name}: PASS" in out

    def test_injected_gradient_bug_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(checks, "loss_and_gradient", _gradient_scaled)
        assert main(["check"]) == 1
        assert "finite-diff: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("name, exc, line", [
        ("decode", DecodeError("boom", 0),
         "codec-roundtrip: FAIL - raised DecodeError: boom (at byte 0)"),
        ("topk_shared_indices", ContractViolationError("boom"),
         "exchange: FAIL - raised ContractViolationError: boom"),
    ], ids=["decode-error", "contract-violation"])
    def test_raising_suite_fails_and_the_rest_run(self, monkeypatch, capsys,
                                                  name, exc, line):
        monkeypatch.setattr(checks, name, _raise(exc))
        assert main(["check"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert line in out
        assert len(out) == 5 and sum("PASS" in o for o in out) == 4

    @pytest.mark.parametrize("name, fault, suite, detail", [
        ("encode", _encode_extra_byte, checks.check_codec, "not 17 + 12k"),
        ("decode", _decode_flipped_bit, checks.check_codec,
         "decoded values field differs"),
        ("decode", _decode_unsigned_zero, checks.check_codec,
         "decoded values field differs"),
        ("topk_shared_indices", _topk_ties_high, checks.check_exchange,
         "Top-K differs"),
        ("server_aggregate", _aggregate_over_messages, checks.check_exchange,
         "aggregate differs"),
        ("server_aggregate", _one_set_ignoring_weights, checks.check_exchange,
         "aggregate differs from the union route (dense uploads)"),
        ("m_step_matrix", _walk_without_hold, checks.check_walk,
         "m=1: the row from p=0.1 differs"),
        ("loss_and_gradient", _relu_mlp_gradient_scaled, checks.check_gradients,
         "mlp max_rel_err"),
    ], ids=["encode-extra-byte", "decode-flipped-bit", "decode-unsigned-zero",
            "topk-ties-high", "aggregate-over-messages",
            "one-set-ignoring-weights", "walk-without-hold",
            "relu-mlp-gradient"])
    def test_injected_fault_fails(self, monkeypatch, name, fault, suite, detail):
        monkeypatch.setattr(checks, name, fault)
        result = suite()
        assert not result.passed
        assert detail in result.detail

    def test_summed_replay_fails(self, monkeypatch):
        """A correction that replays the later rounds as one summed step
        keeps every correction at 0.0 but leaves the bitwise trajectory."""
        def summed(client, round):
            size = apply_correction(client, round)
            # Each pending round holds its step eta * z.
            client.weights = client.anchor - sum(p.z_full for p in client.pending)
            return size

        monkeypatch.setattr(engine, "apply_correction", summed)
        assert not check_reductions().passed

    def test_shards_that_differ_fail(self, monkeypatch):
        """The identical-shards oracle checks its own premise: at spread 1
        its config deals every client different examples."""
        monkeypatch.setattr(checks, "IDENTICAL_SHARDS",
                            replace(checks.IDENTICAL_SHARDS, spread=1.0))
        result = check_reductions()
        assert not result.passed
        assert "shards of clients [1, 2, 3]" in result.detail


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

    @pytest.mark.parametrize("stem, legend", [
        ("a&b<c", "a&b<c"), ("tab\tbell\x07", "tab\tbell\ufffd"),
        ("byte\udcff", "byte\ufffd"),  # the file name byte 0xff, not UTF-8
    ], ids=["markup", "control-character", "not-utf8"])
    def test_any_csv_name_gives_well_formed_svg(self, config_file, tmp_path,
                                                stem, legend):
        csv_path, svg_path = tmp_path / f"{stem}.csv", tmp_path / "p.svg"
        main(["run", "--config", str(config_file), "--out", str(csv_path)])
        assert main(["plot", str(csv_path), "--out", str(svg_path)]) == 0
        texts = ET.parse(svg_path).getroot().iter("{http://www.w3.org/2000/svg}text")
        assert [t.text for t in texts][-1] == legend

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

    @pytest.mark.parametrize("row, reason", [
        ("1,1,10,10,1,0.5,inf", "non-finite"),
        ("1,1e308,10,10,1,0.5,0.5", "axis span overflows"),
    ], ids=["non-finite", "span-overflows"])
    def test_unplottable_values_exit_2(self, tmp_path, capsys, row, reason):
        path, svg = tmp_path / "m.csv", tmp_path / "p.svg"
        path.write_text(f"{CSV_HEADER}\n{row}\n")
        assert main(["plot", str(path), "--out", str(svg)]) == 2
        err = capsys.readouterr().err
        assert reason in err
        assert "Traceback" not in err
        assert not svg.exists()

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


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    """Each dpga command of the README quick start but `check` (which
    TestCheckCommand runs) exits 0 and writes the file it names."""
    block = (README.read_text().split("## Quick start", 1)[1]
             .split("```sh\n", 1)[1].split("```", 1)[0])
    commands = [shlex.split(line) for line in
                block.replace("\\\n", " ").splitlines() if line.startswith("dpga ")]
    assert [argv[1] for argv in commands] == ["run", "sweep", "plot", "check"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DPGA_SEED", raising=False)
    for argv in commands[:-1]:
        argv = [found for arg in argv[1:]
                for found in (sorted(glob.glob(arg)) if "*" in arg else [arg])]
        assert main(argv) == 0
        out = Path(argv[argv.index("--out") + 1])
        assert (out / "summary.csv" if argv[0] == "sweep" else out).is_file()
