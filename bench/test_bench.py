"""Self-tests of the benchmark: run with `python3 -m pytest bench`."""

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from dpga import cli, engine, models  # noqa: E402

import harness  # noqa: E402
import outputs  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_gives_identical_configs(workload):
    assert workloads.configs(workload, 5) == workloads.configs(workload, 5)
    other = workloads.configs(workload, 6)
    assert [replace(c, seed=5) for c in other] == workloads.configs(workload, 5)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_config_load_reproduces_generated_config(workload):
    for cfg in workloads.configs(workload, 3):
        sets, rest = workloads.as_overrides(cfg, cli.SCHEMA)
        assert replace(cli.load_config(None, sets, cfg.seed), **rest) == cfg


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_and_untraced_runs_write_identical_csvs(workload, tmp_path):
    # Shortened runs: tracing wraps the same calls whatever the length.
    cfgs = [replace(c, rounds=12, eval_every=min(c.eval_every, 5))
            for c in workloads.configs(workload, 5)]
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = harness.run_pass(workload, cfgs, tmp_path / "plain")
    tracer = Tracer()
    with tracer.installed():
        traced = harness.run_pass(workload, cfgs, tmp_path / "traced", tracer)
    for a, b in zip(plain, traced):
        assert a.csv_sha256 and a.csv_sha256 == b.csv_sha256
        name = workloads.csv_name(a.config)
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    assert tracer.per_name()["engine.Simulation.run"]["calls"] == len(cfgs)
    assert not tracer.missing


def _tamper_bytes(text: str, row: int, value=None) -> str:
    lines = text.splitlines(keepends=True)
    fields = lines[row].split(",")
    fields[2] = str(int(fields[2]) + 1 if value is None else value)  # up_bytes
    lines[row] = ",".join(fields)
    return "".join(lines)


def test_reference_csvs_pass_their_own_checks():
    for workload in workloads.WORKLOADS:
        for cfg in workloads.configs(workload, workloads.DEFAULT_SEED):
            text = outputs.reference_path(workload, workloads.csv_name(cfg)).read_text()
            assert outputs.check_structure(text, cfg.rounds, cfg.eval_every,
                                           workloads.ACC_FLOOR[workload]) == []
            assert outputs.compare_reference(text, text) == []


def test_tampered_byte_count_counts_as_failed(tmp_path):
    cfg = workloads.configs("comparative", workloads.DEFAULT_SEED)[0]
    reference = outputs.reference_path("comparative", workloads.csv_name(cfg)).read_text()
    tampered = _tamper_bytes(reference, 150)
    assert outputs.compare_reference(tampered, reference)
    # At other seeds there is no reference; a counter that goes down fails.
    assert outputs.check_structure(_tamper_bytes(reference, 150, 0), cfg.rounds,
                                   cfg.eval_every, 0.0)

    # End to end: a CSV writer that corrupts one byte count fails the pass.
    def bad_writer(records, path):
        original(records, path)
        path.write_text(_tamper_bytes(path.read_text(), 150))

    original = cli.write_metrics_csv
    cli.write_metrics_csv = bad_writer
    try:
        res = harness.run_sim("comparative", cfg, tmp_path)
    finally:
        cli.write_metrics_csv = original
    assert not res.ok and "up_bytes" in res.problems[0]


def test_loss_and_accuracy_tolerances():
    cfg = workloads.configs("minibatch", workloads.DEFAULT_SEED)[0]
    reference = outputs.reference_path("minibatch", workloads.csv_name(cfg)).read_text()
    lines = reference.splitlines(keepends=True)
    fields = lines[-1].rstrip("\n").split(",")
    fields[5] = repr(float(fields[5]) * (1 + 4e-16))
    lines[-1] = ",".join(fields) + "\n"
    assert outputs.compare_reference("".join(lines), reference) == []
    fields[6] = repr(float(fields[6]) - 0.01)
    lines[-1] = ",".join(fields) + "\n"
    assert outputs.compare_reference("".join(lines), reference)


def test_missing_wrap_target_is_listed_with_zero_calls():
    targets = {"models.evaluate": None, "models.no_such_function": None,
               "no_such_module.run": None}
    original = engine.evaluate
    tracer = Tracer()
    with tracer.installed(targets):
        assert engine.evaluate is not original
        sim = engine.Simulation(engine.SimConfig(rounds=2))
        sim.run()
    assert engine.evaluate is original and models.evaluate is original
    assert tracer.missing == ["models.no_such_function", "no_such_module.run"]
    stats = tracer.per_name()
    assert stats["models.evaluate"]["calls"] > 0
    assert stats["models.no_such_function"] == {"calls": 0, "self_s": 0.0, "total_s": 0.0}


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.installed({"protocol.local_round": None, "models.loss_and_gradient": None}):
        engine.Simulation(engine.SimConfig(rounds=3)).run()
    stats = tracer.per_name()
    outer, inner = stats["protocol.local_round"], stats["models.loss_and_gradient"]
    assert outer["calls"] == 3 * 8 and inner["calls"] == 3 * 8 * 2
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"], abs=1e-6)


def test_fails_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "minibatch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
