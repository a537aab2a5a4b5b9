"""Timed passes over a workload, driven through dpga's public API.

One pass runs every simulation of the workload once, one after another,
the way `dpga sweep` does: `cli.load_config` -> `engine.Simulation(cfg)`
-> `.run()` -> `cli.write_metrics_csv`, with workers=1. Each CSV is then
checked (see outputs.py). Config load and construction are repeated
SETUP_REPEATS times per simulation and their median is the setup time;
the last simulation built is the one that runs.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from dpga import cli, engine

import outputs
import workloads
from tracing import Tracer

SETUP_REPEATS = 5


@dataclass
class SimResult:
    """One simulation of a pass: its timings, its CSV and what was wrong."""

    config: engine.SimConfig
    problems: list[str] = field(default_factory=list)
    setup_s: float = 0.0
    run_s: float = 0.0
    wall_s: float = 0.0
    csv_sha256: str = ""
    csv_identical: bool = False
    eval_rows: int = 0
    final: dict = field(default_factory=dict)  # eval_acc, sim_time, up_bytes

    @property
    def ok(self) -> bool:
        return not self.problems


def _check(workload: str, cfg, text: str) -> tuple[list[str], bool]:
    problems = outputs.check_structure(text, cfg.rounds, cfg.eval_every,
                                       workloads.ACC_FLOOR[workload])
    if cfg.seed != workloads.DEFAULT_SEED:
        return problems, False
    ref = outputs.reference_path(workload, workloads.csv_name(cfg))
    if not ref.is_file():
        return problems + [f"no reference CSV {ref.name}"], False
    ref_text = ref.read_text()
    return problems or outputs.compare_reference(text, ref_text), text == ref_text


def run_sim(workload: str, cfg, out_dir: Path, tracer: Tracer | None = None) -> SimResult:
    res = SimResult(config=cfg)
    try:
        sets, rest = workloads.as_overrides(cfg, getattr(cli, "SCHEMA", {}))
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            loaded = replace(cli.load_config(None, sets, cfg.seed), **rest)
            sim = engine.Simulation(loaded)
            setups.append(time.perf_counter() - t0)
        if loaded != cfg:
            raise RuntimeError("cli.load_config did not reproduce the generated config")
        if tracer is not None:
            tracer.test_features = getattr(getattr(sim, "test", None), "features", None)
        t0 = time.perf_counter()
        records = sim.run()
        t1 = time.perf_counter()
        path = out_dir / workloads.csv_name(cfg)
        cli.write_metrics_csv(records, path)
        t2 = time.perf_counter()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        res.problems.append(f"{cfg.algorithm}: raised {sys.exc_info()[1]!r}")
        return res
    res.setup_s = statistics.median(setups)
    res.run_s = t1 - t0
    res.wall_s = res.setup_s + (t2 - t0)
    data = path.read_bytes()
    res.csv_sha256 = hashlib.sha256(data).hexdigest()
    text = data.decode()
    problems, res.csv_identical = _check(workload, cfg, text)
    res.problems += [f"{cfg.algorithm}: {p}" for p in problems]
    if not problems:
        last = text.splitlines()[-1].split(",")
        res.final = {"eval_acc": float(last[6]), "sim_time": float(last[1]),
                     "up_bytes": int(last[2])}
        res.eval_rows = sum(1 for line in text.splitlines()[1:]
                            if not math.isnan(float(line.split(",")[6])))
    return res


def run_pass(workload: str, cfgs, out_dir: Path, tracer: Tracer | None = None) -> list[SimResult]:
    return [run_sim(workload, cfg, out_dir, tracer) for cfg in cfgs]


def warm_up(cfgs) -> None:
    """Run each config for two rounds so first-call costs are not timed."""
    for cfg in cfgs:
        try:
            engine.Simulation(replace(cfg, rounds=2, eval_every=1)).run()
        except Exception:
            pass  # the timed run of this config reports the failure


def _mark_changed(passes: list[list[SimResult]], first: list[SimResult], why: str) -> None:
    for p in passes:
        for res, ref in zip(p, first):
            if res.ok and ref.ok and res.csv_sha256 != ref.csv_sha256:
                res.problems.append(f"{res.config.algorithm}: {why}")


def _median_ok(results, attr: str) -> float:
    values = [getattr(r, attr) for r in results if r.ok]
    return statistics.median(values) if values else 0.0


def _throughput(per_config) -> float:
    """Client-rounds per second of run() over the configs that ran clean."""
    ok = [rs for rs in per_config if any(r.ok for r in rs)]
    run_s = sum(_median_ok(rs, "run_s") for rs in ok)
    work = sum(rs[0].config.n_clients * rs[0].config.rounds for rs in ok)
    return work / run_s if run_s else 0.0


def _counts(passes) -> tuple[int, int]:
    sims = [r for p in passes for r in p]
    return len(sims), sum(not r.ok for r in sims)


def measure(workload: str, seed: int, seconds: float, out_dir: Path) -> dict:
    """Untraced passes until `seconds` have elapsed; end-to-end metrics."""
    cfgs = workloads.configs(workload, seed)
    warm_up(cfgs)
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start < seconds
                         and all(r.ok for r in passes[-1])):
        passes.append(run_pass(workload, cfgs, out_dir))
    _mark_changed(passes[1:], passes[0], "CSV differs from the first pass")
    attempted, failed = _counts(passes)
    first = [r for r in passes[0] if r.ok]
    per_config = list(zip(*passes))  # one tuple of SimResults per config
    metrics = {
        "client_rounds_per_s": (_throughput(per_config), "1/s"),
        "wall_s": (sum(_median_ok(rs, "wall_s") for rs in per_config), "s"),
        "setup_s": (sum(_median_ok(rs, "setup_s") for rs in per_config), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "final_eval_acc": (statistics.fmean(r.final["eval_acc"] for r in first)
                           if first else 0.0, "acc"),
        "sim_time": (math.fsum(r.final["sim_time"] for r in first), "sim_units"),
        "up_bytes": (sum(r.final["up_bytes"] for r in first), "B"),
        "passed_share": (1.0 - failed / attempted, "share"),
    }
    return {"passes": passes, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def measure_traced(workload: str, seed: int, seconds: float, out_dir: Path) -> dict:
    """Pairs of untraced and traced passes until `seconds` have elapsed;
    per-layer metrics from the traced ones. Traced CSVs must equal the
    untraced ones byte for byte."""
    cfgs = workloads.configs(workload, seed)
    warm_up(cfgs)
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start < seconds
                         and all(r.ok for r in plain[-1] + traced[-1])):
        plain.append(run_pass(workload, cfgs, out_dir))
        tracer = Tracer()
        with tracer.installed():
            traced.append(run_pass(workload, cfgs, out_dir, tracer))
        tracers.append(tracer)
    _mark_changed(plain[1:], plain[0], "CSV differs from the first pass")
    _mark_changed(traced, plain[0], "traced CSV differs from the untraced one")
    attempted, failed = _counts(plain + traced)

    stats = [t.per_name() for t in tracers]
    last, counts = stats[-1], tracers[-1].counts
    metrics = {}
    for name in last:
        metrics[f"{name}.calls"] = (last[name]["calls"], "count")
        for key in ("self_s", "total_s"):
            metrics[f"{name}.{key}"] = (statistics.median(s[name][key] for s in stats), "s")
    ok = [r for r in traced[-1] if r.ok]
    evals = last["models.evaluate"]["calls"]
    unused = max(0, counts["models.evaluate.test_calls"] - sum(r.eval_rows for r in ok))
    uploaded = counts["masking.uploaded_entries"]
    metrics.update({
        "models.loss_and_gradient.examples": (counts["models.loss_and_gradient.examples"], "count"),
        "models.evaluate.unused_calls": (unused, "count"),
        "engine.eval_useful_ratio": ((evals - unused) / evals if evals else 1.0, "ratio"),
        "masking.shared_ratio": (counts["masking.shared_entries"] / uploaded if uploaded else 0.0,
                                 "ratio"),
        "protocol.server_aggregate.union_entries": (
            counts["protocol.server_aggregate.union_entries"], "count"),
        "protocol.apply_correction.replayed_rounds": (
            counts["protocol.apply_correction.replayed_rounds"], "count"),
        "trace_overhead": (statistics.median(sum(r.wall_s for r in p) for p in traced)
                           - statistics.median(sum(r.wall_s for r in p) for p in plain), "s"),
    })
    tracers[-1].write_spans(out_dir / "spans.csv")
    return {"passes": plain + traced, "attempted": attempted, "failed": failed,
            "metrics": metrics, "missing": tracers[-1].missing, "layers": last}


def layer_shares(layers: dict) -> list[tuple[str, float, float]]:
    """(name, self_s, share of all traced self time), largest first."""
    total = sum(v["self_s"] for v in layers.values()) or 1.0
    rows = [(name, v["self_s"], v["self_s"] / total) for name, v in layers.items()]
    return sorted(rows, key=lambda r: -r[1])
