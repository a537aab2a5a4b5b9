"""End-to-end acceptance gate.

Every test here prints exactly one `criterion N: PASS/FAIL - detail` line
(visible under `pytest -v -s`) and fails if the property does not hold:

    1  delayed partial averaging with identical shards collapses to
       standalone local SGD, bitwise, with every correction exactly zero
    2  full rate and zero delay collapse to synchronized gradient
       averaging, bitwise
    3  m-step walk distributions match brute-force path enumeration
    4  analytic gradients match central finite differences
    5  mask-size/complementarity/dominance properties and codec roundtrips
    6  the clock model follows its closed-form arithmetic at delay 0
       (blocking) and at delay D > 0 (hidden exchange)
    7  the comparative experiment reproduces the expected byte/time
       orderings against a golden baseline accuracy
    8  the comparative run is byte-reproducible across reruns
    9  the partitioner's cover/coverage/skew contracts hold at fixed seeds

Criteria 1-4 and the codec half of 5 call the oracles in dpga.checks, the
same ones `dpga check` runs, so each oracle is written once.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from dpga.checks import (check_codec, check_gradients, check_identical_shards,
                         check_synchronized, check_walk)
from dpga.cli import write_metrics_csv
from dpga.data import PartitionConfig, gen_synthetic, partition, partition_stats
from dpga.engine import SimConfig, comm_time, run_experiment
from dpga.masking import HEADER_BYTES, shared_count, topk_shared_indices
from dpga.ratewalk import GRID

GOLDEN_ACC = Path(__file__).parent / "golden" / "fedavg_final_acc.txt"

COMPARATIVE_ALGS = ("fedavg", "dga", "dpga", "static-partial")


def comparative_config(algorithm: str) -> SimConfig:
    """The pinned comparative experiment: 10 classes in 20 dimensions split
    over 20 clients, 300 rounds, delay 4 for the delayed algorithms."""
    return SimConfig(
        algorithm=algorithm,
        n_clients=20, rounds=300, local_epochs=1, eta=0.3, batch_size=None,
        delay=(4 if algorithm in ("dga", "dpga") else 0),
        bandwidth=5000.0, latency=3.0, t_compute=1.5,
        walk_p0=0.1, walk_m=1, static_fraction=0.25,
        eval_every=1, seed=11,
        num_classes=10, dim=20, per_class=200, test_per_class=50,
        spread=1.0, alpha=1.0, rho=1.0,
    )


def _first_reach(records, target):
    for r in records:
        if not math.isnan(r.eval_acc) and r.eval_acc >= target:
            return r
    return None


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _timed_verdict(num: int, check) -> None:
    t0 = time.perf_counter()
    res = check()
    elapsed = time.perf_counter() - t0
    _verdict(num, res.passed and elapsed < 5.0,
             f"{res.detail}, {elapsed:.2f}s (< 5s)")


def test_identical_shards_collapse_to_local_sgd():
    _timed_verdict(1, check_identical_shards)


def test_full_rate_zero_delay_matches_synchronized_averaging():
    _timed_verdict(2, check_synchronized)


def test_walk_transitions_match_path_enumeration():
    res = check_walk(max_steps=8, tol=1e-12)
    _verdict(3, res.passed, res.detail)


def test_gradients_match_finite_differences():
    res = check_gradients(cases=100)
    _verdict(4, res.passed, res.detail)


def test_mask_properties_and_codec_roundtrips():
    rng = np.random.default_rng(5150)
    mask_bad = 0
    for _ in range(10_000):
        d = int(rng.integers(1, 300))
        p = float(GRID[rng.integers(0, GRID.shape[0])])
        z = rng.standard_normal(d)
        s = topk_shared_indices(z, p)
        comp = np.setdiff1d(np.arange(d), s, assume_unique=True)
        want = math.ceil(Fraction(round(p * 10), 10) * d)
        ok = (s.shape[0] == shared_count(p, d) == want
              and bool(np.all(np.diff(s) > 0))
              and s.shape[0] + comp.shape[0] == d)
        if ok and s.size and comp.size:
            ok = float(np.min(np.abs(z[s]))) >= float(np.max(np.abs(z[comp])))
        mask_bad += not ok

    codec = check_codec()
    ok = mask_bad == 0 and codec.passed
    _verdict(5, ok,
             f"10000 mask cases: size == ceil(p*d), complement partitions, "
             f"kept magnitudes dominate ({mask_bad} bad); {codec.detail}")


def test_clock_model_arithmetic():
    d = 6 * 3 + 3
    dense = HEADER_BYTES + 8 * d
    # Dyadic network constants keep every clock sum exact in binary.
    net = dict(bandwidth=1024.0, latency=0.25, t_compute=1.0)
    small = dict(n_clients=4, local_epochs=1, eta=0.1, batch_size=None,
                 num_classes=3, dim=6, per_class=12, test_per_class=6,
                 spread=1.0, alpha=1.0, rho=1.0, seed=5, eval_every=100)
    rt = comm_time(2 * dense, net["bandwidth"], net["latency"])

    # Delay D > 0 with a constant exchange: pre-final rounds pay compute
    # only, the final round drains one exchange.
    T = 12
    par = run_experiment(SimConfig(algorithm="dga", rounds=T, delay=3,
                                   **net, **small))
    a_ok = (all(par[t - 1].sim_time == float(t) for t in range(1, T))
            and par[-1].sim_time == T * 1.0 + rt)

    # Delay 0 with the same exchange blocks every round.
    seq = run_experiment(SimConfig(algorithm="dga", rounds=T, delay=0,
                                   **net, **small))
    b_ok = all(seq[t - 1].sim_time == t * (1.0 + rt) for t in range(1, T + 1))

    gap_ok = (par[-1].sim_time < seq[-1].sim_time
              and seq[-1].sim_time - par[-1].sim_time == (T - 1) * rt)

    # Varying exchanges (the rate walk changes payload sizes round to
    # round): rebuild both closed forms from the recorded byte deltas.
    walk = dict(walk_p0=0.5, walk_m=2)
    recs = run_experiment(SimConfig(algorithm="dpga", rounds=10, delay=0,
                                    **walk, **net, **small))
    expected = 0.0
    prev_up = 0
    c_ok = True
    for r in recs:
        per_client = (r.up_bytes - prev_up) // small["n_clients"]
        prev_up = r.up_bytes
        expected += net["t_compute"]
        expected += comm_time(2 * per_client, net["bandwidth"], net["latency"])
        c_ok &= r.sim_time == expected

    recs = run_experiment(SimConfig(algorithm="dpga", rounds=10, delay=2,
                                    **walk, **net, **small))
    last = (recs[-1].up_bytes - recs[-2].up_bytes) // small["n_clients"]
    d_ok = (all(recs[t - 1].sim_time == float(t) for t in range(1, 10))
            and recs[-1].sim_time == 10 * 1.0 + comm_time(
                2 * last, net["bandwidth"], net["latency"]))

    # Zero communication cost is the only way delay 0 and delay D agree.
    zero = dict(bandwidth=math.inf, latency=0.0, t_compute=1.0)
    zp = run_experiment(SimConfig(algorithm="dga", rounds=8, delay=2,
                                  **zero, **small))
    zs = run_experiment(SimConfig(algorithm="dga", rounds=8, delay=0,
                                  **zero, **small))
    e_ok = zp[-1].sim_time == zs[-1].sim_time == 8.0

    ok = a_ok and b_ok and gap_ok and c_ok and d_ok and e_ok
    _verdict(6, ok,
             f"delay D = T*t_compute + last exchange (constant {a_ok}, "
             f"varying {d_ok}); delay 0 = sum of per-round costs "
             f"(constant {b_ok}, varying {c_ok}); delay D < delay 0 by "
             f"(T-1)*comm ({gap_ok}); equal iff comm = 0 ({e_ok}), all exact")


def test_comparative_experiment_orderings():
    t0 = time.perf_counter()
    runs = {alg: run_experiment(comparative_config(alg))
            for alg in COMPARATIVE_ALGS}
    elapsed = time.perf_counter() - t0

    golden = float(GOLDEN_ACC.read_text().strip())
    fed_final = runs["fedavg"][-1].eval_acc
    pinned = fed_final == golden
    target = 0.9 * golden

    reach = {alg: _first_reach(runs[alg], target) for alg in COMPARATIVE_ALGS}
    reached = all(r is not None for r in reach.values())
    if reached:
        fed = reach["fedavg"]
        dpga_bytes = reach["dpga"].up_bytes / fed.up_bytes
        dpga_time = reach["dpga"].sim_time / fed.sim_time
        dga_time = reach["dga"].sim_time / fed.sim_time
        dga_bytes = reach["dga"].up_bytes / fed.up_bytes
        stat_bytes = reach["static-partial"].up_bytes / fed.up_bytes
        stat_time = reach["static-partial"].sim_time / fed.sim_time
        orderings = (dpga_bytes <= 0.7 and dpga_time <= 0.6
                     and dga_time < 1.0 and dga_bytes >= 1.0
                     and stat_bytes < 1.0 and stat_time >= 1.0)
        ratios = (f"dpga bytes {dpga_bytes:.3f} (<= 0.7) time {dpga_time:.3f} "
                  f"(<= 0.6); dga time {dga_time:.3f} (< 1) bytes "
                  f"{dga_bytes:.3f} (>= 1); static bytes {stat_bytes:.3f} "
                  f"(< 1) time {stat_time:.3f} (>= 1)")
    else:
        orderings = False
        missing = [alg for alg, r in reach.items() if r is None]
        ratios = f"never reached target: {missing}"

    ok = pinned and orderings and elapsed < 120.0
    _verdict(7, ok,
             f"fedavg final {fed_final:.4f} == golden ({'yes' if pinned else 'no'}), "
             f"target {target:.4f}; {ratios}; {elapsed:.1f}s (< 120s)")


def test_comparative_run_reproducibility(tmp_path):
    cfg = comparative_config("dpga")
    files = {}
    for name in ("first", "second"):
        path = tmp_path / f"{name}.csv"
        write_metrics_csv(run_experiment(cfg), path)
        files[name] = path.read_bytes()
    ok = files["first"] == files["second"]
    _verdict(8, ok,
             f"rerun CSV byte-identical ({'yes' if ok else 'no'}), "
             f"{len(files['first'])} bytes each")


def test_partition_contracts():
    def covers(shards, n):
        joined = np.concatenate(shards)
        return joined.shape[0] == n and np.array_equal(np.sort(joined),
                                                       np.arange(n))

    labels = gen_synthetic(5, 4, 40, 1.0, seed=0).labels
    cover_ok = all(
        covers(partition(labels, 5, PartitionConfig(alpha=alpha, rho=1.0,
                                                    n_clients=7, seed=seed)), 200)
        for seed in range(5) for alpha in (0.1, 1.0, 100.0))
    labels = gen_synthetic(4, 4, 30, 1.0, seed=2).labels
    cover_ok &= covers(partition(labels, 4, PartitionConfig(
        alpha=1.0, rho=0.4, n_clients=6, seed=5)), 120)

    labels = gen_synthetic(6, 4, 25, 1.0, seed=1).labels
    hist, _ = partition_stats(
        partition(labels, 6, PartitionConfig(alpha=0.5, rho=0.3, n_clients=8,
                                             seed=3)), labels, 6)
    coverage_ok = (np.all(hist.sum(axis=0) == 25)
                   and np.all((hist > 0).any(axis=0)))

    labels = gen_synthetic(10, 4, 100, 1.0, seed=7).labels
    hist, _ = partition_stats(
        partition(labels, 10, PartitionConfig(alpha=1e6, rho=1.0, n_clients=10,
                                              seed=21)), labels, 10)
    share = hist / 100.0
    even_ok = bool(np.all(share >= 0.8 / 10) and np.all(share <= 1.2 / 10))

    hist, sizes = partition_stats(
        partition(labels, 10, PartitionConfig(alpha=0.1, rho=1.0, n_clients=10,
                                              seed=21)), labels, 10)
    top = hist.max(axis=1)[sizes > 0] / sizes[sizes > 0]
    skew_ok = float(top.max()) > 0.5

    ok = cover_ok and coverage_ok and even_ok and skew_ok
    _verdict(9, ok,
             f"disjoint cover over 16 configs ({'yes' if cover_ok else 'no'}), "
             f"class coverage at rho=0.3 ({'yes' if coverage_ok else 'no'}), "
             f"alpha=1e6 shares within 20% of even ({'yes' if even_ok else 'no'}), "
             f"alpha=0.1 majority-class skew ({'yes' if skew_ok else 'no'})")
