"""Simulation engine: clock model, byte accounting, algorithm scheduling."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpga.engine import (ALGORITHMS, SCHEMES, MetricsRecord, SimConfig,
                         Simulation, comm_time, objective,
                         resolve_delay, run_experiment, validate_config)
from dpga.errors import ConfigurationError
from dpga.masking import ENTRY_BYTES, HEADER_BYTES
from dpga.models import evaluate
from dpga.protocol import pairwise_mean
from dpga.ratewalk import MAX_STEPS

# Small logistic problem reused across tests: d = 4 * 3 + 3 = 15.
BASE = dict(n_clients=4, rounds=6, local_epochs=2, eta=0.1,
            num_classes=3, dim=4, per_class=12, test_per_class=6,
            spread=1.0, alpha=1.0, rho=1.0, seed=7)

D_MODEL = 4 * 3 + 3
DENSE = HEADER_BYTES + 8 * D_MODEL     # value-only payload
SPARSE_FULL = HEADER_BYTES + ENTRY_BYTES * D_MODEL


def _cfg(**kw):
    merged = dict(BASE)
    merged.update(kw)
    return SimConfig(**merged)


class TestCommTime:
    def test_zero_bytes_is_latency(self):
        assert comm_time(0, 100.0, 5.0) == 5.0

    def test_example(self):
        assert comm_time(1000, 100.0, 5.0) == 15.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            comm_time(10, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            comm_time(10, 1.0, -1.0)
        with pytest.raises(ConfigurationError):
            comm_time(-1, 1.0, 0.0)


class TestDeriveDelay:
    def test_explicit_delay_wins(self):
        assert resolve_delay(_cfg(algorithm="dga", delay=4)) == 4

    def test_derived_from_roundtrip(self):
        # dga roundtrip = 2 * DENSE bytes; latency 1 and bandwidth 2 * DENSE
        # give comm_time 1.5 of t_compute 1.0, so D = ceil(1.5) = 2.
        cfg = _cfg(algorithm="dga", delay=None, latency=1.0,
                   bandwidth=float(2 * DENSE), t_compute=1.0)
        assert resolve_delay(cfg) == 2

    def test_degenerate_zero_time(self):
        # A free link takes no time, so no round of compute has to hide it.
        cfg = _cfg(algorithm="dga", delay=None, bandwidth=math.inf, latency=0.0)
        assert resolve_delay(cfg) == 0

    def test_synchronous_algorithms_force_zero(self):
        assert resolve_delay(_cfg(algorithm="fedavg")) == 0
        assert resolve_delay(_cfg(algorithm="static-partial")) == 0
        with pytest.raises(ConfigurationError):
            resolve_delay(_cfg(algorithm="fedavg", delay=3))


class TestResolveTiming:
    """Delay 0 blocks on every exchange; a delay D > 0 hides the exchange
    behind D rounds of compute, so D must cover the worst round trip."""

    def test_parallel_needs_delay_covering_roundtrip(self):
        # Round trip takes 3 time units but delay 1 hides only 1.
        cfg = _cfg(algorithm="dga", delay=1, latency=3.0, bandwidth=1e9,
                   t_compute=1.0)
        with pytest.raises(ConfigurationError):
            resolve_delay(cfg)
        assert resolve_delay(_cfg(algorithm="dga", delay=0, latency=3.0,
                                  bandwidth=1e9, t_compute=1.0)) == 0

    # Each network value mixes a range where round trips span a few compute
    # rounds with the whole range of floats the config accepts or rejects.
    @settings(max_examples=300, deadline=None)
    @given(algorithm=st.sampled_from(ALGORITHMS),
           bandwidth=(st.floats(100.0, 1e5)
                      | st.floats(min_value=0.0, allow_nan=False)),
           latency=(st.floats(0.0, 10.0)
                    | st.floats(min_value=-1.0, allow_nan=False)),
           t_compute=(st.floats(0.1, 5.0)
                      | st.floats(min_value=0.0, exclude_min=True,
                                  allow_nan=False, allow_infinity=False)),
           delay=st.none() | st.integers(0, 20))
    def test_resolved_delay_is_zero_or_covers_roundtrip(
            self, algorithm, bandwidth, latency, t_compute, delay):
        cfg = _cfg(algorithm=algorithm, bandwidth=bandwidth, latency=latency,
                   t_compute=t_compute, delay=delay)
        payload = DENSE if SCHEMES[algorithm].upload == "dense" else SPARSE_FULL
        try:
            rt = comm_time(2 * payload, bandwidth, latency)
        except ConfigurationError:
            rt = math.nan  # a link the config rejects
        try:
            got = resolve_delay(cfg)
        except ConfigurationError:
            # A derived delay exists whenever the round trip spans a
            # countable number of compute rounds.
            assert not (delay is None and math.isfinite(rt / t_compute))
            return
        if SCHEMES[algorithm].synchronous:
            assert got == 0
        elif delay is not None:
            assert got == delay
        if got > 0:
            assert rt <= got * t_compute

    # A round trip one float step above n rounds of compute: the quotient
    # often rounds back to n, whose rounds then end just short of it.
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 100), t_compute=st.floats(0.01, 50.0))
    @example(n=13, t_compute=9.313504089930952)  # latency 121.07555316910238
    def test_derived_delay_covers_roundtrip_at_rounding_edge(self, n, t_compute):
        latency = math.nextafter(n * t_compute, math.inf)
        cfg = _cfg(algorithm="dga", bandwidth=math.inf, latency=latency,
                   t_compute=t_compute)
        got = resolve_delay(cfg)
        assert latency <= got * t_compute
        assert (got - 1) * t_compute < latency


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(algorithm="gossip"),
        dict(n_clients=0),
        dict(rounds=0),
        dict(local_epochs=0),
        dict(eta=0.0),
        dict(batch_size=0),
        dict(delay=-1),
        dict(t_compute=0.0),
        dict(eval_every=0),
        dict(walk_m=-1),
        dict(walk_p0=0.55),
        dict(aggregation="median"),
        dict(correction_scope="everything"),
        dict(static_fraction=0.0),
        dict(algorithm="fedavg", aggregation="divide-by-n"),
        dict(latency=math.nan),
        dict(latency=math.inf),
        dict(t_compute=math.inf),
        dict(eta=math.inf),
        dict(spread=math.nan),
        dict(alpha=math.inf),
        dict(rho=math.nan),
        dict(walk_p0=math.nan),
        dict(static_fraction=math.nan),
        dict(bandwidth=math.nan),
        dict(bandwidth=-math.inf),
        dict(seed=-1),
        dict(algorithm="fedavg", latency=1e308, rounds=3),  # clock overflows
        dict(rounds=10 ** 400),                            # so does the count
        dict(algorithm="dga", delay=10 ** 400),            # delay * t_compute
        dict(walk_m=MAX_STEPS + 1),
        dict(algorithm="fedavg", walk_m=10 ** 12),         # even when unused
        dict(dim=10 ** 20),                                # past the u32 index
        dict(num_classes=10 ** 20),
    ])
    def test_rejected_configs(self, kw):
        with pytest.raises(ConfigurationError):
            Simulation(_cfg(**{"bandwidth": 1e9, **kw}))

    def test_model_size_stops_at_the_wire_format(self):
        # Logistic regression has (dim + 1) * classes parameters;
        # 2**32 - 1 = 3 * 1431655765. Validation allocates nothing.
        validate_config(_cfg(dim=1431655764, num_classes=3))
        with pytest.raises(ConfigurationError, match="DPG1"):
            validate_config(_cfg(dim=2 ** 31 - 1, num_classes=2))

    def test_walk_steps_bound_is_inclusive(self):
        assert validate_config(_cfg(algorithm="dpga", walk_m=MAX_STEPS,
                                    delay=1, bandwidth=1e9)) == 1


class TestClockModel:
    def test_sequential_time_is_sum_of_rounds(self):
        """fedavg: every round pays compute plus the full exchange."""
        cfg = _cfg(algorithm="fedavg", latency=0.5, bandwidth=1024.0,
                   t_compute=1.0)
        records = run_experiment(cfg)
        per_round = 1.0 + (0.5 + 2 * DENSE / 1024.0)
        for r in records:
            assert r.sim_time == r.round * per_round

    def test_parallel_time_hides_communication(self):
        """dga: rounds cost compute only; one exchange drains at the end."""
        cfg = _cfg(algorithm="dga", delay=1, latency=0.5, bandwidth=1024.0,
                   t_compute=1.0)
        records = run_experiment(cfg)
        for r in records[:-1]:
            assert r.sim_time == float(r.round)
        assert records[-1].sim_time == cfg.rounds * 1.0 + (0.5 + 2 * DENSE / 1024.0)

    def test_parallel_beats_sequential(self):
        seq = run_experiment(_cfg(algorithm="fedavg", latency=0.5,
                                  bandwidth=1024.0))
        par = run_experiment(_cfg(algorithm="dga", delay=1, latency=0.5,
                                  bandwidth=1024.0))
        assert par[-1].sim_time < seq[-1].sim_time

    def test_monotone_time_and_bytes(self):
        records = run_experiment(_cfg(algorithm="dpga", delay=1,
                                      bandwidth=1e6, walk_m=2, walk_p0=0.5))
        for a, b in zip(records, records[1:]):
            assert b.sim_time > a.sim_time
            assert b.up_bytes >= a.up_bytes
            assert b.down_bytes >= a.down_bytes


class TestByteAccounting:
    def test_dense_uplink_per_round(self):
        cfg = _cfg(algorithm="fedavg", bandwidth=1e6)
        records = run_experiment(cfg)
        for r in records:
            assert r.up_bytes == r.round * cfg.n_clients * DENSE
            assert r.down_bytes == r.round * cfg.n_clients * DENSE

    def test_full_rate_partial_pays_index_overhead(self):
        """dpga at p=1 moves the same values as dga plus 4 bytes per
        coordinate for the indices; trajectories stay identical."""
        dga = Simulation(_cfg(algorithm="dga", delay=1, bandwidth=1e6))
        dpga = Simulation(_cfg(algorithm="dpga", delay=1, bandwidth=1e6,
                               walk_m=0, walk_p0=1.0))
        rec_a, rec_b = dga.run(), dpga.run()
        for a, b in zip(rec_a, rec_b):
            assert b.up_bytes - a.up_bytes == a.round * 4 * D_MODEL * 4
            assert a.train_loss == b.train_loss
            assert a.eval_acc == b.eval_acc
            assert a.p == b.p == 1.0
        for ca, cb in zip(dga.clients, dpga.clients):
            np.testing.assert_array_equal(ca.weights, cb.weights)

    def test_partial_rate_shrinks_uplink(self):
        full = run_experiment(_cfg(algorithm="dpga", delay=1, bandwidth=1e6,
                                   walk_m=0, walk_p0=1.0))
        low = run_experiment(_cfg(algorithm="dpga", delay=1, bandwidth=1e6,
                                  walk_m=0, walk_p0=0.2))
        assert low[-1].up_bytes < full[-1].up_bytes

    def test_static_mask_size_fixed(self):
        cfg = _cfg(algorithm="static-partial", static_fraction=0.4,
                   bandwidth=1e6)
        records = run_experiment(cfg)
        k = math.ceil(0.4 * D_MODEL)
        payload = HEADER_BYTES + ENTRY_BYTES * k
        for r in records:
            assert r.up_bytes == r.round * cfg.n_clients * payload
            assert r.p == 0.4

    def test_full_support_downlink_at_least_own_shared(self):
        own = run_experiment(_cfg(algorithm="dpga", delay=1, bandwidth=1e6,
                                  walk_m=2, walk_p0=0.3,
                                  correction_scope="own-shared"))
        full = run_experiment(_cfg(algorithm="dpga", delay=1, bandwidth=1e6,
                                   walk_m=2, walk_p0=0.3,
                                   correction_scope="full-support"))
        assert full[-1].down_bytes >= own[-1].down_bytes
        assert full[-1].up_bytes == own[-1].up_bytes


class TestScheduling:
    def test_one_record_per_round(self):
        records = run_experiment(_cfg(algorithm="dpga", delay=2, bandwidth=1e6))
        assert [r.round for r in records] == list(range(1, 7))

    def test_first_round_runs_at_p0(self):
        records = run_experiment(_cfg(algorithm="dpga", delay=1, bandwidth=1e6,
                                      walk_m=2, walk_p0=0.3))
        assert records[0].p == 0.3

    def test_every_aggregate_is_delivered(self):
        sim = Simulation(_cfg(algorithm="dpga", delay=3, bandwidth=1e6))
        sim.run()
        assert len(sim.correction_log) == sim.cfg.rounds
        assert [r for r, _ in sim.correction_log] == list(range(1, 7))
        assert all(not c.pending for c in sim.clients)

    def test_delay_zero_applies_same_round(self):
        sim = Simulation(_cfg(algorithm="dpga", delay=0, walk_m=0,
                              walk_p0=1.0, bandwidth=1e9))
        records = sim.run()
        assert len(sim.correction_log) == len(records)

    def test_eval_cadence(self):
        records = run_experiment(_cfg(algorithm="fedavg", bandwidth=1e6,
                                      rounds=7, eval_every=3))
        evaluated = [r.round for r in records if r.eval_acc == r.eval_acc]
        assert evaluated == [3, 6, 7]  # cadence plus the final round

    def test_per_client_walk_reports_mean_rate(self):
        records = run_experiment(_cfg(algorithm="dpga", delay=1, bandwidth=1e6,
                                      per_client_walk=True, walk_m=2,
                                      walk_p0=0.5))
        for r in records:
            assert 0.1 <= r.p <= 1.0
        assert records[0].p == 0.5


class TestAggregationMode:
    def test_divide_by_n_equals_per_component_only_at_full_support(self):
        # dga shares every coordinate from every client, so each count is n
        # and the two modes divide by the same number.
        dense = dict(algorithm="dga", delay=1, bandwidth=1e6)
        assert (run_experiment(_cfg(**dense, aggregation="divide-by-n"))
                == run_experiment(_cfg(**dense, aggregation="per-component")))
        # Below full rate a coordinate few clients shared is pulled to zero.
        partial = dict(algorithm="dpga", delay=1, bandwidth=1e6, walk_p0=0.3)
        assert (run_experiment(_cfg(**partial, aggregation="divide-by-n"))
                != run_experiment(_cfg(**partial, aggregation="per-component")))


class TestDeterminism:
    def test_same_config_same_records(self):
        cfg = _cfg(algorithm="dpga", delay=2, bandwidth=1e6, batch_size=4)
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_seed_changes_output(self):
        a = run_experiment(_cfg(algorithm="dpga", delay=1, bandwidth=1e6))
        b = run_experiment(_cfg(algorithm="dpga", delay=1, bandwidth=1e6,
                                seed=8))
        assert a != b


class TestObjective:
    def test_matches_manual_weighted_mean(self):
        sim = Simulation(_cfg(algorithm="fedavg", bandwidth=1e6))
        wbar = pairwise_mean(np.stack([c.weights for c in sim.clients]))
        total = sum(c.n_i for c in sim.clients)
        want = sum((c.n_i / total) * evaluate(wbar, c.shard, sim.spec)[0]
                   for c in sim.clients)
        got = objective(wbar, sim.train, sim.spec)
        assert got == pytest.approx(want, rel=1e-15)

    def test_matches_concatenated_dataset(self):
        """The size-weighted mean of shard losses equals one flat pass over
        the union of the shards."""
        sim = Simulation(_cfg(algorithm="fedavg", bandwidth=1e6))
        wbar = pairwise_mean(np.stack([c.weights for c in sim.clients]))
        feats = np.vstack([c.shard.features for c in sim.clients])
        labels = np.concatenate([c.shard.labels for c in sim.clients])
        from dpga.models import Batch
        flat_loss, _ = evaluate(wbar, Batch(feats, labels), sim.spec)
        got = objective(wbar, sim.train, sim.spec)
        assert got == pytest.approx(flat_loss, rel=1e-12)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_train_loss_is_one_pass_over_train(self, algorithm):
        sim = Simulation(_cfg(algorithm=algorithm, bandwidth=1e6))
        last = sim.run()[-1]
        wbar = pairwise_mean(np.stack([c.weights for c in sim.clients]))
        loss, _ = evaluate(wbar, sim.train, sim.spec)
        assert last.train_loss == loss
