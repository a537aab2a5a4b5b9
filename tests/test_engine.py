"""Simulation engine: clock model, byte accounting, algorithm scheduling."""

import gc
import math
import tracemalloc
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpga import engine, protocol
from dpga.cli import main
from dpga.engine import (ALGORITHMS, SCHEMES, MetricsRecord, SimConfig,
                         Simulation, account, comm_time, landing_rounds,
                         objective, resolve_delay, seed_words, validate_config)
from dpga.errors import ConfigurationError, ContractViolationError
from dpga.masking import ENTRY_BYTES, HEADER_BYTES, shared_count
from dpga.models import Batch, mean_loss
from dpga.protocol import CORRECTION_SCOPES, pairwise_mean
from dpga.ratewalk import MAX_STEPS
from test_csv_bytes import comparative, minibatch

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


class TestSeedWords:
    """Generators built from precomputed seed words draw what the seed
    list draws."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 80), t=st.integers(1, 2 ** 32),
           cid=st.integers(0, 2 ** 33))
    @example(seed=0, t=1, cid=0)
    @example(seed=2 ** 32 - 1, t=2 ** 32 - 1, cid=9)
    @example(seed=2 ** 32, t=2 ** 32, cid=2 ** 32)
    def test_equals_seed_list(self, seed, t, cid):
        words = np.concatenate((seed_words(seed, 5), seed_words(t), seed_words(cid)))
        assert words.dtype == np.uint32
        got = np.random.default_rng(words)
        want = np.random.default_rng([seed, 5, t, cid])
        assert got.bit_generator.state == want.bit_generator.state
        for n in (40, 400):
            np.testing.assert_array_equal(got.choice(n, size=32, replace=False),
                                          want.choice(n, size=32, replace=False))

    def test_words(self):
        np.testing.assert_array_equal(seed_words(0, 5, 2 ** 32 + 3, 2 ** 64),
                                      [0, 5, 3, 1, 0, 0, 1])
        with pytest.raises(ContractViolationError):
            seed_words(-1)


class TestCommTime:
    def test_zero_bytes_is_latency(self):
        assert comm_time(0, 100.0, 5.0) == 5.0

    def test_example(self):
        assert comm_time(1000, 100.0, 5.0) == 15.0


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
        link_ok = bandwidth > 0.0 and latency >= 0.0
        rt = comm_time(2 * payload, bandwidth, latency) if link_ok else math.nan
        try:
            got = validate_config(cfg)
        except ConfigurationError:
            # A derived delay exists whenever the link is valid, the round
            # trip spans a countable number of compute rounds and the
            # clock stays finite in either closed form.
            clock_ok = (math.isfinite(cfg.rounds * (t_compute + rt))
                        and math.isfinite(cfg.rounds * t_compute + rt))
            assert not (delay is None and link_ok and clock_ok
                        and math.isfinite(rt / t_compute))
            return
        assert link_ok
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
        dict(alpha=0.0),
        dict(correction_scope="everything"),
        dict(static_fraction=0.0),
        dict(spread=-1.0),
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
        dict(per_class=0),
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

    @pytest.mark.parametrize("kw, reason", [
        (dict(n_clients=37), "more than the 36 training examples"),
        (dict(local_epochs=2 ** 63), "one round's local steps"),
        (dict(batch_size=1, local_epochs=2 ** 59), "one round's local steps"),
        (dict(per_class=2 ** 62), "the dataset's"),
        (dict(test_per_class=10 ** 20), "the dataset's"),
        (dict(model_kind="mlp", hidden_dims=(2 ** 30 - 1,), dim=1, num_classes=2,
              per_class=2 ** 30), "the dataset's"),
        (dict(n_clients=2 ** 29, num_classes=2, per_class=2 ** 28, model_kind="mlp",
              hidden_dims=(60000, 60000)), "stacked weights"),
    ], ids=["clients", "step-list", "draws", "features", "test-features",
            "activations", "weights"])
    def test_sizes_past_numpy_are_refused(self, kw, reason):
        """Every client needs an example, and no array a run sizes from the
        config may take more bytes than intp counts. Only validate_config
        runs, as a Simulation would allocate some of these sizes if the
        refusal broke."""
        with pytest.raises(ConfigurationError, match=reason):
            validate_config(_cfg(**kw))
        validate_config(_cfg(n_clients=36, batch_size=1))  # one example each is enough

    @pytest.mark.parametrize("link, reason", [
        (dict(bandwidth=0.0), "bandwidth must be positive"),
        (dict(bandwidth=-1.0), "bandwidth must be positive"),
        (dict(latency=-1.0), "latency must be >= 0"),
    ], ids=["zero-bandwidth", "negative-bandwidth", "negative-latency"])
    def test_link_is_refused_for_every_scheme(self, link, reason):
        for algorithm in ALGORITHMS:
            with pytest.raises(ConfigurationError, match=reason):
                validate_config(_cfg(algorithm=algorithm, delay=0, **link))

    def test_walk_steps_bound_is_inclusive(self):
        assert validate_config(_cfg(algorithm="dpga", walk_m=MAX_STEPS,
                                    delay=1, bandwidth=1e9)) == 1


class TestClockModel:
    def test_sequential_time_is_sum_of_rounds(self):
        """fedavg: every round pays compute plus the full exchange."""
        cfg = _cfg(algorithm="fedavg", latency=0.5, bandwidth=1024.0,
                   t_compute=1.0)
        records = Simulation(cfg).run()
        per_round = 1.0 + (0.5 + 2 * DENSE / 1024.0)
        for r in records:
            assert r.sim_time == r.round * per_round

    def test_parallel_time_hides_communication(self):
        """dga: rounds cost compute only; one exchange drains at the end."""
        cfg = _cfg(algorithm="dga", delay=1, latency=0.5, bandwidth=1024.0,
                   t_compute=1.0)
        records = Simulation(cfg).run()
        for r in records[:-1]:
            assert r.sim_time == float(r.round)
        assert records[-1].sim_time == cfg.rounds * 1.0 + (0.5 + 2 * DENSE / 1024.0)

    def test_parallel_beats_sequential(self):
        seq = Simulation(_cfg(algorithm="fedavg", latency=0.5,
                              bandwidth=1024.0)).run()
        par = Simulation(_cfg(algorithm="dga", delay=1, latency=0.5,
                              bandwidth=1024.0)).run()
        assert par[-1].sim_time < seq[-1].sim_time

    def test_monotone_time_and_bytes(self):
        records = Simulation(_cfg(algorithm="dpga", delay=1,
                                  bandwidth=1e6, walk_m=2, walk_p0=0.5)).run()
        for a, b in zip(records, records[1:]):
            assert b.sim_time > a.sim_time
            assert b.up_bytes >= a.up_bytes
            assert b.down_bytes >= a.down_bytes


class TestAccount:
    """account on hand-built entries logs: 2 clients, on a link of latency
    0.5 and bandwidth 4 with t_compute 1, so every column is exact. A log
    round is (each client's shared entry count, the aggregate's support
    size); account prices a message at 17 bytes plus 12 per indexed entry
    or 8 per dense value. In the Top-K log each round's downlink total
    differs, so the down_bytes column names the round each one landed in."""

    # Top-K (dpga), priced 17 + 12k; own-shared sends each count back.
    LOG = [([1, 0], 1),     # up 29 + 17 = 46, worst exchange 2 * 29 = 58
           ([2, 3], 4),     # up 41 + 53 = 94, worst 2 * 53 = 106
           ([4, 4], 6),     # up 65 + 65 = 130, worst 2 * 65 = 130
           ([0, 5], 5)]     # up 17 + 77 = 94, worst 2 * 77 = 154
    UP = [46, 140, 270, 364]

    def _columns(self, delay, log=LOG, **kw):
        cfg = _cfg(**{"algorithm": "dpga", "rounds": len(log), "t_compute": 1.0,
                      "latency": 0.5, "bandwidth": 4.0, **kw})
        return account(log, cfg, delay)

    def test_delay_0_pays_every_exchange_as_it_lands(self):
        # Round r takes 1 + 0.5 + worst / 4: 16, 28, 34 and 40.
        assert self._columns(0) == list(zip([16.0, 44.0, 78.0, 118.0], self.UP,
                                            [46, 140, 270, 364]))

    def test_delay_2_lands_two_rounds_on_and_drains_at_the_end(self):
        # Round 1's 46 bytes land in round 3; rounds 2-4 (318 bytes) drain
        # in round 4, the only round that waits for an exchange: its own
        # 154, 0.5 + 154 / 4 time units.
        assert self._columns(2) == list(zip([1.0, 2.0, 3.0, 43.0], self.UP,
                                            [0, 0, 46, 364]))

    def test_delay_1_lands_one_round_on(self):
        assert self._columns(1) == list(zip([1.0, 2.0, 3.0, 43.0], self.UP,
                                            [0, 46, 140, 364]))

    def test_dense_values_carry_no_index(self):
        # fedavg sends all 15 values with no index: 17 + 8 * 15 = 137 bytes
        # each way, so a round takes 1 + 0.5 + 274 / 4 = 70.
        log = [([15, 15], 15)] * 3
        assert self._columns(0, log, algorithm="fedavg") == list(zip(
            [70.0, 140.0, 210.0], [274, 548, 822], [274, 548, 822]))

    def test_full_support_charges_every_client_the_support(self):
        # Each client downloads the support, 17 + 12 * (1, 4, 6, 5) = 29,
        # 65, 89 and 77 bytes, whatever it sent. The worst exchanges are
        # 29 + 29, 53 + 65, 65 + 89 and 77 + 77, so the rounds take 16, 31,
        # 40 and 40.
        assert self._columns(0, correction_scope="full-support") == list(zip(
            [16.0, 47.0, 87.0, 127.0], self.UP, [58, 188, 366, 520]))

    @pytest.mark.parametrize("delay, rounds, want", [
        (0, 3, [1, 2, 3]), (2, 5, [3, 4, 5, 5, 5]), (9, 3, [3, 3, 3])])
    def test_landing_rounds(self, delay, rounds, want):
        assert landing_rounds(delay, rounds) == want


class TestClockBound:
    """Validation refuses a run whose clock could leave the floats by
    engine._worst_clock, account's clock in closed form. On the worst-case
    log, where every client shares all d entries every round and the
    support is d, account's last sim_time must equal that bound within a
    relative 1e-12, and each byte column must be n * rounds * payload(d)."""

    @settings(max_examples=200, deadline=None)
    @given(algorithm=st.sampled_from(ALGORITHMS), data=st.data(),
           rounds=st.integers(1, 50), n_clients=st.integers(1, 4),
           dim=st.integers(1, 4), scope=st.sampled_from(CORRECTION_SCOPES),
           t_compute=st.floats(0.01, 100.0), latency=st.floats(0.0, 100.0),
           bandwidth=st.floats(1.0, 1e9) | st.just(math.inf))
    def test_worst_log_meets_the_bound(self, algorithm, data, rounds, n_clients,
                                       dim, scope, t_compute, latency, bandwidth):
        delays = st.integers(0, 0 if SCHEMES[algorithm].synchronous else 3)
        cfg = _cfg(algorithm=algorithm, rounds=rounds, n_clients=n_clients,
                   dim=dim, correction_scope=scope, t_compute=t_compute,
                   latency=latency, bandwidth=bandwidth,
                   delay=data.draw(st.none() | delays, label="delay"))
        # The bound holds at any delay; a derived one covers the round trip.
        delay = resolve_delay(cfg) if cfg.delay is None else cfg.delay
        d = cfg.model_spec().dim
        per_entry = 8 if SCHEMES[algorithm].upload == "dense" else ENTRY_BYTES
        total = n_clients * rounds * (HEADER_BYTES + per_entry * d)
        last = account([([d] * n_clients, d)] * rounds, cfg, delay)[-1]
        bound = engine._worst_clock(cfg, delay, engine._worst_roundtrip(cfg))
        assert math.isclose(last[0], bound, rel_tol=1e-12)
        assert last[1:] == (total, total)


class TestByteAccounting:
    def test_dense_uplink_per_round(self):
        cfg = _cfg(algorithm="fedavg", bandwidth=1e6)
        records = Simulation(cfg).run()
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
        full = Simulation(_cfg(algorithm="dpga", delay=1, bandwidth=1e6,
                               walk_m=0, walk_p0=1.0)).run()
        low = Simulation(_cfg(algorithm="dpga", delay=1, bandwidth=1e6,
                              walk_m=0, walk_p0=0.2)).run()
        assert low[-1].up_bytes < full[-1].up_bytes

    def test_static_mask_size_fixed(self):
        cfg = _cfg(algorithm="static-partial", static_fraction=0.4,
                   bandwidth=1e6)
        records = Simulation(cfg).run()
        k = math.ceil(0.4 * D_MODEL)
        payload = HEADER_BYTES + ENTRY_BYTES * k
        for r in records:
            assert r.up_bytes == r.round * cfg.n_clients * payload
            assert r.p == 0.4

    def test_full_support_downlink_at_least_own_shared(self):
        own = Simulation(_cfg(algorithm="dpga", delay=1, bandwidth=1e6,
                              walk_m=2, walk_p0=0.3,
                              correction_scope="own-shared")).run()
        full = Simulation(_cfg(algorithm="dpga", delay=1, bandwidth=1e6,
                               walk_m=2, walk_p0=0.3,
                               correction_scope="full-support")).run()
        assert full[-1].down_bytes >= own[-1].down_bytes
        assert full[-1].up_bytes == own[-1].up_bytes


class TestScheduling:
    def test_one_record_per_round(self):
        records = Simulation(_cfg(algorithm="dpga", delay=2, bandwidth=1e6)).run()
        assert [r.round for r in records] == list(range(1, 7))

    def test_first_round_runs_at_p0(self):
        records = Simulation(_cfg(algorithm="dpga", delay=1, bandwidth=1e6,
                                  walk_m=2, walk_p0=0.3)).run()
        assert records[0].p == 0.3

    def test_every_aggregate_lands_once(self):
        sim = Simulation(_cfg(algorithm="dpga", delay=3, bandwidth=1e6))
        sim.run()
        assert len(sim.correction_log) == sim.cfg.rounds
        assert [r for r, _ in sim.correction_log] == list(range(1, 7))
        assert all(not c.pending for c in sim.clients)

    def test_an_aggregate_that_never_lands_is_refused(self, monkeypatch, tmp_path, capsys):
        """A landing rule that drops the last round's aggregate leaves it
        pending: run() ends in a ContractViolationError instead of
        records, and `dpga run` exits 3 without writing its CSV."""
        def never_last(delay, rounds):
            return [min(r + delay, rounds) for r in range(1, rounds)] + [rounds + 1]

        monkeypatch.setattr(engine, "landing_rounds", never_last)
        sim = Simulation(_cfg(algorithm="dpga", delay=2, bandwidth=1e6))
        with pytest.raises(ContractViolationError, match="undelivered aggregates"):
            sim.run()
        assert [r for r, _ in sim.correction_log] == [1, 2, 3, 4, 5]
        out = tmp_path / "m.csv"
        sets = ("run.algorithm=dpga", "run.rounds=4", "network.delay=2")
        assert main(["run", *(a for s in sets for a in ("--set", s)), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "contract violation: run ended with undelivered aggregates" in err
        assert not out.exists()

    @pytest.mark.parametrize("scope", CORRECTION_SCOPES)
    def test_no_aggregate_outlives_its_round(self, monkeypatch, scope):
        """Delivery reads only a round and eta * values, so when the server
        forms an aggregate at most one earlier aggregate may still be
        alive: the one a loop variable might still name."""
        aggregate, refs, alive = engine.server_aggregate, [], []

        def tracked(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            agg = aggregate(*args, **kwargs)
            refs.append(weakref.ref(agg))
            return agg

        monkeypatch.setattr(engine, "server_aggregate", tracked)
        sim = Simulation(_cfg(algorithm="dpga", delay=4, bandwidth=1e6,
                              correction_scope=scope))
        sim.run()
        assert len(alive) == sim.cfg.rounds
        assert max(alive) <= 1

    def test_weights_travel_only_with_a_fixed_set(self):
        """The server takes weights only when every upload carries one
        SharedSet, so no weighted scheme may upload by Top-K."""
        weighted = [s for s in SCHEMES.values() if s.weighted]
        assert weighted and all(s.upload != "top-k" for s in weighted)

    @pytest.mark.parametrize("algorithm, fraction", [
        ("fedavg", 1.0), ("dga", 1.0), ("static-partial", 0.25)])
    def test_fixed_set_uploads_carry_the_reported_rate(self, monkeypatch,
                                                       algorithm, fraction):
        """A fixed-set message carries the p its record reports: the
        nominal fraction, 1.0 when dense, off the 0.1 grid or not."""
        build, sent = engine.build_upload, []

        def capture(*args, **kwargs):
            msg = build(*args, **kwargs)
            sent.append(msg.p)
            return msg

        monkeypatch.setattr(engine, "build_upload", capture)
        records = Simulation(_cfg(algorithm=algorithm, delay=0, bandwidth=1e6,
                                  static_fraction=fraction)).run()
        assert set(sent) == {r.p for r in records} == {fraction}

    def test_delay_zero_applies_same_round(self):
        sim = Simulation(_cfg(algorithm="dpga", delay=0, walk_m=0,
                              walk_p0=1.0, bandwidth=1e9))
        records = sim.run()
        assert len(sim.correction_log) == len(records)

    def test_eval_cadence(self):
        records = Simulation(_cfg(algorithm="fedavg", bandwidth=1e6,
                                  rounds=7, eval_every=3)).run()
        evaluated = [r.round for r in records if r.eval_acc == r.eval_acc]
        assert evaluated == [3, 6, 7]  # cadence plus the final round

    def test_per_client_walk_reports_mean_rate(self):
        records = Simulation(_cfg(algorithm="dpga", delay=1, bandwidth=1e6,
                                  per_client_walk=True, walk_m=2,
                                  walk_p0=0.5)).run()
        for r in records:
            assert 0.1 <= r.p <= 1.0
        assert records[0].p == 0.5


class TestInitialModel:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_client_starts_from_one_model_no_run_writes(self, algorithm):
        """Building gives every client the same read-only w0 as weights and
        as anchor, and a run, samplers and deliveries included, replaces
        them without writing a byte of it."""
        sim = Simulation(_cfg(algorithm=algorithm, bandwidth=1e6, batch_size=5))
        w0 = sim.clients[0].weights
        assert not w0.flags.writeable
        assert all(c.weights is w0 and c.anchor is w0 for c in sim.clients)
        before = w0.copy()
        sim.run()
        assert w0.tobytes() == before.tobytes()
        assert all(c.weights is not w0 and c.anchor is not w0 for c in sim.clients)


class TestLocalSteps:
    """Simulation takes each round's local steps from the shards it dealt."""

    @pytest.mark.parametrize("batch_size, samplers", [(3, 8), (12, 5)],
                             ids=["all-samplers", "mixed"])
    def test_pool_is_the_dealt_batch(self, batch_size, samplers):
        """The samplers draw from the batch Simulation dealt, not a copy of
        it: every client's shard is a view of it, and each sampler's row
        offset leads to its own shard's rows there."""
        # Shards of 11, 15, 6, 21, 25, 19, 19 and 4 examples.
        sim = Simulation(SimConfig(batch_size=batch_size, rounds=1))
        dealt = sim._dealt
        assert len(sim._samplers) == samplers
        assert dealt.size == sum(c.shard.size for c in sim.clients)
        assert all(np.shares_memory(dealt.features, c.shard.features)
                   for c in sim.clients)
        for i, start in zip(sim._samplers, sim._sampler_starts[:, 0]):
            shard = sim.clients[i].shard
            rows = dealt.rows(slice(start, start + shard.size))
            for got, want in ((rows.features, shard.features), (rows.labels, shard.labels)):
                assert got.shape == want.shape
                assert got.__array_interface__["data"] == want.__array_interface__["data"]

    def test_every_gradient_call_runs_inside_local_round(self):
        """A run takes every local step in local_round: one call per
        full-shard client and one for the stacked samplers each round."""
        depth, calls = [0], {"local_round": 0, "inside": 0, "outside": 0}
        real_round, real_gradient = engine.local_round, protocol.loss_and_gradient

        def counted_round(*args):
            calls["local_round"] += 1
            depth[0] += 1
            try:
                return real_round(*args)
            finally:
                depth[0] -= 1

        def counted_gradient(*args):
            calls["inside" if depth[0] else "outside"] += 1
            return real_gradient(*args)

        # Shards of 11, 15, 6, 21, 25, 19, 19 and 4 examples: 5 samplers
        # and 3 full-shard clients.
        cfg = SimConfig(batch_size=12, rounds=3)
        with (mock.patch.object(engine, "local_round", counted_round),
              mock.patch.object(protocol, "loss_and_gradient", counted_gradient)):
            sim = Simulation(cfg)
            assert len(sim._samplers) == 5
            sim.run()
        assert calls == {"local_round": 4 * cfg.rounds,
                         "inside": 4 * cfg.rounds * cfg.local_epochs, "outside": 0}


class TestMemory:
    def test_run_peaks_at_its_live_state(self):
        """A shortened exchange-heavy run, 32 clients of the (64, 64) MLP
        at D = 8 and a fixed rate, peaks under tracemalloc within 8 rows of
        d of its live state: per client D + 2 rows (the anchor, D pending
        steps and the round's raw z, as a round that delivers holds no
        weights), D + 1 aggregates' scaled values in flight, one round's messages (an
        8-byte value and an 8-byte index per entry) and ceil(log2 n) + 3
        rows of the server's tree. Nothing else outlives its use: not the previous round's
        messages, a concatenation of every uploaded index, or post-step
        weights that the round's delivery replaces unread."""
        cfg = SimConfig(algorithm="dpga", n_clients=32, rounds=20, local_epochs=1,
                        eta=0.2, delay=8, bandwidth=50000.0, latency=1.0,
                        t_compute=1.5, walk_p0=0.5, walk_m=0,
                        correction_scope="full-support", eval_every=50, seed=11,
                        model_kind="mlp", hidden_dims=(64, 64), num_classes=10,
                        dim=20, per_class=40, test_per_class=10, alpha=3.0)
        sim = Simulation(cfg)
        d, n, delay = sim.spec.dim, cfg.n_clients, sim.delay
        assert (d, delay) == (6154, 8)
        rows = n * (delay + 2) + delay + 1 + math.ceil(math.log2(n)) + 3
        live = 8 * d * rows + n * 16 * shared_count(cfg.walk_p0, d)
        slack = 8 * 8 * d
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sim.run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < live + slack, (peak, live, slack)


class TestDeterminism:
    def test_same_config_same_records(self):
        cfg = _cfg(algorithm="dpga", delay=2, bandwidth=1e6, batch_size=4)
        assert Simulation(cfg).run() == Simulation(cfg).run()

    def test_seed_changes_output(self):
        a = Simulation(_cfg(algorithm="dpga", delay=1, bandwidth=1e6)).run()
        b = Simulation(_cfg(algorithm="dpga", delay=1, bandwidth=1e6,
                            seed=8)).run()
        assert a != b


class TestObjective:
    def test_matches_manual_weighted_mean(self):
        sim = Simulation(_cfg(algorithm="fedavg", bandwidth=1e6))
        wbar = pairwise_mean(np.stack([c.weights for c in sim.clients]))
        total = sum(c.shard.size for c in sim.clients)
        want = sum((c.shard.size / total) * mean_loss(wbar, c.shard, sim.spec)
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
        flat_loss = mean_loss(wbar, Batch(feats, labels), sim.spec)
        got = objective(wbar, sim.train, sim.spec)
        assert got == pytest.approx(flat_loss, rel=1e-12)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_train_loss_is_one_pass_over_train(self, algorithm):
        sim = Simulation(_cfg(algorithm=algorithm, bandwidth=1e6))
        last = sim.run()[-1]
        wbar = pairwise_mean(np.stack([c.weights for c in sim.clients]))
        loss = mean_loss(wbar, sim.train, sim.spec)
        assert last.train_loss == loss


METER = ("sim_time", "up_bytes", "down_bytes")


def _run_state(cfg, blank=METER):
    """A run's records with the columns in blank set to 0 (by default the
    byte meter's), as text so that a round without evaluation (eval_acc
    nan) compares equal, and its end state: every client's final weights
    and anchor, and the correction_log."""
    sim = Simulation(cfg)
    rows = [repr(replace(r, **dict.fromkeys(blank, 0))) for r in sim.run()]
    return (rows, [c.weights.tobytes() for c in sim.clients],
            [c.anchor.tobytes() for c in sim.clients], sim.correction_log)


class TestSchemeRelations:
    """Two schemes are degenerate cases of the others, bit for bit in
    records, final weights, anchors and correction_log. Only the byte
    meter tells them apart: an indexed entry costs more than a dense one,
    which moves up_bytes, down_bytes and the clock. The relations compare
    the program with itself: Top-K at K = d must take every coordinate,
    and a fixed dense set must aggregate as that Top-K set does."""

    CASES = {"comparative": (comparative, 60), "minibatch": (minibatch, 40)}

    def _dga(self, case, **kw):
        build, rounds = self.CASES[case]
        return replace(build("dga"), rounds=rounds, **kw)

    @pytest.mark.parametrize("scope", CORRECTION_SCOPES)
    @pytest.mark.parametrize("case", CASES)
    def test_dpga_at_full_rate_is_dga(self, case, scope):
        dga = self._dga(case, correction_scope=scope)
        dpga = replace(dga, algorithm="dpga", walk_p0=1.0, walk_m=0)
        assert _run_state(dpga) == _run_state(dga)

    @pytest.mark.parametrize("case", CASES)
    def test_dga_without_delay_is_static_partial_at_fraction_1(self, case):
        dga = self._dga(case, delay=0)
        static = replace(dga, algorithm="static-partial", static_fraction=1.0)
        assert _run_state(static) == _run_state(dga)


@st.composite
def _small_runs(draw, algorithm):
    """A small config of algorithm at a fixed delay: 0 for a synchronous
    scheme, else 0-3, which every network drawn below covers."""
    return _cfg(algorithm=algorithm,
                delay=0 if SCHEMES[algorithm].synchronous else draw(st.integers(0, 3)),
                rounds=draw(st.integers(1, 7)),
                batch_size=draw(st.none() | st.integers(2, 6)),
                correction_scope=draw(st.sampled_from(CORRECTION_SCOPES)),
                per_client_walk=draw(st.booleans()),
                bandwidth=1e6, latency=0.0, t_compute=1.0)


class TestLearningIgnoresMeter:
    """The learning loop reads neither the network nor the evaluation
    schedule. At a fixed delay, bandwidth, latency and t_compute move only
    sim_time; eval_every moves only which rows carry train_loss and
    eval_acc. Final weights, anchors and correction_log stay bit-equal."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(),
           bandwidth=st.floats(1e3, 1e9) | st.just(math.inf),
           latency=st.floats(0.0, 0.5), t_compute=st.floats(1.0, 10.0))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_network_moves_only_sim_time(self, algorithm, data, bandwidth,
                                         latency, t_compute):
        # The worst round trip at d = 15 is under 0.9 time units, so every
        # delay drawn stays valid on every link drawn.
        base = data.draw(_small_runs(algorithm))
        moved = replace(base, bandwidth=bandwidth, latency=latency, t_compute=t_compute)
        assert (_run_state(moved, blank=("sim_time",))
                == _run_state(base, blank=("sim_time",)))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), every=st.tuples(st.integers(1, 8), st.integers(1, 8)))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_eval_every_moves_only_which_rows_are_evaluated(self, algorithm, data, every):
        base = data.draw(_small_runs(algorithm))
        a, b = (replace(base, eval_every=e) for e in every)
        assert (_run_state(a, blank=("train_loss", "eval_acc"))
                == _run_state(b, blank=("train_loss", "eval_acc")))
        rows_a, rows_b = _run_state(a, blank=())[0], _run_state(b, blank=())[0]
        for t, row_a, row_b in zip(range(1, base.rounds + 1), rows_a, rows_b):
            evaluated = [t % e == 0 or t == base.rounds for e in every]
            for row, on in zip((row_a, row_b), evaluated):
                assert ("eval_acc=nan" in row) is not on
            if all(evaluated):
                assert row_a == row_b
