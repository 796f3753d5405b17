"""Arrival generation and config parsing: determinism, ranges, overrides."""

import dataclasses
import math

import numpy as np
import pytest

import tandemflow.scenario as scenario
from tandemflow.cli import DEFAULT_ZETAS
from tandemflow.regulator import CENTRALIZED, DECENTRALIZED
from tandemflow.scenario import (
    MAX_STAGES,
    TAIL_START,
    ConfigError,
    ExperimentConfig,
    OnOffSpec,
    config_text,
    default_paper_config,
    gen_onoff,
    parse_config,
    run_replication,
    run_sweep,
    summarize,
)

# The real class; a test patches np.random.Generator with ZeroingGenerator.
_Generator = np.random.Generator


def scalar_gen_onoff(spec, seed, horizon, stream=0):
    """Reference realization: the (epoch, rate) pairs of a per-stage loop of
    scalar draws, in the order the scenario module documents."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    rnd = gen.random
    segs = []
    t = 0.0
    mean, zeta = spec.mean_rate, spec.zeta
    off_max, on_max = spec.off_max, spec.on_max
    while t < horizon:
        off = rnd() * off_max
        if off > 0.0:
            segs.append((t, 0.0))
            t += off
            if t >= horizon:
                break
        on = rnd() * on_max
        level = mean * (1.0 + zeta * (2.0 * rnd() - 1.0))
        if on > 0.0:
            segs.append((t, level))
            t += on
    return segs


def segments(r):
    """A rate process's (epoch, rate) pairs."""
    return list(zip(r.epochs, r.rates))


def hexes(pairs):
    return [(float(e).hex(), float(r).hex()) for e, r in pairs]


class ZeroingGenerator:
    """A Philox generator whose draw stream has exact zeros at fixed
    positions of the flat sequence, the same whether it is read one scalar
    or one block at a time.  Positions 10s and 10s+1 zero both durations of
    every tenth stage; position 13s+7 hits each column in turn."""

    def __init__(self, bit_generator):
        self._gen = _Generator(bit_generator)
        self._drawn = 0

    def random(self, size=None):
        u = self._gen.random(1 if size is None else size)
        idx = self._drawn + np.arange(u.size).reshape(u.shape)
        self._drawn += u.size
        u[(idx % 10 <= 1) | (idx % 13 == 7)] = 0.0
        return float(u[0]) if size is None else u


def drawn_blocks(monkeypatch, spec, seed, horizon, stream):
    """gen_onoff's realization and the stage count of each block it drew,
    read through a generator that records every draw."""
    blocks = []

    class RecordingGenerator:
        def __init__(self, bit_generator):
            self._gen = _Generator(bit_generator)

        def random(self, size):
            blocks.append(size[0])
            return self._gen.random(size)

    with monkeypatch.context() as m:
        m.setattr(np.random, "Generator", RecordingGenerator)
        return gen_onoff(spec, seed, horizon, stream), blocks


class TestOnOffGeneration:
    def test_same_key_same_realization(self):
        spec = OnOffSpec(4.1, 0.3, 0.02, 0.063)
        a = gen_onoff(spec, seed=11, horizon=50.0, stream=3)
        b = gen_onoff(spec, seed=11, horizon=50.0, stream=3)
        assert segments(a) == segments(b)

    def test_streams_are_distinct(self):
        spec = OnOffSpec(4.1, 0.3, 0.02, 0.063)
        a = gen_onoff(spec, seed=11, horizon=50.0, stream=0)
        b = gen_onoff(spec, seed=11, horizon=50.0, stream=1)
        c = gen_onoff(spec, seed=12, horizon=50.0, stream=0)
        assert segments(a) != segments(b)
        assert segments(a) != segments(c)

    def test_zero_spread_pins_every_level_to_the_mean(self):
        spec = OnOffSpec(4.1, 0.0, 0.02, 0.063)
        arr = gen_onoff(spec, seed=5, horizon=100.0)
        levels = [r for _, r in segments(arr) if r > 0.0]
        assert levels
        assert all(lv == 4.1 for lv in levels)

    def test_alternates_off_and_on(self):
        spec = OnOffSpec(4.1, 0.3, 0.02, 0.063)
        arr = gen_onoff(spec, seed=5, horizon=100.0)
        rates = [r for _, r in segments(arr)]
        for prev, nxt in zip(rates, rates[1:]):
            assert (prev == 0.0) != (nxt == 0.0)

    def test_empirical_level_mean_near_target(self):
        spec = OnOffSpec(4.1, 0.3, 0.02, 0.063)
        arr = gen_onoff(spec, seed=1, horizon=1000.0)
        levels = [r for _, r in segments(arr) if r > 0.0]
        assert len(levels) > 10000
        mean = sum(levels) / len(levels)
        assert 4.0 <= mean <= 4.2
        assert all(2.87 - 1e-12 <= lv <= 5.33 + 1e-12 for lv in levels)

    def test_prefix_stability(self):
        spec = OnOffSpec(4.1, 0.3, 0.02, 0.063)
        short = gen_onoff(spec, seed=9, horizon=20.0)
        long = gen_onoff(spec, seed=9, horizon=180.0)
        # The short realization ends inside the first block of stages, the
        # long one several blocks later.
        assert len(segments(short)) < 2 * scenario._BLOCK
        assert len(segments(long)) > 6 * scenario._BLOCK
        assert segments(long)[: len(segments(short))] == segments(short)

    def test_spread_sweep_reuses_the_timing(self):
        base = OnOffSpec(4.1, 0.1, 0.02, 0.063)
        wide = OnOffSpec(4.1, 0.3, 0.02, 0.063)
        a = gen_onoff(base, seed=3, horizon=50.0)
        b = gen_onoff(wide, seed=3, horizon=50.0)
        assert [e for e, _ in segments(a)] == [e for e, _ in segments(b)]
        assert [r for _, r in segments(a)] != [r for _, r in segments(b)]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            OnOffSpec(0.0, 0.3, 0.02, 0.063)
        with pytest.raises(ValueError):
            OnOffSpec(4.1, 1.0, 0.02, 0.063)
        with pytest.raises(ValueError):
            OnOffSpec(4.1, 0.3, 0.0, 0.063)
        with pytest.raises(ValueError, match="horizon must be positive"):
            gen_onoff(OnOffSpec(4.1, 0.3, 0.02, 0.063), 1, 0.0)

    def test_nonfinite_horizon_is_rejected_before_any_draw(self, monkeypatch):
        # An infinite horizon would draw blocks forever; a generator that
        # refuses to be built makes a missing check fail instead of hang.
        def no_generator(*args):
            raise AssertionError("gen_onoff built a generator")
        monkeypatch.setattr(np.random, "Generator", no_generator)
        for h in (math.inf, math.nan):
            with pytest.raises(ValueError, match="horizon must be positive and finite"):
                gen_onoff(OnOffSpec(4.1, 0.3, 0.02, 0.063), 1, h)


class TestBlockGeneratorMatchesScalarLoop:
    """gen_onoff draws its stages in blocks; it must equal the per-stage
    scalar loop bit for bit, wherever the horizon falls."""

    SPECS = (
        OnOffSpec(4.1, 0.3, 0.063, 0.035),   # queue-1 default
        OnOffSpec(0.41, 0.3, 0.063, 0.035),  # side-street default
        OnOffSpec(4.1, 0.3, 2.0, 0.01),      # off_max >> on_max
    )

    @staticmethod
    def horizons(spec, seed, stream):
        """Short and long horizons, and horizons ending inside and exactly at
        the start of an off stage and of an on stage, at and just past the
        start of the second block of stages, and inside a later block."""
        # About eight blocks of stages.
        full = scalar_gen_onoff(spec, seed, 4 * scenario._BLOCK * (spec.off_max + spec.on_max), stream)
        epochs = [e for e, _ in full]
        off = next(j for j, (_, r) in enumerate(full) if r == 0.0 and j > 3)
        on = next(j for j, (_, r) in enumerate(full) if r > 0.0 and j > 3)
        edge = epochs[2 * scenario._BLOCK]
        later = 5 * scenario._BLOCK
        return (0.01, 0.5,
                0.5 * (epochs[off] + epochs[off + 1]), 0.5 * (epochs[on] + epochs[on + 1]),
                epochs[off], epochs[on],
                edge, np.nextafter(edge, np.inf), 0.5 * (edge + epochs[2 * scenario._BLOCK + 1]),
                0.5 * (epochs[later] + epochs[later + 1]), 1000.0)

    @pytest.mark.parametrize("spec", SPECS, ids=("queue1", "side", "long_off"))
    @pytest.mark.parametrize("seed,stream", [(1, 0), (7, 3), (2024, 1)])
    def test_equal_to_the_scalar_loop(self, spec, seed, stream):
        for h in self.horizons(spec, seed, stream):
            h = float(h)
            assert hexes(segments(gen_onoff(spec, seed, h, stream))) == \
                hexes(scalar_gen_onoff(spec, seed, h, stream)), h

    @pytest.mark.parametrize("spec,seed,stream,horizon", [
        (SPECS[0], 1, 0, 900.5 * 0.049), (SPECS[2], 1, 0, 600.5 * 1.005)], ids=("queue1", "long_off"))
    def test_realization_past_the_sized_first_block(self, monkeypatch, spec, seed, stream, horizon):
        # A short horizon's block holds 16 stages more than it expects.  Both
        # horizons are 900.5 and 600.5 mean stages long, and these keys' first
        # 916 and 616 stages run short of their mean, so a second block follows.
        ref = scalar_gen_onoff(spec, seed, horizon, stream)
        arr, blocks = drawn_blocks(monkeypatch, spec, seed, horizon, stream)
        assert len(blocks) == 2 and blocks[0] == blocks[1] < scenario._BLOCK
        assert hexes(segments(arr)) == hexes(ref)

    def test_short_horizon_draws_few_stages(self, monkeypatch):
        # A 6 s horizon expects 6 / 0.049 = 122.4 stages; it draws one
        # block of 138, not 1,024.
        spec = self.SPECS[0]
        arr, blocks = drawn_blocks(monkeypatch, spec, 1, 6.0, 0)
        assert blocks == [138]
        assert hexes(segments(arr)) == hexes(scalar_gen_onoff(spec, 1, 6.0, 0))
        # The reference config's 1,000 s horizon and a 200 s one keep full blocks.
        cfg = default_paper_config()
        for horizon in (cfg.horizon(), 200.0):
            assert drawn_blocks(monkeypatch, spec, 1, horizon, 0)[1][0] == scenario._BLOCK

    def test_zero_length_stages_are_skipped_alike(self, monkeypatch):
        monkeypatch.setattr(np.random, "Generator", ZeroingGenerator)
        spec = OnOffSpec(4.1, 0.3, 0.063, 0.035)
        for h in (0.05, 3.0, 70.0, 160.0):
            ref = scalar_gen_onoff(spec, 5, h, 2)
            assert hexes(segments(gen_onoff(spec, 5, h, 2))) == hexes(ref), h
        rates = [r for _, r in ref]
        pairs = list(zip(rates, rates[1:]))
        assert (0.0, 0.0) in pairs                      # an on stage was skipped
        assert any(a > 0.0 and b > 0.0 for a, b in pairs)  # an off stage was skipped
        assert len(ref) > 4 * scenario._BLOCK


class TestConfig:
    def test_reference_defaults(self):
        cfg = default_paper_config()
        assert (cfg.r1, cfg.r2) == (0.1, 0.1)
        assert (cfg.theta1_init, cfg.theta2_init) == (0.8, 0.8)
        assert cfg.cycles_per_control == 20
        assert cfg.num_control_cycles == 50
        assert (cfg.alpha1_mean, cfg.alpha2_mean) == (4.1, 0.41)
        assert cfg.phi == 0.9
        assert cfg.mode == "centralized"

    def test_validation_names_the_field(self):
        with pytest.raises(ConfigError, match="phi"):
            ExperimentConfig(phi=1.5)
        with pytest.raises(ConfigError, match="mode"):
            ExperimentConfig(mode="manual")
        with pytest.raises(ConfigError, match="num_control_cycles"):
            ExperimentConfig(num_control_cycles=-1)
        with pytest.raises(ConfigError, match="cycles_per_control"):
            ExperimentConfig(cycles_per_control=0)
        with pytest.raises(ConfigError, match="theta1_init"):
            ExperimentConfig(theta1_init=1.0)
        with pytest.raises(ConfigError, match="beta_max2"):
            ExperimentConfig(beta_max2=0.0)
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(seed=-1)
        with pytest.raises(ConfigError):
            ExperimentConfig(service_mode="ramp")

    @pytest.mark.parametrize("frac", [1.0, 1.5])
    def test_theta_box_must_stay_inside_the_cycle(self, frac):
        # At 1.0 the clamp can put theta on c; above it, past c.
        with pytest.raises(ConfigError, match="theta_max_frac"):
            ExperimentConfig(theta_max_frac=frac)

    @pytest.mark.parametrize("key, value", [
        ("eps_j", 0.0), ("eps_j", -1e-3), ("step_cap", 0.0), ("step_cap", -0.25),
        ("theta_min_frac", 0.0), ("theta_min_frac", -0.1), ("theta_min_frac", 0.98)])
    def test_guard_keys_are_named(self, key, value):
        # The config's own key, not GuardConfig's field, in the message.
        with pytest.raises(ConfigError, match=f"^{key} must"):
            ExperimentConfig(**{key: value})
        with pytest.raises(ConfigError, match=f"^{key} must"):
            parse_config(f"{key} = {value}\n")

    @pytest.mark.parametrize("key, value", [
        (f"alpha{i}_{name}", value) for i in (1, 2) for name, value in
        (("mean", 0.0), ("zeta", 1.5), ("zeta", -0.1), ("off_max", 0.0), ("on_max", -1.0))])
    def test_arrival_keys_are_named(self, key, value):
        # The config's own key, not OnOffSpec's field, in the message.
        with pytest.raises(ConfigError, match=f"^{key} must"):
            ExperimentConfig(**{key: value})
        with pytest.raises(ConfigError, match=f"^{key} must"):
            parse_config(f"{key} = {value}\n")

    @pytest.mark.parametrize("key", ["theta_min_frac", "step_cap"])
    @pytest.mark.parametrize("cycle", ["c1", "c2"])
    def test_guard_fractions_that_underflow_are_named(self, key, cycle):
        # A positive fraction whose product with a cycle length underflows
        # to 0.0 fails by its own key, not as GuardConfig's ValueError.
        kw = {cycle: 0.5, "theta1_init": 0.4, "theta2_init": 0.4}
        with pytest.raises(ConfigError, match=f"^{key}=5e-324 times {cycle}=0.5"):
            ExperimentConfig(**kw, **{key: 5e-324})
        ExperimentConfig(**kw, **{key: 1e-300})

    def test_theta_box_must_be_nonempty(self):
        with pytest.raises(ConfigError, match="theta_max_frac=0.01"):
            ExperimentConfig(theta_max_frac=0.01)
        cfg = ExperimentConfig(theta_min_frac=0.5, theta_max_frac=0.5000001)
        assert cfg.guards().theta_min < cfg.guards().theta_max

    def test_seed_must_fit_the_uint64_key(self):
        assert ExperimentConfig(seed=2 ** 64 - 1).seed == 2 ** 64 - 1
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(seed=2 ** 64)
        with pytest.raises(ConfigError, match="seed"):
            parse_config(f"seed = {2 ** 64}\n")

    def test_zero_control_cycles_are_rejected_by_name(self):
        with pytest.raises(ConfigError, match="^num_control_cycles must be >= 1, got 0"):
            ExperimentConfig(num_control_cycles=0)
        with pytest.raises(ConfigError, match="^num_control_cycles must be >= 1, got 0"):
            parse_config("num_control_cycles = 0\n")

    @pytest.mark.parametrize("num", range(10, 15))
    def test_control_window_grid_ends_on_the_horizon(self, num):
        # (num * 3) * 0.1 and num * (3 * 0.1) differ by an ulp for some num;
        # the arrivals must reach the end of the plant's last window.
        cfg = ExperimentConfig(c1=0.1, c2=0.1, theta1_init=0.05, theta2_init=0.05,
                               cycles_per_control=3, num_control_cycles=num)
        assert cfg.horizon() == num * (3 * 0.1)
        assert [r.k for r in run_replication(cfg)] == list(range(1, num + 1))

    @pytest.mark.parametrize("key, value", [("c1", 1e306), ("cycles_per_control", 10 ** 400)],
                             ids=("c1", "cycles_per_control"))
    def test_horizon_that_overflows_is_named(self, key, value):
        # 1e306 gives an infinite float product; 10**400 is too large for a float.
        msg = "^num_control_cycles=50 times cycles_per_control=.* times c1=.* overflows"
        with pytest.raises(ConfigError, match=msg):
            ExperimentConfig(**{key: value})
        with pytest.raises(ConfigError, match=msg):
            parse_config(f"{key} = {value}\n")

    @pytest.mark.parametrize("kw, i", [
        ({"c1": 1e300}, 1), ({"num_control_cycles": 2500}, 1),
        ({"alpha2_off_max": 1e-5, "alpha2_on_max": 1e-5}, 2)],
        ids=("c1", "num_control_cycles", "alpha2_stages"))
    def test_horizon_beyond_the_stage_limit_is_named(self, kw, i):
        # gen_onoff would build about 2e304, 1.02e6 and 1e8 stages per
        # stream; the config fails first, by its keys, and builds none.
        msg = (rf"^num_control_cycles \* cycles_per_control \* c1 = .* over \(alpha{i}_off_max "
               rf"\+ alpha{i}_on_max\) / 2 = .* expects more than MAX_STAGES=1000000 stages")
        with pytest.raises(ConfigError, match=msg):
            ExperimentConfig(**kw)
        with pytest.raises(ConfigError, match=msg):
            parse_config("".join(f"{k} = {v}\n" for k, v in kw.items()))

    def test_horizon_under_the_stage_limit_is_accepted(self):
        # The default expects 20,408 stages per stream, 2,400 control cycles
        # 979,592.
        assert MAX_STAGES == 10 ** 6
        assert ExperimentConfig(num_control_cycles=2400).horizon() == 48000.0

    def test_arrivals_do_not_depend_on_controller_fields(self):
        cfg = default_paper_config()
        other = dataclasses.replace(cfg, mode=DECENTRALIZED, theta1_init=0.5,
                                    r1=0.3)
        a1, a2 = cfg.arrival_pair(2)
        b1, b2 = other.arrival_pair(2)
        assert segments(a1) == segments(b1)
        assert segments(a2) == segments(b2)

    def test_replications_use_disjoint_streams(self):
        cfg = default_paper_config()
        a1, a2 = cfg.arrival_pair(0)
        b1, b2 = cfg.arrival_pair(1)
        assert segments(a1) != segments(b1)
        assert segments(a2) != segments(b2)
        assert segments(a1) != segments(a2)


class TestParsing:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == default_paper_config()

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\n  seed = 4  # trailing\n")
        assert cfg.seed == 4

    def test_single_override(self):
        cfg = parse_config("theta1_init = 0.7\n")
        assert cfg.theta1_init == 0.7
        assert dataclasses.replace(cfg, theta1_init=0.8) == \
            default_paper_config()

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*warmup"):
            parse_config("seed = 1\nwarmup = 5\n")

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ConfigError, match="line 3.*seed.*line 1"):
            parse_config("seed = 1\nphi = 0.9\nseed = 2\n")

    def test_type_errors_name_key_and_line(self):
        with pytest.raises(ConfigError, match="line 1.*seed.*integer"):
            parse_config("seed = 1.5\n")
        with pytest.raises(ConfigError, match="line 1.*phi"):
            parse_config("phi = fast\n")
        with pytest.raises(ConfigError, match="expected"):
            parse_config("just some words\n")

    def test_range_error_names_key(self):
        with pytest.raises(ConfigError, match="phi"):
            parse_config("phi = 1.5\n")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ExperimentConfig)
                                     if isinstance(f.default, float)])
    def test_non_finite_values_name_the_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be finite"):
            parse_config(f"{key} = {value}\n")

    def test_text_roundtrip(self):
        cfg = dataclasses.replace(default_paper_config(), seed=17,
                                  alpha1_zeta=0.25, mode=DECENTRALIZED)
        assert parse_config(config_text(cfg)) == cfg


class TestClosedLoopRuns:
    def test_seeded_run_is_reproducible(self):
        cfg = dataclasses.replace(default_paper_config(),
                                  num_control_cycles=6)
        assert run_replication(cfg, 1) == run_replication(cfg, 1)

    def test_replications_differ(self):
        cfg = dataclasses.replace(default_paper_config(),
                                  num_control_cycles=6)
        a = run_replication(cfg, 0)
        b = run_replication(cfg, 1)
        assert [r.y for r in a] != [r.y for r in b]


def bits(records):
    """Exact identity of a run's records, telling -0.0 from 0.0."""
    return [(r.k,) + tuple(float(v).hex() for v in (
        *r.theta, *r.y, *r.e, r.jac.j11, r.jac.j21, r.jac.j22))
        for r in records]


class TestSummarize:
    def test_short_runs_are_rejected_by_name(self):
        cfg = dataclasses.replace(default_paper_config(), num_control_cycles=5)
        with pytest.raises(ValueError, match=f"TAIL_START={TAIL_START}.*got 5"):
            summarize(cfg, [run_replication(cfg, 0)])


class TestSweep:
    ZETAS = (0.1, 0.3)

    @staticmethod
    def reduced():
        return dataclasses.replace(default_paper_config(), num_control_cycles=10,
                                   replications=2)

    def test_cells_equal_run_replication_bit_for_bit(self):
        cfg = self.reduced()
        sweep = run_sweep(cfg, self.ZETAS)
        expect = [dataclasses.replace(cfg, alpha1_zeta=z, alpha2_zeta=z, mode=m)
                  for z in self.ZETAS for m in (CENTRALIZED, DECENTRALIZED)]
        assert [cell for cell, _ in sweep] == expect
        for cell, runs in sweep:
            assert len(runs) == cfg.replications
            for rep, records in enumerate(runs):
                assert len(records) == cfg.num_control_cycles
                assert bits(records) == bits(run_replication(cell, rep))

    def test_queue_1_does_not_depend_on_the_mode(self):
        # y1 depends on theta1 alone (j12 = 0), and both modes compute gain
        # row 1 as (1 / j11, 0) under the same guard.  Light 2's switch
        # epochs still split queue 1's drain and integrals, so the modes
        # agree only up to rounding: measured 1.6e-14 on theta1 and 2.1e-14
        # on g1 absolute, 1.4e-13 on j11 relative.  Queue 2 does differ:
        # theta2 by up to 0.28.
        sweep = run_sweep(self.reduced(), DEFAULT_ZETAS)
        assert [cell.mode for cell, _ in sweep] == [CENTRALIZED, DECENTRALIZED] * len(DEFAULT_ZETAS)
        theta2_gap = 0.0
        for (_, cen), (_, dec) in zip(sweep[::2], sweep[1::2]):
            for c, d in zip((r for run in cen for r in run), (r for run in dec for r in run),
                            strict=True):
                assert abs(c.theta[0] - d.theta[0]) <= 1e-11
                assert abs(c.y[0] - d.y[0]) <= 1e-11
                assert abs(c.jac.j11 - d.jac.j11) <= 1e-11 * abs(c.jac.j11)
                theta2_gap = max(theta2_gap, abs(c.theta[1] - d.theta[1]))
        assert theta2_gap > 0.1

    def test_arrivals_are_generated_once_for_both_modes(self, monkeypatch):
        calls = []
        real = scenario.gen_onoff

        def counting(spec, seed, horizon, stream=0):
            calls.append((spec.zeta, stream))
            return real(spec, seed, horizon, stream)

        monkeypatch.setattr(scenario, "gen_onoff", counting)
        cfg = self.reduced()
        run_sweep(cfg, self.ZETAS)
        # Two streams (queue 1, side street) per (zeta, replication).
        assert sorted(calls) == [(z, s) for z in self.ZETAS
                                 for s in range(2 * cfg.replications)]
