"""Arrival generation and config parsing: determinism, ranges, overrides."""

import dataclasses

import pytest

import tandemflow.scenario as scenario
from tandemflow.regulator import CENTRALIZED, DECENTRALIZED
from tandemflow.scenario import (
    ConfigError,
    ExperimentConfig,
    OnOffSpec,
    config_text,
    default_paper_config,
    gen_onoff,
    parse_config,
    run_replication,
    run_sweep,
)


class TestOnOffGeneration:
    def test_same_key_same_realization(self):
        spec = OnOffSpec(4.1, 0.3, 0.02, 0.063)
        a = gen_onoff(spec, seed=11, horizon=50.0, stream=3)
        b = gen_onoff(spec, seed=11, horizon=50.0, stream=3)
        assert a.segments == b.segments

    def test_streams_are_distinct(self):
        spec = OnOffSpec(4.1, 0.3, 0.02, 0.063)
        a = gen_onoff(spec, seed=11, horizon=50.0, stream=0)
        b = gen_onoff(spec, seed=11, horizon=50.0, stream=1)
        c = gen_onoff(spec, seed=12, horizon=50.0, stream=0)
        assert a.segments != b.segments
        assert a.segments != c.segments

    def test_zero_spread_pins_every_level_to_the_mean(self):
        spec = OnOffSpec(4.1, 0.0, 0.02, 0.063)
        arr = gen_onoff(spec, seed=5, horizon=100.0)
        levels = [r for _, r in arr.segments if r > 0.0]
        assert levels
        assert all(lv == 4.1 for lv in levels)

    def test_alternates_off_and_on(self):
        spec = OnOffSpec(4.1, 0.3, 0.02, 0.063)
        arr = gen_onoff(spec, seed=5, horizon=100.0)
        rates = [r for _, r in arr.segments]
        for prev, nxt in zip(rates, rates[1:]):
            assert (prev == 0.0) != (nxt == 0.0)

    def test_empirical_level_mean_near_target(self):
        spec = OnOffSpec(4.1, 0.3, 0.02, 0.063)
        arr = gen_onoff(spec, seed=1, horizon=1000.0)
        levels = [r for _, r in arr.segments if r > 0.0]
        assert len(levels) > 10000
        mean = sum(levels) / len(levels)
        assert 4.0 <= mean <= 4.2
        assert all(2.87 - 1e-12 <= lv <= 5.33 + 1e-12 for lv in levels)

    def test_prefix_stability(self):
        spec = OnOffSpec(4.1, 0.3, 0.02, 0.063)
        short = gen_onoff(spec, seed=9, horizon=20.0)
        long = gen_onoff(spec, seed=9, horizon=80.0)
        assert long.segments[: len(short.segments)] == short.segments

    def test_spread_sweep_reuses_the_timing(self):
        base = OnOffSpec(4.1, 0.1, 0.02, 0.063)
        wide = OnOffSpec(4.1, 0.3, 0.02, 0.063)
        a = gen_onoff(base, seed=3, horizon=50.0)
        b = gen_onoff(wide, seed=3, horizon=50.0)
        assert [e for e, _ in a.segments] == [e for e, _ in b.segments]
        assert [r for _, r in a.segments] != [r for _, r in b.segments]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            OnOffSpec(0.0, 0.3, 0.02, 0.063)
        with pytest.raises(ValueError):
            OnOffSpec(4.1, 1.0, 0.02, 0.063)
        with pytest.raises(ValueError):
            OnOffSpec(4.1, 0.3, 0.0, 0.063)
        with pytest.raises(ValueError):
            gen_onoff(OnOffSpec(4.1, 0.3, 0.02, 0.063), 1, 0.0)


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

    def test_zero_control_cycles_is_legal(self):
        cfg = ExperimentConfig(num_control_cycles=0, replications=2)
        assert run_replication(cfg) == []
        assert [runs for _, runs in run_sweep(cfg, [0.1])] == [[[], []], [[], []]]

    def test_arrivals_do_not_depend_on_controller_fields(self):
        cfg = default_paper_config()
        other = dataclasses.replace(cfg, mode=DECENTRALIZED, theta1_init=0.5,
                                    r1=0.3)
        a1, a2 = cfg.arrival_pair(2)
        b1, b2 = other.arrival_pair(2)
        assert a1.segments == b1.segments
        assert a2.segments == b2.segments

    def test_replications_use_disjoint_streams(self):
        cfg = default_paper_config()
        a1, a2 = cfg.arrival_pair(0)
        b1, b2 = cfg.arrival_pair(1)
        assert a1.segments != b1.segments
        assert a2.segments != b2.segments
        assert a1.segments != a2.segments


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
        *r.theta, *r.y, *r.e, r.jac.j11, r.jac.j21, r.jac.j22, r.jac.window))
        for r in records]


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
