"""Command-line behavior: reproducible output, exit codes, summaries."""

import pytest

import tandemflow.cli as cli
from tandemflow.cli import main
from tandemflow.oracle import EntryCheck, GradCheckReport
from tandemflow.scenario import config_text, default_paper_config, load_config


def read_csv(path):
    meta, rows = [], []
    for line in path.read_text().splitlines():
        (meta if line.startswith("#") else rows).append(line)
    header = rows[0].split(",")
    return meta, header, [dict(zip(header, r.split(","))) for r in rows[1:]]


def fast_cfg(tmp_path, **extra):
    keys = {"num_control_cycles": 12, "replications": 1, **extra}
    p = tmp_path / "fast.cfg"
    p.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return str(p)


class TestPrintConfig:
    def test_defaults_echo(self, capsys):
        assert main(["print-config"]) == 0
        assert capsys.readouterr().out == config_text(default_paper_config())

    def test_flag_overrides_reach_the_echo(self, capsys):
        assert main(["print-config", "--seed", "9", "--mode", "decentralized",
                     "--replications", "3"]) == 0
        out = capsys.readouterr().out
        assert "seed = 9\n" in out
        assert "mode = decentralized\n" in out
        assert "replications = 3\n" in out

    def test_config_file_plus_flag(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("phi = 0.8\nseed = 5\n")
        assert main(["print-config", "--config", str(p), "--seed", "6"]) == 0
        out = capsys.readouterr().out
        assert "phi = 0.8\n" in out
        assert "seed = 6\n" in out


    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path, capsys):
        # Editors that save UTF-8 with a byte-order mark put U+FEFF before
        # the first key; the file must read as the same config without it.
        text = "seed = 5\nphi = 0.8\n"
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert load_config(str(bom)) == load_config(str(plain))
        outs = []
        for p in (plain, bom):
            assert main(["print-config", "--config", str(p)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and "seed = 5\n" in outs[0]

    def test_bytes_that_are_not_utf8_are_a_config_error(self, tmp_path, capsys):
        # Exit status 1 is the failed gradient audit's; a file that does not
        # decode is a config error naming the file and the byte offset.
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"seed = 5\nphi = 0.8\xff\n")
        assert main(["print-config", "--config", str(bad)]) == 2
        assert capsys.readouterr().err == f"config error: {bad}: byte 18 (0xff) is not UTF-8\n"


class TestRun:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = fast_cfg(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", cfg, "--out", str(a)]) == 0
        assert main(["run", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_matches_file(self, tmp_path, capsys):
        cfg = fast_cfg(tmp_path)
        out = tmp_path / "a.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["run", "--config", cfg]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_series_shape(self, tmp_path):
        out = tmp_path / "a.csv"
        assert main(["run", "--config", fast_cfg(tmp_path),
                     "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert header == ["k", "theta1", "theta2", "g1", "g2", "e1", "e2",
                          "j11", "j21", "j22"]
        assert [r["k"] for r in rows] == [str(k) for k in range(1, 13)]
        assert any(m.startswith("# tandemflow ") for m in meta)
        assert "# replication = 0" in meta
        assert "# num_control_cycles = 12" in meta
        first = rows[0]
        assert float(first["theta1"]) == 0.8
        assert float(first["e1"]) == 0.1 - float(first["g1"])

    def test_zero_cycles_exit_2_and_write_nothing(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        assert main(["run", "--config",
                     fast_cfg(tmp_path, num_control_cycles=0),
                     "--out", str(out)]) == 2
        assert "config error: num_control_cycles must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_non_dyadic_cycle_grid_runs(self, tmp_path):
        # With c1 = 0.1 the window grid and a horizon rounded the other way
        # disagree by an ulp at 10 control cycles.
        cfg = fast_cfg(tmp_path, num_control_cycles=10, cycles_per_control=3, c1=0.1,
                       c2=0.1, theta1_init=0.05, theta2_init=0.05)
        out = tmp_path / "a.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert [r["k"] for r in rows] == [str(k) for k in range(1, 11)]

    def test_seventeen_digit_floats_roundtrip(self, tmp_path):
        out = tmp_path / "a.csv"
        assert main(["run", "--config", fast_cfg(tmp_path),
                     "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        for r in rows:
            v = float(r["g1"])
            assert format(v, ".17g") == r["g1"]


class TestExitCodes:
    def test_config_range_error(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("phi = 1.5\n")
        assert main(["run", "--config", str(p)]) == 2
        assert "phi" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["eps_j", "r1", "step_cap", "theta_max_frac",
                                     "beta_max1", "c1"])
    def test_non_finite_config_value(self, tmp_path, capsys, key):
        for value in ("inf", "nan"):
            p = tmp_path / "bad.cfg"
            p.write_text(f"{key} = {value}\n")
            assert main(["run", "--config", str(p)]) == 2
            assert f"config error: {key} must be finite" in capsys.readouterr().err

    def test_theta_box_past_the_cycle(self, tmp_path, capsys):
        p = tmp_path / "box.cfg"
        p.write_text("theta_max_frac = 1.5\nr1 = 50\nr2 = 50\nnum_control_cycles = 12\n")
        out = tmp_path / "run.csv"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert "config error: theta_max_frac" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["c1 = 1e306", "cycles_per_control = 1" + "0" * 400],
                             ids=("c1", "cycles_per_control"))
    def test_horizon_overflow(self, tmp_path, capsys, line):
        p = tmp_path / "big.cfg"
        p.write_text(line + "\n")
        assert main(["print-config", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: num_control_cycles=50 times cycles_per_control=")
        assert " times c1=" in err and "overflows" in err

    def test_horizon_beyond_the_stage_limit(self, tmp_path, capsys):
        # A finite horizon of 1e303 s would ask gen_onoff for about 2e304
        # stages per stream; the config fails before any is drawn.
        p = tmp_path / "long.cfg"
        p.write_text("c1 = 1e300\n")
        assert main(["print-config", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: num_control_cycles * cycles_per_control * c1 = ")
        assert "MAX_STAGES=1000000" in err

    @pytest.mark.parametrize("key", ["eps_j", "step_cap", "theta_min_frac"])
    def test_nonpositive_guard_key(self, tmp_path, capsys, key):
        p = tmp_path / "bad.cfg"
        p.write_text(f"{key} = 0\n")
        out = tmp_path / "run.csv"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert f"config error: {key} must" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["step_cap", "theta_min_frac"])
    def test_guard_fraction_underflow(self, tmp_path, capsys, key):
        p = tmp_path / "bad.cfg"
        p.write_text(f"{key} = 5e-324\nc1 = 0.5\ntheta1_init = 0.4\n")
        out = tmp_path / "run.csv"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert f"config error: {key}=5e-324 times c1=0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_theta_box(self, tmp_path, capsys):
        p = tmp_path / "box.cfg"
        p.write_text("theta_min_frac = 0.6\ntheta_max_frac = 0.4\n")
        assert main(["print-config", "--config", str(p)]) == 2
        assert "config error: theta_min_frac must lie in (0, theta_max_frac=0.4)" in \
            capsys.readouterr().err

    def test_seed_past_uint64(self, tmp_path, capsys):
        big = str(2 ** 64)
        assert main(["run", "--seed", big, "--out", str(tmp_path / "run.csv")]) == 2
        assert "config error: seed" in capsys.readouterr().err
        p = tmp_path / "seed.cfg"
        p.write_text(f"seed = {big}\n")
        assert main(["print-config", "--config", str(p)]) == 2
        assert "config error: seed" in capsys.readouterr().err
        assert main(["print-config", "--seed", str(2 ** 64 - 1)]) == 0
        assert f"seed = {2 ** 64 - 1}" in capsys.readouterr().out

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2

    def test_table1_requires_out(self, capsys):
        assert main(["table1"]) == 2

    def test_table1_requires_post_transient_cycles(self, tmp_path, capsys):
        assert main(["table1", "--config",
                     fast_cfg(tmp_path, num_control_cycles=5),
                     "--out", str(tmp_path / "t")]) == 2

    def test_bad_zeta_list(self, tmp_path, capsys):
        assert main(["table1", "--config", fast_cfg(tmp_path),
                     "--out", str(tmp_path / "t"),
                     "--zeta-list", "0.1,nope"]) == 2
        assert main(["table1", "--config", fast_cfg(tmp_path),
                     "--out", str(tmp_path / "t"),
                     "--zeta-list", "1.2"]) == 2

    @pytest.mark.parametrize("zetas, first, second", [("0.1,0.1000001", "0.1", "0.1000001"),
                                                      ("0.3,0.1,0.1", "0.1", "0.1")])
    def test_zetas_sharing_a_file_name_are_rejected(self, tmp_path, capsys, zetas, first,
                                                    second):
        # Both values render as z0.1 in the run file names, so the second
        # cell's runs would overwrite the first's.
        out = tmp_path / "t"
        assert main(["table1", "--config", fast_cfg(tmp_path), "--out", str(out),
                     "--zeta-list", zetas]) == 2
        err = capsys.readouterr().err
        assert f"{first} and {second}" in err and "z0.1" in err
        assert not out.exists()

    def test_negative_zero_is_the_zeta_zero(self, tmp_path, capsys):
        # float("-0") is -0.0, which would tag its files z-0; it is zeta 0,
        # so -0,0 names one cell twice and -0 writes what 0 writes.  The
        # values go after "=", as argparse reads "-0,0" as an option.
        out = tmp_path / "t"
        assert main(["table1", "--config", fast_cfg(tmp_path), "--out", str(out),
                     "--zeta-list=-0,0"]) == 2
        err = capsys.readouterr().err
        assert "values 0.0 and 0.0 share the run file tag z0" in err
        assert not out.exists()
        files = []
        for zetas in ("-0", "0"):
            out = tmp_path / f"z{zetas}"
            assert main(["table1", "--config", fast_cfg(tmp_path), "--out", str(out),
                         f"--zeta-list={zetas}"]) == 0
            files.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert files[0] == files[1]
        assert sorted(files[0]) == ["run_z0_centralized_rep00.csv",
                                    "run_z0_decentralized_rep00.csv", "summary.csv"]

    def test_empty_zeta_list(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert main(["table1", "--config", fast_cfg(tmp_path), "--out", str(out),
                     "--zeta-list", ","]) == 2
        assert "config error: --zeta-list is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_setpoint(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("r1 = -0.1\n")
        out = tmp_path / "run.csv"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert "config error: r1 must be >= 0, got -0.1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["run", "--replications", "3"],
                                      ["table1", "--mode", "decentralized"]])
    def test_overrides_a_subcommand_does_not_read(self, monkeypatch, tmp_path, argv):
        # run runs replication 0 only and table1 runs both modes, so each
        # rejects the other override as a usage error before it runs.
        for name in ("run_replication", "run_sweep"):
            monkeypatch.setattr(cli, name, lambda *a: pytest.fail("experiment ran"))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_argparse_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--mode", "sideways"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "tandemflow" in capsys.readouterr().out


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = tmp / "fast.cfg"
    cfg.write_text("num_control_cycles = 12\nreplications = 2\n")
    out = tmp / "cells"
    assert main(["table1", "--config", str(cfg), "--out", str(out),
                 "--zeta-list", "0.1,0.3"]) == 0
    return out


class TestTable1:
    def test_emits_every_cell_and_rep(self, sweep):
        names = sorted(p.name for p in sweep.iterdir())
        expect = ["summary.csv"]
        for z in ("0.1", "0.3"):
            for mode in ("centralized", "decentralized"):
                for rep in ("00", "01"):
                    expect.append(f"run_z{z}_{mode}_rep{rep}.csv")
        assert names == sorted(expect)

    def test_summary_matches_recomputation_exactly(self, sweep):
        _, _, cells = read_csv(sweep / "summary.csv")
        assert len(cells) == 4
        for cell in cells:
            z, mode = float(cell["zeta"]), cell["mode"]
            stats = [[], [], [], []]
            for rep in ("00", "01"):
                _, _, rows = read_csv(sweep / f"run_z{z:g}_{mode}_rep{rep}.csv")
                g1 = [float(r["g1"]) for r in rows]
                g2 = [float(r["g2"]) for r in rows]
                stats[0].append(abs(sum(g1[9:]) / len(g1[9:]) - 0.1))
                stats[1].append(abs(sum(g2[9:]) / len(g2[9:]) - 0.1))
                stats[2].append(max(g1))
                stats[3].append(max(g2))
            for key, vals in zip(("mean_err_g1", "mean_err_g2",
                                  "max_g1", "max_g2"), stats):
                assert float(cell[key]) == sum(vals) / len(vals)

    def test_modes_share_the_arrival_realization(self, sweep):
        for z in ("0.1", "0.3"):
            _, _, cen = read_csv(sweep / f"run_z{z}_centralized_rep00.csv")
            _, _, dec = read_csv(sweep / f"run_z{z}_decentralized_rep00.csv")
            # Same theta applied on cycle 1 over the same inputs: the first
            # row must agree bitwise; later rows diverge with the gains.
            assert cen[0] == dec[0]
            assert cen[1:] != dec[1:]

    def test_zeta_cells_differ(self, sweep):
        _, _, a = read_csv(sweep / "run_z0.1_centralized_rep00.csv")
        _, _, b = read_csv(sweep / "run_z0.3_centralized_rep00.csv")
        assert a != b


class TestCheckGrad:
    def test_passes_and_reports(self, tmp_path):
        out = tmp_path / "grad.csv"
        assert main(["check-grad", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.rstrip().endswith("# overall: PASS")
        _, header, rows = read_csv(out)
        assert header == ["scenario", "entry", "analytic", "fd", "rel_err",
                          "flagged", "ok"]
        assert len(rows) >= 30 * 4
        assert all(r["ok"] == "1" for r in rows)

    @pytest.mark.parametrize("flag", [["--config", "x.cfg"], ["--seed", "5"],
                                      ["--mode", "decentralized"], ["--replications", "3"]])
    def test_takes_no_config_options(self, monkeypatch, tmp_path, flag):
        # The battery is fixed, so check-grad rejects the experiment options
        # as usage errors before it runs anything.
        monkeypatch.setattr(cli, "run_battery", lambda *a: pytest.fail("battery ran"))
        with pytest.raises(SystemExit) as exc:
            main(["check-grad", *flag, "--out", str(tmp_path / "grad.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "grad.csv").exists()

    def test_failure_exits_nonzero(self, monkeypatch, tmp_path):
        bad = GradCheckReport("broken", (
            EntryCheck("j11", 1.0, 2.0, 0.5, False),), 1e-6)

        monkeypatch.setattr(cli, "run_battery", lambda *a: [bad])
        out = tmp_path / "grad.csv"
        assert main(["check-grad", "--out", str(out)]) == 1
        assert out.read_text().rstrip().endswith("# overall: FAIL")
