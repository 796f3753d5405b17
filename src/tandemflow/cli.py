"""Command-line front end.

Four subcommands: `run` drives one closed-loop experiment and emits its
per-control-cycle series; `table1` sweeps the arrival spread over both
controller modes and summarizes each cell; `check-grad` runs the
finite-difference audit of the Jacobian estimator; `print-config` echoes
the effective configuration after file and flag overrides.  Each takes
only the overrides it reads: `run` has no --replications, `table1` no --mode.

All CSV output starts with a `#`-prefixed metadata block (tool version,
mode, seed, and the full effective config), then a header row, then data
rows with floats printed to 17 significant digits, which round-trips
doubles exactly.  Reruns with the same inputs are byte-identical; there
are no timestamps.  Exit status: 0 on success, 1 when the gradient audit
finds a discrepancy, 2 for configuration or usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import __version__
from .oracle import (
    DEFAULT_DET_H,
    DEFAULT_DET_TOL,
    DEFAULT_STOCH_H,
    DEFAULT_STOCH_TOL,
    battery_ok,
    deterministic_scenarios,
    run_battery,
    stochastic_scenarios,
)
from .regulator import CENTRALIZED, DECENTRALIZED, CycleRecord
from .scenario import (
    TAIL_START,
    ConfigError,
    ExperimentConfig,
    config_text,
    default_paper_config,
    load_config,
    run_replication,
    run_sweep,
    summarize,
)

DEFAULT_ZETAS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)

RUN_COLUMNS = "k,theta1,theta2,g1,g2,e1,e2,j11,j21,j22"
SUMMARY_COLUMNS = "zeta,mode,mean_err_g1,mean_err_g2,max_g1,max_g2"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _zeta_tag(z: float) -> str:
    """A zeta as run file names and the zetas metadata line show it."""
    return f"{z:g}"


def _metadata(cfg: ExperimentConfig, extra: list[tuple[str, object]]) -> list[str]:
    lines = [f"# tandemflow {__version__}"]
    for key, val in extra:
        lines.append(f"# {key} = {val}")
    for line in config_text(cfg).splitlines():
        lines.append(f"# {line}")
    return lines


def _series_lines(cfg: ExperimentConfig, replication: int,
                  records: list[CycleRecord]) -> list[str]:
    lines = _metadata(cfg, [("replication", replication)])
    lines.append(RUN_COLUMNS)
    for rec in records:
        row = [str(rec.k)]
        row += [_fmt(v) for v in (*rec.theta, *rec.y, *rec.e,
                                  rec.jac.j11, rec.jac.j21, rec.jac.j22)]
        lines.append(",".join(row))
    return lines


def _write(path: Path | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text)


def cmd_run(cfg: ExperimentConfig, out: str | None) -> int:
    records = run_replication(cfg, replication=0)
    lines = _series_lines(cfg, 0, records)
    _write(Path(out) if out else None, lines)
    return 0


def cmd_table1(cfg: ExperimentConfig, out: str | None, zetas: list[float]) -> int:
    if out is None:
        print("table1 requires --out DIRECTORY", file=sys.stderr)
        return 2
    if cfg.num_control_cycles < TAIL_START:
        print(f"table1 requires num_control_cycles >= {TAIL_START}",
              file=sys.stderr)
        return 2
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = _metadata(cfg, [("zetas", ",".join(_zeta_tag(z) for z in zetas))])
    summary.append(SUMMARY_COLUMNS)
    for cell, runs in run_sweep(cfg, zetas):
        zeta, mode = cell.alpha1_zeta, cell.mode
        for rep, records in enumerate(runs):
            name = f"run_z{_zeta_tag(zeta)}_{mode}_rep{rep:02d}.csv"
            _write(outdir / name, _series_lines(cell, rep, records))
        summary.append(",".join([_fmt(zeta), mode] +
                                [_fmt(s) for s in summarize(cell, runs)]))
    _write(outdir / "summary.csv", summary)
    return 0


def cmd_check_grad(out: str | None) -> int:
    det = run_battery(deterministic_scenarios(), DEFAULT_DET_H, DEFAULT_DET_TOL)
    sto = run_battery(stochastic_scenarios(), DEFAULT_STOCH_H, DEFAULT_STOCH_TOL)
    lines = [f"# tandemflow {__version__}",
             "scenario,entry,analytic,fd,rel_err,flagged,ok"]
    for report in det + sto:
        for e in report.entries:
            ok = e.flagged or e.rel_err <= report.tol
            lines.append(",".join([report.name, e.entry, _fmt(e.analytic),
                                   _fmt(e.fd), _fmt(e.rel_err),
                                   str(int(e.flagged)), str(int(ok))]))
    passed = battery_ok(det) and battery_ok(sto)
    lines.append(f"# overall: {'PASS' if passed else 'FAIL'}")
    _write(Path(out) if out else None, lines)
    return 0 if passed else 1


def _parse_zetas(text: str) -> list[float]:
    try:
        # + 0.0 turns -0.0 into 0.0, one zeta with one tag.
        vals = [float(tok) + 0.0 for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --zeta-list: {exc}") from None
    if not vals:
        raise ConfigError("--zeta-list is empty")
    seen: dict[str, float] = {}
    for z in vals:
        if not 0.0 <= z < 1.0:
            raise ConfigError(f"--zeta-list value {z!r} outside [0, 1)")
        # Two values with one tag would write the same run files.
        tag = _zeta_tag(z)
        if tag in seen:
            raise ConfigError(f"--zeta-list values {seen[tag]!r} and {z!r} "
                              f"share the run file tag z{tag}")
        seen[tag] = z
    return vals


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tandemflow",
        description="Tandem fluid-queue regulation experiments.")
    parser.add_argument("--version", action="version",
                        version=f"tandemflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
            ("run", "run one closed-loop experiment, emit its cycle series"),
            ("table1", "sweep zeta over both controller modes"),
            ("check-grad", "audit the Jacobian estimator with finite differences"),
            ("print-config", "echo the effective configuration")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--out", help="output file (directory for table1)")
        if name == "check-grad":
            continue  # a fixed battery: it reads no experiment config
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--seed", type=int, help="override the base seed")
        if name != "table1":  # table1 runs both modes
            p.add_argument("--mode", choices=(CENTRALIZED, DECENTRALIZED),
                           help="override the controller mode")
        if name != "run":  # run runs replication 0 only
            p.add_argument("--replications", type=int,
                           help="override the replication count")
        if name == "table1":
            p.add_argument("--zeta-list",
                           default=",".join(_zeta_tag(z) for z in DEFAULT_ZETAS),
                           help="comma-separated zeta values "
                                "(default %(default)s)")
    return parser


def _effective_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else default_paper_config()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "mode", None) is not None:  # table1 has no --mode
        overrides["mode"] = args.mode
    if getattr(args, "replications", None) is not None:  # run has no --replications
        overrides["replications"] = args.replications
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check-grad":
            return cmd_check_grad(args.out)
        cfg = _effective_config(args)
        if args.command == "run":
            return cmd_run(cfg, args.out)
        if args.command == "table1":
            return cmd_table1(cfg, args.out, _parse_zetas(args.zeta_list))
        _write(Path(args.out) if args.out else None,
               config_text(cfg).splitlines())
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
