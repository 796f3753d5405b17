"""Seeded arrival-process generation and experiment configuration.

Arrivals follow an off/on pattern: the rate alternates between zero and a
level held for the whole on stage, with both stage durations drawn uniform
and each on level drawn once from a band of width 2*zeta around the mean.

Randomness comes from numpy's Philox counter generator (Philox4x64-10),
which takes an explicit key: we key every stream with (seed, stream_index)
so any single process of any replication can be regenerated in isolation,
bit for bit, on any platform.  Stream index convention:

    stream = 2 * replication + process      (process 0: queue 1 arrivals,
                                             process 1: queue 2 side street)

Per stage the generator is consumed in a fixed order: one uniform for the
off duration (times off_max), one for the on duration (times on_max), one
for the on level (mean * (1 + zeta * (2u - 1))).  The level draw happens
even when zeta = 0, so sweeping zeta with a fixed seed perturbs only the
levels, never the timing; that is what makes common-random-number
comparisons across zeta (and across controller modes) meaningful.
Realizations are prefix-stable: a longer horizon extends, never reshuffles,
the segments of a shorter one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace

import numpy as np

from .regulator import (
    CENTRALIZED,
    DECENTRALIZED,
    CycleRecord,
    GuardConfig,
    make_traffic_plant,
    run_closed_loop,
)
from .simcore import PiecewiseConstantRate, ServiceProfile


class ConfigError(ValueError):
    """Bad key, bad value, or bad combination in an experiment config."""


@dataclass(frozen=True, slots=True)
class OnOffSpec:
    """Distribution of one off/on arrival process."""

    mean_rate: float
    zeta: float
    off_max: float
    on_max: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean_rate) and self.mean_rate > 0.0):
            raise ValueError(f"mean_rate must be positive, got {self.mean_rate!r}")
        if not 0.0 <= self.zeta < 1.0:
            raise ValueError(f"zeta must lie in [0, 1), got {self.zeta!r}")
        for nm, v in (("off_max", self.off_max), ("on_max", self.on_max)):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{nm} must be positive, got {v!r}")


# The most stages drawn per generator call; any size gives the same realization.
_BLOCK = 1024

# The cap on a config's expected stages per arrival stream, horizon / mean stage.
MAX_STAGES = 10 ** 6  # about 50 times the default's 20,408


def gen_onoff(spec: OnOffSpec, seed: int, horizon: float, stream: int = 0) -> PiecewiseConstantRate:
    """One seeded realization of an off/on process over [0, horizon).

    Pure function of (spec, seed, stream): the Philox key is [seed, stream]
    and draws follow the fixed per-stage order documented in the module
    docstring, drawn in blocks of stages: of _BLOCK, or of 16 more than the
    horizon expects (horizon over the mean stage, as MAX_STAGES counts them)
    if that is fewer.  A stage is kept when its duration is positive and it
    starts before the horizon, so zero-length stages (a uniform draw of
    exactly 0.0) are skipped without consuming extra draws.
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    n = int(min(_BLOCK, horizon / ((spec.off_max + spec.on_max) / 2.0) + 16))
    blocks, end = [], 0.0
    while end < horizon:
        u = gen.random((n, 3))
        # [stage, off/on, epoch/rate]; the rate slots hold the durations first.
        seg = np.empty((n, 2, 2))
        dur = np.multiply(u[:, :2], (spec.off_max, spec.on_max), out=seg[:, :, 1])
        # Heading the sum with the previous block's exact end keeps the epochs
        # one sequential left fold, bit for bit the per-stage `t += duration`.
        run = np.add.accumulate(np.concatenate(([end], dur.ravel())))
        end = run[-1]
        seg[:, :, 0] = run[:-1].reshape(n, 2)
        keep = (dur > 0.0) & (seg[:, :, 0] < horizon)
        seg[:, 0, 1] = 0.0
        seg[:, 1, 1] = spec.mean_rate * (1.0 + spec.zeta * (2.0 * u[:, 2] - 1.0))
        blocks.append(np.compress(keep.ravel(), seg.reshape(-1, 2), axis=0))
    return PiecewiseConstantRate(np.concatenate(blocks), horizon)


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Full description of one experiment; field names double as the keys
    of the flat config-file format.

    The defaults reproduce the reference stochastic setup: unit light
    cycles, 20 of them per control cycle, 50 control cycles, bursty
    arrivals with mean 4.1 into queue 1 and a side street at one tenth of
    that, 90 percent of queue 1's outflow feeding queue 2, constant
    service at rate 5, targets (0.1, 0.1), and both red durations started
    at 0.8.

    The stage-duration bounds are calibrated so that the closed loop
    settles near red durations (0.31, 0.41): mean on fraction 0.357 puts
    the effective load at 1.46, the level that makes both time-averaged
    queue targets of 0.1 sit at those equilibria.
    """

    c1: float = 1.0
    c2: float = 1.0
    cycles_per_control: int = 20
    num_control_cycles: int = 50
    alpha1_mean: float = 4.1
    alpha1_zeta: float = 0.3
    alpha1_off_max: float = 0.063
    alpha1_on_max: float = 0.035
    alpha2_mean: float = 0.41
    alpha2_zeta: float = 0.3
    alpha2_off_max: float = 0.063
    alpha2_on_max: float = 0.035
    phi: float = 0.9
    beta_max1: float = 5.0
    beta_max2: float = 5.0
    service_mode: str = "constant"
    r1: float = 0.1
    r2: float = 0.1
    theta1_init: float = 0.8
    theta2_init: float = 0.8
    mode: str = CENTRALIZED
    eps_j: float = 1e-3
    step_cap: float = 0.25
    theta_min_frac: float = 0.02
    theta_max_frac: float = 0.98
    seed: int = 1
    replications: int = 10

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{f.name} must be finite, got {v!r}")
        if self.mode not in (CENTRALIZED, DECENTRALIZED):
            raise ConfigError(f"mode must be {CENTRALIZED!r} or {DECENTRALIZED!r}, got {self.mode!r}")
        if self.service_mode != "constant":
            raise ConfigError(
                "service_mode supports only 'constant' here; staircase service "
                "profiles carry per-step data and are built programmatically "
                "via ServiceProfile")
        for nm in ("cycles_per_control", "num_control_cycles", "replications"):
            v = getattr(self, nm)
            if v < 1:
                raise ConfigError(f"{nm} must be >= 1, got {v!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if self.seed >= 2 ** 64:
            raise ConfigError(f"seed must be < 2**64 (a uint64 Philox key), got {self.seed!r}")
        # A theta box reaching c would let the clamp put a red on the cycle end.
        if not self.theta_max_frac < 1.0:
            raise ConfigError(f"theta_max_frac must be < 1, got {self.theta_max_frac!r}")
        if not 0.0 < self.theta_min_frac < self.theta_max_frac:
            raise ConfigError(f"theta_min_frac must lie in (0, theta_max_frac="
                              f"{self.theta_max_frac!r}), got {self.theta_min_frac!r}")
        if not 0.0 <= self.phi <= 1.0:
            raise ConfigError(f"phi={self.phi!r} outside [0, 1]")
        for nm in ("c1", "c2", "beta_max1", "beta_max2", "eps_j", "step_cap",
                   "alpha1_mean", "alpha1_off_max", "alpha1_on_max",
                   "alpha2_mean", "alpha2_off_max", "alpha2_on_max"):
            v = getattr(self, nm)
            if not v > 0.0:
                raise ConfigError(f"{nm} must be > 0, got {v!r}")
        try:
            finite = math.isfinite(self.horizon())
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ConfigError(
                f"num_control_cycles={self.num_control_cycles!r} times cycles_per_control="
                f"{self.cycles_per_control!r} times c1={self.c1!r} overflows the horizon")
        for i in (1, 2):
            stage = (getattr(self, f"alpha{i}_off_max") + getattr(self, f"alpha{i}_on_max")) / 2.0
            if self.horizon() / stage > MAX_STAGES:
                raise ConfigError(f"num_control_cycles * cycles_per_control * c1 = {self.horizon()!r} "
                                  f"over (alpha{i}_off_max + alpha{i}_on_max) / 2 = {stage!r} expects "
                                  f"more than MAX_STAGES={MAX_STAGES} stages per stream")
        for nm in ("alpha1_zeta", "alpha2_zeta"):
            v = getattr(self, nm)
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"{nm} must lie in [0, 1), got {v!r}")
        # The guards scale these fractions by each cycle length; a product
        # that underflows must fail here, by the key's name.
        for c, cn in ((self.c1, "c1"), (self.c2, "c2")):
            if not self.step_cap * c > 0.0:
                raise ConfigError(f"step_cap={self.step_cap!r} times {cn}={c!r} underflows to 0")
            lo, hi = self.theta_min_frac * c, self.theta_max_frac * c
            if not 0.0 < lo < hi:
                raise ConfigError(f"theta_min_frac={self.theta_min_frac!r} times {cn}={c!r} "
                                  f"leaves no theta box: [{lo!r}, {hi!r}]")
        for nm in ("r1", "r2"):
            v = getattr(self, nm)
            if not v >= 0.0:
                raise ConfigError(f"{nm} must be >= 0, got {v!r}")
        for th, c, nm in ((self.theta1_init, self.c1, "theta1_init"),
                          (self.theta2_init, self.c2, "theta2_init")):
            if not 0.0 < th < c:
                raise ConfigError(f"{nm}={th!r} outside (0, {c!r})")

    def alpha1_spec(self) -> OnOffSpec:
        return OnOffSpec(self.alpha1_mean, self.alpha1_zeta,
                         self.alpha1_off_max, self.alpha1_on_max)

    def alpha2_spec(self) -> OnOffSpec:
        return OnOffSpec(self.alpha2_mean, self.alpha2_zeta,
                         self.alpha2_off_max, self.alpha2_on_max)

    def guards(self) -> GuardConfig:
        """The controller guards, each fraction scaled by its queue's cycle."""
        c1, c2 = self.c1, self.c2
        return GuardConfig(self.eps_j, (self.step_cap * c1, self.step_cap * c2),
                           (self.theta_min_frac * c1, self.theta_min_frac * c2),
                           (self.theta_max_frac * c1, self.theta_max_frac * c2))

    def service_profile(self) -> ServiceProfile:
        return ServiceProfile(self.beta_max1, self.beta_max2)

    def horizon(self) -> float:
        # The plant's product: its last window ends at num * (cpc * c1), and
        # (num * cpc) * c1 can round below that.
        return self.num_control_cycles * (self.cycles_per_control * self.c1)

    def arrival_pair(self, replication: int = 0) -> tuple[PiecewiseConstantRate, PiecewiseConstantRate]:
        """Both arrival realizations for one replication (streams 2r, 2r+1)."""
        h = self.horizon()
        return (
            gen_onoff(self.alpha1_spec(), self.seed, h, stream=2 * replication),
            gen_onoff(self.alpha2_spec(), self.seed, h, stream=2 * replication + 1),
        )


def default_paper_config() -> ExperimentConfig:
    """The reference stochastic setup; see ExperimentConfig's defaults."""
    return ExperimentConfig()


def _closed_loop(cfg: ExperimentConfig, arrivals: tuple[PiecewiseConstantRate, ...]) -> list[CycleRecord]:
    """The configured closed loop, run on one replication's arrival pair."""
    plant = make_traffic_plant(*arrivals, cfg.c1, cfg.c2, cfg.service_profile(),
                               cfg.phi, cfg.cycles_per_control)
    return run_closed_loop(plant, (cfg.r1, cfg.r2), (cfg.theta1_init, cfg.theta2_init),
                           cfg.num_control_cycles, cfg.mode, cfg.guards())


def run_replication(cfg: ExperimentConfig, replication: int = 0) -> list[CycleRecord]:
    """Run one seeded closed-loop replication of the configured experiment."""
    return _closed_loop(cfg, cfg.arrival_pair(replication))


def run_sweep(cfg: ExperimentConfig,
              zetas: Iterable[float]) -> list[tuple[ExperimentConfig, list[list[CycleRecord]]]]:
    """The noise sweep: (cell config, records per replication) for every zeta
    in `zetas` and both modes, in (zeta, mode) order with centralized first.

    A cell config is `cfg` with both arrival spreads set to zeta and its mode
    set, and its runs equal `run_replication(cell, rep)` bit for bit.  The
    arrivals do not depend on the mode, so each replication's pair is
    generated once and both modes run on it.
    """
    sweep = []
    for zeta in zetas:
        cells = [replace(cfg, alpha1_zeta=zeta, alpha2_zeta=zeta, mode=mode)
                 for mode in (CENTRALIZED, DECENTRALIZED)]
        runs = ([], [])
        for rep in range(cfg.replications):
            arrivals = cells[0].arrival_pair(rep)
            for cell, cell_runs in zip(cells, runs):
                cell_runs.append(_closed_loop(cell, arrivals))
            del arrivals  # let this pair go before the next one is generated
        sweep += zip(cells, runs)
    return sweep


# Control cycles before this index are transient and excluded from the
# summary means (maxima still cover every cycle).
TAIL_START = 10


def summarize(cfg: ExperimentConfig, runs: list[list[CycleRecord]]) -> tuple[float, float, float, float]:
    """The four per-cell statistics, averaged over replications.

    Per replication: absolute deviation of the post-transient mean of each
    output from its reference, and the maximum of each output over all
    cycles.  Every run needs at least TAIL_START records; table1 checks the
    configured cycle count up front.
    """
    err1 = err2 = mx1 = mx2 = 0.0
    for records in runs:
        if len(records) < TAIL_START:
            raise ValueError(f"summarize needs at least TAIL_START={TAIL_START} records per run, got {len(records)}")
        tail = records[TAIL_START - 1:]
        err1 += abs(sum(r.y[0] for r in tail) / len(tail) - cfg.r1)
        err2 += abs(sum(r.y[1] for r in tail) / len(tail) - cfg.r2)
        mx1 += max(r.y[0] for r in records)
        mx2 += max(r.y[1] for r in records)
    n = len(runs)
    return err1 / n, err2 / n, mx1 / n, mx2 / n


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat `key = value` format; '#' starts a comment.

    Unknown and duplicate keys are rejected with their line number; keys
    left out keep their defaults.  A value is read as its field's annotated type.
    """
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    kwargs: dict[str, object] = {}
    at_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in kwargs:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {at_line[key]})")
        at_line[key] = lineno
        if types[key] == "str":
            kwargs[key] = val
        elif types[key] == "int":
            try:
                kwargs[key] = int(val)
            except ValueError:
                raise ConfigError(f"line {lineno}: key {key!r} needs an integer, got {val!r}") from None
        else:
            try:
                kwargs[key] = float(val)
            except ValueError:
                raise ConfigError(f"line {lineno}: key {key!r} needs a number, got {val!r}") from None
    return ExperimentConfig(**kwargs)  # type: ignore[arg-type]


def load_config(path: str) -> ExperimentConfig:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # A byte-order mark would otherwise prefix the first key.
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: byte {exc.start} ({data[exc.start]:#04x}) is not UTF-8") from None
    return parse_config(text)


def config_text(cfg: ExperimentConfig) -> str:
    """Render a config as the flat file format, every key explicit."""
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        lines.append(f"{f.name} = {v}" if isinstance(v, str) else f"{f.name} = {v!r}")
    return "\n".join(lines) + "\n"
