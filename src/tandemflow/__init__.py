"""Exact simulation and sample-path gradient control of two tandem fluid
queues gated by fixed-cycle traffic lights."""

__version__ = "0.1.0"

from .regulator import (
    CENTRALIZED,
    DECENTRALIZED,
    CycleRecord,
    GuardConfig,
    make_traffic_plant,
    run_closed_loop,
)
from .scenario import (
    ConfigError,
    ExperimentConfig,
    OnOffSpec,
    default_paper_config,
    gen_onoff,
    load_config,
    parse_config,
    run_replication,
    run_sweep,
)
from .simcore import (
    JacobianEstimate,
    PhasePlan,
    PiecewiseConstantRate,
    ServiceProfile,
    TandemTrajectory,
    constant_rate,
    simulate,
)

__all__ = [
    "CENTRALIZED",
    "DECENTRALIZED",
    "ConfigError",
    "CycleRecord",
    "ExperimentConfig",
    "GuardConfig",
    "JacobianEstimate",
    "OnOffSpec",
    "PhasePlan",
    "PiecewiseConstantRate",
    "ServiceProfile",
    "TandemTrajectory",
    "constant_rate",
    "default_paper_config",
    "gen_onoff",
    "load_config",
    "make_traffic_plant",
    "parse_config",
    "run_closed_loop",
    "run_replication",
    "run_sweep",
    "simulate",
    "__version__",
]
