"""Hybrid contention/reservation medium-access model, optimizer and simulator."""

from .analytics import (
    DegenerateMixtureError,
    DivergentExpectationError,
    expected_tcop,
    tcop_hessian,
)
from .domain import (
    ClassConfig,
    ConfigError,
    Scenario,
    TimingConstants,
    load_scenario,
)
from .metrics import (
    EnergyBreakdown,
    channel_utility_of,
    write_device_csv,
    write_frame_csv,
)
from .optimizer import (
    FrameDecision,
    FramePlan,
    channel_utility,
    optimize,
    plan_for,
)
from .simulator import SimReport, run_csma, run_hybrid, run_tdma

__all__ = [
    "ClassConfig", "ConfigError", "DegenerateMixtureError",
    "DivergentExpectationError", "EnergyBreakdown", "FrameDecision",
    "FramePlan", "Scenario", "SimReport",
    "TimingConstants", "channel_utility",
    "channel_utility_of",
    "expected_tcop", "load_scenario", "optimize",
    "plan_for", "run_csma", "run_hybrid", "run_tdma",
    "tcop_hessian", "write_device_csv", "write_frame_csv",
]

__version__ = "0.1.0"
