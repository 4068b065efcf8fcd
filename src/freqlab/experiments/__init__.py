"""Scenario runners that turn the growth and approximation estimates
into reproducible numerical checks with margins, fitted constants, and
refinement-stability verdicts."""

from .base import (
    ExperimentReport,
    FittedConstant,
    MarginRow,
    RegimeError,
    ScenarioConfig,
    ScenarioError,
    Verdict,
    build_boundary,
    build_field,
)
from .registry import (
    SCENARIOS,
    default_config,
    default_sweep,
    registered_scenarios,
    run_scenario,
)

__all__ = [
    "ExperimentReport",
    "FittedConstant",
    "MarginRow",
    "RegimeError",
    "SCENARIOS",
    "ScenarioConfig",
    "ScenarioError",
    "Verdict",
    "build_boundary",
    "build_field",
    "default_config",
    "default_sweep",
    "registered_scenarios",
    "run_scenario",
]
