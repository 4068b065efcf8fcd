"""Scenario runners that turn the growth and approximation estimates
into reproducible numerical checks with margins, fitted constants, and
refinement-stability verdicts."""

from .anisotropic import run_approx_v, run_dichotomy_anisotropic, run_freq_cascade
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
from .isotropic import (
    run_dichot3,
    run_eps_approx_iso,
    run_iso_cascade,
    run_key_approx,
    run_thin_annulus,
    run_tildeN_comparison,
)
from .reduction import run_schroedinger_reduction
from .registry import (
    SCENARIOS,
    default_config,
    default_sweep,
    registered_scenarios,
    run_scenario,
)
from .stability import run_stability_suite

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
    "run_approx_v",
    "run_dichot3",
    "run_dichotomy_anisotropic",
    "run_eps_approx_iso",
    "run_freq_cascade",
    "run_iso_cascade",
    "run_key_approx",
    "run_scenario",
    "run_schroedinger_reduction",
    "run_stability_suite",
    "run_thin_annulus",
    "run_tildeN_comparison",
]
