"""Scenario registry: canonical ids, default configurations, and the
scenario dispatcher."""

from __future__ import annotations

from .anisotropic import run_approx_v, run_dichotomy_anisotropic, run_freq_cascade
from .base import ExperimentReport, ScenarioConfig, ScenarioError
from .isotropic import (
    run_dichot3,
    run_eps_approx_iso,
    run_iso_cascade,
    run_key_approx,
    run_thin_annulus,
    run_tildeN_comparison,
)
from .reduction import run_schroedinger_reduction
from .stability import run_stability_suite

__all__ = ["SCENARIOS", "default_config", "default_sweep",
           "registered_scenarios", "run_scenario"]

SCENARIOS = {
    "dichot": run_dichotomy_anisotropic,
    "approx_v": run_approx_v,
    "freq_cascade": run_freq_cascade,
    "eps_approx": run_eps_approx_iso,
    "tildeN": run_tildeN_comparison,
    "thin_annulus": run_thin_annulus,
    "key_approx": run_key_approx,
    "dichot3": run_dichot3,
    "iso_cascade": run_iso_cascade,
    "schroedinger": run_schroedinger_reduction,
    "stability": run_stability_suite,
}

_LOG_CUSP = {"kind": "log_power", "p": 1.0}

_DEFAULTS = {
    "dichot": dict(
        field_spec={"kind": "cusp", "modulus": _LOG_CUSP,
                    "amplitude": 0.15},
        boundary_spec={"kind": "mixture", "terms": [[3, 1.0], [5, 0.4]]},
        radii=(0.9,)),
    "approx_v": dict(
        field_spec={"kind": "cusp", "modulus": _LOG_CUSP,
                    "amplitude": 0.1},
        boundary_spec={"kind": "harmonic", "degree": 3},
        radii=(0.85,), eps=0.1),
    "freq_cascade": dict(
        field_spec={"kind": "cusp", "modulus": _LOG_CUSP,
                    "amplitude": 0.15},
        boundary_spec={"kind": "mixture", "terms": [[3, 1.0], [5, 0.4]]},
        radii=(0.9,), r_min=0.02, t_floor=0.02),
    "eps_approx": dict(
        field_spec={"kind": "affine", "value": 1.0,
                    "gradient": [0.05, 0.0]},
        boundary_spec={"kind": "harmonic", "degree": 4},
        radii=(0.9,), eps=0.05),
    "tildeN": dict(
        field_spec={"kind": "holder", "alpha": 0.75, "amplitude": 0.05,
                    "seed": 7},
        boundary_spec={"kind": "harmonic", "degree": 3},
        radii=(0.9,), eps=0.05),
    "thin_annulus": dict(
        field_spec={"kind": "holder", "alpha": 0.75, "amplitude": 0.05,
                    "seed": 11},
        boundary_spec={"kind": "harmonic", "degree": 6},
        radii=(0.9,), a_log=1.2, gamma=0.75),
    "key_approx": dict(
        field_spec={"kind": "holder", "alpha": 0.75, "amplitude": 0.03,
                    "seed": 5},
        boundary_spec={"kind": "harmonic", "degree": 6},
        radii=(0.9,), a_log=2.75, r_min=0.025, eps=0.05),
    "dichot3": dict(
        field_spec={"kind": "bump", "eps": 0.1, "r_in": 0.3},
        boundary_spec={"kind": "harmonic", "degree": 3},
        radii=(0.05,), r_min=0.01, n_r=97),
    "iso_cascade": dict(
        field_spec={"kind": "holder", "alpha": 0.75, "amplitude": 0.05,
                    "seed": 17},
        boundary_spec={"kind": "mixture", "terms": [[1, 0.7], [3, 1.0]]},
        radii=(0.8, 0.05), r_min=0.04),
    "schroedinger": dict(
        field_spec={"kind": "holder", "alpha": 0.75, "amplitude": 0.05,
                    "seed": 19},
        boundary_spec={"kind": "mixture", "terms": [[1, 1.0], [2, 0.8]]},
        potential_spec={"kind": "constant", "value": 1.0},
        radii=(0.2,), n_r=49, n_theta=96),
    "stability": dict(
        field_spec={"kind": "holder", "alpha": 0.75, "amplitude": 0.08,
                    "seed": 23},
        boundary_spec={"kind": "harmonic", "degree": 5},
        pair_spec={"mode": "bump", "eps": 0.05, "r_in": 0.5},
        radii=(0.5,)),
}


def registered_scenarios() -> tuple:
    return tuple(SCENARIOS)


def default_config(scenario: str, **overrides) -> ScenarioConfig:
    if scenario not in _DEFAULTS:
        raise ScenarioError(f"unknown scenario {scenario!r}; registered: "
                            f"{', '.join(SCENARIOS)}")
    kwargs = dict(_DEFAULTS[scenario])
    kwargs.update(overrides)
    return ScenarioConfig(scenario=scenario, **kwargs)


def default_sweep(**overrides) -> list:
    return [default_config(name, **overrides) for name in SCENARIOS]


def run_scenario(cfg: ScenarioConfig) -> ExperimentReport:
    try:
        runner = SCENARIOS[cfg.scenario]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {cfg.scenario!r}; registered: "
            f"{', '.join(SCENARIOS)}") from None
    return runner(cfg)
