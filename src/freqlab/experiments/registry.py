"""Scenario registry: canonical ids, default configurations, and the
scenario dispatcher."""

from __future__ import annotations

from .anisotropic import (
    approx_v_eval,
    dichot_eval,
    freq_cascade_eval,
    freq_cascade_prepare,
)
from .base import (
    ExperimentReport,
    ScenarioConfig,
    ScenarioError,
    paired_report,
    prepare_field,
    prepare_isotropic,
)
from .isotropic import (
    dichot3_eval,
    eps_approx_eval,
    iso_cascade_eval,
    iso_cascade_prepare,
    key_approx_eval,
    thin_annulus_eval,
    tilden_eval,
)
from .reduction import schroedinger_eval, schroedinger_prepare
from .stability import stability_eval, stability_prepare

__all__ = ["SCENARIOS", "default_config", "default_sweep",
           "registered_scenarios", "run_scenario"]

_LOG_CUSP = {"kind": "log_power", "p": 1.0}

# name -> (grid-independent prepare, per-grid evaluator, defaults)
SCENARIOS = {
    "dichot": (prepare_field, dichot_eval, dict(
        field_spec={"kind": "cusp", "modulus": _LOG_CUSP,
                    "amplitude": 0.15},
        boundary_spec={"kind": "mixture", "terms": [[3, 1.0], [5, 0.4]]},
        radii=(0.9,))),
    "approx_v": (prepare_field, approx_v_eval, dict(
        field_spec={"kind": "cusp", "modulus": _LOG_CUSP,
                    "amplitude": 0.1},
        boundary_spec={"kind": "harmonic", "degree": 3},
        radii=(0.85,), eps=0.1)),
    "freq_cascade": (freq_cascade_prepare, freq_cascade_eval, dict(
        field_spec={"kind": "cusp", "modulus": _LOG_CUSP,
                    "amplitude": 0.15},
        boundary_spec={"kind": "mixture", "terms": [[3, 1.0], [5, 0.4]]},
        radii=(0.9,), r_min=0.02, t_floor=0.02)),
    "eps_approx": (prepare_isotropic, eps_approx_eval, dict(
        field_spec={"kind": "affine", "value": 1.0,
                    "gradient": [0.05, 0.0]},
        boundary_spec={"kind": "harmonic", "degree": 4},
        radii=(0.9,), eps=0.05)),
    "tildeN": (prepare_isotropic, tilden_eval, dict(
        field_spec={"kind": "holder", "alpha": 0.75, "amplitude": 0.05,
                    "seed": 7},
        boundary_spec={"kind": "harmonic", "degree": 3},
        radii=(0.9,), eps=0.05)),
    "thin_annulus": (prepare_isotropic, thin_annulus_eval, dict(
        field_spec={"kind": "holder", "alpha": 0.75, "amplitude": 0.05,
                    "seed": 11},
        boundary_spec={"kind": "harmonic", "degree": 6},
        radii=(0.9,), a_log=1.2, gamma=0.75)),
    "key_approx": (prepare_isotropic, key_approx_eval, dict(
        field_spec={"kind": "holder", "alpha": 0.75, "amplitude": 0.03,
                    "seed": 5},
        boundary_spec={"kind": "harmonic", "degree": 6},
        radii=(0.9,), a_log=2.75, r_min=0.025, eps=0.05)),
    "dichot3": (prepare_isotropic, dichot3_eval, dict(
        field_spec={"kind": "bump", "eps": 0.1, "r_in": 0.3},
        boundary_spec={"kind": "harmonic", "degree": 3},
        radii=(0.05,), r_min=0.01, n_r=97)),
    "iso_cascade": (iso_cascade_prepare, iso_cascade_eval, dict(
        field_spec={"kind": "holder", "alpha": 0.75, "amplitude": 0.05,
                    "seed": 17},
        boundary_spec={"kind": "mixture", "terms": [[1, 0.7], [3, 1.0]]},
        radii=(0.8, 0.05), r_min=0.04)),
    "schroedinger": (schroedinger_prepare, schroedinger_eval, dict(
        field_spec={"kind": "holder", "alpha": 0.75, "amplitude": 0.05,
                    "seed": 19},
        boundary_spec={"kind": "mixture", "terms": [[1, 1.0], [2, 0.8]]},
        potential_spec={"kind": "constant", "value": 1.0},
        radii=(0.2,), n_r=49, n_theta=96)),
    "stability": (stability_prepare, stability_eval, dict(
        field_spec={"kind": "holder", "alpha": 0.75, "amplitude": 0.08,
                    "seed": 23},
        boundary_spec={"kind": "harmonic", "degree": 5},
        pair_spec={"mode": "bump", "eps": 0.05, "r_in": 0.5},
        radii=(0.5,))),
}


def _entry(scenario: str) -> tuple:
    try:
        return SCENARIOS[scenario]
    except (KeyError, TypeError):  # TypeError: a config's list or object
        raise ScenarioError(f"unknown scenario {scenario!r}; registered: "
                            f"{', '.join(SCENARIOS)}") from None


def registered_scenarios() -> tuple:
    return tuple(SCENARIOS)


def default_config(scenario: str, **overrides) -> ScenarioConfig:
    return ScenarioConfig.from_dict(
        {"scenario": scenario, **_entry(scenario)[2], **overrides})


def default_sweep(**overrides) -> list:
    return [default_config(name, **overrides) for name in SCENARIOS]


def run_scenario(cfg: ScenarioConfig) -> ExperimentReport:
    prepare, evaluate, _ = _entry(cfg.scenario)
    return paired_report(cfg, prepare, evaluate)
