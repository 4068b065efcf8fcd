"""Tests for the scenario harness: config validation, branch logic,
trivial closed-form cases per scenario, and report invariants."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from freqlab.experiments import (
    RegimeError,
    ScenarioConfig,
    ScenarioError,
    Verdict,
    default_config,
    default_sweep,
    registered_scenarios,
    run_scenario,
)
from freqlab.experiments.base import (
    BOUNDARY_KINDS,
    FIELD_KINDS,
    GROSS_FRACTION,
    MODULUS_KINDS,
    PAIR_MODES,
    POTENTIAL_KINDS,
    REL_TOL,
    SCENARIO_KEYS,
    STABILITY_LIMIT,
    FittedConstant,
    MarginRow,
    decide,
)
from freqlab.io import canonical_json, check_config

LOW = {"n_r": 33, "n_theta": 64}
MID = {"n_r": 49, "n_theta": 96}

ALL_SCENARIOS = {
    "dichot", "approx_v", "freq_cascade", "eps_approx", "tildeN",
    "thin_annulus", "key_approx", "dichot3", "iso_cascade",
    "schroedinger", "stability",
}

SMOOTH = {"kind": "constant", "value": 1.0}


# -- configuration -------------------------------------------------------


def test_config_validates_gamma_and_p():
    with pytest.raises(ValueError):
        default_config("dichot", gamma=0.0)
    with pytest.raises(ValueError):
        default_config("dichot", gamma=1.0)
    with pytest.raises(ValueError):
        default_config("dichot", p=3.0)


def test_config_validates_radii():
    with pytest.raises(ValueError):
        default_config("dichot", radii=(0.5, 0.9))
    with pytest.raises(ValueError):
        default_config("dichot", radii=(1.2,))
    with pytest.raises(ValueError):
        default_config("dichot", radii=())


def test_config_validates_grid():
    with pytest.raises(ValueError):
        default_config("dichot", n_r=5)
    with pytest.raises(ValueError):
        default_config("dichot", n_theta=8)
    with pytest.raises(ValueError):
        default_config("dichot", t_floor=0.0)


def test_config_roundtrip_and_unknown_keys():
    cfg = default_config("tildeN", eps=0.07, seed=9)
    back = ScenarioConfig.from_dict(cfg.to_dict())
    assert back == cfg
    bad = cfg.to_dict()
    bad["slack"] = 1.0
    with pytest.raises(ValueError, match="unknown config keys"):
        ScenarioConfig.from_dict(bad)


_FLOAT = st.floats(0.01, 0.99)
_SPEC = st.dictionaries(st.sampled_from(["kind", "mode", "eps", "value"]),
                        st.integers(-3, 3) | st.text(max_size=4), max_size=3)
_OVERRIDES = st.fixed_dictionaries({}, optional={
    "field_spec": _SPEC,
    "pair_spec": st.none() | _SPEC,
    "potential_spec": st.none() | _SPEC,
    "n_r": st.integers(9, 300),
    "n_theta": st.integers(16, 600),
    "r_min": st.none() | _FLOAT,
    "radii": st.lists(_FLOAT, min_size=1, max_size=4, unique=True).map(
        lambda rs: sorted(rs, reverse=True)),
    "t_floor": _FLOAT,
    "n0": st.floats(0.1, 50.0),
    "c1": st.floats(0.1, 50.0),
    "a_log": st.floats(0.1, 10.0),
    "p": st.floats(4.0, 12.0),
    "gamma": _FLOAT,
    "eps": st.floats(0.0, 1.0),
    "delta": st.floats(0.0, 1.0),
    "seed": st.integers(0, 2 ** 32),
})


@given(name=st.sampled_from(sorted(ALL_SCENARIOS)), overrides=_OVERRIDES)
def test_config_dict_roundtrip_property(name, overrides):
    cfg = default_config(name, **overrides)
    data = cfg.to_dict()
    assert set(data) == {f.name for f in dataclasses.fields(cfg)}
    assert json.loads(json.dumps(data)) == data
    assert ScenarioConfig.from_dict(data) == cfg
    data["field_spec"]["extra"] = 1
    assert "extra" not in cfg.field_spec


def test_registered_defaults_pass_their_tables():
    # no table rejects a shipped default, down to a cusp field's modulus
    checked = []
    for name in registered_scenarios():
        cfg = check_config(default_config(name).to_dict(), SCENARIO_KEYS)
        specs = [("field_spec", FIELD_KINDS),
                 ("boundary_spec", BOUNDARY_KINDS),
                 ("pair_spec", PAIR_MODES),
                 ("potential_spec", POTENTIAL_KINDS)]
        for key, table in specs:
            if cfg[key] is not None:
                spec = check_config(cfg[key], table, key)
                checked.append(key)
                if spec.get("kind") == "cusp":
                    check_config(spec["modulus"], MODULUS_KINDS, key)
                    checked.append("modulus")
    assert set(checked) == {"field_spec", "boundary_spec", "pair_spec",
                            "potential_spec", "modulus"}


def test_config_smallness_warnings():
    cfg = default_config("tildeN", eps=0.2)
    assert any("eps" in w for w in cfg.smallness_warnings())
    assert default_config("tildeN", eps=0.01).smallness_warnings() == []


def test_config_is_frozen():
    cfg = default_config("dichot")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.eps = 0.5


# -- registry ------------------------------------------------------------


def test_registered_scenarios_complete():
    assert set(registered_scenarios()) == ALL_SCENARIOS


def test_unknown_scenario_rejected():
    with pytest.raises(ScenarioError, match="unknown scenario") as by_name:
        default_config("vanishing")
    cfg = dataclasses.replace(default_config("dichot"), scenario="vanishing")
    with pytest.raises(ScenarioError) as by_run:
        run_scenario(cfg)
    assert str(by_run.value) == str(by_name.value)


def test_default_sweep_covers_registry():
    sweep = default_sweep()
    assert [c.scenario for c in sweep] == list(registered_scenarios())


# name -> (prepare's hypothesis checks it must run once, config overrides)
_ONCE = {
    "approx_v": ((), {"field_spec": SMOOTH}),
    "freq_cascade": (("classify_osgood", "check_phi_integrable",
                      "check_submultiplicative_psi"), {}),
    "dichot3": (("certify_holder",), {}),
    "iso_cascade": (("certify_holder",), {}),
    "schroedinger": (("certify_holder",), {}),
    "stability": ((), {}),
}


@pytest.mark.parametrize("name", sorted(_ONCE))
def test_grid_independent_setup_runs_once(monkeypatch, name):
    from freqlab.experiments import anisotropic, base

    checks, overrides = _ONCE[name]
    calls = {}

    def count(module, attr):
        original = getattr(module, attr)

        def counted(*args, **kwargs):
            calls[attr] = calls.get(attr, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)

    for attr in ("_field_from_spec", "build_boundary", "certify_holder"):
        count(base, attr)
    for attr in ("classify_osgood", "check_phi_integrable",
                 "check_submultiplicative_psi"):
        count(anisotropic, attr)
    rep = run_scenario(default_config(name, **overrides, **LOW))
    # the refined run happened, on the same prepared setup
    assert rep.margins and "refined" in rep.meta
    assert calls == {"_field_from_spec": 1, "build_boundary": 1,
                     **{attr: 1 for attr in checks}}


# -- anisotropic scenarios -----------------------------------------------


def test_dichot_identity_constant_frequency():
    rep = run_scenario(default_config(
        "dichot", field_spec={"kind": "identity"},
        boundary_spec={"kind": "harmonic", "degree": 3}, **LOW))
    assert rep.verdict is Verdict.CONSISTENT
    assert abs(rep.meta["N"] - 3.0) < 0.05
    assert rep.meta["gradient_distance_ratio"] < 1e-10
    assert rep.fitted["dichotomy_c"].value == 0.0
    for m in rep.margins:
        assert m.margin > 0.0


def test_dichot_low_frequency_branch():
    rep = run_scenario(default_config(
        "dichot", boundary_spec={"kind": "harmonic", "degree": 1},
        n0=5.0, **LOW))
    assert rep.verdict is Verdict.ALTERNATIVE_ONE
    assert rep.margins == []
    assert rep.violations


def test_approx_v_smooth_field_zero_gap():
    rep = run_scenario(default_config("approx_v", field_spec=SMOOTH, **LOW))
    assert rep.verdict is Verdict.CONSISTENT
    grad = [m for m in rep.margins if m.name == "gradient distance"]
    assert grad and grad[0].lhs < 1e-10
    assert rep.fitted["approx_c"].value < 1e-20


def test_approx_v_rejects_oversized_mollification():
    with pytest.raises(ScenarioError):
        run_scenario(default_config("approx_v", eps=0.4, radii=(0.85,), **LOW))


def test_freq_cascade_identity_bound():
    # a trace that misses the floor branches to Inconsistent
    rep = run_scenario(default_config(
        "freq_cascade", field_spec={"kind": "identity"},
        boundary_spec={"kind": "harmonic", "degree": 3}))
    assert rep.verdict is Verdict.CONSISTENT
    sup_n = max(rep.meta["frequencies"])
    assert abs(sup_n - 3.0) < 0.05
    assert rep.meta["bound"] >= sup_n


def test_freq_cascade_nonosgood_gate():
    rep = run_scenario(default_config(
        "freq_cascade",
        field_spec={"kind": "cusp", "modulus": {"kind": "power", "alpha": 0.7},
                    "amplitude": 0.1, "isotropic": False}, **LOW))
    assert rep.verdict is Verdict.HYPOTHESIS_UNMET
    assert "Osgood" in rep.violations[0]
    assert rep.margins == []


# -- isotropic scenarios ---------------------------------------------------


def test_eps_approx_homogeneous_exact():
    rep = run_scenario(default_config("eps_approx", field_spec=SMOOTH, **LOW))
    assert rep.verdict is Verdict.CONSISTENT
    by_name = {m.name: m for m in rep.margins}
    assert by_name["gradient distance"].lhs < 1e-12
    assert by_name["trace gap s=0"].lhs < 1e-12
    assert rep.fitted["grad_c"].value < 1e-20


def test_eps_approx_requires_isotropic_field():
    with pytest.raises(ScenarioError, match="isotropic"):
        run_scenario(default_config(
            "eps_approx", field_spec={"kind": "identity"}, **LOW))


def test_tildeN_constant_coefficients():
    rep = run_scenario(default_config("tildeN", field_spec=SMOOTH, **MID))
    assert rep.verdict is Verdict.CONSISTENT
    assert abs(rep.meta["two_scale s=1"] - rep.meta["N"]) < 1e-2
    assert rep.meta["gamma_hat s=1"] > 0.99
    assert rep.meta["eps_measured"] < 1e-12


def test_thin_annulus_closed_form_ratio():
    rep = run_scenario(default_config(
        "thin_annulus", field_spec=SMOOTH,
        boundary_spec={"kind": "harmonic", "degree": 6}, **MID))
    assert rep.verdict is Verdict.CONSISTENT
    k = 6
    expected = (rep.meta["r_a"] / rep.meta["r"]) ** (2 * k)
    assert rep.meta["energy_ratio"] == pytest.approx(expected, rel=0.05)
    assert rep.meta["gamma_hat"] > 0.99


def test_thin_annulus_gamma_branch():
    rep = run_scenario(default_config(
        "thin_annulus", field_spec=SMOOTH, n0=1.0, gamma=0.9,
        boundary_spec={"kind": "mixture", "terms": [[1, 1.0], [6, 0.5]]},
        **LOW))
    assert rep.verdict is Verdict.ALTERNATIVE_ONE
    assert "gamma-good" in rep.violations[0]


def test_key_approx_identity_zero_excess():
    rep = run_scenario(default_config(
        "key_approx", field_spec=SMOOTH,
        boundary_spec={"kind": "harmonic", "degree": 8}, **MID))
    assert rep.verdict is Verdict.CONSISTENT
    assert abs(rep.meta["excess s=1"]) < 1e-6
    assert abs(rep.meta["excess s=0.5"]) < 1e-6
    assert rep.meta["measured_exponent"] >= rep.meta["required_exponent"]


def test_key_approx_skips_when_decay_unverifiable():
    rep = run_scenario(default_config(
        "key_approx", field_spec=SMOOTH,
        boundary_spec={"kind": "harmonic", "degree": 1}, **MID))
    assert rep.verdict is Verdict.SKIPPED
    rep = run_scenario(default_config(
        "key_approx", field_spec=SMOOTH, r_min=0.06,
        boundary_spec={"kind": "harmonic", "degree": 2}, **MID))
    assert rep.verdict is Verdict.SKIPPED
    assert rep.violations


def test_dichot3_smooth_window():
    rep = run_scenario(default_config(
        "dichot3", field_spec=SMOOTH, radii=(0.1,), r_min=0.01,
        boundary_spec={"kind": "harmonic", "degree": 2},
        n_r=65, n_theta=96))
    assert rep.verdict is Verdict.CONSISTENT
    assert rep.fitted["dichot3_c"].value == 0.0


def test_dichot3_low_frequency_branch():
    rep = run_scenario(default_config(
        "dichot3", field_spec=SMOOTH, radii=(0.1,), r_min=0.01,
        boundary_spec={"kind": "harmonic", "degree": 1},
        n_r=65, n_theta=96))
    assert rep.verdict is Verdict.ALTERNATIVE_ONE


def test_iso_cascade_constant_profile():
    rep = run_scenario(default_config(
        "iso_cascade", field_spec=SMOOTH,
        boundary_spec={"kind": "harmonic", "degree": 3},
        radii=(0.8, 0.1), **MID))
    assert rep.verdict is Verdict.CONSISTENT
    assert abs(rep.meta["sup_N"] - 3.0) < 0.05
    assert abs(rep.fitted["profile_slope"].value) < 0.05


# -- reduction and stability ----------------------------------------------


def test_schroedinger_zero_potential_exact():
    rep = run_scenario(default_config(
        "schroedinger", potential_spec={"kind": "constant", "value": 0.0},
        **LOW))
    assert rep.verdict is Verdict.CONSISTENT
    assert rep.meta["min_v"] == pytest.approx(2.0, abs=1e-9)
    for ratio in rep.meta["frequency_ratios"]:
        assert ratio == pytest.approx(1.0, abs=1e-6)


def test_schroedinger_unit_potential():
    rep = run_scenario(default_config(
        "schroedinger", potential_spec={"kind": "constant", "value": 1.0},
        **LOW))
    assert rep.verdict is Verdict.CONSISTENT
    assert 1.0 <= rep.meta["min_v"] <= 2.0
    for ratio in rep.meta["frequency_ratios"]:
        assert 1.0 / 3.0 <= ratio <= 3.0


def test_schroedinger_regime_error():
    with pytest.raises(RegimeError) as err:
        run_scenario(default_config(
            "schroedinger", field_spec=SMOOTH, radii=(0.9,),
            potential_spec={"kind": "constant", "value": -12.0}, **LOW))
    # the comparison solution first vanishes where the Bessel zero
    # j_0 / sqrt(|V|) falls inside the disk
    assert err.value.max_radius == pytest.approx(2.404826 / math.sqrt(12.0),
                                                 abs=0.05)
    assert 0.3 < err.value.max_radius < 0.9


def test_stability_identical_pair_all_zero():
    rep = run_scenario(default_config(
        "stability", pair_spec={"mode": "same"}, **LOW))
    assert rep.verdict is Verdict.CONSISTENT
    for m in rep.margins:
        if m.name != "energy identity":
            assert m.lhs < 1e-12


def test_stability_scaled_pair_same_solution():
    rep = run_scenario(default_config(
        "stability", pair_spec={"mode": "scaled"}, **LOW))
    assert rep.verdict is Verdict.CONSISTENT
    by_name = {m.name: m for m in rep.margins}
    assert by_name["closeness bound"].lhs < 1e-10


def test_stability_bump_pair():
    rep = run_scenario(default_config("stability", **LOW))
    assert rep.verdict is Verdict.CONSISTENT
    assert rep.meta["eps_hat"] > 0.0


@pytest.mark.parametrize("name", ["schroedinger", "stability"])
def test_one_assembly_per_solve(monkeypatch, name):
    # every energy is read from a solution that owns its assembly
    import freqlab.solver as solver
    from freqlab.experiments import base, reduction

    counts = {"solves": 0, "assemblies": 0}

    def counted_solve(*args, **kwargs):
        counts["solves"] += 1
        return solver.solve_dirichlet(*args, **kwargs)

    class CountedAssembly(solver._Assembly):
        def __init__(self, *args, **kwargs):
            counts["assemblies"] += 1
            super().__init__(*args, **kwargs)

    for module in (base, reduction):
        monkeypatch.setattr(module, "solve_dirichlet", counted_solve)
    monkeypatch.setattr(solver, "_Assembly", CountedAssembly)
    run_scenario(default_config(name, **LOW))
    assert counts["solves"] >= 4
    assert counts["assemblies"] == counts["solves"]


# -- report invariants -----------------------------------------------------


def test_margins_pair_with_refinement():
    rep = run_scenario(default_config("eps_approx", **LOW))
    assert rep.margins
    for m in rep.margins:
        assert math.isfinite(m.refined_margin)
        assert m.margin == pytest.approx(m.rhs - m.lhs, abs=1e-12)
    for fit in rep.fitted.values():
        assert math.isfinite(fit.refined_value)


def test_report_serializes_to_json():
    # pins the report.json layout: the verdict's value, six fields per
    # margin and four per fitted constant, rel_delta among them
    rep = run_scenario(default_config("eps_approx", **LOW))
    expected = {
        "scenario": "eps_approx",
        "verdict": "Consistent",
        "margins": [{"name": m.name, "radius": m.radius, "lhs": m.lhs,
                     "rhs": m.rhs, "margin": m.margin,
                     "refined_margin": m.refined_margin}
                    for m in rep.margins],
        "fitted": {k: {"name": v.name, "value": v.value,
                       "refined_value": v.refined_value,
                       "rel_delta": v.rel_delta}
                   for k, v in rep.fitted.items()},
        "violations": rep.violations,
        "meta": rep.meta,
        "warnings": rep.warnings,
    }
    assert rep.margins and rep.fitted
    assert json.loads(canonical_json(rep)) == expected


def test_scalar_invariance_of_margins():
    base = {"kind": "mixture", "terms": [[4, 1.0]]}
    scaled = {"kind": "mixture", "terms": [[4, 137.0]]}
    rep_a = run_scenario(default_config("eps_approx", boundary_spec=base,
                                        **LOW))
    rep_b = run_scenario(default_config("eps_approx", boundary_spec=scaled,
                                        **LOW))
    for ma, mb in zip(rep_a.margins, rep_b.margins):
        assert ma.name == mb.name
        np.testing.assert_allclose(mb.margin, ma.margin,
                                   rtol=1e-9, atol=1e-12)
    for name, fit in rep_a.fitted.items():
        np.testing.assert_allclose(rep_b.fitted[name].value, fit.value,
                                   rtol=1e-9, atol=1e-12)


def test_every_run_ends_in_one_verdict():
    reports = [
        run_scenario(default_config("eps_approx", **LOW)),
        run_scenario(default_config("dichot", n0=50.0, **LOW)),
        run_scenario(default_config(
            "freq_cascade",
            field_spec={"kind": "cusp",
                        "modulus": {"kind": "power", "alpha": 0.5},
                        "amplitude": 0.1, "isotropic": False}, **LOW)),
    ]
    for rep in reports:
        assert isinstance(rep.verdict, Verdict)
        if rep.verdict is not Verdict.CONSISTENT:
            assert rep.violations


# -- the decision rule at its thresholds ------------------------------------


def _row(margin, lhs=2.0, rhs=1.0):
    return MarginRow("bound", 0.5, lhs, rhs, margin, margin)


def _fit(rel_delta):
    # a fit whose drift is rel_delta exactly; 1 -> 0.75 drifts by 0.25
    fc = FittedConstant("c", 1.0, 0.75)
    object.__setattr__(fc, "rel_delta", rel_delta)
    return fc


def _ulps(x):
    return np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)


def test_fit_drift_of_a_quarter_is_exact():
    assert FittedConstant("c", 1.0, 0.75).rel_delta == STABILITY_LIMIT == 0.25


def test_decide_row_at_the_noise_allowance():
    # scale max(|lhs|, |rhs|) = 2; a margin of -REL_TOL times it passes
    below, at, above = _ulps(-REL_TOL * 2.0)
    assert decide([_row(at)], {}) == (Verdict.CONSISTENT, [])
    assert decide([_row(above)], {}) == (Verdict.CONSISTENT, [])
    verdict, violations = decide([_row(below)], {})
    assert verdict is Verdict.MARGINAL_VIOLATIONS
    assert violations == [
        f"bound at r=0.5: margin {below:.3e} (scale 2.000e+00)"]
    # the scale is the larger side, whichever it is
    assert decide([_row(below, lhs=-1.0, rhs=-2.0)], {})[0] is \
        Verdict.MARGINAL_VIOLATIONS
    assert decide([_row(below, lhs=1.0, rhs=4.0)], {})[0] is \
        Verdict.CONSISTENT


def test_decide_row_at_the_gross_fraction():
    below, at, above = _ulps(-GROSS_FRACTION * 2.0)
    for margin in (at, above):
        verdict, violations = decide([_row(margin)], {})
        assert verdict is Verdict.MARGINAL_VIOLATIONS
        assert violations == [
            f"bound at r=0.5: margin {margin:.3e} (scale 2.000e+00)"]
    verdict, violations = decide([_row(below), _row(0.0)], {})
    assert verdict is Verdict.INCONSISTENT
    assert len(violations) == 1


def test_decide_fit_at_the_stability_limit():
    below, at, above = _ulps(STABILITY_LIMIT)
    for rel_delta in (below, at):
        assert decide([_row(0.0)], {"c": _fit(rel_delta)}) == \
            (Verdict.CONSISTENT, [])
    verdict, violations = decide([_row(0.0)], {"c": _fit(above)})
    assert verdict is Verdict.MARGINAL_VIOLATIONS
    assert violations == [
        "fitted c moved 25.0% under refinement (1 -> 0.75)"]
    # drift demotes no further than marginal, and adds to a row's text
    verdict, violations = decide([_row(-GROSS_FRACTION)], {"c": _fit(above)})
    assert verdict is Verdict.MARGINAL_VIOLATIONS
    assert len(violations) == 2
    verdict, violations = decide([_row(-1.0)], {"c": _fit(above)})
    assert verdict is Verdict.INCONSISTENT
    assert len(violations) == 2


@pytest.mark.parametrize("name", ["eps_approx", "thin_annulus",
                                  "schroedinger", "stability"])
def test_a_constant_far_below_the_fit_reads_inconsistent(name):
    # a negative control: c1 = 1e-6 is far below each scenario's own fit
    assert run_scenario(default_config(name, **LOW)).verdict is \
        Verdict.CONSISTENT
    assert run_scenario(default_config(name, c1=1e-6, **LOW)).verdict is \
        Verdict.INCONSISTENT
