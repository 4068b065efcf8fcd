"""End-to-end acceptance checks, one test per criterion.

Each test exercises a full pipeline (solve, measure, verify) against a
closed-form oracle or a stated tolerance: exact frequency of harmonic
polynomials, monotonicity under 0-homogeneous weights, the Osgood
classifier, cascade-versus-continuous growth bounds, the boundary-mass
identity, stability margins, doubling control by frequency, cascade
boundedness for Hoelder fields, the Schroedinger reduction, and
byte-level determinism of the default sweep.
"""

import math
import time

import numpy as np

from freqlab.cli import main as cli_main
from freqlab.coefficients import Arity, CoefficientField, generate_holder
from freqlab.experiments import (
    build_boundary,
    build_field,
    default_config,
    run_scenario,
)
from freqlab.experiments.base import scenario_grid, solve_normalized
from freqlab.frequency import (
    almgren_frequency,
    doubling_index,
    two_scale_frequency,
    verify_H_identity,
    verify_homogeneous_monotonicity,
)
from freqlab.growth import (
    GrowthVerdict,
    continuous_growth_bound,
    discrete_cascade,
)
from freqlab.modulus import Modulus, OsgoodClass, classify_osgood
from freqlab.solver import PolarGrid, boundary_mass, solve_dirichlet


def _harmonic(k):
    def data(pts):
        pts = np.asarray(pts, dtype=float)
        z = pts[..., 0] + 1j * pts[..., 1]
        return np.real(z ** k)
    return data


def _rings(grid, lo, hi):
    radii = grid.radii[(grid.radii >= lo) & (grid.radii <= hi)]
    return np.sort(radii)


def test_criterion_01_harmonic_frequency_oracle():
    """Re z^k has frequency exactly k: error <= 0.02 on [0.2, 0.8] at
    256x256 and at least halves under grid doubling."""
    start = time.monotonic()
    ident = CoefficientField.identity(2)
    worst = {}
    for n in (256, 512):
        grid = PolarGrid.disk(n, n)
        radii = _rings(grid, 0.2, 0.8)
        err = 0.0
        for k in range(1, 6):
            u = solve_dirichlet(ident, 1.0, _harmonic(k), grid)
            _, nn = almgren_frequency(u, ident, radii).ascending()
            err = max(err, float(np.max(np.abs(nn - k))))
        worst[n] = err
    elapsed = time.monotonic() - start
    assert worst[256] <= 0.02, f"max |N - k| = {worst[256]:.4g} at 256x256"
    # second-order scheme; only the upper edge of the halving band binds
    assert worst[512] <= 0.625 * worst[256], \
        f"doubling ratio {worst[512] / worst[256]:.3f} exceeds 0.625"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"


def test_criterion_02_homogeneous_weight_monotonicity():
    """With the 0-homogeneous weight 1 + 0.4 sin(theta) the frequency
    profile is nondecreasing: drops <= 5e-3 at 256x256, shrinking at
    least 2x at 512x512, over 10 random boundary data."""
    start = time.monotonic()

    def angular(pts):
        pts = np.asarray(pts, dtype=float)
        theta = np.arctan2(pts[..., 1], pts[..., 0])
        return 1.0 + 0.4 * np.sin(theta)

    abar = CoefficientField.from_callable(
        angular, arity=Arity.ISOTROPIC, n=2, lam=0.6)
    worst = {}
    for n in (256, 512):
        grid = PolarGrid.disk(n, n)
        radii = _rings(grid, 0.1, 0.9)
        drop = 0.0
        for seed in range(10):
            data = build_boundary({"kind": "fourier", "modes": 8}, seed)
            u = solve_dirichlet(abar, 1.0, data, grid)
            rep = verify_homogeneous_monotonicity(u, abar, radii)
            drop = max(drop, rep.max_drop)
        worst[n] = drop
    elapsed = time.monotonic() - start
    assert worst[256] <= 5e-3, f"max drop {worst[256]:.3e} at 256x256"
    # 1e-12 floor covers the exactly-monotone case
    assert worst[512] <= max(0.5 * worst[256], 1e-12), \
        f"drop {worst[512]:.3e} at 512x512 vs {worst[256]:.3e}"
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s"


def test_criterion_03_osgood_classifier_exact():
    """The classifier reproduces the analytic dichotomy on the 6-member
    family t, t^0.3, t^0.7, t log(1/t), t log(1/t)^1.5, t log(1/t)^3."""
    start = time.monotonic()
    cases = [
        (Modulus.linear(), OsgoodClass.OSGOOD),
        (Modulus.power(0.3), OsgoodClass.NON_OSGOOD),
        (Modulus.power(0.7), OsgoodClass.NON_OSGOOD),
        (Modulus.log_power(1.0), OsgoodClass.OSGOOD),
        (Modulus.log_power(1.5), OsgoodClass.NON_OSGOOD),
        (Modulus.log_power(3.0), OsgoodClass.NON_OSGOOD),
    ]
    for m, want in cases:
        got = classify_osgood(m)
        assert got is want, f"{m.kind}: {got.value}, expected {want.value}"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"


def test_criterion_04_cascade_matches_continuous_bound():
    """The discrete cascade with an Osgood modulus and integrable
    forcing never blows up down to t = 1e-9, and its trace supremum
    matches the continuous inversion within 5%."""
    start = time.monotonic()
    m = Modulus.linear()
    g = m.scalar_phi()
    t_floor = 1e-9
    offenders = []
    for c1 in (0.5, 1.0, 2.0):
        for n0 in (2.0, 10.0, 100.0):
            trace = discrete_cascade(m, n0, g, c1, t_floor)
            assert trace.verdict is not GrowthVerdict.BLOWUP_DETECTED, \
                f"c1={c1} n0={n0}: blowup reported"
            assert trace.reached_floor, \
                f"c1={c1} n0={n0}: floor not reached"
            bound = continuous_growth_bound(m, n0, g, c1, t_floor)
            sup = float(np.max(trace.n))
            rel = abs(sup - bound) / bound
            if rel > 0.05:
                offenders.append(f"c1={c1} n0={n0}: sup {sup:.4g} vs "
                                 f"bound {bound:.4g} ({rel:.1%})")
    elapsed = time.monotonic() - start
    assert not offenders, "; ".join(offenders)
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"


def test_criterion_05_boundary_mass_identity():
    """The residual e(r) of d/dr log(r^(1-n) H) = 2N/r stays below 1e-4
    for the identity field at 256x256, and the normalized residual for
    a Lipschitz field (M=0.2, delta=0.1) is stable within 25% under
    refinement."""
    ident = CoefficientField.identity(2)
    grid = PolarGrid.disk(256, 256)
    u = solve_dirichlet(ident, 1.0, _harmonic(1), grid)
    rep = verify_H_identity(u, ident, _rings(grid, 0.2, 0.8))

    lip = CoefficientField.affine(1.1, [0.2, 0.0])
    sups = {}
    for n in (256, 512):
        g = PolarGrid.disk(n, n)
        v = solve_dirichlet(lip, 1.0, _harmonic(1), g)
        lrep = verify_H_identity(v, lip, _rings(g, 0.2, 0.8),
                                 m_bound=0.2, delta=0.1)
        sups[n] = lrep.normalized_sup
    drift = abs(sups[512] - sups[256]) / max(sups[256], sups[512])

    assert rep.sup_error <= 1e-4, \
        f"sup |e| = {rep.sup_error:.3e} for the identity field at 256x256"
    assert drift <= 0.25, \
        f"normalized sup drift {drift:.1%} ({sups[256]:.4g} -> {sups[512]:.4g})"


def test_criterion_06_stability_margins_and_fits():
    """Across 10 randomized field pairs the energy identity and
    ellipticity rows hold with margin >= -1e-6 and the fitted stability
    constants move < 25% under refinement."""
    start = time.monotonic()
    for k in range(10):
        cfg = default_config(
            "stability", n_r=33, n_theta=64, seed=k,
            field_spec={"kind": "holder", "alpha": 0.68 + 0.03 * (k % 5),
                        "amplitude": 0.08, "seed": 100 + k},
            pair_spec={"mode": "bump", "eps": 0.02 + 0.005 * k,
                       "r_in": 0.35 + 0.03 * (k % 4)},
            boundary_spec={"kind": "fourier", "modes": 6})
        rep = run_scenario(cfg)
        for row in rep.margins:
            if row.name in ("energy identity", "ellipticity bound"):
                assert row.margin >= -1e-6, \
                    f"pair {k}: {row.name} margin {row.margin:.3e}"
        for name in ("qst2_c", "qst3_c"):
            fit = rep.fitted[name]
            assert fit.rel_delta <= 0.25, \
                f"pair {k}: {name} drifts {fit.rel_delta:.1%}"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s"


def test_criterion_07_doubling_controlled_by_frequency():
    """For every anisotropic default scenario with an Osgood modulus the
    measured doubling index log2(H(r)/H(r/2)) stays below
    2 sup_{t<=r} N(t) + n - 1 + 0.1 along the halving schedule."""
    for name in ("dichot", "approx_v", "freq_cascade"):
        cfg = default_config(name)
        grid = scenario_grid(cfg)
        f = build_field(cfg.field_spec)
        data = build_boundary(cfg.boundary_spec, cfg.seed)
        u = solve_normalized(f, grid, data, cfg.radii[0])
        # profile starts at 2 r_min: the first ring above the origin
        # closure artifact
        lo = 2.0 * float(grid.radii.min())
        rr, nn = almgren_frequency(
            u, f, _rings(grid, lo, cfg.radii[0])).ascending()
        r = cfg.radii[0]
        while r / 2.0 >= lo:
            lhs = math.log2(boundary_mass(u, f, r)
                            / boundary_mass(u, f, r / 2.0))
            rhs = 2.0 * float(np.max(nn[rr <= r + 1e-12])) + 1.0 + 0.1
            assert lhs <= rhs, \
                f"{name}: doubling {lhs:.4f} > {rhs:.4f} at r = {r:.4f}"
            r /= 2.0


def test_criterion_08_holder_cascade_boundedness():
    """For 5 seeded Hoelder fields and degree <= 4 data the frequency
    profile never exceeds 1.5 N(0.8) on [0.05, 0.8] and the two-scale
    and doubling measurements are stable within 25% under refinement."""
    start = time.monotonic()
    alphas = (0.7, 0.75, 0.8, 0.7, 0.75)
    for i, alpha in enumerate(alphas):
        f = generate_holder(alpha, 0.05, seed=i)
        data = build_boundary({"kind": "fourier", "modes": 4}, i)
        probes = {}
        for n_r, n_theta in ((65, 128), (129, 256)):
            grid = PolarGrid.disk(n_r, n_theta, r_min=0.02)
            u = solve_dirichlet(f, 1.0, data, grid)
            _, nn = almgren_frequency(
                u, f, _rings(grid, 0.05, 0.8)).ascending()
            sup_n = float(np.max(nn))
            top = float(nn[-1])
            assert sup_n <= 1.5 * top, \
                f"field {i}: sup N = {sup_n:.3f} vs 1.5 N(0.8) = {1.5 * top:.3f}"
            probes[n_r] = (two_scale_frequency(u, f, 0.4, 0.2),
                           doubling_index(u, 0.4))
        for a, b in zip(probes[65], probes[129]):
            drift = abs(b - a) / max(abs(a), abs(b))
            assert drift <= 0.25, \
                f"field {i}: refinement drift {drift:.1%} ({a:.4g} -> {b:.4g})"
    elapsed = time.monotonic() - start
    assert elapsed < 1800.0, f"runtime {elapsed:.1f}s"


def test_criterion_09_schroedinger_reduction():
    """With V = 0 the lifted frequency matches the flat one to 1e-6;
    with V = 1 at r0 = 0.2 the ratio stays in [1/3, 3] and the
    conjugation weight lies in [1, c1]."""
    cfg0 = default_config(
        "schroedinger",
        potential_spec={"kind": "constant", "value": 0.0})
    rep0 = run_scenario(cfg0)
    ratios0 = np.asarray(rep0.meta["frequency_ratios"], dtype=float)
    assert float(np.max(np.abs(ratios0 - 1.0))) <= 1e-6, \
        f"V=0 ratios deviate by {np.max(np.abs(ratios0 - 1.0)):.2e}"

    cfg1 = default_config("schroedinger")
    rep1 = run_scenario(cfg1)
    ratios1 = np.asarray(rep1.meta["frequency_ratios"], dtype=float)
    assert float(np.min(ratios1)) >= 1.0 / 3.0, \
        f"V=1 min ratio {np.min(ratios1):.4f}"
    assert float(np.max(ratios1)) <= 3.0, \
        f"V=1 max ratio {np.max(ratios1):.4f}"
    assert rep1.meta["min_v"] >= 1.0, f"min v = {rep1.meta['min_v']:.4f}"
    assert rep1.meta["max_v"] <= cfg1.c1, \
        f"max v = {rep1.meta['max_v']:.4f} vs c1 = {cfg1.c1}"


def test_criterion_10_default_sweep_determinism(tmp_path):
    """Two seeded runs of the full default sweep produce byte-identical
    CSV and JSON outputs (manifests carry wall-clock times and are
    exempt)."""
    listings = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cli_main(["experiment", "--seed", "0", "--out", str(out)])
        assert code == 0, f"sweep run {tag} exited {code}"
        files = sorted(
            p.relative_to(out) for p in out.rglob("*")
            if p.suffix in (".csv", ".json") and p.name != "manifest.json")
        listings.append(files)
    assert listings[0] == listings[1] and listings[0], "output sets differ"
    for rel in listings[0]:
        a = (tmp_path / "a" / rel).read_bytes()
        b = (tmp_path / "b" / rel).read_bytes()
        assert a == b, f"{rel} differs between runs"
