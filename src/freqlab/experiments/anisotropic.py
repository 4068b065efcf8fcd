"""Scenarios for rough anisotropic coefficients: the frequency
dichotomy, the mollified comparison solution, and the cascade that
turns the dichotomy into a global frequency bound."""

from __future__ import annotations

import numpy as np

from ..coefficients import mollify
from ..frequency import VanishingBoundaryError, doubling_index
from ..growth import discrete_cascade
from ..modulus import OsgoodClass, check_phi_integrable, check_submultiplicative_psi, classify_osgood
from ..solver import gradient_mean_square
from .base import (
    Branch,
    Evaluation,
    REL_TOL,
    ScenarioError,
    Verdict,
    build_field,
    doubling_ratio,
    field_modulus,
    frequency_at,
    profile_between,
    ring_mean_sq,
    snap,
    solve_normalized,
    solve_top,
    subsolution,
)

__all__ = ["approx_v_eval", "dichot_eval", "freq_cascade_eval",
           "freq_cascade_prepare"]

S_STEPS = (0.25, 0.5, 0.75, 1.0)


def dichot_eval(cfg, f, data, grid):
    """Either the frequency is already below n0, or one controlled step
    inward raises it by at most c1 * r * psi(N / r)."""
    r, u, n_top = solve_top(cfg, grid, f, data)
    if n_top < cfg.n0:
        return Branch(Verdict.ALTERNATIVE_ONE,
                      f"frequency {n_top:.4g} at r={r:.4g} is below "
                      f"n0={cfg.n0:g}; no growth step to take",
                      {"N": n_top, "r": r})
    m = field_modulus(f)
    psi_val = float(m.psi(n_top / r))
    step_scale = max(r * psi_val, 1e-12)
    ev = Evaluation()
    ev.meta.update({"N": n_top, "r": r, "psi": psi_val,
                    "modulus": m.to_config()})
    best = [0.0]
    for s in S_STEPS:
        rs = snap(grid, r * (1.0 - s / n_top))
        lhs = frequency_at(u, f, rs)
        ev.add_row(f"frequency increment s={s:g}", rs, lhs,
                   n_top + cfg.c1 * r * psi_val)
        best.append((lhs - n_top - REL_TOL * n_top) / step_scale)
    ev.fits["dichotomy_c"] = max(best)
    # mollified comparison solution, as a closeness diagnostic; the
    # scale is capped so the mollified field still covers B_r
    eps_m = min(r / n_top, 0.9 * (1.0 - r))
    fbar = mollify(f, eps_m)
    v, d = subsolution(u, fbar, r)
    gm_u = gradient_mean_square(u, r)
    ev.meta["mollification"] = eps_m
    ev.meta["gradient_distance_ratio"] = (
        gradient_mean_square(v, r, values=d) / max(gm_u, 1e-300))
    return ev


def approx_v_eval(cfg, f, data, grid):
    """Mollified-coefficient comparison: gradient distance bounded by
    omega(eps) times the energy, trace gap decaying linearly in the
    distance to the boundary."""
    r = snap(grid, cfg.radii[0])
    u = solve_normalized(f, grid, data, r)
    eps_m = cfg.eps
    if not 0.0 < eps_m < 0.5 * r:
        raise ScenarioError(
            f"mollification scale eps={eps_m:g} must lie in (0, r/2)")
    m = field_modulus(f)
    omega_eps = float(m.omega(eps_m))
    fbar = mollify(f, eps_m)
    if fbar.domain_radius < r:
        raise ScenarioError(
            f"mollification at scale {eps_m:g} shrinks the field domain "
            f"to {fbar.domain_radius:.4g}, below r={r:.4g}")
    v, d = subsolution(u, fbar, r)
    gm_u = gradient_mean_square(u, r)
    gm_d = gradient_mean_square(v, r, values=d)
    ev = Evaluation()
    ev.meta.update({"r": r, "omega_eps": omega_eps,
                    "modulus": m.to_config()})
    ev.add_row("gradient distance", r, gm_d, cfg.c1 * omega_eps * gm_u)
    ev.fits["approx_c"] = gm_d / max(omega_eps * gm_u, 1e-300)
    # trace gap on the boundary shell, sampled at fixed fractions
    sub = v.grid
    shell_scale = omega_eps * r * r * gm_u
    for frac in (0.25, 0.5, 0.75):
        t = snap(sub, r * (1.0 - frac * eps_m))
        lhs = ring_mean_sq(v, sub.nearest_ring(t), d)
        ev.add_row(f"trace gap at (1 - t/r)/eps={frac:g}", t, lhs,
                   cfg.c1 * (1.0 - t / r) * shell_scale)
    # slope of the shell profile against (1 - t/r), through the origin
    xs, ys = [], []
    for j, t in enumerate(sub.radii):
        if r * (1.0 - 4.0 * eps_m) < t < r:
            xs.append(1.0 - t / r)
            ys.append(ring_mean_sq(v, j, d))
    xs, ys = np.asarray(xs), np.asarray(ys)
    if xs.size >= 2:
        slope = float(xs @ ys / (xs @ xs))
        resid = float(np.max(np.abs(ys - slope * xs))
                      / max(np.max(np.abs(ys)), 1e-300))
    else:
        slope = float(ys[0] / xs[0]) if xs.size else 0.0
        resid = 0.0
    ev.fits["shell_slope"] = slope / max(shell_scale, 1e-300)
    ev.meta["shell_fit_residual"] = resid
    ev.meta["shell_samples"] = int(xs.size)
    return ev


def freq_cascade_prepare(cfg):
    """The field and its modulus, which must be Osgood with an
    integrable phi and a submultiplicative psi."""
    f = build_field(cfg.field_spec)
    m = field_modulus(f)
    osgood = classify_osgood(m)
    if osgood is not OsgoodClass.OSGOOD:
        label = ("fails the Osgood integral condition"
                 if osgood is OsgoodClass.NON_OSGOOD
                 else "has an inconclusive Osgood classification")
        return Branch(Verdict.HYPOTHESIS_UNMET,
                      f"modulus {label}", {"osgood": osgood.name})
    integ = check_phi_integrable(m)
    if not integ.finite:
        return Branch(Verdict.HYPOTHESIS_UNMET,
                      "phi transform of the modulus is not integrable",
                      {"phi_partial_sums": list(integ.partial_sums[-3:])})
    sub = check_submultiplicative_psi(m, 100.0)
    if not sub.holds:
        return Branch(
            Verdict.HYPOTHESIS_UNMET,
            "psi transform is not submultiplicative with any moderate "
            f"constant (worst ratio {sub.worst_ratio:.3g})",
            {"worst_pair": list(sub.worst_pair)})
    return f, m


def freq_cascade_eval(cfg, setup, data, grid):
    """Iterate the dichotomy step down to the floor and compare the
    measured frequency profile and doubling indices against the
    recursion bound."""
    f, m = setup
    r0, u, n_top = solve_top(cfg, grid, f, data)
    # the origin closure contaminates N on the innermost rings; the
    # layer ends near twice the inner radius at any resolution, and
    # r_in is preserved by refinement, so the row layout stays paired
    floor = max(cfg.t_floor, 2.0 * float(grid.radii[0]))

    radii, values = [r0], [n_top]
    for _ in range(60):
        r_k, n_k = radii[-1], values[-1]
        step = max(n_k, cfg.n0, 1.25)
        raw = r_k * (1.0 - 1.0 / step)
        if raw < floor:
            break
        r_next = snap(grid, raw)
        if r_next >= r_k:
            ring = grid.nearest_ring(r_k) - 1
            if ring < 0 or float(grid.radii[ring]) < floor:
                break
            r_next = float(grid.radii[ring])
        try:
            n_next = frequency_at(u, f, r_next)
        except VanishingBoundaryError:
            break
        radii.append(r_next)
        values.append(n_next)

    psis = np.maximum([r * float(m.psi(n / r))
                       for r, n in zip(radii, values)], 1e-12)
    increments = np.diff(values) - REL_TOL * np.asarray(values[:-1])
    c_fit = float(max(0.0, np.max(increments / psis[:-1])
                      if increments.size else 0.0))
    # the seed frequency is only known to the measurement tolerance,
    # so the recursion starts from its upper uncertainty edge
    n0_eff = max(values[0] * (1.0 + REL_TOL), cfg.n0)
    # freq_cascade_prepare branched unless phi is integrable
    trace = discrete_cascade(m, n0_eff, m.scalar_phi(), c_fit,
                             floor, g_integrable=True)
    if not trace.reached_floor:
        return Branch(Verdict.INCONSISTENT,
                      "cascade recursion blew up before reaching the "
                      f"floor {floor:g}",
                      {"fitted_c": c_fit, "n0": n0_eff})

    ev = Evaluation()
    ev.add_row("sup frequency vs cascade bound", radii[-1],
               max(values), trace.bound)
    # checkpoints descend from the nominal (unsnapped) top radius so
    # that the row layout is identical at both resolutions
    r_c = cfg.radii[0]
    while r_c >= 2.0 * floor:
        half = snap(grid, 0.5 * r_c)
        lhs = doubling_ratio(u, f, snap(grid, r_c), half)
        prof = profile_between(u, f, grid, half, r_c)
        ev.add_row(f"doubling control r={r_c:.4g}", r_c, lhs,
                   2.0 * float(np.max(prof.N)) + 1.0 + 0.1)
        r_c *= 0.5
    ev.fits["cascade_c"] = c_fit
    ev.meta.update({
        "schedule": radii,
        "frequencies": values,
        "bound": trace.bound,
        "n0_effective": n0_eff,
        "doubling_top": doubling_index(u, r0),
    })
    return ev
