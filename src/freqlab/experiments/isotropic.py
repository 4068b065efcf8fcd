"""Scenarios for isotropic Hölder coefficients: homogeneous-projection
estimates, the two-scale comparison, thin-annulus energy decay, the
iterated two-scale excess, the small-radius dichotomy, and the dyadic
cascade."""

from __future__ import annotations

import math

import numpy as np

from ..coefficients import Arity, CoefficientField, empirical_modulus, homogeneous_projection
from ..frequency import two_scale_frequency
from ..modulus import select_exponents
from ..solver import gradient_mean_square, volume_mean_square
from .base import (
    Branch,
    Evaluation,
    REL_TOL,
    Verdict,
    doubling_ratio,
    fit_ratio,
    frequency_at,
    measured_eps,
    prepare_isotropic,
    profile_between,
    ring_mean_sq,
    ring_weighted_mean,
    snap,
    solve_top,
    subsolution,
)

__all__ = [
    "dichot3_eval",
    "eps_approx_eval",
    "iso_cascade_eval",
    "iso_cascade_prepare",
    "key_approx_eval",
    "thin_annulus_eval",
    "tilden_eval",
]


def eps_approx_eval(cfg, f, data, grid):
    """Homogeneous-projection comparison on a nearly constant isotropic
    coefficient: gradient distance, projected frequency, height
    comparability and boundary trace gap, all at order eps + delta."""
    r, u, n_top = solve_top(cfg, grid, f, data)
    abar = homogeneous_projection(f, r)
    v, d = subsolution(u, abar, r)
    e_val = cfg.eps + cfg.delta
    e_fit = max(e_val, REL_TOL)

    ev = Evaluation()
    gm_u = gradient_mean_square(u, r)
    gm_d = gradient_mean_square(v, r, values=d)
    ev.add_row("gradient distance", r, gm_d, cfg.c1 * e_val * gm_u)
    ev.fits["grad_c"] = gm_d / (e_fit * max(gm_u, 1e-300))

    n_proj = frequency_at(v, abar, r)
    ev.add_row("projected frequency", r, n_proj,
               (1.0 + cfg.c1 * e_val) * n_top)
    ev.fits["freq_c"] = fit_ratio(n_proj / n_top - 1.0, e_val)

    h_top = ring_weighted_mean(u, abar, r)
    height_c, trace_c = 1.0, 0.0
    for s in (0.5, 1.0):
        rs = snap(grid, r * (1.0 - s / n_top))
        j = v.grid.nearest_ring(rs)
        h_u = ring_weighted_mean(u, abar, rs)
        h_v = ring_weighted_mean(v, abar, rs)
        ev.add_row(f"height comparability s={s:g}", rs,
                   h_u / cfg.c1, h_v)
        gap = ring_mean_sq(v, j, d)
        ev.add_row(f"trace gap s={s:g}", rs, gap,
                   cfg.c1 * s * e_val * h_top)
        height_c = max(height_c, h_u / max(h_v, 1e-300))
        trace_c = max(trace_c, gap / (s * e_fit * h_top))
    gap0 = ring_mean_sq(v, v.grid.n_r - 1, d)
    ev.add_row("trace gap s=0", r, gap0, 0.0)
    ev.fits["height_c"] = height_c
    ev.fits["trace_c"] = trace_c
    ev.meta.update({"N": n_top, "r": r, "projected_N": n_proj,
                    "eps_measured": measured_eps(f)})
    return ev


def tilden_eval(cfg, f, data, grid):
    """Two-scale frequency sandwiched between (gamma - c1 e) N and
    (1 + c1 e) N on gamma-good windows."""
    r, u, n_top = solve_top(cfg, grid, f, data)
    abar = homogeneous_projection(f, r)
    e_val = cfg.eps + cfg.delta
    e_fit = max(e_val, REL_TOL)

    ev = Evaluation()
    ups, lows = [0.0], [0.0]
    for s in (0.5, 1.0):
        rs = snap(grid, r * (1.0 - s / n_top))
        prof = profile_between(u, f, grid, rs, r)
        gamma_hat = float(np.min(prof.N)) / n_top
        tn = two_scale_frequency(u, abar, r, rs)
        ev.add_row(f"two-scale upper s={s:g}", rs, tn,
                   (1.0 + cfg.c1 * e_val) * n_top)
        ev.add_row(f"two-scale lower s={s:g}", rs,
                   (gamma_hat - cfg.c1 * e_val) * n_top, tn)
        ups.append(fit_ratio(tn / n_top - 1.0, e_val))
        lows.append(fit_ratio(gamma_hat - tn / n_top, e_val))
        ev.meta[f"gamma_hat s={s:g}"] = gamma_hat
        ev.meta[f"two_scale s={s:g}"] = tn
    ev.fits["upper_c"] = max(ups)
    ev.fits["lower_c"] = max(lows)
    ev.meta.update({"N": n_top, "r": r,
                    "eps_measured": measured_eps(f)})
    return ev


def thin_annulus_eval(cfg, f, data, grid):
    """Energy decay across the annulus [r(1 - a_log log N / N), r] on
    gamma-good windows, plus interior control of the volume mean."""
    r, u, n_top = solve_top(cfg, grid, f, data)
    if n_top < cfg.n0:
        return Branch(Verdict.ALTERNATIVE_ONE,
                      f"frequency {n_top:.4g} at r={r:.4g} is below "
                      f"n0={cfg.n0:g}", {"N": n_top, "r": r})
    r_a_raw = r * (1.0 - cfg.a_log * math.log(n_top) / n_top)
    if r_a_raw <= float(grid.radii[0]) * 1.05:
        return Branch(Verdict.SKIPPED,
                      f"annulus bottom {r_a_raw:.4g} is below the "
                      "resolvable grid",
                      {"N": n_top, "r": r, "r_a": r_a_raw})
    r_a = snap(grid, r_a_raw)
    prof = profile_between(u, f, grid, r_a, r)
    gamma_hat = float(np.min(prof.N)) / n_top
    if gamma_hat < cfg.gamma:
        return Branch(Verdict.ALTERNATIVE_ONE,
                      f"window [{r_a:.4g}, {r:.4g}] is not gamma-good "
                      f"(min N / N = {gamma_hat:.4g} < {cfg.gamma:g})",
                      {"N": n_top, "gamma_hat": gamma_hat})

    gm_r = gradient_mean_square(u, r)
    gm_a = gradient_mean_square(u, r_a)
    mean_ratio = gm_a / gm_r
    ev = Evaluation()
    ev.add_row("annulus energy decay", r_a, mean_ratio,
               n_top ** (-cfg.gamma ** 2 * cfg.a_log / cfg.c1))
    if mean_ratio < 1.0:
        chat = -math.log(mean_ratio) / (gamma_hat ** 2 * math.log(n_top))
        c_fit = gamma_hat ** 2 * cfg.a_log * math.log(n_top) \
            / (-math.log(mean_ratio))
    else:
        chat, c_fit = 0.0, 1e6
    ev.add_row("decay exponent floor", r_a, 1.0 / cfg.c1,
               chat / cfg.a_log)
    mean_top = ring_mean_sq(u, grid.nearest_ring(r))
    ev.add_row("interior control", snap(grid, 2.0 * r / 3.0),
               volume_mean_square(u, snap(grid, 2.0 * r / 3.0)),
               cfg.c1 * mean_top)
    ev.fits["annulus_c"] = c_fit
    ev.meta.update({
        "N": n_top, "r": r, "r_a": r_a, "gamma_hat": gamma_hat,
        "mean_ratio": mean_ratio,
        "energy_ratio": mean_ratio * (r_a / r) ** 2,
        "implied_exponent": chat,
    })
    return ev


def key_approx_eval(cfg, f, data, grid):
    """Iterated two-scale excess: once the annulus energy decays with
    exponent at least 2p + 1, consecutive two-scale readings may grow
    by at most c1 N^(1 - 2 kappa eta)."""
    r, u, n_top = solve_top(cfg, grid, f, data)
    if n_top <= 1.05:
        return Branch(Verdict.SKIPPED,
                      f"frequency {n_top:.4g} too small for a decay "
                      "exponent", {"N": n_top})
    r_a_raw = r * (1.0 - cfg.a_log * math.log(n_top) / n_top)
    if r_a_raw <= float(grid.radii[0]) * 1.05:
        return Branch(Verdict.SKIPPED,
                      f"annulus bottom {r_a_raw:.4g} is below the "
                      "resolvable grid", {"N": n_top, "r_a": r_a_raw})
    r_a = snap(grid, r_a_raw)
    ratio_int = (gradient_mean_square(u, r_a) * r_a ** 2) \
        / (gradient_mean_square(u, r) * r ** 2)
    qhat = -math.log(max(ratio_int, 1e-300)) / math.log(n_top)
    need = 2.0 * cfg.p + 1.0
    diag = {"N": n_top, "r": r, "r_a": r_a, "energy_ratio": ratio_int,
            "measured_exponent": qhat, "required_exponent": need}
    if qhat < need:
        return Branch(Verdict.SKIPPED,
                      f"measured decay exponent {qhat:.3g} is below "
                      f"the required {need:g}", diag)

    alpha = float(f.holder[0]) if f.holder else 0.99
    try:
        triple = select_exponents(alpha)
    except ValueError as exc:
        return Branch(Verdict.HYPOTHESIS_UNMET,
                      f"no admissible exponent triple: {exc}", diag)
    eta_t = min(triple.beta, triple.tau)
    abar = homogeneous_projection(f, r)
    weights = [("", abar)]
    if cfg.delta > 0.0:
        base_fn = abar.evaluate

        def wobbled(pts):
            pts = np.asarray(pts, dtype=float)
            th = np.arctan2(pts[..., 1], pts[..., 0])
            return base_fn(pts) * (1.0 + cfg.delta * np.cos(3.0 * th))
        abar_d = CoefficientField.from_callable(
            wobbled, arity=Arity.ISOTROPIC, n=2,
            lam=abar.lam * (1.0 - cfg.delta))
        weights.append((" delta", abar_d))

    ev = Evaluation()
    c_excess = 0.0
    for tag, w in weights:
        for s in (0.5, 1.0):
            r1 = snap(grid, r * (1.0 - s / n_top))
            r2 = snap(grid, r1 * (1.0 - s / n_top))
            tn01 = two_scale_frequency(u, w, r, r1)
            tn12 = two_scale_frequency(u, w, r1, r2)
            excess = tn12 - tn01
            ev.meta[f"excess{tag} s={s:g}"] = excess
            for kappa in (0.5, 0.9):
                allowance = cfg.c1 * n_top ** (1.0 - 2.0 * kappa * eta_t)
                ev.add_row(f"excess{tag} s={s:g} kappa={kappa:g}",
                           r2, excess, allowance)
                c_excess = max(
                    c_excess,
                    max(0.0, excess - REL_TOL * n_top)
                    * cfg.c1 / allowance)
    ev.fits["excess_c"] = max(0.0, c_excess)
    ev.meta.update(diag)
    ev.meta.update({"alpha": alpha, "beta": triple.beta,
                    "tau": triple.tau, "eta_tilde": eta_t})
    return ev


def dichot3_eval(cfg, f, data, grid):
    """Small-radius dichotomy: either the frequency leaves the window
    [n0, r^(-alpha/2)], or one step inward moves it by at most
    c1 C_h r^(alpha/2) and lands below the shrunken window top."""
    r, u, n_top = solve_top(cfg, grid, f, data)
    alpha = float(f.holder[0]) if f.holder else 1.0
    c_h = float(f.holder[1]) if f.holder else 0.0
    window_hi = r ** (-alpha / 2.0)
    if not cfg.n0 <= n_top <= window_hi:
        return Branch(Verdict.ALTERNATIVE_ONE,
                      f"frequency {n_top:.4g} at r={r:.4g} lies outside "
                      f"the window [{cfg.n0:g}, {window_hi:.4g}]",
                      {"N": n_top, "r": r, "window_hi": window_hi})
    bump = c_h * r ** (alpha / 2.0)
    den_fit = max(bump, REL_TOL)
    ev = Evaluation()
    best = 0.0
    for s in (0.5, 1.0):
        rs = snap(grid, r * (1.0 - s / n_top))
        lhs = frequency_at(u, f, rs)
        ev.add_row(f"frequency increment s={s:g}", rs, lhs,
                   n_top + cfg.c1 * bump)
        best = max(best, (lhs - n_top - REL_TOL * n_top) / den_fit)
    rs1 = snap(grid, r * (1.0 - 1.0 / n_top))
    ev.add_row("terminal window", rs1, frequency_at(u, f, rs1),
               rs1 ** (-alpha / 2.0))
    ev.fits["dichot3_c"] = max(0.0, best)
    ev.meta.update({"N": n_top, "r": r, "alpha": alpha, "c_h": c_h,
                    "window_hi": window_hi})
    return ev


def iso_cascade_prepare(cfg):
    """The certified isotropic field and its Hölder exponent, which must
    exceed two thirds."""
    f = prepare_isotropic(cfg)
    if isinstance(f, Branch):
        return f
    if f.holder is not None:
        alpha = float(f.holder[0])
    else:
        em = empirical_modulus(f, 256)
        alpha = 1.0 if em.modulus is None else float(em.alpha_hat)
    if alpha <= 2.0 / 3.0:
        return Branch(Verdict.HYPOTHESIS_UNMET,
                      f"Hölder exponent {alpha:.4g} is not above "
                      "two thirds", {"alpha": alpha})
    return f, alpha


def iso_cascade_eval(cfg, setup, data, grid):
    """Dyadic control of the frequency profile: inside every dyadic
    window some radius keeps the frequency within (1 + c1 eps)^k of the
    top value, the profile stays bounded, and the doubling indices obey
    the quantitative frequency bound."""
    f, alpha = setup
    top_nominal = cfg.radii[0]
    floor_nominal = cfg.radii[-1] if len(cfg.radii) > 1 else 0.05
    r_top, u, n_top = solve_top(cfg, grid, f, data)
    partial = floor_nominal < float(grid.radii[0]) * 0.999
    floor = max(floor_nominal, float(grid.radii[0]))
    prof = profile_between(u, f, grid, floor, r_top)
    sup_all = float(np.max(prof.N))

    ev = Evaluation()
    ev.add_row("bounded frequency", floor, sup_all,
               max(cfg.n0, n_top ** cfg.c1))
    eps_hat = measured_eps(f)
    base_level = max(n_top, cfg.n0)
    cs = [0.0]
    k = 0
    while top_nominal / 2.0 ** (k + 1) >= floor_nominal * 0.999:
        lo, hi = top_nominal / 2.0 ** (k + 1), top_nominal / 2.0 ** k
        mask = (prof.radii >= lo * 0.999) & (prof.radii <= hi * 1.001)
        if not mask.any():
            break
        n_min = float(np.min(prof.N[mask]))
        ev.add_row(f"dyadic window k={k}", lo, n_min,
                   (1.0 + cfg.c1 * eps_hat) ** (k + 1) * base_level)
        cs.append(fit_ratio((n_min / base_level) ** (1.0 / (k + 1)) - 1.0,
                            eps_hat))
        k += 1
    for r_c in (top_nominal, 0.5 * top_nominal):
        if 0.5 * r_c < float(grid.radii[0]):
            continue
        rc = snap(grid, r_c)
        half = snap(grid, 0.5 * r_c)
        lhs = doubling_ratio(u, f, rc, half)
        sup_below = float(np.max(prof.N[prof.radii <= rc * 1.0001]))
        ev.add_row(f"doubling control r={r_c:.4g}", rc, lhs,
                   2.0 * sup_below + 1.0 + 0.1)
    ev.fits["dyadic_c"] = max(cs)
    slope = float(np.polyfit(np.log(prof.radii), np.log(prof.N), 1)[0])
    ev.fits["profile_slope"] = slope
    ev.meta.update({"N_top": n_top, "sup_N": sup_all,
                    "eps_measured": eps_hat, "alpha": alpha,
                    "floor": floor, "partial": partial,
                    "sup_ratio": sup_all / n_top})
    return ev
