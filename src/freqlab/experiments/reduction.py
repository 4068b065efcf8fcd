"""Reduction of a bounded-potential equation to a divergence-form one:
divide by the positive comparison solution and check that the frequency
of the quotient matches the gradient-part frequency of the original."""

from __future__ import annotations

import math

import numpy as np

from ..coefficients import Arity, CoefficientField
from ..solver import (
    PolarGrid,
    SolverError,
    boundary_mass,
    solve_dirichlet,
    weighted_gradient_energy,
)
from .base import (
    Branch,
    Evaluation,
    RegimeError,
    ScenarioError,
    frequency_at,
    prepare_isotropic,
    snap,
    solve_normalized,
    sup_gradient,
)

__all__ = ["schroedinger_eval", "schroedinger_prepare"]

RHO_FRACTIONS = (0.9, 0.7, 0.5, 0.3)


def _potential_from_spec(spec):
    if spec is None:
        return None, 0.0
    kind = spec.get("kind")
    if kind != "constant":
        raise ScenarioError(f"unknown potential kind {kind!r}")
    value = float(spec.get("value", 0.0))
    if value == 0.0:
        return None, 0.0

    def v_fun(pts):
        return np.full(np.asarray(pts).shape[0], value)
    return v_fun, value


def _interpolator(sol):
    """Bilinear interpolation of nodal values in (log r, theta), with a
    linear blend to the origin value inside the innermost ring."""
    grid = sol.grid
    n_r, nt = grid.n_r, grid.n_theta
    vals = sol.values[:n_r * nt].reshape(n_r, nt)
    origin = float(sol.values[-1])
    s0 = math.log(float(grid.radii[0]))
    ds, dth = grid.d_s, grid.d_theta

    def evaluate(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        rr = np.hypot(pts[:, 0], pts[:, 1])
        th = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)
        rcl = np.clip(rr, float(grid.radii[0]), float(grid.radii[-1]))
        si = np.clip((np.log(rcl) - s0) / ds, 0.0, n_r - 1 - 1e-9)
        i0 = si.astype(int)
        fs = si - i0
        tj = th / dth
        j0 = tj.astype(int) % nt
        ft = tj - np.floor(tj)
        j1 = (j0 + 1) % nt
        out = (vals[i0, j0] * (1.0 - fs) * (1.0 - ft)
               + vals[i0 + 1, j0] * fs * (1.0 - ft)
               + vals[i0, j1] * (1.0 - fs) * ft
               + vals[i0 + 1, j1] * fs * ft)
        inner = rr < float(grid.radii[0])
        if inner.any():
            w = rr[inner] / float(grid.radii[0])
            ring0 = vals[0, j0[inner]] * (1.0 - ft[inner]) \
                + vals[0, j1[inner]] * ft[inner]
            out[inner] = origin * (1.0 - w) + ring0 * w
        return out
    return evaluate


def _largest_positive_radius(f, v_fun, n_r, nt, r0):
    lo, hi = 0.05 * r0, r0
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        g = PolarGrid.disk(n_r, nt, radius=mid)
        try:
            v = solve_dirichlet(f, mid, np.full(nt, 2.0), g,
                                potential=v_fun)
        except SolverError:
            # a near-singular operator means mid is past the first
            # eigenvalue crossing, the same regime as a sign change
            hi = mid
            continue
        if float(v.values.min()) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def schroedinger_prepare(cfg):
    """The certified isotropic field and the potential (v_fun, V)."""
    f = prepare_isotropic(cfg)
    if isinstance(f, Branch):
        return f
    return (f, *_potential_from_spec(cfg.potential_spec))


def schroedinger_eval(cfg, setup, data, ref_grid):
    """Solve -div(a grad v) + V v = 0 with v = 2 on the boundary, check
    1 <= v <= c1 and the gradient bound, then re-solve for w = u / v
    with coefficient a v^2 and compare frequencies."""
    f, v_fun, v_level = setup
    r0 = cfg.radii[0]
    n_r, nt = ref_grid.n_r, ref_grid.n_theta
    grid = PolarGrid.disk(n_r, nt, radius=r0)

    try:
        v = solve_dirichlet(f, r0, np.full(nt, 2.0), grid,
                            potential=v_fun)
        min_v = float(v.values.min())
    except SolverError:
        min_v = -1.0
    max_v = float(v.values.max()) if min_v > 0.0 else 0.0
    if min_v <= 0.0:
        admissible = _largest_positive_radius(f, v_fun, n_r, nt, r0)
        raise RegimeError(
            f"potential {v_level:g} drives the comparison solution to "
            f"zero inside radius {r0:g}; largest admissible radius is "
            f"about {admissible:.4g}", admissible)

    top = float(grid.radii[-1])
    u = solve_normalized(f, grid, data, top, potential=v_fun)

    ev = Evaluation()
    ev.add_row("comparison lower bound", r0, 1.0, min_v)
    ev.add_row("comparison upper bound", r0, max_v, cfg.c1)
    grad_v = sup_gradient(v)
    ev.add_row("comparison gradient bound", r0, grad_v,
               cfg.c1 * max(1.0, abs(v_level)))

    v_interp = _interpolator(v)
    a_eval = f.evaluate

    def a_v2(pts):
        return a_eval(pts) * v_interp(pts) ** 2
    lam_w = 0.9 * min(1.0, f.lam * max(min_v, 1e-3) ** 2,
                      f.lam / max_v ** 2)
    av2 = CoefficientField.from_callable(
        a_v2, arity=Arity.ISOTROPIC, n=2, lam=lam_w)
    i_top = grid.n_r - 1
    w_data = u.ring_values(i_top) / v.ring_values(i_top)
    w = solve_dirichlet(av2, r0, w_data, grid)

    comp_worst = 1.0
    ratios = []
    for frac in RHO_FRACTIONS:
        rho = snap(grid, frac * r0)
        d_u = weighted_gradient_energy(u, u.values, rho)
        h_u = boundary_mass(u, f, rho)
        n_u = rho * d_u / h_u
        n_w = frequency_at(w, av2, rho)
        ratio = n_w / n_u
        ratios.append(ratio)
        comp = max(ratio, 1.0 / ratio)
        ev.add_row(f"frequency comparability rho/r0={frac:g}", rho,
                   comp, cfg.c1)
        comp_worst = max(comp_worst, comp)
    ev.fits["comparability_c"] = comp_worst
    ev.fits["gradient_c"] = grad_v / max(1.0, abs(v_level))
    ev.meta.update({
        "r0": r0, "potential": v_level, "min_v": min_v, "max_v": max_v,
        "sup_grad_v": grad_v, "frequency_ratios": ratios,
    })
    return ev
