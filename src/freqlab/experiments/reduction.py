"""Reduction of a bounded-potential equation to a divergence-form one:
divide by the positive comparison solution and check that the frequency
of the quotient matches the gradient-part frequency of the original."""

from __future__ import annotations

import numpy as np

from ..coefficients import Arity, CoefficientField
from ..io import check_config
from ..solver import (
    PolarGrid,
    SolverError,
    boundary_mass,
    solve_dirichlet,
    weighted_gradient_energy,
)
from .base import (
    POTENTIAL_KINDS,
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
    value = float(check_config(spec, POTENTIAL_KINDS, "potential_spec",
                               ScenarioError)["value"])
    if value == 0.0:
        return None, 0.0

    def v_fun(pts):
        return np.full(np.asarray(pts).shape[0], value)
    return v_fun, value


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

    a_eval = f.evaluate

    def a_v2(pts):
        return a_eval(pts) * v.evaluate(pts) ** 2
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
