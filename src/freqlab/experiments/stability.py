"""Quantitative stability of the Dirichlet energy under coefficient
perturbation: the exact energy identity, its ellipticity consequence,
and the closeness bounds in terms of the coefficient gap and the
energy fraction living near the origin."""

from __future__ import annotations

import math

from ..coefficients import Arity, CoefficientField
from ..io import check_config
from ..solver import gradient_energy, weighted_gradient_energy
from .base import (
    PAIR_MODES,
    REL_TOL,
    Evaluation,
    ScenarioError,
    build_field,
    field_gap,
    snap,
    solve_normalized,
)

__all__ = ["stability_eval", "stability_prepare"]


def _scaled_field(f, factor: float) -> CoefficientField:
    if f.arity is not Arity.ISOTROPIC:
        raise ScenarioError("scaled pair mode requires an isotropic field")
    base = f.evaluate

    def scaled(pts):
        return factor * base(pts)
    return CoefficientField.from_callable(
        scaled, arity=Arity.ISOTROPIC, n=2,
        lam=f.lam * min(factor, 1.0))


def _bumped_field(f, eps: float, r_in: float) -> CoefficientField:
    if f.arity is not Arity.ISOTROPIC:
        raise ScenarioError("bump pair mode requires an isotropic field")
    bump = CoefficientField.annulus_bump(eps, r_in)
    base, extra = f.evaluate, bump.evaluate

    def bumped(pts):
        return base(pts) + (extra(pts) - 1.0)
    return CoefficientField.from_callable(
        bumped, arity=Arity.ISOTROPIC, n=2,
        lam=f.lam if eps >= 0.0 else f.lam - abs(eps))


def stability_prepare(cfg):
    """The configured field and its pair from cfg.pair_spec."""
    f0 = build_field(cfg.field_spec)
    pair = check_config(cfg.pair_spec or {"mode": "bump"}, PAIR_MODES,
                        "pair_spec", ScenarioError)
    if pair["mode"] == "same":
        return f0, f0
    eps = float(cfg.eps if pair["eps"] is None else pair["eps"])
    if pair["mode"] == "scaled":
        return f0, _scaled_field(f0, 1.0 + eps)
    return f0, _bumped_field(f0, eps, float(pair["r_in"]))


def stability_eval(cfg, setup, data, grid):
    """Solve the same boundary data under two coefficient fields and
    verify the exact energy identity plus the perturbation bounds on
    the gradient distance."""
    f0, f1 = setup
    r_out = float(grid.r_out)
    u0 = solve_normalized(f0, grid, data, r_out)
    u1 = solve_normalized(f1, grid, data, r_out)
    d = u0.values - u1.values
    lam0 = min(f0.lam, f1.lam)

    e00 = weighted_gradient_energy(u0, u0.values, r_out)
    e01 = weighted_gradient_energy(u0, u1.values, r_out)
    e11 = weighted_gradient_energy(u1, u1.values, r_out)
    ed_a0 = weighted_gradient_energy(u0, d, r_out)
    d_raw = gradient_energy(grid, d, r_out)

    ev = Evaluation()
    scale = max(e00, e01)
    # u0 is the A0-energy minimizer for this trace, so the difference
    # is A0-orthogonal to u0 and the identity below is exact up to the
    # linear-solver tolerance
    ev.add_row("energy identity", r_out, abs(ed_a0 - (e01 - e00)),
               1e-8 * scale)
    ev.add_row("ellipticity bound", r_out, d_raw,
               max(e01 - e00, 0.0) / lam0)

    r_cut = snap(grid, cfg.radii[0])
    eps_hat = field_gap(f0, f1, r_cut)
    d0_cut, d0_raw = gradient_energy(grid, u0.values, (r_cut, r_out))
    d1_cut, d1_raw = gradient_energy(grid, u1.values, (r_cut, r_out))
    delta0 = d0_cut / max(d0_raw, 1e-300)
    delta1 = d1_cut / max(d1_raw, 1e-300)
    delta_hat = max(delta0, delta1)

    ev.add_row("closeness bound", r_cut, d_raw,
               cfg.c1 * (eps_hat + delta_hat) * min(d0_raw, d1_raw))
    ev.add_row("annulus bound", r_cut, d_raw,
               cfg.c1 * (eps_hat + math.sqrt(delta0)) * d0_raw)

    den2 = max(eps_hat + delta_hat, REL_TOL) * max(min(d0_raw, d1_raw),
                                                   1e-300)
    den3 = max(eps_hat + math.sqrt(delta0), REL_TOL) * max(d0_raw, 1e-300)
    ev.fits["qst2_c"] = d_raw / den2
    ev.fits["qst3_c"] = d_raw / den3
    ev.meta.update({
        "eps_hat": eps_hat, "delta0": delta0, "delta1": delta1,
        "energies": {"e00": e00, "e01": e01, "e11": e11,
                     "identity_gap": ed_a0 - (e01 - e00)},
        "grad_distance": d_raw,
    })
    return ev
