"""Frequency functions of discrete solutions and their monotonicity checks.

The central object is the Almgren frequency

    N(r) = r D(r) / H(r),
    D(r) = int_{B_r} <A grad u, grad u>,
    H(r) = int_{boundary B_r} u^2 mu,   mu = <A x/|x|, x/|x|>,

computed at grid radii of a solved Dirichlet problem.  D uses the
boundary-flux form of the discrete energy (superconvergent at grid
radii) with the volume form as a silent cross-check.  The modified
two-scale frequency replaces H by the scalar-weighted normalized mass
h(r) and compares two radii directly, which is the quantity the growth
estimates propagate; it and the doubling index read h at any radius in
the grid's range, from the discrete solution's own trace between rings.

Verification helpers check, by centered finite differences on the
geometric radial grid, the derivative identity
d/dr log(r^(1-n) H) = 2N/r + e(r), and exact monotonicity for
0-homogeneous isotropic weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coefficients import Arity, CoefficientField, FieldError
from .solver import (
    DiscreteSolution,
    boundary_mass_profile,
    boundary_mass_scalar,
    dirichlet_energy,
    energy_flux_profile,
)

__all__ = [
    "FrequencyError",
    "FrequencyProfile",
    "HIdentityReport",
    "HomogeneousMonotonicityReport",
    "VanishingBoundaryError",
    "almgren_frequency",
    "doubling_index",
    "two_scale_frequency",
    "verify_H_identity",
    "verify_homogeneous_monotonicity",
]


class FrequencyError(RuntimeError):
    """A frequency quantity could not be computed."""


class VanishingBoundaryError(FrequencyError):
    """Boundary mass vanished at some radius; u looks trivial there."""


@dataclass(frozen=True)
class FrequencyProfile:
    """Sampled frequency data on decreasing radii with N = r D / H."""

    radii: np.ndarray
    D: np.ndarray
    H: np.ndarray
    N: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.radii, dtype=float)
        for name in ("radii", "D", "H", "N"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        if r.ndim != 1 or np.any(np.diff(r) >= 0):
            raise ValueError("profile radii must be strictly decreasing")
        if self.D.shape != r.shape or self.H.shape != r.shape \
                or self.N.shape != r.shape:
            raise ValueError("profile columns must share the radii shape")
        if not (np.all(np.isfinite(self.D)) and np.all(np.isfinite(self.H))
                and np.all(np.isfinite(self.N))):
            raise ValueError("profile entries must be finite")
        if np.any(self.H <= 0.0):
            raise ValueError("boundary masses must be positive")
        recon = self.radii * self.D / self.H
        if np.max(np.abs(recon - self.N)) > 1e-12 * max(1.0, np.max(np.abs(self.N))):
            raise ValueError("N does not equal r D / H")

    def __len__(self) -> int:
        return self.radii.size

    def ascending(self) -> tuple[np.ndarray, np.ndarray]:
        """(radii, N) sorted by increasing radius."""
        return self.radii[::-1].copy(), self.N[::-1].copy()


def _vanishing_threshold(u: DiscreteSolution) -> float:
    return 1e-14 * float(np.mean(u.values ** 2))


def _sorted_radii(u: DiscreteSolution,
                  radii: Optional[Sequence[float]]) -> np.ndarray:
    if radii is None:
        rr = u.grid.radii.copy()
    else:
        rr = np.asarray(radii, dtype=float)
        if rr.ndim != 1 or rr.size == 0:
            raise ValueError("need a nonempty list of radii")
    return np.sort(rr)[::-1]


def almgren_frequency(u: DiscreteSolution, f: CoefficientField,
                      radii: Optional[Sequence[float]] = None
                      ) -> FrequencyProfile:
    """Frequency profile N(r) = r D(r) / H(r) on the given radii
    (default: every grid radius), sorted decreasing.  The radii must be
    grid radii: D is read from the rings and raises ValueError elsewhere.

    Raises VanishingBoundaryError, naming the radius, where H falls
    below 1e-14 times the grid mean of u^2."""
    rr = _sorted_radii(u, radii)
    thr = _vanishing_threshold(u)
    # absolute floor for the energy cross-check: rounding noise in the
    # flux form scales with u^2 even when the true energy is zero
    floor = 1e-12 * float(np.mean(u.values ** 2))
    h_vals = boundary_mass_profile(u, f, rr)
    on = np.array([u.grid.on_ring(r) is not None for r in rr])
    d_vals = np.zeros(rr.size)
    d_vals[on] = energy_flux_profile(u, rr[on])
    # checked radius by radius, so the first failing radius is named
    for r, h, d_flux in zip(rr, h_vals, d_vals):
        if h <= thr:
            raise VanishingBoundaryError(
                f"boundary mass {h:.3e} at r={r:.6g} is below the vanishing "
                f"threshold {thr:.3e}")
        d_vol = dirichlet_energy(u, float(r))  # ValueError off the rings
        if abs(d_flux - d_vol) > 1e-6 * abs(d_vol) + floor:
            raise FrequencyError(
                f"energy forms disagree at r={r:.6g}: "
                f"flux {d_flux:.12e} vs volume {d_vol:.12e}")
    n_vals = rr * d_vals / h_vals
    return FrequencyProfile(rr, d_vals, h_vals, n_vals)


def two_scale_frequency(u: DiscreteSolution, abar: CoefficientField,
                        r: float, rho: float) -> float:
    """Modified frequency between two radii:
    (1 / (2 log(r/rho))) log(h(r) / h(rho)) with the scalar-weighted
    normalized boundary mass h."""
    if not 0.0 < rho < r:
        raise ValueError(f"need 0 < rho < r, got rho={rho}, r={r}")
    thr = _vanishing_threshold(u)
    h_r = boundary_mass_scalar(u, abar, r)
    h_rho = boundary_mass_scalar(u, abar, rho)
    if h_rho <= thr or h_r <= thr:
        bad = rho if h_rho <= thr else r
        raise VanishingBoundaryError(
            f"normalized boundary mass vanishes at r={bad:.6g}")
    return math.log(h_r / h_rho) / (2.0 * math.log(r / rho))


def doubling_index(u: DiscreteSolution, r: float) -> float:
    """log2 of the ratio of unweighted boundary means of u^2 at radii r
    and r/2; for a degree-k homogeneous solution this is 2k."""
    one = CoefficientField.constant(1.0)
    thr = _vanishing_threshold(u)
    top = boundary_mass_scalar(u, one, r)
    bot = boundary_mass_scalar(u, one, r / 2.0)
    if bot <= thr or top <= thr:
        bad = r / 2.0 if bot <= thr else r
        raise VanishingBoundaryError(
            f"boundary mean vanishes at r={bad:.6g}")
    return math.log2(top / bot)


# -- verification reports ------------------------------------------------


@dataclass(frozen=True)
class HIdentityReport:
    """Residual of d/dr log(r^(1-n) H) = 2 N / r + e(r)."""

    radii: np.ndarray
    errors: np.ndarray
    sup_error: float
    normalized_sup: Optional[float]
    m_bound: float
    delta: float


def verify_H_identity(u: DiscreteSolution, f: CoefficientField,
                      radii: Optional[Sequence[float]] = None,
                      m_bound: float = 0.0,
                      delta: float = 0.0) -> HIdentityReport:
    """Measure e(r) = d/dr log(r^(1-n) H(r)) - 2 N(r) / r by centered
    differences; the normalized supremum divides by M + delta/r when
    that is positive."""
    profile = almgren_frequency(u, f, radii)
    rr, nn = profile.ascending()
    if rr.size < 3:
        raise ValueError("need at least 3 radii")
    n_dim = u.coefficient.n
    h_norm = profile.H[::-1] * rr ** (1 - n_dim)
    x = np.log(rr)
    y = np.log(h_norm)
    mid = slice(1, rr.size - 1)
    deriv = (y[2:] - y[:-2]) / (x[2:] - x[:-2]) / rr[mid]
    errors = deriv - 2.0 * nn[mid] / rr[mid]
    norms = m_bound + delta / rr[mid]
    normalized = float(np.max(np.abs(errors) / norms)) \
        if np.all(norms > 0.0) else None
    return HIdentityReport(rr[mid].copy(), errors,
                           float(np.max(np.abs(errors))), normalized,
                           m_bound, delta)


@dataclass(frozen=True)
class HomogeneousMonotonicityReport:
    """Monotonicity of N for a 0-homogeneous isotropic weight."""

    radii: np.ndarray
    n_values: np.ndarray
    epsilon: float
    violations: np.ndarray
    max_drop: float
    h_identity_residual: float


def _check_zero_homogeneous(abar: CoefficientField) -> None:
    if abar.arity is not Arity.ISOTROPIC:
        raise FieldError("homogeneous monotonicity needs an isotropic weight")
    rng = np.random.default_rng(0x0DD)
    pts = rng.normal(size=(8, abar.n))
    pts *= (0.5 * abar.domain_radius
            / np.linalg.norm(pts, axis=1, keepdims=True))
    near = abar.evaluate(pts)
    far = abar.evaluate(0.37 * pts)
    if np.max(np.abs(near - far)) > 1e-8 * max(1.0, np.max(np.abs(near))):
        raise FieldError("weight is not 0-homogeneous along rays")


def verify_homogeneous_monotonicity(u: DiscreteSolution,
                                    abar: CoefficientField,
                                    radii: Optional[Sequence[float]] = None,
                                    epsilon: Optional[float] = None
                                    ) -> HomogeneousMonotonicityReport:
    """For 0-homogeneous isotropic weights the frequency is exactly
    nondecreasing in the continuum; check the discrete profile within
    tolerance epsilon (default 5e-3 at N_theta = 256, scaled at the
    discretization order) and measure the residual of the exact
    identity d log h / d log r = 2 N."""
    _check_zero_homogeneous(abar)
    if epsilon is None:
        epsilon = 5e-3 * (256.0 / u.grid.n_theta) ** 2
    profile = almgren_frequency(u, abar, radii)
    rr, nn = profile.ascending()
    if rr.size < 3:
        raise ValueError("need at least 3 radii")
    drops = nn[:-1] - nn[1:]
    bad = drops > epsilon
    max_drop = float(max(0.0, drops.max())) if drops.size else 0.0
    h_vals = np.array([boundary_mass_scalar(u, abar, float(r)) for r in rr])
    x = np.log(rr)
    y = np.log(h_vals)
    deriv = (y[2:] - y[:-2]) / (x[2:] - x[:-2])
    residual = float(np.max(np.abs(deriv - 2.0 * nn[1:-1])))
    return HomogeneousMonotonicityReport(
        rr.copy(), nn.copy(), float(epsilon), rr[:-1][bad].copy(),
        max_drop, residual)
