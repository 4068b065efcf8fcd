"""Tests for frequency functions and monotonicity verification."""

import json
import math

import numpy as np
import pytest
import scipy.linalg as sla

from freqlab.coefficients import Arity, CoefficientField, FieldError
from freqlab.frequency import (
    FrequencyError,
    FrequencyProfile,
    VanishingBoundaryError,
    almgren_frequency,
    doubling_index,
    two_scale_frequency,
    verify_H_identity,
    verify_homogeneous_monotonicity,
)
from freqlab.io import canonical_json
from freqlab.solver import PolarGrid, boundary_mass, solve_dirichlet

I2 = CoefficientField.identity(2)
ONE = CoefficientField.constant(1.0)


def harmonic(k):
    def g(p):
        z = p[..., 0] + 1j * p[..., 1]
        return np.real(z ** k)
    return g


def fourier_data(theta, seed, modes=8):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=modes) / (1.0 + np.arange(modes))
    s = rng.normal(size=modes) / (1.0 + np.arange(modes))
    out = np.zeros_like(theta)
    for k in range(modes):
        out += c[k] * np.cos((k + 1) * theta) + s[k] * np.sin((k + 1) * theta)
    return out


def sin_profile(amplitude):
    return CoefficientField.from_callable(
        lambda p: 1.0 + amplitude * p[..., 1] / np.hypot(p[..., 0], p[..., 1]),
        arity=Arity.ISOTROPIC, n=2, lam=1.0 - abs(amplitude))


class TestFrequencyProfile:
    def test_fields_and_identity(self):
        g = PolarGrid.disk(33, 64)
        u = solve_dirichlet(I2, 1.0, lambda p: p[:, 0], g)
        prof = almgren_frequency(u, I2)
        assert len(prof) == g.n_r
        assert np.all(np.diff(prof.radii) < 0)
        assert np.allclose(prof.N, prof.radii * prof.D / prof.H, rtol=1e-13)
        rr, nn = prof.ascending()
        assert np.all(np.diff(rr) > 0)
        assert nn[0] == prof.N[-1]

    def test_validation(self):
        r = np.array([0.5, 1.0])  # increasing: wrong direction
        ones = np.ones(2)
        with pytest.raises(ValueError, match="decreasing"):
            FrequencyProfile(r, ones, ones, r * ones)
        r = np.array([1.0, 0.5])
        with pytest.raises(ValueError, match="positive"):
            FrequencyProfile(r, ones, np.array([1.0, 0.0]), ones)
        with pytest.raises(ValueError, match="r D / H"):
            FrequencyProfile(r, ones, ones, np.array([5.0, 5.0]))
        with pytest.raises(ValueError, match="finite"):
            FrequencyProfile(r, np.array([np.inf, 1.0]), ones, r)
        with pytest.raises(ValueError, match="shape"):
            FrequencyProfile(r, np.ones(3), ones, r)


class TestAlmgrenFrequency:
    def test_linear_solution_has_frequency_one(self):
        g = PolarGrid.disk(97, 192)
        u = solve_dirichlet(I2, 1.0, lambda p: p[:, 0], g)
        prof = almgren_frequency(u, I2)
        assert np.abs(prof.N - 1.0).max() <= 1e-3

    def test_constant_solution_has_frequency_zero(self):
        g = PolarGrid.disk(33, 64)
        u = solve_dirichlet(I2, 1.0, np.ones(64), g)
        prof = almgren_frequency(u, I2)
        assert np.abs(prof.N).max() <= 1e-10

    @pytest.mark.parametrize("k", [2, 3])
    def test_homogeneous_harmonics_converge_to_degree(self, k):
        errs = []
        for nr, nt in ((49, 96), (97, 192)):
            g = PolarGrid.disk(nr, nt)
            u = solve_dirichlet(I2, 1.0, harmonic(k), g)
            prof = almgren_frequency(u, I2, radii=g.radii[g.radii >= 0.2])
            errs.append(np.abs(prof.N - k).max())
        assert errs[1] <= 5e-3
        assert errs[0] / errs[1] >= 2.0

    def test_zero_solution_reports_vanishing_boundary(self):
        g = PolarGrid.disk(17, 32)
        u = solve_dirichlet(I2, 1.0, np.zeros(32), g)
        with pytest.raises(VanishingBoundaryError):
            almgren_frequency(u, I2)

    def test_fast_vanishing_names_the_radius(self):
        # degree-8 data decays like r^8; the boundary mass at the
        # innermost rings is far below the vanishing threshold
        g = PolarGrid.disk(49, 96)
        u = solve_dirichlet(I2, 1.0, harmonic(8), g)
        with pytest.raises(VanishingBoundaryError, match="r="):
            almgren_frequency(u, I2)
        # 12 points per angular period: the trace bias on N is a
        # nearly constant (k dtheta)^2 offset, here about 0.28
        prof = almgren_frequency(u, I2, radii=g.radii[g.radii >= 0.3])
        assert np.abs(prof.N - 8.0).max() <= 0.35

    def test_volume_flux_cross_check_rejects_non_solutions(self):
        g = PolarGrid.disk(33, 64)
        u = solve_dirichlet(I2, 1.0, lambda p: p[:, 0], g)
        rng = np.random.default_rng(1)
        u.values = rng.normal(size=u.values.shape)
        u._cache.clear()
        with pytest.raises(FrequencyError, match="disagree"):
            almgren_frequency(u, I2)

    def test_errors_name_the_first_failing_radius(self):
        # zeroing ring k makes H vanish there and breaks the flux form
        # from ring k out; going down the radii, each call raises for the
        # first radius that fails, whichever check fails there
        g = PolarGrid.disk(33, 64)
        u = solve_dirichlet(I2, 1.0, fourier_data(g.theta, 3), g)
        k = 16
        u.values[k * 64:(k + 1) * 64] = 0.0
        r = g.radii
        assert almgren_frequency(u, I2, radii=r[:k]).N.size == k
        with pytest.raises(FrequencyError, match="disagree") as err:
            almgren_frequency(u, I2, radii=r[[k - 1, k, k + 1]])
        assert f"r={r[k + 1]:.6g}:" in str(err.value)
        with pytest.raises(VanishingBoundaryError) as err:
            almgren_frequency(u, I2, radii=r[[k - 1, k]])
        assert f"r={r[k]:.6g} " in str(err.value)
        off = 0.5 * (r[k + 1] + r[k + 2])
        with pytest.raises(ValueError, match="not a grid radius") as err:
            almgren_frequency(u, I2, radii=[r[k], off])
        assert f"radius {off:.6g} " in str(err.value)

    def test_scale_invariance(self):
        g = PolarGrid.disk(33, 64)
        u = solve_dirichlet(I2, 1.0, fourier_data(g.theta, 8), g)
        prof = almgren_frequency(u, I2, radii=g.radii[g.radii >= 0.2])
        prof_c = almgren_frequency(u.scaled(1.0 / 137.0), I2,
                                   radii=g.radii[g.radii >= 0.2])
        assert np.allclose(prof_c.N, prof.N, rtol=1e-12)
        assert np.allclose(prof_c.D, 137.0 ** 2 * prof.D, rtol=1e-12)
        assert np.allclose(prof_c.H, 137.0 ** 2 * prof.H, rtol=1e-12)


class TestTwoScaleFrequency:
    def test_linear_solution(self):
        g = PolarGrid.disk(97, 192, r_min=0.25)
        u = solve_dirichlet(I2, 1.0, lambda p: p[:, 0], g)
        assert two_scale_frequency(u, ONE, 1.0, 0.5) == pytest.approx(
            1.0, abs=1e-3)

    def test_constant_solution_is_zero_for_homogeneous_weight(self):
        g = PolarGrid.disk(33, 64)
        u = solve_dirichlet(I2, 1.0, np.ones(64), g)
        assert abs(two_scale_frequency(u, sin_profile(0.4), 1.0, 0.25)) \
            <= 1e-12

    def test_quadratic_harmonic_between_exact_rings(self):
        g = PolarGrid.disk(97, 128, radius=0.8, r_min=0.1)
        assert g.on_ring(0.4) == 64
        u = solve_dirichlet(I2, 0.8, harmonic(2), g)
        assert two_scale_frequency(u, ONE, 0.8, 0.4) == pytest.approx(
            2.0, abs=2e-3)

    def test_bad_radius_order_raises(self):
        g = PolarGrid.disk(17, 32)
        u = solve_dirichlet(I2, 1.0, np.ones(32), g)
        with pytest.raises(ValueError):
            two_scale_frequency(u, ONE, 0.5, 0.5)

    def test_vanishing_mass_raises(self):
        g = PolarGrid.disk(17, 32)
        u = solve_dirichlet(I2, 1.0, np.zeros(32), g)
        with pytest.raises(VanishingBoundaryError):
            two_scale_frequency(u, ONE, 1.0, 0.5)


class TestDoublingIndex:
    def test_linear_solution_doubles_at_two(self):
        g = PolarGrid.disk(97, 192, r_min=0.25)
        u = solve_dirichlet(I2, 1.0, lambda p: p[:, 0], g)
        assert doubling_index(u, 1.0) == pytest.approx(2.0, abs=1e-3)

    def test_constant_solution_has_zero_index(self):
        g = PolarGrid.disk(33, 64, r_min=0.25)
        u = solve_dirichlet(I2, 1.0, np.full(64, 2.5), g)
        assert doubling_index(u, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_cubic_harmonic_doubles_at_six(self):
        g = PolarGrid.disk(97, 192, r_min=0.25)
        u = solve_dirichlet(I2, 1.0, harmonic(3), g)
        assert doubling_index(u, 1.0) == pytest.approx(6.0, abs=2.5e-2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_off_ring_index_converges_at_second_order(self, k):
        # neither 0.4 nor 0.2 is a ring: H is read from u's own trace
        errs = []
        for n_r, n_t in ((65, 128), (129, 256)):
            g = PolarGrid.disk(n_r, n_t, r_min=0.02)
            assert g.on_ring(0.4) is None and g.on_ring(0.2) is None
            u = solve_dirichlet(I2, 1.0, harmonic(k), g)
            errs.append(abs(doubling_index(u, 0.4) - 2.0 * k))
        assert errs[1] <= 1e-3
        assert errs[0] >= 3.5 * errs[1]


class TestHIdentity:
    def test_exact_power_law_for_homogeneous_traces(self):
        # with exactly homogeneous nodal values the logarithmic
        # derivative of r^(1-n) H is 2k with no discretization error
        g = PolarGrid.disk(49, 96)
        u = solve_dirichlet(I2, 1.0, np.ones(96), g)
        th = g.theta
        for k in (1, 2, 3):
            z = g.radii[:, None] * np.exp(1j * th[None, :])
            u.values = np.concatenate([np.real(z ** k).ravel(), [0.0]])
            u._cache.clear()
            h_vals = np.array([boundary_mass(u, I2, r) for r in g.radii])
            x = np.log(g.radii)
            y = np.log(h_vals / g.radii)
            fd = (y[2:] - y[:-2]) / (x[2:] - x[:-2])
            assert np.abs(fd - 2.0 * k).max() <= 1e-10

    def test_linear_solution_error_shrinks_at_second_order(self):
        sups = []
        for nr, nt in ((49, 96), (97, 192)):
            g = PolarGrid.disk(nr, nt)
            u = solve_dirichlet(I2, 1.0, lambda p: p[:, 0], g)
            rep = verify_H_identity(u, I2, radii=g.radii[g.radii >= 0.25])
            sups.append(rep.sup_error)
        assert sups[1] <= 1e-3
        assert sups[0] / sups[1] >= 3.0

    def test_lipschitz_field_normalized_error_is_stable(self):
        lip = CoefficientField.from_callable(
            lambda p: 1.0 + 0.1 * np.sin(2.0 * p[..., 0]),
            arity=Arity.ISOTROPIC, n=2, lam=0.9)
        sups = []
        for nr, nt in ((65, 128), (129, 256)):
            g = PolarGrid.disk(nr, nt)
            th = g.theta
            data = np.cos(th) + 0.3 * np.sin(2 * th) + 0.1 * np.cos(3 * th)
            u = solve_dirichlet(lip, 1.0, data, g)
            rep = verify_H_identity(u, lip, radii=g.radii[g.radii >= 0.15],
                                    m_bound=0.2, delta=0.1)
            sups.append(rep.normalized_sup)
        assert max(sups) <= 0.5
        assert abs(sups[0] - sups[1]) / sups[1] <= 0.1

    def test_report_serializes(self):
        g = PolarGrid.disk(49, 96)
        u = solve_dirichlet(I2, 1.0, lambda p: p[:, 0], g)
        rep = verify_H_identity(u, I2, radii=g.radii[g.radii >= 0.25])
        doc = json.loads(canonical_json(rep))
        assert doc["errors"] == rep.errors.tolist()
        assert rep.normalized_sup is None  # M = delta = 0


class TestHomogeneousMonotonicity:
    def test_harmonic_with_unit_weight_is_monotone(self):
        g = PolarGrid.disk(65, 128)
        u = solve_dirichlet(I2, 1.0,
                            fourier_data(g.theta, 4, modes=4), g)
        rep = verify_homogeneous_monotonicity(u, ONE,
                                              radii=g.radii[g.radii >= 0.1])
        assert rep.violations.size == 0

    def test_random_data_nondecreasing_and_residual_shrinks(self):
        abar = sin_profile(0.4)
        reports = []
        for nr, nt in ((129, 256), (257, 512)):
            g = PolarGrid.disk(nr, nt)
            u = solve_dirichlet(abar, 1.0, fourier_data(g.theta, 42), g)
            reports.append(verify_homogeneous_monotonicity(
                u, abar, radii=g.radii[g.radii >= 0.1]))
        assert reports[0].epsilon == pytest.approx(5e-3)
        for rep in reports:
            assert rep.violations.size == 0
            assert rep.max_drop <= rep.epsilon
        assert reports[1].h_identity_residual <= \
            reports[0].h_identity_residual / 2.0

    def test_eigenmode_data_satisfies_h_identity(self):
        # separated mode of (a phi')' + lam^2 a phi = 0 for
        # a = 1 + 0.4 sin(theta), from an independent dense eigensolve
        m = 1024
        h = 2.0 * math.pi / m
        th = h * np.arange(m)
        a_mid = 1.0 + 0.4 * np.sin(th + h / 2)
        lap = np.zeros((m, m))
        idx = np.arange(m)
        lap[idx, idx] = (a_mid + np.roll(a_mid, 1)) / h ** 2
        lap[idx, (idx + 1) % m] = -a_mid / h ** 2
        lap[idx, (idx - 1) % m] = -np.roll(a_mid, 1) / h ** 2
        w, v = sla.eigh(lap, np.diag(1.0 + 0.4 * np.sin(th)))
        lam = math.sqrt(w[1])
        phi = v[:, 1] / np.abs(v[:, 1]).max()

        abar = sin_profile(0.4)
        g = PolarGrid.disk(129, 256)
        u = solve_dirichlet(abar, 1.0, phi[::m // 256], g)
        rep = verify_homogeneous_monotonicity(u, abar,
                                              radii=g.radii[g.radii >= 0.1])
        assert rep.h_identity_residual < 1e-4
        assert np.abs(rep.n_values - lam).max() <= 2e-3
        doc = json.loads(canonical_json(rep))
        assert doc["n_values"] == rep.n_values.tolist()

    def test_weight_must_be_isotropic_and_homogeneous(self):
        g = PolarGrid.disk(33, 64)
        u = solve_dirichlet(I2, 1.0, fourier_data(g.theta, 1), g)
        with pytest.raises(FieldError, match="isotropic"):
            verify_homogeneous_monotonicity(
                u, CoefficientField.diagonal([2.0, 1.0]))
        with pytest.raises(FieldError, match="homogeneous"):
            verify_homogeneous_monotonicity(
                u, CoefficientField.affine(1.0, [0.3, 0.0]))


class TestAverageFrequency:
    def test_matches_two_scale_frequency(self):
        # the h-derivative identity makes the two-scale frequency the
        # dt/t average of N over [rho, r]
        abar = sin_profile(0.4)
        g = PolarGrid.disk(129, 256)
        u = solve_dirichlet(abar, 1.0, fourier_data(g.theta, 42), g)
        prof = almgren_frequency(u, abar, radii=g.radii[g.radii >= 0.1])
        rs, ns = prof.ascending()
        for r, rho in ((1.0, 0.25), (0.81, 0.20)):
            rr = g.radii[g.nearest_ring(r)]
            pp = g.radii[g.nearest_ring(rho)]
            ts = two_scale_frequency(u, abar, rr, pp)
            keep = (rs >= pp * (1.0 - 1e-12)) & (rs <= rr * (1.0 + 1e-12))
            x = np.log(rs[keep])
            av = np.trapezoid(ns[keep], x) / (x[-1] - x[0])
            assert abs(ts - av) <= 2e-3
