"""Tests for the polar-grid Dirichlet solver and its energy functionals."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.linalg import splu
from scipy.special import i0

import freqlab.solver as solver_module
from freqlab.coefficients import (
    Arity, CoefficientField, FieldError, generate_holder, mu_factor)
from freqlab.modulus import Modulus
from freqlab.solver import (
    PolarGrid,
    SolverError,
    boundary_mass,
    boundary_mass_profile,
    boundary_mass_scalar,
    clear_operator_cache,
    dirichlet_energy,
    dirichlet_energy_flux,
    energy_flux_profile,
    gradient_energy,
    gradient_mean_square,
    solve_dirichlet,
    volume_mean_square,
    weighted_gradient_energy,
    _BASIS_ROWS,
    _GRAD_ROWS,
    _TRI_BASIS,
    _rotated_tensor,
)

I2 = CoefficientField.identity(2)
D21 = CoefficientField.diagonal([2.0, 1.0])
HOLDER = generate_holder(0.75, 0.05, seed=7)


def homogeneous_profile():
    """Isotropic a(theta) = 1 + 0.3 sin(theta), constant along rays."""
    return CoefficientField.from_callable(
        lambda p: 1.0 + 0.3 * p[..., 1] / np.hypot(p[..., 0], p[..., 1]),
        arity=Arity.ISOTROPIC, n=2, lam=0.7)


def harmonic_deg(k):
    def g(p):
        z = p[..., 0] + 1j * p[..., 1]
        return np.real(z ** k)
    return g


# -- grids ---------------------------------------------------------------


class TestPolarGrid:
    def test_default_disk_has_square_logical_cells(self):
        g = PolarGrid.disk(25, 48)
        assert g.d_s == pytest.approx(g.d_theta, rel=1e-12)
        assert g.r_out == 1.0
        assert g.radii[0] == pytest.approx(math.exp(-math.pi), rel=1e-12)

    def test_radii_are_geometric(self):
        g = PolarGrid.disk(20, 64, radius=2.0, r_min=0.1)
        ratios = g.radii[1:] / g.radii[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12)

    def test_refine_preserves_radii_and_doubles_angles(self):
        g = PolarGrid.disk(17, 32)
        f = g.refine()
        assert f.n_r == 2 * g.n_r - 1
        assert f.n_theta == 2 * g.n_theta
        assert np.allclose(f.radii[::2], g.radii, rtol=1e-13)

    def test_ring_lookup(self):
        g = PolarGrid.disk(33, 64, r_min=0.25)
        assert g.on_ring(0.5) == 16
        assert g.on_ring(0.47) is None
        assert g.nearest_ring(0.47) in (14, 15, 16)
        with pytest.raises(ValueError):
            g.nearest_ring(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            PolarGrid.disk(17, 6)
        with pytest.raises(ValueError):
            PolarGrid.disk(1, 32)
        with pytest.raises(ValueError):
            PolarGrid.disk(17, 32, r_min=2.0)
        with pytest.raises(ValueError):
            PolarGrid(np.array([0.1, 0.3, 0.5]), 32)  # not geometric

    def test_oversized_grid_is_rejected_by_every_constructor(self):
        limit = solver_module.MAX_GRID_NODES
        assert PolarGrid.disk(2, limit // 2).node_count == limit + 1
        with pytest.raises(ValueError, match="exceeds the limit"):
            PolarGrid.disk(2, limit // 2 + 1)
        with pytest.raises(ValueError, match="exceeds the limit"):
            PolarGrid(np.array([0.25, 0.5, 1.0]), 10 ** 13)

    def test_node_count(self):
        assert PolarGrid.disk(10, 16).node_count == 161


# -- basic solves --------------------------------------------------------


class TestSolveDirichlet:
    def test_constant_data_is_exact(self):
        g = PolarGrid.disk(17, 32)
        u = solve_dirichlet(I2, 1.0, np.ones(32), g)
        assert np.abs(u.values - 1.0).max() <= 1e-12

    def test_linear_data_second_order(self):
        g = PolarGrid.disk(49, 96)
        u = solve_dirichlet(I2, 1.0, lambda p: p[:, 0], g)
        th = g.theta
        exact = np.concatenate(
            [(g.radii[:, None] * np.cos(th)[None, :]).ravel(), [0.0]])
        assert np.abs(u.values - exact).max() <= 1e-4

    def test_boundary_nodes_carry_data_exactly(self):
        g = PolarGrid.disk(17, 32)
        rng = np.random.default_rng(11)
        data = rng.normal(size=32)
        u = solve_dirichlet(I2, 1.0, data, g)
        assert np.array_equal(u.ring_values(g.n_r - 1), data)

    def test_interior_residual_below_tolerance(self):
        g = PolarGrid.disk(33, 64)
        rng = np.random.default_rng(3)
        u = solve_dirichlet(D21, 1.0, rng.normal(size=64), g)
        assert u.residual_norm <= 1e-10

    @pytest.mark.parametrize("degree", [1, 3])
    def test_convergence_order_identity(self, degree):
        errs, hs = [], []
        g = PolarGrid.disk(25, 48)
        for _ in range(3):
            u = solve_dirichlet(I2, 1.0, harmonic_deg(degree), g)
            th = g.theta
            z = g.radii[:, None] * np.exp(1j * th[None, :])
            exact = np.concatenate([np.real(z ** degree).ravel(), [0.0]])
            errs.append(np.abs(u.values - exact).max())
            hs.append(g.d_theta)
            g = g.refine()
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= 1.9

    def test_convergence_order_anisotropic(self):
        # 2 u_xx + u_yy = 0 has solutions Re((x/sqrt(2) + i y)^k)
        def exact_fn(p):
            w = p[..., 0] / math.sqrt(2.0) + 1j * p[..., 1]
            return np.real(w ** 3)

        errs, hs = [], []
        g = PolarGrid.disk(25, 48)
        for _ in range(3):
            u = solve_dirichlet(D21, 1.0, lambda p: exact_fn(p), g)
            th = g.theta
            pts = np.stack([g.radii[:, None] * np.cos(th),
                            g.radii[:, None] * np.sin(th)], axis=-1)
            exact = np.concatenate([exact_fn(pts).ravel(), [0.0]])
            errs.append(np.abs(u.values - exact).max())
            hs.append(g.d_theta)
            g = g.refine()
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= 1.9

    def test_homogeneous_profile_matches_fine_grid_oracle(self):
        # independent oracle: the separated mode a-weighted eigenproblem
        # (a phi')' + lam^2 a phi = 0 solved densely on the circle, so
        # u = r^lam phi(theta) solves div(a grad u) = 0 exactly
        m = 1024
        h = 2.0 * math.pi / m
        th = h * np.arange(m)
        a_mid = 1.0 + 0.3 * np.sin(th + h / 2)
        lap = np.zeros((m, m))
        idx = np.arange(m)
        lap[idx, idx] = (a_mid + np.roll(a_mid, 1)) / h ** 2
        lap[idx, (idx + 1) % m] = -a_mid / h ** 2
        lap[idx, (idx - 1) % m] = -np.roll(a_mid, 1) / h ** 2
        w, v = sla.eigh(lap, np.diag(1.0 + 0.3 * np.sin(th)))
        lam = math.sqrt(w[1])
        phi = v[:, 1] / np.abs(v[:, 1]).max()
        assert 0.9 < lam < 1.1

        field = homogeneous_profile()
        coarse = PolarGrid.disk(33, 64)
        fine = coarse.refine()
        uc = solve_dirichlet(field, 1.0, phi[::m // 64], coarse)
        uf = solve_dirichlet(field, 1.0, phi[::m // 128], fine)
        vc = uc.node_grid()
        vf = uf.node_grid()
        assert np.abs(vc - vf[::2, ::2]).max() <= 1e-3

        exact = (coarse.radii[:, None] ** lam) * phi[::m // 64][None, :]
        assert np.abs(vc - exact).max() <= 3e-4

    def test_reaction_term_against_bessel_oracle(self):
        # -lap u + c u = 0 with u = 1 on the boundary has the radial
        # solution I0(sqrt(c) r) / I0(sqrt(c))
        c = 4.0
        pot = lambda p: np.full(len(p), c)
        errs, hs = [], []
        for m in (1, 2, 4):
            g = PolarGrid.disk(24 * m + 1, 48 * m)
            u = solve_dirichlet(I2, 1.0, np.ones(48 * m), g, potential=pot)
            ring_exact = i0(2.0 * g.radii) / i0(2.0)
            errs.append(np.abs(u.node_grid() - ring_exact[:, None]).max())
            hs.append(g.d_theta)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert errs[1] <= 2.5e-4
        assert slope >= 1.9
        # the origin closure needs a small core for curved profiles
        g = PolarGrid.disk(49, 96, r_min=0.02)
        u = solve_dirichlet(I2, 1.0, np.ones(96), g, potential=pot)
        assert abs(u.values[-1] - 1.0 / i0(2.0)) <= 5e-4

    @pytest.mark.parametrize("name,field", [
        ("identity", I2),
        ("diagonal", D21),
        ("affine", CoefficientField.affine(1.0, [0.2, -0.1])),
        ("cusp", CoefficientField.cusp_anisotropic(Modulus.power(0.5), 0.15)),
        ("synthetic", generate_holder(0.7, 0.4, seed=3)),
    ])
    def test_discrete_maximum_principle(self, name, field):
        g = PolarGrid.disk(49, 96)
        rng = np.random.default_rng(7)
        data = rng.normal(size=96)
        u = solve_dirichlet(field, 1.0, data, g)
        assert u.values.max() <= data.max() + 1e-9
        assert u.values.min() >= data.min() - 1e-9

    def test_solver_failure_reports_residual(self, monkeypatch):
        g = PolarGrid.disk(17, 32)
        rng = np.random.default_rng(5)
        monkeypatch.setattr(solver_module, "_RESIDUAL_TOL", 1e-30)
        with pytest.raises(SolverError, match="residual"):
            solve_dirichlet(I2, 1.0, rng.normal(size=32), g)

    def test_ellipticity_violation_is_domain_error(self):
        bad = CoefficientField.from_callable(
            lambda p: p[..., 0] + 0.2, arity=Arity.ISOTROPIC, n=2, lam=0.1)
        g = PolarGrid.disk(17, 32)
        with pytest.raises(FieldError, match="ellipticity"):
            solve_dirichlet(bad, 1.0, np.ones(32), g)

    def test_argument_validation(self):
        g = PolarGrid.disk(17, 32)
        with pytest.raises(SolverError, match="outer radius"):
            solve_dirichlet(I2, 0.9, np.ones(32), g)
        with pytest.raises(SolverError, match="boundary data"):
            solve_dirichlet(I2, 1.0, np.ones(16), g)
        bad = np.ones(32)
        bad[3] = np.nan
        with pytest.raises(SolverError, match="non-finite"):
            solve_dirichlet(I2, 1.0, bad, g)

    def test_three_dimensional_field_not_implemented(self):
        with pytest.raises(FieldError):
            CoefficientField.from_callable(
                lambda p: np.ones(p.shape[0]), arity=Arity.ISOTROPIC,
                n=3, lam=1.0)

    def test_direct_solve_matches_default_ordering(self):
        # the conjugate-gradient solution is a direct solve's
        field = generate_holder(0.75, 0.05, seed=7)
        g = PolarGrid.disk(65, 128)
        rng = np.random.default_rng(3)
        u = solve_dirichlet(field, 1.0, rng.normal(size=128), g)
        asm = u._assembly
        ref = splu(_csc(asm)).solve(-_csr(asm, True) @ u.boundary_data)
        assert u.residual_norm <= 1e-12
        assert np.abs(u.values[asm.interior] - ref).max() <= 1e-12

    @pytest.mark.parametrize("grid", [
        PolarGrid.disk(17, 32), PolarGrid.disk(65, 128),
        PolarGrid.disk(17, 32, r_min=0.3),
        PolarGrid.disk(40, 64, r_min=0.3),
    ], ids=["disk17", "disk65", "wide17", "wide40"])
    @pytest.mark.parametrize("field", [
        I2, CoefficientField.constant(2.5),
        CoefficientField.annulus_bump(0.3, 0.4),
    ], ids=["identity", "constant", "annulus_bump"])
    def test_radial_field_converges_in_one_iteration(self, grid, field):
        # the ring-mean operator of a radial field is the operator itself,
        # so its Fourier symbol and origin coupling must solve exactly
        rng = np.random.default_rng(5)
        u = solve_dirichlet(field, 1.0, rng.normal(size=grid.n_theta), grid)
        asm = u._assembly
        ref = splu(_csc(asm)).solve(-_csr(asm, True) @ u.boundary_data)
        assert u.iterations == 1
        assert np.abs(u.values[asm.interior] - ref).max() <= 1e-12

    def test_strong_anisotropy_converges_under_the_cap(self):
        g = PolarGrid.disk(65, 128)
        u = solve_dirichlet(CoefficientField.diagonal([1.0, 100.0]), 1.0,
                            np.cos(g.theta) + np.sin(3.0 * g.theta), g)
        asm = u._assembly
        ref = splu(_csc(asm)).solve(-_csr(asm, True) @ u.boundary_data)
        assert 1 < u.iterations < asm.cap
        assert np.abs(u.values[asm.interior] - ref).max() <= 1e-10

    @pytest.mark.parametrize("potential, found", [
        # -lap u - 40 u is indefinite on the unit disk (40 > j_{0,1}^2),
        # and so is its ring mean, which is itself
        (lambda p: np.full(p.shape[0], -40.0), "ring mean"),
        # a well of depth 60 on x > 1/2: the ring mean stays definite,
        # the operator is not
        (lambda p: np.where(p[:, 0] > 0.5, -60.0, 0.0), r"iteration [1-5]\b"),
    ], ids=["constant", "well"])
    def test_indefinite_operator_raises(self, potential, found):
        g = PolarGrid.disk(33, 64)
        with pytest.raises(SolverError, match="not positive definite") as err:
            solve_dirichlet(CoefficientField.constant(1.0), 1.0,
                            np.full(64, 2.0), g, potential=potential)
        assert re.search(found, str(err.value))

    def test_nan_field_is_a_field_error(self):
        f = CoefficientField.from_callable(
            lambda p: np.where(p[:, 0] > 0.5, np.nan, 1.0),
            arity=Arity.ISOTROPIC, n=2, lam=0.5)
        with pytest.raises(FieldError, match="eigenvalue nan"):
            solve_dirichlet(f, 1.0, np.ones(32), PolarGrid.disk(17, 32))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_solution_scales_with_extreme_data(self, scale):
        g = PolarGrid.disk(33, 64)
        unit = solve_dirichlet(HOLDER, 1.0, np.cos(g.theta), g)
        u = solve_dirichlet(HOLDER, 1.0, scale * np.cos(g.theta), g)
        np.testing.assert_allclose(u.values / scale, unit.values,
                                   rtol=1e-12, atol=1e-12)
        assert u.iterations == unit.iterations
        assert 0.0 < u.residual_norm <= 4.0 * unit.residual_norm

    def test_solves_are_deterministic(self):
        g = PolarGrid.disk(25, 48)
        rng = np.random.default_rng(9)
        data = rng.normal(size=48)
        u1 = solve_dirichlet(D21, 1.0, data, g)
        u2 = solve_dirichlet(D21, 1.0, data, g)
        assert np.array_equal(u1.values, u2.values)


# -- energy functionals --------------------------------------------------


class TestDirichletEnergy:
    def test_constant_solution_has_zero_energy(self):
        g = PolarGrid.disk(17, 32)
        u = solve_dirichlet(I2, 1.0, np.ones(32), g)
        assert abs(dirichlet_energy(u, 1.0)) <= 1e-12
        # exactly constant nodal values give exactly zero
        u.values = np.ones(g.node_count)
        u._cache.clear()
        assert dirichlet_energy(u, 1.0) == 0.0

    def test_linear_solution_energy_is_pi_r_squared(self):
        g = PolarGrid.disk(49, 96)
        u = solve_dirichlet(I2, 1.0, lambda p: p[:, 0], g)
        for r in (1.0, g.radii[36], g.radii[24]):
            assert dirichlet_energy(u, r) == pytest.approx(
                math.pi * r ** 2, rel=1e-3)

    def test_quadratic_energy_closed_form(self):
        # |grad Re z^2|^2 = 4 |z|^2 integrates to 2 pi r^4
        g = PolarGrid.disk(49, 192, r_min=0.25)
        assert g.on_ring(0.5) == 24
        u = solve_dirichlet(I2, 1.0, harmonic_deg(2), g)
        assert dirichlet_energy(u, 0.5) == pytest.approx(
            2.0 * math.pi * 0.5 ** 4, rel=1e-3)
        assert dirichlet_energy(u, 1.0) == pytest.approx(
            2.0 * math.pi, rel=1e-3)

    @pytest.mark.parametrize("field", [I2, D21], ids=["identity", "diag"])
    def test_flux_form_matches_volume_form(self, field):
        g = PolarGrid.disk(33, 64)
        rng = np.random.default_rng(13)
        u = solve_dirichlet(field, 1.0, rng.normal(size=64), g)
        for i in range(1, g.n_r):
            d_vol = dirichlet_energy(u, g.radii[i])
            d_flx = dirichlet_energy_flux(u, g.radii[i])
            assert abs(d_vol - d_flx) <= 1e-10 * max(d_vol, 1e-30)

    def test_flux_identity_on_rough_field(self):
        field = generate_holder(0.7, 0.4, seed=3)
        g = PolarGrid.disk(33, 64)
        rng = np.random.default_rng(17)
        u = solve_dirichlet(field, 1.0, rng.normal(size=64), g)
        r = g.radii[20]
        d_vol = dirichlet_energy(u, r)
        assert abs(d_vol - dirichlet_energy_flux(u, r)) <= 1e-10 * d_vol

    def test_radius_outside_grid_raises(self):
        g = PolarGrid.disk(17, 32)
        u = solve_dirichlet(I2, 1.0, np.ones(32), g)
        with pytest.raises(ValueError):
            dirichlet_energy(u, 2.0)
        with pytest.raises(ValueError):
            dirichlet_energy(u, 1e-4)

    def test_caccioppoli_constant_stable_under_refinement(self):
        # for a degree-2 harmonic, rho' = rho (1 + 1/N) with N = 2
        def fitted_constant(grid):
            u = solve_dirichlet(I2, 1.0, harmonic_deg(2), grid)
            ratios = []
            for rho in (0.3, 0.4, 0.5):
                rr = grid.radii[grid.nearest_ring(rho)]
                rp = grid.radii[grid.nearest_ring(1.5 * rr)]
                lhs = rr ** 2 * gradient_mean_square(u, rr)
                ratios.append(lhs / volume_mean_square(u, rp))
            return np.asarray(ratios)

        coarse = fitted_constant(PolarGrid.disk(49, 96))
        fine = fitted_constant(PolarGrid.disk(97, 192))
        assert np.all(coarse > 0)
        assert np.abs(coarse - fine).max() / coarse.max() <= 0.05
        assert fine.max() <= 10.0


class TestBoundaryMass:
    def test_constant_solution_gives_circumference(self):
        g = PolarGrid.disk(17, 32)
        u = solve_dirichlet(I2, 1.0, np.ones(32), g)
        for i in (4, 10, 16):
            r = g.radii[i]
            assert boundary_mass(u, I2, r) == pytest.approx(
                2.0 * math.pi * r, rel=1e-12)

    def test_linear_solution_closed_form(self):
        g = PolarGrid.disk(97, 192)
        u = solve_dirichlet(I2, 1.0, lambda p: p[:, 0], g)
        for r in (1.0, g.radii[72]):
            assert boundary_mass(u, I2, r) == pytest.approx(
                math.pi * r ** 3, rel=5e-4)

    def test_mu_weight_for_diagonal_field(self):
        # mu(theta) = 2 cos^2 + sin^2 has only a second harmonic, which
        # the angular Simpson rule integrates exactly
        g = PolarGrid.disk(17, 32)
        u = solve_dirichlet(D21, 1.0, np.ones(32), g)
        assert boundary_mass(u, D21, 1.0) == pytest.approx(
            3.0 * math.pi, rel=1e-12)

    def test_off_ring_radius_lies_between_neighbours(self):
        g = PolarGrid.disk(33, 64)
        u = solve_dirichlet(I2, 1.0, lambda p: p[:, 0], g)
        r = 0.45
        assert g.on_ring(r) is None
        val = boundary_mass(u, I2, r)
        i = g.nearest_ring(r)
        lo = boundary_mass(u, I2, g.radii[i - 1])
        hi = boundary_mass(u, I2, g.radii[i + 1])
        assert min(lo, hi) <= val <= max(lo, hi)

    @pytest.mark.parametrize("r_min", [None, 0.3], ids=["disk", "wide_core"])
    def test_off_ring_mass_integrates_the_solution_trace(self, r_min):
        # between rings H is r times Simpson's rule on u.evaluate's trace,
        # whose midpoint values are read from u, not averaged
        g = PolarGrid.disk(33, 64, r_min=r_min)
        data = lambda p: harmonic_deg(2)(p) + 0.3 * p[:, 1]
        u = solve_dirichlet(D21, 1.0, data, g)
        one = CoefficientField.constant(1.0)
        r = 0.45
        assert g.on_ring(r) is None
        th = g.theta

        def circle(t):
            return r * np.stack([np.cos(t), np.sin(t)], axis=1)

        def simpson(weight):
            node, mid = circle(th), circle(th + 0.5 * g.d_theta)
            un, um = u.evaluate(node), u.evaluate(mid)
            wn, wm = weight(node), weight(mid)
            seg = (un ** 2 * wn + 4.0 * um ** 2 * wm
                   + np.roll(un ** 2 * wn, -1))
            return g.d_theta / 6.0 * seg.sum()

        assert boundary_mass(u, D21, r) == pytest.approx(
            r * simpson(lambda p: mu_factor(D21, p)), rel=1e-12)
        assert boundary_mass_scalar(u, one, r) == pytest.approx(
            simpson(one.evaluate), rel=1e-12)

    @pytest.mark.parametrize("r_min", [None, 0.3], ids=["disk", "wide_core"])
    def test_profiles_equal_per_ring_formulas(self, r_min):
        # H and flux D for many rings at once equal, bit for bit, one
        # ring's Simpson sum and one band's flux product
        g = PolarGrid.disk(33, 64, r_min=r_min)
        rng = np.random.default_rng(5)
        data = rng.normal(size=64)
        for f in (HOLDER, D21):
            u = solve_dirichlet(f, 1.0, data, g)
            asm = u._assembly

            def ring_h(i):
                rho, th = g.radii[i], g.theta
                node = rho * np.stack([np.cos(th), np.sin(th)], axis=1)
                th = th + 0.5 * g.d_theta
                mid = rho * np.stack([np.cos(th), np.sin(th)], axis=1)
                uv = u.ring_values(i)
                u_next = np.roll(uv, -1)
                w = mu_factor(f, node)
                seg = (g.d_theta / 6.0) * (
                    uv ** 2 * w + 4.0 * (0.5 * (uv + u_next)) ** 2
                    * mu_factor(f, mid) + u_next ** 2 * np.roll(w, -1))
                return rho * float(seg.sum())

            def ring_d(i):
                if i == 0:
                    ut = u.values[asm.plan.tri_nodes]
                    forces = np.einsum("tmn,tn->tm", asm.tri_k, ut)
                    return float(np.sum(forces[:, 1:] * ut[:, 1:]))
                uc = u.values[asm.plan.cell_nodes[i - 1]]
                forces = np.einsum("tmn,tn->tm", asm.cell_k[i - 1], uc)
                return float(np.sum(forces[:, 1:3] * uc[:, 1:3]))

            for rings in (np.arange(g.n_r), np.arange(g.n_r)[::-3], [7]):
                radii = g.radii[rings]
                assert boundary_mass_profile(u, f, radii).tolist() == [
                    ring_h(i) for i in rings]
                assert energy_flux_profile(u, radii).tolist() == [
                    ring_d(i) for i in rings]


class TestBoundaryMassScalar:
    def test_normalization_removes_radius(self):
        g = PolarGrid.disk(25, 48)
        u = solve_dirichlet(I2, 1.0, np.ones(48), g)
        one = CoefficientField.constant(1.0)
        for i in (0, 8, 16, 24):
            assert boundary_mass_scalar(u, one, g.radii[i]) == pytest.approx(
                2.0 * math.pi, rel=1e-12)

    def test_linear_solution_closed_form(self):
        g = PolarGrid.disk(97, 192)
        u = solve_dirichlet(I2, 1.0, lambda p: p[:, 0], g)
        one = CoefficientField.constant(1.0)
        for r in (1.0, g.radii[48]):
            assert boundary_mass_scalar(u, one, r) == pytest.approx(
                math.pi * r ** 2, rel=5e-4)

    def test_odd_profile_integrates_to_circumference(self):
        g = PolarGrid.disk(17, 32)
        u = solve_dirichlet(I2, 1.0, np.ones(32), g)
        assert boundary_mass_scalar(u, homogeneous_profile(), 1.0) == \
            pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_matrix_weight_rejected(self):
        g = PolarGrid.disk(17, 32)
        u = solve_dirichlet(I2, 1.0, np.ones(32), g)
        with pytest.raises(FieldError):
            boundary_mass_scalar(u, D21, 1.0)


class TestVolumeFunctionals:
    def test_mean_square_of_constant_is_one(self):
        g = PolarGrid.disk(17, 32)
        u = solve_dirichlet(I2, 1.0, np.ones(32), g)
        for i in (0, 5, 16):
            assert volume_mean_square(u, g.radii[i]) == pytest.approx(
                1.0, abs=1e-12)

    def test_mean_square_of_linear_solution(self):
        # mean over B_r of x_1^2 is r^2 / 4
        g = PolarGrid.disk(49, 96)
        u = solve_dirichlet(I2, 1.0, lambda p: p[:, 0], g)
        for r in (1.0, g.radii[30]):
            assert volume_mean_square(u, r) == pytest.approx(
                r ** 2 / 4.0, rel=2e-3)

    def test_gradient_mean_square_plain_and_weighted(self):
        g = PolarGrid.disk(49, 96)
        u = solve_dirichlet(I2, 1.0, lambda p: p[:, 0], g)
        assert gradient_mean_square(u, 1.0) == pytest.approx(1.0, rel=2e-3)
        w = solve_dirichlet(D21, 1.0, lambda p: p[:, 0], g)
        e = weighted_gradient_energy(w, u.values, 1.0)
        assert e / math.pi == pytest.approx(2.0, rel=2e-3)

    @pytest.mark.parametrize("functional", [
        dirichlet_energy, dirichlet_energy_flux, volume_mean_square])
    def test_ring_functionals_reject_off_ring_radius(self, functional):
        g = PolarGrid.disk(33, 64)
        u = solve_dirichlet(I2, 1.0, harmonic_deg(2), g)
        assert g.on_ring(0.45) is None
        with pytest.raises(ValueError, match="not a grid radius"):
            functional(u, 0.45)

    def test_gradient_mean_square_rejects_off_ring_radius(self):
        g = PolarGrid.disk(33, 64)
        u = solve_dirichlet(I2, 1.0, harmonic_deg(2), g)
        assert g.on_ring(0.5) is None
        with pytest.raises(ValueError, match="not a grid radius"):
            gradient_mean_square(u, 0.5)

    def test_weighted_energy_of_solution_difference(self):
        g = PolarGrid.disk(33, 64)
        u1 = solve_dirichlet(I2, 1.0, harmonic_deg(1), g)
        u2 = solve_dirichlet(I2, 1.0, harmonic_deg(1), g)
        z = u1.values - u2.values
        assert weighted_gradient_energy(u1, z, 1.0) <= 1e-20
        u3 = solve_dirichlet(D21, 1.0, harmonic_deg(1), g)
        z = u1.values - u3.values
        assert weighted_gradient_energy(u1, z, 1.0) > 0.0
        assert gradient_energy(g, z, 1.0) == weighted_gradient_energy(
            u1, z, 1.0)

    def test_energy_after_potential_solve_leaves_mass_out(self):
        # the solution's cell matrices hold no potential mass: bit for
        # bit those of a fresh assembly without the potential
        g = PolarGrid.disk(33, 64)
        u = solve_dirichlet(D21, 1.0, harmonic_deg(2), g, potential=_potential)
        fresh = replace(u, _assembly=solver_module._Assembly(g, D21, None))
        assert not np.array_equal(u._assembly.stencil,
                                  fresh._assembly.stencil)
        for r in (g.radii[20], 1.0):
            assert weighted_gradient_energy(u, u.values, r) == \
                weighted_gradient_energy(fresh, u.values, r)

    def test_gradient_mean_square_builds_no_assembly(self, monkeypatch):
        # the identity field's cell matrices come from the grid's plan
        g = PolarGrid.disk(33, 64)
        u = solve_dirichlet(HOLDER, 1.0, harmonic_deg(2), g)
        plan = u._assembly.plan
        area = float(plan.cell_volw.sum()) + float(plan.tri_area.sum())
        want = gradient_energy(g, u.values, 1.0) / area
        clear_operator_cache()

        def no_assembly(*args, **kwargs):
            raise AssertionError("gradient_mean_square built an assembly")
        monkeypatch.setattr(solver_module, "_Assembly", no_assembly)
        assert gradient_mean_square(u, 1.0) == want
        assert gradient_mean_square(u, g.radii[25]) > 0.0


class TestSolutionUtilities:
    def test_node_grid_shape(self):
        g = PolarGrid.disk(17, 32)
        u = solve_dirichlet(I2, 1.0, np.ones(32), g)
        assert u.node_grid().shape == (17, 32)

    @pytest.mark.parametrize("r_min", [None, 0.3], ids=["disk", "wide_core"])
    def test_evaluate_reads_nodal_values_on_the_rings(self, r_min):
        g = PolarGrid.disk(33, 64, r_min=r_min)
        data = lambda p: harmonic_deg(3)(p) + p[:, 0]
        u = solve_dirichlet(D21, 1.0, data, g)
        got = u.evaluate(np.concatenate(
            [g.ring_points(i) for i in range(g.n_r)])).reshape(g.n_r, -1)
        want = u.node_grid()
        scale = np.abs(want).max()
        # log r and the angle are rounded, so a node is read as a blend
        # with its neighbours' values in the last bits, on every ring
        gaps = np.abs(got - want).max(axis=1)
        assert gaps.max() <= 1e-13 * scale, gaps

    def test_evaluate_is_bilinear_in_log_radius(self):
        # nodal values a + b log r on the rings are read back exactly
        # between them; inside ring 0 they blend linearly to the origin
        g = PolarGrid.disk(17, 32, r_min=0.2)
        u = solve_dirichlet(I2, 1.0, np.ones(32), g)
        u = replace(u, values=np.append(
            np.repeat(1.0 - 2.0 * np.log(g.radii) / math.log(5.0), 32), 7.0))
        rng = np.random.default_rng(4)
        r = np.exp(rng.uniform(math.log(0.2), 0.0, 200))
        th = rng.uniform(0.0, 2.0 * math.pi, 200)
        pts = r[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
        want = 1.0 - 2.0 * np.log(r) / math.log(5.0)
        assert np.abs(u.evaluate(pts) - want).max() <= 1e-12
        assert u.evaluate([[0.05, 0.0]]) == pytest.approx(
            7.0 * 0.75 + 3.0 * 0.25, abs=1e-12)

    def test_evaluate_rejects_points_off_the_grid(self):
        # a point beyond the outer ring is not clipped onto it; within
        # nearest_ring's relative tolerance it reads the ring value
        g = PolarGrid.disk(17, 32)
        u = solve_dirichlet(I2, 1.0, lambda p: p[:, 0], g)
        for pt in ([2.0, 0.0], [math.nan, 0.0], [0.0, math.inf]):
            with pytest.raises(ValueError, match="outside grid range"):
                u.evaluate([pt])
        edge = u.evaluate([[1.0 + 1e-12, 0.0]])
        assert edge[0] == pytest.approx(u.ring_values(g.n_r - 1)[0],
                                        abs=1e-13)


class TestOperatorCache:
    def test_distinct_custom_fields_not_conflated(self):
        g = PolarGrid.disk(17, 32)
        f1 = CoefficientField.from_callable(
            lambda p: np.full(p.shape[:-1], 1.0),
            arity=Arity.ISOTROPIC, n=2, lam=1.0)
        f2 = CoefficientField.from_callable(
            lambda p: np.full(p.shape[:-1], 2.0),
            arity=Arity.ISOTROPIC, n=2, lam=1.0)
        u1 = solve_dirichlet(f1, 1.0, np.ones(32), g)
        u2 = solve_dirichlet(f2, 1.0, np.ones(32), g)
        assert u1._assembly is not u2._assembly

    def test_dropped_custom_fields_never_share_assembly(self):
        # each field dies with its helper's frame, so the next one can
        # get its id; the cell matrices must still scale with c
        clear_operator_cache()
        g = PolarGrid.disk(9, 16)

        def cell_k(c):
            f = CoefficientField.from_callable(
                lambda p: np.full(p.shape[:-1], c),
                arity=Arity.ISOTROPIC, n=2, lam=1.0 / c)
            return solve_dirichlet(f, 1.0, np.ones(16), g)._assembly.cell_k

        ref = cell_k(1.0)
        for c in range(2, 9):
            np.testing.assert_allclose(cell_k(float(c)), c * ref,
                                       rtol=1e-14, atol=0.0)

    def test_cache_bounded_under_concurrent_solves(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        clear_operator_cache()
        g = PolarGrid.disk(5, 8)
        ref = solve_dirichlet(CoefficientField.constant(1.0), 1.0,
                              np.ones(8), g)._assembly.cell_k
        values = [1.0 + 0.1 * i for i in range(12)] * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(
                    solve_dirichlet, CoefficientField.constant(c), 1.0,
                    np.ones(8), g) for c in values]
                results = [fut.result(timeout=120) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        for c, u in zip(values, results):
            np.testing.assert_allclose(u._assembly.cell_k, c * ref,
                                       rtol=1e-14, atol=0.0)


# -- frame rotation --------------------------------------------------------


def _einsum_rotation(f, r, th):
    """Q^T A Q as a three-operand matrix product per point."""
    mats = f.evaluate(np.stack([r * np.cos(th), r * np.sin(th)], axis=-1))
    c, s = np.cos(th), np.sin(th)
    q = np.empty(th.shape + (2, 2))
    q[..., 0, 0] = c
    q[..., 0, 1] = -s
    q[..., 1, 0] = s
    q[..., 1, 1] = c
    return np.einsum("...ji,...jk,...kl->...il", q, mats, q)


def _matrix_field(off_lower):
    def ev(p):
        x, y = p[..., 0], p[..., 1]
        out = np.empty(p.shape[:-1] + (2, 2))
        out[..., 0, 0] = 2.0 + 0.5 * x
        out[..., 1, 1] = 1.5 - 0.3 * y
        out[..., 0, 1] = 0.4 * x * y - 0.2
        out[..., 1, 0] = off_lower(x, y)
        return out
    return CoefficientField.from_callable(ev, arity=Arity.ANISOTROPIC,
                                          n=2, lam=0.2)


@pytest.mark.parametrize("symmetric", [True, False])
def test_rotated_tensor_matches_matrix_product(symmetric):
    off = ((lambda x, y: 0.4 * x * y - 0.2) if symmetric
           else (lambda x, y: 0.1 + 0.3 * x))
    f = _matrix_field(off)
    rng = np.random.default_rng(21)
    r = np.sqrt(rng.random(20000))
    th = 2.0 * math.pi * rng.random(20000)
    c, s = np.cos(th), np.sin(th)
    got = _rotated_tensor(f, np.stack([r * c, r * s], axis=-1), c, s)
    want = _einsum_rotation(f, r, th)
    assert np.abs(got - want).max() <= 4e-15 * np.abs(want).max()
    gap = np.abs(got[..., 0, 1] - got[..., 1, 0]).max()
    if symmetric:
        assert gap == 0.0
    else:
        assert gap > 0.1
        g = PolarGrid.disk(9, 16)
        with pytest.raises(FieldError, match="asymmetric"):
            solve_dirichlet(f, 1.0, np.ones(16), g)


# -- unknown order and solve: property tests --------------------------------

SYMMETRIC = _matrix_field(lambda x, y: 0.4 * x * y - 0.2)


def _potential(p):
    return 1.0 + p[..., 0] ** 2 - 0.5 * p[..., 1]


# square logical cells (the default r_min) and flat ones with a wide core
R_MINS = st.sampled_from([None, 0.3])
GRIDS = st.builds(PolarGrid.disk, st.integers(2, 40), st.integers(8, 70),
                  r_min=R_MINS)


@given(GRIDS)
def test_interior_is_a_permutation_of_the_free_nodes(g):
    asm = solve_dirichlet(I2, 1.0, np.ones(g.n_theta), g)._assembly
    free = np.setdiff1d(np.arange(g.node_count), asm.boundary)
    assert asm.interior.size == free.size
    assert np.array_equal(np.sort(asm.interior), free)


@given(GRIDS, st.sampled_from(["d21", "symmetric", "holder"]),
       st.integers(0, 2 ** 32 - 1))
def test_cg_solve_matches_splu(g, name, seed):
    rng = np.random.default_rng(seed)
    g_out = rng.normal(size=g.n_theta)
    f = {"d21": D21, "symmetric": SYMMETRIC, "holder": HOLDER}[name]
    potential = _potential if name == "symmetric" else None
    u = solve_dirichlet(f, 1.0, g_out, g, potential=potential)
    asm = u._assembly
    ref = splu(_csc(asm)).solve(-_csr(asm, True) @ g_out)
    assert np.abs(u.values[asm.interior] - ref).max() <= 1e-12


@given(GRIDS, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_affine_datum_is_reproduced(g, a, b):
    # affine in the logical coordinates (log r, theta) and periodic: the
    # constant a is reproduced, origin included
    n_t = g.n_theta
    u = solve_dirichlet(I2, 1.0, np.full(n_t, a), g)
    assert np.abs(u.values - a).max() <= 1e-12
    # a + b log r is linear in log r, so the rows of rings 1..n_r - 2,
    # which touch no core triangle, vanish on it; the origin node leaves
    # log r itself out of the discrete space
    asm = u._assembly
    nodal = a + b * np.log(g.radii)
    x = np.append(np.repeat(nodal[:-1], n_t), a)
    g_out = np.full(n_t, nodal[-1])
    rows = asm.product(x) + asm.product(g_out, boundary=True)
    scale = abs(_csr(asm)) @ abs(x) + abs(_csr(asm, True)) @ abs(g_out)
    clear = slice(n_t, (g.n_r - 1) * n_t)
    assert np.all(np.abs(rows[clear]) <= 1e-14 * scale[clear])


def _radial_anisotropic(p):
    # A = (1 + r^2) I + x x^T: its polar-frame tensor depends on r alone
    r2 = np.sum(p * p, axis=-1)[..., None, None]
    return (1.0 + r2) * np.eye(2) + p[..., :, None] * p[..., None, :]


RADIAL = {
    "bump": CoefficientField.annulus_bump(0.3, 0.4),
    "anisotropic": CoefficientField.from_callable(
        _radial_anisotropic, arity=Arity.ANISOTROPIC, n=2, lam=0.5),
}


@given(R_MINS, st.integers(2, 24), st.integers(8, 48),
       st.sampled_from(sorted(RADIAL)), st.data())
def test_rotating_the_data_rotates_a_radial_solution(r_min, n_r, n_t, name,
                                                     data):
    # a radial field's operator commutes with rotation by a grid angle
    g = PolarGrid.disk(n_r, n_t, r_min=r_min)
    k = data.draw(st.integers(0, n_t - 1), label="k")
    rng = np.random.default_rng(n_r * n_t + k)
    g_out = rng.normal(size=n_t)
    f = RADIAL[name]
    u = solve_dirichlet(f, 1.0, g_out, g)
    turned = solve_dirichlet(f, 1.0, np.roll(g_out, k), g)
    scale = np.abs(u.values).max()
    assert np.abs(turned.node_grid()
                  - np.roll(u.node_grid(), k, axis=1)).max() <= 1e-12 * scale
    assert abs(turned.values[-1] - u.values[-1]) <= 1e-12 * scale


# -- assembly plan: property tests and cache safety -------------------------


def _reference_elements(g, f, potential):
    """The cell matrices (n_r - 1, n_theta, 4, 4) and core-triangle
    matrices (n_theta, 3, 3) the direct way: B sampled at face midpoints
    placed here, and three-operand products."""
    n_r, n_t = g.n_r, g.n_theta
    h, k = g.d_s, g.d_theta
    th = g.theta
    jp = (np.arange(n_t) + 1) % n_t
    r_mid = g.radii[:-1] * math.exp(0.5 * h)

    def at(r, t):
        r, t = np.broadcast_arrays(r, t)
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    def tensor(r, t):
        r, t = np.broadcast_arrays(r, t)
        a = f.matrices(at(r, t).reshape(-1, 2)).reshape(r.shape + (2, 2))
        c, s = np.cos(t), np.sin(t)
        q = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        return np.einsum("...ji,...jk,...kl->...il", q, a, q)

    ring_b = tensor(g.radii[:, None], th + 0.5 * k)
    spoke_b = tensor(r_mid[:, None], th)
    faces = [ring_b[:-1], ring_b[1:], spoke_b, spoke_b[:, jp]]
    grads = _GRAD_ROWS / np.array([[h], [k]])
    w = h * k / 4.0
    kc = w * sum(np.einsum("im,btij,jn->btmn", grads[q], faces[q], grads[q])
                 for q in range(4))
    if potential is not None:
        vq = np.stack([potential(at(g.radii[:-1, None], th + 0.5 * k)),
                       potential(at(g.radii[1:, None], th + 0.5 * k)),
                       potential(at(r_mid[:, None], th)),
                       potential(at(r_mid[:, None], th[jp]))], axis=-1)
        r2 = np.stack(np.broadcast_arrays(
            g.radii[:-1, None] ** 2, g.radii[1:, None] ** 2,
            r_mid[:, None] ** 2, r_mid[:, None] ** 2), axis=-1)
        kc = kc + np.einsum("btq,qm,qn->btmn", w * r2 * vq,
                            _BASIS_ROWS, _BASIS_ROWS)
    p = g.ring_points(0)
    q = p[jp]
    area = 0.5 * np.abs(p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0])
    grad = np.stack([q - p, -q, p], axis=1)[..., ::-1] * [-1.0, 1.0]
    grad /= (2.0 * area)[:, None, None]
    mids = np.stack([0.5 * (p + q), 0.5 * q, 0.5 * p])
    a_mid = f.matrices(mids.reshape(-1, 2)).reshape(3, n_t, 2, 2).mean(0)
    kt = area[:, None, None] * np.einsum("tai,tij,tbj->tab",
                                         grad, a_mid, grad)
    if potential is not None:
        vt = potential(mids).T
        kt = kt + np.einsum("tq,qm,qn->tmn", (area / 3.0)[:, None] * vt,
                            _TRI_BASIS, _TRI_BASIS)
    return kc, kt


def _element_entries(g, kc, kt):
    """The element matrices kc and kt as (row node, column node, value)
    triples, cells in order, then the core triangles."""
    n_r, n_t = g.n_r, g.n_theta
    jp = (np.arange(n_t) + 1) % n_t
    ii = np.arange(n_r - 1)[:, None] * n_t
    nodes = np.stack([ii + np.arange(n_t), ii + n_t + np.arange(n_t),
                      ii + n_t + jp, ii + jp], axis=-1)
    tri = np.stack([np.full(n_t, n_r * n_t), np.arange(n_t), jp], axis=1)
    rows = [np.broadcast_to(nodes[..., :, None], kc.shape).ravel(),
            np.broadcast_to(tri[:, :, None], kt.shape).ravel()]
    cols = [np.broadcast_to(nodes[..., None, :], kc.shape).ravel(),
            np.broadcast_to(tri[:, None, :], kt.shape).ravel()]
    vals = [kc.ravel(), kt.ravel()]
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _reference_operator(g, f, potential):
    """k_ii and k_ib the direct way: the reference element matrices and
    one coo_matrix scatter restricted to the unknowns and boundary nodes;
    also the assembly and the element matrices."""
    kc, kt = _reference_elements(g, f, potential)
    rows, cols, vals = _element_entries(g, kc, kt)
    full = coo_matrix((vals, (rows, cols)),
                      shape=(g.node_count, g.node_count)).tocsr()
    asm = solver_module._Assembly(g, f, potential)
    rows_i = full[asm.interior]
    return asm, rows_i[:, asm.interior], rows_i[:, asm.boundary], kc, kt


def _stencil_entries(g, stencil, origin_row):
    """The (row node, column node, value) entries of a stencil and the
    origin row, sorted by row and, in a row, by column."""
    n_r, n_t = g.n_r, g.n_theta
    i, j = np.divmod(np.arange(n_r * n_t), n_t)
    di, dj = np.divmod(np.arange(10), 3)
    ring = i[:, None] + di - 1
    cols = ring * n_t + (j[:, None] + dj - 1) % n_t
    cols[(ring < 0) | (ring >= n_r)] = -1
    cols[:, 9] = np.where(i == 0, n_r * n_t, -1)
    has = cols >= 0
    rows = np.broadcast_to(np.arange(n_r * n_t)[:, None], cols.shape)[has]
    rows = np.append(rows, np.full(n_t + 1, n_r * n_t))
    cols = np.append(cols[has], np.append(np.arange(n_t), n_r * n_t))
    vals = np.append(stencil.reshape(10, -1).T[has], origin_row)
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], vals[order]


def _csr(asm, boundary=False):
    """k_ii, or k_ib with ``boundary``, as a scipy CSR matrix read from
    the assembly's stencil: the unknowns' rows, the places off the
    columns left out."""
    columns = asm.boundary if boundary else asm.interior
    row_at, col_at = (np.full(asm.grid.node_count, -1) for _ in range(2))
    row_at[asm.interior] = np.arange(asm.interior.size)
    col_at[columns] = np.arange(columns.size)
    rows, cols, vals = _stencil_entries(asm.grid, asm.stencil,
                                        asm.origin_row)
    keep = (row_at[rows] >= 0) & (col_at[cols] >= 0)
    counts = np.bincount(row_at[rows[keep]], minlength=asm.interior.size)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return csr_matrix((vals[keep], col_at[cols[keep]], indptr),
                      shape=(asm.interior.size, columns.size))


def _csc(asm):
    return _csr(asm).tocsc()


def _sparse_gap(a, b):
    return abs(a - b).max() if a.nnz or b.nnz else 0.0


@given(GRIDS, st.sampled_from(["symmetric", "holder"]), st.booleans())
def test_plan_scatter_matches_coo_reference(g, name, with_potential):
    f = SYMMETRIC if name == "symmetric" else HOLDER
    potential = _potential if with_potential else None
    asm, ref_ii, ref_ib, kc, kt = _reference_operator(g, f, potential)
    k_ii, k_ib = _csr(asm), _csr(asm, True)
    scale = max(abs(ref_ii).max() if ref_ii.nnz else 0.0,
                abs(ref_ib).max() if ref_ib.nnz else 0.0)
    assert k_ii.shape == ref_ii.shape and k_ib.shape == ref_ib.shape
    # each row's columns ascend without repeats
    assert k_ii.has_canonical_format and k_ib.has_canonical_format
    assert _sparse_gap(k_ii, ref_ii) <= 1e-14 * scale
    assert _sparse_gap(k_ib, ref_ib) <= 1e-14 * scale
    # the stencil of the reference element matrices has their entries'
    # pattern, node pair by node pair
    rows, cols = _element_entries(g, kc, kt)[:2]
    codes = np.unique(rows * g.node_count + cols)
    rows, cols = _stencil_entries(g, *solver_module._scatter(kc, kt))[:2]
    assert np.array_equal(rows * g.node_count + cols, codes)


@given(GRIDS, st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_padded_product_matches_csr_product(g, with_potential, seed):
    asm = solver_module._Assembly(g, HOLDER,
                                  _potential if with_potential else None)
    rng = np.random.default_rng(seed)
    for boundary in (False, True):
        ref = _csr(asm, boundary)
        x = rng.normal(size=ref.shape[1])
        got = asm.product(x, boundary)
        assert got.shape == (ref.shape[0],)
        assert np.all(np.abs(got - ref @ x) <= 1e-15 * (abs(ref) @ abs(x)))


@given(GRIDS, st.sampled_from(["identity", "constant"]),
       st.integers(0, 2 ** 32 - 1))
def test_rotating_x_rotates_a_constant_fields_product_exactly(g, name,
                                                             seed):
    # every angle column is summed in the same order; ring 0's rows are
    # left out, its core triangles carrying their angles' roundoff
    f = I2 if name == "identity" else CoefficientField.constant(2.5)
    asm = solver_module._Assembly(g, f, None)
    n_t = g.n_theta
    rng = np.random.default_rng(seed)
    for boundary in (False, True):
        x = rng.normal(size=n_t if boundary else asm.interior.size)
        turned = x.copy()
        k = x.size if boundary else x.size - 1  # the ring nodes
        turned[:k] = np.roll(x[:k].reshape(-1, n_t), 1, axis=1).ravel()
        got = asm.product(x, boundary)[n_t:-1].reshape(-1, n_t)
        rolled = asm.product(turned, boundary)[n_t:-1].reshape(-1, n_t)
        assert np.array_equal(rolled, np.roll(got, 1, axis=1))


@given(GRIDS)
def test_operator_is_symmetric_for_a_symmetric_field(g):
    k_ii = _csr(solver_module._Assembly(g, SYMMETRIC, _potential))
    if k_ii.nnz:
        assert _sparse_gap(k_ii, k_ii.T) <= 1e-14 * abs(k_ii).max()


@given(GRIDS, st.integers(0, 2 ** 32 - 1))
def test_flux_energy_equals_volume_energy_at_every_radius(g, seed):
    # every node below the outer ring is an unknown, so the flux through
    # each grid circle is the energy inside it
    rng = np.random.default_rng(seed)
    u = solve_dirichlet(SYMMETRIC, 1.0, rng.normal(size=g.n_theta), g)
    total = dirichlet_energy(u, 1.0)
    for r in g.radii:
        gap = abs(dirichlet_energy_flux(u, r) - dirichlet_energy(u, r))
        assert gap <= 1e-13 * total


def _as_matrix_field(f):
    """The scalar field f as the matrix field a I, assembled through the
    rotated tensor."""
    return CoefficientField.from_callable(f.matrices, arity=Arity.ANISOTROPIC,
                                          n=2, lam=f.lam)


@given(GRIDS, st.sampled_from(["holder", "homogeneous"]),
       st.integers(0, 2 ** 32 - 1))
def test_scalar_and_matrix_assembly_of_one_field_agree(g, name, seed):
    f = HOLDER if name == "holder" else homogeneous_profile()
    wrapped = _as_matrix_field(f)
    plan = solver_module._get_plan(g)
    cell_k = solver_module._element_matrices(plan, f)[0]
    ref = solver_module._element_matrices(plan, wrapped)[0]
    assert np.abs(cell_k - ref).max() <= 1e-14 * np.abs(ref).max()
    rng = np.random.default_rng(seed)
    g_out = rng.normal(size=g.n_theta)
    u = solve_dirichlet(f, 1.0, g_out, g)
    v = solve_dirichlet(wrapped, 1.0, g_out, g)
    assert np.abs(u.values - v.values).max() <= 1e-12 * np.abs(g_out).max()
    # the two energy forms on the same nodal values
    mixed = replace(v, values=u.values, _cache={})
    cum = solver_module._cumulative_energy(u)
    assert (np.abs(cum - solver_module._cumulative_energy(mixed)).max()
            <= 1e-13 * cum[-1])


@given(GRIDS)
def test_identity_cell_matrices_are_one_matrix(g):
    # held once, and equal to what the scalar and the rotated paths give
    plan = solver_module._get_plan(g)
    cell_k = plan.identity[0]
    k0 = cell_k[0, 0]
    assert np.all(cell_k == k0)
    scale = np.abs(k0).max()
    for f in (CoefficientField.constant(1.0),
              CoefficientField.from_callable(
                  I2.evaluator, arity=Arity.ANISOTROPIC, n=2, lam=1.0)):
        got = solver_module._element_matrices(plan, f)[0]
        assert np.abs(got - k0).max() <= 1e-15 * scale


@pytest.mark.parametrize("scalar,match", [
    (lambda p: p[..., 0] + 0.2, "ellipticity violated: eigenvalue -0.795"),
    (lambda p: np.where(p[:, 0] > 0.5, np.nan, 1.0), "eigenvalue nan")])
def test_scalar_and_matrix_fields_fail_alike(scalar, match):
    f = CoefficientField.from_callable(scalar, arity=Arity.ISOTROPIC, n=2,
                                       lam=0.1)
    g = PolarGrid.disk(17, 32)
    for field in (f, _as_matrix_field(f)):
        with pytest.raises(FieldError, match=f"{match} at a cell face"):
            solve_dirichlet(field, 1.0, np.ones(32), g)


def test_plan_cache_keeps_grids_of_one_shape_apart():
    # equal (n_r, n_theta), different radii: a plan made for the first
    # disk must not serve the second
    g_out = np.random.default_rng(5).normal(size=32)
    first = PolarGrid.disk(17, 32, r_min=0.3)
    second = PolarGrid.disk(17, 32, r_min=0.45)

    clear_operator_cache()
    solve_dirichlet(SYMMETRIC, 1.0, g_out, first)
    after = solve_dirichlet(SYMMETRIC, 1.0, g_out, second)
    assert solver_module._PLANS
    clear_operator_cache()
    assert not solver_module._PLANS
    fresh = solve_dirichlet(SYMMETRIC, 1.0, g_out, second)
    assert after._assembly.plan is not fresh._assembly.plan
    assert np.array_equal(after.values, fresh.values)
    assert np.array_equal(after._assembly.stencil, fresh._assembly.stencil)


def test_plans_stay_bounded_and_exact_under_concurrent_solves():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    grids = [PolarGrid.disk(9, 16, r_min=r) for r in (0.05, 0.1, 0.2, 0.3)]
    data = np.cos(np.arange(16.0))
    clear_operator_cache()
    ref = [solve_dirichlet(SYMMETRIC, 1.0, data, g).values for g in grids]
    jobs = list(range(len(grids))) * 6
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(solve_dirichlet, SYMMETRIC, 1.0, data,
                                   grids[i]) for i in jobs]
            results = [fut.result(timeout=120) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, u in zip(jobs, results):
        assert np.array_equal(u.values, ref[i])
    assert len(solver_module._PLANS) <= solver_module._PLAN_LIMIT == 2
