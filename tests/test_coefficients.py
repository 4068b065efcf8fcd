import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import RectBivariateSpline

from freqlab.coefficients import (
    Arity,
    CoefficientField,
    FieldError,
    GenerationError,
    empirical_modulus,
    generate_holder,
    homogeneous_projection,
    _MOLLIFY_BLOCK_SAMPLES,
    _bicubic_interpolant,
    _cubic_basis,
    _kernel_table,
    _not_a_knot_fit,
    _profile_table,
    _radii,
    _uniform_basis,
    kernel_gradient_constant,
    mollify,
    mu_factor,
)
from freqlab.modulus import Modulus


def sample_disk(count, radius=1.0, seed=0, n=2):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * (radius * rng.random(count) ** (1.0 / n))[:, None]


# -- mu ------------------------------------------------------------------


def test_mu_identity_and_diagonal():
    eye = CoefficientField.identity(2)
    assert mu_factor(eye, (0.2, -0.7)) == pytest.approx(1.0, abs=1e-15)
    d = CoefficientField.diagonal([2.0, 1.0])
    assert mu_factor(d, (0.3, 0.0)) == pytest.approx(2.0, abs=1e-15)
    assert mu_factor(d, (0.1, 0.1)) == pytest.approx(1.5, rel=1e-14)
    assert mu_factor(d, (0.25, 0.25)) == pytest.approx(1.5, rel=1e-14)


def test_mu_isotropic_is_scalar_value():
    f = CoefficientField.affine(1.0, [0.2, 0.0])
    pts = sample_disk(32, seed=3)
    pts = pts[np.linalg.norm(pts, axis=1) > 1e-3]
    assert np.allclose(mu_factor(f, pts), f.evaluate(pts), rtol=1e-15)


def test_mu_beta_origin_rejected():
    d = CoefficientField.diagonal([2.0, 1.0])
    with pytest.raises(FieldError):
        mu_factor(d, (0.0, 0.0))


def test_mu_range_within_ellipticity():
    m = Modulus.log_power(1.0)
    for f in (CoefficientField.cusp_anisotropic(m, 0.25),
              generate_holder(0.7, 0.1, seed=2)):
        pts = sample_disk(400, radius=f.domain_radius, seed=7)
        pts = pts[np.linalg.norm(pts, axis=1) > 1e-6]
        mu = mu_factor(f, pts)
        assert np.all(mu >= f.lam - 1e-9)
        assert np.all(mu <= 1.0 / f.lam + 1e-9)


# -- mollification -------------------------------------------------------


def test_mollify_constant_exact():
    mc = mollify(CoefficientField.constant(3.7), 0.2)
    pts = sample_disk(64, radius=0.79, seed=1)
    assert np.max(np.abs(mc.evaluate(pts) - 3.7)) < 1e-12


def test_mollify_affine_exact():
    # symmetric kernel: odd moments cancel, affine parts pass through
    f = CoefficientField.affine(1.0, [0.2, -0.1])
    mf = mollify(f, 0.1)
    pts = sample_disk(64, radius=0.89, seed=2)
    assert np.max(np.abs(mf.evaluate(pts) - f.evaluate(pts))) < 1e-12


def test_mollify_identity_matrix_exact():
    mf = mollify(CoefficientField.identity(2), 0.1)
    pts = sample_disk(16, radius=0.9, seed=3)
    vals = mf.evaluate(pts)
    assert np.max(np.abs(vals - np.eye(2))) < 1e-12
    assert mf.check_symmetry()


def test_mollify_domain_shrinks():
    mf = mollify(CoefficientField.constant(1.0), 0.25)
    assert mf.domain_radius == pytest.approx(0.75)
    with pytest.raises(FieldError):
        mf.evaluate((0.8, 0.0))
    with pytest.raises(FieldError):
        mollify(CoefficientField.constant(1.0), 1.0)


def test_mollify_sqrt_profile_bounds():
    # a(x) = 0.5 + |x_1|^(1/2) has Holder certificate (1/2, 1); at
    # eps = 0.01 the sup distance over B_0.9 must stay under 0.1 and the
    # gradient under C * 10, dense-sampled on a 100 x 100 grid
    f = CoefficientField.from_callable(
        lambda p: 0.5 + np.sqrt(np.abs(p[:, 0])),
        arity=Arity.ISOTROPIC, n=2, lam=0.5, holder=(0.5, 1.0))
    eps = 0.01
    fm = mollify(f, eps)
    g = np.linspace(-0.636, 0.636, 100)
    xx, yy = np.meshgrid(g, g)
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    pts = pts[np.linalg.norm(pts, axis=1) <= 0.9]
    sup = np.max(np.abs(fm.evaluate(pts) - f.evaluate(pts)))
    assert sup <= eps ** 0.5
    assert fm.meta["sup_distance_bound"] == pytest.approx(0.1)

    # finite-difference gradient along the singular line, worst case
    xs = np.linspace(-0.02, 0.02, 41)
    line = np.stack([xs, np.full_like(xs, 0.1)], axis=1)
    h = 1e-4
    dx = (fm.evaluate(line + [h, 0]) - fm.evaluate(line - [h, 0])) / (2 * h)
    dy = (fm.evaluate(line + [0, h]) - fm.evaluate(line - [0, h])) / (2 * h)
    grad = np.sqrt(dx ** 2 + dy ** 2).max()
    assert grad <= fm.meta["gradient_sup_bound"]
    assert fm.meta["gradient_sup_bound"] == pytest.approx(
        kernel_gradient_constant(2) * eps ** 0.5 / eps)


def test_mollify_metadata_from_declared_modulus():
    m = Modulus.log_power(1.0)
    f = CoefficientField.cusp_isotropic(m, 0.3, anchors=[(0.2, 0.1)])
    fm = mollify(f, 0.05)
    assert fm.meta["sup_distance_bound"] == pytest.approx(float(m.omega(0.05)))


def test_mollify_oscillation_never_grows():
    # convex weights: discrete mollification is an average of shifts
    m = Modulus.log_power(1.0)
    f = CoefficientField.cusp_isotropic(m, 0.3, anchors=[(0.2, 0.1)])
    fm = mollify(f, 0.05)
    pts = sample_disk(500, radius=0.94, seed=9)
    vals = fm.evaluate(pts)
    ref = f.evaluate(pts)
    bound = float(m.omega(0.05))
    assert np.max(np.abs(vals - ref)) <= bound + 1e-12


def _direct_mollify(f, eps, pts):
    # the rule sum_k w_k f(p - eps c_k), one point at a time
    offsets, weights = _kernel_table(f.n)
    return np.array([np.tensordot(weights, f.evaluator(p - eps * offsets),
                                  axes=(0, 0)) for p in pts])


_LOG_CUSP = Modulus.log_power(1.0)
_CUSP_MODULI = [Modulus.linear(), Modulus.power(0.5), Modulus.log_power(0.5),
                Modulus.log_power(1.0), Modulus.log_power(2.0),
                Modulus.tabulated([0.01, 0.1, 1.0], [0.05, 0.2, 0.5])]
_ANCHORS = np.array([(0.3, 0.4), (-0.5, 0.1)])


def _profile_edge_points(f, eps, radius):
    # the anchors, and points 5e-10 either side of each circle
    # |x - p_i| = t_far + eps where the mollified profile turns constant
    if f.kind not in ("cusp_iso", "cusp_aniso"):
        return np.empty((0, 2))
    anchors = np.asarray(f.params["anchors"])
    theta = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    rim = f.declared_modulus.t_far + eps
    pts = np.concatenate([anchors] + [a + (rim + dr) * ring for a in anchors
                                      for dr in (-5e-10, 5e-10)])
    return pts[np.linalg.norm(pts, axis=1) <= radius]


def _modulus_id(m):
    return m.kind + ("" if m.alpha is None and m.p is None
                     else f"{m.alpha if m.p is None else m.p:g}")


def _slope_jumps(m):
    # where omega(min(t, 1)) jumps in slope: at t = 1 and at the samples
    # of a tabulated modulus; log_power meets its constant with slope 0
    return () if m.kind == "log_power" else tuple(sorted({1.0, *m.kinks}))


def _rule_tolerance(f, eps, pts):
    # per point: 1e-14 where the mollified field is the rule or the far
    # constant; on the table band eps <= d < t_far + eps of an anchor,
    # the rule's own error against the exact profile: 2e-9, and 1e-6
    # where the bump straddles a slope jump of omega(min(t, 1)), across
    # which the midpoint rule is off by up to 2e-6 times the amplitude
    tol = np.full(pts.shape[0], 1e-14)
    if f.kind not in ("cusp_iso", "cusp_aniso"):
        return tol
    m = f.declared_modulus
    jumps = np.array(_slope_jumps(m))
    for anchor in np.asarray(f.params["anchors"]):
        d = np.linalg.norm(pts - anchor, axis=1)
        band = (d >= eps) & (d - eps < m.t_far)
        kinked = band & np.any(np.abs(d[:, None] - jumps) < eps, axis=1)
        tol[band] = np.maximum(tol[band], 2e-9)
        tol[kinked] = 1e-6
    return tol


@pytest.mark.parametrize("build", [
    lambda: CoefficientField.cusp_isotropic(_LOG_CUSP, 0.4),
    lambda: CoefficientField.cusp_anisotropic(_LOG_CUSP, 0.2),
    lambda: generate_holder(0.75, 0.05, 3),
    lambda: CoefficientField.affine(1.0, [0.2, -0.1]),
] + [lambda m=m: CoefficientField.cusp_isotropic(m, 0.2, anchors=_ANCHORS[:1],
                                                 signs=[-1.0])
     for m in _CUSP_MODULI],
    ids=["cusp_iso", "cusp_aniso", "holder", "affine"]
    + [f"cusp_iso_signed-{_modulus_id(m)}" for m in _CUSP_MODULI])
def test_mollify_matches_direct_rule_across_blocks(build):
    f = build()
    fm = mollify(f, 0.05)
    chunk = max(1, _MOLLIFY_BLOCK_SAMPLES // _kernel_table(2)[1].size)
    # the anchors' rims, points within eps of the first anchor, where the
    # rule runs, and the disk
    pts = np.concatenate([_profile_edge_points(f, 0.05, 0.94),
                          _ANCHORS[0] + sample_disk(100, 0.05, seed=10),
                          sample_disk(800, radius=0.94, seed=11)])
    ref = _direct_mollify(f, 0.05, pts)
    tol = _rule_tolerance(f, 0.05, pts)
    assert np.sum(tol == 1e-14) >= 100
    for count in (1, chunk - 1, chunk, chunk + 1, pts.shape[0]):
        got = fm.evaluate(pts[:count])
        assert got.shape == ref[:count].shape
        err = np.abs(got - ref[:count]).reshape(count, -1).max(axis=1)
        assert np.all(err <= tol[:count]), count


_GAUSS_40 = np.polynomial.legendre.leggauss(40)


def _oracle_profile(m, eps, d):
    # F_eps(d) for d >= eps, polar about the bump's centre: scipy's quad
    # over the bump radius r, with breakpoints where the circle |y| = eps r
    # is tangent to a kink circle, of the mean of omega(min(|x + y|, 1))
    # over that circle, by 40-node Gauss panels in the angle cut where the
    # circle crosses a kink circle
    kinks = sorted({m.t_far, *m.kinks})
    gx, gw = _GAUSS_40

    def circle_mean(r):
        c = [(k * k - d * d - (eps * r) ** 2) / (2 * d * eps * r)
             for k in kinks]
        cuts = np.sort([0.0, math.pi]
                       + [math.acos(x) for x in c if -1 < x < 1])
        half = 0.5 * np.diff(cuts)[:, None]
        theta = cuts[:-1, None] + half * (1.0 + gx)
        t = np.sqrt(d * d + (eps * r) ** 2 + 2 * d * eps * r * np.cos(theta))
        return float(np.sum(half[:, 0] * (m.omega(np.minimum(t, 1.0)) @ gw))
                     / math.pi)

    def eta(r):
        q = 1.0 - r * r
        return math.exp(-1.0 / q) * r if q > 0.0 else 0.0

    tangent = sorted({abs(k - d) / eps for k in kinks if 0 < abs(k - d) < eps})
    kw = dict(epsabs=1e-16, epsrel=1e-13, limit=200)
    num = quad(lambda r: eta(r) * circle_mean(r), 0, 1, points=tangent or None,
               **kw)[0]
    return num / quad(eta, 0, 1, **kw)[0]


@pytest.mark.parametrize("eps", [0.05, 0.1])
@pytest.mark.parametrize("m", _CUSP_MODULI, ids=_modulus_id)
def test_profile_table_matches_quadrature_oracle(m, eps):
    # at d = eps, at k +- eps for every kink, just below t_far + eps, where
    # the profile turns constant, and at two random distances
    kinks = sorted({m.t_far, *m.kinks})
    d = [eps] + [k + s * eps for k in kinks for s in (-1.0, 1.0)
                 if eps <= k + s * eps < m.t_far + eps]
    d += [m.t_far + eps - 1e-9]
    d += list(np.random.default_rng(3).uniform(eps, m.t_far + eps, 2))
    want = np.array([_oracle_profile(m, eps, x) for x in d])
    got = _profile_table(m, eps)(np.array(d))
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("m", _CUSP_MODULI, ids=_modulus_id)
def test_mollified_profile_is_continuous_at_the_rule_and_far_boundaries(m):
    # the rule within eps of the anchor, the table outside: the values
    # 1e-12 either side of |x - p| = eps differ by the rule's own error;
    # at |x - p| = t_far + eps the table meets the far constant
    eps, amp = 0.05, 0.5
    anchor = _ANCHORS[0]
    u = -anchor / np.linalg.norm(anchor)  # through the disk's centre
    fm = mollify(CoefficientField.cusp_isotropic(m, amp, anchors=[anchor]),
                 eps)
    pts = anchor + np.outer([eps - 1e-12, eps + 1e-12, m.t_far + eps - 1e-12,
                             m.t_far + eps + 1e-12], u)
    vals = fm.evaluate(pts)
    profile = (vals - 1.0) / amp
    assert abs(profile[1] - profile[0]) <= 2e-9
    assert abs(profile[3] - profile[2]) <= 1e-13
    assert vals[3] == 1.0 + amp * float(m.omega(m.t_far))


def test_mollified_fields_keep_their_own_profiles():
    # fields of other moduli and scales built in one process, evaluated
    # interleaved, each at a point of its table band
    cases = [(_LOG_CUSP, 0.05, 0.2), (Modulus.power(0.5), 0.1, 0.5),
             (_LOG_CUSP, 0.1, 0.3), (Modulus.linear(), 0.05, 0.9)]
    fields = [mollify(CoefficientField.cusp_isotropic(m, 0.5,
                                                      anchors=_ANCHORS[:1]),
                      eps) for m, eps, _ in cases]
    u = -_ANCHORS[0] / np.linalg.norm(_ANCHORS[0])
    for (m, eps, d), fm in zip(cases, fields):
        got = (fm.evaluate(_ANCHORS[0] + d * u) - 1.0) / 0.5
        assert abs(got - _oracle_profile(m, eps, d)) <= 1e-12


@pytest.mark.parametrize("m", _CUSP_MODULI, ids=_modulus_id)
def test_mollified_cusp_sample_on_its_anchor_is_finite(m):
    # anchor, eps and the kernel offsets c_k are dyadic, so at the points
    # p = anchor + eps c_k one sample of the rule lies exactly on the anchor
    anchor, eps = np.array([0.25, 0.375]), 0.0625
    pts = anchor + eps * _kernel_table(2)[0][::61]
    # the anisotropic field's second anchor lies 1.15 away, beyond
    # t_far + eps for every modulus, so its profile there is the far constant
    pair = [anchor, (-0.5, -0.5)]
    for f in (CoefficientField.cusp_isotropic(m, 0.2, anchors=[anchor]),
              CoefficientField.cusp_anisotropic(m, 0.2, anchors=pair)):
        with np.errstate(divide="raise", invalid="raise"):
            got = mollify(f, eps).evaluate(pts)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - _direct_mollify(f, eps, pts))) <= 1e-14


@pytest.mark.parametrize("m", _CUSP_MODULI, ids=_modulus_id)
def test_mollified_cusp_profile_is_exact_far_from_its_anchor(m):
    eps, amp = 0.05, 0.2
    pts = sample_disk(4000, radius=0.94, seed=12)
    far = [np.linalg.norm(pts - a, axis=1) - eps >= m.t_far for a in _ANCHORS]
    tail = float(m.omega(m.t_far))
    iso = mollify(CoefficientField.cusp_isotropic(m, amp, anchors=_ANCHORS[:1]),
                  eps)
    assert np.any(far[0])
    assert np.all(iso.evaluate(pts[far[0]]) == 1.0 + amp * tail)

    aniso = mollify(CoefficientField.cusp_anisotropic(m, amp, anchors=_ANCHORS),
                    eps)
    for i in (0, 1):
        vals = aniso.evaluate(pts[far[i] & ~far[1 - i]])
        assert vals.shape[0] > 0
        entry, value = ((vals[:, 0, 0], 1.0 + amp * tail) if i == 0
                        else (vals[:, 0, 1], amp * tail))
        assert np.all(entry == value)


def _masked_profile(modulus, pts, anchor):
    # reference cusp profile: omega applied only where |x - anchor| > 0
    d = np.sqrt(np.sum((pts - anchor) ** 2, axis=1))
    prof = np.zeros_like(d)
    pos = d > 0.0
    prof[pos] = modulus.omega(np.minimum(d[pos], 1.0))
    return prof


@pytest.mark.parametrize("m", _CUSP_MODULI, ids=lambda m: m.kind)
def test_cusp_evaluators_match_masked_formula(m):
    anchors = _ANCHORS
    pts = np.concatenate([anchors, [(-0.9, -0.4), (0.99, 0.0)],
                          sample_disk(20000, seed=5)])
    amp = 0.1
    iso = CoefficientField.cusp_isotropic(m, amp, anchors=anchors,
                                          signs=[1.0, -1.0])
    ref = np.ones(pts.shape[0])
    for anchor, sign in zip(anchors, (1.0, -1.0)):
        ref += amp * sign * _masked_profile(m, pts, anchor)
    assert np.array_equal(iso.evaluate(pts), ref)

    aniso = CoefficientField.cusp_anisotropic(m, amp, anchors=anchors)
    c1 = _masked_profile(m, pts, anchors[0])
    c2 = _masked_profile(m, pts, anchors[1])
    e1 = np.array([[1.0, 0.0], [0.0, -1.0]])
    e2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    ref = np.broadcast_to(np.eye(2), (pts.shape[0], 2, 2)).copy()
    ref += amp * (c1[:, None, None] * e1 + c2[:, None, None] * e2)
    assert np.array_equal(aniso.evaluate(pts), ref)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_gradient_constant_against_quadrature(n):
    def integral(f):
        return quad(f, 0, 1, epsabs=0, epsrel=1e-13, limit=200)[0]

    num = integral(lambda r: math.exp(-1 / (1 - r * r)) * 2 * r
                   / (1 - r * r) ** 2 * r ** (n - 1))
    den = integral(lambda r: math.exp(-1 / (1 - r * r)) * r ** (n - 1))
    assert kernel_gradient_constant(n) == pytest.approx(num / den, rel=1e-12)


@pytest.mark.parametrize("build", [
    lambda: CoefficientField.cusp_isotropic(_LOG_CUSP, 0.4),
    lambda: mollify(CoefficientField.cusp_isotropic(_LOG_CUSP, 0.4), 0.1),
    lambda: generate_holder(0.75, 0.05, 3),
    lambda: CoefficientField.affine(1.0, [0.2, -0.1]),
], ids=["cusp", "mollified_cusp", "holder", "affine"])
def test_non_finite_points_rejected(build):
    # a NaN radius must fail the domain check, not reach the evaluator
    f = build()
    for point in [(math.nan, 0.2), (0.1, math.nan), (math.inf, 0.0)]:
        with pytest.raises(FieldError, match="outside"):
            f.evaluate(point)
        with pytest.raises(FieldError, match="outside"):
            f.evaluate(np.array([(0.1, 0.1), point]))


def test_mollify_peak_memory_is_small():
    # numpy reports its buffers to tracemalloc; the kernel constant
    # once took a 1024^2 grid (66 MB) here
    tracemalloc.start()
    try:
        f = mollify(CoefficientField.cusp_anisotropic(Modulus.log_power(1.0),
                                                      0.1), 0.1)
        f.evaluate(np.array([0.3, 0.4]) + sample_disk(4000, 0.2, seed=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


# -- homogeneous projection ----------------------------------------------


def test_projection_angular_field_fixed():
    def angular(p):
        r = np.linalg.norm(p, axis=1)
        out = np.ones(p.shape[0])
        pos = r > 0
        out[pos] += 0.3 * p[pos, 1] / r[pos]
        return out

    f = CoefficientField.from_callable(angular, arity=Arity.ISOTROPIC,
                                       n=2, lam=0.7)
    h = homogeneous_projection(f, 0.6)
    pts = sample_disk(128, seed=4)
    pts = pts[np.linalg.norm(pts, axis=1) > 1e-3]
    assert np.max(np.abs(h.evaluate(pts) - f.evaluate(pts))) < 1e-14


def test_projection_radial_field_collapses():
    f = CoefficientField.from_callable(
        lambda p: 1.0 + np.linalg.norm(p, axis=1),
        arity=Arity.ISOTROPIC, n=2, lam=0.4)
    h = homogeneous_projection(f, 0.5)
    pts = sample_disk(64, seed=5)
    assert np.max(np.abs(h.evaluate(pts) - 1.5)) < 1e-14
    assert h.evaluate((0.0, 0.0)) == pytest.approx(1.5, abs=1e-14)


def test_projection_affine_sphere_distance():
    # a = 1 + 0.1 x_1 frozen at r = 0.5, compared on the sphere of 0.4:
    # difference is 0.1 (0.5 - 0.4) cos(theta), sup exactly 0.01
    f = CoefficientField.affine(1.0, [0.1, 0.0])
    h = homogeneous_projection(f, 0.5)
    theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    sphere = 0.4 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    sup = np.max(np.abs(h.evaluate(sphere) - f.evaluate(sphere)))
    assert sup == pytest.approx(0.01, rel=1e-10)
    alpha, c_h = f.holder
    assert sup <= c_h * (0.5 - 0.4) ** alpha + 1e-12


def test_projection_scale_invariance_and_idempotence():
    f = generate_holder(0.7, 0.1, seed=3)
    h = homogeneous_projection(f, 0.5)
    x = np.array([0.3, 0.2])
    vals = [h.evaluate(s * x) for s in (0.01, 0.17, 1.0, 2.0)]
    assert np.ptp(vals) < 1e-14
    again = homogeneous_projection(h, 0.9)
    pts = sample_disk(64, seed=6)
    assert np.max(np.abs(again.evaluate(pts) - h.evaluate(pts))) < 1e-14
    assert again.meta["anchor_radius"] == pytest.approx(0.9)


def test_projection_rejects_matrix_fields():
    with pytest.raises(FieldError):
        homogeneous_projection(CoefficientField.identity(2), 0.5)


# -- empirical regularity ------------------------------------------------


def test_empirical_modulus_affine():
    f = CoefficientField.affine(1.0, [0.2, 0.0])
    emp = empirical_modulus(f, 400)
    assert emp.alpha_hat == pytest.approx(1.0, abs=0.02)
    assert emp.c_h_hat == pytest.approx(0.2, rel=0.05)
    assert emp.modulus is not None
    assert emp.modulus.kind == "tabulated"


def test_empirical_modulus_constant_degenerates():
    emp = empirical_modulus(CoefficientField.constant(2.0), 200)
    assert np.all(emp.oscillations == 0.0)
    assert emp.c_h_hat == 0.0
    assert emp.modulus is None


def test_empirical_modulus_synthetic_target():
    f = generate_holder(0.7, 0.1, seed=1)
    emp = empirical_modulus(f, 400)
    assert 0.6 <= emp.alpha_hat <= 0.8


def test_empirical_modulus_envelope_is_valid_modulus():
    f = generate_holder(0.5, 0.2, seed=8)
    emp = empirical_modulus(f, 300)
    m = emp.modulus
    t = np.array([0.01, 0.05, 0.2])
    assert np.all(m.omega(t) > 0.0)
    assert np.all(np.diff(m.omega(np.linspace(0.01, 0.4, 50))) >= -1e-12)


def test_empirical_modulus_validation():
    f = CoefficientField.constant(1.0)
    with pytest.raises(FieldError):
        empirical_modulus(f, 50)
    with pytest.raises(FieldError):
        empirical_modulus(f, 200, depth=1)


def test_empirical_modulus_deterministic():
    f = generate_holder(0.7, 0.1, seed=1)
    a = empirical_modulus(f, 200)
    b = empirical_modulus(f, 200)
    assert np.array_equal(a.oscillations, b.oscillations)
    assert a.alpha_hat == b.alpha_hat


# -- random Holder fields ------------------------------------------------


def test_generate_holder_zero_amplitude():
    f = generate_holder(0.9, 0.0, seed=4)
    pts = sample_disk(64, seed=7)
    assert np.max(np.abs(f.evaluate(pts) - 1.0)) == 0.0
    assert f.holder == (0.9, 0.0)


def test_generate_holder_normalized_and_elliptic():
    f = generate_holder(0.7, 0.1, seed=1)
    assert float(f.evaluate((0.0, 0.0))) == pytest.approx(1.0, abs=1e-12)
    assert f.check_ellipticity(sample_count=512)
    lo, hi = f.meta["range"]
    assert 0.5 <= lo <= hi <= 2.0


def test_generate_holder_rejects_large_amplitude():
    # the message names the synthesized range, as the oracle finds it
    values = _two_dimensional_fft_values(0.7, 10.0, 1)
    lo, hi = values.min(), values.max()
    with pytest.raises(GenerationError,
                       match=re.escape(f"range [{lo:.4g}, {hi:.4g}] leaves")):
        generate_holder(0.7, 10.0, seed=1)


def test_generate_holder_deterministic_per_seed():
    pts = sample_disk(64, seed=9)
    a = generate_holder(0.7, 0.1, seed=1).evaluate(pts)
    b = generate_holder(0.7, 0.1, seed=1).evaluate(pts)
    c = generate_holder(0.7, 0.1, seed=2).evaluate(pts)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _complex_fft_holder(alpha, amplitude, seed, n, m):
    """Grid values and c_h of the full complex-FFT synthesis."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((m,) * n)
    freq = np.fft.fftfreq(m, d=1.0 / m)
    mesh = np.meshgrid(*([freq] * n), indexing="ij")
    kmag = np.sqrt(sum(g * g for g in mesh))
    shape = np.zeros_like(kmag)
    nonzero = kmag > 0.0
    shape[nonzero] = kmag[nonzero] ** (-alpha - 0.5 * n)
    sample = np.fft.ifftn(np.fft.fftn(noise) * shape).real
    sample = sample - sample[(m // 2,) * n]
    values = 1.0 + amplitude * sample / float(np.abs(sample).max())
    c_h = 0.0
    for axis in range(n):
        for lag in (1, 2, 4, 8, 16):
            d = np.abs(values - np.roll(values, lag, axis=axis))
            c_h = max(c_h, float(d.max()) / (lag * 2.0 / m) ** alpha)
    return values, c_h


@pytest.mark.parametrize("alpha,amplitude,seed,n", [
    (0.75, 0.05, 7, 2), (0.7, 0.4, 3, 2)])
def test_generate_holder_matches_complex_fft_synthesis(alpha, amplitude,
                                                       seed, n):
    f = generate_holder(alpha, amplitude, seed)
    m = f.meta["grid"]
    values, c_h = _complex_fft_holder(alpha, amplitude, seed, n, m)
    # grid nodes inside the unit disk, where the interpolant is exact
    idx = np.arange(0, m, 8)
    nodes = np.stack(np.meshgrid(*([idx] * n), indexing="ij"), axis=-1)
    nodes = nodes.reshape(-1, n)
    pts = -1.0 + 2.0 * nodes / m
    inside = np.sum(pts * pts, axis=1) <= 1.0
    got = f.evaluate(pts[inside])
    want = values[tuple(nodes[inside].T)]
    assert np.abs(got - want).max() <= 1e-14
    assert f.holder[1] == pytest.approx(c_h, rel=1e-13)


def _two_dimensional_fft_values(alpha, amplitude, seed):
    """generate_holder's grid values from its synthesis as it reads most
    directly: whole-grid noise, rfft2 and irfft2."""
    m = 1024
    rng = np.random.default_rng(seed)
    spectrum = np.fft.rfft2(rng.standard_normal((m, m)))
    k2 = (np.fft.fftfreq(m, d=1.0 / m)[:, None] ** 2
          + np.fft.rfftfreq(m, d=1.0 / m) ** 2)
    k2[0, 0] = 1.0
    spectrum = spectrum * np.sqrt(k2) ** (-alpha - 1.0)
    spectrum[0, 0] = 0.0
    values = np.fft.irfft2(spectrum, s=(m, m))
    values = values - values[m // 2, m // 2]
    return values * amplitude / max(values.max(), -values.min()) + 1.0


def _two_dimensional_fft_holder(alpha, amplitude, seed):
    """generate_holder's grid values, spline coefficients and c_h from
    ``_two_dimensional_fft_values``, a fit whose solves work on copies,
    and lag differences by np.roll over the whole grid."""
    m = 1024
    values = _two_dimensional_fft_values(alpha, amplitude, seed)
    c_h = 0.0
    for axis in (0, 1):
        for lag in (1, 2, 4, 8, 16):
            d = np.abs(values - np.roll(values, lag, axis=axis))
            c_h = max(c_h, float(d.max()) / (lag * 2.0 / m) ** alpha)
    _, solve = _not_a_knot_fit(-1.0, 2.0 / m, m + 1)
    grid = np.pad(values, [(0, 1), (0, 1)], mode="wrap")
    half = solve(grid.copy())
    return values, solve(half.T.copy()).ravel(), c_h


@pytest.mark.parametrize("alpha,amplitude,seed", [
    (0.75, 0.05, 7), (0.7, 0.4, 3), (0.3, 0.05, 7), (0.95, 0.05, 7),
    (0.75, 0.2, 11), (0.75, 0.05, 2 ** 32 + 5)])
def test_generate_holder_matches_two_dimensional_fft_bit_for_bit(
        alpha, amplitude, seed):
    # in row blocks, one axis at a time and in place, the synthesis keeps
    # every bit: of the noise, the transforms, the range and the
    # certificate's maxima
    f = generate_holder(alpha, amplitude, seed)
    ev = f.evaluator
    closure = dict(zip(ev.__code__.co_freevars,
                       (cell.cell_contents for cell in ev.__closure__)))
    values, coefficients, c_h = _two_dimensional_fft_holder(alpha, amplitude,
                                                            seed)
    assert np.array_equal(closure["c"], coefficients)
    assert f.holder[1] == c_h
    assert f.meta["range"] == (values.min(), values.max())


def test_generate_holder_peak_memory_is_small():
    # numpy reports its buffers to tracemalloc; the synthesis holds two
    # full-size buffers, the half spectrum and the padded grid (8.41 MB
    # each), and a block of rows; it once held the noise's spectrum, two
    # copies of the grid values and two of the padded grid at once (32 MB)
    generate_holder(0.75, 0.05, 3)  # the fit's factor, once per process
    tracemalloc.start()
    try:
        generate_holder(0.75, 0.05, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18 * 2 ** 20


def test_bicubic_interpolant_matches_fitpack_evaluation():
    # fitpack's own evaluation of the same fit is the oracle, on the
    # wrapped grid that generate_holder interpolates
    m = 1024
    values, _ = _complex_fft_holder(0.75, 0.05, 7, 2, m)
    axis = np.append(-1.0 + 2.0 * np.arange(m) / m, 1.0)
    grid = np.pad(values, [(0, 1), (0, 1)], mode="wrap")
    spline = RectBivariateSpline(axis, axis, grid, kx=3, ky=3)
    ev = _bicubic_interpolant(axis, grid)
    knots = np.unique(np.concatenate(spline.get_knots()))
    zeros = np.zeros_like(knots)
    out = 1.0 + 1e-10
    pts = np.concatenate([
        sample_disk(20000, seed=12),
        np.stack([knots, zeros], axis=1),
        np.stack([zeros, knots], axis=1),
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]],
        [[out, 0.0], [0.0, -out], [-0.6 * out, 0.8 * out]],
    ])
    got = ev(pts)
    assert np.abs(got - spline.ev(pts[:, 0], pts[:, 1])).max() <= 2e-15
    # beyond the grid the argument is clamped, not extrapolated
    assert got[-3] == ev(np.array([[1.0, 0.0]]))[0]


def test_uniform_basis_matches_recurrence():
    # the closed-form basis against the de Boor-Cox recurrence on
    # generate_holder's knot vector: at every knot, at 15 points inside
    # every cell (so in the cells either side of both seams between the
    # closed form and the recurrence) and at clamped points
    m = 1024
    h = 2.0 / m
    t, _ = _not_a_knot_fit(-1.0, h, m + 1)
    axis = -1.0 + h * np.arange(m + 1)
    inside = axis[:-1, None] + h * np.arange(1, 16) / 16.0
    x = np.concatenate([axis, inside.ravel(),
                        [-1.5, -1.0 - 1e-12, 1.0 + 1e-12, 3.0]])
    lead, basis = _uniform_basis(t, x)
    want_lead, want = _cubic_basis(t, x)
    assert np.array_equal(lead, want_lead)
    for got, ref in zip(basis, want):
        assert np.abs(got - ref).max() <= 2.0 * np.finfo(float).eps
    # clamped points take the end knots' basis exactly
    ends = _uniform_basis(t, np.array([-1.5, -1.0, 1.0, 3.0]))[1]
    for b in ends:
        assert b[0] == b[1] and b[2] == b[3]


def test_generate_holder_leaves_scipy_interpolate_unloaded():
    # the fit is one banded elimination in numpy, so synthesising and
    # evaluating a Holder field loads no scipy module; fitpack stays the
    # test oracle only
    import freqlab

    src = os.path.dirname(os.path.dirname(os.path.abspath(freqlab.__file__)))
    code = ("import sys\n"
            "import numpy as np\n"
            "from freqlab.coefficients import generate_holder\n"
            "generate_holder(0.75, 0.05, 7).evaluate(np.zeros((1, 2)))\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["[]"]


def test_generate_holder_clamps_points_just_outside_the_disk():
    f = generate_holder(0.75, 0.05, seed=7)
    edge = f.evaluate(np.array([[1.0, 0.0], [0.0, -1.0]]))
    beyond = f.evaluate(np.array([[1.0 + 1e-10, 0.0], [0.0, -1.0 - 1e-10]]))
    assert np.array_equal(edge, beyond)


def test_evaluate_outside_domain_rejected():
    f = CoefficientField.constant(1.0)
    with pytest.raises(FieldError):
        f.evaluate((1.2, 0.0))
    # the domain check's radii are the sum of squares bit for bit, from
    # subnormal to overflowing coordinates and on signed zeros and NaN
    rng = np.random.default_rng(0)
    pts = (rng.choice([-1.0, 1.0], (20000, 2))
           * 10.0 ** rng.uniform(-320.0, 300.0, (20000, 2)))
    special = [0.0, -0.0, 5e-324, -2.5e-310, 1.0, math.nan, math.inf,
               -math.inf]
    pts = np.concatenate([pts, list(itertools.product(special, repeat=2))])
    with np.errstate(over="ignore"):
        assert (_radii(pts).tobytes()
                == np.sqrt(np.sum(pts * pts, axis=1)).tobytes())


def test_symmetry_check_catches_asymmetric():
    def crooked(pts):
        out = np.broadcast_to(np.eye(2), (pts.shape[0], 2, 2)).copy()
        out[:, 0, 1] += 0.1
        return out

    f = CoefficientField.from_callable(crooked, arity=Arity.ANISOTROPIC,
                                       n=2, lam=0.5)
    assert not f.check_symmetry()
    assert CoefficientField.cusp_anisotropic(Modulus.log_power(1.0), 0.2).check_symmetry()
