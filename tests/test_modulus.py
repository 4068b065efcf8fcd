"""Moduli: transform values, Osgood classification, submultiplicativity."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from scipy.integrate import quad
from hypothesis import strategies as st

from freqlab.modulus import (
    ExponentTriple,
    Modulus,
    OsgoodClass,
    check_phi_integrable,
    check_submultiplicative_psi,
    classify_osgood,
    dyadic_integrals,
    select_exponents,
)


# ---------------------------------------------------------------------------
# omega / phi / psi pointwise values
# ---------------------------------------------------------------------------


def test_phi_linear_is_one():
    m = Modulus.linear()
    assert m.phi(0.5) == 1.0
    assert np.allclose(m.phi(np.array([0.1, 0.9, 1.0])), 1.0)


def test_phi_power_closed_form():
    m = Modulus.power(0.5)
    assert m.phi(0.25) == pytest.approx(2.0, rel=1e-14)


def test_phi_log_power_closed_form():
    # below t_cut = 1/e the raw formula applies: phi(s) = log(1/s)
    m = Modulus.log_power(1.0)
    assert m.phi(math.exp(-2.0)) == pytest.approx(2.0, rel=1e-14)


def test_psi_values():
    assert Modulus.linear().psi(10.0) == pytest.approx(1.0)
    assert Modulus.power(0.5).psi(4.0) == pytest.approx(2.0, rel=1e-14)
    assert Modulus.log_power(1.0).psi(math.exp(2.0)) == pytest.approx(
        2.0, rel=1e-14
    )


def test_log_power_constant_extension():
    # beyond t_cut the modulus freezes at omega(t_cut) = p^p e^-p
    m = Modulus.log_power(1.0)
    assert float(m.omega(1.0)) == pytest.approx(1.0 / math.e, rel=1e-14)
    assert float(m.omega(0.9)) == pytest.approx(1.0 / math.e, rel=1e-14)
    ts = np.linspace(0.0, 1.0, 201)
    w = m.omega(ts)
    assert np.all(np.diff(w) >= -1e-15)
    slopes = np.diff(w) / np.diff(ts)
    assert np.all(np.diff(slopes) <= 1e-9)  # concave


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_log_power_omega_matches_masked_formula(p):
    # reference: the formula applied only at t > 0, zero elsewhere
    m = Modulus.log_power(p)
    cut = m.t_cut
    rng = np.random.default_rng(7)
    t = np.concatenate([[0.0, 1e-300, 1e-12, cut, 1.0],
                        np.nextafter(cut, [0.0, 1.0]), rng.random(2000)])
    ref = np.zeros_like(t)
    pos = t > 0.0
    tc = np.minimum(t[pos], cut)
    ref[pos] = tc * (-np.log(tc)) ** p
    with np.errstate(all="raise"):
        got = m.omega(t)
        scalar = m.omega(0.0)
    assert np.array_equal(got, ref)
    assert scalar.shape == () and float(scalar) == 0.0
    assert float(m.omega(cut)) == float(ref[3])


def _masked_omega(m, t):
    # each kind's formula applied only at t > 0, zero elsewhere
    flat = np.asarray(t, dtype=float).ravel()
    ref = np.zeros_like(flat)
    pos = flat > 0.0
    x = flat[pos]
    if m.kind == "linear":
        ref[pos] = x
    elif m.kind == "power":
        ref[pos] = x**m.alpha
    elif m.kind == "log_power":
        tc = np.minimum(x, m.t_cut)
        ref[pos] = tc * (-np.log(tc)) ** m.p
    else:
        ts, ws = m.samples[:, 0], m.samples[:, 1]
        logw = np.interp(np.log(x), np.log(ts), np.log(ws))
        m0 = (math.log(ws[1]) - math.log(ws[0])) / (
            math.log(ts[1]) - math.log(ts[0]))
        below = x < ts[0]
        logw[below] = math.log(ws[0]) + m0 * (np.log(x[below])
                                              - math.log(ts[0]))
        ref[pos] = np.exp(logw)
    return ref.reshape(np.shape(t))


_ALL_KINDS = [Modulus.linear(), Modulus.power(0.5), Modulus.log_power(0.5),
              Modulus.log_power(1.0), Modulus.log_power(2.0),
              Modulus.tabulated([0.01, 0.1, 1.0], [0.05, 0.2, 0.5])]


@given(m=st.sampled_from(_ALL_KINDS),
       shape=st.sampled_from([(), (7,), (3, 5)]), data=st.data())
def test_omega_matches_masked_formula_on_any_shape(m, shape, data):
    # kinds without a t_cut take 0.5 in its place
    special = [0.0, m.t_cut if m.kind == "log_power" else 0.5, 1.0]
    value = st.sampled_from(special) | st.floats(0.0, 1.0)
    if shape:
        # every array input holds 0, t_cut and 1 somewhere
        rest = data.draw(st.lists(value, min_size=math.prod(shape) - 3,
                                  max_size=math.prod(shape) - 3))
        t = np.array(data.draw(st.permutations(special + rest)))
    else:
        t = np.array(data.draw(value))
    t = t.reshape(shape)
    with np.errstate(divide="raise", invalid="raise"):
        got = m.omega(t)
    ref = _masked_omega(m, t)
    assert np.shape(got) == shape
    assert got.tobytes() == ref.tobytes()


def test_log_power_omega_finite_below_overflow():
    # 1 / t overflows below about 5.6e-309; omega must stay finite there
    m = Modulus.log_power(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = m.omega(np.array([1e-310, 5e-324]))
        top = float(m.omega(m.t_cut))
    assert np.all(np.isfinite(w))
    assert np.all(w > 0.0) and np.all(w <= top)


def test_domain_errors():
    m = Modulus.linear()
    with pytest.raises(ValueError):
        m.phi(0.0)
    with pytest.raises(ValueError):
        m.phi(1.5)
    with pytest.raises(ValueError):
        m.psi(0.5)
    with pytest.raises(ValueError):
        m.omega(-0.1)


@pytest.mark.parametrize("m", _ALL_KINDS, ids=lambda m: m.kind)
def test_omega_rejects_nan(m):
    with pytest.raises(ValueError, match="defined on"):
        m.omega([math.nan, 0.5])
    with pytest.raises(ValueError, match="defined on"):
        m.omega(math.nan)


def test_monotonicity_properties_on_grids():
    rng = np.random.default_rng(0)
    for m in (Modulus.linear(), Modulus.power(0.3), Modulus.log_power(2.0)):
        s = np.sort(rng.uniform(1e-6, 1.0, 200))
        assert np.all(np.diff(m.phi(s)) <= 1e-12)  # phi nonincreasing
        x = np.sort(rng.uniform(1.0, 1e6, 200))
        assert np.all(np.diff(m.psi(x)) >= -1e-12)  # psi nondecreasing
        # 1/(s psi(s)) nonincreasing
        v = 1.0 / (x * m.psi(x))
        assert np.all(np.diff(v) <= 1e-12)


def test_tabulated_roundtrip_and_validation():
    ts = np.logspace(-6, 0, 30)
    m = Modulus.tabulated(ts, ts**0.5)
    assert np.allclose(m.omega(ts), ts**0.5, rtol=1e-12)
    # power-law extrapolation below the data
    assert float(m.omega(1e-8)) == pytest.approx(1e-4, rel=1e-10)
    with pytest.raises(ValueError):
        Modulus.tabulated([0.5, 0.25], [0.1, 0.2])  # decreasing abscissae
    with pytest.raises(ValueError):
        Modulus.tabulated([0.25, 0.5], [0.2, 0.1])  # omega decreasing
    with pytest.raises(ValueError):
        Modulus.tabulated([0.25, 0.5], [0.0, 0.1])  # vanishing on an interval
    with pytest.raises(ValueError):
        Modulus.tabulated([0.1, 0.5, 1.0], [0.01, 0.02, 0.2])  # convex
    with pytest.raises(ValueError, match="finite"):
        Modulus.tabulated([0.1, 0.5, 1.0], [0.1, math.nan, 0.5])


def test_log_power_needs_positive_finite_omega_at_t_cut():
    # p = 1e-20 rounds t_cut to 1, where omega is 0; at p = 149,
    # log(1/t_cut)^p overflows before the product with t_cut
    for p in (1e-20, 149.0):
        with pytest.raises(ValueError, match="t_cut"):
            Modulus.log_power(p)
    for p in (1e-16, 140.0):
        assert 0.0 < float(Modulus.log_power(p).omega(math.exp(-p))) < math.inf


def test_config_roundtrip():
    for m in (
        Modulus.linear(),
        Modulus.power(0.4),
        Modulus.log_power(1.5),
        Modulus.tabulated([0.1, 1.0], [0.2, 0.5]),
    ):
        m2 = Modulus.from_config(m.to_config())
        assert m2.to_config() == m.to_config()
        ts = np.linspace(0.0, 1.0, 17)
        assert m2.omega(ts).tobytes() == m.omega(ts).tobytes()


# ---------------------------------------------------------------------------
# Osgood classification
# ---------------------------------------------------------------------------

OSGOOD_FAMILY = [
    (Modulus.linear(), OsgoodClass.OSGOOD),
    (Modulus.power(0.3), OsgoodClass.NON_OSGOOD),
    (Modulus.power(0.7), OsgoodClass.NON_OSGOOD),
    (Modulus.log_power(1.0), OsgoodClass.OSGOOD),
    (Modulus.log_power(1.5), OsgoodClass.NON_OSGOOD),
    (Modulus.log_power(3.0), OsgoodClass.NON_OSGOOD),
]


@pytest.mark.parametrize("m,expected", OSGOOD_FAMILY)
def test_classify_osgood_analytic(m, expected):
    assert classify_osgood(m) is expected


@pytest.mark.parametrize("m,expected", OSGOOD_FAMILY)
def test_classify_osgood_numeric_engine(m, expected):
    # the dyadic condensation engine must agree with the closed forms
    assert classify_osgood(m, numeric_only=True) is expected


def test_classify_osgood_tabulated():
    ts = np.logspace(-8, 0, 60)
    assert classify_osgood(Modulus.tabulated(ts, ts)) is OsgoodClass.OSGOOD
    assert (
        classify_osgood(Modulus.tabulated(ts, ts**0.5)) is OsgoodClass.NON_OSGOOD
    )


_TS = np.logspace(-6, 0, 13)


@pytest.mark.parametrize("m", [
    Modulus.linear(), Modulus.power(0.25), Modulus.power(0.5),
    Modulus.power(0.75), Modulus.log_power(0.5), Modulus.log_power(1.0),
    Modulus.log_power(2.0),
    Modulus.tabulated(_TS, _TS * (1.0 + np.log(1.0 / _TS))),
], ids=lambda m: f"{m.kind}-{m.alpha or m.p or ''}")
def test_panel_rule_matches_quad_on_every_dyadic_segment(m):
    # both integrands the Osgood and phi checks sum; the t_cut and sample
    # kinks fall inside segments, which quad splits at the same points
    for integrand, depth in ((lambda t: 1.0 / m.omega(t), 40), (m.phi, 60)):
        got = dyadic_integrals(integrand, depth, m.kinks)
        for k in range(depth):
            a, b = 2.0 ** -(k + 1), 2.0 ** -k
            inside = [x for x in m.kinks if a < x < b] or None
            ref, _ = quad(lambda t: float(integrand(t)), a, b, epsabs=0.0,
                          epsrel=1e-13, limit=1000, points=inside)
            assert abs(got[k] - ref) <= 1e-12 * abs(ref), (k, got[k], ref)


def test_classify_osgood_depth_validation():
    with pytest.raises(ValueError):
        classify_osgood(Modulus.linear(), depth=3)


# ---------------------------------------------------------------------------
# submultiplicativity and integrability
# ---------------------------------------------------------------------------


def test_psi_submultiplicative_exact_families():
    rep = check_submultiplicative_psi(Modulus.linear(), 1.01)
    assert rep.holds and rep.worst_ratio == pytest.approx(1.0, abs=1e-12)
    rep = check_submultiplicative_psi(Modulus.power(0.5), 1.01)
    assert rep.holds and rep.worst_ratio == pytest.approx(1.0, abs=1e-9)


def test_psi_submultiplicative_log_power():
    # worst ratio for the extended family is 1/psi(1) = e, attained near x=1;
    # restricted to x, y >= e the classical bound log(xy) <= 2 log x log y
    # holds with constant 2
    m = Modulus.log_power(1.0)
    rep = check_submultiplicative_psi(m, 2.8)
    assert rep.holds
    assert rep.worst_ratio == pytest.approx(math.e, rel=1e-6)
    rep = check_submultiplicative_psi(m, 2.0)
    assert not rep.holds
    grid = np.logspace(1.0, 6.0, 64)  # log10(e) > 0.43, start at 10 >= e
    ratios = m.psi(np.outer(grid, grid).ravel()) / np.outer(
        m.psi(grid), m.psi(grid)
    ).ravel()
    assert ratios.max() <= 2.0 + 1e-12


def test_psi_submultiplicative_tiny_modulus_stays_finite():
    # psi(x) psi(y) underflows for omega near 1e-300, but the ratio is
    # 1/omega times that of the unit-scaled modulus and stays finite
    t = [0.5, 1.0]
    tiny = check_submultiplicative_psi(
        Modulus.tabulated(t, [1e-300, 2e-300]), 100.0)
    unit = check_submultiplicative_psi(Modulus.tabulated(t, [1.0, 2.0]), 100.0)
    assert math.isfinite(tiny.worst_ratio) and not tiny.holds
    assert tiny.worst_ratio == pytest.approx(1e300 * unit.worst_ratio,
                                             rel=1e-12)
    # where nothing underflows the ratio is the plain quotient, bit for bit
    m = Modulus.log_power(1.0)
    grid = np.logspace(0.0, 6.0, 64)
    px = m.psi(grid)
    plain = m.psi(np.outer(grid, grid).ravel()) / np.outer(px, px).ravel()
    assert check_submultiplicative_psi(m, 2.8).worst_ratio == plain.max()


def test_phi_integrable_values():
    rep = check_phi_integrable(Modulus.linear())
    assert rep.finite and rep.value == pytest.approx(1.0, rel=1e-7)
    rep = check_phi_integrable(Modulus.power(0.5))
    assert rep.finite and rep.value == pytest.approx(2.0, rel=1e-6)
    # extended log family: int_0^1 phi = 2/e + 1/e = 3/e
    rep = check_phi_integrable(Modulus.log_power(1.0))
    assert rep.finite and rep.value == pytest.approx(3.0 / math.e, rel=1e-6)
    rep = check_phi_integrable(Modulus.log_power(2.0))
    assert rep.finite  # integrability of phi is weaker than Osgood failure


def test_sample_count_validation():
    with pytest.raises(ValueError):
        check_submultiplicative_psi(Modulus.linear(), 2.0, sample_count=8)


# ---------------------------------------------------------------------------
# exponent selection
# ---------------------------------------------------------------------------


def test_select_exponents_constraints_hold():
    for alpha in (0.68, 0.7, 0.75, 0.8, 0.9, 0.99):
        tr = select_exponents(alpha)
        assert tr.tau * (2.0 - tr.beta) + tr.eta < 1.0
        assert tr.beta * tr.tau > 0.5 + 2.0 * tr.eta
        assert 2.0 / 3.0 < tr.beta < alpha
        assert 0.0 < tr.eta < 1.0


def test_select_exponents_reference_point():
    tr = select_exponents(0.7)
    assert tr.beta == pytest.approx(0.68333333, rel=1e-6)
    assert 0.74 < tr.tau < 0.76
    assert 0.0005 < tr.eta < 0.002


def test_select_exponents_domain():
    with pytest.raises(ValueError):
        select_exponents(0.6667)
    with pytest.raises(ValueError):
        select_exponents(0.5)
    with pytest.raises(ValueError):
        select_exponents(1.0)


def test_exponent_triple_rejects_bad_values():
    with pytest.raises(ValueError):
        ExponentTriple(beta=0.7, tau=0.99, eta=0.2)
