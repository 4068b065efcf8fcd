"""Growth machinery: h-transform, continuous bound, discrete cascade."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from freqlab.growth import (
    GrowthVerdict,
    _integral_to_one,
    continuous_growth_bound,
    discrete_cascade,
    h_transform,
)
from freqlab.modulus import Modulus

ONE = lambda s: 1.0  # noqa: E731


# ---------------------------------------------------------------------------
# h-transform
# ---------------------------------------------------------------------------


def test_h_linear_is_log():
    m = Modulus.linear()
    assert h_transform(m, math.e) == pytest.approx(1.0, abs=1e-10)
    assert h_transform(m, 1.0) == 0.0
    assert h_transform(m, 100.0) == pytest.approx(math.log(100.0), rel=1e-10)


def test_h_log_power_closed_form():
    # for the extended family with p = 1:
    #   h(t) = e (1 - 1/t)              for t <= e
    #   h(t) = (e - 1) + log log t      for t >= e
    m = Modulus.log_power(1.0)
    assert h_transform(m, 2.0) == pytest.approx(math.e / 2.0, rel=1e-9)
    assert h_transform(m, math.e) == pytest.approx(math.e - 1.0, rel=1e-9)
    assert h_transform(m, math.e**math.e) == pytest.approx(math.e, rel=1e-9)


def test_h_power_saturates():
    # psi(s) = s^{1-alpha}: h(inf) = 1/(1-alpha); alpha = 0.5 gives 2
    m = Modulus.power(0.5)
    assert h_transform(m, 1e10) == pytest.approx(2.0, abs=1e-4)


def test_h_strictly_increasing():
    for m in (Modulus.linear(), Modulus.power(0.4), Modulus.log_power(1.0)):
        ts = np.logspace(0.01, 8, 40)
        hs = np.array([h_transform(m, t) for t in ts])
        assert np.all(np.diff(hs) > 0.0)


def test_h_domain():
    with pytest.raises(ValueError):
        h_transform(Modulus.linear(), 0.5)


_TS = np.array([1e-4, 1e-3, 0.01, 0.05, 0.2, 0.6])
ALL_KINDS = (
    Modulus.linear(),
    Modulus.power(0.3),
    Modulus.log_power(0.5),
    Modulus.log_power(1.0),
    Modulus.log_power(2.5),
    Modulus.tabulated(np.logspace(-6, 0, 13), np.logspace(-6, 0, 13) ** 0.5),
    # a concave omega with varying log-log slope, sampled short of t = 1:
    # omega is constant past the largest sample
    Modulus.tabulated(_TS, _TS * (1.0 + np.log(1.0 / _TS))),
)


def test_h_closed_forms_match_definition():
    # the closed forms agree with the defining integral, and the inversion
    # with c1 = 0 hands back its starting value
    for m in ALL_KINDS:
        psi = m.psi  # the definition, not a closed form
        for t in (1.3, math.e, 12.2, 1e5):
            upper = math.log(t)
            kinks = [m.p] if m.kind == "log_power" else []
            if m.kind == "tabulated":
                kinks = [-math.log(x) for x in m.samples[:, 0]]
            kinks = [x for x in kinks if 0.0 < x < upper] or None
            ref, _ = integrate.quad(lambda x: 1.0 / float(psi(math.exp(x))),
                                    0.0, upper, points=kinks, limit=200)
            assert h_transform(m, t) == pytest.approx(ref, rel=1e-9)
        for f1 in (1.0, 1.5, 40.0, 1e5):
            B = continuous_growth_bound(m, f1, ONE, 0.0, 0.5)
            assert B == pytest.approx(f1, rel=1e-11)


# ---------------------------------------------------------------------------
# continuous bound
# ---------------------------------------------------------------------------


def test_forcing_integral_matches_quad():
    # the canonical forcing phi changes formula at the modulus's kinks,
    # where the panels are cut; t = 0 is allowed
    for m in ALL_KINDS:
        g = m.scalar_phi()
        for t in (0.0, 1e-6, 0.3):
            inside = [x for x in m.kinks if t < x < 1.0] or None
            ref, _ = integrate.quad(g, t, 1.0, epsabs=0.0, epsrel=1e-13,
                                    limit=1000, points=inside)
            assert _integral_to_one(g, t, m.kinks) == pytest.approx(
                ref, rel=1e-12)


def test_continuous_bound_linear_closed_form():
    # h = log, so B = f1 * exp(c1 * int g)
    B = continuous_growth_bound(Modulus.linear(), 2.0, ONE, 1.0, 0.0)
    assert B == pytest.approx(2.0 * math.e, rel=1e-8)


def test_continuous_bound_log_power_closed_form():
    # target h(e) + 1 = e, so loglog B = 1 and B = e^e
    B = continuous_growth_bound(Modulus.log_power(1.0), math.e, ONE, 1.0, 0.0)
    assert B == pytest.approx(math.e**math.e, rel=1e-8)


def test_continuous_bound_power_blowup_threshold():
    # finite h-range 2: with g = 1 and t = 0.1 blowup starts at
    # f1 = (2 / (1 - t))^2, slightly below 5
    m = Modulus.power(0.5)
    assert continuous_growth_bound(m, 100.0, ONE, 1.0, 0.1) == math.inf
    B = continuous_growth_bound(m, 2.0, ONE, 1.0, 0.1)
    closed = (1.0 / (1.0 - (2.0 * (1.0 - 2.0**-0.5) + 0.9) / 2.0)) ** 2
    assert B == pytest.approx(closed, rel=1e-8)


def test_continuous_bound_monotonicity():
    m = Modulus.log_power(1.0)
    bounds_f1 = [continuous_growth_bound(m, f1, ONE, 1.0, 0.2) for f1 in (2, 5, 20)]
    assert bounds_f1 == sorted(bounds_f1)
    bounds_c1 = [continuous_growth_bound(m, 5.0, ONE, c, 0.2) for c in (0.3, 1.0, 2.0)]
    assert bounds_c1 == sorted(bounds_c1)
    bounds_t = [continuous_growth_bound(m, 5.0, ONE, 1.0, t) for t in (0.5, 0.1, 0.01)]
    assert bounds_t == sorted(bounds_t)  # deeper integration, larger bound


def test_continuous_bound_domain():
    with pytest.raises(ValueError):
        continuous_growth_bound(Modulus.linear(), 0.5, ONE, 1.0, 0.1)
    with pytest.raises(ValueError):
        continuous_growth_bound(Modulus.linear(), 2.0, ONE, -1.0, 0.1)
    with pytest.raises(ValueError):
        continuous_growth_bound(Modulus.linear(), 2.0, ONE, 1.0, 1.5)


# ---------------------------------------------------------------------------
# discrete cascade
# ---------------------------------------------------------------------------


def test_cascade_zero_forcing_is_constant():
    tr = discrete_cascade(Modulus.linear(), 3.0, lambda s: 0.0, 1.0, 1e-6)
    assert tr.verdict is GrowthVerdict.BOUNDED_GLOBALLY
    assert np.all(tr.n == 3.0)
    assert tr.reached_floor


def test_cascade_linear_reference_trace():
    # independent re-iteration of the recursion as the oracle: h = log
    # for omega(t) = t, so the exact h-space step with g = 1 multiplies n
    # by exp of the step length, clipped at the floor
    t, n = 1.0, 2.0
    while t > 1e-6:
        t_next = t * (1.0 - 1.0 / n)
        n, t = n * math.exp(t - max(t_next, 1e-6)), t_next
    tr = discrete_cascade(Modulus.linear(), 2.0, ONE, 1.0, 1e-6)
    assert tr.verdict is GrowthVerdict.BOUNDED_GLOBALLY
    assert tr.bound == pytest.approx(n, rel=1e-12)
    assert tr.bound < 6.0
    # schedule recursion holds exactly
    ratios = tr.t[1:] / tr.t[:-1]
    assert np.allclose(ratios, 1.0 - 1.0 / tr.n[:-1], rtol=1e-14)


def test_cascade_trace_below_continuous_bound():
    # the continuous inversion is an upper envelope for the trace
    for m in (Modulus.linear(), Modulus.log_power(1.0)):
        g = m.scalar_phi()
        for c1 in (0.5, 1.0, 2.0):
            tr = discrete_cascade(m, 2.0, g, c1, 1e-6)
            B = continuous_growth_bound(m, 2.0, g, c1, 1e-6)
            assert tr.bound <= B * (1.0 + 1e-9)


def test_cascade_constant_forcing_reaches_continuous_bound():
    # for constant g each exact h-space step integrates g exactly, so the
    # trace ends on the continuous inversion
    for m in (Modulus.linear(), Modulus.log_power(1.0), ALL_KINDS[-1]):
        for c1 in (0.5, 1.0):
            tr = discrete_cascade(m, 3.0, ONE, c1, 1e-6)
            B = continuous_growth_bound(m, 3.0, ONE, c1, 1e-6)
            assert tr.reached_floor
            assert tr.bound == pytest.approx(B, rel=1e-12)


def test_cascade_tabulated_matches_parametric():
    ts = np.logspace(-6, 0, 13)
    tab = discrete_cascade(Modulus.tabulated(ts, ts), 2.0, ONE, 1.0, 1e-6)
    lin = discrete_cascade(Modulus.linear(), 2.0, ONE, 1.0, 1e-6)
    assert tab.steps == lin.steps
    assert np.allclose(tab.n, lin.n, rtol=1e-13)
    # omega = sqrt(t) tabulated is non-Osgood like its power family
    tr = discrete_cascade(Modulus.tabulated(ts, ts**0.5), 50.0, ONE, 5.0, 1e-9)
    assert tr.verdict is GrowthVerdict.BLOWUP_DETECTED


def test_cascade_osgood_no_blowup():
    # guarded slice: the 1e12 overflow guard is reachable for the loglog
    # family once c1 * int(phi) pushes log N above ~27, so keep c1 modest
    # there (see the decisions ledger)
    g1 = Modulus.log_power(1.0).scalar_phi()
    for n0 in (2.0, 1e2, 1e6):
        tr = discrete_cascade(
            Modulus.log_power(1.0), n0, g1, 0.5, 1e-4, g_integrable=True
        )
        assert tr.verdict is not GrowthVerdict.BLOWUP_DETECTED
    for c1 in (0.5, 1.0, 2.0):
        for n0 in (2.0, 1e2):
            tr = discrete_cascade(Modulus.linear(), n0, ONE, c1, 1e-6)
            assert tr.verdict is GrowthVerdict.BOUNDED_GLOBALLY
    # the schedule shrinks log t by ~1/N per step, so n0 = 1e6 needs ~n0
    # * log(1/t_floor) steps; past the step budget the honest claim is
    # only that no overflow was detected and the envelope still holds
    tr = discrete_cascade(Modulus.linear(), 1e6, ONE, 2.0, 1e-6)
    assert tr.verdict is GrowthVerdict.BOUNDED_ON_COMPACTS
    assert not tr.reached_floor
    B = continuous_growth_bound(Modulus.linear(), 1e6, ONE, 2.0, 1e-6, g_integral=1.0)
    assert tr.bound <= B * (1.0 + 1e-9)


def test_cascade_non_osgood_blowup():
    # power family: finite h-range, large data must overflow
    m = Modulus.power(0.5)
    tr = discrete_cascade(m, 50.0, ONE, 5.0, 1e-9)
    assert tr.verdict is GrowthVerdict.BLOWUP_DETECTED
    assert tr.bound > 1e12


def test_cascade_verdict_integrability_split():
    m = Modulus.linear()
    tr = discrete_cascade(m, 2.0, lambda s: 0.1 / s, 1.0, 1e-4)
    assert tr.g_integrable is False
    assert tr.verdict is GrowthVerdict.BOUNDED_ON_COMPACTS
    tr = discrete_cascade(m, 2.0, ONE, 1.0, 1e-4)
    assert tr.g_integrable is True
    assert tr.verdict is GrowthVerdict.BOUNDED_GLOBALLY


def test_cascade_domain():
    with pytest.raises(ValueError):
        discrete_cascade(Modulus.linear(), 1.0, ONE, 1.0, 1e-6)
    with pytest.raises(ValueError):
        discrete_cascade(Modulus.linear(), 2.0, ONE, 1.0, 0.0)


def test_fit_consistent_c1_recovers_constant():
    # the smallest c1 for which every step obeys the one-step rule
    # h(N_{k+1}) - h(N_k) <= c1 g(t_k) (t_k - max(t_{k+1}, t_floor))
    m = Modulus.log_power(1.0)
    g = m.scalar_phi()
    tr = discrete_cascade(m, 5.0, g, 0.7, 1e-5)
    t, hn = tr.t, [h_transform(m, nk) for nk in tr.n]
    worst = 0.0
    for k in range(len(t) - 1):
        denom = g(t[k]) * (t[k] - max(t[k + 1], 1e-5))
        if denom > 0.0:
            worst = max(worst, (hn[k + 1] - hn[k]) / denom)
    assert worst == pytest.approx(0.7, rel=1e-9)


def test_interpolant_slope_inequality():
    # piecewise-linear interpolant of a trace satisfies the differential
    # inequality h' >= -c1 h psi(h) g at midpoints for nonincreasing g
    for m in (Modulus.linear(), Modulus.log_power(1.0)):
        g = m.scalar_phi()
        psi = m.psi
        tr = discrete_cascade(m, 3.0, g, 1.0, 1e-5)
        t, n = tr.t, tr.n
        slope = np.diff(n) / np.diff(t)
        tm, hm = 0.5 * (t[:-1] + t[1:]), 0.5 * (n[:-1] + n[1:])
        margins = slope + hm * np.array([psi(x) for x in hm]) * np.array(
            [g(x) for x in tm])
        assert np.all(margins >= -1e-9 * np.abs(tr.n[:-1]).max())


def test_scalar_phi_matches_vectorized_phi():
    for m in ALL_KINDS:
        phi = m.scalar_phi()
        for s in (1e-6, 0.01, 1.0 / math.e, 0.5, 1.0):
            assert phi(s) == pytest.approx(float(m.phi(s)), rel=1e-12)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_log_power_phi_finite_below_overflow(p):
    # 1 / s overflows below about 5.6e-309; phi(s) = log(1/s)^p does not
    phi = Modulus.log_power(p).scalar_phi()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [phi(s) for s in (1e-310, 5e-324)]
    want = [(310.0 * math.log(10.0)) ** p, (-math.log(5e-324)) ** p]
    assert got == pytest.approx(want, rel=1e-12)
    if p == 1.0:
        assert got[0] == pytest.approx(713.80, abs=5e-3)


def test_doubling_spot_check_flags():
    # decreasing g satisfies doubling with c1 = 1; c1 < 1 cannot hold
    m = Modulus.linear()
    tr = discrete_cascade(m, 2.0, ONE, 1.0, 1e-4)
    assert tr.doubling_ok and tr.doubling_worst == pytest.approx(1.0)
    tr = discrete_cascade(m, 2.0, ONE, 0.5, 1e-4)
    assert not tr.doubling_ok
