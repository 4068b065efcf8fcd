"""Coefficient fields for divergence-form operators on the unit ball.

A field is either a scalar ``a`` (isotropic) or a symmetric matrix ``A``
(anisotropic), immutable after construction, evaluated in bulk on arrays
of points.  Alongside representation this module computes the two
radial quantity that frequency bookkeeping needs,

    mu(x) = <A(x) x/|x|, x/|x|>,

and provides the two field surgeries used throughout: smoothing by a
fixed compactly supported bump (``mollify``), and freezing a scalar
field along rays through the origin (``homogeneous_projection``).

Fields are described by ``build_field`` specs or constructor calls;
``mollify`` reads a field's ``kind`` and a cusp field's ``params``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Any, Callable, Mapping, Optional

import numpy as np

from .modulus import Modulus, panel_integrals

__all__ = [
    "Arity",
    "CoefficientField",
    "EmpiricalModulus",
    "FieldError",
    "GenerationError",
    "empirical_modulus",
    "generate_holder",
    "homogeneous_projection",
    "kernel_gradient_constant",
    "mollify",
    "mu_factor",
]

class FieldError(ValueError):
    """Invalid field construction or evaluation request."""


class GenerationError(FieldError):
    """A synthesized field violated its ellipticity budget."""


class Arity(Enum):
    ISOTROPIC = "isotropic"
    ANISOTROPIC = "anisotropic"


def _as_points(x: Any, n: int) -> tuple[np.ndarray, bool]:
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != n:
        raise FieldError(f"expected points of dimension {n}, got shape {pts.shape}")
    return pts, single


def _radii(pts: np.ndarray) -> np.ndarray:
    """The distances |x| of planar points (m, 2) from the origin."""
    return np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)


@dataclass(frozen=True)
class CoefficientField:
    """Scalar or matrix coefficient field on the closed ball of radius
    ``domain_radius``.

    ``evaluator`` maps an (m, n) point array to (m,) scalars or
    (m, n, n) matrices depending on arity.  ``lam`` is the declared
    ellipticity constant: eigenvalues are promised to lie in
    [lam, 1/lam].  ``declared_modulus`` certifies that the oscillation
    of every component over distance t is at most omega(t);
    ``holder`` = (alpha, C_h) certifies oscillation <= C_h * t^alpha.
    Either certificate may be absent.

    ``kind`` names the construction: ``mollify`` mollifies the cusp
    kinds exactly from their ``params`` (anchors, signs, amplitude;
    empty for every other kind), and a benchmark tracer splits its
    evaluation counts on ``"mollified"``.  ``meta`` holds derived
    bounds and diagnostics that no output file records.
    """

    arity: Arity
    n: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    lam: float
    declared_modulus: Optional[Modulus] = None
    holder: Optional[tuple[float, float]] = None
    kind: str = "custom"
    params: Mapping[str, Any] = field(default_factory=dict)
    domain_radius: float = 1.0
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n != 2:
            raise FieldError(f"fields are two-dimensional, got dimension {self.n}")
        if not 0.0 < self.lam <= 1.0:
            raise FieldError(f"ellipticity constant must lie in (0, 1], got {self.lam}")
        if self.holder is not None:
            alpha, c_h = self.holder
            if not 0.0 < alpha <= 1.0 or c_h < 0.0:
                raise FieldError(f"invalid Holder data {self.holder}")

    def evaluate(self, x: Any) -> np.ndarray:
        """Field values at one point (n,) or a batch (m, n)."""
        pts, single = _as_points(x, self.n)
        r = _radii(pts)
        rmax = float(r.max(initial=0.0))
        # NaN radii fail this comparison too
        if not rmax <= self.domain_radius + 1e-9:
            raise FieldError(
                f"point at radius {rmax:.6g} outside evaluation domain "
                f"of radius {self.domain_radius:.6g}"
            )
        out = self.evaluator(pts)
        return out[0] if single else out

    __call__ = evaluate

    def matrices(self, x: Any) -> np.ndarray:
        """Values as full matrices; scalar fields return a(x) * I."""
        pts, single = _as_points(x, self.n)
        vals = self.evaluate(pts)
        if self.arity is Arity.ISOTROPIC:
            vals = vals[:, None, None] * np.eye(self.n)[None, :, :]
        return vals[0] if single else vals

    def check_symmetry(self, sample_count: int = 64, seed: int = 0,
                       tol: float = 1e-12) -> bool:
        if self.arity is Arity.ISOTROPIC:
            return True
        pts = _ball_sample(sample_count, self.n, self.domain_radius, seed)
        mats = self.evaluate(pts)
        return bool(np.max(np.abs(mats - np.swapaxes(mats, 1, 2))) <= tol)

    def check_ellipticity(self, sample_count: int = 256, seed: int = 0,
                          slack: float = 1e-9) -> bool:
        """Eigenvalues within [lam, 1/lam] on a random sample."""
        pts = _ball_sample(sample_count, self.n, self.domain_radius, seed)
        if self.arity is Arity.ISOTROPIC:
            vals = np.atleast_1d(self.evaluate(pts))
            lo, hi = float(vals.min()), float(vals.max())
        else:
            eig = np.linalg.eigvalsh(self.evaluate(pts))
            lo, hi = float(eig.min()), float(eig.max())
        return lo >= self.lam - slack and hi <= 1.0 / self.lam + slack

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value: float = 1.0) -> "CoefficientField":
        v = float(value)
        if v <= 0.0:
            raise FieldError(f"constant coefficient must be positive, got {v}")
        lam = min(v, 1.0 / v, 1.0)

        def ev(pts: np.ndarray) -> np.ndarray:
            return np.full(pts.shape[0], v)

        return cls(Arity.ISOTROPIC, 2, ev, lam, kind="constant")

    @classmethod
    def identity(cls, n: int = 2) -> "CoefficientField":
        """The identity matrix field; ``n`` must be 2."""
        eye = np.eye(n)

        def ev(pts: np.ndarray) -> np.ndarray:
            return np.broadcast_to(eye, (pts.shape[0], n, n)).copy()

        return cls(Arity.ANISOTROPIC, n, ev, 1.0, kind="identity")

    @classmethod
    def diagonal(cls, entries: Any) -> "CoefficientField":
        d = np.asarray(entries, dtype=float)
        if d.size != 2 or np.any(d <= 0.0):
            raise FieldError(f"need 2 positive diagonal entries, got {entries}")
        lam = float(min(d.min(), 1.0 / d.max(), 1.0))
        mat = np.diag(d)

        def ev(pts: np.ndarray) -> np.ndarray:
            return np.broadcast_to(mat, (pts.shape[0], 2, 2)).copy()

        return cls(Arity.ANISOTROPIC, 2, ev, lam, kind="diag")

    @classmethod
    def affine(cls, const: float, gradient: Any) -> "CoefficientField":
        """Scalar field a(x) = const + <gradient, x>."""
        g = np.asarray(gradient, dtype=float)
        if g.size != 2:
            raise FieldError(f"gradient must have 2 entries, got {g.size}")
        gnorm = float(np.linalg.norm(g))
        lo, hi = const - gnorm, const + gnorm
        if lo <= 0.0:
            raise FieldError(f"affine field reaches {lo:.6g} <= 0 on the unit ball")
        lam = min(lo, 1.0 / hi, 1.0)

        def ev(pts: np.ndarray) -> np.ndarray:
            return const + pts @ g

        return cls(Arity.ISOTROPIC, 2, ev, lam,
                   holder=(1.0, gnorm) if gnorm > 0 else None,
                   kind="affine")

    @classmethod
    def from_callable(cls, fn: Callable[[np.ndarray], np.ndarray], *,
                      arity: Arity, n: int, lam: float,
                      declared_modulus: Optional[Modulus] = None,
                      holder: Optional[tuple[float, float]] = None,
                      domain_radius: float = 1.0) -> "CoefficientField":
        """Wrap a vectorized callable."""
        return cls(arity, n, fn, lam, declared_modulus=declared_modulus,
                   holder=holder, domain_radius=domain_radius)

    @classmethod
    def cusp_isotropic(cls, modulus: Modulus, amplitude: float,
                       anchors: Any = ((0.3, 0.4),),
                       signs: Any = None) -> "CoefficientField":
        """a(x) = 1 + amplitude * sum_i s_i * omega(|x - p_i|).

        The profile omega is its own modulus of continuity up to a
        factor 2, so amplitudes <= 0.5 / len(anchors) keep the field
        within the unit-constant certificate carried in
        ``declared_modulus``.
        """
        pts_anchor = np.asarray(anchors, dtype=float)
        if pts_anchor.ndim != 2 or pts_anchor.shape[1] != 2:
            raise FieldError(f"anchors must be (k, 2), got {pts_anchor.shape}")
        k = pts_anchor.shape[0]
        sgn = np.ones(k) if signs is None else np.asarray(signs, dtype=float)
        if sgn.size != k:
            raise FieldError("one sign per anchor required")
        amp = float(amplitude)
        if not 0.0 <= amp <= 0.5 / k:
            raise FieldError(
                f"amplitude must lie in [0, {0.5 / k:.3g}] for {k} anchors")
        cap = float(modulus.omega(1.0))
        worst = 1.0 + amp * k * cap
        best = 1.0 - amp * k * cap
        lam = min(best, 1.0 / worst)

        def ev(pts: np.ndarray) -> np.ndarray:
            return _cusp_values(
                Arity.ISOTROPIC, amp, sgn, pts.shape[0],
                lambda i: _cusp_profile(modulus, pts, pts_anchor[i]))

        return cls(Arity.ISOTROPIC, 2, ev, lam, declared_modulus=modulus,
                   kind="cusp_iso",
                   params={"amplitude": amp, "anchors": pts_anchor.tolist(),
                           "signs": sgn.tolist()})

    @classmethod
    def cusp_anisotropic(cls, modulus: Modulus, amplitude: float,
                         anchors: Any = ((0.3, 0.4), (-0.5, 0.1))
                         ) -> "CoefficientField":
        """I plus cusp profiles on the traceless symmetric directions.

        Two anchors drive the two off-trace matrix directions;
        eigenvalues stay within 1 +- amplitude * sqrt(2) * omega(1).
        """
        pts_anchor = np.asarray(anchors, dtype=float)
        if pts_anchor.shape != (2, 2):
            raise FieldError("exactly two anchors of dimension 2 required")
        amp = float(amplitude)
        cap = float(modulus.omega(1.0))
        spread = amp * math.sqrt(2.0) * cap
        if not 0.0 <= spread < 0.5:
            raise FieldError(f"amplitude {amp} pushes eigenvalues past 1/2")
        lam = min(1.0 - spread, 1.0 / (1.0 + spread))

        def ev(pts: np.ndarray) -> np.ndarray:
            return _cusp_values(
                Arity.ANISOTROPIC, amp, None, pts.shape[0],
                lambda i: _cusp_profile(modulus, pts, pts_anchor[i]))

        return cls(Arity.ANISOTROPIC, 2, ev, lam, declared_modulus=modulus,
                   kind="cusp_aniso",
                   params={"amplitude": amp, "anchors": pts_anchor.tolist()})

    @classmethod
    def annulus_bump(cls, eps: float, r_in: float) -> "CoefficientField":
        """a = 1 + eps * smooth radial bump supported in r_in < |x| < 1."""
        e, ri = float(eps), float(r_in)
        if not 0.0 < ri < 1.0:
            raise FieldError(f"inner radius must lie in (0, 1), got {ri}")
        if not 1.0 + e > 0.0:
            raise FieldError(f"bump height {e} destroys positivity")
        mid, half = 0.5 * (1.0 + ri), 0.5 * (1.0 - ri)
        lo, hi = min(1.0, 1.0 + e), max(1.0, 1.0 + e)
        lam = min(lo, 1.0 / hi)

        def ev(pts: np.ndarray) -> np.ndarray:
            r = _radii(pts)
            s = (r - mid) / half
            out = np.ones(pts.shape[0])
            inside = np.abs(s) < 1.0
            out[inside] += e * np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
            return out

        return cls(Arity.ISOTROPIC, 2, ev, lam, kind="annulus_bump")


def _cusp_values(arity: Arity, amp: float, signs: Optional[np.ndarray],
                 m: int, profile: Callable[[int], np.ndarray]) -> np.ndarray:
    """Cusp field values at m points from the anchor profiles profile(i).

    Isotropic: 1 + amp * sum_i s_i * P_i.  Anisotropic (two anchors):
    I + amp * (P_0 * diag(1, -1) + P_1 * [[0, 1], [1, 0]]).
    """
    if arity is Arity.ISOTROPIC:
        out = np.ones(m)
        for i in range(signs.size):
            out += amp * signs[i] * profile(i)
        return out
    a1 = amp * profile(0)
    a2 = amp * profile(1)
    out = np.empty((m, 2, 2))
    np.add(1.0, a1, out=out[:, 0, 0])
    np.subtract(1.0, a1, out=out[:, 1, 1])
    out[:, 0, 1] = a2
    out[:, 1, 0] = a2
    return out


def _anchor_distance(pts: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    diff = pts[:, 0] - anchor[0]
    d2 = diff * diff
    for j in range(1, pts.shape[1]):
        diff = pts[:, j] - anchor[j]
        d2 += diff * diff
    return np.sqrt(d2, out=d2)


def _cusp_profile(modulus: Modulus, pts: np.ndarray,
                  anchor: np.ndarray) -> np.ndarray:
    """omega(min(|x - anchor|, 1)) per point; omega(0) = 0 for every kind."""
    d = _anchor_distance(pts, anchor)
    return modulus.omega(np.minimum(d, 1.0, out=d))


def _ball_sample(count: int, n: int, radius: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = radius * rng.random(count) ** (1.0 / n)
    return v * r[:, None]


# -- mu -----------------------------------------------------------------


def mu_factor(f: CoefficientField, x: Any) -> np.ndarray:
    """Radial quadratic form <A(x) x/|x|, x/|x|>; equals a(x) for scalars."""
    pts, single = _as_points(x, f.n)
    r = _radii(pts)
    if np.any(r == 0.0):
        raise FieldError("mu is undefined at the origin")
    if f.arity is Arity.ISOTROPIC:
        out = np.atleast_1d(f.evaluate(pts))
    else:
        nu = pts / r[:, None]
        mats = f.evaluate(pts)
        out = np.einsum("mi,mij,mj->m", nu, mats, nu)
    return float(out[0]) if single else out


# -- mollification ------------------------------------------------------

_KERNEL_POINTS_PER_AXIS = 64
_MOLLIFY_BLOCK_SAMPLES = 2 ** 14


@lru_cache(maxsize=8)
def _kernel_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint offsets on the unit cube and unit-sum bump weights."""
    m = _KERNEL_POINTS_PER_AXIS
    centers = -1.0 + (2.0 * np.arange(m) + 1.0) / m
    axes = np.meshgrid(*([centers] * n), indexing="ij")
    offsets = np.stack([a.ravel() for a in axes], axis=1)
    r2 = np.sum(offsets * offsets, axis=1)
    w = np.zeros(offsets.shape[0])
    inside = r2 < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    keep = w > 0.0
    return offsets[keep], w[keep] / w[keep].sum()


@lru_cache(maxsize=8)
def kernel_gradient_constant(n: int) -> float:
    """Integral of |grad eta| for the unit-mass bump eta in n dimensions.

    This is the constant in the mollifier gradient bound
    sup |grad f_eps| <= C * omega(eps) / eps.  The bump is radial,
    eta = exp(-1/(1 - r^2)), so the sphere's area cancels and

        C_n = int_0^1 |eta'(r)| r^(n-1) dr / int_0^1 eta(r) r^(n-1) dr,

    with |eta'| = eta * 2r/(1 - r^2)^2.  Both integrals use the
    Gauss-Legendre panels of ``panel_integrals`` cut at 0, 1/2, 3/4,
    ..., 1 - 2^-11, 1; the nodes are interior, so r = 1 is never
    evaluated, and eta underflows to 0 before the rim.  For n = 1, 2, 3
    the ratio matches adaptive quadrature to a few ulp.
    """
    cuts = np.append(1.0 - 2.0 ** -np.arange(12.0), 1.0)

    def eta(r: np.ndarray) -> np.ndarray:
        return np.exp(-1.0 / (1.0 - r * r)) * r ** (n - 1)

    def grad(r: np.ndarray) -> np.ndarray:
        return eta(r) * 2.0 * r / (1.0 - r * r) ** 2

    return float(panel_integrals(grad, cuts).sum()
                 / panel_integrals(eta, cuts).sum())


# The exact mollified cusp profile: Chebyshev panels of degree 12 through
# the Lobatto nodes -cos(pi k / 12), ascending, with the discrete cosine
# transform that maps values there to Chebyshev coefficients; the
# quadrature's two Gauss panels in xi on [-2.6, 2.6] (exp(-cosh^2 2.6) is
# 1e-20), with the 20-node rule of the modulus checks, and its midpoint
# nodes in tau, step 0.2, for blocks of 32 distances.
_PROFILE_DEGREE = 12
_PROFILE_NODES = -np.cos(np.pi * np.arange(_PROFILE_DEGREE + 1)
                         / _PROFILE_DEGREE)
_PROFILE_FIT = np.cos(np.outer(np.arange(_PROFILE_DEGREE + 1),
                               np.arccos(_PROFILE_NODES)))
_PROFILE_FIT[:, [0, -1]] *= 0.5
_PROFILE_FIT[[0, -1]] *= 0.5
_PROFILE_FIT *= 2.0 / _PROFILE_DEGREE
_XI_CUTS = np.array([-2.6, 0.0, 2.6])
_TAU = 0.2 * (np.arange(14) + 0.5)
_PROFILE_BLOCK = 32


def _exact_profile(modulus: Modulus, eps: float, d: np.ndarray) -> np.ndarray:
    """F_eps(d) for d >= eps: omega(min(|.|, 1)) averaged over the bump
    eta(|y - x| / eps) centred at distance d from the anchor.

    Polar about the anchor, the circle of radius rho = d + eps tanh(xi)
    crosses the bump on an arc whose points lie at distance eps s from
    the bump's centre, s^2 = tanh(xi)^2 + (sech(xi) tanh(tau))^2 with
    tanh(tau) the arc's chord coordinate normalized to its half-chord.
    So 1 - s^2 = sech(xi)^2 sech(tau)^2 and the bump is
    exp(-cosh(xi)^2 cosh(tau)^2), which decays double exponentially in
    both variables; the area element is, up to a constant,

        rho sech(xi)^3 sech(tau)^2 dxi dtau
        / sqrt(rho - (eps sech(xi) tanh(tau))^2 / (4 d)),

    whose root stays >= sqrt(rho / 2) for d >= eps.  Gauss panels in xi
    are split where rho crosses a kink of omega(min(t, 1)), so each
    panel's integrand is analytic; tau takes the midpoint rule.  The
    result is the ratio to the same rule applied to 1, so constants
    are exact.
    """
    kinks = np.array(sorted(set(modulus.kinks) | {modulus.t_far}))
    edge = math.tanh(_XI_CUTS[-1])
    cosh_tau = np.cosh(_TAU)
    sech2_tau = 1.0 / (cosh_tau * cosh_tau)
    tan2_tau = np.tanh(_TAU) ** 2

    def moments(dd: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        # the integrands in xi of mass * omega and of mass, at (rows,
        # panels, nodes) for distances dd of shape (rows, 1, 1)
        def f(xi: np.ndarray) -> np.ndarray:
            cosh_xi = np.cosh(xi)
            rho = dd + eps * np.tanh(xi)
            chord2 = (eps / cosh_xi) ** 2 / (4.0 * dd)
            bump = np.exp(-np.square(cosh_xi[..., None] * cosh_tau))
            bump *= sech2_tau
            bump /= np.sqrt(rho[..., None] - chord2[..., None] * tan2_tau)
            mass = rho / cosh_xi ** 3 * bump.sum(axis=-1)
            return np.stack([mass * modulus.omega(np.minimum(rho, 1.0)),
                             mass])

        return f

    out = np.empty(d.size)
    for lo in range(0, d.size, _PROFILE_BLOCK):
        dd = d[lo:lo + _PROFILE_BLOCK, None]
        ks = kinks[(kinks > dd.min() - eps) & (kinks < dd.max() + eps)]
        cuts = np.sort(np.concatenate(
            [np.broadcast_to(_XI_CUTS, (dd.shape[0], _XI_CUTS.size)),
             np.arctanh(np.clip((ks - dd) / eps, -edge, edge))], axis=1))
        moment, mass = panel_integrals(moments(dd[:, :, None]),
                                       cuts).sum(axis=-1)
        out[lo:lo + _PROFILE_BLOCK] = moment / mass
    return out


def _profile_table(modulus: Modulus, eps: float
                   ) -> Callable[[np.ndarray], np.ndarray]:
    """Piecewise Chebyshev interpolant of F_eps on [eps, t_far + eps].

    F_eps is smooth but not analytic where the bump's rim touches a kink
    k of omega(min(t, 1)) (k = 0, ``Modulus.kinks`` and t_far), that is
    at d = k +- eps.  The panels are cut at these flat points and graded
    geometrically away from each, at distances eps * 2^j for j >= -4 up
    to the neighbouring flat points, so that every panel is analytic in
    a Bernstein ellipse its degree-12 interpolant resolves to about
    1e-14.  The panel count grows with the number of flat points, not
    with their square: a ``tabulated`` modulus of 50 samples takes 2,500
    to 5,800 nodes at eps = 0.1 to 0.02.
    """
    t_far = modulus.t_far
    lo, hi = eps, t_far + eps
    flat = np.array(sorted({k + s * eps for k in {0.0, t_far, *modulus.kinks}
                            for s in (-1.0, 1.0)}))
    flat = flat[(flat >= lo) & (flat <= hi)]  # from lo to hi
    steps = eps * 2.0 ** np.arange(-4.0, math.log2(hi / eps) + 1.0)
    inside = steps < np.diff(flat)[:, None]  # (gaps, steps)
    # the first gap's panels also grade at ratio sqrt(2) away from lo,
    # where the bump nears omega's own singularity at t = 0; at ratio 2
    # alone, power(0.5) at eps = 0.02 is off by 1e-12 there
    mid = math.sqrt(2.0) * steps[math.sqrt(2.0) * steps < flat[1] - lo]
    edges = np.concatenate([flat, lo + mid, (flat[:-1, None] + steps)[inside],
                            (flat[1:, None] - steps)[inside]])
    edges = np.sort(edges)
    edges = edges[np.append(True, np.diff(edges) > 1e-12)]
    width = np.diff(edges)[:, None]
    nodes = edges[:-1, None] + 0.5 * width * (_PROFILE_NODES + 1.0)
    deg = _PROFILE_DEGREE
    # neighbouring panels share their end nodes
    f = _exact_profile(modulus, eps,
                       np.append(nodes[:, :-1].ravel(), edges[-1]))
    values = f[np.arange(width.size)[:, None] * deg + np.arange(deg + 1)]
    coef = _PROFILE_FIT @ values.T  # (degree + 1, panels)

    def table(d: np.ndarray) -> np.ndarray:
        # Clenshaw's recurrence, gathering one coefficient row at a time
        i = np.clip(np.searchsorted(edges, d, side="right") - 1,
                    0, width.size - 1)
        t = 2.0 * (d - edges[i]) / width[i, 0] - 1.0
        b0, b1 = coef[deg][i], np.zeros(d.size)
        for c in coef[deg - 1:0:-1]:
            b0, b1 = c[i] + 2.0 * t * b0 - b1, b0
        return coef[0][i] + t * b0 - b1

    return table


def mollify(f: CoefficientField, eps: float) -> CoefficientField:
    """Convolve componentwise with the fixed bump at scale eps.

    Values come from a tensor midpoint rule with 64^n kernel samples
    (cusp fields away from their anchors: from the exact convolution,
    see below); the discrete weights form a convex combination, so the
    output oscillates no more than the input and reproduces constants
    and affine entries exactly.  Evaluation is restricted to the ball of
    radius domain_radius - eps.  When the input carries a modulus or
    Holder certificate, ``meta`` records the implied sup-distance bound
    omega(eps) and gradient bound C * omega(eps) / eps.  ``meta`` is not
    written to any output file.

    Each value is sum_k w_k f(p - eps c_k) over every kernel node.  The
    rule visits the points in blocks of about 2^14 kernel samples (at
    least one point per block), so the block's sample coordinates and
    base values stay in cache, and reduces each block with one matrix
    product of the weights against its (points, nodes, entries) values.

    Cusp fields (``cusp_iso``, ``cusp_aniso``) are linear in their
    anchor profiles P_i(x) = omega(min(|x - p_i|, 1)), so each P_i is
    mollified alone and the field is assembled from the mollified
    profiles as the cusp constructors assemble it.  The bump is radial,
    so the mollified profile is one function of d = |x - p_i|, and each
    point takes one of three values:

    - d >= t_far + eps (``Modulus.t_far``): P_i is omega(t_far) on the
      whole bump, and so is the mollified profile, exactly.
    - eps <= d < t_far + eps: F_eps(d), the exact convolution of the
      profile with the continuously normalized bump, read from a
      piecewise Chebyshev table (``_profile_table``).  The table is
      built once per call, from 180 to 740 nodes of a fixed quadrature
      (``_exact_profile``), in 3-12 ms on one core for the tested
      moduli at eps = 0.02-0.1; it is within 1e-13 of adaptive
      quadrature.  The rule differs from F_eps by the rule's own
      error: under 2.5e-9, except where the bump straddles a slope
      jump of omega (t = 1 for ``linear`` and ``power``, the samples
      of ``tabulated``), where the midpoint rule is off by up to 2e-6.
    - d < eps: the rule, through one fused kernel (``near_profile``).
      Here the bump covers the cusp at the anchor, where the rule is
      least accurate, and F_eps in its place would move the pinned
      fitted constants of the mollified scenarios (``approx_v``,
      ``dichot``) by about 3e-5 relative, where the table above moves
      them by under 4e-8; it stays until those are re-pinned.  The
      kernel
      forms v = p - p_i once per point and, for each block of the same
      row count as above, fills one (rows, nodes) buffer in place with
      |v - eps c_k|^2 from the precomputed node coordinates eps c_k,
      takes the square root and the clamp to 1 in place, applies omega
      and reduces with one product against the weights.
    """
    e = float(eps)
    if not 0.0 < e < 1.0:
        raise FieldError(f"mollification scale must lie in (0, 1), got {e}")
    if e >= f.domain_radius:
        raise FieldError(
            f"scale {e} leaves no evaluation domain inside radius {f.domain_radius}")
    offsets, weights = _kernel_table(f.n)
    radius = f.domain_radius - e
    k = weights.size
    chunk = max(1, _MOLLIFY_BLOCK_SAMPLES // k)

    if f.kind in ("cusp_iso", "cusp_aniso"):
        modulus = f.declared_modulus
        anchors = np.asarray(f.params["anchors"], dtype=float)
        signs = np.asarray(f.params.get("signs", ()), dtype=float)
        amp = float(f.params["amplitude"])
        t_far = modulus.t_far
        far_value = float(modulus.omega(t_far))
        table = _profile_table(modulus, e)
        node_x = e * offsets[:, 0]
        node_y = e * offsets[:, 1]

        def near_profile(v: np.ndarray) -> np.ndarray:
            # sum_k w_k omega(min(|v - eps c_k|, 1)) for offsets v = p - p_i
            m = v.shape[0]
            out = np.empty(m)
            d = np.empty((min(chunk, m), k))
            dy = np.empty_like(d)
            for lo in range(0, m, chunk):
                hi = min(lo + chunk, m)
                dd, ddy = d[:hi - lo], dy[:hi - lo]
                np.subtract(v[lo:hi, 0:1], node_x, out=dd)
                np.multiply(dd, dd, out=dd)
                np.subtract(v[lo:hi, 1:2], node_y, out=ddy)
                np.multiply(ddy, ddy, out=ddy)
                dd += ddy
                np.sqrt(dd, out=dd)
                np.minimum(dd, 1.0, out=dd)
                np.matmul(modulus.omega(dd), weights, out=out[lo:hi])
            return out

        def values(pts: np.ndarray) -> np.ndarray:
            def profile(i: int) -> np.ndarray:
                out = np.full(pts.shape[0], far_value)
                d = _anchor_distance(pts, anchors[i])
                near = np.flatnonzero(d - e < t_far)
                d = d[near]
                inner = d < e
                out[near[inner]] = near_profile(pts[near[inner]] - anchors[i])
                out[near[~inner]] = table(d[~inner])
                return out

            return _cusp_values(f.arity, amp, signs, pts.shape[0], profile)
    else:
        base_ev = f.evaluator
        nn = f.n
        shifted = (e * offsets).ravel()
        value_shape = (nn, nn) if f.arity is Arity.ANISOTROPIC else ()

        def values(pts: np.ndarray) -> np.ndarray:
            m = pts.shape[0]
            out = np.empty((m, math.prod(value_shape)))
            for lo in range(0, m, chunk):
                hi = min(lo + chunk, m)
                # rows p - eps * c_k, point-major; tiling keeps the
                # subtraction contiguous where broadcasting would loop
                # over n entries
                block = np.tile(pts[lo:hi], k) - shifted
                vals = base_ev(block.reshape(-1, nn))
                out[lo:hi] = weights @ vals.reshape(hi - lo, k, -1)
            return out.reshape((m,) + value_shape)

    if f.declared_modulus is not None:
        sup_bound = float(f.declared_modulus.omega(min(e, 1.0)))
    elif f.holder is not None:
        alpha, c_h = f.holder
        sup_bound = c_h * e ** alpha
    else:
        sup_bound = None
    grad_const = kernel_gradient_constant(f.n)
    meta = {"eps": e, "kernel_grad_l1": grad_const}
    if sup_bound is not None:
        meta["sup_distance_bound"] = sup_bound
        meta["gradient_sup_bound"] = grad_const * sup_bound / e

    return CoefficientField(
        f.arity, f.n, values, f.lam,
        declared_modulus=f.declared_modulus, holder=f.holder,
        kind="mollified", domain_radius=radius, meta=meta)


# -- homogeneous projection ---------------------------------------------


def homogeneous_projection(f: CoefficientField, r: float) -> CoefficientField:
    """Freeze a scalar field along rays: abar(x) = a(r * x/|x|).

    At the origin, where rays meet, the value is the mean over the
    anchor circle; every other point is exact.  Only scalar fields are
    supported; the ray-freezing construction has no canonical matrix
    analogue here.  Projecting twice is pointwise idempotent since the
    output depends on direction alone.
    """
    if f.arity is not Arity.ISOTROPIC:
        raise FieldError("homogeneous projection is defined for scalar fields only")
    anchor = float(r)
    if not 0.0 < anchor <= f.domain_radius:
        raise FieldError(
            f"anchor radius must lie in (0, {f.domain_radius}], got {anchor}")
    base_ev = f.evaluator
    theta = 2.0 * np.pi * (np.arange(512) + 0.5) / 512
    ring = anchor * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    center_value = float(np.mean(base_ev(ring)))

    def ev(pts: np.ndarray) -> np.ndarray:
        r_pts = _radii(pts)
        out = np.full(pts.shape[0], center_value)
        pos = r_pts > 0.0
        if np.any(pos):
            proj = anchor * pts[pos] / r_pts[pos, None]
            out[pos] = base_ev(proj)
        return out

    return CoefficientField(
        Arity.ISOTROPIC, 2, ev, f.lam,
        declared_modulus=f.declared_modulus, holder=f.holder,
        kind="homogeneous", meta={"anchor_radius": anchor})


# -- empirical regularity -----------------------------------------------


@dataclass(frozen=True)
class EmpiricalModulus:
    """Measured oscillation per dyadic separation with a power-law fit.

    ``modulus`` is a tabulated modulus built from the concave
    nondecreasing envelope of the measurements, or None when the field
    shows no oscillation at all.
    """

    separations: np.ndarray
    oscillations: np.ndarray
    alpha_hat: float
    c_h_hat: float
    modulus: Optional[Modulus]
    sample_count: int


def _concave_envelope(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least concave majorant values at the data abscissae."""
    hull_x: list[float] = []
    hull_y: list[float] = []
    for xi, yi in zip(t, y):
        hull_x.append(float(xi))
        hull_y.append(float(yi))
        # upper hull: pop while the middle point lies below the chord
        while len(hull_x) >= 3:
            x0, x1, x2 = hull_x[-3], hull_x[-2], hull_x[-1]
            y0, y1, y2 = hull_y[-3], hull_y[-2], hull_y[-1]
            if (y1 - y0) * (x2 - x1) >= (y2 - y1) * (x1 - x0):
                break
            del hull_x[-2], hull_y[-2]
    return np.interp(t, hull_x, hull_y)


def empirical_modulus(f: CoefficientField, sample_count: int,
                      depth: int = 9) -> EmpiricalModulus:
    """Max oscillation over random point pairs at dyadic separations.

    Fits log(oscillation) against log(separation) to estimate a Holder
    pair (alpha_hat, C_h_hat) and tabulates the concave envelope as a
    reusable modulus.  Sampling is deterministic.
    """
    if sample_count < 100:
        raise FieldError(f"need at least 100 samples, got {sample_count}")
    if depth < 2:
        raise FieldError(f"need at least 2 separation scales, got {depth}")
    rng = np.random.default_rng(0xE11)
    seps = 2.0 ** -np.arange(1, depth + 1)
    seps = seps[seps < 0.5 * f.domain_radius]
    if seps.size < 2:
        raise FieldError("evaluation domain too small for two dyadic scales")
    osc = np.zeros(seps.size)
    for j, d in enumerate(seps):
        reach = f.domain_radius - d
        v = rng.standard_normal((sample_count, f.n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        base = _ball_sample(sample_count, f.n, reach, int(rng.integers(2 ** 31)))
        a0 = f.evaluate(base)
        a1 = f.evaluate(base + d * v)
        diff = np.abs(a1 - a0)
        if f.arity is Arity.ANISOTROPIC:
            diff = diff.reshape(sample_count, -1).max(axis=1)
        osc[j] = float(diff.max())

    positive = osc > 0.0
    if positive.sum() < 2:
        return EmpiricalModulus(seps, osc, 1.0, 0.0, None, sample_count)
    slope, intercept = np.polyfit(np.log(seps[positive]),
                                  np.log(osc[positive]), 1)
    alpha_hat = float(slope)
    c_h_hat = float(math.exp(intercept))

    tab_mod: Optional[Modulus] = None
    if bool(positive.all()):
        order = np.argsort(seps)
        t_sorted = seps[order]
        y_sorted = np.maximum.accumulate(osc[order])
        y_env = _concave_envelope(t_sorted, y_sorted)
        tab_mod = Modulus.tabulated(t_sorted, y_env)
    return EmpiricalModulus(seps, osc, alpha_hat, c_h_hat, tab_mod, sample_count)


# -- random Holder fields -----------------------------------------------

_HOLDER_GRID = 1024
_HOLDER_BLOCK = 64  # rows per block of the synthesis and its certificate


# points per pass of the spline evaluator, keeping its temporaries in cache
# (131,072 points on one core: 30 ms, 36 ms in one pass)
_SPLINE_BLOCK = 2 ** 14


def _cubic_basis(t: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, list]:
    """First coefficient index and the four nonzero cubic B-splines on
    knot vector t at x, by the de Boor-Cox recurrence unrolled as in
    fitpack's ``fpbspl``.  Arguments are clamped into [t[3], t[-4]] like
    fitpack's ``fpbisp``."""
    x = np.clip(x, t[3], t[-4])
    l = np.clip(np.searchsorted(t, x, side="right") - 1, 3, t.size - 5)
    tm2, tm1, t0, t1, t2, t3 = (t[l + d] for d in range(-2, 4))
    f = 1.0 / (t1 - t0)
    h0, h1 = f * (t1 - x), f * (x - t0)
    f = h0 / (t1 - tm1)
    g0, g1 = f * (t1 - x), f * (x - tm1)
    f = h1 / (t2 - t0)
    g1 += f * (t2 - x)
    g2 = f * (x - t0)
    f = g0 / (t1 - tm2)
    b0, b1 = f * (t1 - x), f * (x - tm2)
    f = g1 / (t2 - tm1)
    b1 += f * (t2 - x)
    b2 = f * (x - tm1)
    f = g2 / (t3 - t0)
    b2 += f * (t3 - x)
    b3 = f * (x - t0)
    return l - 3, [b0, b1, b2, b3]


def _uniform_basis(t: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, list]:
    """``_cubic_basis`` on the not-a-knot vector of a uniform axis: a floor
    and closed-form cubics where a cell's six knots are uniform, and the
    recurrence in the three end cells each side."""
    x = np.clip(x, t[3], t[-4])
    s = (x - t[3]) / (t[5] - t[4])
    cell = s.astype(np.intp)  # a floor, as s >= 0
    u = s - cell
    v = 1.0 - u
    basis = [v * v * v / 6.0, ((3.0 * u - 6.0) * u * u + 4.0) / 6.0,
             (((3.0 - 3.0 * u) * u + 3.0) * u + 1.0) / 6.0, u * u * u / 6.0]
    lead = cell - 1
    end = (cell < 4) | (cell > t.size - 10)  # t[cell:cell + 6] not uniform
    if end.any():
        lead[end], ends = _cubic_basis(t, x[end])
        for b, e in zip(basis, ends):
            b[end] = e
    return lead, basis


@lru_cache(maxsize=1)
def _not_a_knot_fit(x0: float, h: float, m: int) -> tuple[np.ndarray, Callable]:
    """Knot vector of the not-a-knot cubic spline on the axis x0 + h k,
    k < m, and a solver of A x = b for its (2, 2)-banded collocation
    matrix A, factored once per process (generate_holder's axis is fixed)
    as A = L U by elimination without pivoting.  The solver overwrites
    its argument x, C-ordered floats with rows p, by A^-1 x, taking every
    column at once by one sweep over the rows each way, and updates each
    row in place through one scratch row."""
    axis = x0 + h * np.arange(m)
    t = np.concatenate([np.full(4, axis[0]), axis[2:-2], np.full(4, axis[-1])])
    lead, basis = _cubic_basis(t, axis)
    band = np.zeros((5, m))  # band[2 + p - l, l] = A[p, l]
    for d, b in enumerate(basis):
        col = lead + d
        diag = 2 + np.arange(m) - col
        # the end rows' out-of-band basis values are zero
        inside = (diag >= 0) & (diag <= 4)
        band[diag[inside], col[inside]] = b[inside]
    a = band.tolist()  # scalar loops run faster on Python floats
    low = [[0.0] * m, [0.0] * m]  # low[d - 1][p] = L[p, p - d]
    for k in range(m - 1):
        for d in (1, 2):
            if k + d == m:
                break
            f = low[d - 1][k + d] = a[2 + d][k] / a[2][k]
            for e in (1, 2):  # row k + d minus f times row k
                if k + e < m:
                    a[2 + d - e][k + e] -= f * a[2 - e][k + e]
    # now a holds U: U[p, p + d] = a[2 - d][p + d]

    def solve(x: np.ndarray) -> np.ndarray:
        rows, tmp = list(x), np.empty_like(x[0])  # row views, scratch row
        for p in range(1, m):
            rows[p] -= np.multiply(low[0][p], rows[p - 1], out=tmp)
            if p > 1:
                rows[p] -= np.multiply(low[1][p], rows[p - 2], out=tmp)
        rows[m - 1] /= a[2][m - 1]
        for p in range(m - 2, -1, -1):
            rows[p] -= np.multiply(a[1][p + 1], rows[p + 1], out=tmp)
            if p + 2 < m:
                rows[p] -= np.multiply(a[0][p + 2], rows[p + 2], out=tmp)
            rows[p] /= a[2][p]
        return x

    return t, solve


def _bicubic_interpolant(axis: np.ndarray, values: np.ndarray
                         ) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator of fitpack's interpolating (s = 0) bicubic spline of
    ``values`` on the square grid ``axis`` x ``axis``, for a uniform axis.

    Its knots are the not-a-knot vector ``[x0]*4 + axis[2:-2] + [xn]*4``
    on both axes, so the collocation matrix A (A[p, l] = B_l(axis[p]))
    is square and banded with two diagonals either side, and the
    coefficients are C = A^-1 values A^-T: two banded solves with one
    factor in place of fitpack's fit.  The factor needs no pivoting: a
    B-spline collocation matrix is totally positive (de Boor, *A
    Practical Guide to Splines*, ch. XIII), and elimination without
    pivoting is backward stable for totally positive matrices (de Boor
    and Pinkus, 1977).  Here every diagonal entry is also at least 1.74
    times its column's subdiagonal entries; on generate_holder's
    1025-point fit the coefficients agree with a pivoted banded solve to
    6.4e-16 relative.  The first solve works in place on ``values``,
    which is overwritten when it is a C-ordered float array.  Evaluation
    sums each point's 4 x 4 coefficients by flat gathers against
    ``_uniform_basis``, with no per-point search."""
    m = axis.size
    t, solve = _not_a_knot_fit(float(axis[0]), float(axis[1] - axis[0]), m)
    # C^T = A^-1 (A^-1 values)^T
    half = solve(np.ascontiguousarray(values, dtype=float))
    c = solve(np.ascontiguousarray(half.T)).ravel()

    def ev(pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape[0])
        for lo in range(0, pts.shape[0], _SPLINE_BLOCK):
            block = pts[lo:lo + _SPLINE_BLOCK]
            ix, bx = _uniform_basis(t, block[:, 0])
            iy, by = _uniform_basis(t, block[:, 1])
            first = iy * m + ix
            part = out[lo:lo + _SPLINE_BLOCK]
            for a in range(4):
                row = first + a * m
                acc = c[row] * bx[0]
                for b in range(1, 4):
                    acc += c[row + b] * bx[b]
                part += by[a] * acc
        return out

    return ev


def _lag_certificate(values: np.ndarray, alpha: float, h: float) -> float:
    """Holder constant certificate of periodic grid values of spacing h:
    the largest |values[i] - values[i - lag]| / (lag h)^alpha over the
    axis-aligned lags 1, 2, 4, 8 and 16, the differences a block of rows
    at a time in one scratch block (a max is the same float in any order)."""
    top = dict.fromkeys((1, 2, 4, 8, 16), 0.0)  # largest |difference|
    scratch = np.empty((_HOLDER_BLOCK, values.shape[1]))
    for lo in range(0, values.shape[0], _HOLDER_BLOCK):
        v = values[lo:lo + _HOLDER_BLOCK]
        d = scratch[:len(v)]
        for lag in top:
            np.subtract(v[:, lag:], v[:, :-lag], out=d[:, lag:])
            np.subtract(v[:, :lag], v[:, -lag:], out=d[:, :lag])
            top[lag] = max(top[lag], float(np.abs(d, out=d).max()))
            if lo >= lag:  # rows i - lag
                np.subtract(v, values[lo - lag:lo - lag + len(v)], out=d)
            else:  # the first block, of at least 16 rows, wraps round
                np.subtract(v[lag:], values[:len(v) - lag], out=d[lag:])
                np.subtract(v[:lag], values[-lag:], out=d[:lag])
            top[lag] = max(top[lag], float(np.abs(d, out=d).max()))
    return max(t / (lag * h) ** alpha for lag, t in top.items())


def generate_holder(alpha: float, amplitude: float,
                    seed: int) -> CoefficientField:
    """Random scalar field with target Holder exponent alpha.

    Synthesis is spectral: white noise on a periodic grid is shaped so
    the mode at frequency k carries amplitude proportional to
    |k|^(-alpha - 1), the scaling whose planar realizations oscillate
    like d^alpha at separation d.  The centered sample is normalized to
    unit sup on the grid, scaled by ``amplitude``, and pinned to
    a(0) = 1.  Fields leaving [1/2, 2] raise GenerationError.
    """
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise FieldError(f"target exponent must lie in (0, 1), got {a}")
    amp = float(amplitude)
    if amp < 0.0:
        raise FieldError(f"amplitude must be nonnegative, got {amp}")
    if amp == 0.0:
        return CoefficientField(
            Arity.ISOTROPIC, 2, CoefficientField.constant().evaluator, 1.0,
            holder=(a, 0.0), kind="holder_synthetic")

    m, rows = _HOLDER_GRID, _HOLDER_BLOCK
    rng = np.random.default_rng(int(seed))
    # two full-size buffers: the half spectrum (the noise is real) and the
    # padded grid the fit takes over.  Noise, weight and the last axis's
    # transforms go a block of rows at a time, axis 0's in place; rfft2 and
    # irfft2 give the same bits.  No full-size temporary is left to the heap
    spectrum = np.empty((m, m // 2 + 1), dtype=complex)
    noise = np.empty((rows, m))
    for lo in range(0, m, rows):
        block = rng.standard_normal(out=noise[:min(rows, m - lo)])
        np.fft.rfft(block, axis=1, out=spectrum[lo:lo + rows])
    np.fft.fft(spectrum, axis=0, out=spectrum)
    kx, ky2 = np.fft.fftfreq(m, d=1.0 / m), np.fft.rfftfreq(m, d=1.0 / m) ** 2
    for lo in range(0, m, rows):
        k2 = kx[lo:lo + rows, None] ** 2 + ky2
        if lo == 0:
            k2[0, 0] = 1.0
        spectrum[lo:lo + rows] *= np.sqrt(k2, out=k2) ** (-a - 1.0)
    spectrum[0, 0] = 0.0
    np.fft.ifft(spectrum, axis=0, out=spectrum)
    padded = np.empty((m + 1, m + 1))
    for lo in range(0, m, rows):
        np.fft.irfft(spectrum[lo:lo + rows], n=m, axis=1,
                     out=padded[lo:lo + rows, :m])
    del spectrum

    # grid covers [-1, 1) per axis; index m//2 is the origin
    axis = -1.0 + 2.0 * np.arange(m) / m
    values = padded[:m, :m]
    values -= values[m // 2, m // 2]
    peak = max(float(values.max()), -float(values.min()))
    values *= amp
    values /= peak
    values += 1.0

    lo, hi = float(values.min()), float(values.max())
    if lo < 0.5 or hi > 2.0:
        raise GenerationError(
            f"synthesized range [{lo:.4g}, {hi:.4g}] leaves [0.5, 2]; "
            f"reduce amplitude {amp}")
    c_h = _lag_certificate(values, a, 2.0 / m)

    # wrap one periodic row per axis so the closed disk is covered; the
    # fit overwrites the padded grid
    padded[:m, m] = padded[:m, 0]
    padded[m] = padded[0]
    ev = _bicubic_interpolant(np.append(axis, 1.0), padded)

    return CoefficientField(
        Arity.ISOTROPIC, 2, ev, 0.5, holder=(a, c_h),
        kind="holder_synthetic", meta={"grid": m, "range": (lo, hi)})
