"""Moduli of continuity and the transforms used by the growth machinery.

A modulus is a continuous, nondecreasing, concave function ``omega`` on
``[0, 1]`` with ``omega(0) = 0`` and ``omega(t) > 0`` for ``t > 0``.  Two
derived transforms drive everything downstream:

    phi(s) = omega(s) / s          (nonincreasing on (0, 1])
    psi(s) = phi(1 / s)            (nondecreasing on [1, inf))

``omega`` is Osgood when ``int_0 dt / omega(t)`` diverges.  The model family
``omega(t) = t * log(1/t)**p`` is Osgood exactly for ``p <= 1``; since the
raw formula is only monotone up to ``t = exp(-p)``, the implemented modulus
freezes at that point (``omega(t) = omega(t_cut)`` for ``t > t_cut``).  The
constant continuation is the unique extension that keeps both monotonicity
and concavity, and every reported quantity refers to the extended family.

The numeric Osgood and phi-integrability checks sum integrals over the
dyadic segments ``[2^-(k+1), 2^-k]``.  Each segment is split at the
modulus's kinks (``t_cut``, or a tabulated modulus's sample abscissae)
into panels of one fixed 20-node Gauss-Legendre rule, evaluated through
the vectorized ``omega`` and ``phi``.  On a panel both integrands are
analytic with their nearest singularity at t = 0, at least one panel
length away, so the rule converges like (3 + sqrt 8)^-40; against
``scipy.integrate.quad`` at ``epsrel=1e-13`` it agrees to 1e-15 on every
segment of the tested moduli.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Modulus",
    "OsgoodClass",
    "SubmultiplicativityReport",
    "IntegrabilityReport",
    "ExponentTriple",
    "classify_osgood",
    "check_submultiplicative_psi",
    "check_phi_integrable",
    "select_exponents",
]

ScalarMap = Callable[[float], float]


class OsgoodClass(enum.Enum):
    OSGOOD = "Osgood"
    NON_OSGOOD = "NonOsgood"
    INCONCLUSIVE = "Inconclusive"


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Modulus:
    """One modulus of continuity, holding each kind's ``omega``, kinks,
    ``t_far``, scalar ``phi``, ``h`` pair, Osgood class and config.

    Supported kinds:

    ``linear``     ``omega(t) = t``
    ``power``      ``omega(t) = t**alpha``, ``alpha in (0, 1)``
    ``log_power``  ``omega(t) = t * log(1/t)**p`` on ``(0, t_cut]``,
                   constant for ``t > t_cut`` with ``t_cut = exp(-p)``
    ``tabulated``  log-log interpolation of sample pairs ``(t_i, omega_i)``

    Tabulated moduli extrapolate below the smallest sample with the power law
    of the innermost segment; ``omega(0) = 0`` always.
    """

    kind: str
    alpha: Optional[float] = None
    p: Optional[float] = None
    samples: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind == "linear":
            pass
        elif self.kind == "power":
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ValueError("power modulus needs alpha in (0, 1)")
        elif self.kind == "log_power":
            if self.p is None or not self.p > 0.0:
                raise ValueError("log_power modulus needs p > 0")
            with np.errstate(over="ignore"):  # p^p overflows from p ~ 144
                top = float(self.omega(self.t_cut))
            if not 0.0 < top < math.inf:  # p < ~1e-17 rounds t_cut to 1
                raise ValueError(f"log_power modulus with p = {self.p} "
                                 f"has omega(t_cut) = {top}")
        elif self.kind == "tabulated":
            self._validate_samples()
        else:
            raise ValueError(f"unknown modulus kind {self.kind!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def linear() -> "Modulus":
        return Modulus("linear")

    @staticmethod
    def power(alpha: float) -> "Modulus":
        return Modulus("power", alpha=float(alpha))

    @staticmethod
    def log_power(p: float) -> "Modulus":
        return Modulus("log_power", p=float(p))

    @staticmethod
    def tabulated(t: Sequence[float], omega: Sequence[float]) -> "Modulus":
        arr = np.column_stack([_as_array(t), _as_array(omega)])
        return Modulus("tabulated", samples=arr)

    def _validate_samples(self):
        s = self.samples
        if s is None or s.ndim != 2 or s.shape[1] != 2 or s.shape[0] < 2:
            raise ValueError("tabulated modulus needs >= 2 sample pairs")
        if not np.all(np.isfinite(s)):
            raise ValueError("tabulated modulus needs finite samples")
        t, w = s[:, 0], s[:, 1]
        if np.any(t <= 0.0) or np.any(t > 1.0) or np.any(np.diff(t) <= 0.0):
            raise ValueError("sample abscissae must increase within (0, 1]")
        if np.any(w <= 0.0):
            raise ValueError("omega must be positive at positive samples")
        if np.any(np.diff(w) < 0.0):
            raise ValueError("omega samples must be nondecreasing")
        # concavity on sample triples: chord slopes must not increase
        slopes = np.diff(w) / np.diff(t)
        if np.any(np.diff(slopes) > 1e-9 * max(1.0, slopes[0])):
            raise ValueError("omega samples violate concavity")

    # -- evaluation --------------------------------------------------------

    @property
    def t_cut(self) -> Optional[float]:
        if self.kind == "log_power":
            return math.exp(-self.p)
        return None

    @property
    def t_far(self) -> float:
        """The point from which ``omega(min(t, 1))`` is constant:
        ``t_cut`` for ``log_power``, 1 for every other kind."""
        return self.t_cut if self.kind == "log_power" else 1.0

    @property
    def kinks(self) -> tuple:
        """The abscissae where ``omega``'s formula changes: ``t_cut``, or
        the sample abscissae; empty for the smooth kinds."""
        if self.kind == "log_power":
            return (self.t_cut,)
        if self.kind == "tabulated":
            return tuple(self.samples[:, 0].tolist())
        return ()

    def omega(self, t) -> np.ndarray:
        """Evaluate ``omega`` on ``[0, 1]`` (vectorized)."""
        t = _as_array(t)
        # NaN propagates through min and max and fails both comparisons
        if not (t.min(initial=0.0) >= 0.0 and t.max(initial=1.0) <= 1.0):
            raise ValueError("omega is defined on [0, 1]")
        if self.kind == "linear":
            return t.copy()
        if self.kind == "power":
            return t**self.alpha
        if self.kind == "log_power":
            return self._omega_log_power(t)
        return self._omega_tabulated(t)

    def _omega_log_power(self, t: np.ndarray) -> np.ndarray:
        # tc * (-log tc)**p in two buffers; `out=` keeps 0-d inputs arrays
        tc = np.minimum(t, self.t_cut, out=np.empty(t.shape))
        val = np.empty(t.shape)
        # t = 0 gives 0 * inf here; the last line maps it to 0
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(tc, out=val)
            np.negative(val, out=val)
            if self.p != 1.0:
                val **= self.p  # as `**` does: p = 0.5 and 2 take sqrt, square
            np.multiply(val, tc, out=val)
        val[t == 0.0] = 0.0
        return val

    def _omega_tabulated(self, t: np.ndarray) -> np.ndarray:
        ts, ws = self.samples[:, 0], self.samples[:, 1]
        out = np.zeros_like(t)
        pos = t > 0.0
        logw = np.interp(
            np.log(t[pos]),
            np.log(ts),
            np.log(ws),
        )
        # np.interp clamps; redo the left side with the first segment's slope
        below = t[pos] < ts[0]
        if np.any(below):
            m0 = (math.log(ws[1]) - math.log(ws[0])) / (
                math.log(ts[1]) - math.log(ts[0])
            )
            logw = np.where(
                below,
                math.log(ws[0]) + m0 * (np.log(t[pos]) - math.log(ts[0])),
                logw,
            )
        out[pos] = np.exp(logw)
        return out

    def phi(self, s) -> np.ndarray:
        """``phi(s) = omega(s)/s`` on ``(0, 1]`` (vectorized)."""
        s = _as_array(s)
        if np.any(s <= 0.0) or np.any(s > 1.0):
            raise ValueError("phi is defined on (0, 1]")
        return self.omega(s) / s

    def psi(self, s) -> np.ndarray:
        """``psi(s) = phi(1/s)`` on ``[1, inf)`` (vectorized)."""
        s = _as_array(s)
        if np.any(s < 1.0):
            raise ValueError("psi is defined on [1, inf)")
        return self.omega(1.0 / s) * s

    def scalar_phi(self) -> ScalarMap:
        """Fast scalar ``phi`` (the canonical integrable forcing ``g``)."""
        if self.kind == "linear":
            return lambda s: 1.0
        if self.kind == "power":
            e = self.alpha - 1.0
            return lambda s: s**e
        if self.kind == "log_power":
            p = self.p
            cut = math.exp(-p)
            c = cut * p**p
            return lambda s: c / s if s > cut else (-math.log(s)) ** p
        return lambda s: float(self.phi(s))

    def h_pair(self) -> tuple[ScalarMap, ScalarMap]:
        """Scalar ``h(t) = int_1^t ds/(s psi(s))`` on ``[1, inf)`` and its
        inverse, in closed form.  The inverse is ``inf`` past a finite range
        of ``h`` and raises ``OverflowError`` past the float range."""
        if self.kind == "linear":
            return math.log, math.exp
        if self.kind == "power":
            e = 1.0 - self.alpha  # h(t) = (1 - t^-e) / e, range [0, 1/e)

            def h(t: float) -> float:
                return (1.0 - t**-e) / e

            def h_inv(y: float) -> float:
                return (1.0 - e * y) ** (-1.0 / e) if e * y < 1.0 else math.inf

            return h, h_inv
        if self.kind == "log_power":
            return _h_pair_log_power(self.p)
        return _h_pair_tabulated(self.samples)

    def analytic_osgood(self) -> Optional[OsgoodClass]:
        """Closed-form classification for parametric kinds, None otherwise."""
        if self.kind == "linear":
            return OsgoodClass.OSGOOD
        if self.kind == "power":
            return OsgoodClass.NON_OSGOOD
        if self.kind == "log_power":
            return OsgoodClass.OSGOOD if self.p <= 1.0 else OsgoodClass.NON_OSGOOD
        return None

    # -- serialization -----------------------------------------------------

    def to_config(self) -> dict:
        cfg: dict = {"kind": self.kind}
        if self.kind == "power":
            cfg["alpha"] = self.alpha
        elif self.kind == "log_power":
            cfg["p"] = self.p
            cfg["t_cut"] = self.t_cut
            cfg["extension"] = "constant beyond t_cut"
        elif self.kind == "tabulated":
            cfg["t"] = self.samples[:, 0].tolist()
            cfg["omega"] = self.samples[:, 1].tolist()
        return cfg

    @staticmethod
    def from_config(cfg: dict) -> "Modulus":
        kind = cfg["kind"]
        if kind == "linear":
            return Modulus.linear()
        if kind == "power":
            return Modulus.power(cfg["alpha"])
        if kind == "log_power":
            return Modulus.log_power(cfg["p"])
        if kind == "tabulated":
            return Modulus.tabulated(cfg["t"], cfg["omega"])
        raise ValueError(f"unknown modulus kind {kind!r}")


def _h_pair_tabulated(samples: np.ndarray) -> tuple[ScalarMap, ScalarMap]:
    """``omega`` is piecewise linear in log-log: constant past the largest
    sample, the innermost segment's power law below the smallest.  So in
    ``u = log s`` the integrand ``1/psi(e^u)`` is ``exp(a_j + b_j (u - u_j))``
    on the piece starting at ``u_j``, and ``h`` and its inverse are explicit
    there."""
    log_t = np.log(samples[:, 0])
    log_w = np.log(samples[:, 1])
    slopes = np.diff(log_w) / np.diff(log_t)
    # pieces by increasing u = -log t; the first is the constant part
    u_start = np.concatenate([[0.0], -log_t[:0:-1]])
    log_w_start = np.concatenate([[log_w[-1]], log_w[:0:-1]])
    starts = u_start.tolist()
    offsets = (-u_start - log_w_start).tolist()
    rates = (np.concatenate([[0.0], slopes[::-1]]) - 1.0).tolist()

    def piece(j: int, d: float) -> float:  # int over [u_j, u_j + d]
        b = rates[j]
        scale = math.exp(offsets[j])
        return scale * (d if b == 0.0 else math.expm1(b * d) / b)

    levels = [0.0]  # h at the piece starts
    for j in range(len(starts) - 1):
        levels.append(levels[-1] + piece(j, starts[j + 1] - starts[j]))

    def h(t: float) -> float:
        u = math.log(t)
        j = max(bisect.bisect_right(starts, u) - 1, 0)
        return levels[j] + piece(j, u - starts[j])

    def h_inv(y: float) -> float:
        j = max(bisect.bisect_right(levels, y) - 1, 0)
        rest = (y - levels[j]) * math.exp(-offsets[j])
        b = rates[j]
        if b == 0.0:
            return math.exp(starts[j] + rest)
        if b * rest <= -1.0:  # past the finite range of the last piece
            return math.inf
        return math.exp(starts[j] + math.log1p(b * rest) / b)

    return h, h_inv


def _h_pair_log_power(p: float) -> tuple[ScalarMap, ScalarMap]:
    """``psi(s) = c s`` below the knee ``e^p`` and ``log(s)^p`` above it, so
    past the knee ``h(t) = h(e^p) + int_p^{log t} u^-p du``."""
    knee = math.exp(p)
    c = math.exp(-p) * p**p
    h_knee = (1.0 - 1.0 / knee) / c
    q = 1.0 - p

    def h(t: float) -> float:
        if t < knee:
            return (1.0 - 1.0 / t) / c
        lt = math.log(t)
        return h_knee + (math.log(lt / p) if q == 0.0 else (lt**q - p**q) / q)

    def h_inv(y: float) -> float:
        if y < h_knee:
            return 1.0 / (1.0 - c * y)
        z = y - h_knee
        if q == 0.0:
            return math.exp(p * math.exp(z))
        base = p**q + q * z
        return math.exp(base ** (1.0 / q)) if base > 0.0 else math.inf

    return h, h_inv


# ---------------------------------------------------------------------------
# Osgood classification
# ---------------------------------------------------------------------------


# Gauss-Legendre rule on [0, 1]: 20 nodes integrate a function analytic
# in the ellipse with foci 0, 1 through a singularity at -1 (a dyadic
# panel's distance to t = 0) to about rho^-40 = 1e-30, rho = 3 + sqrt(8)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def panel_integrals(f, cuts: np.ndarray) -> np.ndarray:
    """Integrals of the vectorized ``f`` over the panels between
    consecutive ``cuts`` (ascending along the last axis), by the fixed
    Gauss-Legendre rule.  ``cuts`` may carry leading batch axes; ``f``
    takes the nodes as one (..., panels, nodes) array and returns values
    of that shape, or a stack of such arrays along further leading axes,
    whose integrals come back stacked the same way.  The nodes are
    interior, so ``f`` is never evaluated at a cut."""
    a, b = cuts[..., :-1, None], cuts[..., 1:, None]
    x = a + (b - a) * _GL_NODES
    return (b - a)[..., 0] * (f(x) @ _GL_WEIGHTS)


def union_cuts(*parts) -> np.ndarray:
    """``np.union1d`` of the 1-D parts, without its import of numpy.ma."""
    values = np.sort(np.concatenate(parts))
    return values[np.append(True, np.diff(values) > 0.0)]


def dyadic_integrals(f, depth: int, kinks=()) -> np.ndarray:
    """``I[k] = int_{2^-(k+1)}^{2^-k} f`` for ``k = 0..depth-1``, each
    segment split at the ``kinks`` inside it into panels of the
    Gauss-Legendre rule.  On every panel a modulus's ``1/omega`` and
    ``phi`` are analytic, with their nearest singularity at 0, at least
    one panel length away; the rule matches ``quad`` at ``epsrel=1e-13``
    to 1e-12 on every segment."""
    edges = 2.0 ** -np.arange(depth, -1, -1.0)  # ascending, to 1
    cuts = union_cuts(edges, [x for x in kinks if edges[0] < x < 1.0])
    segment = np.searchsorted(edges, cuts[:-1], side="right") - 1
    return np.bincount(segment, panel_integrals(f, cuts),
                       minlength=depth)[::-1]


def classify_osgood(
    m: Modulus,
    depth: int = 40,
    *,
    numeric_only: bool = False,
    tol: float = 1e-8,
) -> OsgoodClass:
    """Classify the Osgood condition ``int_0 dt/omega(t) = inf``.

    Parametric kinds are answered in closed form unless ``numeric_only``.
    The numeric path sums dyadic increments of ``1/omega`` and applies a
    condensation test: blocks ``B_m = sum of increments k in [2^m, 2^{m+1})``
    decay geometrically exactly when the integral converges.  Resolution is
    limited near the Osgood boundary (log_power with ``|p - 1| <~ 0.1`` comes
    back Inconclusive at the default depth).
    """
    if depth < 4:
        raise ValueError("depth must be >= 4")
    if not numeric_only:
        analytic = m.analytic_osgood()
        if analytic is not None:
            return analytic

    # inc[k] = int dt / omega(t) over [2^-(k+1), 2^-k]
    inc = dyadic_integrals(lambda t: 1.0 / m.omega(t), depth, m.kinks)
    n_blocks = int(math.floor(math.log2(depth)))
    blocks = np.array(
        [inc[2**mm : min(2 ** (mm + 1), depth)].sum() for mm in range(n_blocks)]
    )
    total = inc.sum()
    if blocks[-1] < tol * max(total, 1.0):
        return OsgoodClass.NON_OSGOOD
    # block widths double, so early ratios are inflated; judge the last two
    ratios = blocks[1:] / blocks[:-1]
    tail = ratios[-2:]
    if np.all(tail >= 0.93):
        return OsgoodClass.OSGOOD
    if np.all(tail <= 0.88):
        return OsgoodClass.NON_OSGOOD
    return OsgoodClass.INCONCLUSIVE


# ---------------------------------------------------------------------------
# Submultiplicativity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubmultiplicativityReport:
    holds: bool
    constant: float
    worst_ratio: float
    worst_pair: tuple
    sample_count: int


def check_submultiplicative_psi(
    m: Modulus, c_m: float, sample_count: int = 64
) -> SubmultiplicativityReport:
    """Check ``psi(x*y) <= c_m * psi(x) * psi(y)`` on a log grid in [1, 1e6]^2.

    The report carries the worst observed ratio ``psi(xy)/(psi(x)psi(y))`` so
    a caller can read off the smallest admissible constant.
    """
    if sample_count < 16:
        raise ValueError("sample_count must be >= 16")
    if c_m <= 0:
        raise ValueError("c_m must be positive")
    grid = np.logspace(0.0, 6.0, sample_count)
    px = m.psi(grid)
    xy = np.outer(grid, grid)
    # px * px underflows for moduli near 1e-300; scaling px by a power of
    # two is exact, so the quotient is unchanged wherever that one is normal
    scale = np.frexp(px.max())[1]
    ps = np.ldexp(px, -scale)
    ratios = np.ldexp(m.psi(xy.ravel()).reshape(xy.shape) / np.outer(ps, ps),
                      -2 * scale)
    idx = np.unravel_index(np.argmax(ratios), ratios.shape)
    worst = float(ratios[idx])
    return SubmultiplicativityReport(
        holds=bool(worst <= c_m * (1.0 + 1e-12)),
        constant=float(c_m),
        worst_ratio=worst,
        worst_pair=(float(grid[idx[0]]), float(grid[idx[1]])),
        sample_count=sample_count,
    )


# ---------------------------------------------------------------------------
# Integrability of phi at 0
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegrabilityReport:
    finite: bool
    value: float  # integral (tail-extrapolated) when finite, partial sum otherwise
    partial_sums: np.ndarray = field(repr=False)


def check_phi_integrable(
    m: Modulus, depth: int = 60, tol: float = 1e-8
) -> IntegrabilityReport:
    """Decide ``int_0^1 phi(s) ds < inf`` by dyadic summation.

    Segment integrals over ``[2^-(k+1), 2^-k]`` are summed until they fall
    below ``tol`` relative to the running total (finite; geometric tail is
    extrapolated onto the value) or the condensation ratios show a
    non-summable trend (infinite; value reports the partial sum).
    """
    all_segs = dyadic_integrals(m.phi, depth, m.kinks)
    segs = []
    total = 0.0
    for k in range(depth):
        val = float(all_segs[k])
        segs.append(val)
        total += val
        if k >= 8 and val < tol * max(total, 1.0):
            seg = np.asarray(segs)
            ratio = seg[-1] / seg[-2] if seg[-2] > 0 else 0.0
            tail = seg[-1] * ratio / (1.0 - ratio) if ratio < 1.0 else 0.0
            return IntegrabilityReport(True, float(total + tail), np.cumsum(seg))
    seg = np.asarray(segs)
    ratios = seg[1:] / seg[:-1]
    finite = bool(np.all(ratios[-6:] <= 0.95))
    value = float(total)
    if finite:
        ratio = float(np.mean(ratios[-3:]))
        if ratio < 1.0:
            value += float(seg[-1] * ratio / (1.0 - ratio))
    return IntegrabilityReport(finite, value, np.cumsum(seg))


# ---------------------------------------------------------------------------
# Exponent selection for the iterated two-scale argument
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentTriple:
    """Exponents ``(beta, tau, eta)`` satisfying the two strict constraints

    ``tau * (2 - beta) + eta < 1``  and  ``beta * tau > 1/2 + 2 * eta``.
    """

    beta: float
    tau: float
    eta: float

    def __post_init__(self):
        if not (self.tau * (2.0 - self.beta) + self.eta < 1.0):
            raise ValueError("exponent constraint tau*(2-beta)+eta < 1 violated")
        if not (self.beta * self.tau > 0.5 + 2.0 * self.eta):
            raise ValueError("exponent constraint beta*tau > 1/2+2*eta violated")
        if not (0.0 < self.eta < 1.0 and 0.0 < self.tau < 1.0):
            raise ValueError("tau and eta must lie in (0, 1)")


_ALPHA_FLOOR = 2.0 / 3.0 + 1e-4


def select_exponents(alpha: float) -> ExponentTriple:
    """Deterministic feasible triple for Hoelder exponent ``alpha > 2/3``.

    ``beta`` is the midpoint of ``(2/3, alpha)``; ``tau`` the midpoint of its
    feasible interval ``(1/(2 beta), 1/(2 - beta))``; ``eta`` a quarter of the
    smaller slack.  Alphas within 1e-4 of 2/3 are rejected: the feasible
    interval degenerates and eta underflows any useful size.
    """
    if alpha >= 1.0:
        raise ValueError("alpha must be < 1")
    if alpha <= _ALPHA_FLOOR:
        raise ValueError("alpha must exceed 2/3 (with margin 1e-4)")
    beta = (2.0 / 3.0 + alpha) / 2.0
    tau = 0.5 * (1.0 / (2.0 * beta) + 1.0 / (2.0 - beta))
    slack_a = 1.0 - tau * (2.0 - beta)
    slack_b = (beta * tau - 0.5) / 2.0
    eta = min(slack_a, slack_b) / 4.0
    return ExponentTriple(beta=beta, tau=tau, eta=eta)
