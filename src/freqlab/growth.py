"""Growth bounds driven by a modulus of continuity.

Everything here rests on the increasing transform

    h(t) = int_1^t ds / (s * psi(s)),        t >= 1,

whose range is unbounded exactly when the modulus is Osgood.  A quantity
``f`` obeying the differential inequality ``f'(t) >= -C1 f psi(f) g(t)``
(decay toward small ``t``, so ``f`` grows as ``t`` decreases) satisfies

    h(f(t)) <= h(f(1)) + C1 * int_t^1 g(s) ds,

and inverting ``h`` turns the right side into a pointwise bound.  The
discrete cascade takes the worst case of the same inequality one step at a
time on the shrinking schedule ``t_{k+1} = t_k (1 - 1/N_k)``, exactly in
``h``-space with the forcing frozen at the step's outer point:

    h(N_{k+1}) = h(N_k) + C1 * g(t_k) * (t_k - max(t_{k+1}, t_floor)).

For a nonincreasing forcing the trace stays at or below the continuous
inversion, and equals it for constant forcing.  It is the finite-step
analogue used as an envelope for measured frequency profiles.  ``h`` and
its inverse are ``Modulus.h_pair``'s closed forms (piecewise for a
tabulated modulus), so each step costs a few elementary function calls.

Integrals of a forcing ``g`` (``int_t^1 g`` for the continuous bound,
the dyadic segments of the integrability probe) use the Gauss-Legendre
panel rule of ``modulus``, with panels cut at the powers of two and at
the modulus's kinks, where the canonical forcing ``phi`` changes formula.
For the forcings ``Modulus.scalar_phi`` returns it agrees with
``scipy.integrate.quad`` at ``epsrel=1e-13`` to 1e-12.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .modulus import (Modulus, ScalarMap, dyadic_integrals, panel_integrals,
                      union_cuts)

__all__ = [
    "GrowthVerdict",
    "GrowthTrace",
    "h_transform",
    "continuous_growth_bound",
    "discrete_cascade",
]

OVERFLOW_GUARD = 1.0e12


class GrowthVerdict(enum.Enum):
    BOUNDED_ON_COMPACTS = "BoundedOnCompacts"
    BOUNDED_GLOBALLY = "BoundedGlobally"
    BLOWUP_DETECTED = "BlowupDetected"


def h_transform(m: Modulus, t: float) -> float:
    """``h(t) = int_1^t ds/(s psi(s))`` (t >= 1), in closed form."""
    if t < 1.0:
        raise ValueError("h is defined for t >= 1")
    return m.h_pair()[0](t)


def continuous_growth_bound(
    m: Modulus,
    f1: float,
    g: Callable[[float], float],
    c1: float,
    t: float,
    *,
    g_integral: Optional[float] = None,
    guard: float = OVERFLOW_GUARD,
) -> float:
    """Upper bound ``B`` with ``h(B) = h(f1) + c1 * int_t^1 g``.

    Without ``g_integral``, ``int_t^1 g`` comes from the panel rule cut
    at the powers of two and ``m``'s kinks.  Returns ``math.inf`` when the
    target level exceeds ``h(guard)``: for a non-Osgood modulus that is
    genuine blowup (the target passes the finite range of ``h``), for an
    Osgood one it means the bound is beyond the representable guard
    range.  Monotone in ``f1``, ``c1`` and the forcing.
    """
    if f1 < 1.0:
        raise ValueError("f1 must be >= 1")
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if c1 < 0.0:
        raise ValueError("c1 must be nonnegative")
    if g_integral is None:
        g_integral = _integral_to_one(g, t, m.kinks)
    h, h_inv = m.h_pair()
    target = h(f1) + c1 * g_integral
    if h(guard) < target:
        return math.inf
    return h_inv(target)


@dataclass
class GrowthTrace:
    """Cascade output: schedule ``t``, values ``n``, and bookkeeping."""

    t: np.ndarray
    n: np.ndarray
    verdict: GrowthVerdict
    bound: float
    reached_floor: bool
    g_integrable: Optional[bool]
    doubling_ok: bool
    doubling_worst: float
    meta: dict = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return len(self.t) - 1


def _vectorized(g: ScalarMap) -> Callable[[np.ndarray], np.ndarray]:
    return lambda s: np.array([g(x) for x in s.ravel().tolist()]
                              ).reshape(s.shape)


# below 2^-200 one panel reaches down to t, so that t = 0 is allowed: a
# forcing below s^-3/4 has less than 4 * 2^-50 = 3.6e-15 of its integral
# there
_DEEPEST = 200


def _integral_to_one(g: ScalarMap, t: float, kinks: tuple) -> float:
    """``int_t^1 g`` by the Gauss-Legendre panel rule of ``modulus`` on
    [t, 1] cut at the powers of two and the ``kinks`` above t."""
    depth = _DEEPEST if t <= 2.0**-_DEEPEST else math.ceil(-math.log2(t))
    cuts = union_cuts(2.0 ** -np.arange(depth, -1, -1.0), kinks)
    cuts = np.concatenate([[t], cuts[(cuts > t) & (cuts <= 1.0)]])
    return float(panel_integrals(_vectorized(g), cuts).sum())


def _probe_g_integrable(g: Callable[[float], float], kinks: tuple,
                        depth: int = 40) -> bool:
    """Condensation probe for ``int_0 g``: dyadic segments must decay."""
    seg = dyadic_integrals(_vectorized(g), depth, kinks)
    if seg[-1] < 1e-12 * max(seg.sum(), 1.0):
        return True
    ratios = seg[1:] / np.maximum(seg[:-1], 1e-300)
    return bool(np.all(ratios[-6:] <= 0.95))


def _doubling_spot_check(
    g: Callable[[float], float], c1: float, t_floor: float
) -> tuple[bool, float]:
    """Sample ``g(s) <= c1 g(gamma s)`` at gamma in {0.5, 0.75, 0.9}."""
    ss = np.logspace(math.log10(max(t_floor, 1e-9) * 10.0), 0.0, 25)
    worst = 0.0
    for gamma in (0.5, 0.75, 0.9):
        for s in ss:
            denom = g(gamma * s)
            if denom <= 0.0:
                return False, math.inf
            worst = max(worst, g(s) / denom)
    return worst <= c1 * (1.0 + 1e-12), worst


def discrete_cascade(
    m: Modulus,
    n0: float,
    g: Callable[[float], float],
    c1: float,
    t_floor: float,
    *,
    guard: float = OVERFLOW_GUARD,
    g_integrable: Optional[bool] = None,
    max_steps: int = 2_000_000,
) -> GrowthTrace:
    """Iterate the worst-case one-step growth down to ``t_floor``.

        t_{k+1} = t_k * (1 - 1/N_k)
        h(N_{k+1}) = h(N_k) + c1 * g(t_k) * (t_k - max(t_{k+1}, t_floor))

    Each step is exact in ``h``-space for the forcing frozen at the step's
    outer point ``t_k``; the last step's forcing interval is clipped at the
    floor.  A zero increment leaves ``N`` bit-identical.  For nonincreasing
    ``g`` the trace stays at or below ``continuous_growth_bound`` (equal to
    it, up to roundoff, for constant ``g``).

    Stops at the floor (verdict from the integrability certificate: globally
    bounded for integrable ``g``, otherwise bounded on compacts), at the
    overflow guard (BlowupDetected), or at ``max_steps`` (treated as bounded
    on compacts down to the reached depth; ``reached_floor`` is False then).
    """
    if n0 <= 1.0:
        raise ValueError("n0 must exceed 1")
    if not 0.0 < t_floor < 1.0:
        raise ValueError("t_floor must lie in (0, 1)")
    if c1 < 0.0:
        raise ValueError("c1 must be nonnegative")
    h, h_inv = m.h_pair()
    if g_integrable is None:
        g_integrable = _probe_g_integrable(g, m.kinks)
    doubling_ok, doubling_worst = _doubling_spot_check(g, c1, t_floor)

    ts = [1.0]
    ns = [float(n0)]
    t, n = 1.0, float(n0)
    y = h(n)  # carried in h-space so that N_k = h_inv(y_k) does not drift
    verdict = None
    reached_floor = False
    for _ in range(max_steps):
        if t <= t_floor:
            reached_floor = True
            break
        t_next = t * (1.0 - 1.0 / n)
        increment = c1 * g(t) * (t - (t_next if t_next > t_floor else t_floor))
        if increment != 0.0:
            y += increment
            try:
                n_next = h_inv(y)
            except OverflowError:
                n_next = math.inf
        else:
            n_next = n
        if n_next > guard:
            ts.append(t_next)
            ns.append(n_next)
            verdict = GrowthVerdict.BLOWUP_DETECTED
            break
        if t_next >= t:  # 1/n below float resolution: schedule stalls
            verdict = GrowthVerdict.BLOWUP_DETECTED
            break
        t, n = t_next, n_next
        ts.append(t)
        ns.append(n)
    if verdict is None:
        if reached_floor:
            verdict = (
                GrowthVerdict.BOUNDED_GLOBALLY
                if g_integrable
                else GrowthVerdict.BOUNDED_ON_COMPACTS
            )
        else:
            verdict = GrowthVerdict.BOUNDED_ON_COMPACTS
    return GrowthTrace(
        t=np.asarray(ts),
        n=np.asarray(ns),
        verdict=verdict,
        bound=float(np.max(ns)),
        reached_floor=reached_floor,
        g_integrable=g_integrable,
        doubling_ok=doubling_ok,
        doubling_worst=doubling_worst,
        meta={"c1": c1, "t_floor": t_floor, "guard": guard},
    )

