"""Shared scenario plumbing: configs, margins, verdicts, report assembly.

A scenario instantiates one growth or approximation estimate as a
runnable check.  Every inequality is rearranged to expose the smallest
constant making it hold; margins are evaluated with the configured
constant and re-evaluated at double resolution, and a scenario is
Consistent only when all margins hold and the fitted constants are
stable under refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from ..coefficients import (
    Arity,
    CoefficientField,
    FieldError,
    empirical_modulus,
    generate_holder,
)
from ..frequency import almgren_frequency
from ..io import REQUIRED, ConfigError, check_config
from ..modulus import Modulus
from ..solver import (
    MAX_GRID_NODES,
    DiscreteSolution,
    PolarGrid,
    boundary_mass,
    boundary_mass_scalar,
    solve_dirichlet,
)

__all__ = [
    "ExperimentReport",
    "FittedConstant",
    "MarginRow",
    "RegimeError",
    "ScenarioConfig",
    "ScenarioError",
    "Verdict",
    "build_boundary",
    "build_field",
    "field_modulus",
]

UNIT_WEIGHT = CoefficientField.constant(1.0)

# discretization noise allowance, relative to a row's magnitude; rows
# further off than GROSS_FRACTION of their scale are no longer marginal
REL_TOL = 5e-3
GROSS_FRACTION = 0.10
STABILITY_LIMIT = 0.25
# fitted constants below this magnitude are treated as zero when
# judging refinement stability
FIT_FLOOR = 1e-2


class ScenarioError(RuntimeError):
    """A scenario could not be evaluated as configured."""


class RegimeError(ScenarioError):
    """The configured radius lies outside the admissible regime."""

    def __init__(self, message: str, max_radius: float) -> None:
        super().__init__(message)
        self.max_radius = float(max_radius)


class Verdict(Enum):
    CONSISTENT = "Consistent"
    MARGINAL_VIOLATIONS = "MarginalViolations"
    INCONSISTENT = "Inconsistent"
    ALTERNATIVE_ONE = "AlternativeOne"
    HYPOTHESIS_UNMET = "HypothesisUnmet"
    SKIPPED = "Skipped"


# a scenario run's key tables (see freqlab.io.check_config); its scalars
# stay exact, as its report echoes them, so one past the float range fails
# when the run uses it; each spec is checked where it is built, by a
# builder that also checks the ranges its table leaves out
SCENARIO_KEYS = {
    "scenario": ("str", REQUIRED),
    "field_spec": ("object", REQUIRED), "boundary_spec": ("object", REQUIRED),
    "pair_spec": ("object?", None), "potential_spec": ("object?", None),
    "n_r": ("int", 65, "[9, inf)"), "n_theta": ("int", 128, "[16, inf)"),
    "r_min": ("float?", None, "(0, 1)"), "radii": ("floats", (0.9,), "(0, 1)"),
    "t_floor": ("number", 0.02, "(0, 1)"), "n0": ("number", 2.0, "(0, inf)"),
    "c1": ("number", 4.0, "(0, inf)"), "a_log": ("number", 2.5, "(0, inf)"),
    "p": ("number", 4.0, "[4, inf)"), "gamma": ("number", 0.75, "(0, 1)"),
    "eps": ("number", 0.05, "[0, inf)"), "delta": ("number", 0.0, "[0, inf)"),
    "seed": ("int", 0, "[0, inf)"),
}
MODULUS_KINDS = {"kind": {
    "linear": {}, "power": {"alpha": ("float", REQUIRED)},
    "log_power": {"p": ("float", REQUIRED)},
    "tabulated": {"t": ("floats", REQUIRED), "omega": ("floats", REQUIRED)},
}}
FIELD_KINDS = {"kind": {
    "identity": {}, "constant": {"value": ("float", 1.0)},
    "diagonal": {"entries": ("floats", REQUIRED)},
    "affine": {"value": ("float", 1.0), "gradient": ("floats", REQUIRED)},
    "holder": {"alpha": ("float", REQUIRED), "amplitude": ("float", REQUIRED),
               "seed": ("int", 0, "[0, inf)")},
    "cusp": {"modulus": (MODULUS_KINDS, REQUIRED),
             "amplitude": ("float", REQUIRED), "isotropic": ("bool", False)},
    "bump": {"eps": ("float", REQUIRED), "r_in": ("float", REQUIRED)},
}}
# harmonic degrees and fourier mode counts: a ring of n_theta nodes resolves
# degrees below n_theta / 2, and no grid has over MAX_GRID_NODES / 2 angles
DEGREES = f"[{-MAX_GRID_NODES // 4}, {MAX_GRID_NODES // 4}]"
BOUNDARY_KINDS = {"kind": {
    "constant": {"value": ("float", 1.0)},
    "harmonic": {"degree": ("int", REQUIRED, DEGREES)},
    "mixture": {"terms": ("terms", REQUIRED)},
    "fourier": {"modes": ("int", 8, f"[0, {MAX_GRID_NODES // 4}]")},
}}
# a null pair_spec is the bump mode, a null pair eps the config's eps, and
# a null potential_spec V = 0
PAIR_MODES = {"mode": {
    "same": {}, "scaled": {"eps": ("float", None, "(-1, inf)")},
    "bump": {"eps": ("float", None, "(-1, inf)"),
             "r_in": ("float", 0.5, "(0, 1)")},
}}
POTENTIAL_KINDS = {"kind": {"constant": {"value": ("float", 0.0)}}}


@dataclass(frozen=True)
class ScenarioConfig:
    """Immutable description of one scenario run: a field for each key of
    ``SCENARIO_KEYS``, in its order.  Build it with ``from_dict``, which
    checks it against that table."""

    __annotations__ = dict.fromkeys(SCENARIO_KEYS, object)

    def __post_init__(self) -> None:
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if any(a <= b for a, b in zip(self.radii, self.radii[1:])):
            raise ConfigError("radius schedule must be strictly decreasing")
        # every run also solves on the refined grid
        fine_r, fine_theta = 2 * (self.n_r - 1) + 1, 2 * self.n_theta
        if fine_r * fine_theta > MAX_GRID_NODES:
            raise ConfigError(
                f"grid resolution {self.n_r} x {self.n_theta} too large: its "
                f"refinement {fine_r} x {fine_theta} exceeds the limit of "
                f"{MAX_GRID_NODES} ring nodes")

    def smallness_warnings(self) -> list:
        out = []
        if self.eps > 0.1:
            out.append(f"eps={self.eps:g} is outside the smallness regime "
                       "(expected <= 0.1)")
        if self.delta > 0.1:
            out.append(f"delta={self.delta:g} is outside the smallness "
                       "regime (expected <= 0.1)")
        if self.gamma <= self.c1 * self.eps:
            out.append(f"gamma={self.gamma:g} does not dominate "
                       f"c1*eps={self.c1 * self.eps:g}")
        if self.n0 < 2.0:
            out.append(f"n0={self.n0:g} is below the large-constant regime")
        return out

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dc_fields(self)}
        for name, value in out.items():
            if isinstance(value, dict):
                out[name] = dict(value)
        out["radii"] = list(self.radii)
        return out

    @classmethod
    def from_dict(cls, data: dict, path: str = "") -> "ScenarioConfig":
        """``data`` checked against ``SCENARIO_KEYS``; raises ConfigError."""
        return cls(**check_config(data, SCENARIO_KEYS, path))


@dataclass(frozen=True)
class MarginRow:
    """One inequality sample: pass means lhs <= rhs (margin >= 0)."""

    name: str
    radius: float
    lhs: float
    rhs: float
    margin: float
    refined_margin: float


@dataclass(frozen=True)
class FittedConstant:
    """Smallest constant making an estimate hold, at two resolutions."""

    name: str
    value: float
    refined_value: float
    rel_delta: float = dc_field(init=False)

    def __post_init__(self) -> None:
        scale = max(abs(self.value), abs(self.refined_value))
        object.__setattr__(
            self, "rel_delta", 0.0 if scale <= FIT_FLOOR
            else abs(self.refined_value - self.value) / scale)


@dataclass
class ExperimentReport:
    scenario: str
    verdict: Verdict
    margins: list
    fitted: dict
    violations: list
    meta: dict
    warnings: list


# -- field and boundary-data builders --------------------------------------


def build_field(spec: dict, path: str = "field_spec") -> CoefficientField:
    """Coefficient field from a config object checked against
    ``FIELD_KINDS``; raises FieldError for one that fails the check or
    cannot be built, such as a Holder amplitude past the ellipticity
    budget."""
    return _field_from_spec(check_config(spec, FIELD_KINDS, path, FieldError),
                            path)


def _field_from_spec(spec: dict, path: str) -> CoefficientField:
    kind = spec["kind"]
    if kind == "identity":
        return CoefficientField.identity()
    if kind == "constant":
        return CoefficientField.constant(spec["value"])
    if kind == "diagonal":
        return CoefficientField.diagonal(spec["entries"])
    if kind == "affine":
        return CoefficientField.affine(spec["value"], spec["gradient"])
    if kind == "holder":
        return generate_holder(spec["alpha"], spec["amplitude"], spec["seed"])
    if kind == "cusp":
        m = build_modulus(spec["modulus"], f"{path}.modulus", FieldError)
        if spec["isotropic"]:
            return CoefficientField.cusp_isotropic(m, spec["amplitude"])
        return CoefficientField.cusp_anisotropic(m, spec["amplitude"])
    return CoefficientField.annulus_bump(spec["eps"], spec["r_in"])


def build_modulus(spec: dict, path: str, error: type) -> Modulus:
    """``Modulus.from_config`` of a checked config object; raises
    ``error`` for one that names no modulus, such as a log_power p that
    leaves omega(t_cut) zero or infinite."""
    try:
        return Modulus.from_config(spec)
    except ValueError as err:
        raise error(f"{path}: {err}") from None


def build_boundary(spec: dict, seed: int,
                   path: str = "boundary_spec") -> Callable:
    """Boundary-data callable on point batches, from a config object
    checked against ``BOUNDARY_KINDS``; raises ScenarioError for one that
    fails the check.  ``seed`` draws the fourier kind's coefficients."""
    spec = check_config(spec, BOUNDARY_KINDS, path, ScenarioError)
    kind = spec["kind"]
    if kind == "constant":
        value = float(spec["value"])

        def g_const(pts):
            return np.full(np.asarray(pts).shape[0], value)
        return g_const
    if kind == "harmonic":
        degree = spec["degree"]

        def g_harm(pts):
            pts = np.asarray(pts, dtype=float)
            z = pts[..., 0] + 1j * pts[..., 1]
            return np.real(z ** degree)
        return g_harm
    if kind == "mixture":
        for i, (k, _) in enumerate(spec["terms"]):
            check_config({"degree": k}, BOUNDARY_KINDS["kind"]["harmonic"],
                         f"{path}.terms[{i}]", ScenarioError)
        terms = [(k, float(w)) for k, w in spec["terms"]]

        def g_mix(pts):
            pts = np.asarray(pts, dtype=float)
            z = pts[..., 0] + 1j * pts[..., 1]
            out = np.zeros(pts.shape[:-1])
            for k, w in terms:
                out += w * np.real(z ** k)
            return out
        return g_mix
    modes = spec["modes"]
    rng = np.random.default_rng(seed)
    cs = rng.normal(size=modes) / (1.0 + np.arange(modes))
    sn = rng.normal(size=modes) / (1.0 + np.arange(modes))

    def g_fourier(pts):
        pts = np.asarray(pts, dtype=float)
        th = np.arctan2(pts[..., 1], pts[..., 0])
        rr = np.hypot(pts[..., 0], pts[..., 1])
        out = np.zeros(pts.shape[:-1])
        for k in range(modes):
            out += rr ** (k + 1) * (cs[k] * np.cos((k + 1) * th)
                                    + sn[k] * np.sin((k + 1) * th))
        return out
    return g_fourier


def field_modulus(f: CoefficientField) -> Modulus:
    """Field's continuity gauge: declared, else a power law from the
    Hölder certificate, else the linear fallback."""
    if f.declared_modulus is not None:
        return f.declared_modulus
    if f.holder is not None:
        return Modulus.power(float(f.holder[0]))
    return Modulus.linear()


def certify_holder(f: CoefficientField) -> Optional[str]:
    """Empirical certificate that a declared Hölder exponent is honest;
    returns a complaint string when the measured exponent falls short."""
    if f.holder is None:
        return None
    em = empirical_modulus(f, 256)
    if em.modulus is None:
        return None
    declared = float(f.holder[0])
    if em.alpha_hat < declared - 0.2:
        return (f"declared Hölder exponent {declared:.3g} not certified "
                f"empirically (measured {em.alpha_hat:.3g})")
    return None


def _polar_sample(seed: int, r_lo: float, r_hi: float) -> np.ndarray:
    """256 points: angles, then radii in (max(r_lo, 1e-3), r_hi)."""
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.0, 2.0 * math.pi, size=256)
    rr = rng.uniform(max(r_lo, 1e-3), r_hi, size=256)
    return np.column_stack([rr * np.cos(th), rr * np.sin(th)])


def measured_eps(f: CoefficientField, seed: int = 0x5EED,
                 r_lo: float = 0.0) -> float:
    """Measured sup |a - 1| (isotropic) or sup |A - I| (matrix) on
    sampled points with |x| in (r_lo, 1)."""
    pts = _polar_sample(seed, r_lo, 1.0)
    if f.arity is Arity.ISOTROPIC:
        return float(np.max(np.abs(f.evaluate(pts) - 1.0)))
    mats = f.matrices(pts)
    return float(np.max(np.abs(mats - np.eye(2))))


def field_gap(f0: CoefficientField, f1: CoefficientField, r_lo: float,
              seed: int = 0xD1FF) -> float:
    """Measured sup |A_0 - A_1| on sampled points with |x| in (r_lo, 1)."""
    pts = _polar_sample(seed, r_lo, 0.999)
    return float(np.max(np.abs(f0.matrices(pts) - f1.matrices(pts))))


# -- grid-independent setup -----------------------------------------------


def prepare_field(cfg: ScenarioConfig) -> CoefficientField:
    return build_field(cfg.field_spec)


def prepare_isotropic(cfg: ScenarioConfig):
    """The configured field, which must be isotropic, or a branch when
    its declared Hölder exponent is not certified."""
    f = build_field(cfg.field_spec)
    if f.arity is not Arity.ISOTROPIC:
        raise ScenarioError(
            f"scenario {cfg.scenario!r} requires an isotropic field")
    complaint = certify_holder(f)
    if complaint is not None:
        return Branch(Verdict.HYPOTHESIS_UNMET, complaint)
    return f


# -- solving helpers -------------------------------------------------------


def scenario_grid(cfg: ScenarioConfig) -> PolarGrid:
    return PolarGrid.disk(cfg.n_r, cfg.n_theta, radius=1.0, r_min=cfg.r_min)


def snap(grid: PolarGrid, r: float) -> float:
    return float(grid.radii[grid.nearest_ring(float(r))])


def solve_normalized(f: CoefficientField, grid: PolarGrid, data,
                     top: float, potential=None) -> DiscreteSolution:
    """Solve and rescale so the boundary mean of u^2 at the top radius
    is 1; margins and fitted constants then do not depend on the scale
    of the boundary data."""
    u = solve_dirichlet(f, float(grid.r_out), data, grid,
                        potential=potential)
    ring = u.ring_values(u.grid.nearest_ring(top))
    mean_sq = float(np.mean(ring ** 2))
    if mean_sq <= 0.0:
        raise ScenarioError("boundary data vanishes at the top radius")
    return u.scaled(math.sqrt(mean_sq))


def solve_top(cfg: ScenarioConfig, grid: PolarGrid, f: CoefficientField,
              data) -> tuple:
    """Solve on grid, normalized at the configured top radius snapped to
    a ring; returns (r, u, N(r))."""
    r = snap(grid, cfg.radii[0])
    u = solve_normalized(f, grid, data, r)
    return r, u, frequency_at(u, f, r)


def subsolution(u: DiscreteSolution, f2: CoefficientField, r: float,
                potential=None):
    """Solve with coefficient f2 on the sub-disk of radius r using u's
    trace there; returns (v, v - u restricted to the sub-disk)."""
    grid = u.grid
    i = grid.nearest_ring(r)
    if grid.on_ring(r) is None:
        raise ScenarioError(f"comparison radius {r:.6g} is not a grid ring")
    nt = grid.n_theta
    sub = PolarGrid(grid.radii[:i + 1], nt)
    v = solve_dirichlet(f2, float(sub.r_out), u.ring_values(i), sub,
                        potential=potential)
    mask = np.concatenate([np.arange((i + 1) * nt),
                           [grid.node_count - 1]])
    return v, v.values - u.values[mask]


def ring_mean_sq(u: DiscreteSolution, ring: int,
                 values: Optional[np.ndarray] = None) -> float:
    nt = u.grid.n_theta
    vals = u.values if values is None else values
    return float(np.mean(vals[ring * nt:(ring + 1) * nt] ** 2))


def frequency_at(u: DiscreteSolution, f: CoefficientField,
                 r: float) -> float:
    return float(almgren_frequency(u, f, [float(r)]).N[0])


def profile_between(u: DiscreteSolution, f: CoefficientField,
                    grid: PolarGrid, lo: float, hi: float):
    """Frequency profile on the grid rings within [lo, hi]."""
    mask = (grid.radii >= lo * 0.999) & (grid.radii <= hi * 1.001)
    return almgren_frequency(u, f, radii=grid.radii[mask])


def ring_weighted_mean(u: DiscreteSolution, abar: CoefficientField,
                       r: float) -> float:
    """Mean of abar * u^2 over the circle of radius r."""
    return float(boundary_mass_scalar(u, abar, r)) / (2.0 * math.pi)


def doubling_ratio(u: DiscreteSolution, f: CoefficientField,
                   r_hi: float, r_lo: float) -> float:
    """log2 of the boundary-mass ratio per octave of radius; snapped
    ring pairs rarely sit exactly a factor two apart, so the raw log2
    ratio must be normalized by the actual gap."""
    num = math.log2(boundary_mass(u, f, r_hi) / boundary_mass(u, f, r_lo))
    return num / math.log2(r_hi / r_lo)


def sup_gradient(u: DiscreteSolution) -> float:
    """Max nodal gradient magnitude via finite differences on the
    logical (log r, theta) grid."""
    vals = u.node_grid()
    rr = u.grid.radii[:, None]
    dus = np.gradient(vals, u.grid.d_s, axis=0)
    dut = (np.roll(vals, -1, axis=1) - np.roll(vals, 1, axis=1)) \
        / (2.0 * u.grid.d_theta)
    mag = np.hypot(dus / rr, dut / rr)
    return float(mag.max())


# -- margins, fits and verdicts --------------------------------------------


@dataclass
class Evaluation:
    """Raw single-resolution output of a scenario computation."""

    rows: list = dc_field(default_factory=list)
    fits: dict = dc_field(default_factory=dict)
    meta: dict = dc_field(default_factory=dict)

    def add_row(self, name: str, radius: float, lhs: float,
                rhs: float) -> None:
        self.rows.append((name, float(radius), float(lhs), float(rhs)))


@dataclass
class Branch:
    """Early verdict taken before any margins exist."""

    verdict: Verdict
    reason: str
    meta: dict = dc_field(default_factory=dict)


def fit_ratio(deficit: float, scale_e: float,
              noise: float = REL_TOL) -> float:
    """Fitted constant for a deficit expected to be of size scale_e.
    The discretization allowance is deducted first so that zero-signal
    runs fit an exact zero instead of amplified rounding noise."""
    return max(0.0, deficit - noise) / max(scale_e, REL_TOL)


def pair_margins(base: Evaluation, fine: Evaluation) -> list:
    if len(base.rows) != len(fine.rows):
        raise ScenarioError(
            "refined run produced a different margin layout "
            f"({len(base.rows)} vs {len(fine.rows)} rows)")
    out = []
    for (name, radius, lhs, rhs), (fname, _, flhs, frhs) in zip(
            base.rows, fine.rows):
        if fname != name:
            raise ScenarioError(
                f"refined margin {fname!r} does not match {name!r}")
        out.append(MarginRow(name, radius, lhs, rhs, rhs - lhs,
                             frhs - flhs))
    return out


def pair_fits(base: Evaluation, fine: Evaluation) -> dict:
    if set(base.fits) != set(fine.fits):
        raise ScenarioError("refined run produced different fitted names")
    return {name: FittedConstant(name, float(base.fits[name]),
                                 float(fine.fits[name]))
            for name in base.fits}


def decide(margins: Sequence[MarginRow], fitted: dict):
    """Verdict from margins and fit stability.

    A row passes when its margin is no worse than REL_TOL times its own
    scale; failing rows within GROSS_FRACTION of scale are marginal,
    anything worse is inconsistent.  Fit drift beyond STABILITY_LIMIT
    demotes a Consistent run to MarginalViolations.
    """
    violations = []
    gross = False
    for row in margins:
        scale = max(abs(row.lhs), abs(row.rhs), 1e-12)
        if row.margin < -REL_TOL * scale:
            violations.append(
                f"{row.name} at r={row.radius:.4g}: margin "
                f"{row.margin:.3e} (scale {scale:.3e})")
            if row.margin < -GROSS_FRACTION * scale:
                gross = True
    unstable = [fc for fc in fitted.values()
                if fc.rel_delta > STABILITY_LIMIT]
    for fc in unstable:
        violations.append(
            f"fitted {fc.name} moved {100.0 * fc.rel_delta:.1f}% under "
            f"refinement ({fc.value:.4g} -> {fc.refined_value:.4g})")
    if gross:
        return Verdict.INCONSISTENT, violations
    if violations:
        return Verdict.MARGINAL_VIOLATIONS, violations
    return Verdict.CONSISTENT, violations


def paired_report(cfg: ScenarioConfig, prepare,
                  evaluate) -> ExperimentReport:
    """Run a scenario's grid-independent part once: prepare(cfg) builds
    its field and checks its hypotheses, then the boundary data are
    built.  Evaluate it at the configured resolution and at double
    resolution, pair margins and fits, and assemble the report."""
    warnings = cfg.smallness_warnings()
    grid = scenario_grid(cfg)
    setup = prepare(cfg)
    if isinstance(setup, Branch):
        base = setup
    else:
        data = build_boundary(cfg.boundary_spec, cfg.seed)
        base = evaluate(cfg, setup, data, grid)
    if isinstance(base, Branch):
        return ExperimentReport(cfg.scenario, base.verdict, [], {},
                                [base.reason], base.meta, warnings)
    fine = evaluate(cfg, setup, data, grid.refine())
    if isinstance(fine, Branch):
        return ExperimentReport(
            cfg.scenario, fine.verdict, [], {},
            [f"refined run branched: {fine.reason}"],
            {"base": base.meta, "refined": fine.meta}, warnings)
    margins = pair_margins(base, fine)
    fitted = pair_fits(base, fine)
    verdict, violations = decide(margins, fitted)
    meta = dict(base.meta)
    meta["refined"] = fine.meta
    return ExperimentReport(cfg.scenario, verdict, margins, fitted,
                            violations, meta, warnings)
