"""Command line front end.  Its config reference, one line per config
object (* marks a required key; a kind or mode picks the keys after it;
any other key is an error; the key tables, such as SOLVE_DOC, give types,
defaults and ranges):

  modulus doc  schema*, modulus*, c_m
  solve doc    schema*, grid*, boundary*, field (identity), profile, seed
  grid         n_r*, n_theta*, r_min
  profile      r_lo, r_hi
  sweep doc    schema*, sweep* (experiment entries)
  experiment   (a doc adds schema*) scenario*, field_spec, boundary_spec,
               pair_spec, potential_spec, n_r, n_theta, r_min, radii,
               t_floor, n0, c1, a_log, p, gamma, eps, delta, seed
  field        kind*: identity; constant: value; diagonal: entries*;
               affine: value, gradient*; holder: alpha*, amplitude*, seed;
               cusp: modulus*, amplitude*, isotropic; bump: eps*, r_in*
  modulus      kind*: linear; power: alpha*; log_power: p*; tabulated: t*,
               omega*
  boundary     kind*: constant: value; harmonic: degree*; mixture: terms*
               ([degree, weight] pairs); fourier: modes (seeded)
  potential    (schroedinger only) kind*: constant: value
  pair         (stability only) mode*: same; scaled: eps; bump: eps, r_in

Exit codes: 0 success (branch verdicts too), 1 scenario failure, 2 usage
or configuration error, 3 solver failure.  A scenario that cannot run
writes ``<stem>.error.json`` with its status: ``regime_error`` (exit 1),
``field_error`` (a field_spec that fails its check or cannot be built),
``scenario_error`` (another spec that fails, or a run that cannot be
evaluated; both exit 2) or ``solver_error`` (exit 3).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .coefficients import FieldError
from .experiments import (
    RegimeError,
    ScenarioConfig,
    ScenarioError,
    Verdict,
    default_config,
    default_sweep,
    run_scenario,
)
from .experiments.base import (MODULUS_KINDS, build_boundary, build_field,
                               build_modulus)
from .frequency import almgren_frequency
from .io import (
    REQUIRED,
    SCHEMA_VERSION,
    ConfigError,
    atomic_write_text,
    check_config,
    config_hash,
    load_config,
    write_csv,
    write_grid,
    write_json,
)
from .modulus import (
    check_phi_integrable,
    check_submultiplicative_psi,
    classify_osgood,
)
from .solver import PolarGrid, SolverError, solve_dirichlet
from .svg import render_line_plot, render_margin_plot

__all__ = ["MODULUS_DOC", "SOLVE_DOC", "SWEEP_DOC", "main"]

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3

# the command documents (see freqlab.io.check_config); an experiment
# document is one experiments.SCENARIO_KEYS entry plus its schema
MODULUS_DOC = {"schema": ("int", REQUIRED),
               "modulus": (MODULUS_KINDS, REQUIRED),
               "c_m": ("float", 100.0, "(0, inf)")}
SOLVE_DOC = {
    "schema": ("int", REQUIRED),
    "grid": ({"n_r": ("int", REQUIRED, "[2, inf)"),
              "n_theta": ("int", REQUIRED, "[8, inf)"),
              "r_min": ("float?", None, "(0, 1)")}, REQUIRED),
    "boundary": ("object", REQUIRED),
    "field": ("object", {"kind": "identity"}),
    "profile": ({"r_lo": ("float", 0.2), "r_hi": ("float", 0.9)}, {}),
    "seed": ("int", 0, "[0, inf)"),
}
SWEEP_DOC = {"schema": ("int", REQUIRED), "sweep": ("objects", REQUIRED)}

# branch verdicts count as success: the run established that the
# estimate's hypotheses do not apply, which is a reportable outcome
_PASSING = {
    Verdict.CONSISTENT,
    Verdict.ALTERNATIVE_ONE,
    Verdict.HYPOTHESIS_UNMET,
    Verdict.SKIPPED,
}


@dataclasses.dataclass
class RunManifest:
    """Index of one CLI invocation.  The data files it lists are
    byte-reproducible from (config, seed, version); the manifest itself
    records wall-clock time and is not."""

    command: str
    config_hash: str
    seed: int
    resolutions: list
    outputs: list
    version: str
    wall_clock_s: float

    def write(self, out_dir: str) -> str:
        return write_json(os.path.join(out_dir, "manifest.json"), self)


def _parse_resolution(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            "resolution must be N_r,N_theta (for example 65,128)")
    try:
        n_r, n_theta = int(parts[0]), int(parts[1])
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return n_r, n_theta


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqlab",
        description="frequency-function laboratory for divergence-form "
                    "elliptic equations")
    parser.add_argument("--version", action="version",
                        version=f"freqlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="out", metavar="DIR",
                     help="output directory (default: out)")
    grid = argparse.ArgumentParser(add_help=False, parents=[out])
    grid.add_argument("--seed", type=int, default=None, metavar="K",
                      help="override the config seed")
    grid.add_argument("--resolution", type=_parse_resolution,
                      default=None, metavar="N_R,N_THETA",
                      help="override the grid resolution")
    grid.add_argument("--refine", action="store_true",
                      help="double the resolution and emit deltas")

    p_mod = sub.add_parser("modulus", parents=[out],
                           help="classify a modulus of continuity")
    p_mod.add_argument("--config", required=True, metavar="PATH")

    p_solve = sub.add_parser("solve", parents=[grid],
                             help="solve one Dirichlet problem")
    p_solve.add_argument("--config", required=True, metavar="PATH")

    p_exp = sub.add_parser("experiment", parents=[grid],
                           help="run scenarios or a sweep")
    p_exp.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                       help="registered scenario names; none runs the "
                            "default sweep")
    p_exp.add_argument("--config", default=None, metavar="PATH",
                       help="scenario or sweep manifest JSON")
    p_exp.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="parallel scenario jobs (default: 1)")
    return parser


# -- modulus ---------------------------------------------------------------


def cmd_modulus(args) -> int:
    t0 = time.monotonic()
    doc = load_config(args.config)
    cfg = check_config(doc, MODULUS_DOC)
    m = build_modulus(cfg["modulus"], "modulus", ConfigError)

    osgood = classify_osgood(m)
    integ = check_phi_integrable(m)
    sub = check_submultiplicative_psi(m, cfg["c_m"])
    report = {
        "schema": SCHEMA_VERSION,
        "modulus": m.to_config(),
        "verdict": osgood.value,
        "phi_integrable": {"finite": integ.finite, "value": integ.value},
        "psi_submultiplicative": {
            "holds": sub.holds,
            "constant": sub.constant,
            "worst_ratio": sub.worst_ratio,
            "worst_pair": sub.worst_pair,
        },
    }

    t = np.logspace(-6, 0, 121)
    omega = np.asarray(m.omega(t), dtype=float)
    phi = np.asarray(m.phi(t), dtype=float)
    os.makedirs(args.out, exist_ok=True)
    outputs = [
        write_json(os.path.join(args.out, "modulus_report.json"), report),
        write_csv(os.path.join(args.out, "modulus_table.csv"),
                  ["t", "omega", "phi"],
                  zip(t, omega, phi)),
        atomic_write_text(
            os.path.join(args.out, "modulus.svg"),
            render_line_plot(
                [("omega(t)", t, omega), ("phi(t)", t, phi)],
                title=f"modulus {m.kind}: {osgood.value}",
                x_label="t", y_label="value")),
    ]
    RunManifest("modulus", config_hash(doc), 0,
                [], _relative(outputs, args.out), __version__,
                time.monotonic() - t0).write(args.out)
    print(f"modulus verdict: {osgood.value}")
    return EXIT_OK


def _relative(paths, root):
    return [os.path.relpath(p, root) for p in paths]


# -- solve -----------------------------------------------------------------


def cmd_solve(args) -> int:
    t0 = time.monotonic()
    doc = load_config(args.config)
    override = {} if args.seed is None else {"seed": args.seed}
    cfg = check_config({**doc, **override}, SOLVE_DOC)
    r_lo, r_hi = float(cfg["profile"]["r_lo"]), float(cfg["profile"]["r_hi"])
    if not 0.0 < r_lo < r_hi <= 1.0:
        raise ConfigError(f"profile window [{r_lo}, {r_hi}] is invalid")
    grid = cfg["grid"]
    n_r, n_theta = args.resolution or (grid["n_r"], grid["n_theta"])
    sizes = [(n_r, n_theta)]
    if args.refine:
        sizes.append((2 * (n_r - 1) + 1, 2 * n_theta))
    try:
        grids = [PolarGrid.disk(*size, r_min=grid["r_min"]) for size in sizes]
    except ValueError as err:  # too few nodes, or more than the limit
        raise ConfigError(f"grid: {err}") from None
    f = build_field(cfg["field"], "field")
    data = build_boundary(cfg["boundary"], cfg["seed"], "boundary")

    os.makedirs(args.out, exist_ok=True)
    outputs = []

    def one_solve(tag: str, grid: PolarGrid):
        u = solve_dirichlet(f, 1.0, data, grid)
        radii = grid.radii[(grid.radii >= r_lo) & (grid.radii <= r_hi)]
        prof = almgren_frequency(u, f, radii=radii)
        order = np.argsort(prof.radii)
        outputs.append(write_grid(
            os.path.join(args.out, f"solution{tag}.grid"), u))
        outputs.append(write_csv(
            os.path.join(args.out, f"profile{tag}.csv"),
            ["r", "D", "H", "N"],
            zip(prof.radii[order], prof.D[order], prof.H[order],
                prof.N[order])))
        outputs.append(atomic_write_text(
            os.path.join(args.out, f"profile{tag}.svg"),
            render_line_plot(
                [("N(r)", prof.radii[order], prof.N[order])],
                title=f"frequency profile ({grid.n_r}x{grid.n_theta})",
                x_label="r", y_label="N")))
        return u, prof.radii[order], prof.N[order]

    u, base_r, base_n = one_solve("", grids[0])
    report = {
        "schema": SCHEMA_VERSION,
        "residual_norm": u.residual_norm,
        "iterations": u.iterations,
        "grid": {"n_r": n_r, "n_theta": n_theta},
        "profile_window": [r_lo, r_hi],
    }
    if args.refine:
        _, fine_r, fine_n = one_solve("_refined", grids[1])
        deltas = np.interp(base_r, fine_r, fine_n) - base_n
        report["refinement"] = {
            "max_abs_delta_N": np.max(np.abs(deltas)),
            "deltas": deltas,
        }

    outputs.append(write_json(os.path.join(args.out, "solve_report.json"),
                              report))
    RunManifest("solve", config_hash(doc), cfg["seed"],
                [[g.n_r, g.n_theta] for g in grids],
                _relative(outputs, args.out), __version__,
                time.monotonic() - t0).write(args.out)
    print(f"solved {n_r}x{n_theta}; N({base_r[-1]:.3g}) = {base_n[-1]:.6g}")
    return EXIT_OK


# -- experiment ------------------------------------------------------------


def _experiment_configs(args) -> list:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.resolution is not None:
        overrides["n_r"], overrides["n_theta"] = args.resolution

    if args.config is not None and args.scenarios:
        raise ConfigError(
            "give either scenario names or --config, not both")
    if args.config is not None:
        doc = load_config(args.config)
        if "sweep" in doc:
            entries = check_config(doc, SWEEP_DOC)["sweep"]
            paths = [f"sweep[{i}]" for i in range(len(entries))]
        else:
            entries = [{k: v for k, v in doc.items() if k != "schema"}]
            paths = [""]
        configs = []
        for path, entry in zip(paths, entries):
            base = (default_config(entry["scenario"]).to_dict()
                    if "scenario" in entry else {})
            configs.append(ScenarioConfig.from_dict(
                {**base, **entry, **overrides}, path))
        return configs
    if args.scenarios:
        return [default_config(name, **overrides)
                for name in args.scenarios]
    return default_sweep(**overrides)


def _run_one(cfg: ScenarioConfig) -> dict:
    try:
        report = run_scenario(cfg)
    except RegimeError as err:
        return {"scenario": cfg.scenario, "status": "regime_error",
                "message": str(err), "max_radius": err.max_radius}
    except (OverflowError, ScenarioError) as err:  # e.g. a huge int as eps
        return {"scenario": cfg.scenario, "status": "scenario_error",
                "message": str(err)}
    except SolverError as err:
        return {"scenario": cfg.scenario, "status": "solver_error",
                "message": str(err)}
    except FieldError as err:
        return {"scenario": cfg.scenario, "status": "field_error",
                "message": str(err)}
    return {"scenario": cfg.scenario, "status": "report", "report": report}


def cmd_experiment(args) -> int:
    t0 = time.monotonic()
    configs = _experiment_configs(args)
    if args.refine:
        configs = [dataclasses.replace(c, n_r=2 * (c.n_r - 1) + 1,
                                       n_theta=2 * c.n_theta)
                   for c in configs]

    jobs = max(1, args.jobs)
    if jobs == 1:
        outcomes = [_run_one(c) for c in configs]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_one, configs))

    os.makedirs(args.out, exist_ok=True)
    outputs = []
    summary_rows = []
    summary = {"schema": SCHEMA_VERSION, "scenarios": []}
    seen: dict = {}
    exit_code = EXIT_OK
    for cfg, outcome in zip(configs, outcomes):
        name = cfg.scenario
        seen[name] = seen.get(name, 0) + 1
        stem = name if seen[name] == 1 else f"{name}-{seen[name]}"
        if outcome["status"] == "report":
            report = outcome["report"]
            outputs.append(write_json(
                os.path.join(args.out, f"{stem}.report.json"),
                dict(vars(report), schema=SCHEMA_VERSION,
                     config=cfg.to_dict())))
            outputs.append(write_csv(
                os.path.join(args.out, f"{stem}.margins.csv"),
                ["name", "radius", "lhs", "rhs", "margin",
                 "refined_margin"],
                [(m.name, m.radius, m.lhs, m.rhs, m.margin,
                  m.refined_margin) for m in report.margins]))
            outputs.append(atomic_write_text(
                os.path.join(args.out, f"{stem}.margins.svg"),
                render_margin_plot(report)))
            verdict = report.verdict.value
            fitted = {k: v.value for k, v in report.fitted.items()}
            if report.verdict not in _PASSING:
                exit_code = max(exit_code, EXIT_FAILED)
            worst = min((m.margin for m in report.margins), default=0.0)
            summary_rows.append(
                (name, verdict, len(report.margins), worst,
                 len(report.violations)))
            summary["scenarios"].append({
                "scenario": name, "verdict": verdict,
                "fitted_constants": fitted,
                "violations": report.violations,
                "warnings": report.warnings,
            })
            line = f"{name:14s} {verdict}"
            if report.violations:
                line += f"  ({len(report.violations)} violations)"
            print(line)
        else:
            outputs.append(write_json(
                os.path.join(args.out, f"{stem}.error.json"),
                {"schema": SCHEMA_VERSION, **outcome}))
            summary_rows.append(
                (name, outcome["status"], 0, 0.0, 1))
            summary["scenarios"].append(outcome)
            print(f"{name:14s} {outcome['status']}: {outcome['message']}",
                  file=sys.stderr)
            if outcome["status"] == "solver_error":
                exit_code = max(exit_code, EXIT_SOLVER)
            elif outcome["status"] in ("scenario_error", "field_error"):
                exit_code = max(exit_code, EXIT_USAGE)
            else:
                exit_code = max(exit_code, EXIT_FAILED)

    outputs.append(write_json(
        os.path.join(args.out, "sweep_summary.json"), summary))
    outputs.append(write_csv(
        os.path.join(args.out, "sweep_summary.csv"),
        ["scenario", "verdict", "rows", "worst_margin", "violations"],
        summary_rows))
    RunManifest(
        "experiment",
        config_hash([c.to_dict() for c in configs]),
        args.seed if args.seed is not None else 0,
        sorted({(c.n_r, c.n_theta) for c in configs}),
        _relative(outputs, args.out), __version__,
        time.monotonic() - t0).write(args.out)
    return exit_code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        if args.command == "modulus":
            return cmd_modulus(args)
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_experiment(args)
    except (ConfigError, FieldError, ScenarioError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
