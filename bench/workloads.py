"""The benchmark's workloads: CLI inputs made from a seed, and the checks
on the outputs of one CLI run.

An operation is one scenario run.  It fails when the CLI exits
non-zero, writes ``<op>.error.json``, or disagrees with
``reference.json``.  The
reference applies at DEFAULT_SEED, and at every seed for a workload
whose inputs do not depend on the seed.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
# What reading a missing, truncated or malformed output file raises.
UNREADABLE = (OSError, KeyError, TypeError, ValueError, AttributeError)
# Offset between the Hölder-field seeds of consecutive workload seeds.
SEED_STRIDE = 1000

SWEEP9 = ("freq_cascade", "eps_approx", "tildeN", "thin_annulus",
          "key_approx", "dichot3", "iso_cascade", "schroedinger",
          "stability")
# Every scenario a workload runs; each gets an ``experiments.<name>.s``.
SCENARIOS = SWEEP9 + ("approx_v",)


def _template(name: str) -> dict:
    with open(os.path.join(HERE, name), encoding="utf-8") as handle:
        return json.load(handle)


def _write_json(doc: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
    return path


def sweep9_args(seed: int, work: str) -> list:
    """The default sweep minus its two mollified scenarios, from a sweep
    manifest whose Hölder fields are reseeded by the workload seed."""
    manifest = _template("sweep9.json")
    for entry in manifest["sweep"]:
        spec = entry.get("field_spec")
        if spec is not None and "seed" in spec:
            spec["seed"] += SEED_STRIDE * seed
    path = _write_json(manifest, os.path.join(work, "sweep9.json"))
    return ["experiment", "--config", path, "--jobs", "1"]


def approx_v_args(seed: int, work: str) -> list:
    """approx_v has no random input, so the seed does not change it."""
    return ["experiment", "approx_v", "--resolution", "33,64"]


class Workload:
    def __init__(self, name: str, make_args, ops: tuple, seeded: bool):
        self.name = name
        self.make_args = make_args
        self.ops = ops
        self.seeded = seeded

    def uses_reference(self, seed: int) -> bool:
        return seed == DEFAULT_SEED or not self.seeded


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep9", sweep9_args, SWEEP9, seeded=True),
        Workload("approx_v_33x64", approx_v_args, ("approx_v",),
                 seeded=False),
    )
}


# -- output checks ---------------------------------------------------------


def extract(workload: Workload, out: str) -> dict:
    """The outputs the reference pins, per operation: each scenario's
    verdict and fitted constants (base and refined value)."""
    got = {}
    for op in workload.ops:
        try:
            got[op] = _report(out, op)
        except UNREADABLE:
            pass  # left out of ``got``, so the reference check fails it
    return got


def _report(out: str, op: str) -> dict:
    with open(os.path.join(out, f"{op}.report.json"),
              encoding="utf-8") as handle:
        report = json.load(handle)
    return {"verdict": report["verdict"],
            "fitted": {name: [fit["value"], fit["refined_value"]]
                       for name, fit in report["fitted"].items()}}


def matches(got, want, rtol: float, atol: float) -> bool:
    """Strings and structure exactly, numbers within atol + rtol*|want|."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(matches(got[k], want[k], rtol, atol) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(matches(g, w, rtol, atol) for g, w in zip(got, want)))
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        return (isinstance(got, (int, float))
                and abs(got - want) <= atol + rtol * abs(want))
    return got == want


def failed_ops(workload: Workload, out: str, code: int, seed: int,
               reference: dict) -> set:
    """Operations of one CLI run that failed."""
    if code != 0:
        return set(workload.ops)
    failed = {op for op in workload.ops
              if os.path.exists(os.path.join(out, f"{op}.error.json"))}
    if workload.uses_reference(seed):
        got = extract(workload, out)
        want = reference["workloads"][workload.name]
        failed.update(op for op in workload.ops
                      if not matches(got.get(op), want.get(op),
                                     reference["rtol"], reference["atol"]))
    return failed


def _listing(path: str) -> set:
    return set(os.listdir(path)) if os.path.isdir(path) else set()


def differing_ops(workload: Workload, out_a: str, out_b: str) -> set:
    """Operations whose output files differ in any byte between two runs;
    ``manifest.json`` records wall time and may differ.  A file that
    belongs to no single operation fails every operation."""
    names = (_listing(out_a) | _listing(out_b)) - {"manifest.json"}
    failed = set()
    for name in sorted(names):
        try:
            with open(os.path.join(out_a, name), "rb") as a, \
                    open(os.path.join(out_b, name), "rb") as b:
                same = a.read() == b.read()
        except OSError:
            same = False
        if not same:
            owners = {op for op in workload.ops
                      if name.startswith(op + ".")}
            failed |= owners or set(workload.ops)
    return failed


def update_reference(workload: Workload, out: str) -> dict:
    """Pin ``out``'s outputs as the reference of ``workload``."""
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    got = extract(workload, out)
    if got.keys() != set(workload.ops):
        raise ValueError(f"unreadable outputs in {out}: "
                         f"{sorted(set(workload.ops) - got.keys())}")
    reference["workloads"][workload.name] = got
    _write_json(reference, REFERENCE)
    return reference
