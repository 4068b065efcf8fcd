"""freqlab benchmark: drive the ``freqlab`` CLI as a user does and print
every metric by name and unit.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload NAME --write-reference

Run from the root of a checkout; the program is imported from its
``src``.  Each CLI run is a fresh process, so imports, the operator
cache and the kernel tables start cold.  A run of the benchmark starts
PROBES set-up-only processes, then runs the workload back to back until
the next run would end after ``--seconds`` (at least twice), checks
every run's outputs and that the runs wrote byte-identical files.

With ``--trace 0`` it reports the end-to-end metrics: the median wall
time, set-up time and peak RSS of the runs, and the share of operations
that passed.  With ``--trace 1`` one untraced and one traced run give
the per-layer metrics of ``tracing.LAYER_METRICS``.  The last line of
standard output is the result as JSON; the line before it records the
environment.  Work files go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracing
import workloads

LAUNCH = os.path.join("bench", "launch.py")
PROBES = 3
# Every run of the benchmark ends within this many seconds.
DEADLINE_S = 170.0
# A second BLAS/OpenMP thread bought no wall time on a 512x512 solve
# (12.2-14.1 s either way); one keeps each CLI run on one core of the
# shared host.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    """The caller's environment with the BLAS/OpenMP pools and the string
    hash seed pinned, and the program at its defaults.  sweep9's peak
    RSS depends on string hashes (808-869 MB over six hash seeds), so a
    random seed would bury the runs of one version in that band."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "FREQLAB_CACHE")}
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(work: str, tag: str, env: dict, cli_args: list, deadline: float,
          trace: bool = False) -> dict:
    """One launcher process; returns its wall time, peak RSS, exit code,
    set-up time and launcher result."""
    result_path = os.path.join(work, f"{tag}.json")
    out = os.path.join(work, tag)
    cmd = [sys.executable, LAUNCH, result_path]
    if trace:
        cmd += ["--trace", os.path.join(work, f"{tag}.spans.json")]
    if cli_args:
        cmd += ["--", *cli_args, "--out", out]
    with open(os.path.join(work, f"{tag}.log"), "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(1.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    try:
        with open(result_path, encoding="utf-8") as handle:
            info = json.load(handle)
    except (OSError, ValueError):
        info = {}
    setup = info["setup_mark"] - start if "setup_mark" in info else None
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": code,
            "setup_s": setup, "info": info, "out": out}


def environment(root: str, nproc: int, info: dict) -> dict:
    commit = "unknown"
    if os.path.exists(os.path.join(root, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    src_lines = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"),
                          recursive=True):
        with open(path, "rb") as handle:
            src_lines += handle.read().count(b"\n")
    return {"python": info.get("python"), "numpy": info.get("numpy"),
            "scipy": info.get("scipy"), "nproc": nproc, "commit": commit,
            "threads": {var: str(BLAS_THREADS) for var in THREAD_VARS},
            "src_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="pin one run's outputs at the default seed "
                             "as the workload's reference")
    args = parser.parse_args(argv)
    begun = time.monotonic()
    deadline = begun + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "freqlab", "cli.py")):
        print("bench: src/freqlab/cli.py not found; run from the root of a "
              "freqlab checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.DEFAULT_SEED if args.write_reference else args.seed
    # Relative, so the CLI gets the same path strings wherever the
    # checkout is: sweep9's peak RSS depends on string hashes.
    work = os.path.join(".bench_out", workload.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    cli_args = workload.make_args(seed, work)

    if args.write_reference:
        run = spawn(work, "run0", env, cli_args, deadline)
        if run["code"] != 0:
            print(f"bench: CLI exited {run['code']}; see {work}",
                  file=sys.stderr)
            return 1
        workloads.update_reference(workload, run["out"])
        print(f"bench: wrote the {workload.name} reference")
        return 0

    probes = [spawn(work, f"probe{i}", env, [], deadline)
              for i in range(PROBES)]
    runs = []
    measure_from = time.monotonic()
    while True:
        runs.append(spawn(work, f"run{len(runs)}", env, cli_args, deadline))
        elapsed = time.monotonic() - measure_from
        mean = elapsed / len(runs)
        if args.trace or (len(runs) >= 2 and elapsed + mean > args.seconds):
            break
    if args.trace:
        runs.append(spawn(work, "traced", env, cli_args, deadline,
                          trace=True))

    setups = [r["setup_s"] for r in probes + runs if r["setup_s"] is not None]
    if not setups:
        print(f"bench: no process finished set-up; see {work}",
              file=sys.stderr)
        return 1
    with open(workloads.REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    failed = 0
    for run in runs:
        bad = workloads.failed_ops(workload, run["out"], run["code"], seed,
                                   reference)
        if run is not runs[0]:
            bad |= workloads.differing_ops(workload, runs[0]["out"],
                                           run["out"])
        run["failed"] = sorted(bad)
        failed += len(bad)
    attempted = len(workload.ops) * len(runs)

    untraced = runs[:-1] if args.trace else runs
    unwrapped = None
    if args.trace:
        traced = runs[-1]
        unwrapped = traced["info"].get("unwrapped", [])
        if unwrapped:
            print("bench: could not wrap " + ", ".join(unwrapped)
                  + "; their per-layer metrics read 0", file=sys.stderr)
        metrics = tracing.layer_metrics(
            traced["info"].get("self_s", {}),
            traced["info"].get("counters", {}), unwrapped,
            traced["wall_s"],
            statistics.median(r["wall_s"] for r in untraced))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(
                r["wall_s"] for r in untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["rss_mb"] for r in untraced), "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    record = {
        "workload": workload.name, "seed": seed, "trace": args.trace,
        "environment": environment(root, nproc, runs[0]["info"]),
        "runs": [{k: r[k] for k in ("wall_s", "cpu_s", "rss_mb", "code",
                                    "setup_s", "failed")} for r in runs],
        "setup_samples_s": setups,
        "unwrapped": unwrapped,
        "elapsed_s": time.monotonic() - begun,
    }
    with open(os.path.join(work, "record.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
