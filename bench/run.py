"""Benchmark of gometrics: set-up time, run time and memory per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S]     # every workload, both modes

Workloads: g2-reproduce, exact-go-sweep, float-go-sweep (bench/README.md).
Each run starts, one at a time, four set-up-only processes and then one
workload process (bench/worker.py) from the root of the checkout, with
``src`` on the path, ``GOMETRICS_*`` overrides removed, a fixed
``PYTHONHASHSEED`` and one BLAS thread.  ``setup_s`` is the median of
the five set-ups, ``run_s`` the sum over operations of each one's
median time across rounds, ``peak_rss_mib`` the workload process's peak
resident memory.  With ``--trace 1`` the workload process wraps the
program's layers and the per-layer metrics are printed instead.

The last line of output is one JSON object: correct, attempted, failed
and metrics.  A record of the run (per-operation times, report sha256s,
failures) is written under bench/out/.  Exit code 2: bad arguments or no
program to measure; 1: a workload process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("g2-reproduce", "exact-go-sweep", "float-go-sweep")
SETUP_SAMPLES = 5
TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}

# per-layer metric -> unit
LAYERS = {
    "gometrics.import_s": "s",
    "liealg.build_s": "s",
    "liealg.validate_s": "s",
    "liealg.bracket_calls": "count",
    "liealg.bracket_s": "s",
    "liealg.project_calls": "count",
    "liealg.project_s": "s",
    "liealg.subspace_s": "s",
    "exactlinalg.rref_calls": "count",
    "exactlinalg.rref_cells": "cells",
    "exactlinalg.rref_s": "s",
    "exactlinalg.solve_calls": "count",
    "exactlinalg.rank_calls": "count",
    "exactlinalg.nullspace_calls": "count",
    "scalars.fraction_new": "count",
    "scalars.quad_new": "count",
    "scalars.exact_div_calls": "count",
    "metrics.kernel_calls": "count",
    "metrics.kernel_partitions": "count",
    "metrics.kernel_s": "s",
    "metrics.block_sums_calls": "count",
    "metrics.block_sums_s": "s",
    "metrics.detect_nr_s": "s",
    "metrics.apply_calls": "count",
    "metrics.apply_s": "s",
    "ricci.exact_calls": "count",
    "ricci.exact_s": "s",
    "ricci.float_calls": "count",
    "ricci.float_s": "s",
    "gocheck.solve_exact_calls": "count",
    "gocheck.solve_exact_s": "s",
    "gocheck.solve_float_calls": "count",
    "gocheck.solve_float_s": "s",
    "gocheck.escalations": "count",
    "gocheck.escalation_s": "s",
    "gocheck.system_s": "s",
    "gocheck.sample_s": "s",
    "gocheck.feasible": "count",
    "gocheck.infeasible": "count",
    "gocheck.indeterminate": "count",
    "spaces.self_s": "s",
    "cli.render_s": "s",
    "cli.report_bytes": "bytes",
    "trace.run_s": "s",
    "trace.top_share": "share",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GOMETRICS_")}
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(args: list) -> dict:
    proc = subprocess.run(
        [sys.executable, WORKER] + args,
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setups = [
        run_worker(["--workload", workload, "--setup-only"])["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")
    wargs = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)]
    if trace:
        wargs += ["--trace-out", stem + ".npz"]
    record = run_worker(wargs)
    record["setup_samples_s"] = setups + [record["setup_s"]]
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def result_line(record: dict, trace: int) -> dict:
    if trace:
        metrics = {k: {"value": record["layers"][k], "unit": u} for k, u in LAYERS.items()}
    else:
        values = {
            "setup_s": statistics.median(record["setup_samples_s"]),
            "run_s": record["run_s"],
            "peak_rss_mib": record["peak_rss_mib"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {
        "correct": not record["unexpected"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def describe(workload: str, record: dict, line: dict) -> None:
    print(f"[{workload}] seed {record['seed']}, trace {record['trace']}: "
          f"{record['rounds']} rounds, attempted {line['attempted']}, failed {line['failed']}")
    for name, err in record["failures"]:
        print(f"  failed: {name}: {err}")
    for name, m in line["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gometrics", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/gometrics is missing", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            trace = args.trace or 0
            record = run_workload(args.workload, args.seed, args.seconds, trace)
            line = result_line(record, trace)
            describe(args.workload, record, line)
            print(json.dumps(line))
            return 0
        summary = {}
        for workload in WORKLOADS:
            plain = run_workload(workload, args.seed, args.seconds, 0)
            traced = run_workload(workload, args.seed, args.seconds, 1)
            lines = [result_line(plain, 0), result_line(traced, 1)]
            describe(workload, plain, lines[0])
            describe(workload, traced, lines[1])
            overhead = traced["layers"]["trace.run_s"] / plain["run_s"] - 1
            print(f"  tracing overhead on run_s: {overhead:+.1%}")
            summary[workload] = {
                "untraced": lines[0], "traced": lines[1], "trace_overhead": overhead
            }
        print(json.dumps(summary))
        return 0
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
