"""Run one workload in this (fresh) process and print its record as JSON.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --setup-only

``bench/run.py`` starts this with a clean environment; run it directly
only to debug.  Set-up is timed from ``import gometrics`` to the end of
the workload's builds.  Then whole rounds of the workload's operations
run until the next round would end after S seconds; each operation is
timed alone and its output checked, untimed, afterwards.  An output whose
bytes (and exit code) match an earlier round's reuses that round's
verdict, since identical bytes carry identical verdicts and certificates.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None, help="write the spans here (.npz)")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import gometrics  # noqa: F401  (timed: import is part of set-up)

    import_s = time.perf_counter() - t0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.mark_phase("setup")
        tracer.enabled = True
    t1 = time.perf_counter()
    built = wl.setup(args.workload)
    setup_s = import_s + time.perf_counter() - t1
    if tracer is not None:
        tracer.enabled = False
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0

    from checks import CheckFailed

    ctx = wl.Context(args.seed, built)
    ops = wl.build_ops(args.workload, ctx)
    times = [[] for _ in ops]
    shas = [[] for _ in ops]
    verdicts: list[dict] = [{} for _ in ops]  # (sha, exit) -> failure text or None
    failures: list[tuple] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        if tracer is not None:
            tracer.mark_phase(f"round{rounds}")
        for i, op in enumerate(ops):
            out, error = None, None
            if tracer is not None:
                tracer.enabled = True
            t = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a crash is a failed operation, not a stop
                error = f"raised {exc!r}"
            finally:
                times[i].append(time.perf_counter() - t)
                if tracer is not None:
                    tracer.enabled = False
            if error is None:
                text, exit_code = op.report(out)
                sha = wl.sha256(text)
                shas[i].append(sha)
                key = (sha, exit_code)
                if key not in verdicts[i]:
                    try:
                        op.check(out, text)
                        verdicts[i][key] = None
                    except CheckFailed as exc:
                        verdicts[i][key] = f"check failed: {exc}"
                    except Exception as exc:
                        verdicts[i][key] = f"check raised {exc!r}"
                error = verdicts[i][key]
                if error is None and len(set(shas[i])) > 1:
                    error = "report bytes differ between rounds"
            if error is not None:
                failures.append((rounds, op.name, error))
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - r0) > args.seconds:
            break

    per_op = [statistics.median(t) for t in times]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "import_s": import_s,
        "rounds": rounds,
        "run_s": sum(per_op),
        "attempted": rounds * len(ops),
        "failed": len(failures),
        "unexpected": [f for f in failures if f[1] not in wl.KNOWN_FAULTS],
        "failures": sorted({(name, err) for _, name, err in failures}),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": [
            {"name": op.name, "median_s": m, "times_s": t, "sha256": sorted(set(s))}
            for op, m, t, s in zip(ops, per_op, times, shas)
        ],
    }
    if tracer is not None:
        tracer.mark_phase("end")
        record["layers"] = layer_metrics(tracer, times, import_s)
        if args.trace_out:
            tracer.write(args.trace_out)
        tracer.uninstall()
    print(json.dumps(record))
    return 0


def layer_metrics(tracer, times, import_s) -> dict:
    """Set-up phase plus the median round, for every per-layer metric."""
    from tracer import phase_metrics

    phases = tracer.phases
    per_phase = [
        phase_metrics(tracer, lo, hi, c_lo, c_hi)
        for (_, lo, c_lo), (_, hi, c_hi) in zip(phases, phases[1:])
    ]
    setup, rounds = per_phase[0], per_phase[1:]
    out = {"gometrics.import_s": import_s}
    for key in setup:
        if not key.startswith("_"):
            out[key] = setup[key] + statistics.median(r[key] for r in rounds)
    round_s = [sum(t[r] for t in times) for r in range(len(rounds))]
    out["trace.run_s"] = sum(statistics.median(t) for t in times)
    out["trace.top_share"] = statistics.median(
        r["_top_s"] / s for r, s in zip(rounds, round_s)
    )
    return out


if __name__ == "__main__":
    raise SystemExit(main())
