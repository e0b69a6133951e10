"""One workload in one fresh process.  Started by run.py from the root
of a checkout, with src/ and perfbench/ on PYTHONPATH; prints one JSON
object as its last line.

After set-up the worker runs whole rounds while the slowest round so far
would still fit in --seconds (at least one round).  A round is one pass
over the workload's in-process operations, the next CLI_PER_ROUND of its
CLI commands (in rotation), and one fresh set-up process (--setup-only),
so every kind of sample is spread over the whole run.  Then it checks the first pass
against the oracles and the later passes against the first.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

CHILD_TIMEOUT_S = 60
CLI_PER_ROUND = 5
# Seconds the reference task takes on an unloaded core of the reference
# machine (2-vCPU Xeon); normalized times are in seconds at that speed.
REFERENCE_S = 0.0015


def reference_task() -> float:
    """Wall time of a fixed piece of exact rational arithmetic, the kind
    of work korncert's hot loops do."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 800):
        acc += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


def speed_normalized(samples: list[tuple[float, float, float]]) -> float:
    """Median time of one operation's repetitions at reference speed.

    Each sample is (seconds, reference before, reference after).  On a
    shared host the same work runs at two speeds that differ by up to 2x,
    switching every few seconds and sometimes staying slow for a whole
    run, so raw times follow the neighbours' load.  The reference task
    timed around each sample gives the speed at that moment, and the
    sample is rescaled by REFERENCE_S over the mean of the two.
    """
    return statistics.median(t * REFERENCE_S / ((before + after) / 2) for t, before, after in samples)


def run_pass(workload, tracer=None) -> dict:
    first_span = len(tracer.spans) if tracer else 0
    results, op_s, failed = {}, [], 0
    for label, fn in workload.ops():
        before = reference_task()
        if tracer:
            tracer.begin_op(label)
        t0 = time.perf_counter()
        try:
            results[label] = fn(results)
        except Exception as exc:  # an operation that raises counts as failed
            print(f"{label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end_op()
        op_s.append((elapsed, before, reference_task()))
    spans = (first_span, len(tracer.spans)) if tracer else None
    return {"op_s": op_s, "failed": failed, "results": results, "spans": spans}


def run_child(argv: list[str]) -> tuple[tuple, subprocess.CompletedProcess | None]:
    """Timing sample of one child process, and the process (None if it
    timed out and was killed)."""
    before = reference_task()
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = None
    elapsed = time.perf_counter() - t0
    return (elapsed, before, reference_task()), proc


def run_round(workload, args, index: int, tracer=None) -> dict:
    rnd = run_pass(workload, tracer)
    rnd["cli_s"], rnd["cli_out"] = {}, {}
    commands = list(workload.cli_commands())
    k = min(CLI_PER_ROUND, len(commands))
    rnd["cli_attempted"] = k
    for j in range(k):
        label, argv, _ = commands[(index * k + j) % len(commands)]
        elapsed, proc = run_child(argv)
        if proc is None or proc.returncode != 0:
            detail = "timed out" if proc is None else f"exit {proc.returncode}: {proc.stderr.strip()}"
            print(f"{label}: {detail}", file=sys.stderr)
            rnd["failed"] += 1
        else:
            rnd["cli_s"][label], rnd["cli_out"][label] = elapsed, proc.stdout
    setup_argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    rnd["setup_s"], proc = run_child(setup_argv)
    if proc is None or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc and proc.stderr}")
    rnd["import_s"] = json.loads(proc.stdout)["import_s"]
    return rnd


def run_rounds(workload, args, budget_s: float, tracer=None) -> list[dict]:
    rounds, start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(workload, args, len(rounds), tracer))
        rounds[-1]["round_s"] = time.perf_counter() - t0
        slowest = max(r["round_s"] for r in rounds)
        if time.perf_counter() - start + slowest > budget_s:
            return rounds


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import korncert.cli  # noqa: F401  (timed: the import is part of set-up)

    import_s = time.perf_counter() - t0
    from workloads import OUT_DIR, WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    if args.setup_only:
        print(json.dumps({"import_s": import_s}), flush=True)
        return 0

    # Keep this thread, the reference task and every child process on one
    # CPU, so the reference measures the speed of the CPU doing the work.
    # BLAS threads, started at import, keep every CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = None
    if args.trace:
        from spans import Tracer

        rounds = run_rounds(workload, args, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        rounds += run_rounds(workload, args, args.seconds / 2, tracer)
    else:
        rounds = run_rounds(workload, args, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = rounds[0]["results"]
    errors = []
    if any(workload.fingerprint(r["results"]) != workload.fingerprint(first) for r in rounds[1:]):
        errors.append("passes disagree: outputs differ between passes of one process")
    cli_labels = [label for label, _, _ in workload.cli_commands()]
    for label, _, check in workload.cli_commands():
        for stdout in {r["cli_out"][label] for r in rounds if label in r["cli_out"]}:
            errors += check(stdout, first)
    errors += workload.check(first)

    untraced = [r for r in rounds if r["spans"] is None]
    out = {
        "attempted": sum(len(r["op_s"]) + r["cli_attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "errors": errors,
        "op_s": [speed_normalized(list(s)) for s in zip(*(r["op_s"] for r in untraced))],
        "cli_s": [speed_normalized([r["cli_s"][k] for r in rounds if k in r["cli_s"]])
                  for k in cli_labels if any(k in r["cli_s"] for r in rounds)],
        "setup_s": statistics.median(speed_normalized([r["setup_s"]]) for r in rounds),
        "import_s": statistics.median(r["import_s"] for r in rounds),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        traced = [r for r in rounds if r["spans"] is not None]
        per_pass = [tracer.layer_metrics(*r["spans"]) for r in traced]
        for name in per_pass[0]:
            if name.endswith(("_calls", "_cells", "_rows")) and len({m[name] for m in per_pass}) > 1:
                errors.append(f"trace: {name} differs between passes")
        out["layers"] = {name: statistics.median_low(m[name] for m in per_pass) for name in per_pass[0]}
        out["traced_op_s"] = [speed_normalized(list(s)) for s in zip(*(r["op_s"] for r in traced))]
        tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
