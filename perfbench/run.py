"""korncert benchmark: one command, three workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; korncert is imported from ./src.  Each
workload runs in a fresh worker process (worker.py) with BLAS threads
capped at the number of usable CPUs.  Prints every metric with its unit and, as the last
line of standard output, one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics; --trace 1 runs traced rounds after untraced ones and
reports the per-layer metrics (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verdict-table", "kernel-sweep", "dense-certify")
WORKER_TIMEOUT_S = 170


def bench_env(seed: int) -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
        OMP_NUM_THREADS=threads,
        OPENBLAS_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        KORNCERT_SEED=str(seed),
    )
    return env


def worker(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *extra]


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    # The worker leads its own process group, so a timeout also ends the
    # CLI and set-up processes it started.
    with subprocess.Popen(
        worker(workload, seed, "--seconds", str(seconds), "--trace", str(trace)),
        cwd=ROOT, env=bench_env(seed), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    sys.stderr.write(stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    out = json.loads(stdout.strip().splitlines()[-1])
    for err in out["errors"]:
        print(f"CHECK FAILED [{workload}]: {err}", file=sys.stderr)

    if trace:
        untraced, traced = sum(out["op_s"]), sum(out["traced_op_s"])
        metrics = {name: (value, _unit(name)) for name, value in out["layers"].items()}
        metrics["cli.import_s"] = (out["import_s"], "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    else:
        metrics = {
            "pass_s": (sum(out["op_s"]), "s"),
            "op_p50_s": (statistics.median(out["op_s"]), "s"),
            "slowest_op_s": (max(out["op_s"]), "s"),
            "cli_p50_s": (statistics.median(out["cli_s"]), "s"),
            "setup_s": (out["setup_s"], "s"),
            "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        }
    return {
        "correct": not out["errors"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "korncert" / "__init__.py").is_file():
        print(f"error: no korncert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        print(f"[{name}] correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"[{name}] {metric} = {m['value']:.6g} {m['unit']}")
        results.append(res)
    for res in results:
        print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
