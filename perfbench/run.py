"""The dperm benchmark: timed sweeps of three workloads, checked on every run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload until ``--seconds`` have passed (at
least ``MIN_ROUNDS``).  Each round is a fresh ``worker.py`` process, so
the oracle cache starts cold and peak memory is the round's own.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: medians over rounds of the
end-to-end metrics with ``--trace 0``; with ``--trace 1``, untraced and
traced rounds alternate and the metrics are the per-layer ones from the
traced rounds, plus the tracing overhead.  Spans of traced rounds are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_ROUNDS = 3
# No round starts once the run could overrun this (the run must end in 180 s).
RUN_LIMIT_S = 150.0
ROUND_TIMEOUT_S = 170.0

from spans import unit_of
from workloads import BLAS_THREADS, WORKLOADS


def blas_threads(workload: str) -> int:
    """The workload's BLAS thread count, never more than the processors
    this process may use."""
    return min(BLAS_THREADS[workload], len(os.sched_getaffinity(0)))


def run_round(workload: str, seed: int, trace_out: Path | None) -> dict:
    env = dict(os.environ)
    threads = str(blas_threads(workload))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, timeout=ROUND_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"round exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dperm").is_dir():
        print(f"run.py: no dperm sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    start = time.monotonic()
    rounds: list[dict] = []
    traced: list[dict] = []
    longest = 0.0  # the longest untraced + traced step of the loop so far
    try:
        while True:
            elapsed = time.monotonic() - start
            done = traced if args.trace else len(rounds) >= MIN_ROUNDS
            if (done and elapsed >= args.seconds) or (
                    rounds and elapsed + longest > RUN_LIMIT_S):
                break
            t = time.monotonic()
            rounds.append(run_round(args.workload, args.seed, None))
            if args.trace:
                OUT.mkdir(exist_ok=True)
                path = OUT / f"spans_{args.workload}_seed{args.seed}_round{len(traced)}.npz"
                traced.append(run_round(args.workload, args.seed, path))
            longest = max(longest, time.monotonic() - t)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    everything = rounds + traced
    reproducible = len({json.dumps(r["digest"]) for r in everything}) == 1
    if not reproducible:
        print("run.py: rounds of one seed gave different records", file=sys.stderr)

    def med(key, rs=rounds):
        return statistics.median(r[key] for r in rs)

    if args.trace:
        metrics = {}
        for name in traced[0]["layers"]:
            # Counts repeat exactly between rounds; report one, not a mean of two.
            pick = statistics.median if unit_of(name) == "s" else statistics.median_low
            metrics[name] = {"value": pick(r["layers"][name] for r in traced),
                             "unit": unit_of(name)}
        metrics["trace.sweep_s"] = {"value": med("sweep_s", traced), "unit": "s"}
        metrics["trace.overhead_s"] = {"value": med("sweep_s", traced) - med("sweep_s"),
                                       "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": med("setup_s"), "unit": "s"},
            "sweep_s": {"value": med("sweep_s"), "unit": "s"},
            "steps_per_s": {"value": statistics.median(r["steps"] / r["sweep_s"] for r in rounds),
                            "unit": "1/s"},
            "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
        }
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} untraced and {len(traced)} "
          f"traced rounds in {time.monotonic() - start:.1f} s, "
          f"BLAS threads {blas_threads(args.workload)}; sweep_s per round "
          + " ".join(f"{x['sweep_s']:.3f}" for x in everything))
    print(json.dumps({
        "correct": reproducible and all(r["correct"] for r in everything),
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
