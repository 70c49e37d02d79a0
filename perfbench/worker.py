"""One round of a workload in a fresh process: set up, sweep, check.

Started by ``run.py`` once per round, so the oracle cache starts cold and
the peak resident memory is this round's own.  Prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --t0 MONOTONIC
                                [--trace-out SPANS.npz]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from pathlib import Path

import checks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CAP_WARNING = "objective-perturbation inner solve stopped"
STEP_ALGORITHMS = ("noisy_md", "fw_polytope", "fw_general")


def _import_program():
    """Import ``dperm`` from this checkout's sources and nowhere else."""
    if not (SRC / "dperm" / "__init__.py").is_file():
        raise SystemExit(f"worker: no dperm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dperm

    if Path(dperm.__file__).resolve().parent != SRC / "dperm":
        raise SystemExit(f"worker: dperm imported from {dperm.__file__}, not {SRC}")


class CellCapture:
    """Keeps each cell's private output and whether its inner solve hit the cap.

    Wraps ``dperm.harness.run_solver`` (one call per cell) so the checks can
    test the outputs, which sweep records do not carry.
    """

    def __init__(self, harness):
        self.harness = harness
        self.original = harness.run_solver
        self.cells: list[dict] = []

    def __enter__(self):
        def capture(cfg, data):
            cell = {"algorithm": cfg.algorithm, "seed": cfg.seed, "n": data.n,
                    "theta": None, "capped": False}
            self.cells.append(cell)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = self.original(cfg, data)
            cell["theta"] = report.theta_priv
            cell["capped"] = any(CAP_WARNING in str(w.message) for w in caught)
            for w in caught:
                if CAP_WARNING not in str(w.message):
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return report

        self.harness.run_solver = capture
        return self

    def __exit__(self, *exc):
        self.harness.run_solver = self.original


def _cells_by_key(docs, specs, cells) -> dict:
    """Map (sweep name, solver id, n, seed) to its captured cell, in the sweeps' order."""
    it = iter(cells)
    out = {}
    for doc, spec in zip(docs, specs):
        for s in doc["solvers"]:
            for n in spec.n_sweep:
                for seed in spec.seeds:
                    cell = next(it, None)
                    if cell is None or (cell["algorithm"], cell["n"], cell["seed"]) != (
                            s["algorithm"], n, seed):
                        raise RuntimeError(f"cell order differs from the sweep at {s['id']}, "
                                           f"n={n}, seed={seed}")
                    out[(doc["name"], s["id"], n, seed)] = cell
    return out


def count_round(docs, specs, results, cells) -> dict:
    """Cells attempted and failed, steps taken and a digest of the records.

    A cell fails when the sweep reports it failed or when its inner solve
    stopped at the iteration cap.  Steps are the T of the noisy_md,
    fw_polytope and fw_general records; obj_pert's T counts inner
    iterations and is left out.
    """
    by_key = _cells_by_key(docs, specs, cells)
    attempted = failed = steps = 0
    digests = []
    for doc, spec, (records, failures) in zip(docs, specs, results):
        for f in failures:
            print(f"worker: cell failed: {f}", file=sys.stderr)
        algorithm = {s["id"]: s["algorithm"] for s in doc["solvers"]}
        attempted += len(doc["solvers"]) * len(spec.n_sweep) * len(spec.seeds)
        failed += len(failures)
        for r in records:
            if by_key[(doc["name"], r.solver, r.n, r.seed)]["capped"]:
                failed += 1
            elif algorithm[r.solver] in STEP_ALGORITHMS:
                steps += r.T
        digests.append(record_digest(records))
    return {"attempted": attempted, "failed": failed, "steps": steps, "digest": digests}


def record_digest(records) -> list:
    """Every field but the wall time, so rounds of one seed must agree bitwise."""
    return [[r.solver, r.n, r.seed, repr(r.excess_risk), repr(r.optimum), r.T,
             repr(r.sigma), repr(r.laplace_scale)] for r in records]


def check_round(docs, specs, results, cells) -> None:
    """Check every cell that did not fail; raises ``checks.CheckError``."""
    from dperm.geometry import body_from_dict
    from dperm.harness import _dataset_for
    from dperm.losses import loss_from_dict
    from dperm.oracle import cached_solve

    by_key = _cells_by_key(docs, specs, cells)
    for doc, spec, (records, _) in zip(docs, specs, results):
        by_id = {s["id"]: s for s in doc["solvers"]}
        datasets = {n: _dataset_for(spec, n) for n in spec.n_sweep}
        oracles = {}
        for r in records:
            s = by_id[r.solver]
            cell = by_key[(doc["name"], r.solver, r.n, r.seed)]
            if cell["capped"]:
                continue
            data = datasets[r.n]
            key = (r.n, json.dumps(s["body"], sort_keys=True),
                   json.dumps(s["loss"], sort_keys=True))
            if key not in oracles:
                sol = cached_solve(body_from_dict(s["body"]), loss_from_dict(s["loss"]), data)
                checks.check_oracle(s["body"], s["loss"], data.X, data.y, sol.theta_star,
                                    r.optimum, sol.gap_certificate)
                oracles[key] = sol
            checks.check_record(s, r, cell["theta"], data.X, data.y,
                                oracles[key].gap_certificate)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    _import_program()
    import dperm.harness as harness
    from dperm.harness import ExperimentSpec

    docs = WORKLOADS[args.workload](args.seed)
    specs = [ExperimentSpec(solvers=d["solvers"], n_sweep=d["n_sweep"], seeds=d["seeds"],
                            dataset=d["dataset"]) for d in docs]
    tracer = None
    if args.trace_out:
        from spans import Tracer

        tracer = Tracer()

    # -- timed phase -----------------------------------------------------------
    results = []
    with CellCapture(harness) as capture:
        if tracer is not None:
            tracer.install()
        setup_s = time.monotonic() - args.t0
        sweep_s = 0.0
        for spec in specs:
            t = time.perf_counter()
            results.append(harness.run_sweep(spec))
            sweep_s += time.perf_counter() - t
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks ------------------------------------------------------------------
    tally = count_round(docs, specs, results, capture.cells)
    correct = True
    try:
        check_round(docs, specs, results, capture.cells)
    except checks.CheckError as exc:
        print(f"worker: check failed: {exc}", file=sys.stderr)
        correct = False

    out = {"correct": correct, "setup_s": setup_s, "sweep_s": sweep_s,
           "peak_rss_mb": peak_rss_mb, **tally}
    if tracer is not None:
        tracer.write(args.trace_out)
        out["layers"] = tracer.layer_metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
