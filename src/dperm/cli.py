"""Batch CLI: `dperm width`, `dperm solve`, `dperm bench`."""

from __future__ import annotations

import argparse
import json
import sys

from .geometry import body_from_dict, gaussian_width_mc
from .harness import ExperimentSpec, run_sweep, summarize
from .losses import Dataset
from .oracle import cached_solve, excess_risk
from .solvers import SolverConfig, run_solver


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dperm",
                                     description="Private ERM solvers and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_width = sub.add_parser("width", help="Monte-Carlo Gaussian width of a body")
    p_width.add_argument("body_json", help="body description document")
    p_width.add_argument("--samples", type=int, default=100_000)
    p_width.add_argument("--seed", type=int, default=0)
    p_width.add_argument("--output", default=None)

    p_solve = sub.add_parser("solve", help="run one solver config on a dataset")
    p_solve.add_argument("config_json")
    p_solve.add_argument("data_csv")
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("--output", default=None)
    p_solve.add_argument("--non-private", action="store_true",
                         help="zero all noise scales (infinite epsilon)")

    p_bench = sub.add_parser("bench", help="run an experiment sweep")
    p_bench.add_argument("experiment_json")
    p_bench.add_argument("--output", default=None)
    p_bench.add_argument("--parallelism", type=int, default=None)
    p_bench.add_argument("--seed", type=int, default=None,
                         help="replace the seed list with this single seed")
    p_bench.add_argument("--non-private", action="store_true")

    args = parser.parse_args(argv)
    if args.command == "width":
        return _cmd_width(args)
    if args.command == "solve":
        return _cmd_solve(args)
    return _cmd_bench(args)


def _emit(doc: dict, output) -> None:
    text = json.dumps(doc, indent=2)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_width(args) -> int:
    with open(args.body_json) as fh:
        body = body_from_dict(json.load(fh))
    est = gaussian_width_mc(body, args.samples, args.seed)
    _emit({"mean": est.mean, "std_error": est.std_error,
           "samples": est.samples, "seed": est.seed}, args.output)
    return 0


def _cmd_solve(args) -> int:
    with open(args.config_json) as fh:
        doc = json.load(fh)
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.non_private:
        doc["budget"] = {"epsilon": "inf"}
    cfg = SolverConfig.from_dict(doc)
    data = Dataset.from_csv(args.data_csv,
                            lasso_profile=doc.get("lasso_profile", False))
    report = run_solver(cfg, data)
    oracle = cached_solve(cfg.body, cfg.loss, data)
    report.excess_risk = excess_risk(report.theta_priv, oracle, cfg.loss, data)
    report.optimum = oracle.optimum_value
    _emit(report.to_dict(), args.output)
    return 0


def _cmd_bench(args) -> int:
    spec = ExperimentSpec.from_json(args.experiment_json)
    if args.parallelism is not None:
        spec.parallelism = args.parallelism
    if args.seed is not None:
        spec.seeds = [args.seed]
    if args.non_private:
        for doc in spec.solvers:
            doc["budget"] = {"epsilon": "inf"}
    if args.output is not None:
        spec.output = args.output
    records, failures = run_sweep(spec)
    summary = summarize(records)
    summary["failures"] = failures
    print(json.dumps(summary, indent=2))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
