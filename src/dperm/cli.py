"""Batch CLI: `dperm width`, `dperm solve`, `dperm bench`."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .geometry import body_from_dict
from .harness import ExperimentSpec, run_sweep, score_cell, summarize
from .losses import Dataset
from .privacy import PrivacyBudget
from .solvers import SolverConfig, gaussian_width


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dperm",
                                     description="Private ERM solvers and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_width = sub.add_parser("width", help="Gaussian width of a body, the one a default T "
                                           "takes: closed form on the l1 ball, the simplex and "
                                           "the l2 ball, else Monte Carlo at the public seed")
    p_width.add_argument("body_json", help="body description document")
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
    est = gaussian_width(body)
    doc = {"mean": est.mean, "method": est.method}
    if est.samples:
        doc.update(std_error=est.std_error, samples=est.samples, seed=est.seed)
    _emit(doc, args.output)
    return 0


def _cmd_solve(args) -> int:
    with open(args.config_json) as fh:
        doc = json.load(fh)
    # The whole document is read, the lasso_profile flag too, before the
    # options replace fields of the config.
    cfg = SolverConfig.from_dict(doc)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.non_private:
        cfg = dataclasses.replace(cfg, budget=PrivacyBudget.from_dict({"epsilon": "inf"}))
    data = Dataset.from_csv(args.data_csv, lasso_profile=doc.get("lasso_profile", False))
    _emit(score_cell(cfg, data).to_dict(), args.output)
    return 0


def _cmd_bench(args) -> int:
    spec = ExperimentSpec.from_json(args.experiment_json)
    solvers = spec.solvers
    if args.non_private:
        solvers = [{**doc, "budget": {"epsilon": "inf"}} for doc in solvers]
    # The replaced spec runs its construction checks again.
    records, failures = run_sweep(dataclasses.replace(
        spec, solvers=solvers, seeds=spec.seeds if args.seed is None else [args.seed],
        output=spec.output if args.output is None else args.output))
    summary = summarize(records)
    summary["failures"] = failures
    print(json.dumps(summary, indent=2))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
