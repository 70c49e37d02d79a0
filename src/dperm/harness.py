"""Synthetic data generation, experiment sweeps, and result emission.

A sweep cell is one (solver config, n, seed) triple.  Cells are
self-contained: each derives its own generator from the cell seed, reads
the oracle cache, and never mutates shared state, so the record set is
identical no matter how many workers run the sweep.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .losses import Dataset
from .oracle import cached_solve, excess_risk
from .solvers import SolverConfig, run_solver, seed_from

SCHEMA_VERSION = 1

RECORD_FIELDS = ["solver", "n", "seed", "excess_risk", "optimum", "T",
                 "sigma", "laplace_scale", "wall_ms"]

RESAMPLE_ATTEMPTS = 100


def generate_lasso(n: int, p: int, sparsity: int, noise_level: float, seed: int,
                   l1_norm: float = 0.9, nonneg: bool = False) -> Dataset:
    """Synthetic sparse-regression data on the declared domain.

    Features are uniform on [-1, 1]^p; the planted model has ``sparsity``
    nonzeros scaled to l1 norm ``l1_norm`` (<= 1); targets are the clean
    inner products plus Gaussian noise.  Records with |y| > 1 are resampled
    rather than clipped so the domain stays exact.  Deterministic per seed;
    the planted model is stashed in ``meta["theta_star"]``.
    """
    if not (1 <= sparsity <= p):
        raise ValueError("need 1 <= sparsity <= p")
    if noise_level < 0:
        raise ValueError("noise level must be nonnegative")
    if not (0 < l1_norm <= 1):
        raise ValueError("l1_norm must lie in (0, 1]")
    rng = np.random.default_rng(seed)

    support = rng.choice(p, size=sparsity, replace=False)
    # Geometrically decaying magnitudes, the usual sparse-recovery test signal.
    mags = 0.5 ** np.arange(sparsity)
    signs = np.ones(sparsity) if nonneg else rng.choice([-1.0, 1.0], size=sparsity)
    theta_star = np.zeros(p)
    theta_star[support] = signs * mags
    theta_star *= l1_norm / np.abs(theta_star).sum()

    X = rng.uniform(-1.0, 1.0, size=(n, p))
    y = X @ theta_star + noise_level * rng.standard_normal(n)
    bad = np.nonzero(np.abs(y) > 1.0)[0]
    for i in bad:
        for attempt in range(RESAMPLE_ATTEMPTS):
            X[i] = rng.uniform(-1.0, 1.0, size=p)
            y[i] = float(X[i] @ theta_star) + noise_level * rng.standard_normal()
            if abs(y[i]) <= 1.0:
                break
        else:
            raise ValueError(
                f"record {i} still out of range after {RESAMPLE_ATTEMPTS} resamples; "
                "the noise level is too large for the |y| <= 1 domain"
            )
    return Dataset(X=X, y=y, lasso_profile=True,
                   meta={"theta_star": theta_star, "seed": seed,
                         "noise_level": noise_level})


@dataclass
class RiskRecord:
    """One sweep cell: solver id, problem size, seed, and measured risk."""

    solver: str
    n: int
    seed: int
    excess_risk: float
    optimum: float
    T: int
    sigma: float
    laplace_scale: float
    wall_ms: float

    def __post_init__(self):
        if not math.isfinite(self.excess_risk):
            raise ValueError("excess risk must be finite")

    def to_row(self) -> list:
        return [self.solver, self.n, self.seed, repr(float(self.excess_risk)),
                repr(float(self.optimum)), self.T, repr(float(self.sigma)),
                repr(float(self.laplace_scale)), repr(float(self.wall_ms))]


@dataclass
class ExperimentSpec:
    """A sweep: solver config documents x n values x seeds."""

    solvers: list[dict]
    n_sweep: list[int]
    seeds: list[int]
    dataset: dict
    output: Optional[str] = None
    parallelism: int = 1

    def __post_init__(self):
        if not self.solvers:
            raise ValueError("at least one solver config is required")
        if not self.n_sweep or not self.seeds:
            raise ValueError("n_sweep and seeds must be nonempty")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if "path" in self.dataset and not os.path.exists(self.dataset["path"]):
            raise ValueError(f"dataset file {self.dataset['path']} does not exist")
        for i, doc in enumerate(self.solvers):
            if "id" not in doc:
                raise ValueError(f"solver config {i} is missing an 'id'")

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        with open(path) as fh:
            doc = json.load(fh)
        return cls(solvers=doc["solvers"], n_sweep=[int(v) for v in doc["n_sweep"]],
                   seeds=[int(v) for v in doc["seeds"]], dataset=doc["dataset"],
                   output=doc.get("output"), parallelism=int(doc.get("parallelism", 1)))


def _dataset_for(spec: ExperimentSpec, n: int) -> Dataset:
    doc = spec.dataset
    if "path" in doc:
        data = Dataset.from_csv(doc["path"], lasso_profile=doc.get("lasso_profile", False))
        if n > data.n:
            raise ValueError(f"dataset file has {data.n} rows, cell requests {n}")
        return Dataset(X=data.X[:n], y=data.y[:n], lasso_profile=data.lasso_profile)
    gen = doc["generator"]
    return generate_lasso(
        n=n,
        p=int(gen["p"]),
        sparsity=int(gen.get("sparsity", 1)),
        noise_level=float(gen.get("noise_level", 0.0)),
        seed=seed_from(int(gen.get("data_seed", 0)), n),
        l1_norm=float(gen.get("l1_norm", 0.9)),
        nonneg=bool(gen.get("nonneg", False)),
    )


def _run_cell(doc: dict, data: Dataset, n: int, seed: int):
    cfg = SolverConfig.from_dict({**doc, "seed": seed})
    report = run_solver(cfg, data)
    oracle = cached_solve(cfg.body, cfg.loss, data)
    risk = excess_risk(report.theta_priv, oracle, cfg.loss, data)
    report.excess_risk = risk
    report.optimum = oracle.optimum_value
    return RiskRecord(
        solver=doc["id"], n=n, seed=seed, excess_risk=risk,
        optimum=oracle.optimum_value, T=report.iterations,
        sigma=report.noise_plan.sigma,
        laplace_scale=report.noise_plan.laplace_scale,
        wall_ms=report.wall_time_s * 1000.0,
    )


def run_sweep(spec: ExperimentSpec) -> tuple[list[RiskRecord], list[dict]]:
    """Run every cell; failures are recorded per-cell and the sweep continues.

    Returns (records, failures) with records sorted by (solver, n, seed) so
    the output is identical for any worker count.
    """
    datasets = {n: _dataset_for(spec, n) for n in sorted(set(spec.n_sweep))}
    cells = [(doc, n, seed) for doc in spec.solvers
             for n in spec.n_sweep for seed in spec.seeds]

    records: list[RiskRecord] = []
    failures: list[dict] = []

    def work(cell):
        doc, n, seed = cell
        try:
            return _run_cell(doc, datasets[n], n, seed), None
        except Exception as exc:  # noqa: BLE001 - per-cell isolation is the contract
            return None, {"solver": doc["id"], "n": n, "seed": seed, "error": str(exc)}

    if spec.parallelism > 1:
        with ThreadPoolExecutor(max_workers=spec.parallelism) as pool:
            outcomes = list(pool.map(work, cells))
    else:
        outcomes = [work(c) for c in cells]
    for rec, fail in outcomes:
        if rec is not None:
            records.append(rec)
        else:
            failures.append(fail)
    records.sort(key=lambda r: (r.solver, r.n, r.seed))
    failures.sort(key=lambda f: (f["solver"], f["n"], f["seed"]))

    if spec.output:
        write_records_csv(records, spec.output)
        summary = summarize(records)
        summary["failures"] = failures
        with open(os.path.splitext(spec.output)[0] + "_summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
    return records, failures


def summarize(records: list[RiskRecord]) -> dict:
    """Mean excess risk per (solver, n) and a fitted log-log slope per solver."""
    cells: dict[tuple[str, int], list[float]] = {}
    for r in records:
        cells.setdefault((r.solver, r.n), []).append(r.excess_risk)
    cell_rows = [
        {"solver": s, "n": n, "mean_excess_risk": float(np.mean(v)), "seeds": len(v)}
        for (s, n), v in sorted(cells.items())
    ]
    slopes: dict[str, dict] = {}
    for solver in sorted({s for s, _ in cells}):
        pts = [(n, float(np.mean(v))) for (s, n), v in sorted(cells.items())
               if s == solver and np.mean(v) > 0]
        if len(pts) >= 2:
            slopes[solver] = fit_loglog_slope([p[0] for p in pts], [p[1] for p in pts])
    return {"schema_version": SCHEMA_VERSION, "cells": cell_rows, "slopes": slopes}


def fit_loglog_slope(ns, means) -> dict:
    """Least-squares slope of ln(mean risk) against ln(n), with its standard error."""
    x = np.log(np.asarray(ns, dtype=float))
    z = np.log(np.asarray(means, dtype=float))
    m = len(x)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (z - z.mean())) / sxx)
    intercept = float(z.mean() - slope * xbar)
    if m > 2:
        resid = z - (intercept + slope * x)
        s2 = float(resid @ resid) / (m - 2)
        stderr = math.sqrt(s2 / sxx)
    else:
        stderr = 0.0
    return {"slope": slope, "intercept": intercept, "stderr": stderr, "points": m}


def write_records_csv(records: list[RiskRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for r in records:
            writer.writerow(r.to_row())
