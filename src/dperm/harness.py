"""Synthetic data generation, experiment sweeps, and result emission.

A sweep cell is one (solver config, n, seed) triple.  Cells run one
after another on one thread; each derives its own generator from the
cell seed.  The cells of one n share one dataset, and with it the oracle
optimum that ``cached_solve`` keeps in the dataset's memo, so a cell's
record does not depend on the cells run before it.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .geometry import (doc_bool, doc_float, doc_int, doc_nested, doc_object, doc_str, doc_value,
                       read_doc)
from .losses import Dataset
from .oracle import cached_solve, excess_risk
from .solvers import SolverConfig, SolverReport, run_solver, seed_from

SCHEMA_VERSION = 1

RECORD_FIELDS = ["solver", "n", "seed", "excess_risk", "optimum", "T",
                 "sigma", "laplace_scale", "wall_ms"]

RESAMPLE_ATTEMPTS = 100


def _check_lasso_params(p: int, sparsity: int, noise_level: float, l1_norm: float) -> None:
    """Raise ``ValueError`` on a ``generate_lasso`` argument out of range."""
    if not (1 <= sparsity <= p):
        raise ValueError(f"need 1 <= sparsity <= p, got sparsity {sparsity} at p = {p}")
    if noise_level < 0:
        raise ValueError(f"noise level must be nonnegative, got {noise_level}")
    if not (0 < l1_norm <= 1):
        raise ValueError(f"l1_norm must lie in (0, 1], got {l1_norm}")


def generate_lasso(n: int, p: int, sparsity: int, noise_level: float, seed: int,
                   l1_norm: float = 0.9, nonneg: bool = False) -> Dataset:
    """Synthetic sparse-regression data on the declared domain.

    Features are uniform on [-1, 1]^p; the planted model has ``sparsity``
    nonzeros scaled to l1 norm ``l1_norm`` (<= 1); targets are the clean
    inner products plus Gaussian noise.  Records with |y| > 1 are resampled
    rather than clipped so the domain stays exact.  Deterministic per seed.
    """
    _check_lasso_params(p, sparsity, noise_level, l1_norm)
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
    return Dataset(X=X, y=y, lasso_profile=True)


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


# How each key of a generator document, ``data_seed`` and the
# ``generate_lasso`` keywords, is read, with its default when optional.
_GENERATOR_FIELDS = {"p": doc_int, "sparsity": (doc_int, 1), "noise_level": (doc_float, 0.0),
                     "l1_norm": (doc_float, 0.9), "nonneg": (doc_bool, False),
                     "data_seed": (doc_int, 0)}


def _read_generator(doc) -> tuple[int, dict]:
    """(data_seed, ``generate_lasso`` keywords) of a generator document."""
    params = read_doc(doc, "generator", _GENERATOR_FIELDS)
    for key, low in (("p", 1), ("data_seed", 0)):
        if params[key] < low:
            raise ValueError(f"generator {key!r} must be >= {low}, got {params[key]}")
    _check_lasso_params(*(params[key] for key in ("p", "sparsity", "noise_level", "l1_norm")))
    return params.pop("data_seed"), params


# The two forms of a dataset document, a data file and the generator.
_FILE_FIELDS = {"path": doc_value("the path of a file", lambda v: isinstance(v, str)
                                  and os.path.isfile(v)),
                "lasso_profile": (doc_bool, False)}
_GENERATED_FIELDS = {"generator": doc_nested(_read_generator)}

# The keys of a sweep document: ``name`` labels the sweep and is not read;
# the others are the ``ExperimentSpec`` fields, read when it is built.
_SWEEP_FIELDS = {"name": (None, None), "solvers": None, "n_sweep": None, "seeds": None,
                 "dataset": None, "output": (None, None)}


def _read_counts(values, key: str, name: str, low: int) -> list[int]:
    """The integers of the sweep's ``key``, each ``name`` >= ``low`` and none twice."""
    if not isinstance(values, (list, tuple)) or not values:
        raise ValueError(f"sweep {key!r} must be a nonempty list of integers, got {values!r}")
    values = [doc_int(v, "sweep", key) for v in values]
    if min(values) < low:
        raise ValueError(f"every {name} must be >= {low}, got {min(values)}")
    again = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if again is not None:
        raise ValueError(f"the {name} {again} is listed twice; its cells would run twice")
    return values


@dataclass
class ExperimentSpec:
    """A sweep: solver config documents x n values x seeds.

    Every field is read here, once, so a sweep that cannot run is refused
    before any data is made.  The dataset document is a ``path`` (with an
    optional ``lasso_profile``) or a ``generator``.  Each solver document
    has a string ``id`` that no other has, and no ``lasso_profile`` or
    ``seed`` (each cell runs one of ``seeds``).
    """

    solvers: list[dict]
    n_sweep: list[int]
    seeds: list[int]
    dataset: dict
    output: Optional[str] = None

    def __post_init__(self):
        if not self.solvers:
            raise ValueError("at least one solver config is required")
        self.n_sweep = _read_counts(self.n_sweep, "n_sweep", "n", 1)
        self.seeds = _read_counts(self.seeds, "seeds", "seed", 0)
        if self.output is not None:
            doc_str(self.output, "sweep", "output")
        in_file = isinstance(self.dataset, dict) and "path" in self.dataset
        self._data = read_doc(self.dataset, "dataset", _FILE_FIELDS if in_file else
                              _GENERATED_FIELDS)
        self._configs = []
        for i, doc in enumerate(self.solvers):
            doc_object(doc, f"solver config {i}")
            sid = doc_str(doc.get("id"), f"solver config {i}", "id")
            if sid in [earlier["id"] for earlier in self.solvers[:i]]:
                raise ValueError(f"solver config {i} repeats the id {sid!r}")
            if "lasso_profile" in doc:
                raise ValueError(f"solver config {sid!r} has a 'lasso_profile' key; "
                                 "a sweep reads it from the dataset document")
            if "seed" in doc:
                raise ValueError(f"solver config {sid!r} has a 'seed' key; "
                                 "a sweep runs each of its seeds")
            try:
                self._configs.append(SolverConfig.from_dict(doc))
            except ValueError as exc:
                raise ValueError(f"solver config {sid!r}: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        """Read a sweep document, with the keys of ``_SWEEP_FIELDS``."""
        with open(path) as fh:
            doc = read_doc(json.load(fh), "sweep", _SWEEP_FIELDS)
        return cls(**{key: value for key, value in doc.items() if key != "name"})


def _datasets_for(spec: ExperimentSpec, ns) -> dict[int, Dataset]:
    """The dataset of each n in ``ns``: the first n rows of the file, which
    is read once, or the generator's data at that n."""
    if "path" in spec._data:
        data = Dataset.from_csv(spec._data["path"], lasso_profile=spec._data["lasso_profile"])
        for n in ns:
            if n > data.n:
                raise ValueError(f"dataset file has {data.n} rows, cell requests {n}")
        return {n: Dataset(X=data.X[:n], y=data.y[:n], lasso_profile=data.lasso_profile)
                for n in ns}
    data_seed, params = spec._data["generator"]
    return {n: generate_lasso(n=n, seed=seed_from(data_seed, n), **params) for n in ns}


def _dataset_for(spec: ExperimentSpec, n: int) -> Dataset:
    """The dataset of one n, as a sweep builds it."""
    return _datasets_for(spec, [n])[n]


def score_cell(cfg: SolverConfig, data: Dataset) -> SolverReport:
    """Run one config and score it: the report carries its excess risk
    over the certified optimum and that optimum.  The run's feasibility
    check is the only one: the oracle's body has the run's body key."""
    report = run_solver(cfg, data)
    oracle = cached_solve(cfg.body, cfg.loss, data)
    report.excess_risk = excess_risk(report.theta_priv, oracle, cfg.loss, data,
                                     feasible=report.feasible)
    report.optimum = oracle.optimum_value
    return report


def _run_cell(solver: str, cfg: SolverConfig, data: Dataset, n: int, seed: int) -> RiskRecord:
    report = score_cell(replace(cfg, seed=seed), data)
    return RiskRecord(
        solver=solver, n=n, seed=seed, excess_risk=report.excess_risk,
        optimum=report.optimum, T=report.iterations,
        sigma=report.noise_plan.sigma,
        laplace_scale=report.noise_plan.laplace_scale,
        wall_ms=report.wall_time_s * 1000.0,
    )


def run_sweep(spec: ExperimentSpec) -> tuple[list[RiskRecord], list[dict]]:
    """Run every cell in order; failures are recorded per-cell and the
    sweep continues.

    Returns (records, failures), each sorted by (solver, n, seed).
    """
    datasets = _datasets_for(spec, sorted(set(spec.n_sweep)))
    records: list[RiskRecord] = []
    failures: list[dict] = []
    for doc, cfg in zip(spec.solvers, spec._configs):
        for n in spec.n_sweep:
            for seed in spec.seeds:
                try:
                    records.append(_run_cell(doc["id"], cfg, datasets[n], n, seed))
                except Exception as exc:  # noqa: BLE001 - per-cell isolation is the contract
                    failures.append({"solver": doc["id"], "n": n, "seed": seed,
                                     "error": str(exc)})
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
