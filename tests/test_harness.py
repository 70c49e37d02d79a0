import sys
import threading
from collections import Counter

import numpy as np
import pytest

import dperm.oracle as oracle
from dperm.geometry import L1Ball
from dperm.harness import ExperimentSpec, generate_lasso, run_sweep
from dperm.losses import Dataset, SquaredError
from dperm.privacy import PrivacyBudget
from dperm.solvers import SolverConfig, run_solver

BUDGET = {"epsilon": 1.0, "delta": 1e-6}
SQ = {"kind": "squared_error"}


def lasso_configs(p: int) -> list[dict]:
    body = {"kind": "l1_ball", "radius": 1.0, "dimension": p}
    common = {"body": body, "loss": SQ, "budget": BUDGET}
    return [
        {"id": "fw_polytope", "algorithm": "fw_polytope", "T": 30, **common},
        {"id": "fw_general", "algorithm": "fw_general", "t_cap": 30,
         "gaussian_width": 2.0, **common},
        {"id": "noisy_md", "algorithm": "noisy_md", "t_cap": 30, "gaussian_width": 2.0,
         "potential": {"kind": "squared_l2"}, **common},
        {"id": "obj_pert", "algorithm": "obj_pert", **common},
    ]


def spec_for(p: int, solvers: list[dict], seeds, parallelism: int = 1,
             n: int = 600) -> ExperimentSpec:
    return ExperimentSpec(solvers=solvers, n_sweep=[n], seeds=list(seeds),
                          dataset={"generator": {"p": p, "sparsity": 3, "noise_level": 0.1,
                                                 "data_seed": 4}},
                          parallelism=parallelism)


def without_wall_time(records):
    return [(r.solver, r.n, r.seed, r.excess_risk, r.optimum, r.T, r.sigma,
             r.laplace_scale) for r in records]


class TestDimensionMismatch:
    def test_run_solver_names_both_dimensions(self, monkeypatch):
        data = generate_lasso(40, 6, 2, 0.1, seed=3)

        def no_memo(self, key, compute):
            raise AssertionError(f"statistic {key!r} computed before the check")

        monkeypatch.setattr(Dataset, "_memo", no_memo)
        for algorithm in ("fw_polytope", "fw_general", "obj_pert"):
            cfg = SolverConfig(algorithm=algorithm, body=L1Ball(1.0, 5), loss=SquaredError(),
                               budget=PrivacyBudget(1.0, 1e-6), T=5)
            with pytest.raises(ValueError, match=r"body dimension 5 .* p = 6"):
                run_solver(cfg, data)

    def test_sweep_records_the_failure(self):
        solvers = [{**doc, "body": {**doc["body"], "dimension": 5}}
                   for doc in lasso_configs(6)[:1]]
        records, failures = run_sweep(spec_for(6, solvers, [0]))
        assert records == []
        assert len(failures) == 1
        assert "body dimension 5 does not match the data dimension p = 6" \
            in failures[0]["error"]


class TestRidgeDocument:
    def test_strongly_convex_md_and_obj_pert_run(self):
        # A ridge loss from a document reaches the strongly convex solver.
        common = {"body": {"kind": "l2_ball", "radius": 1.0, "dimension": 6},
                  "loss": {"kind": "squared_error", "ridge": 0.5}, "budget": BUDGET}
        solvers = [
            {"id": "sc_md", "algorithm": "strongly_convex_md", "t_cap": 30,
             "gaussian_width": 2.0, "potential": {"kind": "squared_l2"}, **common},
            {"id": "obj_pert", "algorithm": "obj_pert", **common},
        ]
        records, failures = run_sweep(spec_for(6, solvers, [0, 1]))
        assert failures == []
        assert sorted((r.solver, r.seed) for r in records) == [
            ("obj_pert", 0), ("obj_pert", 1), ("sc_md", 0), ("sc_md", 1)]


class TestParallelSweep:
    def test_shared_statistics_under_threads(self, monkeypatch):
        # More workers than processors, every cell on one dataset: each
        # statistic must still be computed exactly once per dataset, and
        # the records must not depend on the worker count.  At n = 20000
        # hashing and the BLAS calls take long enough, with the GIL
        # released, for the cells to overlap inside them.
        computed = Counter()
        memo = Dataset._memo

        def counting(self, key, compute):
            def counted():
                computed[id(self), key] += 1
                return compute()

            return memo(self, key, counted)

        monkeypatch.setattr(Dataset, "_memo", counting)
        outcome = {}

        def sweep(parallelism):
            computed.clear()
            with oracle._cache_lock:
                oracle._cache.clear()
            records, failures = run_sweep(spec_for(50, lasso_configs(50), range(6), parallelism,
                                                  n=20_000))
            return records, failures, dict(computed)

        def both():
            outcome["serial"] = sweep(1)
            outcome["threads"] = sweep(4)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=both, daemon=True)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive(), "parallel sweep did not finish within 120 s"
        for name in ("serial", "threads"):
            records, failures, counts = outcome[name]
            assert failures == [] and len(records) == 24
            keys = {key for _, key in counts}
            assert {"fingerprint", "gram", "row_sq_norms"} <= keys
            assert set(counts.values()) == {1}, counts
        assert without_wall_time(outcome["threads"][0]) == without_wall_time(outcome["serial"][0])
