import sys
import threading
from collections import Counter

import numpy as np
import pytest

import dperm.geometry as geometry
import dperm.oracle as oracle
import dperm.solvers as solvers
from dperm.geometry import L1Ball, body_key
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
        {"id": "fw_general", "algorithm": "fw_general", "t_cap": 30, **common},
        {"id": "noisy_md", "algorithm": "noisy_md", "t_cap": 30,
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


class TestConfigDocument:
    def test_unknown_key_fails_its_cells_by_name(self):
        solvers = [{**lasso_configs(6)[1], "gaussian_width": 2.0}]
        records, failures = run_sweep(spec_for(6, solvers, [0, 1]))
        assert records == [] and len(failures) == 2
        assert all("unknown solver config key(s) ['gaussian_width']" in f["error"]
                   for f in failures)

    def test_missing_keys_fail_by_kind_and_name(self):
        base = lasso_configs(6)
        body = {k: v for k, v in base[0]["body"].items() if k != "dimension"}
        solvers = [
            {**base[0], "body": body},
            {**base[2], "id": "grouped", "body": {"kind": "grouped_l1_ball", "radius": 1.0,
                                                  "group_size": 2, "dimension": 6},
             "potential": {"kind": "grouped_l1"}},
            *({"id": f"no_{key}", **{k: v for k, v in base[1].items() if k not in (key, "id")}}
              for key in ("algorithm", "body", "loss")),
        ]
        records, failures = run_sweep(spec_for(6, solvers, [0, 1]))
        assert records == [] and len(failures) == 2 * len(solvers)
        expected = {
            "fw_polytope": "l1_ball body document has no 'dimension' key",
            "grouped": "grouped_l1 potential document has no 'group_size' key",
            "no_algorithm": "solver config document has no 'algorithm' key",
            "no_body": "solver config document has no 'body' key",
            "no_loss": "solver config document has no 'loss' key",
        }
        assert {(f["solver"], f["error"]) for f in failures} == set(expected.items())

    def test_sweep_and_cli_keys_are_accepted(self):
        doc = {**lasso_configs(6)[0], "lasso_profile": True}
        assert SolverConfig.from_dict(doc).T == 30


class TestWidthMemo:
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_width_runs_once_per_body(self, monkeypatch, parallelism):
        # fw_general needs the width of the l1 ball and noisy_md that of its
        # squared-l2 body; 8 seeds of each share the two estimates.
        calls = Counter()
        real = solvers.gaussian_width_mc

        def counting(body, samples, seed):
            calls[body_key(body)] += 1
            return real(body, samples, seed)

        monkeypatch.setattr(solvers, "gaussian_width_mc", counting)
        monkeypatch.setattr(geometry, "_body_memo", geometry.Memo())  # as in a fresh process
        records, failures = run_sweep(spec_for(8, lasso_configs(8)[1:3], range(8),
                                               parallelism))
        assert failures == [] and len(records) == 16
        assert len(calls) == 2 and set(calls.values()) == {1}, calls


class TestRidgeDocument:
    def test_strongly_convex_md_and_obj_pert_run(self):
        # A ridge loss from a document reaches the strongly convex solver.
        common = {"body": {"kind": "l2_ball", "radius": 1.0, "dimension": 6},
                  "loss": {"kind": "squared_error", "ridge": 0.5}, "budget": BUDGET}
        solvers = [
            {"id": "sc_md", "algorithm": "strongly_convex_md", "t_cap": 30,
             "potential": {"kind": "squared_l2"}, **common},
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
