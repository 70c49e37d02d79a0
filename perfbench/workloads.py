"""The benchmark's workloads: sweep documents built from the workload seed.

A workload is a list of sweeps.  Each sweep is the JSON document that
``dperm bench`` reads (solver configs, n values, seeds and a dataset
generator), so the program receives only generated inputs; the workload
seed itself never reaches it.  The same seed gives the same documents.
"""

from __future__ import annotations

import numpy as np

EPS = 1.0
DELTA = 1e-6
BUDGET = {"epsilon": EPS, "delta": DELTA}
SQ = {"kind": "squared_error"}

P_LASSO = 50
LARGE_N = 200_000
LARGE_T = 48
MANY_SEED_NS = [1000, 2000, 4000]
MANY_SEEDS = 32
MIX_P = 20
MIX_NS = [2000, 4000, 8000]
# The q-norm mirror step bisects 200 times per step (about 2 ms at 48
# vertices), so the polytopes run at the smaller sizes.
MIX_POLYTOPE_NS = [1000, 2000]
# One solver seed per config, so that most oracle lookups miss the cache.
MIX_SEEDS = 1

# The capped objective-perturbation instance: fixed inputs, independent of
# the workload seed, so its failure repeats on every run.
BOX_N = 100
BOX_DATA_SEED = 5
BOX_SOLVER_SEED = 1


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2 ** 31, size=count)]


def _lasso_solvers(body: dict, fixed_t: int | None) -> list[dict]:
    """The four LASSO configs.  With ``fixed_t``, fw_polytope gets it as an
    explicit T and the two width-based solvers get it as ``t_cap``: their
    default formula (width Monte Carlo included) still runs and resolves far
    above the cap at the large n this is used for."""
    fw_poly = {"id": "fw_polytope", "algorithm": "fw_polytope", "body": body,
               "loss": SQ, "budget": BUDGET}
    fw_gen = {"id": "fw_general", "algorithm": "fw_general", "body": body,
              "loss": SQ, "budget": BUDGET}
    md = {"id": "noisy_md", "algorithm": "noisy_md", "body": body, "loss": SQ,
          "budget": BUDGET, "potential": {"kind": "squared_l2"}}
    op = {"id": "obj_pert", "algorithm": "obj_pert", "body": body, "loss": SQ,
          "budget": BUDGET}
    if fixed_t is not None:
        fw_poly["T"] = fixed_t
        fw_gen["t_cap"] = fixed_t
        md["t_cap"] = fixed_t
    return [fw_poly, fw_gen, md, op]


def _generator(p: int, data_seed: int, **extra) -> dict:
    return {"generator": {"p": p, "sparsity": 5, "noise_level": 0.1,
                          "l1_norm": 0.9, "data_seed": data_seed, **extra}}


def lasso_large_n(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 1])
    body = {"kind": "l1_ball", "radius": 1.0, "dimension": P_LASSO}
    return [{"name": "lasso_large_n",
             "solvers": _lasso_solvers(body, LARGE_T),
             "n_sweep": [LARGE_N], "seeds": _seeds(rng, 2),
             "dataset": _generator(P_LASSO, _seeds(rng, 1)[0])}]


def lasso_many_seeds(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    body = {"kind": "l1_ball", "radius": 1.0, "dimension": P_LASSO}
    return [{"name": "lasso_many_seeds",
             "solvers": _lasso_solvers(body, None),
             "n_sweep": list(MANY_SEED_NS), "seeds": _seeds(rng, MANY_SEEDS),
             "dataset": _generator(P_LASSO, _seeds(rng, 1)[0])}]


def _directions(p: int) -> np.ndarray:
    """Four fixed directions of l1 norm 1: all ones, alternating signs,
    half plus and half minus, and a ramp 1..p."""
    idx = np.arange(p)
    rows = np.stack([np.ones(p), (-1.0) ** idx, np.where(idx < p // 2, 1.0, -1.0),
                     idx + 1.0])
    return rows / np.abs(rows).sum(axis=1, keepdims=True)


def symmetric_polytope(p: int) -> np.ndarray:
    """The cross-polytope +-e_i and the pairs +-2 v_j of ``_directions``
    (l1 norm 2, so they stick out of the cross-polytope as vertices)."""
    eye, v = np.eye(p), 2.0 * _directions(p)
    return np.vstack([eye, -eye, v, -v])


def asymmetric_polytope(p: int) -> np.ndarray:
    """The corners e_i, the shrunken opposite corners -e_i / 2 and the
    points -v_j of ``_directions``: full-dimensional, holds the origin in
    its interior, and is not centrally symmetric."""
    eye = np.eye(p)
    return np.vstack([eye, -0.5 * eye, -_directions(p)])


def geometry_mix(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 3])
    p = MIX_P
    # Fixed vertex lists: the seed varies the data and the noise, not the
    # bodies, so the q-norm step counts stay comparable across seeds.
    sym = {"kind": "polytope", "vertices": symmetric_polytope(p).tolist()}
    asym = {"kind": "polytope", "vertices": asymmetric_polytope(p).tolist()}
    simplex = {"kind": "simplex", "dimension": p}
    grouped = {"kind": "grouped_l1_ball", "radius": 1.0, "group_size": 4,
               "dimension": p}
    l2 = {"kind": "l2_ball", "radius": 1.0, "dimension": p}
    box = {"kind": "box", "lo": [-5.0] * p, "hi": [5.0] * p}
    huber = {"kind": "huber", "delta": 0.5}

    # noisy_md gets a fixed T: its default T follows the data's Lipschitz
    # constant (a maximum over records) and would change the mix of cheap
    # entropy steps and costly q-norm steps from seed to seed.
    def md(tag, body, potential, T):
        return {"id": f"noisy_md_{tag}", "algorithm": "noisy_md", "body": body,
                "loss": SQ, "budget": BUDGET, "potential": potential, "T": T}

    seeds = _seeds(rng, MIX_SEEDS)
    data_seeds = _seeds(rng, 4)
    sweeps = [
        {"name": "simplex_entropy",
         "solvers": [md("entropy", simplex, {"kind": "negative_entropy"}, 1000)],
         "dataset": _generator(p, data_seeds[0], nonneg=True)},
        {"name": "symmetric_polytope",
         "solvers": [md("qnorm_sym", sym, {"kind": "polytope_q_norm"}, 150),
                     {"id": "fw_polytope_sym", "algorithm": "fw_polytope",
                      "body": sym, "loss": SQ, "budget": BUDGET},
                     {"id": "obj_pert_sym", "algorithm": "obj_pert", "body": sym,
                      "loss": SQ, "budget": BUDGET}],
         "n_sweep": list(MIX_POLYTOPE_NS),
         "dataset": _generator(p, data_seeds[1])},
        {"name": "asymmetric_polytope",
         "solvers": [md("qnorm_asym", asym, {"kind": "polytope_q_norm"}, 150)],
         "n_sweep": list(MIX_POLYTOPE_NS),
         "dataset": _generator(p, data_seeds[1])},
        {"name": "grouped_l1",
         "solvers": [md("grouped", grouped,
                        {"kind": "grouped_l1", "group_size": 4}, 400)],
         "dataset": _generator(p, data_seeds[2])},
        # l2 ball of radius 1 holds the planted model (||.||_2 <= ||.||_1 = 0.9)
        # and the noisy data keep f* > 0: an interior optimum with f* > 0.
        {"name": "huber_l2_interior",
         "solvers": [{"id": "fw_general_huber", "algorithm": "fw_general",
                      "body": l2, "loss": huber, "budget": BUDGET}],
         "dataset": _generator(p, data_seeds[3])},
    ]
    for s in sweeps:
        s.setdefault("n_sweep", list(MIX_NS))
        s.setdefault("seeds", list(seeds))
    sweeps.append(
        {"name": "box_obj_pert_capped",
         "solvers": [{"id": "obj_pert_box", "algorithm": "obj_pert", "body": box,
                      "loss": SQ, "budget": BUDGET}],
         "n_sweep": [BOX_N], "seeds": [BOX_SOLVER_SEED],
         "dataset": _generator(p, BOX_DATA_SEED)})
    return sweeps


# BLAS threads per workload, capped at the processors a run may use.  The
# large-n gradient passes gain from a second thread.  At small n the BLAS
# calls are too small to split, and an idle OpenBLAS thread spin-waits on
# the second processor: on the 2-processor reference machine the
# Python-bound workloads ran slower and spread wider with two threads.
BLAS_THREADS = {"lasso_large_n": 2, "lasso_many_seeds": 1, "geometry_mix": 1}

WORKLOADS = {
    "lasso_large_n": lasso_large_n,
    "lasso_many_seeds": lasso_many_seeds,
    "geometry_mix": geometry_mix,
}
