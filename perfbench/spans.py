"""Spans around the calls into each ``dperm`` module, for the traced run.

``Tracer.install`` replaces each traced function with a wrapper at the
place its caller looks it up: a module attribute such as
``dperm.solvers.report_noisy_min`` or ``dperm.harness.cached_solve``, or a
method on the class that defines it, such as ``L1Ball.lmo``.  Each call
records a span (name, start, end, parent) in flat arrays kept in memory;
``write`` saves them when the run ends and ``layer_metrics`` derives self
times, per-parent counts and the per-layer metrics from them.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# Potential class -> its kind in a config document.
POTENTIAL_KINDS = {
    "SquaredL2": "squared_l2",
    "NegativeEntropy": "negative_entropy",
    "PolytopeQNorm": "polytope_q_norm",
    "GroupedL1": "grouped_l1",
}
ALGORITHMS = ("noisy_md", "fw_polytope", "fw_general", "obj_pert")
CONSTANTS = ("lipschitz_constants", "curvature_bound", "hessian_eig_bounds")


def unit_of(metric: str) -> str:
    if metric.endswith(".gb_computed"):
        return "GB"
    if metric.endswith((".s", "_s")):
        return "s"
    return "count"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.grad_bytes = 0
        self.obj_pert_inner_iters = 0
        self.obj_pert_certified = 0

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap_grad(self, fn):
        name_id = self._id("losses.grad")

        def traced(loss, theta, data):
            self.grad_bytes += 2 * data.n * data.p * 8
            idx = self._open(name_id)
            try:
                return fn(loss, theta, data)
            finally:
                self._close(idx)

        return traced

    def _wrap_run_solver(self, fn):
        def traced(cfg, data):
            idx = self._open(self._id(f"solvers.run_solver.{cfg.algorithm}"))
            try:
                report = fn(cfg, data)
            finally:
                self._close(idx)
            if cfg.algorithm == "obj_pert":
                self.obj_pert_inner_iters += report.iterations
                self.obj_pert_certified += bool(report.extras.get("inner_converged"))
            return report

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import dperm.geometry as geometry
        import dperm.harness as harness
        import dperm.losses as losses
        import dperm.oracle as oracle
        import dperm.potentials as potentials
        import dperm.solvers as solvers

        self._patch(losses.LossSpec, "grad", self._wrap_grad(losses.LossSpec.grad))
        self._patch(losses.LossSpec, "loss", self._wrap("losses.loss", losses.LossSpec.loss))
        for cls in (losses.SquaredError, losses.Huber, losses.CustomLoss):
            for attr in CONSTANTS:
                if attr in cls.__dict__:
                    self._patch(cls, attr, self._wrap(f"losses.{attr}", cls.__dict__[attr]))
        for cls in (geometry.L2Ball, geometry.L1Ball, geometry.Simplex, geometry.Polytope,
                    geometry.GroupedL1Ball, geometry.Box):
            for attr in ("lmo", "euclidean_project", "contains"):
                if attr in cls.__dict__:
                    self._patch(cls, attr, self._wrap(f"geometry.{attr}", cls.__dict__[attr]))
        for cls_name, kind in POTENTIAL_KINDS.items():
            cls = getattr(potentials, cls_name)
            self._patch(cls, "mirror_step",
                        self._wrap(f"potentials.mirror_step.{kind}", cls.__dict__["mirror_step"]))
        for module, attr, name in (
            (solvers, "resolve_defaults", "solvers.resolve_defaults"),
            (solvers, "gaussian_width_mc", "geometry.gaussian_width_mc"),
            (solvers, "symmetric_hull", "geometry.symmetric_hull"),
            (potentials, "symmetric_hull", "geometry.symmetric_hull"),
            (solvers, "report_noisy_min", "privacy.report_noisy_min"),
            (solvers, "sample_gaussian_vec", "privacy.sample_gaussian_vec"),
            (oracle, "solve_exact", "oracle.solve_exact"),
            (harness, "cached_solve", "oracle.cached_solve"),
            (harness, "excess_risk", "oracle.excess_risk"),
            (harness, "generate_lasso", "harness.generate_lasso"),
            (harness, "run_sweep", "harness.run_sweep"),
        ):
            self._patch(module, attr, self._wrap(name, module.__dict__[attr]))
        self._patch(harness, "run_solver", self._wrap_run_solver(harness.__dict__["run_solver"]))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        """Save the spans: ``names[name_id[i]]`` ran from ``start[i]`` to
        ``end[i]`` (perf_counter seconds) inside span ``parent[i]`` (-1: none)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        a = self.arrays()
        name_id, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        k = len(self.names)
        has_parent = parent >= 0
        self_time = _self_times(parent, dur)

        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        own = np.bincount(name_id, weights=self_time, minlength=k)

        def ids(prefix):
            return [i for i, nm in enumerate(self.names)
                    if nm == prefix or nm.startswith(prefix + ".")]

        def n_calls(prefix):
            return int(sum(calls[i] for i in ids(prefix)))

        def secs(prefix, table=total):
            return float(sum(table[i] for i in ids(prefix)))

        # Which spans run under solve_exact / run_solver (any depth).
        solve_id = self._ids.get("oracle.solve_exact", -2)
        solver_ids = set(ids("solvers.run_solver"))
        under_solve = np.zeros(len(dur), dtype=bool)
        under_solver = np.zeros(len(dur), dtype=bool)
        for i in range(len(dur)):  # parents precede their children
            p = parent[i]
            if p >= 0:
                under_solve[i] = under_solve[p] or name_id[p] == solve_id
                under_solver[i] = under_solver[p] or name_id[p] in solver_ids
        grad_id = self._ids.get("losses.grad", -2)
        is_grad = name_id == grad_id

        # A cached_solve span with no solve_exact child is a cache hit.
        cached_id = self._ids.get("oracle.cached_solve", -2)
        is_cached = name_id == cached_id
        missed = np.zeros(len(dur), dtype=bool)
        solve_spans = name_id == solve_id
        missed[parent[solve_spans & has_parent]] = True
        hits = is_cached & ~missed

        out = {
            "losses.grad.calls": n_calls("losses.grad"),
            "losses.grad.s": secs("losses.grad"),
            "losses.grad.gb_computed": self.grad_bytes / 1e9,
            "losses.loss.calls": n_calls("losses.loss"),
            "losses.loss.s": secs("losses.loss"),
            "losses.constants.calls": sum(n_calls(f"losses.{c}") for c in CONSTANTS),
            "losses.constants.s": sum(secs(f"losses.{c}") for c in CONSTANTS),
            "oracle.cached_solve.calls": n_calls("oracle.cached_solve"),
            "oracle.cached_solve.hits": int(hits.sum()),
            "oracle.cached_solve.hit_s": float(dur[hits].sum()),
            "oracle.solve_exact.calls": n_calls("oracle.solve_exact"),
            "oracle.solve_exact.s": secs("oracle.solve_exact"),
            "oracle.solve_exact.grad_calls": int((is_grad & under_solve).sum()),
            "oracle.excess_risk.s": secs("oracle.excess_risk"),
        }
        for layer in ("gaussian_width_mc", "lmo", "euclidean_project", "contains"):
            out[f"geometry.{layer}.calls"] = n_calls(f"geometry.{layer}")
            out[f"geometry.{layer}.s"] = secs(f"geometry.{layer}")
        out["geometry.symmetric_hull.calls"] = n_calls("geometry.symmetric_hull")
        out["potentials.mirror_step.calls"] = n_calls("potentials.mirror_step")
        out["potentials.mirror_step.s"] = secs("potentials.mirror_step")
        for kind in POTENTIAL_KINDS.values():
            out[f"potentials.mirror_step.{kind}.calls"] = n_calls(f"potentials.mirror_step.{kind}")
        for layer in ("report_noisy_min", "sample_gaussian_vec"):
            out[f"privacy.{layer}.calls"] = n_calls(f"privacy.{layer}")
            out[f"privacy.{layer}.s"] = secs(f"privacy.{layer}")
        out["solvers.resolve_defaults.s"] = secs("solvers.resolve_defaults")
        for alg in ALGORITHMS:
            out[f"solvers.run_solver.{alg}.s"] = secs(f"solvers.run_solver.{alg}")
        out["solvers.loop_self.s"] = secs("solvers.run_solver", own)
        out["solvers.run_solver.grad_calls"] = int((is_grad & under_solver).sum())
        out["solvers.obj_pert.inner_iters"] = self.obj_pert_inner_iters
        out["solvers.obj_pert.inner_certified"] = self.obj_pert_certified
        out["harness.generate_lasso.s"] = secs("harness.generate_lasso")
        out["harness.run_sweep.self_s"] = secs("harness.run_sweep", own)
        out["trace.spans"] = len(dur)
        return out


def _self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its child spans."""
    has_parent = parent >= 0
    child_time = np.zeros(len(dur))
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    return dur - child_time


def summarize(path) -> list[tuple[str, int, float, float]]:
    """(name, calls, total s, self s) per span name of a saved spans file."""
    z = np.load(path)
    names, name_id = z["names"], z["name_id"]
    dur = z["end"] - z["start"]
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=dur, minlength=k)
    own = np.bincount(name_id, weights=_self_times(z["parent"], dur), minlength=k)
    return sorted(((str(names[i]), int(calls[i]), float(total[i]), float(own[i]))
                   for i in range(k)), key=lambda row: -row[3])


if __name__ == "__main__":
    import sys

    print(f"{'span':45s} {'calls':>9s} {'total s':>9s} {'self s':>9s}")
    for name, n, tot, own in summarize(sys.argv[1]):
        print(f"{name:45s} {n:9d} {tot:9.4f} {own:9.4f}")
