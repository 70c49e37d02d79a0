import dataclasses
import gc
import json
import math
import re
import tracemalloc
import types
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import dperm.geometry as geometry
import dperm.harness as harness
import dperm.solvers as solvers
from dperm.geometry import GroupedL1Ball, L1Ball, body_from_dict, body_key
from dperm.harness import ExperimentSpec, generate_lasso, run_sweep
from dperm.losses import Dataset, SquaredError, loss_from_dict
from dperm.potentials import potential_from_dict
from dperm.privacy import PrivacyBudget
from dperm.solvers import SolverConfig, run_solver

from conftest import write_data_csv

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


def spec_for(p: int, solvers: list[dict], seeds, n: int = 600) -> ExperimentSpec:
    return ExperimentSpec(solvers=solvers, n_sweep=[n], seeds=list(seeds),
                          dataset={"generator": {"p": p, "sparsity": 3, "noise_level": 0.1,
                                                 "data_seed": 4}})


def sweep_doc(**changes) -> dict:
    """A one-cell sweep document as ``dperm bench`` reads it."""
    return {"name": "lasso", "solvers": lasso_configs(6)[:1], "n_sweep": [200], "seeds": [0],
            "dataset": {"generator": {"p": 6, "sparsity": 3, "noise_level": 0.1,
                                      "data_seed": 4}}, **changes}


def load_sweep(tmp_path, doc: dict) -> ExperimentSpec:
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    return ExperimentSpec.from_json(path)


def with_generator(**changes) -> dict:
    doc = sweep_doc()
    doc["dataset"]["generator"].update(changes)
    return doc


def write_csv(tmp_path) -> str:
    """A 300-row lasso-domain data file at p = 6."""
    return write_data_csv(tmp_path / "data.csv", generate_lasso(300, 6, 3, 0.1, seed=4))


class TestDimensionMismatch:
    def test_run_solver_names_both_dimensions(self, monkeypatch):
        data = generate_lasso(40, 6, 2, 0.1, seed=3)

        def no_memo(self, key, compute):
            raise AssertionError(f"statistic {key!r} computed before the check")

        monkeypatch.setattr(Dataset, "_memo", no_memo)
        for algorithm in ("fw_polytope", "fw_general", "obj_pert"):
            cfg = SolverConfig(algorithm=algorithm, body=L1Ball(1.0, 5), loss=SquaredError(),
                               budget=PrivacyBudget(1.0, 1e-6),
                               T=0 if algorithm == "obj_pert" else 5)
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
    def test_unknown_key_is_refused_by_name(self):
        q_body = {"kind": "l2_ball", "radius": 1.0, "dimension": 6}
        for key, value in (("gaussian_width", 2.0), ("q_body", q_body),
                           ("step_rule", "theorem"), ("step_size", 0.1)):
            solvers = [{**lasso_configs(6)[1], key: value}]
            with pytest.raises(ValueError, match=rf"solver config 'fw_general': unknown "
                                                 rf"solver config key\(s\) \[{key!r}\]"):
                spec_for(6, solvers, [0, 1])

    def test_missing_keys_are_refused_by_kind_and_name(self):
        base = lasso_configs(6)
        body = {k: v for k, v in base[0]["body"].items() if k != "dimension"}
        cases = [
            ({**base[0], "body": body}, "l1_ball body document has no 'dimension' key"),
            ({**base[2], "id": "grouped", "body": {"kind": "grouped_l1_ball", "radius": 1.0,
                                                   "group_size": 2, "dimension": 6},
              "potential": {"kind": "grouped_l1"}},
             "grouped_l1 potential document has no 'group_size' key"),
            *(({"id": f"no_{key}", **{k: v for k, v in base[1].items() if k not in (key, "id")}},
               f"solver config document has no {key!r} key")
              for key in ("algorithm", "body", "loss", "budget")),
        ]
        for doc, message in cases:
            with pytest.raises(ValueError) as info:
                spec_for(6, [base[3], doc], [0, 1])
            assert str(info.value) == f"solver config {doc['id']!r}: {message}"

    def test_a_config_that_cannot_run_is_refused_before_any_data(self, monkeypatch):
        # One bad document used to fail each of its cells, after the data of
        # every n had been generated.
        def no_data(*args, **kwargs):
            raise AssertionError("a dataset was generated")

        monkeypatch.setattr(harness, "generate_lasso", no_data)
        for bad in ({"algorithm": "nosuch"}, {"potential": {"kind": "squared_l2"}},
                    {"T": 5}):
            solvers = [lasso_configs(6)[0], {**lasso_configs(6)[3], **bad}]
            with pytest.raises(ValueError, match=r"^solver config 'obj_pert': "):
                ExperimentSpec(solvers=solvers, n_sweep=[200, 400], seeds=[0, 1, 2],
                               dataset={"generator": {"p": 6}})

    def test_sweep_and_cli_keys_are_accepted(self):
        doc = {**lasso_configs(6)[0], "lasso_profile": True}
        assert SolverConfig.from_dict(doc).T == 30


# One valid document per kind, with the body a potential is bound to.
BODY_DOCS = {
    "l2_ball": {"kind": "l2_ball", "radius": 1.0, "dimension": 4},
    "l1_ball": {"kind": "l1_ball", "radius": 1.0, "dimension": 4},
    "simplex": {"kind": "simplex", "dimension": 4},
    "polytope": {"kind": "polytope", "vertices": np.eye(4).tolist()},
    "grouped_l1_ball": {"kind": "grouped_l1_ball", "radius": 1.0, "group_size": 2,
                        "dimension": 4},
    "box": {"kind": "box", "lo": [-1.0] * 4, "hi": [1.0] * 4},
}
LOSS_DOCS = {
    "squared_error": {"kind": "squared_error", "ridge": 0.3},
    "huber": {"kind": "huber", "delta": 0.5},
}
POTENTIAL_DOCS = {
    "squared_l2": ({"kind": "squared_l2"}, "l2_ball"),
    "negative_entropy": ({"kind": "negative_entropy"}, "simplex"),
    "polytope_q_norm": ({"kind": "polytope_q_norm"}, "polytope"),
    "grouped_l1": ({"kind": "grouped_l1", "group_size": 2}, "grouped_l1_ball"),
}
# Keys that some document kind reads or used to read.
STRAY_KEYS = ("center", "q", "ridge")


def document_builds():
    """(label, document, build) for every body, loss and potential kind."""
    for kind, doc in BODY_DOCS.items():
        yield f"{kind} body", doc, body_from_dict
    for kind, doc in LOSS_DOCS.items():
        yield f"{kind} loss", doc, loss_from_dict
    for kind, (doc, body_kind) in POTENTIAL_DOCS.items():
        body = body_from_dict(BODY_DOCS[body_kind])
        yield f"{kind} potential", doc, lambda d, body=body: potential_from_dict(d, body)


DOCUMENT_BUILDS = [pytest.param(*case, id=case[0]) for case in document_builds()]


class TestDocumentKeys:
    def test_every_body_kind_is_covered(self):
        assert set(BODY_DOCS) == set(geometry._KIND_TAGS)

    @pytest.mark.parametrize("label,doc,build", DOCUMENT_BUILDS)
    def test_unknown_key_is_rejected_by_name(self, label, doc, build):
        build(doc)
        stray = [k for k in STRAY_KEYS if k not in doc]
        with pytest.raises(ValueError, match=re.escape(f"unknown {label} key(s) {stray}")):
            build({**doc, **dict.fromkeys(stray, 0.3)})

    @pytest.mark.parametrize("label,doc,build", DOCUMENT_BUILDS)
    def test_a_kind_that_is_not_a_string_is_rejected(self, label, doc, build):
        # A list raised TypeError (unhashable) where it was looked up.
        what = label.split()[-1]
        for kind in ([doc["kind"]], 3, None):
            with pytest.raises(ValueError, match=re.escape(f"unknown {what} kind {kind!r}; "
                                                           "expected one of")):
                build({**doc, "kind": kind})

    def test_missing_huber_delta_names_the_key(self):
        with pytest.raises(ValueError, match="huber loss document has no 'delta' key"):
            loss_from_dict({"kind": "huber"})

    def test_benchmark_documents_are_accepted(self, tmp_path):
        # Every key the benchmark's workloads send, in the solver configs
        # and in each whole sweep document.
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        workloads = types.ModuleType("perfbench_workloads")
        exec(compile(path.read_text(), str(path), "exec"), workloads.__dict__)
        for make in workloads.WORKLOADS.values():
            for sweep in make(7):
                for doc in sweep["solvers"]:
                    SolverConfig.from_dict({**doc, "seed": 0})
                spec = load_sweep(tmp_path, sweep)
                assert (spec.n_sweep, spec.seeds) == (sweep["n_sweep"], sweep["seeds"])


# (kind, key, value, build): ``build(value, tmp_path)`` reads the value as
# the key of a document of that kind.
INTEGER_CASES = [
    ("l1_ball body", "dimension", 3.6, lambda v, tmp: body_from_dict(
        {**BODY_DOCS["l1_ball"], "dimension": v})),
    ("simplex body", "dimension", True, lambda v, tmp: body_from_dict(
        {**BODY_DOCS["simplex"], "dimension": v})),
    ("grouped_l1_ball body", "group_size", 2.5, lambda v, tmp: body_from_dict(
        {**BODY_DOCS["grouped_l1_ball"], "group_size": v})),
    ("grouped_l1 potential", "group_size", 2.0, lambda v, tmp: potential_from_dict(
        {"kind": "grouped_l1", "group_size": v}, GroupedL1Ball(1.0, 2, 4))),
    ("sweep", "n_sweep", 100.7, lambda v, tmp: load_sweep(tmp, sweep_doc(n_sweep=[v]))),
    ("sweep", "seeds", 1.5, lambda v, tmp: load_sweep(tmp, sweep_doc(seeds=[v, 2.9]))),
    ("generator", "p", 3.6, lambda v, tmp: run_sweep(load_sweep(tmp, with_generator(p=v)))),
    ("generator", "sparsity", 2.5,
     lambda v, tmp: run_sweep(load_sweep(tmp, with_generator(sparsity=v)))),
    ("generator", "data_seed", 1.5,
     lambda v, tmp: run_sweep(load_sweep(tmp, with_generator(data_seed=v)))),
    # A spec built directly, as the benchmark builds its own, reads the same.
    pytest.param("sweep", "n_sweep", 10.5,
                 lambda v, tmp: spec_for(6, lasso_configs(6)[:1], [0], n=v), id="spec-n_sweep"),
    pytest.param("sweep", "seeds", 0.5,
                 lambda v, tmp: spec_for(6, lasso_configs(6)[:1], [v]), id="spec-seeds"),
]

# (kind, key, value, build) as above, for the boolean flags.
BOOLEAN_CASES = [
    ("generator", "nonneg", "false",
     lambda v, tmp: run_sweep(load_sweep(tmp, with_generator(nonneg=v)))),
    ("generator", "nonneg", 1,
     lambda v, tmp: run_sweep(load_sweep(tmp, with_generator(nonneg=v)))),
    ("dataset", "lasso_profile", "false", lambda v, tmp: run_sweep(load_sweep(
        tmp, sweep_doc(dataset={"path": write_csv(tmp), "lasso_profile": v})))),
    ("dataset", "lasso_profile", 0, lambda v, tmp: run_sweep(load_sweep(
        tmp, sweep_doc(dataset={"path": write_csv(tmp), "lasso_profile": v})))),
]

# (kind, key, value, build) as above, for the real numbers.
NUMBER_CASES = [
    ("l1_ball body", "radius", "0.5", lambda v, tmp: body_from_dict(
        {**BODY_DOCS["l1_ball"], "radius": v})),
    ("l2_ball body", "radius", math.nan, lambda v, tmp: body_from_dict(
        {**BODY_DOCS["l2_ball"], "radius": v})),
    ("grouped_l1_ball body", "radius", math.inf, lambda v, tmp: body_from_dict(
        {**BODY_DOCS["grouped_l1_ball"], "radius": v})),
    ("squared_error loss", "ridge", "0.25", lambda v, tmp: loss_from_dict(
        {**LOSS_DOCS["squared_error"], "ridge": v})),
    ("huber loss", "delta", True, lambda v, tmp: loss_from_dict(
        {**LOSS_DOCS["huber"], "delta": v})),
    ("budget", "delta", "1e-5", lambda v, tmp: PrivacyBudget.from_dict(
        {"epsilon": 1.0, "delta": v})),
    ("generator", "noise_level", "0.1",
     lambda v, tmp: run_sweep(load_sweep(tmp, with_generator(noise_level=v)))),
    ("generator", "l1_norm", True,
     lambda v, tmp: run_sweep(load_sweep(tmp, with_generator(l1_norm=v)))),
    # The array keys are read entry by entry.
    ("box body", "lo", "-1", lambda v, tmp: body_from_dict(
        {**BODY_DOCS["box"], "lo": [v, -1.0, -1.0, -1.0]})),
    ("box body", "hi", True, lambda v, tmp: body_from_dict(
        {**BODY_DOCS["box"], "hi": [1.0, v, 1.0, 1.0]})),
    ("box body", "hi", math.inf, lambda v, tmp: body_from_dict(
        {**BODY_DOCS["box"], "hi": [1.0, 1.0, 1.0, v]})),
    ("polytope body", "vertices", "0", lambda v, tmp: body_from_dict(
        {"kind": "polytope", "vertices": [[1.0, v], [0.0, 1.0]]})),
    ("polytope body", "vertices", False, lambda v, tmp: body_from_dict(
        {"kind": "polytope", "vertices": [[1.0, 0.0], [v, 1.0]]})),
    ("polytope body", "vertices", math.nan, lambda v, tmp: body_from_dict(
        {"kind": "polytope", "vertices": [[1.0, 0.0], [0.0, v]]})),
]


# (kind, key, value, build) as above, for the strings.
STRING_CASES = [
    ("solver config 0", "id", [1], lambda v, tmp: load_sweep(
        tmp, sweep_doc(solvers=[{**lasso_configs(6)[0], "id": v}]))),
    # With ids of both types, every cell ran and then the sort of the records failed.
    ("solver config 1", "id", 1, lambda v, tmp: load_sweep(
        tmp, sweep_doc(solvers=[{**lasso_configs(6)[0], "id": "a"},
                                {**lasso_configs(6)[1], "id": v}]))),
    # Taken as a file descriptor, once every cell had run.
    ("sweep", "output", 7, lambda v, tmp: load_sweep(tmp, sweep_doc(output=v))),
]

# (kind, build): ``build(value, tmp_path)`` puts the value where a document
# of that kind belongs.
OBJECT_CASES = [
    ("body", lambda v, tmp: SolverConfig.from_dict({**lasso_configs(6)[0], "body": v})),
    ("loss", lambda v, tmp: SolverConfig.from_dict({**lasso_configs(6)[0], "loss": v})),
    ("potential", lambda v, tmp: SolverConfig.from_dict({**lasso_configs(6)[2],
                                                         "potential": v})),
    ("budget", lambda v, tmp: SolverConfig.from_dict({**lasso_configs(6)[0], "budget": v})),
    ("generator", lambda v, tmp: load_sweep(tmp, sweep_doc(dataset={"generator": v}))),
    ("dataset", lambda v, tmp: load_sweep(tmp, sweep_doc(dataset=v))),
    ("solver config 0", lambda v, tmp: load_sweep(tmp, sweep_doc(solvers=[v]))),
    ("sweep", lambda v, tmp: load_sweep(tmp, v)),
]


class TestSweepDocument:
    @pytest.mark.parametrize("kind,key,value,build", INTEGER_CASES,
                             ids=[getattr(case, "id", None) or f"{case[0]}-{case[1]}"
                                  for case in INTEGER_CASES])
    def test_a_count_that_is_not_an_integer_is_rejected(self, tmp_path, kind, key, value,
                                                        build):
        # Truncating it would run another sweep than the one written.
        with pytest.raises(ValueError,
                           match=re.escape(f"{kind} {key!r} must be an integer, got {value!r}")):
            build(value, tmp_path)

    @pytest.mark.parametrize("kind,key,value,build", BOOLEAN_CASES,
                             ids=[f"{kind}-{key}-{value!r}" for kind, key, value, _ in
                                  BOOLEAN_CASES])
    def test_a_flag_that_is_not_a_boolean_is_rejected(self, tmp_path, kind, key, value, build):
        # Read by truthiness, "false" would turn the flag on.
        with pytest.raises(ValueError,
                           match=re.escape(f"{kind} {key!r} must be a boolean, got {value!r}")):
            build(value, tmp_path)

    @pytest.mark.parametrize("kind,key,value,build", NUMBER_CASES,
                             ids=[f"{kind}-{key}-{value!r}" for kind, key, value, _ in
                                  NUMBER_CASES])
    def test_a_number_that_is_not_a_finite_real_is_rejected(self, tmp_path, kind, key, value,
                                                            build):
        # float() would read a string or a bool as a number, and a NaN
        # radius would fail only deep inside a run.
        with pytest.raises(ValueError, match=re.escape(
                f"{kind} {key!r} must be a finite number, got {value!r}")):
            build(value, tmp_path)

    @pytest.mark.parametrize("kind,key,value,build", STRING_CASES,
                             ids=[f"{kind}-{key}-{value!r}" for kind, key, value, _ in
                                  STRING_CASES])
    def test_a_name_that_is_not_a_string_is_rejected(self, tmp_path, kind, key, value, build):
        # When the spec is built, before any data or cell.
        with pytest.raises(ValueError,
                           match=re.escape(f"{kind} {key!r} must be a string, got {value!r}")):
            build(value, tmp_path)

    @pytest.mark.parametrize("path", [5, "missing.csv"], ids=["integer", "missing"])
    def test_a_path_that_names_no_file_is_rejected(self, tmp_path, path):
        # ``os.path.exists`` and ``open`` took an integer as a file descriptor.
        path = path if isinstance(path, int) else str(tmp_path / path)
        with pytest.raises(ValueError, match=re.escape(
                f"dataset 'path' must be the path of a file, got {path!r}")):
            load_sweep(tmp_path, sweep_doc(dataset={"path": path}))

    @pytest.mark.parametrize("value", [[1, 2], "squared_error"], ids=["list", "string"])
    @pytest.mark.parametrize("kind,build", OBJECT_CASES, ids=[kind for kind, _ in OBJECT_CASES])
    def test_a_document_that_is_not_an_object_is_rejected(self, tmp_path, kind, build, value):
        # Nested ones raised AttributeError on their first ``get``.
        with pytest.raises(ValueError, match=re.escape(
                f"{kind} document must be an object, got {value!r}")):
            build(value, tmp_path)

    def test_ragged_vertex_rows_are_named_as_such(self):
        # numpy keeps the rows of a ragged list whole, so an entry is a row,
        # not a number.
        doc = {"kind": "polytope", "vertices": [[1, 0], [0]]}
        with pytest.raises(ValueError, match=re.escape(
                "polytope body 'vertices' rows differ in length, got [[1, 0], [0]]")):
            body_from_dict(doc)

    def test_boolean_flags_are_read(self, tmp_path):
        for nonneg in (False, True):
            records, failures = run_sweep(load_sweep(tmp_path, with_generator(nonneg=nonneg)))
            assert failures == [] and len(records) == 1
        path = write_csv(tmp_path)
        for profile in (False, True):
            records, failures = run_sweep(load_sweep(
                tmp_path, sweep_doc(dataset={"path": path, "lasso_profile": profile})))
            assert failures == [] and len(records) == 1

    @pytest.mark.parametrize("kind,doc,stray", [
        ("sweep", sweep_doc(parallelism=2), "parallelism"),
        ("dataset", sweep_doc(dataset={**sweep_doc()["dataset"], "lasso_profile": True}),
         "lasso_profile"),
        ("generator", with_generator(noise_levl=0.5), "noise_levl"),
    ], ids=["sweep", "dataset", "generator"])
    def test_unknown_key_is_rejected_by_name(self, tmp_path, kind, doc, stray):
        # Ignoring it would run another sweep than the one written.
        with pytest.raises(ValueError, match=re.escape(f"unknown {kind} key(s) [{stray!r}]")):
            load_sweep(tmp_path, doc)

    def test_dataset_without_path_or_generator_names_the_key(self):
        with pytest.raises(ValueError, match="dataset document has no 'generator' key"):
            run_sweep(ExperimentSpec(solvers=lasso_configs(6)[:1], n_sweep=[200], seeds=[0],
                                     dataset={}))

    @pytest.mark.parametrize("n_sweep,seeds,message", [
        ([200, 0], [0], "every n must be >= 1, got 0"),
        ([-5], [0], "every n must be >= 1, got -5"),
        ([200], [3, -1], "every seed must be >= 0, got -1"),
    ])
    def test_an_n_below_one_or_a_negative_seed_is_refused(self, n_sweep, seeds, message):
        # When the spec is built, not by numpy in every cell or for the sweep.
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentSpec(solvers=lasso_configs(6)[:1], n_sweep=n_sweep, seeds=seeds,
                           dataset={"generator": {"p": 6}})

    @pytest.mark.parametrize("n_sweep,seeds,message", [
        ([200, 400, 200], [0], "the n 200 is listed twice"),
        ([200], [1, 1], "the seed 1 is listed twice"),
    ], ids=["n", "seed"])
    def test_a_repeated_n_or_seed_is_refused(self, n_sweep, seeds, message):
        # Repeats would run identical cells and count them as more seeds.
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentSpec(solvers=lasso_configs(6)[:1], n_sweep=n_sweep, seeds=seeds,
                           dataset={"generator": {"p": 6}})

    @pytest.mark.parametrize("key,value,low", [("data_seed", -2, 0), ("p", 0, 1), ("p", -3, 1)])
    def test_a_negative_data_seed_or_a_p_below_one_is_refused(self, key, value, low):
        # When the spec is built, naming the key; numpy's message names neither.
        with pytest.raises(ValueError,
                           match=re.escape(f"generator {key!r} must be >= {low}, got {value}")):
            ExperimentSpec(solvers=lasso_configs(6)[:1], n_sweep=[200], seeds=[0],
                           dataset={"generator": {"p": 6, key: value}})

    @pytest.mark.parametrize("changes,message", [
        ({"sparsity": "3"}, "generator 'sparsity' must be an integer, got '3'"),
        ({"sparsity": 9}, "need 1 <= sparsity <= p, got sparsity 9 at p = 6"),
        ({"l1_norm": 2.0}, "l1_norm must lie in (0, 1], got 2.0"),
        ({"nonneg": 1}, "generator 'nonneg' must be a boolean, got 1"),
        ({"noise_level": -1}, "noise level must be nonnegative, got -1.0"),
    ], ids=["sparsity-string", "sparsity-above-p", "l1_norm", "nonneg", "noise_level"])
    def test_generator_is_checked_when_the_spec_is_built(self, tmp_path, changes, message):
        # Not only inside ``run_sweep``, where these failed before.
        with pytest.raises(ValueError, match=re.escape(message)):
            load_sweep(tmp_path, with_generator(**changes))

    def test_file_lasso_profile_is_checked_when_the_spec_is_built(self, tmp_path):
        with pytest.raises(ValueError, match="dataset 'lasso_profile' must be a boolean"):
            load_sweep(tmp_path, sweep_doc(dataset={"path": write_csv(tmp_path),
                                                    "lasso_profile": "maybe"}))

    def test_solver_lasso_profile_is_refused(self, tmp_path):
        # A sweep reads the flag from its dataset document; in a solver
        # document it was ignored.
        doc = sweep_doc(solvers=[{**lasso_configs(6)[0], "lasso_profile": "maybe"}])
        with pytest.raises(ValueError, match=re.escape(
                "solver config 'fw_polytope' has a 'lasso_profile' key; "
                "a sweep reads it from the dataset document")):
            load_sweep(tmp_path, doc)

    def test_solver_seed_is_refused(self, tmp_path):
        # Each cell runs a seed of the sweep's list; a solver's own seed was
        # overwritten, so seed 5 over seeds [1] ran seed 1.
        doc = sweep_doc(solvers=[{**lasso_configs(6)[0], "seed": 5}], seeds=[1])
        with pytest.raises(ValueError, match=re.escape(
                "solver config 'fw_polytope' has a 'seed' key; "
                "a sweep runs each of its seeds")):
            load_sweep(tmp_path, doc)

    def test_replaced_spec_reads_its_own_dataset(self, tmp_path):
        # ``dperm bench`` replaces fields of a built spec.
        spec = load_sweep(tmp_path, sweep_doc())
        path = write_csv(tmp_path)
        replaced = dataclasses.replace(spec, dataset={"path": path}, seeds=[1])
        records, failures = run_sweep(replaced)
        assert failures == [] and [(r.n, r.seed) for r in records] == [(200, 1)]
        with pytest.raises(ValueError, match="generator 'sparsity'"):
            dataclasses.replace(spec, dataset=with_generator(sparsity=0.5)["dataset"])

    def test_repeated_solver_id_is_rejected(self):
        fw = lasso_configs(6)[0]
        with pytest.raises(ValueError, match="solver config 1 repeats the id 'fw_polytope'"):
            run_sweep(spec_for(6, [{**fw, "T": 5}, {**fw, "T": 7}], [0]))


class TestSweepData:
    def test_data_file_is_read_once_per_sweep(self, tmp_path, monkeypatch):
        # Each n takes the first n rows of one reading of the file.
        path = write_csv(tmp_path)
        reads = []
        real = Dataset.from_csv

        def counting(path, lasso_profile=False):
            reads.append(path)
            return real(path, lasso_profile=lasso_profile)

        monkeypatch.setattr(Dataset, "from_csv", counting)
        spec = ExperimentSpec(solvers=lasso_configs(6)[:1], n_sweep=[100, 200, 300], seeds=[0],
                              dataset={"path": path, "lasso_profile": True})
        records, failures = run_sweep(spec)
        assert failures == [] and [r.n for r in records] == [100, 200, 300]
        assert reads == [path]

    def test_generator_peak_is_the_data_and_one_block(self):
        # The lasso-domain check takes |x| one block of rows at a time; with
        # 8 192-row blocks it formed all of |X| at n = 2 000, twice X's bytes.
        tracemalloc.start()
        try:
            data = generate_lasso(n=2000, p=1000, sparsity=5, noise_level=0.1, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.X.nbytes + 4 * 2 ** 20

    def test_data_file_shorter_than_an_n_is_rejected(self, tmp_path):
        spec = ExperimentSpec(solvers=lasso_configs(6)[:1], n_sweep=[100, 400, 500], seeds=[0],
                              dataset={"path": write_csv(tmp_path)})
        with pytest.raises(ValueError, match="dataset file has 300 rows, cell requests 400"):
            run_sweep(spec)

    def test_no_solution_outlives_the_sweep(self, monkeypatch):
        # The oracle optimum lives in its dataset's memo: once the sweep
        # returns, nothing process-wide keeps the dataset or its solution.
        alive = []
        real = harness.cached_solve

        def tracking(body, loss, data):
            solution = real(body, loss, data)
            alive.extend((weakref.ref(solution), weakref.ref(data)))
            return solution

        monkeypatch.setattr(harness, "cached_solve", tracking)
        records, failures = run_sweep(spec_for(6, lasso_configs(6)[:2], [0, 1]))
        assert failures == [] and len(records) == 4 and len(alive) == 8
        gc.collect()
        assert [ref() for ref in alive] == [None] * 8


class TestWidthMemo:
    def test_width_runs_once_per_body(self, monkeypatch):
        # The l1 ball (fw_general's G_C, the entropy step's Q), the l2 ball
        # (the squared-l2 step's Q) and the simplex take their closed-form
        # widths; a polytope's G_C and its q-norm hull's G_Q are estimated
        # once each for all 8 seeds.
        calls = Counter()
        real = solvers.gaussian_width_mc

        def counting(body, samples, seed):
            calls[body_key(body)] += 1
            return real(body, samples, seed)

        monkeypatch.setattr(solvers, "gaussian_width_mc", counting)
        monkeypatch.setattr(geometry, "_body_memo", geometry.Memo())  # as in a fresh process
        p = 8
        simplex = {"kind": "simplex", "dimension": p}
        l2 = {"kind": "l2_ball", "radius": 1.0, "dimension": p}
        closed = [*lasso_configs(p)[1:3],
                  {"id": "fw_general_l2", "algorithm": "fw_general", "t_cap": 30, "body": l2,
                   "loss": SQ, "budget": BUDGET},
                  {"id": "fw_general_simplex", "algorithm": "fw_general", "t_cap": 30,
                   "body": simplex, "loss": SQ, "budget": BUDGET},
                  {"id": "entropy", "algorithm": "noisy_md", "t_cap": 30, "body": simplex,
                   "loss": SQ, "budget": BUDGET, "potential": {"kind": "negative_entropy"}}]
        records, failures = run_sweep(spec_for(p, closed, range(8)))
        assert failures == [] and len(records) == 40
        assert calls == Counter()

        eye = np.eye(p)
        corners = {"kind": "polytope", "vertices": np.vstack([eye, -0.5 * eye]).tolist()}
        mc = [{"id": "fw_general_polytope", "algorithm": "fw_general", "t_cap": 30,
               "body": corners, "loss": SQ, "budget": BUDGET},
              {"id": "qnorm", "algorithm": "noisy_md", "t_cap": 5, "body": corners,
               "loss": SQ, "budget": BUDGET, "potential": {"kind": "polytope_q_norm"}}]
        records, failures = run_sweep(spec_for(p, mc, range(8)))
        assert failures == [] and len(records) == 16
        hull = {"kind": "polytope", "vertices": np.vstack([eye, -0.5 * eye, -eye,
                                                           0.5 * eye]).tolist()}
        assert calls == {body_key(body_from_dict(corners)): 1,
                         body_key(body_from_dict(hull)): 1}, calls


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


class TestOneFeasibilityCheckPerCell:
    def test_each_cell_checks_its_output_once(self, monkeypatch):
        calls = Counter()
        real = L1Ball.contains

        def counting(self, x):
            calls["contains"] += 1
            return real(self, x)

        monkeypatch.setattr(L1Ball, "contains", counting)
        records, failures = run_sweep(spec_for(6, lasso_configs(6), [0, 1]))
        assert failures == [] and len(records) == 8
        assert calls["contains"] == 8

    def test_an_infeasible_output_is_not_scored(self, monkeypatch):
        real = harness.run_solver

        def outside(cfg, data):
            report = real(cfg, data)
            report.theta_priv = np.full(cfg.body.dimension, 1.0)
            report.feasible = cfg.body.contains(report.theta_priv)
            return report

        def no_scoring(self, theta, data):
            raise AssertionError("an infeasible output was scored")

        cfg = SolverConfig.from_dict({**lasso_configs(6)[0], "seed": 0})
        data = generate_lasso(200, 6, 3, 0.1, seed=4)
        harness.cached_solve(cfg.body, cfg.loss, data)  # the optimum, solved before the spy
        monkeypatch.setattr(harness, "run_solver", outside)
        monkeypatch.setattr(SquaredError, "loss", no_scoring)
        with pytest.raises(ValueError, match="not feasible"):
            harness.score_cell(cfg, data)


def record(solver: str, n: int, risk: float, seed: int = 0) -> harness.RiskRecord:
    return harness.RiskRecord(solver=solver, n=n, seed=seed, excess_risk=risk, optimum=0.0,
                              T=1, sigma=0.0, laplace_scale=0.0, wall_ms=0.0)


class TestRateFit:
    """The log-log slope is how a sweep checks a rate such as n^(-2/3)."""

    @pytest.mark.parametrize("ns", [[1000, 2000, 4000], [500, 1000, 8000]])
    def test_power_law_slope_and_intercept(self, ns):
        c = 3.5
        fit = harness.fit_loglog_slope(ns, [c * n ** (-2 / 3) for n in ns])
        assert fit["slope"] == pytest.approx(-2 / 3, abs=1e-12)
        assert fit["intercept"] == pytest.approx(math.log(c), abs=1e-12)
        assert 0.0 <= fit["stderr"] <= 1e-12 and fit["points"] == 3

    def test_two_points_have_no_stderr(self):
        fit = harness.fit_loglog_slope([100, 400], [0.2, 0.05])
        assert fit["slope"] == pytest.approx(-1.0, abs=1e-12)
        assert fit["stderr"] == 0.0 and fit["points"] == 2

    def test_summarize_fits_the_positive_cell_means(self):
        records = [record("a", 1000, 0.3, 0), record("a", 1000, 0.1, 1),
                   record("a", 8000, 0.05, 0), record("a", 8000, 0.0, 1),
                   record("a", 64000, -0.2, 0),  # a mean <= 0 leaves the fit
                   record("b", 1000, 0.1), record("b", 8000, 0.0),  # one positive cell
                   record("c", 1000, -0.1), record("c", 8000, 0.0)]
        summary = harness.summarize(records)
        assert [(c["solver"], c["n"], c["seeds"]) for c in summary["cells"]] == [
            ("a", 1000, 2), ("a", 8000, 2), ("a", 64000, 1), ("b", 1000, 1),
            ("b", 8000, 1), ("c", 1000, 1), ("c", 8000, 1)]
        assert summary["cells"][0]["mean_excess_risk"] == pytest.approx(0.2)
        assert list(summary["slopes"]) == ["a"]
        assert summary["slopes"]["a"] == harness.fit_loglog_slope([1000, 8000], [0.2, 0.025])
        assert summary["slopes"]["a"]["slope"] == pytest.approx(-1.0, abs=1e-12)
