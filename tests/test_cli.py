import copy
import csv
import json
import math
import re

import pytest

import dperm.cli as cli
import dperm.harness as harness
from dperm.cli import main
from dperm.geometry import GroupedL1Ball, L1Ball, body_from_dict, gaussian_width_mc
from dperm.harness import ExperimentSpec, generate_lasso
from dperm.losses import SquaredError
from dperm.oracle import cached_solve
from dperm.solvers import (WIDTH_SAMPLES, WIDTH_SEED, SolverConfig, gaussian_width,
                           resolve_defaults)

from conftest import write_data_csv

BODY = {"kind": "l1_ball", "radius": 1.0, "dimension": 5}
GROUPED = {"kind": "grouped_l1_ball", "radius": 1.0, "group_size": 2, "dimension": 5}
CONFIG = {"id": "fw", "algorithm": "fw_polytope", "T": 20, "body": BODY,
          "loss": {"kind": "squared_error"}, "budget": {"epsilon": 1.0, "delta": 1e-6}}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def lasso_csv(tmp_path):
    data = generate_lasso(200, 5, 2, 0.1, seed=1)
    return write_data_csv(tmp_path / "data.csv", data), data


class TestWidth:
    def test_matches_the_estimator(self, tmp_path):
        # A body without a closed form: the solvers' public samples and seed.
        body = write_json(tmp_path / "body.json", GROUPED)
        out = tmp_path / "width.json"
        assert main(["width", body, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        est = gaussian_width_mc(GroupedL1Ball(1.0, 2, 5), WIDTH_SAMPLES, WIDTH_SEED)
        assert doc == {"mean": est.mean, "method": "Monte Carlo", "std_error": est.std_error,
                       "samples": WIDTH_SAMPLES, "seed": WIDTH_SEED}

    def test_closed_form_body_reports_its_closed_form(self, tmp_path):
        body = write_json(tmp_path / "body.json", BODY)
        out = tmp_path / "width.json"
        assert main(["width", body, "--output", str(out)]) == 0
        assert json.loads(out.read_text()) == {"mean": L1Ball(1.0, 5).closed_form_width(),
                                               "method": "closed form"}

    @pytest.mark.parametrize("flag", ["--samples", "--seed"])
    def test_refuses_monte_carlo_flags(self, tmp_path, flag, capsys):
        # The width is the one the solvers take, so it has no knobs.
        body = write_json(tmp_path / "body.json", GROUPED)
        with pytest.raises(SystemExit):
            main(["width", body, flag, "3"])
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [BODY, GROUPED], ids=["l1_ball", "grouped_l1_ball"])
    def test_defaults_are_the_solvers_width(self, tmp_path, doc):
        # Without flags, the width in the trace of the solvers' default T.
        body = write_json(tmp_path / "body.json", doc)
        out = tmp_path / "width.json"
        assert main(["width", body, "--output", str(out)]) == 0
        width = json.loads(out.read_text())
        cfg = SolverConfig.from_dict({**CONFIG, "algorithm": "fw_general", "T": 0, "body": doc})
        run = resolve_defaults(cfg, generate_lasso(200, 5, 2, 0.1, seed=1))
        how = "closed form" if width["method"] == "closed form" else (
            f"Monte Carlo, {WIDTH_SAMPLES} samples, seed {WIDTH_SEED}, "
            f"se {width['std_error']:.2g}")
        assert f"G_C = {width['mean']:.6g} ({how})" in run.plan.trace
        assert width["mean"] == gaussian_width(body_from_dict(doc)).mean


class TestSolve:
    def test_scores_against_the_oracle(self, tmp_path, lasso_csv):
        path, data = lasso_csv
        config = write_json(tmp_path / "config.json", {**CONFIG, "lasso_profile": True})
        out = tmp_path / "report.json"
        assert main(["solve", config, path, "--seed", "2", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        oracle = cached_solve(L1Ball(1.0, 5), SquaredError(), data)
        assert doc["algorithm"] == "fw_polytope" and doc["seed"] == 2
        assert doc["optimum"] == oracle.optimum_value
        assert math.isfinite(doc["excess_risk"])
        assert doc["excess_risk"] >= -oracle.gap_certificate

    @pytest.mark.parametrize("flag", ["false", 0])
    def test_lasso_profile_must_be_a_boolean(self, tmp_path, lasso_csv, flag):
        # Read by truthiness, "false" would turn the domain check on.
        path, _ = lasso_csv
        config = write_json(tmp_path / "config.json", {**CONFIG, "lasso_profile": flag})
        with pytest.raises(ValueError, match=re.escape(
                f"solver config 'lasso_profile' must be a boolean, got {flag!r}")):
            main(["solve", config, path, "--output", str(tmp_path / "report.json")])

    @pytest.mark.parametrize("flags,changes,message", [
        (["--non-private"], {"budget": [1]}, "budget document must be an object, got [1]"),
        (["--seed", "2"], {"seed": "x"}, "solver config 'seed' must be an integer, got 'x'"),
    ], ids=["non-private", "seed"])
    def test_options_do_not_skip_the_document(self, tmp_path, lasso_csv, flags, changes,
                                             message):
        # The options used to replace the budget or the seed in the document
        # before it was read, so a malformed one ran.
        path, _ = lasso_csv
        config = write_json(tmp_path / "config.json", {**CONFIG, **changes})
        with pytest.raises(ValueError, match=re.escape(message)):
            main(["solve", config, path, *flags, "--output", str(tmp_path / "report.json")])

    def test_scores_through_the_harness(self, tmp_path, lasso_csv, monkeypatch):
        # The tracer patches the scoring steps where the harness looks them up.
        path, _ = lasso_csv
        calls = []
        real = harness.cached_solve

        def counting(body, loss, data):
            calls.append(data.n)
            return real(body, loss, data)

        monkeypatch.setattr(harness, "cached_solve", counting)
        config = write_json(tmp_path / "config.json", CONFIG)
        assert main(["solve", config, path, "--non-private",
                     "--output", str(tmp_path / "report.json")]) == 0
        assert calls == [200]


class TestBench:
    def experiment(self, tmp_path):
        return write_json(tmp_path / "experiment.json", {
            "solvers": [CONFIG], "n_sweep": [100, 200], "seeds": [0, 1],
            "dataset": {"generator": {"p": 5, "sparsity": 2, "noise_level": 0.1}},
        })

    def test_runs_the_sweep(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        assert main(["bench", self.experiment(tmp_path), "--seed", "4",
                     "--output", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["failures"] == []
        assert [(c["n"], c["seeds"]) for c in summary["cells"]] == [(100, 1), (200, 1)]
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["n"], r["seed"]) for r in rows] == [("100", "4"), ("200", "4")]
        assert json.loads((tmp_path / "records_summary.json").read_text())["failures"] == []

    def test_a_negative_seed_is_refused_before_the_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_sweep", None)
        with pytest.raises(ValueError, match=re.escape("every seed must be >= 0, got -3")):
            main(["bench", self.experiment(tmp_path), "--seed", "-3"])

    def test_non_private_leaves_the_read_documents(self, tmp_path, monkeypatch):
        spec = ExperimentSpec.from_json(self.experiment(tmp_path))
        read = copy.deepcopy(spec.solvers)
        swept = []
        monkeypatch.setattr(ExperimentSpec, "from_json", lambda path: spec)
        monkeypatch.setattr(cli, "run_sweep", lambda s: swept.append(s) or ([], []))
        assert main(["bench", "experiment.json", "--non-private"]) == 0
        assert spec.solvers == read
        assert [doc["budget"] for doc in swept[0].solvers] == [{"epsilon": "inf"}]

    def test_parallelism_is_not_an_option(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bench", self.experiment(tmp_path), "--parallelism", "2"])
        assert exc.value.code == 2
