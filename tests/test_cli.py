"""End-to-end CLI tests: the whole artifact pipeline in a temp dir.

Exit codes: 0 ok, 2 validation, 3 numerical, 4 resource limit.
"""
import json
import re

import numpy as np
import pytest

from nortagrid import cli
from nortagrid.errors import NumericalError
from nortagrid.grid import load_grid, load_scenarios
from nortagrid.norta import sample
from nortagrid.twostage import STAT_ROWS

SPEC = {
    "n_substations": 4,
    "n_flooded": 3,
    "buses_per_substation": 1,
    "topology": "ring",
    "n_scenarios": 8,
    "max_height": 3,
    "budget": 6.0,
    "seed": 5,
}


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One full pipeline run; tests below only read the artifacts."""
    d = tmp_path_factory.mktemp("pipeline")
    (d / "spec.json").write_text(json.dumps(SPEC))
    steps = [
        ("make-instance", "--spec", d / "spec.json",
         "--out", d / "grid.json", d / "scen.csv", "--quiet"),
        ("fit", d / "scen.csv", "--out", d / "model.json", "--quiet"),
        ("generate", d / "model.json", "--count", 30,
         "--out", d / "synth.csv", "--quiet"),
        ("validate", d / "scen.csv", d / "synth.csv",
         "--out", d / "val.json", "--quiet"),
        ("solve", d / "grid.json", d / "scen.csv", "--budgets", "0,4",
         "--out", d / "plans.json", "--quiet"),
        ("evaluate", d / "grid.json", d / "plans.json", d / "synth.csv",
         "--out", d / "report.json", d / "report.csv", "--quiet"),
        ("sweep", d / "grid.json", d / "scen.csv", d / "synth.csv",
         "--budgets", "0,4", "--out", d / "sweep.json", "--quiet"),
    ]
    for step in steps:
        assert run(*step) == 0, step[0]
    return d


class TestPipelineArtifacts:
    def test_model_file_schema(self, workdir):
        data = json.loads((workdir / "model.json").read_text())
        assert data["format"] == "nortagrid-model"
        assert len(data["marginals"]) == 3
        for key in ("sigma_x", "sigma_z", "y", "chol"):
            assert np.asarray(data[key]).shape == (3, 3)
        assert data["columns"] == [0, 1, 2]
        # One entry per pair, in np.triu_indices(3, 1) order.
        pairs = data["fit_report"]["pairs"]
        assert {name: len(col) for name, col in pairs.items()} == {"residual": 3, "clamped": 3}

    def test_manifest_embedded_in_artifacts(self, workdir):
        data = json.loads((workdir / "model.json").read_text())
        man = data["manifest"]
        assert man["command"] == "fit"
        assert len(man["inputs"]) == 1
        assert len(man["inputs"][0]["sha256"]) == 64
        assert set(man["tolerances"]) == {"match_tol", "bisect_max_iter",
                                          "gh_degree", "psd_tol"}

    def test_every_artifact_has_a_sidecar(self, workdir):
        for name in ("grid.json", "scen.csv", "model.json", "synth.csv",
                     "val.json", "plans.json", "report.json", "report.csv",
                     "sweep.json"):
            side = workdir / f"{name}.manifest.json"
            assert side.exists(), name
            meta = json.loads(side.read_text())
            assert meta["artifact"].endswith(name)
            assert "created_utc" in meta and "version" in meta

    def test_synthetic_scenarios_stay_on_training_support(self, workdir):
        train = load_scenarios(workdir / "scen.csv")
        synth = load_scenarios(workdir / "synth.csv")
        assert synth.scenarios.shape == (30, 3)
        assert synth.columns == train.columns
        for j in range(3):
            assert set(synth.scenarios[:, j]) <= set(train.scenarios[:, j])

    def test_generate_matches_library_sampling(self, workdir):
        model = cli.load_model(workdir / "model.json")
        expect = sample(model, 30, 0)  # CLI default seed is 0
        synth = load_scenarios(workdir / "synth.csv")
        assert np.array_equal(synth.scenarios, expect.scenarios)

    def test_validation_report_schema(self, workdir):
        data = json.loads((workdir / "val.json").read_text())
        assert data["format"] == "nortagrid-validation"
        per_dimension = data["emd"]["per_dimension"]
        assert per_dimension["column"] == [0, 1, 2] and len(per_dimension["value"]) == 3
        pairs = data["correlation_error"]["pairs"]
        assert (pairs["i"], pairs["j"]) == ([0, 0, 1], [1, 2, 2])
        assert len(pairs["value"]) == 3
        assert max(pairs["value"]) == data["correlation_error"]["summary"]["max"]
        for summary in (data["emd"]["summary"], data["correlation_error"]["summary"]):
            assert set(summary) == {"mean", "std", "min", "25%", "50%", "75%", "max"}

    def test_plan_file_schema(self, workdir):
        grid = load_grid(workdir / "grid.json")
        data = json.loads((workdir / "plans.json").read_text())
        assert data["format"] == "nortagrid-plan"
        assert data["flooded_ids"] == [0, 1, 2]
        assert [p["budget"] for p in data["plans"]] == [0.0, 4.0]
        for p in data["plans"]:
            assert set(p["heights"]) == {"0", "1", "2"}
            assert p["cost"] <= p["budget"] + 1e-9
        so = [p["so_estimate"] for p in data["plans"]]
        assert so[0] >= so[1] - 1e-9

    def test_load_plans_roundtrip(self, workdir):
        grid = load_grid(workdir / "grid.json")
        entries = cli.load_plans(workdir / "plans.json", grid)
        raw = json.loads((workdir / "plans.json").read_text())["plans"]
        assert len(entries) == 2
        for (budget, plan, so), entry in zip(entries, raw):
            assert budget == entry["budget"]
            assert so == entry["so_estimate"]
            assert [int(v) for v in plan.heights] == [
                entry["heights"][str(s)] for s in grid.flooded_ids]

    def test_report_csv_layout(self, workdir):
        lines = (workdir / "report.csv").read_text().splitlines()
        assert lines[0] == "statistic,0.0,4.0"
        assert [ln.split(",")[0] for ln in lines[1:]] == list(STAT_ROWS)
        assert lines[1].startswith("SO estimate,")

    def test_report_json_table(self, workdir):
        data = json.loads((workdir / "report.json").read_text())
        assert data["format"] == "nortagrid-report"
        assert data["budgets"] == [0.0, 4.0]
        assert data["quantile_method"] == "linear"
        assert data["std_denominator"] == "M-1"
        assert list(data["table"]) == list(STAT_ROWS)
        assert data["m"] == 30
        plans = json.loads((workdir / "plans.json").read_text())["plans"]
        assert data["table"]["SO estimate"] == [p["so_estimate"] for p in plans]

    def test_sweep_agrees_with_solve_then_evaluate(self, workdir):
        sweep = json.loads((workdir / "sweep.json").read_text())
        report = json.loads((workdir / "report.json").read_text())
        assert sweep["table"]["SO estimate"] == report["table"]["SO estimate"]
        assert sweep["table"]["mean"] == pytest.approx(report["table"]["mean"])

    def test_recourse_work_in_manifests(self, workdir):
        recourse = {"certified_components", "component_lps"}
        for name, keys in (("plans.json", recourse | {"bb_nodes"}), ("report.json", recourse),
                           ("sweep.json", recourse | {"bb_nodes"})):
            work = json.loads((workdir / name).read_text())["manifest"]["work"]
            assert set(work) == keys, name
            assert work["certified_components"] + work["component_lps"] > 0, name
            assert work.get("bb_nodes", 1) > 0, name
        # The counts repeat exactly, so a re-run stays byte-identical.
        d = workdir
        assert run("sweep", d / "grid.json", d / "scen.csv", d / "synth.csv",
                   "--budgets", "0,4", "--out", d / "sweep_b.json", "--quiet") == 0
        assert (d / "sweep_b.json").read_bytes() == (d / "sweep.json").read_bytes()
        assert run("solve", d / "grid.json", d / "scen.csv", "--budgets", "0,4",
                   "--out", d / "plans_b.json", "--quiet") == 0
        assert (d / "plans_b.json").read_bytes() == (d / "plans.json").read_bytes()
        # A greedy solve visits no node and records none.
        assert run("solve", d / "grid.json", d / "scen.csv", "--budgets", "0,4",
                   "--method", "greedy", "--out", d / "greedy.json", "--quiet") == 0
        work = json.loads((d / "greedy.json").read_text())["manifest"]["work"]
        assert set(work) == recourse

    def test_validate_identity_is_all_zero(self, workdir):
        out = workdir / "self_val.json"
        assert run("validate", workdir / "scen.csv", workdir / "scen.csv",
                   "--out", out, "--quiet") == 0
        data = json.loads(out.read_text())
        assert data["emd"]["summary"]["max"] == 0.0
        assert data["correlation_error"]["summary"]["max"] == 0.0

    def test_rerun_artifacts_are_byte_identical(self, workdir, monkeypatch):
        monkeypatch.chdir(workdir)
        assert run("fit", "scen.csv", "--out", "model_b.json", "--quiet") == 0
        assert run("generate", "model_b.json", "--count", 30,
                   "--out", "synth_b.csv", "--quiet") == 0
        # embedded manifests record inputs, not outputs, so bytes match
        first_model = (workdir / "model.json").read_bytes()
        rerun_model = (workdir / "model_b.json").read_bytes()
        assert first_model != rerun_model  # input path differs (abs vs rel)
        assert run("fit", "scen.csv", "--out", "model_c.json", "--quiet") == 0
        assert (workdir / "model_c.json").read_bytes() == rerun_model
        assert (workdir / "synth_b.csv").read_bytes() == (workdir / "synth.csv").read_bytes()


class TestCliErrors:
    def test_missing_input_file(self, tmp_path):
        assert run("fit", tmp_path / "nope.csv", "--out", tmp_path / "m.json") == 2

    def test_single_row_training_set(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("0,1\n2,3\n")  # header + one scenario
        assert run("fit", p, "--out", tmp_path / "m.json") == 2

    def test_generate_count_must_be_positive(self, workdir, tmp_path):
        assert run("generate", workdir / "model.json", "--count", 0,
                   "--out", tmp_path / "s.csv") == 2

    def test_validate_dimension_mismatch(self, workdir, tmp_path):
        p = tmp_path / "narrow.csv"
        p.write_text("0\n1\n2\n")
        assert run("validate", workdir / "scen.csv", p,
                   "--out", tmp_path / "v.json") == 2

    def test_negative_budget(self, workdir, tmp_path):
        assert run("solve", workdir / "grid.json", workdir / "scen.csv",
                   "--budget", -3, "--out", tmp_path / "p.json") == 2

    @pytest.mark.parametrize("verb, flags", [
        ("solve", ("--budgets", "nan")),
        ("solve", ("--budget", "inf")),
        ("solve", ("--method", "greedy", "--budgets", "2,nan")),
        ("sweep", ("--budgets", "1,-inf")),
    ])
    def test_non_finite_budget(self, workdir, tmp_path, capsys, verb, flags):
        inputs = [workdir / "grid.json", workdir / "scen.csv"]
        if verb == "sweep":
            inputs.append(workdir / "synth.csv")
        out = tmp_path / "out.json"
        assert run(verb, *inputs, *flags, "--out", out) == 2
        assert "budget" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["solve", "sweep"])
    @pytest.mark.parametrize("value", ["", " ", ","])
    def test_empty_budget_list(self, workdir, tmp_path, capsys, verb, value):
        # An empty --budgets used to fall back to the grid's budget and exit 0.
        inputs = [workdir / "grid.json", workdir / "scen.csv"]
        if verb == "sweep":
            inputs.append(workdir / "synth.csv")
        out = tmp_path / "out.json"
        assert run(verb, *inputs, "--budgets", value, "--out", out) == 2
        assert "--budgets" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb, relabeled", [
        ("solve", "scen.csv"), ("sweep", "scen.csv"), ("sweep", "synth.csv"),
        ("evaluate", "synth.csv"),
    ])
    @pytest.mark.parametrize("relabel", [lambda ids: [i + 100 for i in ids], reversed],
                             ids=["renamed", "reordered"])
    def test_scenario_columns_must_be_the_flooded_substations(
            self, workdir, tmp_path, capsys, verb, relabeled, relabel):
        # Only the width was checked: both headers used to exit 0.
        header, *body = (workdir / relabeled).read_text().splitlines()
        ids = [int(c) for c in header.split(",")]
        (tmp_path / relabeled).write_text(
            "\n".join([",".join(str(i) for i in relabel(ids)), *body]) + "\n")
        paths = {name: (tmp_path if name == relabeled else workdir) / name
                 for name in ("scen.csv", "synth.csv")}
        inputs = {"solve": [paths["scen.csv"], "--budgets", "0,4"],
                  "sweep": [paths["scen.csv"], paths["synth.csv"], "--budgets", "0,4"],
                  "evaluate": [workdir / "plans.json", paths["synth.csv"]]}[verb]
        out = tmp_path / "out.json"
        assert run(verb, workdir / "grid.json", *inputs, "--out", out) == 2
        assert "flooded substations (0, 1, 2)" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_grid_budget(self, workdir, tmp_path, capsys):
        data = json.loads((workdir / "grid.json").read_text())
        data["budget"] = float("nan")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(data))  # writes the non-standard NaN token
        out = tmp_path / "p.json"
        assert run("solve", grid, workdir / "scen.csv", "--out", out) == 2
        assert "budget" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["solve", "sweep"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_node_budget_below_one(self, workdir, tmp_path, capsys, verb, value):
        inputs = [workdir / "grid.json", workdir / "scen.csv"]
        if verb == "sweep":
            inputs.append(workdir / "synth.csv")
        out = tmp_path / "out.json"
        assert run(verb, *inputs, "--budgets", "4", "--node-budget", value,
                   "--out", out) == 2
        assert "node_budget" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["exact", "greedy"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_node_budget_is_checked_for_every_method(self, workdir, tmp_path, capsys,
                                                     method, value):
        # greedy takes no node budget, and used to exit 0 and write plans.
        out = tmp_path / "p.json"
        assert run("solve", workdir / "grid.json", workdir / "scen.csv", "--method", method,
                   "--budget", 4, "--node-budget", value, "--out", out) == 2
        assert "--node-budget" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["exact", "greedy"])
    def test_non_integer_node_budget(self, workdir, tmp_path, capsys, method):
        out = tmp_path / "p.json"
        with pytest.raises(SystemExit) as exc:
            run("solve", workdir / "grid.json", workdir / "scen.csv", "--method", method,
                "--node-budget", "2.5", "--out", out)
        assert exc.value.code == 2
        assert "--node-budget" in capsys.readouterr().err
        assert not out.exists()

    def test_node_budget_exhaustion(self, workdir, tmp_path, capsys):
        code = run("solve", workdir / "grid.json", workdir / "scen.csv",
                   "--budget", 4, "--node-budget", 1,
                   "--out", tmp_path / "p.json")
        assert code == 4
        err = capsys.readouterr().err
        assert "greedy" in err and "no plan found yet; bound" in err

    def test_node_budget_exhaustion_reports_the_incumbent(self, workdir, tmp_path, capsys):
        done = tmp_path / "p.json"
        assert run("solve", workdir / "grid.json", workdir / "scen.csv",
                   "--budget", 4, "--out", done, "--quiet") == 0
        nodes = json.loads(done.read_text())["manifest"]["work"]["bb_nodes"]
        code = run("solve", workdir / "grid.json", workdir / "scen.csv",
                   "--budget", 4, "--node-budget", nodes - 1,
                   "--out", tmp_path / "q.json")
        assert code == 4
        assert not (tmp_path / "q.json").exists()
        err = capsys.readouterr().err
        match = re.search(r"best plan so far: heights \[([\d, ]+)\] .*, value (\S+), "
                          r"bound (\S+), gap (\S+)", err)
        assert match, err
        value, bound, gap = (float(v) for v in match.groups()[1:])
        assert len(match.group(1).split(",")) == 3
        assert bound <= value and gap == pytest.approx(value - bound, rel=1e-5)

    @pytest.fixture(scope="class")
    def spec3(self, tmp_path_factory):
        """hardening-sweep's instance (spec seed 3): grid, training set and
        a 30-scenario synthetic set, paths in that order."""
        d = tmp_path_factory.mktemp("spec3")
        spec = {"n_substations": 12, "n_flooded": 8, "buses_per_substation": 2,
                "topology": "grid", "n_scenarios": 24, "max_height": 5, "budget": 50,
                "seed": 3}
        (d / "spec.json").write_text(json.dumps(spec))
        grid, train, model, synth = (d / f for f in (
            "grid.json", "train.csv", "model.json", "synth.csv"))
        assert run("make-instance", "--spec", d / "spec.json", "--out", grid, train,
                   "--quiet") == 0
        assert run("fit", train, "--out", model, "--quiet") == 0
        assert run("generate", model, "--count", 30, "--out", synth, "--quiet") == 0
        return grid, train, synth

    @staticmethod
    def finished_budgets(err):
        return re.findall(r"finished budget (\S+): heights \[([\d, ]+)\], "
                          r"SO estimate (\S+)", err)

    def test_sweep_node_limit_lists_the_finished_budgets(self, spec3, tmp_path, capsys):
        grid, train, synth = spec3
        capsys.readouterr()
        out = tmp_path / "sweep.json"
        assert run("sweep", grid, train, synth, "--budgets", "0,5,10,20",
                   "--node-budget", 1000, "--out", out, "--quiet") == 4
        assert not out.exists()
        err = capsys.readouterr().err
        finished = self.finished_budgets(err)
        assert [b for b, _, _ in finished] == ["0", "5", "10"]
        assert all(len(h.split(",")) == 8 for _, h, _ in finished)
        so = [float(v) for _, _, v in finished]
        assert so == sorted(so, reverse=True)
        assert "at budget 20" in err and "best plan so far" in err

    def test_solve_node_limit_lists_the_finished_budgets(self, spec3, tmp_path, capsys):
        # solve and sweep run their budgets through one loop, so a stopped
        # solve lists what sweep lists under the same options.
        grid, train, synth = spec3
        capsys.readouterr()
        out = tmp_path / "plans.json"
        assert run("solve", grid, train, "--budgets", "20,0,10,5",
                   "--node-budget", 100, "--out", out, "--quiet") == 4
        assert not out.exists()
        err = capsys.readouterr().err
        finished = self.finished_budgets(err)
        assert [b for b, _, _ in finished] == ["0", "5"]
        assert "at budget 10" in err and "best plan so far" in err
        assert run("sweep", grid, train, synth, "--budgets", "0,5,10,20",
                   "--node-budget", 100, "--out", tmp_path / "sweep.json", "--quiet") == 4
        assert self.finished_budgets(capsys.readouterr().err) == finished

    def test_numerical_error_exit_code(self, workdir, tmp_path, monkeypatch, capsys):
        def boom(*a, **k):
            raise NumericalError("synthetic blow-up")

        monkeypatch.setattr(cli.norta, "fit", boom)
        code = run("fit", workdir / "scen.csv", "--out", tmp_path / "m.json")
        assert code == 3
        assert "synthetic blow-up" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field", [
        ("--degree", 0, "degree"), ("--degree", -2, "degree"),
        ("--match-tol", -1, "match_tol"), ("--match-tol", "nan", "match_tol"),
        ("--bisect-max-iter", 0, "bisect_max_iter"),
    ])
    def test_bad_fit_options(self, workdir, tmp_path, capsys, flag, value, field):
        out = tmp_path / "m.json"
        assert run("fit", workdir / "scen.csv", flag, value, "--out", out) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_report_extension_checked(self, workdir, tmp_path):
        assert run("evaluate", workdir / "grid.json", workdir / "plans.json",
                   workdir / "synth.csv", "--out", tmp_path / "rep.txt") == 2

    def test_plan_missing_substation_height(self, workdir, tmp_path):
        p = tmp_path / "bad_plans.json"
        p.write_text(json.dumps({"plans": [{"budget": 1.0, "heights": {"0": 1}}]}))
        assert run("evaluate", workdir / "grid.json", p, workdir / "synth.csv",
                   "--out", tmp_path / "rep.json") == 2

    @pytest.mark.parametrize("field, value, message", [
        ("heights", 2.5, "plan 1 heights: 0 must be an integer, got 2.5"),
        ("heights", "1", "plan 1 heights: 0 must be an integer, got '1'"),
        ("heights", True, "plan 1 heights: 0 must be an integer, got True"),
        ("budget", "4", "plan 1: budget must be a finite number, got '4'"),
        ("budget", float("nan"), "plan 1: budget must be a finite number, got nan"),
        ("so_estimate", "0.5", "plan 1: so_estimate must be a finite number, got '0.5'"),
        pytest.param("budget", 10 ** 400, "plan 1: budget must be a finite number, got 1000",
                     id="budget-10**400"),
    ])
    def test_plan_fields_are_not_coerced(self, workdir, tmp_path, capsys, field, value,
                                         message):
        data = json.loads((workdir / "plans.json").read_text())
        if field == "heights":
            data["plans"][0]["heights"]["0"] = value
        else:
            data["plans"][0][field] = value
        p = tmp_path / "plans.json"
        p.write_text(json.dumps(data))
        out = tmp_path / "rep.json"
        assert run("evaluate", workdir / "grid.json", p, workdir / "synth.csv",
                   "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, message", [
        ("chol", "chol must hold finite numbers, got nan"),
        ("sigma_z", "sigma_z must hold finite numbers, got inf"),
        ("marginals", "marginals[0] must hold finite numbers, got '2'"),
        ("clamped", "fit_report.pairs.clamped[0]: must be true or false, got 'false'"),
    ])
    def test_model_fields_are_not_coerced(self, workdir, tmp_path, capsys, field, message):
        data = json.loads((workdir / "model.json").read_text())
        if field == "clamped":
            data["fit_report"]["pairs"]["clamped"][0] = "false"
        elif field == "marginals":
            data["marginals"][0][0] = "2"
        else:
            data[field][1][0] = float("nan") if field == "chol" else float("inf")
        p = tmp_path / "model.json"
        p.write_text(json.dumps(data))
        out = tmp_path / "s.csv"
        assert run("generate", p, "--count", 5, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path, value, message", [
        (("columns", 0), 0.5, "columns: 0 must be an integer, got 0.5"),
        (("columns", 1), "3", "columns: 1 must be an integer, got '3'"),
        (("fit_report", "pairs", "residual", 0), True,
         "fit_report.pairs.residual[0]: must be a finite number, got True"),
        (("fit_report", "pairs", "residual", 1), "0.5",
         "fit_report.pairs.residual[1]: must be a finite number, got '0.5'"),
        (("fit_report", "chol_jitter"), None,
         "fit_report: chol_jitter must be a finite number, got None"),
        (("fit_report", "rho_evaluations"), 1.5,
         "fit_report: rho_evaluations must be an integer, got 1.5"),
        (("fit_report", "pair_evaluations"), "81811",
         "fit_report: pair_evaluations must be an integer, got '81811'"),
        (("fit_report", "settled_evaluations"), 2.0,
         "fit_report: settled_evaluations must be an integer, got 2.0"),
        (("fit_report", "pairs", "residual", 2), float("nan"),
         "fit_report.pairs.residual[2]: must be a finite number, got nan"),
        (("fit_report", "pairs", "clamped", 1), 1,
         "fit_report.pairs.clamped[1]: must be true or false, got 1"),
        pytest.param(("chol", 1, 0), 10 ** 400, "chol must hold finite numbers, got 1000",
                     id="chol-10**400"),
        pytest.param(("fit_report", "pairs", "residual", 0), 10 ** 400,
                     "fit_report.pairs.residual[0]: must be a finite number, got 1000",
                     id="residual-10**400"),
    ])
    def test_model_ids_and_fit_report_are_not_coerced(self, workdir, tmp_path, capsys,
                                                      path, value, message):
        data = json.loads((workdir / "model.json").read_text())
        *parents, key = path
        entry = data
        for k in parents:
            entry = entry[k]
        entry[key] = value
        p = tmp_path / "model.json"
        p.write_text(json.dumps(data))
        out = tmp_path / "s.csv"
        assert run("generate", p, "--count", 5, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("column", ["residual", "clamped"])
    @pytest.mark.parametrize("length", [2, 4])
    def test_pair_columns_hold_one_entry_per_pair(self, workdir, tmp_path, capsys, column,
                                                  length):
        data = json.loads((workdir / "model.json").read_text())
        values = data["fit_report"]["pairs"][column]
        data["fit_report"]["pairs"][column] = (values * 2)[:length]
        p = tmp_path / "model.json"
        p.write_text(json.dumps(data))
        out = tmp_path / "s.csv"
        assert run("generate", p, "--count", 5, "--out", out) == 2
        assert (f"fit_report.pairs.{column} must be a list of 3 entries, one per pair"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_model_with_one_object_per_pair_asks_for_a_refit(self, workdir, tmp_path,
                                                             capsys):
        # The layout that older versions wrote: targets and rho_z repeated
        # from sigma_x and sigma_z, one dict per pair.
        data = json.loads((workdir / "model.json").read_text())
        pairs = data["fit_report"]["pairs"]
        data["fit_report"]["pairs"] = [
            {"i": int(i), "j": int(j), "target": data["sigma_x"][i][j],
             "rho_z": data["sigma_z"][i][j], "residual": r, "clamped": c}
            for i, j, r, c in zip(*np.triu_indices(3, 1), pairs["residual"], pairs["clamped"])]
        p = tmp_path / "model.json"
        p.write_text(json.dumps(data))
        out = tmp_path / "s.csv"
        assert run("generate", p, "--count", 5, "--out", out) == 2
        err = capsys.readouterr().err
        assert "fit_report.pairs" in err and "re-run `nortagrid fit`" in err
        assert not out.exists()

    def test_fitted_model_loads_unchanged(self, workdir):
        data = json.loads((workdir / "model.json").read_text())
        model = cli.load_model(workdir / "model.json")
        assert list(model.columns) == data["columns"]
        assert model.report.to_dict() == data["fit_report"]
        assert data["fit_report"]["pair_evaluations"] >= data["fit_report"]["rho_evaluations"] > 0

    def test_model_without_work_counters_loads_them_as_zero(self, workdir, tmp_path):
        data = json.loads((workdir / "model.json").read_text())
        for name in ("rho_evaluations", "pair_evaluations", "settled_evaluations"):
            del data["fit_report"][name]
        p = tmp_path / "model.json"
        p.write_text(json.dumps(data))
        report = cli.load_model(p).report
        assert (report.rho_evaluations, report.pair_evaluations,
                report.settled_evaluations) == (0, 0, 0)

    def test_malformed_model_file(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text(json.dumps({"format": "nortagrid-model", "marginals": [[1.0]]}))
        assert run("generate", p, "--count", 5, "--out", tmp_path / "s.csv") == 2

    def test_bad_instance_spec(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"n_substations": 0, "n_flooded": 0}))
        assert run("make-instance", "--spec", p,
                   "--out", tmp_path / "g.json", tmp_path / "s.csv") == 2

    @pytest.mark.parametrize("field, token", [
        ("n_substations", "2.5"), ("gen_bus_fraction", '"x"'), ("demand_high", "1e400"),
        ("seed", "-1"), ("corr_length", "0"), ("gen_bus_fraction", "1.5"),
        ("n_flooded", "true"), ("topology", '["ring"]'),
        pytest.param("demand_high", str(10 ** 400), id="demand_high-10**400"),
    ])
    def test_bad_instance_spec_field(self, tmp_path, capsys, field, token):
        spec = {k: v for k, v in SPEC.items() if k != field}
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec)[:-1] + f', "{field}": {token}}}')
        grid = tmp_path / "g.json"
        assert run("make-instance", "--spec", p, "--out", grid, tmp_path / "s.csv") == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert not grid.exists()

    @pytest.mark.parametrize("cell", ["inf", "nan", "-inf"])
    def test_non_finite_scenario_cell(self, tmp_path, capsys, cell):
        p = tmp_path / "scen.csv"
        p.write_text(f"0,1\n1,2\n3,{cell}\n")
        out = tmp_path / "m.json"
        assert run("fit", p, "--out", out) == 2
        assert "line 3, column 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, field, value", [
        ("substations", "flooded_flag", "false"),
        ("substations", "max_height", 2.5),
        ("substations", "id", 0.5),
        ("buses", "substation_id", 1.5),
        ("branches", "head", 1.5),
        (None, "reference_bus", 0.5),
        ("buses", "demand", "7"),
        pytest.param("buses", "demand", 10 ** 400, id="buses-demand-10**400"),
    ])
    def test_grid_fields_are_not_coerced(self, workdir, tmp_path, capsys, section, field,
                                         value):
        data = json.loads((workdir / "grid.json").read_text())
        (data if section is None else data[section][0])[field] = value
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(data))
        out = tmp_path / "p.json"
        assert run("solve", grid, workdir / "scen.csv", "--out", out) == 2
        where = "grid" if section is None else f"{section}[0]"
        assert f"{where}: {field} must be" in capsys.readouterr().err
        assert not out.exists()


class TestCliBehaviour:
    def test_quiet_silences_stdout(self, workdir, tmp_path, capsys):
        run("validate", workdir / "scen.csv", workdir / "scen.csv",
            "--out", tmp_path / "v.json", "--quiet")
        assert capsys.readouterr().out == ""

    def test_quiet_fit_and_generate_leave_process_stdout_empty(self, workdir, tmp_path,
                                                                capfd):
        # capfd reads file descriptor 1, so a write that bypasses
        # sys.stdout (a C extension, a subprocess) would show here too.
        assert run("fit", workdir / "scen.csv", "--out", tmp_path / "m.json", "--quiet") == 0
        assert run("generate", tmp_path / "m.json", "--count", 40,
                   "--out", tmp_path / "s.csv", "--quiet") == 0
        assert capfd.readouterr().out == ""

    def test_progress_lines_by_default(self, workdir, tmp_path, capsys):
        run("validate", workdir / "scen.csv", workdir / "scen.csv",
            "--out", tmp_path / "v.json")
        assert "validate:" in capsys.readouterr().out

    def test_make_instance_seed_override(self, workdir, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC))
        assert run("make-instance", "--spec", spec, "--seed", 99,
                   "--out", tmp_path / "g.json", tmp_path / "s.csv", "--quiet") == 0
        base = load_scenarios(workdir / "scen.csv")
        other = load_scenarios(tmp_path / "s.csv")
        assert not np.array_equal(base.scenarios, other.scenarios)
        meta = json.loads((tmp_path / "g.json.manifest.json").read_text())
        assert meta["seed"] == 99

    def test_generate_seed_changes_output(self, workdir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("generate", workdir / "model.json", "--count", 25, "--out", a, "--quiet")
        run("generate", workdir / "model.json", "--count", 25, "--seed", 7,
            "--out", b, "--quiet")
        assert not np.array_equal(load_scenarios(a).scenarios,
                                  load_scenarios(b).scenarios)

    def test_solve_greedy_method(self, workdir, tmp_path):
        out = tmp_path / "greedy.json"
        assert run("solve", workdir / "grid.json", workdir / "scen.csv",
                   "--budget", 4, "--method", "greedy", "--out", out,
                   "--quiet") == 0
        data = json.loads(out.read_text())
        assert data["method"] == "greedy"
        exact = json.loads((workdir / "plans.json").read_text())["plans"][1]
        assert data["plans"][0]["so_estimate"] >= exact["so_estimate"] - 1e-9

    def test_solve_defaults_to_grid_budget(self, workdir, tmp_path):
        out = tmp_path / "default_budget.json"
        assert run("solve", workdir / "grid.json", workdir / "scen.csv",
                   "--out", out, "--quiet") == 0
        data = json.loads(out.read_text())
        assert data["plans"][0]["budget"] == SPEC["budget"]

    def test_parser_defaults(self):
        p = cli.build_parser()
        g = p.parse_args(["generate", "m.json", "--out", "s.csv"])
        assert g.count == 800 and g.seed is None
        f = p.parse_args(["fit", "s.csv", "--out", "m.json"])
        assert f.degree == 64 and f.match_tol == 1e-4 and f.bisect_max_iter == 200
        s = p.parse_args(["solve", "g.json", "s.csv", "--out", "p.json"])
        assert s.node_budget == 10 ** 6 and s.method == "exact"

    def test_fit_rerun_writes_the_same_model(self, workdir, monkeypatch):
        # A refit through a relative path: everything but the manifest's
        # input path must equal the pipeline's model file, every float too.
        monkeypatch.chdir(workdir)
        assert run("fit", "scen.csv", "--out", "model_r.json", "--quiet") == 0
        rerun = json.loads((workdir / "model_r.json").read_text())
        first = json.loads((workdir / "model.json").read_text())
        assert rerun.pop("manifest")["inputs"][0]["sha256"] == \
            first.pop("manifest")["inputs"][0]["sha256"]
        assert rerun == first
