"""Tests of the benchmark itself; outside the tier-1 collection (testpaths = tests).

    python3 -m pytest -q perfbench/test_perfbench.py

The output-check test runs the hardening-sweep study once (~15 s).
"""
from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Command, compare, load_reference  # noqa: E402


@pytest.fixture(scope="module")
def sweep_study(tmp_path_factory):
    """One default-seed hardening-sweep study; yields (workload, reference, study)."""
    cli = run._import_program()
    workload = WORKLOADS["hardening-sweep"]
    reference = load_reference(workload.name)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("study"))
        workload.setup(lambda a: run.run_cli(cli, a))
        study = run.run_study(cli, workload, DEFAULT_SEED, reference)
        yield workload, reference, study


def _failed_frac(workload, study, reference):
    """Re-check the study's artifacts against reference, as a fresh study."""
    again = {"times": study["times"], "failed": {}}
    run.check_study(workload, again, reference)
    attempted, failed = run.tally([again])
    return failed / attempted


def test_recorded_reference_passes(sweep_study):
    workload, reference, study = sweep_study
    assert study["failed"] == {}
    assert _failed_frac(workload, study, reference) == 0.0


@pytest.mark.parametrize("perturb", [
    lambda ref: ref["sweep.json"]["columns"][2]["heights"].__setitem__(0, 9),
    lambda ref: ref["sweep.json"]["columns"][3].__setitem__(
        "so_estimate", ref["sweep.json"]["columns"][3]["so_estimate"] * (1 + 1e-7)),
    lambda ref: ref["sweep.csv"]["rows"]["mean"].__setitem__(0, 0.0),
], ids=["plan-height", "so-estimate", "oos-table-csv"])
def test_perturbed_reference_raises_failed_frac(sweep_study, perturb):
    workload, reference, study = sweep_study
    bad = copy.deepcopy(reference)
    perturb(bad)
    assert _failed_frac(workload, study, bad) > 0.0


def test_renamed_cli_flag_is_a_failed_command(tmp_path, monkeypatch):
    # argparse exits with SystemExit on an unknown flag; the harness must count it.
    cli = run._import_program()
    workload = dataclasses.replace(WORKLOADS["scenario-engine"], steps=(
        Command("fit", ("fit", "train.csv", "--no-such-flag", "--out", "model.json"),
                ("model.json",)),))
    monkeypatch.chdir(tmp_path)
    failed = {}
    run.run_setup(cli, workload, failed)
    assert failed == {}
    study = run.run_study(cli, workload, DEFAULT_SEED, None)
    assert list(study["failed"]) == ["fit"]
    attempted, n_failed = run.tally([study])
    assert n_failed / attempted > 0.0


def test_failed_setup_is_reported(tmp_path, monkeypatch):
    cli = run._import_program()
    workload = dataclasses.replace(WORKLOADS["hardening-sweep"],
                                   spec={"n_substations": "not a number"})
    monkeypatch.chdir(tmp_path)
    failed = {}
    run.run_setup(cli, workload, failed)
    assert list(failed) == ["setup"]


def test_float_tolerance_is_relative_1e9():
    assert compare(100.0, 100.0 * (1 + 5e-10), "x") == []
    assert compare(100.0, 100.0 * (1 + 5e-9), "x") != []
    assert compare({"h": [1, 2]}, {"h": [1, 3]}, "x") != []


def test_missing_trace_target_leaves_its_metrics_out():
    run._import_program()
    renamed = [t if t[0] != "norta.c_of_rho" else (t[0], "norta", "no_such_function", t[3])
               for t in TARGETS]
    tracer = Tracer()
    tracer.install(renamed)
    try:
        metrics = tracer.layer_metrics(train_k=0)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["norta.c_of_rho"]
    assert "norta.c_of_rho.calls" not in metrics
    assert "norta.c_of_rho.per_pair" not in metrics
    assert "norta.solve_rho_z.calls" in metrics
