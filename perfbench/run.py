"""Benchmark of the nortagrid CLI on a planner's batch study.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hardening-sweep --seed 0 --seconds 30 --trace 0

One process runs one workload. It builds the workload's inputs (set-up,
repeated and timed), then runs the study's CLI commands in-process
through ``nortagrid.cli.main`` until ``--seconds`` is used up (at least
three times), checks every artifact, and prints the metrics as the last line
of standard output. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the study once untraced and once with per-layer
tracing and reports the per-layer metrics. See README.md here.
"""
from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy loads: nproc is small and
# OpenBLAS threads by default, which would make timings depend on load.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9  # untimed runs only; a traced run sets up once
MIN_STUDIES = 3  # untimed runs report the median of at least this many studies
# A CLI command that fails raises, or exits through argparse's SystemExit
# on a renamed flag; either is reported as a failure, never fatal.
FAILURES = (Exception, SystemExit)


def _import_program():
    """Import nortagrid from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        from nortagrid import cli
    except ImportError as exc:
        print(f"error: cannot import nortagrid from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: nortagrid was imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return cli


def run_cli(cli, argv):
    """One CLI command in-process; its progress output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def time_import():
    """Wall time of a fresh interpreter importing the CLI, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import nortagrid.cli"], env=env, check=True)
    return time.perf_counter() - t0


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_study(cli, workload, seed, reference, tracer=None):
    """Run the workload's commands once, time them, and check the artifacts.

    A command fails when it exits non-zero or raises; the study goes on,
    so later commands that needed its artifact fail too. Artifacts are
    checked before the next study overwrites them.
    """
    times, failed, hashes = {}, {}, {}
    t_start = time.perf_counter()
    for cmd in workload.commands(seed):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = run_cli(cli, cmd.argv)
            else:
                rc = tracer.span(f"cli.{cmd.label}", run_cli, cli, cmd.argv)
            if rc != 0:
                failed[cmd.label] = [f"exit status {rc}"]
        except FAILURES:  # the harness must report, not die
            failed[cmd.label] = [traceback.format_exc()]
        times[cmd.label] = time.perf_counter() - t0
        for art in cmd.artifacts:
            if os.path.exists(art):
                hashes[art] = (cmd.label, sha256(art))
    study_s = time.perf_counter() - t_start
    study = {"study_s": study_s, "times": times, "failed": failed, "hashes": hashes}
    check_study(workload, study, reference)
    return study


def check_study(workload, study, reference):
    """Add output-check failures to study['failed'] (label -> problems)."""
    failed = study["failed"]
    if failed:
        return  # a missing or stale artifact would only repeat the failure
    try:
        problems = workload.problems(workload.extract(), reference)
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        problems = {list(study["times"])[-1]: [f"unreadable artifact: {exc!r}"]}
    for label, msgs in problems.items():
        failed.setdefault(label, []).extend(msgs)


def run_setup(cli, workload, failed):
    """Build the workload's inputs; a failure is added to failed["setup"]."""
    try:
        workload.setup(lambda a: run_cli(cli, a))
    except FAILURES:
        failed.setdefault("setup", []).append(traceback.format_exc())


def tally(studies):
    """(attempted, failed) CLI commands; a command fails at most once per study."""
    return (sum(len(s["times"]) for s in studies),
            sum(len(s["failed"]) for s in studies))


def environment(args):
    import numpy
    import scipy
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": int(THREADS),
            "nproc": os.cpu_count(), "cpu": cpu, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None):
    t_process = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import DEFAULT_SEED, WORKLOADS, load_reference

    args = parse_args(argv, sorted(WORKLOADS))
    workload = WORKLOADS[args.workload]
    cli = _import_program()
    import_in_process_s = time.perf_counter() - t_process

    run_dir = OUT / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    os.chdir(run_dir)
    reference = load_reference(workload.name) if args.seed == DEFAULT_SEED else None

    # The set-ups count as one more attempted command, failed if any failed.
    setup = {"times": {"setup": 0.0}, "failed": {}}
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t_import = time_import()
        t0 = time.perf_counter()
        run_setup(cli, workload, setup["failed"])
        setups.append(t_import + time.perf_counter() - t0)

    studies = []
    tracer = None
    t_first = time.perf_counter()
    if args.trace:
        from tracer import Tracer
        studies.append(run_study(cli, workload, args.seed, reference))
        tracer = Tracer()
        tracer.install()
        try:
            run_setup(cli, workload, setup["failed"])
            generate_instance_s = tracer.total["grid.generate_instance"]
            tracer.reset()
            studies.append(run_study(cli, workload, args.seed, reference, tracer))
        finally:
            tracer.uninstall()
    else:
        while True:
            studies.append(run_study(cli, workload, args.seed, reference))
            elapsed = time.perf_counter() - t_first
            if len(studies) >= MIN_STUDIES and elapsed + studies[-1]["study_s"] > args.seconds:
                break

    # Re-runs with identical inputs and seeds must reproduce every artifact.
    for later in studies[1:]:
        for art, (label, digest) in later["hashes"].items():
            first = studies[0]["hashes"].get(art)
            if first is not None and first[1] != digest:
                later["failed"].setdefault(label, []).append(
                    f"{art} differs between repeats")

    attempted, failed = tally([setup, *studies])
    untraced = studies[:1] if args.trace else studies

    summary = {
        "setup_s": (statistics.median(setups), "s"),
        "study_s": (statistics.median([s["study_s"] for s in untraced]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # Printed only: each exists on some workloads, or is 0 on a correct run.
    for label in untraced[0]["times"]:
        summary[f"{label}_s"] = (statistics.median([s["times"][label] for s in untraced]), "s")
    with contextlib.suppress(OSError, KeyError, ValueError):
        for name, value in workload.extract()["validation"].items():
            summary[name] = (value, "1")
    summary["failed_frac"] = (failed / attempted, "frac")

    if args.trace:
        traced = studies[1]
        metrics = tracer.layer_metrics(workload.train_k)
        if "grid.generate_instance" not in tracer.missing:
            metrics["grid.generate_instance.s"] = {"value": generate_instance_s, "unit": "s"}
        metrics["cli.bytes_written"] = {
            "value": sum(os.path.getsize(a) for c in workload.commands(args.seed)
                         for a in c.artifacts + tuple(f"{x}.manifest.json" for x in c.artifacts)
                         if os.path.exists(a)),
            "unit": "B"}
        base = studies[0]["study_s"]
        metrics["trace.overhead_frac"] = {
            "value": (traced["study_s"] - base) / base, "unit": "frac"}
        metrics = dict(sorted(metrics.items()))
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in summary.items()
                   if k in END_TO_END}

    env = environment(args)
    env.update(studies=len(studies), setups=len(setups),
               import_in_process_s=import_in_process_s)
    print("env " + json.dumps(env))
    for name, (value, unit) in summary.items():
        print(f"{name:>16} {value:.6g} {unit}")
    print("study_s per study: " + " ".join(f"{s['study_s']:.4g}" for s in studies))
    if tracer is not None and tracer.missing:
        print("missing trace targets (metrics left out): " + ", ".join(tracer.missing))
    for i, study in enumerate([setup, *studies]):
        for label, msgs in study["failed"].items():
            for msg in msgs:
                where = f"study {i - 1}" if i else "set-up"
                print(f"FAILED {where} {label}: {msg.strip().splitlines()[-1]}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "summary": {k: v for k, (v, _) in summary.items()},
                   "failures": [s["failed"] for s in [setup, *studies]], "result": result},
                  fh, indent=2)
    print(json.dumps(result))
    return 0


END_TO_END = ("setup_s", "study_s", "peak_rss_mb")

if __name__ == "__main__":
    sys.exit(main())
