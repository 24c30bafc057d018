"""Record the default-seed reference outputs that the benchmark checks against.

Run once, from the root of a checkout of the commit whose outputs are the
reference, and commit the files it writes under perfbench/reference/:

    python3 perfbench/record_reference.py

A later commit must reproduce these plans exactly and these SO
estimates and OOS tables within 1e-9 relative; do not re-record to make
a changed program pass.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS


def main():
    cli = run._import_program()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        run_dir = run.OUT / "reference" / workload.name
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        os.chdir(run_dir)
        workload.setup(lambda a: run.run_cli(cli, a))
        study = run.run_study(cli, workload, DEFAULT_SEED, None)
        if study["failed"]:
            sys.exit(f"{workload.name}: {study['failed']}")
        with open(REFERENCE_DIR / f"{workload.name}.json", "w", encoding="utf-8") as fh:
            json.dump(workload.extract(), fh, indent=1)
            fh.write("\n")
        print(f"{workload.name}: recorded in {study['study_s']:.1f} s")


if __name__ == "__main__":
    main()
