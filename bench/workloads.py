"""Workload job lists and the expected outputs they are checked against.

The three workloads partition the registry's desk class at seed 2026, less
three long jobs (see ``record_expected.py``).  Their job lists live in
``expected.json``, which was recorded once from the seed code, so a later
change to the registry cannot silently change what the benchmark runs.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

RECORD_SEED = 2026

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = ("desk-small", "snf-heavy", "cycle-collapse")

# The prism claim is refuted as registered at n=4 and n=5; that refutation is
# the correct output and must never be relaxed in the recorded expectations.
PRISM_REFUTATIONS = {4: [0, 0, 7], 5: [0, 0, 0, 2, 11]}


def import_cutnerve():
    """Import the package from the checkout's ``src``; a checkout without it
    cannot be benchmarked."""
    if not os.path.isdir(os.path.join(SRC, "cutnerve")):
        raise SystemExit(f"error: no cutnerve package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import cutnerve.verify

    return cutnerve.verify


def profiles_of(report) -> dict:
    return {c.name: c.actual for c in report.checks if c.name.endswith("-profile")}


def job_key(scenario: str, params: dict) -> str:
    return scenario + " " + ",".join(f"{k}={v}" for k, v in sorted(params.items()))


def check_refutations(doc: dict):
    """Refuse expectations that drop or relax the prism refutation."""
    seen = 0
    for jobs in doc["workloads"].values():
        for job in jobs:
            if job["scenario"] != "thm-4-2" or job["params"]["n"] not in PRISM_REFUTATIONS:
                continue
            seen += 1
            betti = job["profiles"]["neighborhood-sphere-profile"]["betti"]
            if job["verdict"] != "fail" or betti != PRISM_REFUTATIONS[job["params"]["n"]]:
                key = job_key(job["scenario"], job["params"])
                raise SystemExit(f"error: expected.json relaxes the prism refutation at {key}")
    if not seen:
        raise SystemExit("error: expected.json lost the prism refutation")


def load_jobs(workload: str, seed: int) -> list[dict]:
    """The workload's jobs, each with its expected verdict, digests and
    profile actuals.  ``prop-4-10`` takes the benchmark seed."""
    with open(EXPECTED_PATH) as fh:
        doc = json.load(fh)
    check_refutations(doc)
    jobs = doc["workloads"][workload]
    for job in jobs:
        if job["scenario"] == "prop-4-10":
            job["params"] = dict(job["params"], seed=seed)
    return jobs


def mismatches(report, job: dict) -> list[str]:
    """Differences between a report and its expected output.  ``prop-4-10``
    must pass with zero failures at any seed; every other job must reproduce
    its recorded verdict, digests and profile actuals."""
    if job["scenario"] == "prop-4-10":
        actual = next(c.actual for c in report.checks if c.name == "nerve-equals-total-cut")
        if report.verdict != "pass" or actual["failures"]:
            return [f"verdict {report.verdict}, failures {actual['failures']}"]
        return []
    out = []
    if report.verdict != job["verdict"]:
        out.append(f"verdict {report.verdict} != {job['verdict']}")
    if report.digests != job["digests"]:
        out.append(f"digests {report.digests} != {job['digests']}")
    if profiles_of(report) != job["profiles"]:
        out.append(f"profiles {profiles_of(report)} != {job['profiles']}")
    return out


def setup(workload: str, seed: int):
    """Everything a pass needs before its first job: the package, the job
    list and the expectations."""
    verify = import_cutnerve()
    return verify, load_jobs(workload, seed)
