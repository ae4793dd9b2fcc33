"""Desk-class benchmark for cutnerve.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's registry jobs through ``cutnerve.verify.run_scenario``
(the serial path of ``cutnerve verify``) from the checkout's ``src``, one
job at a time in this process, and checks every report against the outputs
recorded in ``bench/expected.json``.  It repeats whole passes until
``--seconds`` have elapsed, always finishing at least one, and builds every
complex afresh in each pass.

With ``--trace 0`` it reports the end-to-end metrics: wall and CPU time of
one pass, each the sum over the jobs of the job's fastest run in this
process; peak resident memory of this process; and set-up time (the median
over several fresh interpreters of the time from interpreter start to the
first job).  Fastest runs, not medians, because on a shared machine the
speed of a CPU-bound process changes by up to 1.8x from one tenth of a
second to the next with other tenants' load, while the fastest of many runs
of a short job is steady; the fastest run is the closest estimate of the
program's own cost.  With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones (see
``spans.py``), plus the tracing overhead: traced minus untraced pass wall
time, where the untraced pass runs first in each pair and the traced pass's
result checks are excluded by a paused clock.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a job fails when it
raises or its output differs from the expected one.  Any exit code other
than 0 means the benchmark could not run, and then no result is printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from statistics import median, median_low

import workloads

SETUP_PROBES = 7
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.setup(sys.argv[2], int(sys.argv[3])); print('ready', flush=True)"
)

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_ratio", "_yield")) else "count"


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    cutnerve, built the job list and loaded the expectations."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", PROBE, workloads.BENCH_DIR, workload, str(seed)],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"error: set-up probe exited with code {proc.returncode}")
    return elapsed


def run_pass(verify, jobs, clock, tracer=None):
    """Run every job once.  Returns per job its wall time on ``clock``, its
    CPU time, and its report or the exception it raised."""
    walls, cpus, reports = [], [], []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        cpu0 = time.process_time()
        t0 = clock()
        try:
            reports.append(verify.run_scenario(job["scenario"], job["params"]))
        except Exception as exc:  # a job that raises is a failed job; the run goes on
            reports.append(exc)
        walls.append(clock() - t0)
        cpus.append(time.process_time() - cpu0)
    return walls, cpus, reports


def judge(reports, jobs) -> tuple[list[str], dict[int, list[str]]]:
    """Canonical outputs of a pass and the problems found in each job."""
    outputs, problems = [], {}
    for i, (report, job) in enumerate(zip(reports, jobs)):
        if isinstance(report, Exception):
            outputs.append(f"raised {type(report).__name__}: {report}")
            problems[i] = [outputs[-1]]
            continue
        outputs.append(report.to_json())
        found = workloads.mismatches(report, job)
        if found:
            problems[i] = found
    return outputs, problems


def complexes_alive(cutnerve_complexes) -> int:
    """Complex objects still reachable after a pass; any survivor could carry
    its closure or homology cache into the next pass."""
    gc.collect()
    return sum(isinstance(o, cutnerve_complexes.SimplicialComplex) for o in gc.get_objects())


class Run:
    def __init__(self, verify, jobs, seconds: float):
        self.verify = verify
        self.jobs = jobs
        self.seconds = seconds
        self.complexes = sys.modules["cutnerve.complexes"]
        self.attempted = 0
        self.failed = 0
        self.carried_over = 0
        self.unrestored = 0
        self.notes: list[str] = []

    def record(self, problems: dict[int, list[str]]):
        self.attempted += len(self.jobs)
        self.failed += len(problems)
        for i, found in sorted(problems.items()):
            job = self.jobs[i]
            self.notes.append(f"job failed: {workloads.job_key(job['scenario'], job['params'])}: "
                              + "; ".join(found))

    def one_pass(self, tracer=None):
        gc.collect()
        clock = tracer.clock if tracer is not None else time.perf_counter
        walls, cpus, reports = run_pass(self.verify, self.jobs, clock, tracer)
        outputs, problems = judge(reports, self.jobs)
        del reports
        self.carried_over += complexes_alive(self.complexes)
        return walls, cpus, outputs, problems

    def untraced(self) -> dict:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < self.seconds:
            walls, cpus, _, problems = self.one_pass()
            self.record(problems)
            passes.append((walls, cpus))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        pass_walls = [sum(walls) for walls, _ in passes]
        self.notes.append(f"passes {len(passes)}, jobs {len(self.jobs)} per pass, pass wall s: "
                          f"min {min(pass_walls):.4f}, median {median(pass_walls):.4f}, "
                          f"max {max(pass_walls):.4f}")
        return {
            "wall_s": sum(map(min, zip(*(walls for walls, _ in passes)))),
            "cpu_s": sum(map(min, zip(*(cpus for _, cpus in passes)))),
            "peak_rss_mb": peak,
        }

    def traced(self) -> dict:
        from spans import Tracer

        tracer = Tracer()
        per_pass = []
        start = time.perf_counter()
        while not per_pass or time.perf_counter() - start < self.seconds:
            plain_walls, _, plain_out, problems = self.one_pass()
            self.record(problems)
            tracer.reset()
            tracer.install()
            try:
                walls, _, out, problems = self.one_pass(tracer)
            finally:
                patched = tracer.restore()
            if not (patched and tracer.restored()):
                self.unrestored += 1
            for job, message in tracer.mismatches:
                problems.setdefault(job, []).append(message)
            for i, (a, b) in enumerate(zip(plain_out, out)):
                if a != b:
                    problems.setdefault(i, []).append("traced output differs from untraced")
            self.record(problems)
            metrics = tracer.layer_metrics(sum(walls))
            metrics["trace.overhead_s"] = sum(walls) - sum(plain_walls)
            per_pass.append(metrics)
        self.notes.append(f"pass pairs {len(per_pass)}, jobs {len(self.jobs)} per pass, "
                          f"{patched} bindings wrapped, passes left unrestored {self.unrestored}")
        return {name: median_low(p[name] for p in per_pass) for name in per_pass[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if "CUTNERVE_FACE_BUDGET" in os.environ:
        print("error: unset CUTNERVE_FACE_BUDGET; the benchmark runs at the default face budget",
              file=sys.stderr)
        return 2

    verify, jobs = workloads.setup(args.workload, args.seed)
    run = Run(verify, jobs, args.seconds)
    if args.trace:
        metrics = run.traced()
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = run.untraced()
        metrics["setup_s"] = median(probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES))
        units = E2E_UNITS
    correct = run.failed == 0 and run.carried_over == 0 and run.unrestored == 0

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in run.notes:
        print(note)
    print(f"jobs {run.attempted}, jobs_failed {run.failed}, complexes carried over {run.carried_over}")
    for name, value in metrics.items():
        print(f"{name:<30} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
