"""The benchmark harness runs on the checkout's ``src`` and checks every
report of its passes, traced and untraced, so a change that breaks what the
tracer reads off the package (``void``, ``_closure``, ``_homology``,
``f_vector``, ``nnz``; in ``morse``, ``greedy_collapse``,
``replay_collapse``, ``critical_cells`` and a witness's ``steps``,
``steps_tried`` and ``is_collapsible``) or what the untraced pass measures
fails here."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


CASES = [(w, t) for t in (1, 0) for w in ("desk-small", "snf-heavy", "cycle-collapse")]


@pytest.mark.parametrize("workload,trace", CASES, ids=[w + ("" if t else "-untraced") for w, t in CASES])
def test_bench_traced_pass_is_correct(workload, trace):
    # --trace 0 is the measured path: Run.untraced and the set-up probes
    # that give the four end-to-end metrics
    argv = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
            "--seed", "2026", "--seconds", "0", "--trace", str(trace)]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    if not trace:
        assert set(result["metrics"]) == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}, result
