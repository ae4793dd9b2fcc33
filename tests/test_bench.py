"""The benchmark harness runs on the checkout's ``src`` and checks every
report of its traced passes, so a change that breaks what the tracer reads
off the package (``void``, ``_closure``, ``_homology``, ``f_vector``,
``nnz``; in ``morse``, ``greedy_collapse``, ``replay_collapse``,
``critical_cells`` and a witness's ``steps``, ``steps_tried`` and
``is_collapsible``) fails here."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["desk-small", "snf-heavy", "cycle-collapse"])
def test_bench_traced_pass_is_correct(workload):
    argv = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
            "--seed", "2026", "--seconds", "0", "--trace", "1"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
