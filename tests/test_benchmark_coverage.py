"""The benchmark's traced functions are the ones its workloads run.

``perfbench/run.py --trace 1`` reports ``coverage: MISSING ...`` when a
function that ``run.COVERAGE`` names for a workload is never called, for
instance after a refactor routes a step around that name.  This test runs
the first jobs of every workload's seed-1 pool under the benchmark's own
``Tracer``, in a fresh interpreter (the benchmark imports the program
afresh, which would replace the modules this test session holds), with its
work files in a temporary directory.  Nothing under ``perfbench/`` is
written, not even bytecode caches.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOBS = 4  # the first jobs of each pool

SCRIPT = """
import json, os, signal, sys
sys.path[:0] = [os.path.join(sys.argv[1], "perfbench")]
import run, tracing
from workloads import WORKLOADS

signal.signal(signal.SIGALRM, run._on_alarm)
report = {}
for name, wl in sorted(WORKLOADS.items()):
    env, pool = run.setup(wl, 1, os.path.join(sys.argv[2], name))
    tracer = tracing.Tracer()
    tracer.install(env.main)
    errors = []
    try:
        for idx, job in enumerate(pool[:int(sys.argv[3])]):
            env.write_inputs(job, idx)
            tracer.begin_job(idx)
            _, outcome, error = run.run_job(wl, job, env)
            tracer.end_job()
            if error or not outcome.correct:
                errors.append(error or outcome.detail)
    finally:
        tracer.uninstall()
    report[name] = {
        "missing": [f for f in run.COVERAGE[name] if tracer.calls[tracer.index[f]] == 0],
        "errors": errors,
    }
print(json.dumps(report))
"""


def test_every_covered_function_runs_in_the_first_jobs(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    r = subprocess.run([sys.executable, "-c", SCRIPT, ROOT, str(tmp_path), str(JOBS)],
                       capture_output=True, text=True, env=env, timeout=600)
    assert r.returncode == 0, r.stderr[-2000:]
    report = json.loads(r.stdout.splitlines()[-1])
    assert sorted(report) == ["egraph-replay", "normalize-boxes", "rewrite-sort",
                              "saturate-swap"]
    for name, got in report.items():
        assert got == {"missing": [], "errors": []}, name
