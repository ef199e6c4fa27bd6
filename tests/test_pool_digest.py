"""The outputs of the benchmark's ``saturate-swap`` pool are pinned.

``tools/pool_digest.py`` digests every output of a benchmark pool, raw and
up to the numbering of each alternative.  A change meant to speed the
program up leaves both digests as they are.  A change that alters the
outputs on purpose updates the digests below and says why.  The tool runs
in a fresh interpreter, as the benchmark imports the program afresh, and
writes no bytecode under ``perfbench/``.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_saturate_swap_outputs_are_unchanged():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    r = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "pool_digest.py"),
                        "--workload", "saturate-swap", "--seed", "1"],
                       capture_output=True, text=True, env=env, timeout=600)
    assert r.returncode == 0, r.stderr[-2000:]
    assert r.stdout.split() == ["saturate-swap", "seed", "1", "jobs", "100",
                                "raw", "7da56b102c90fd0c", "cert", "aaea2111dfaccd0d"]
