"""Digest every benchmark pool job's outputs, to compare two checkouts.

    python3 tools/pool_digest.py [--workload NAME]... [--seed N]...

Runs every job of the pools of the four ``perfbench`` workloads, for seeds
1 and 2, through the benchmark's own ``setup`` and ``Workload.run``, in a
temporary work directory; ``--workload`` and ``--seed``, each of which may
be repeated, run only the workloads and seeds they name.  It prints one line
per workload and seed with two digests of the outputs, job by job:

- ``raw``: the output texts as the pipeline wrote them.
- ``cert``: the same, with each diagram document replaced by the
  certificate of each of its components, in order.  It is blind to vertex
  and edge numbering, and to anything else that leaves every alternative
  isomorphic and in place.

A job that fails contributes its error message to both digests.  The
program is imported from ``src/`` of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2)


def certificates(text: str, lib) -> str:
    """The certificates of a diagram document's components, or the text
    itself when it is not a diagram document."""
    serialize = lib.serialize
    try:
        c = serialize.loads_cospan(text)
    except (serialize.SerializationError, ValueError):
        return text
    rewrite = importlib.import_module("megraph.rewrite")
    cospan = importlib.import_module("megraph.cospan")
    return repr([cospan.certificate(p) for p in rewrite.components(c)])


def digests(wl, seed: int, work: str) -> tuple[str, str, int]:
    env, pool = run.setup(wl, seed, work)
    raw, cert = hashlib.sha256(), hashlib.sha256()
    for idx, job in enumerate(pool):
        env.write_inputs(job, idx)
        try:
            out = wl.run(job, env)
        except Exception as exc:  # a failed job is part of what is compared
            out = {"failed": f"{type(exc).__name__}: {exc}"}
        env.release()
        for name, text in sorted(out.items()):
            for h, part in ((raw, text), (cert, certificates(text, env.lib))):
                h.update(f"{idx}\0{name}\0{part}\0".encode())
    return raw.hexdigest()[:16], cert.hexdigest()[:16], len(pool)


def main() -> int:
    ap = argparse.ArgumentParser(description="Digest the benchmark pools' outputs.")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="a workload to run (default: all)")
    ap.add_argument("--seed", action="append", type=int, help="a pool seed (default: 1 and 2)")
    args = ap.parse_args()
    names = args.workload or list(WORKLOADS)
    with tempfile.TemporaryDirectory() as tmp:
        for wl in (WORKLOADS[name] for name in names):
            for seed in args.seed or SEEDS:
                r, c, n = digests(wl, seed, os.path.join(tmp, f"{wl.name}-{seed}"))
                print(f"{wl.name:<16} seed {seed}  jobs {n:>4}  raw {r}  cert {c}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
