"""Benchmark of the megraph CLI pipelines, end to end and per layer.

One run executes one workload as a closed loop: a single client runs one
pipeline job after another, in this process, through the real CLI entry
point ``megraph.cli.main`` (via ``click.testing.CliRunner``).  Every job's
output is checked against an independent reference.

    python3 perfbench/run.py --workload saturate-swap --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload saturate-swap --seed 1 --seconds 60 --trace 1
    python3 perfbench/run.py --all --seed 1 --seconds 60   # every workload, fresh processes
    python3 perfbench/run.py --selfcheck                   # determinism self-check
    python3 perfbench/run.py --crosscheck                  # single-run baselines

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it wraps the program's public functions and reports per-layer
metrics instead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The program
is imported from ``src/`` of the checkout that holds this directory.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import weakref  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import refs  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Job, JobFailed, Outcome  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
WORK = os.path.join(HERE, ".work", str(os.getpid()))  # this process's work files

SETUP_REPS = 5  # setup_s is the median of this many fresh processes' set-ups
JOB_LIMIT_S = 30.0  # per-job limit: catches hangs, far above the slowest job
OVERHEAD_SHARE = 0.1  # share of the traced jobs re-run to measure the tracing overhead

# Functions whose layer metrics the prediction table of README.md relies on,
# by the workload on which they are predicted to move an end-to-end metric.
# (term.interpret was also predicted for egraph-replay, but replay calls it
# only when it merges two input-free producers, which no job does.)
COVERAGE = {
    "saturate-swap": ["cospan.iso", "rewrite.find_matches", "rewrite.monomorphisms",
                      "rewrite.apply", "engine.saturate"],
    "normalize-boxes": ["core.degrees", "cospan.is_mda_well_typed", "core.validate",
                        "rewrite.structural_matches", "cospan.pushout"],
    "rewrite-sort": ["core.degrees", "cospan.is_mda_well_typed", "core.validate",
                     "rewrite.find_matches", "rewrite.monomorphisms",
                     "term.interpret", "cospan.pushout"],
    "egraph-replay": ["cospan.iso", "cospan.pushout",
                      "serialize.loads_cospan", "serialize.dumps_cospan",
                      "serialize.loads_egraph", "egraph.translate", "egraph.replay"],
}


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_LIMIT_S:g} s")


class Env:
    """What a job sees: the CLI, its work directory and library modules."""

    def __init__(self, work: str, main, lib, runner) -> None:
        self.work = work
        self.main = main
        self.lib = lib
        self.runner = runner

    def cli(self, *args: str) -> str:
        r = self.runner.invoke(self.main, list(args))
        if r.exit_code != 0 or r.exception is not None or "Traceback" in r.output:
            raise JobFailed(f"{args[0]}: exit {r.exit_code}: "
                            f"{r.exception!r} {r.stderr.strip()[-200:]}")
        return r.stdout

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def put(self, name: str, text: str) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def write_inputs(self, job: Job, idx: int) -> None:
        """Write a job's input documents before its first run, outside its
        timer and outside set-up."""
        if job.files and not job.paths:
            job.paths = {n: self.put(f"j{idx}-{n}", t) for n, t in job.files.items()}

    def read(self, path: str) -> str:
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    @staticmethod
    def release() -> None:
        """Drop the stream wrappers click caches per CliRunner invocation.

        click keeps them in weak-keyed caches whose values keep the keys
        alive, so without this every invocation would retain about 10 KB and
        peak RSS would grow with the number of jobs a run completes."""
        from click import _compat

        for name in ("_default_text_stdin", "_default_text_stdout",
                     "_default_text_stderr"):
            for cell in getattr(getattr(_compat, name, None), "__closure__", None) or ():
                if isinstance(cell.cell_contents, weakref.WeakKeyDictionary):
                    cell.cell_contents.clear()


def env_dir(wl) -> str:
    return os.path.join(WORK, wl.name if wl else "crosscheck")


def load_program():
    """Import megraph afresh from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == "megraph" or n.startswith("megraph.")]:
        del sys.modules[name]
    cli = importlib.import_module("megraph.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"megraph imported from {cli.__file__}, not from {SRC}")
    lib = SimpleNamespace(**{m: importlib.import_module("megraph." + m)
                             for m in ("term", "serialize", "egraph", "engine")})
    from click.testing import CliRunner
    return cli.main, lib, CliRunner()


def setup(wl, seed: int, work: str) -> tuple[Env, list[Job]]:
    """Import the program, generate the inputs and write the signature, rule
    and cost files."""
    main, lib, runner = load_program()
    pool = wl.make_pool(random.Random(seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = Env(work, main, lib, runner)
    for name, text in wl.files.items():
        env.put(name, text)
    return env, pool


def digest(wl, pool: list[Job]) -> str:
    h = hashlib.sha256()
    for part in [f"{n}\n{t}" for n, t in sorted(wl.files.items())] + [
            p for job in pool for p in job.digest_parts()]:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def run_job(wl, job: Job, env: Env) -> tuple[float, Outcome | None, str]:
    """Run one job under the per-job limit and check its output, untimed.

    Returns the job's wall time, its checked outcome (None when it failed)
    and the failure message."""
    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    t0 = time.perf_counter()
    try:
        out = wl.run(job, env)
        error = ""
    except Exception as exc:  # a failed job is counted, never retried
        out, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        dt = time.perf_counter() - t0
        fired = signal.getitimer(signal.ITIMER_REAL)[0] == 0
        signal.setitimer(signal.ITIMER_REAL, 0)
    env.release()
    if out is None:
        return dt, None, ("timeout: " if fired else "") + error
    return dt, wl.check(job, out), ""


Done = list[tuple[int, float, "Outcome | None"]]


def loop(wl, pool: list[Job], env: Env, seconds: float, tracer=None) -> Done:
    """Run jobs back to back, cycling through the pool, until ``seconds`` of
    wall time have passed and every pool job has run.
    Returns (pool index, wall time, outcome) per execution."""
    done: Done = []
    i = 0
    t0 = time.perf_counter()
    while True:
        idx = i % len(pool)
        env.write_inputs(pool[idx], idx)
        if tracer:
            tracer.begin_job(i)
        dt, outcome, error = run_job(wl, pool[idx], env)
        if tracer:
            tracer.end_job()
        if error or not outcome.correct:
            print(f"job {i}: {error or 'wrong: ' + outcome.detail}", file=sys.stderr)
        done.append((idx, dt, outcome))
        i += 1
        if time.perf_counter() - t0 >= seconds and i >= len(pool):
            return done


def percentile(xs: list[float], p: float) -> float:
    """Nearest-rank percentile; failed jobs are +inf."""
    s = sorted(xs)
    return s[max(0, math.ceil(p * len(s)) - 1)]


def summary(done: Done, pool: list[Job]) -> dict:
    """End-to-end figures of one run, per pool job.

    A pool job's time is the fastest of its executions, which the passes over
    the pool spread across the whole run, so that the slow phases of a shared
    machine drop out; a job that failed in any execution counts as +inf.
    Failures and wrong outputs are counted per pool job too, so the counts
    depend on the seed alone and not on how many passes the run's time
    allowed."""
    best: dict[int, float] = {}
    first: dict[int, Outcome] = {}
    failed: set[int] = set()
    wrong: set[int] = set()
    for idx, dt, o in done:
        best[idx] = min(dt, best.get(idx, math.inf))
        if o is None:
            failed.add(idx)
        else:
            first.setdefault(idx, o)
            if not o.correct:
                wrong.add(idx)
    times = [math.inf if idx in failed else t for idx, t in best.items()]
    # A pool job that never completed counts at twice the cost of a correct
    # extraction, so that a job failing can never lower the sum.
    cost = sum(first[i].cost if i in first else 2 * job.expect["cost"]
               for i, job in enumerate(pool))
    ok = [o for _, _, o in done if o is not None]
    return {
        "n": len(done), "jobs": len(best), "failed": len(failed), "wrong": len(wrong),
        "job_s.p50": percentile(times, 0.5),
        "job_s.p90": percentile(times, 0.9),
        "jobs_per_s": (len(best) - len(failed | wrong)) / sum(best.values()),
        "fail_rate": len(failed) / len(best),
        "wrong_rate": len(wrong) / len(best),
        "extract_cost": cost,
        "edges_in": statistics.fmean(o.edges_in for o in ok) if ok else 0.0,
        "edges_out": statistics.fmean(o.edges_out for o in ok) if ok else 0.0,
    }


E2E_UNITS = {"job_s.p50": "s", "job_s.p90": "s", "jobs_per_s": "1/s", "setup_s": "s",
             "peak_rss_mb": "MB", "fail_rate": "ratio", "wrong_rate": "ratio",
             "extract_cost": "cost"}


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict,
                names: list[str]) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    })


def setup_in_fresh_process(wl, seed: int) -> float:
    """The set-up time of another process, timed as this one's is."""
    r = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", wl.name,
                        "--seed", str(seed), "--setup-only"],
                       capture_output=True, text=True, check=True, timeout=120)
    return float(r.stdout.split()[-1])


def measure(wl, seed: int, seconds: float, work: str) -> int:
    env, pool = setup(wl, seed, work)
    setups = [time.perf_counter() - PROCESS_START]
    signal.signal(signal.SIGALRM, _on_alarm)
    s = summary(loop(wl, pool, env, seconds), pool)
    s["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups += [setup_in_fresh_process(wl, seed) for _ in range(SETUP_REPS - 1)]
    s["setup_s"] = statistics.median(setups)
    print(f"workload {wl.name}  seed {seed}  inputs {digest(wl, pool)}  pool {len(pool)} jobs, "
          f"{s['n']} executions ({s['n'] / len(pool):.1f} per job; one client, closed loop)")
    samples = {"setup_s": SETUP_REPS, "peak_rss_mb": 1}
    for name, unit in E2E_UNITS.items():
        print(f"  {name:<14} {s[name]:>14.6g} {unit:<6} n={samples.get(name, s['jobs'])}")
    names = [m["name"] for m in bench_spec()["end_to_end"]]
    print(result_line(s["wrong"] == 0, s["jobs"], s["failed"], s, E2E_UNITS, names))
    return 0


def layer_metrics(tracer: tracing.Tracer, s: dict, overhead: float) -> tuple[dict, dict]:
    jobs = s["n"]
    vals: dict[str, float] = {}
    units: dict[str, str] = {}

    def put(name: str, value: float, unit: str) -> None:
        vals[name], units[name] = value, unit

    for mod, fns in tracing.LAYERS.items():
        for fn in fns:
            nid = tracer.index[f"{mod}.{fn}"]
            put(f"{mod}.{fn}.calls", tracer.calls[nid] / jobs, "count/job")
            put(f"{mod}.{fn}.self_s", tracer.self_s[nid] / jobs, "s/job")
    for sub in tracing.CLI_COMMANDS:
        put(f"cli.{sub}.self_s", tracer.self_s[tracer.index[f"cli.{sub}"]] / jobs, "s/job")
    c = tracer.counts.get
    iso_calls = tracer.calls[tracer.index["cospan.iso"]]
    put("cospan.iso.hits", c("cospan.iso.hits", 0) / jobs, "count/job")
    put("cospan.iso.hit_ratio", c("cospan.iso.hits", 0) / iso_calls if iso_calls else 0.0,
        "ratio")
    put("rewrite.find_matches.returned", c("rewrite.find_matches.returned", 0) / jobs,
        "count/job")
    put("rewrite.apply.nocomplement", c("rewrite.apply.nocomplement", 0) / jobs,
        "count/job")
    built = c("rewrite.structural_matches.instances", 0)
    put("rewrite.structural_matches.instances", built / jobs, "count/job")
    put("rewrite.structural_matches.used_ratio",
        c("rewrite.structural_matches.used", 0) / built if built else 0.0, "ratio")
    applies = c("engine.saturate.applies", 0)
    put("engine.saturate.useful_ratio",
        c("engine.saturate.added", 0) / applies if applies else 0.0, "ratio")
    put("egraph.replay.steps", c("egraph.replay.steps", 0) / jobs, "count/job")
    put("serialize.bytes", c("serialize.bytes", 0) / jobs, "B/job")
    put("ir.edges.in", s["edges_in"], "edges")
    put("ir.edges.out", s["edges_out"], "edges")
    put("trace.overhead_ratio", overhead, "ratio")
    return vals, units


def measure_traced(wl, seed: int, seconds: float, work: str) -> int:
    env, pool = setup(wl, seed, work)
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = tracing.Tracer()
    tracer.install(env.main)
    try:
        done = loop(wl, pool, env, seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    # Overhead: each of the first k jobs runs untraced, then traced by a
    # throwaway tracer, so that drift in machine speed cancels out.
    k = max(1, min(round(OVERHEAD_SHARE * len(done)), len(pool)))
    plain_s = traced_s = 0.0
    probe = tracing.Tracer()
    for job in pool[:k]:
        plain_s += run_job(wl, job, env)[0]
        probe.install(env.main)
        try:
            traced_s += run_job(wl, job, env)[0]
        finally:
            probe.end_job()
            probe.uninstall()
    overhead = traced_s / plain_s - 1
    s = summary(done, pool)
    vals, units = layer_metrics(tracer, s, overhead)
    spans = os.path.join(OUT, f"{wl.name}.spans")  # the last traced run of each workload
    tracer.write(spans)

    by_layer: dict[str, float] = {}
    for name, nid in tracer.index.items():
        if name != tracing.JOB:
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + tracer.self_s[nid] / s["n"]
    top = max(by_layer, key=by_layer.get)
    missing = [f for f in COVERAGE[wl.name] if tracer.calls[tracer.index[f]] == 0]
    print(f"workload {wl.name}  seed {seed}  inputs {digest(wl, pool)}  jobs {s['n']} traced")
    print(f"  tracing overhead: {traced_s - plain_s:.4f} s over the first {k} jobs "
          f"({traced_s:.4f} s traced, {plain_s:.4f} s untraced, ratio {overhead:+.3f})")
    print("  self time by layer (s/job): " + ", ".join(
        f"{k_}={v:.4f}" for k_, v in sorted(by_layer.items(), key=lambda kv: -kv[1])))
    print(f"  largest self time: {top}")
    print(f"  outside the program (benchmark and click): "
          f"{tracer.self_s[0] / s['n']:.4f} s/job")
    print(f"  coverage: {'ok' if not missing else 'MISSING ' + ', '.join(missing)}")
    print(f"  spans: {len(tracer.s_name)} written to {os.path.relpath(spans, ROOT)}")
    for name in vals:
        print(f"  {name:<42} {vals[name]:>12.6g} {units[name]}")
    names = [m["name"] for m in bench_spec()["per_layer"]]
    print(result_line(s["wrong"] == 0 and not missing, s["jobs"], s["failed"], vals, units,
                      names))
    return 0


def selfcheck() -> int:
    """Inputs and results of one seed are reproduced; another seed differs."""
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)["determinism"]
    seed, ok = recorded["seed"], True
    signal.signal(signal.SIGALRM, _on_alarm)
    for wl in WORKLOADS.values():
        env, pool = setup(wl, seed, env_dir(wl))
        got = {"inputs": digest(wl, pool)}
        s = summary(loop(wl, pool, env, 0.0), pool)
        got.update({k: s[k] for k in ("extract_cost", "fail_rate", "wrong_rate")})
        other = digest(wl, setup(wl, seed + 1, env_dir(wl))[1])
        want = recorded["workloads"].get(wl.name)
        passed = got == want and other != got["inputs"]
        ok &= passed
        print(f"{wl.name:<16} {'ok' if passed else 'FAILED'}  seed {seed}: {json.dumps(got)}"
              f"  recorded: {json.dumps(want)}  seed {seed + 1} inputs: {other}")
    return 0 if ok else 1


CROSS_SIG = "".join(f"{n} : 1 -> 1\n" for n in
                    ["f0", "f1", "f2", "f3", "f4", "f5", "g1", "g2", "g3", "g4"])


def crosscheck() -> int:
    """Reproduce the single-run baselines: normalize on f0;...;f5;(g1+...+g4)
    (about 38 ms) and saturate on (f0;f1)x3 (19 new alternatives)."""
    main, lib, runner = load_program()
    env = Env(env_dir(None), main, lib, runner)
    os.makedirs(env.work, exist_ok=True)
    sig = env.put("sig.txt", CROSS_SIG)
    rules = env.put("rules.txt", "swap : f0 ; f1 => f1 ; f0\n")
    chain = env.put("n.json", env.cli(
        "interp", "f0 ; f1 ; f2 ; f3 ; f4 ; f5 ; (g1 + g2 + g3 + g4)", "--sig", sig))
    c = lib.serialize.loads_cospan(env.read(chain))

    def normalize_ms() -> float:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            lib.engine.normalize(c)
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    plain = normalize_ms()
    tracer = tracing.Tracer()
    tracer.install(main)
    try:
        traced = normalize_ms()
        swap = env.put("s.json", env.cli(
            "interp", "f0 ; f1 ; f0 ; f1 ; f0 ; f1", "--sig", sig))
        t0 = time.perf_counter()
        out = env.cli("saturate", swap, "--rules", rules, "--sig", sig, "--bidirectional")
        sat_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    added = refs.top_alternatives(out) - 1
    n = tracer.index
    ok = added == 19 and tracer.counts.get("engine.saturate.added") == 19
    ok &= 38 / 2 <= plain <= 38 * 2
    print(f"normalize f0;...;f5;(g1+...+g4): {plain:.1f} ms untraced, {traced:.1f} ms "
          f"traced (baseline about 38 ms)")
    print(f"saturate (f0;f1)x3: {added} new alternatives in {sat_s:.1f} s traced "
          f"(baseline 19 in 14.8 s); iso calls {tracer.calls[n['cospan.iso']]}, "
          f"apply calls {tracer.calls[n['rewrite.apply']]}")
    print("crosscheck", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="wall time to measure (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, each in a fresh process")
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--crosscheck", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up the workload, print the seconds since process start, exit")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "megraph", "__init__.py")):
        print(f"error: no megraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    seconds = args.seconds if args.seconds is not None else bench_spec()["run_seconds"]
    wl = WORKLOADS.get(args.workload)
    if args.all:
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                                 name, "--seed", str(args.seed), "--seconds",
                                 str(seconds), "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    try:
        if args.selfcheck:
            return selfcheck()
        if args.crosscheck:
            return crosscheck()
        if wl is None:
            ap.error("--workload is required")
        if args.setup_only:
            setup(wl, args.seed, env_dir(wl))
            print(time.perf_counter() - PROCESS_START)
            return 0
        run = measure_traced if args.trace else measure
        return run(wl, args.seed, seconds, env_dir(wl))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
