"""Spans around calls into megraph's public functions, recorded from outside.

``Tracer.install`` wraps each function named in ``LAYERS`` and rebinds the
wrapper in every ``megraph`` module namespace that holds the original, so
names bound by ``from .x import y`` are traced as well as module-attribute
calls such as ``cs.iso``.  Subcommand callbacks of the CLI are wrapped the
same way.  No file of the program is changed; ``uninstall`` restores the
original bindings.

Each span records name, start, end, parent span and job id in compact
arrays kept in memory; ``write`` stores them when the run ends.  Self time
of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from array import array

LAYERS = {
    "term": ["parse", "interpret"],
    "cospan": ["compose", "tensor", "join", "pushout", "iso", "validate_cospan",
               "is_mda_well_typed"],
    "core": ["validate", "degrees", "down_closure", "is_convex"],
    "rewrite": ["find_matches", "monomorphisms", "boundary_complement", "apply",
                "structural_matches", "extract_subdiagram", "component_cospan"],
    "engine": ["normalize", "saturate", "prune", "term_of"],
    "egraph": ["translate", "replay"],
    "serialize": ["loads_cospan", "dumps_cospan", "loads_egraph"],
}
CLI_COMMANDS = ["interp", "saturate", "normalize", "rewrite", "extract",
                "import-egraph"]
JOB = "job"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [JOB]
        self.index: dict[str, int] = {JOB: 0}
        self.calls: list[int] = [0]
        self.self_s: list[float] = [0.0]
        self.active: list[int] = [0]
        # span arrays
        self.s_name = array("H")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("l")
        self.s_job = array("l")
        self.stack: list[list] = []  # [span index, name id, start, child time]
        self.job = -1
        self.counts: dict[str, float] = {}
        self.structural_last: list = []
        self.structural_ids: set[int] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.active.append(0)
        return self.index[name]

    def enter(self, nid: int) -> None:
        idx = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self.stack[-1][0] if self.stack else -1)
        self.s_job.append(self.job)
        self.s_end.append(0.0)
        self.active[nid] += 1
        now = time.perf_counter()
        self.s_start.append(now)
        self.stack.append([idx, nid, now, 0.0])

    def leave(self) -> None:
        now = time.perf_counter()
        idx, nid, start, child = self.stack.pop()
        self.s_end[idx] = now
        self.active[nid] -= 1
        dur = now - start
        self.self_s[nid] += dur - child
        if self.stack:
            self.stack[-1][3] += dur

    def begin_job(self, job: int) -> None:
        self.job = job
        self.calls[0] += 1
        self.enter(0)

    def end_job(self) -> None:
        while self.stack:  # spans left open by an interrupted job
            self.leave()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        tracer = self
        key = name.replace(".", "_").replace("-", "_")
        hook = getattr(self, "_after_" + key, None)
        fail = getattr(self, "_failed_" + key, None)

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                tracer.calls[nid] += 1
                it = fn(*args, **kwargs)
                while True:
                    tracer.enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.leave()
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            tracer.calls[nid] += 1
            tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if fail:
                    fail(exc)
                raise
            finally:
                tracer.leave()
            if hook:
                hook(args, result)
            return result

        return traced

    def install(self, cli_main) -> None:
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "megraph" or n.startswith("megraph."))]
        for mod_name, fns in LAYERS.items():
            home = sys.modules["megraph." + mod_name]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(orig, f"{mod_name}.{fn_name}")
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._restore.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        for sub in CLI_COMMANDS:
            cmd = cli_main.commands[sub]
            self._restore.append((cmd, "callback", cmd.callback))
            cmd.callback = self._wrap(cmd.callback, f"cli.{sub}")

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    # -- outcome counters ---------------------------------------------------

    def _after_cospan_iso(self, args, result) -> None:
        if result is not None:
            self.count("cospan.iso.hits")

    def _after_rewrite_find_matches(self, args, result) -> None:
        self.count("rewrite.find_matches.returned", len(result))

    def _after_rewrite_structural_matches(self, args, result) -> None:
        self.count("rewrite.structural_matches.instances", len(result))
        # The list is kept alive so that the ids of its matches stay unique.
        self.structural_last = result
        self.structural_ids = {id(m) for _, m in result}

    def _after_rewrite_apply(self, args, result) -> None:
        if self.active[self.index["engine.saturate"]]:
            self.count("engine.saturate.applies")
        if args and id(args[0]) in self.structural_ids:
            self.count("rewrite.structural_matches.used")

    def _failed_rewrite_apply(self, exc) -> None:
        if type(exc).__name__ == "NoComplement":
            self.count("rewrite.apply.nocomplement")
        if self.active[self.index["engine.saturate"]]:
            self.count("engine.saturate.applies")

    def _after_engine_saturate(self, args, result) -> None:
        self.count("engine.saturate.added", result.steps)

    def _after_egraph_replay(self, args, result) -> None:
        self.count("egraph.replay.steps", len(result.steps))

    def _after_serialize_loads_cospan(self, args, result) -> None:
        self.count("serialize.bytes", len(args[0]))

    def _after_serialize_loads_egraph(self, args, result) -> None:
        self.count("serialize.bytes", len(args[0]))

    def _after_serialize_dumps_cospan(self, args, result) -> None:
        self.count("serialize.bytes", len(result))

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as raw arrays in ``path``, described by ``path + '.json'``."""
        fields = [("name", self.s_name), ("start", self.s_start),
                  ("end", self.s_end), ("parent", self.s_parent),
                  ("job", self.s_job)]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            for _, arr in fields:
                arr.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"spans": len(self.s_name), "names": self.names,
                       "fields": [[n, a.typecode, a.itemsize] for n, a in fields],
                       "byteorder": sys.byteorder}, fh, indent=1)
