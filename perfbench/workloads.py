"""The four seeded workloads: input generation, the pipeline each job runs
through the megraph CLI, and the check of each job's output.

Every workload draws its jobs in a fixed cycle of shape classes and
randomises only the contents of each shape from the seed.  The mix of job
sizes is therefore the same for every seed, which keeps the medians and
tail percentiles of one run comparable with another's.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import egraphs
import refs


class JobFailed(Exception):
    """A stage exited non-zero, raised, or printed a traceback."""


@dataclass
class Job:
    term: str = ""  # the term text a job interprets, if any
    files: dict[str, str] = field(default_factory=dict)  # input documents
    expect: dict = field(default_factory=dict)  # "cost": a correct job's extract cost
    paths: dict[str, str] = field(default_factory=dict)  # set before the first run

    def digest_parts(self) -> list[str]:
        return [self.term] + [f"{n}\n{t}" for n, t in sorted(self.files.items())]


@dataclass
class Outcome:
    correct: bool
    cost: int
    edges_in: int
    edges_out: int
    detail: str = ""


class Workload:
    name = ""
    files: dict[str, str] = {}
    costs: dict[str, int] = {}
    SHAPES: list = []  # one cycle of job shapes
    cycles = 1  # the pool is this many cycles of SHAPES

    def make_pool(self, rng: random.Random) -> list[Job]:
        raise NotImplementedError

    def run(self, job: Job, env) -> dict[str, str]:
        raise NotImplementedError

    def check(self, job: Job, out: dict[str, str]) -> Outcome:
        raise NotImplementedError


def _seq(items: list[str]) -> str:
    return items[0] if len(items) == 1 else "(" + " ; ".join(items) + ")"


def _cost_file(costs: dict[str, int]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in costs.items())


# ---------------------------------------------------------------------------
# saturate-swap
# ---------------------------------------------------------------------------


class SaturateSwap(Workload):
    name = "saturate-swap"
    files = {
        "sig.txt": "f0 : 1 -> 1\nf1 : 1 -> 1\ng : 1 -> 1\n",
        "rules.txt": "swap : f0 ; f1 => f1 ; f0\n",
    }
    # One cycle of shapes: each strand is a list of (f0 count, f1 count)
    # segments separated by g.  Sorted by cost the cycle is two words of 3
    # arrangements, two shapes of 4, three words of 6 (the median falls among
    # these, whose arrangements are dealt evenly), one g-split shape of 6, and
    # two of three parallel strands with 8 (the 90th percentile falls among
    # them).
    SHAPES = [
        [[(1, 2)]],
        [[(2, 2)]],
        [[(3, 1)]],
        [[(1, 1)], [(1, 1)], [(1, 1)]],
        [[(2, 2)]],
        [[(2, 1)]],
        [[(1, 1), (2, 1)]],
        [[(1, 1)], [(1, 1)]],
        [[(2, 2)]],
        [[(1, 1)], [(1, 1)], [(1, 1)]],
    ]
    cycles = 10

    @staticmethod
    def _arrangements(shape) -> list[list[list[str]]]:
        """Every starting input of a shape, as a list of strands."""
        def strands(segs):
            words = [sorted(set(itertools.permutations(["f0"] * n0 + ["f1"] * n1)))
                     for n0, n1 in segs]
            return [sum(([*w] if i == 0 else ["g", *w] for i, w in enumerate(ws)), [])
                    for ws in itertools.product(*words)]
        return [list(c) for c in itertools.product(*(strands(segs) for segs in shape))]

    def make_pool(self, rng):
        # Each shape deals its starting arrangements from a seeded shuffle, so
        # every seed runs nearly the same multiset of inputs in another order.
        decks: dict[str, list] = {}
        pool = []
        for shape in self.SHAPES * self.cycles:
            deck = decks.setdefault(repr(shape), [])
            if not deck:
                deck.extend(self._arrangements(shape))
                rng.shuffle(deck)
            strands = deck.pop()
            text = " * ".join(_seq(s) for s in strands)
            pool.append(Job(term=text, expect={
                "strands": strands, "cost": sum(len(s) for s in strands)}))
        return pool

    def run(self, job, env):
        first = env.cli("interp", job.term, "--sig", env.path("sig.txt"))
        last = env.cli("saturate", env.put("g.json", first), "--rules",
                       env.path("rules.txt"), "--sig", env.path("sig.txt"),
                       "--bidirectional")
        term = env.cli("extract", env.put("s.json", last))
        return {"first": first, "last": last, "term": term}

    def check(self, job, out):
        strands = job.expect["strands"]
        want = refs.swap_arrangements(strands)
        got = refs.top_alternatives(out["last"])
        gens = sorted(refs.term_generators(out["term"]))
        ok = got == want and gens == sorted(x for s in strands for x in s)
        return Outcome(ok, refs.term_cost(out["term"], {}),
                       refs.edge_count(out["first"]), refs.edge_count(out["last"]),
                       f"alternatives {got}, expected {want}")


# ---------------------------------------------------------------------------
# normalize-boxes
# ---------------------------------------------------------------------------


SKELETON_SEED = 9  # fixes the normalize-boxes term skeletons


class NormalizeBoxes(Workload):
    name = "normalize-boxes"
    costs = {"f": 2, "g": 3, "h": 5, "s": 1, "k": 1}
    files = {
        "sig.txt": "f : 1 -> 1\ng : 1 -> 1\nh : 1 -> 1\ns : 1 -> 2\nk : 2 -> 1\n",
        "costs.txt": _cost_file(costs),
    }
    # One cycle of (lowest, highest) sizes of the syntactic expansion before
    # deduplication, counted in generators: the best single predictor of a
    # job's time that was found (time grows about as its 2.5th power).
    SHAPES = [(10, 24), (25, 40), (10, 24), (25, 40), (45, 60), (25, 40),
              (10, 24), (25, 40), (45, 60), (25, 40)]
    cycles = 10
    DEPTH = 4

    def _word(self, rng):
        return ("w", [rng.choice("fgh") for _ in range(rng.randint(1, 3))])

    def _term(self, rng, depth):
        if depth >= self.DEPTH or rng.random() < 0.3:
            return self._word(rng)
        if rng.random() < 0.2:
            return ("blk", self._term(rng, depth + 1), self._term(rng, depth + 1))
        t = ("alt", self._term(rng, depth + 1), self._term(rng, depth + 1))
        r = rng.random()
        if r < 0.3:
            t = ("seq", self._word(rng), t)
        elif r < 0.6:
            t = ("seq", t, self._word(rng))
        return t

    def _text(self, t) -> str:
        kind = t[0]
        if kind == "w":
            return _seq(t[1])
        if kind == "seq":
            return f"({self._text(t[1])} ; {self._text(t[2])})"
        if kind == "blk":
            return f"(s ; ({self._text(t[1])} * {self._text(t[2])}) ; k)"
        return f"({self._text(t[1])} + {self._text(t[2])})"

    def _skeletons(self) -> list:
        """One term skeleton per pool slot, drawn from a fixed generator
        seed: the nesting, contexts, blocks and word lengths stay the same for
        every run seed, which sets only the letters."""
        rng = random.Random(SKELETON_SEED)
        out = []
        for lo, hi in self.SHAPES * self.cycles:
            while True:
                t = self._term(rng, 0)
                if len(refs.expand(t)) > 1 and lo <= refs.expanded_size(t) <= hi:
                    break
            out.append(t)
        return out

    def _fill(self, rng, t):
        if t[0] == "w":
            return ("w", [rng.choice("fgh") for _ in t[1]])
        return (t[0], self._fill(rng, t[1]), self._fill(rng, t[2]))

    def make_pool(self, rng):
        pool = []
        for skeleton in self._skeletons():
            t = self._fill(rng, skeleton)
            parts = refs.expand(t)
            pool.append(Job(term=self._text(t), expect={
                "alternatives": len(parts),
                "cost": min(refs.part_cost(p, self.costs) for p in parts),
            }))
        return pool

    def run(self, job, env):
        first = env.cli("interp", job.term, "--sig", env.path("sig.txt"))
        last = env.cli("normalize", env.put("g.json", first))
        term = env.cli("extract", env.put("n.json", last), "--costs",
                       env.path("costs.txt"))
        return {"first": first, "last": last, "term": term}

    def check(self, job, out):
        got = refs.top_alternatives(out["last"])
        cost = refs.term_cost(out["term"], self.costs)
        ok = got == job.expect["alternatives"] and cost == job.expect["cost"]
        return Outcome(ok, cost, refs.edge_count(out["first"]),
                       refs.edge_count(out["last"]),
                       f"alternatives {got}, expected {job.expect['alternatives']}; "
                       f"cost {cost}, expected {job.expect['cost']}")


# ---------------------------------------------------------------------------
# rewrite-sort
# ---------------------------------------------------------------------------


class RewriteSort(Workload):
    name = "rewrite-sort"
    files = {
        "sig.txt": "f : 1 -> 1\ng : 1 -> 1\nh : 1 -> 1\ns : 1 -> 2\nk : 2 -> 1\n",
        "rules.txt": "gf : g ; f => f ; g\nhf : h ; f => f ; h\nhg : h ; g => g ; h\n",
    }
    # Units per host.  Sorted, the median falls among the three 24s and the
    # 90th percentile among the two 36s.
    SHAPES = [12, 24, 16, 36, 24, 12, 24, 16, 36, 28]
    cycles = 15

    @staticmethod
    def _segment(rng, n: int) -> list[str]:
        """n letters in near-equal numbers, with as many inversions as a
        uniformly random word has on average, n(n-1)/6."""
        letters = sorted(list("fgh" * (n // 3)) + rng.sample("fgh", n % 3))
        for _ in range(round(n * (n - 1) / 6)):
            i = rng.choice([i for i in range(n - 1) if letters[i] < letters[i + 1]])
            letters[i], letters[i + 1] = letters[i + 1], letters[i]
        return letters

    def _chain(self, rng, units: int) -> tuple:
        """Runs of 7 letters separated by s;(x*y);k blocks, ``units`` long."""
        items: list = []
        for start in range(0, units, 8):
            items += self._segment(rng, min(7, units - start))
            if start + 7 < units:
                items.append(("blk", tuple(self._segment(rng, 3)),
                              tuple(self._segment(rng, 3))))
        return tuple(items)

    def _text(self, part: tuple) -> str:
        out = []
        for item in part:
            if isinstance(item, tuple):
                out.append(f"(s ; ({self._text(item[1])} * {self._text(item[2])}) ; k)")
            else:
                out.append(item)
        return _seq(out)

    def make_pool(self, rng):
        pool = []
        for units in self.SHAPES * self.cycles:
            chain = self._chain(rng, units)
            pool.append(Job(term=self._text(chain), expect={
                "chain": refs.sorted_chain(chain),
                "cost": refs.part_cost(chain, dict.fromkeys("fghsk", 1))}))
        return pool

    def run(self, job, env):
        first = env.cli("interp", job.term, "--sig", env.path("sig.txt"))
        last = env.cli("rewrite", env.put("g.json", first), "--rules",
                       env.path("rules.txt"), "--sig", env.path("sig.txt"), "--all")
        term = env.cli("extract", env.put("r.json", last))
        return {"first": first, "last": last, "term": term}

    def check(self, job, out):
        got = refs.read_chain(out["last"])
        ok = got == job.expect["chain"]
        return Outcome(ok, refs.term_cost(out["term"], {}),
                       refs.edge_count(out["first"]), refs.edge_count(out["last"]),
                       "output chain differs from the sorted input")


# ---------------------------------------------------------------------------
# egraph-replay
# ---------------------------------------------------------------------------


class EgraphReplay(Workload):
    name = "egraph-replay"
    costs = {"a": 1, "one": 1, "two": 1, "mul": 4, "shl": 2, "div": 8,
             "dup": 0, "del": 0}
    files = {
        "sig.txt": "a : 0 -> 1\none : 0 -> 1\ntwo : 0 -> 1\nmul : 2 -> 1\n"
                   "shl : 2 -> 1\ndiv : 2 -> 1\n",
        "costs.txt": _cost_file(costs),
    }
    RULES = [("(id:1 * two) ; mul", "(id:1 * one) ; shl"),
             ("(mul * id:1) ; div", "(id:1 * div) ; mul")]
    # One cycle of (lowest, highest) class counts of the starting e-graph and
    # the second rewrite: none, or reassociation at a site that extends the
    # e-graph with a new class ("extend") or merges two classes that both
    # exist already ("merge").  replay fails on every merge (see the README),
    # so the cycle holds exactly one of them: fail_rate is 1/30 for every
    # seed until replay is fixed.  Sizes stop at 17 classes: with 18-20, one
    # job of seed 4's pool took 15 s, half the per-job limit, and 22-25 ran
    # past 12 s more often; at 10-17 the slowest jobs of four seeds took
    # 0.2-0.8 s, so the iso tail shows while every job finishes far below
    # the limit.
    SHAPES = [((10, 12), None), ((13, 15), "extend"), ((16, 17), None),
              ((10, 12), "extend"), ((13, 15), None), ((10, 12), None),
              ((13, 15), None), ((16, 17), "extend"), ((10, 12), None),
              ((13, 15), "extend")] * 3
    SHAPES[11] = ((13, 15), "merge")
    cycles = 20  # small, fast jobs: a large pool keeps rare slow ones in proportion

    def _egraphs(self, rng, lo, hi, step):
        while True:
            n = rng.randint(lo, hi)
            tree = (egraphs.planted_tree(rng, n) if step == "merge"
                    else egraphs.random_tree(rng, n))
            eg = egraphs.egraph_of_tree(tree)
            if not lo <= len(eg.classes()) <= hi or not egraphs.shl_sites(eg):
                continue
            chain = [eg, egraphs.rewrite_shl(eg, rng.choice(egraphs.shl_sites(eg)))]
            if step:
                sites = [site for site in egraphs.reassoc_sites(chain[1])
                         if egraphs.reassoc_merges(chain[1], site) == (step == "merge")]
                if not sites:
                    continue
                chain.append(egraphs.rewrite_reassoc(chain[1], rng.choice(sites)))
            return chain

    def make_pool(self, rng):
        pool = []
        for (lo, hi), step in self.SHAPES * self.cycles:
            chain = self._egraphs(rng, lo, hi, step)
            files = {f"eg{i}.json": eg.to_json() for i, eg in enumerate(chain)}
            pool.append(Job(files=files,
                            expect={"cost": chain[-1].min_cost(self.costs)}))
        return pool

    def run(self, job, env):
        sig_path = env.path("sig.txt")
        paths = [job.paths[n] for n in sorted(job.files)]
        first = env.cli("import-egraph", paths[0], "--sig", sig_path)
        for p in paths[1:]:
            env.cli("import-egraph", p, "--sig", sig_path)
        lib = env.lib
        sig = lib.term.parse_signature(env.read(sig_path), cartesian=True)
        graphs = [lib.serialize.loads_egraph(env.read(p)) for p in paths]
        for (lhs, rhs), before, after in zip(self.RULES, graphs, graphs[1:]):
            rule = (lib.term.parse(lhs), lib.term.parse(rhs))
            result = lib.egraph.replay(before, rule, after, sig)
        last = lib.serialize.dumps_cospan(result.result)
        term = env.cli("extract", env.put("x.json", last), "--costs",
                       env.path("costs.txt"))
        return {"first": first, "last": last, "term": term}

    def check(self, job, out):
        cost = refs.term_cost(out["term"], self.costs)
        ok = cost == job.expect["cost"]
        return Outcome(ok, cost, refs.edge_count(out["first"]),
                       refs.edge_count(out["last"]),
                       f"cost {cost}, expected {job.expect['cost']}")


WORKLOADS = {w.name: w for w in (SaturateSwap(), NormalizeBoxes(), RewriteSort(),
                                 EgraphReplay())}
