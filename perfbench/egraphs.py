"""A small classical e-graph used to *generate* the egraph-replay inputs.

It is written independently of ``megraph.egraph`` so that the program under
test receives only e-graph JSON documents, and so that the reference
extraction cost is computed without megraph's own code.
"""

from __future__ import annotations

import json
import random

LEAVES = ("a", "one", "two")
OPS = ("mul", "div")


class EGraph:
    """Hashcons + union-find with congruence closure by full rebuild."""

    def __init__(self) -> None:
        self.uf: dict[int, int] = {}
        self.nodes: dict[int, set[tuple]] = {}
        self.memo: dict[tuple, int] = {}

    def copy(self) -> "EGraph":
        eg = EGraph()
        eg.uf = dict(self.uf)
        eg.nodes = {c: set(ns) for c, ns in self.nodes.items()}
        eg.memo = dict(self.memo)
        return eg

    def find(self, c: int) -> int:
        while self.uf[c] != c:
            c = self.uf[c]
        return c

    def canon(self, node: tuple) -> tuple:
        head, kids = node
        return head, tuple(self.find(k) for k in kids)

    def add(self, head: str, kids: tuple[int, ...] = ()) -> int:
        node = self.canon((head, kids))
        if node in self.memo:
            return self.find(self.memo[node])
        cid = len(self.uf)
        self.uf[cid] = cid
        self.nodes[cid] = {node}
        self.memo[node] = cid
        return cid

    def merge(self, a: int, b: int) -> None:
        """Union ``a`` into ``b`` and restore congruence."""
        pending = [(a, b)]
        while pending:
            x, y = (self.find(c) for c in pending.pop())
            if x == y:
                continue
            self.uf[x] = y
            self.nodes[y] |= self.nodes.pop(x)
            memo: dict[tuple, int] = {}
            for c, ns in self.nodes.items():
                self.nodes[c] = {self.canon(n) for n in ns}
                for n in self.nodes[c]:
                    if n in memo and memo[n] != c:
                        pending.append((memo[n], c))
                    memo[n] = c
            self.memo = memo

    def classes(self) -> list[int]:
        return sorted(self.nodes)

    def class_of(self, head: str, kids: tuple[int, ...] = ()) -> int | None:
        c = self.memo.get(self.canon((head, kids)))
        return None if c is None else self.find(c)

    def min_cost(self, costs: dict[str, int]) -> int:
        """Sum over classes of the cheapest node head: the extraction cost of
        the translated diagram when copy and discard are free."""
        return sum(min(costs[h] for h, _ in ns) for ns in self.nodes.values())

    def to_json(self) -> str:
        classes = [
            {
                "id": c,
                "nodes": [
                    {"head": h, "children": list(kids)}
                    for h, kids in sorted(self.nodes[c])
                ],
            }
            for c in self.classes()
        ]
        return json.dumps({"classes": classes}) + "\n"


def random_tree(rng: random.Random, size: int):
    """A random arithmetic term tree with ``size`` operator nodes, with
    ``x*2`` redexes planted at a fifth of the operator positions."""
    if size == 0:
        return rng.choice(LEAVES)
    if rng.random() < 0.2:
        return ("mul", random_tree(rng, size - 1), "two")
    left = rng.randint(0, size - 1)
    return (rng.choice(OPS), random_tree(rng, left), random_tree(rng, size - 1 - left))


def planted_tree(rng: random.Random, size: int):
    """A random tree whose e-graph has about ``size`` classes and that holds
    both ``(x*y)/z`` and ``x*(y/z)`` for small random x, y and z, so that
    reassociating the first merges two classes that already exist."""
    x, y, z = (random_tree(rng, rng.randint(0, 1)) for _ in range(3))
    rest = random_tree(rng, max(0, size - 8))
    return ("mul", ("mul", rest, ("div", ("mul", x, y), z)), ("mul", x, ("div", y, z)))


def egraph_of_tree(tree) -> EGraph:
    eg = EGraph()

    def go(t) -> int:
        if isinstance(t, str):
            return eg.add(t)
        head, *kids = t
        return eg.add(head, tuple(go(k) for k in kids))

    go(tree)
    return eg


def shl_sites(eg: EGraph) -> list[int]:
    """Classes holding a ``mul(x, two)`` node."""
    two = eg.class_of("two")
    return sorted(
        c for c, ns in eg.nodes.items()
        if any(h == "mul" and kids[1] == two for h, kids in ns)
    )


def rewrite_shl(eg: EGraph, site: int) -> EGraph:
    """``x*2 -> x<<1`` at one class: add ``shl(x, one)`` and merge it in."""
    two = eg.class_of("two")
    x = min(kids[0] for h, kids in eg.nodes[site] if h == "mul" and kids[1] == two)
    out = eg.copy()
    one = out.add("one")
    out.merge(out.add("shl", (x, one)), site)
    return out


def reassoc_sites(eg: EGraph) -> list[tuple[int, int, int, int]]:
    """``(x*y)/z`` occurrences as (div class, x, y, z)."""
    sites = []
    for d, ns in eg.nodes.items():
        for h, (p, z) in (n for n in ns if n[0] == "div"):
            for h2, kids in eg.nodes[p]:
                if h2 == "mul":
                    sites.append((d, kids[0], kids[1], z))
    return sorted(set(sites))


def reassoc_merges(eg: EGraph, site: tuple[int, int, int, int]) -> bool:
    """Whether reassociating at ``site`` merges two existing classes, that
    is, whether ``x*(y/z)`` already has a class other than the site's."""
    d, x, y, z = site
    q = eg.class_of("div", (y, z))
    r = None if q is None else eg.class_of("mul", (x, q))
    return r is not None and r != eg.find(d)


def rewrite_reassoc(eg: EGraph, site: tuple[int, int, int, int]) -> EGraph:
    """``(x*y)/z -> x*(y/z)``: add ``mul(x, div(y, z))`` and merge it in."""
    d, x, y, z = site
    out = eg.copy()
    out.merge(out.add("mul", (x, out.add("div", (y, z)))), d)
    return out
