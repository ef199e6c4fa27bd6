"""Independent references for checking pipeline outputs.

Nothing here calls megraph: expected results come from string-level search,
syntactic expansion or the input generator's own e-graph, and outputs are
read straight from the JSON documents and printed terms the CLI emits.
"""

from __future__ import annotations

import json
import re

BOX = "#box"
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def term_generators(text: str) -> list[str]:
    """Generator names in a printed term (``id:n`` and ``sym:n,m`` are wiring)."""
    return [n for n in _NAME.findall(text) if n not in ("id", "sym")]


def term_cost(text: str, costs: dict[str, int], default: int = 1) -> int:
    return sum(costs.get(n, default) for n in term_generators(text))


def edge_count(doc_text: str) -> int:
    return len(json.loads(doc_text)["edges"])


def top_alternatives(doc_text: str) -> int | None:
    """Number of alternatives of a diagram document: the components of its
    single top-level box, 1 for a box-free diagram, None for anything else."""
    doc = json.loads(doc_text)
    boxes = {e["id"] for e in doc["edges"] if e["label"] == BOX}
    if not boxes:
        return 1
    nested = {p["child"] for p in doc["parents"]}
    top = [e["id"] for e in doc["edges"] if f"e{e['id']}" not in nested]
    if len(top) != 1 or top[0] not in boxes:
        return None
    return len({p["component"] for p in doc["parents"] if p["parent"] == top[0]})


# ---------------------------------------------------------------------------
# saturate-swap: arrangements reachable by adjacent swaps
# ---------------------------------------------------------------------------


def swap_closure(word: tuple[str, ...], a: str = "f0", b: str = "f1") -> int:
    """Distinct words reachable from ``word`` by swapping adjacent a/b pairs."""
    seen = {word}
    frontier = [word]
    while frontier:
        w = frontier.pop()
        for i in range(len(w) - 1):
            if {w[i], w[i + 1]} == {a, b}:
                nxt = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return len(seen)


def swap_arrangements(strands: list[list[str]]) -> int:
    """Product over strands and over ``g``-separated segments of the
    per-segment swap closures."""
    total = 1
    for strand in strands:
        seg: list[str] = []
        for x in strand + ["g"]:
            if x == "g":
                total *= swap_closure(tuple(seg))
                seg = []
            else:
                seg.append(x)
    return total


# ---------------------------------------------------------------------------
# normalize-boxes: syntactic expansion of alternatives
# ---------------------------------------------------------------------------
# A term is ("w", word) | ("seq", t, u) | ("blk", t, u) for s;(t*u);k |
# ("alt", t, u).  A box-free part is a tuple of items, each a generator name
# or ("blk", part, part); words concatenate, so equal tuples are exactly the
# isomorphic box-free diagrams of this fragment.


def expand(t) -> set[tuple]:
    kind = t[0]
    if kind == "w":
        return {tuple(t[1])}
    if kind == "seq":
        return {x + y for x in expand(t[1]) for y in expand(t[2])}
    if kind == "blk":
        return {(("blk", x, y),) for x in expand(t[1]) for y in expand(t[2])}
    if kind == "alt":
        return expand(t[1]) | expand(t[2])
    raise ValueError(f"unknown term node {kind!r}")


def expanded_size(t) -> int:
    """Generators in the expansion with duplicates kept: the work that
    distributing every context into every alternative creates."""
    def sizes(t) -> list[int]:
        kind = t[0]
        if kind == "w":
            return [len(t[1])]
        a, b = sizes(t[1]), sizes(t[2])
        if kind == "alt":
            return a + b
        extra = 2 if kind == "blk" else 0
        return [x + y + extra for x in a for y in b]
    return sum(sizes(t))


def part_cost(part: tuple, costs: dict[str, int]) -> int:
    total = 0
    for item in part:
        if isinstance(item, tuple):
            total += costs["s"] + costs["k"] + part_cost(item[1], costs)
            total += part_cost(item[2], costs)
        else:
            total += costs[item]
    return total


# ---------------------------------------------------------------------------
# rewrite-sort: the sorted chain, read back from the output document
# ---------------------------------------------------------------------------


def sorted_chain(part: tuple) -> tuple:
    """Sort every maximal run of plain generators, inside blocks too."""
    out: list = []
    run: list[str] = []
    for item in part:
        if isinstance(item, tuple):
            out.extend(sorted(run))
            run = []
            out.append(("blk", sorted_chain(item[1]), sorted_chain(item[2])))
        else:
            run.append(item)
    out.extend(sorted(run))
    return tuple(out)


def read_chain(doc_text: str) -> tuple | None:
    """Walk a box-free 1 -> 1 diagram of chains and s/k blocks from its
    input wire; None when it has any other shape."""
    doc = json.loads(doc_text)
    if doc["parents"] or len(doc["ext_in"]) != 1 or len(doc["ext_out"]) != 1:
        return None
    consumer: dict[int, tuple[dict, int]] = {}
    for e in doc["edges"]:
        for port, v in enumerate(e["sources"]):
            consumer[v] = (e, port)
    start = doc["int_in"][doc["ext_in"][0]]
    stop = doc["int_out"][doc["ext_out"][0]]
    used: set[int] = set()

    def walk(v: int, port_into_k: int | None):
        items: list = []
        while v in consumer:
            e, port = consumer[v]
            if e["label"] == "k":
                return (tuple(items), e, v) if port == port_into_k else None
            if e["id"] in used:
                return None
            used.add(e["id"])
            if e["label"] == "s":
                left = walk(e["targets"][0], 0)
                right = walk(e["targets"][1], 1)
                if left is None or right is None or left[1] is not right[1]:
                    return None
                used.add(left[1]["id"])
                items.append(("blk", left[0], right[0]))
                v = left[1]["targets"][0]
            elif len(e["sources"]) == 1 and len(e["targets"]) == 1:
                items.append(e["label"])
                v = e["targets"][0]
            else:
                return None
        return (tuple(items), None, v) if port_into_k is None else None

    res = walk(start, None)
    if res is None or res[2] != stop or len(used) != len(doc["edges"]):
        return None
    return res[0]
