"""Classical e-graphs and their bridge to extended cospans.

An :class:`EGraph` is the usual union-find + class-map + hashcons triple.
``translate`` renders a canonical, acyclic, connected e-graph as an extended
cospan over a signature with copy ("dup") and delete ("del") generators:
every multi-node class becomes a hierarchical edge with one component per
node, sharing is realized with left-leaning chains of "dup", and each
component discards the input slots belonging to its sibling nodes with
"del".  ``replay`` expresses one e-graph rewrite (add + merge + upward
merging) as one double-pushout step on the translated cospan, which
rewrites the region whose rendering the e-graph rewrite changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    COPY,
    DISCARD,
    EHypergraph,
    Element,
    Signature,
    acyclic,
    connected_components,
    down_closure,
    reach,
)
from . import cospan as cs
from .cospan import ExtendedCospan
from .rewrite import Match, RewriteRule, apply, extract_subdiagram
from .term import Term, typecheck


class EGraphError(Exception):
    pass


class ReplayIncomplete(Exception):
    """The changed-region step could not reach the target graph."""


@dataclass(frozen=True)
class ENode:
    head: str
    children: tuple[int, ...]

    def __repr__(self) -> str:
        if not self.children:
            return self.head
        return f"{self.head}({','.join(map(str, self.children))})"


class EGraph:
    """Union-find over class ids, class map, and hashcons."""

    def __init__(self) -> None:
        self._uf: dict[int, int] = {}
        self.classes: dict[int, set[ENode]] = {}
        self.hashcons: dict[ENode, int] = {}
        self._next = 0

    def copy(self) -> "EGraph":
        eg = EGraph()
        eg._uf = dict(self._uf)
        eg.classes = {c: set(ns) for c, ns in self.classes.items()}
        eg.hashcons = dict(self.hashcons)
        eg._next = self._next
        return eg

    def find(self, a: int) -> int:
        while self._uf[a] != a:
            self._uf[a] = self._uf[self._uf[a]]
            a = self._uf[a]
        return a

    def canonicalize(self, n: ENode) -> ENode:
        return ENode(n.head, tuple(self.find(c) for c in n.children))

    def class_ids(self) -> list[int]:
        return sorted(c for c in self.classes if self.find(c) == c)

    def nodes(self, c: int) -> list[ENode]:
        ns = {self.canonicalize(n) for n in self.classes[self.find(c)]}
        return sorted(ns, key=lambda n: (n.head, n.children))

    def add(self, n: ENode) -> int:
        n = self.canonicalize(n)
        if n in self.hashcons:
            return self.find(self.hashcons[n])
        cid = self._next
        self._next += 1
        self._uf[cid] = cid
        self.classes[cid] = {n}
        self.hashcons[n] = cid
        return cid

    def merge(self, a: int, b: int) -> int:
        """Union two classes; the second argument becomes the representative.

        Congruence is restored by upward merging: nodes that become equal
        after re-canonicalization force their classes to merge too.
        """
        a, b = self.find(a), self.find(b)
        if a == b:
            return a
        self._uf[a] = b
        self.classes[b] = self.classes.pop(a) | self.classes[b]
        self._rebuild()
        return self.find(b)

    def _rebuild(self) -> None:
        changed = True
        while changed:
            changed = False
            seen: dict[ENode, int] = {}
            for c in list(self.classes):
                if self.find(c) != c:
                    continue
                for n in list(self.classes[c]):
                    cn = self.canonicalize(n)
                    if cn in seen and self.find(seen[cn]) != self.find(c):
                        x, y = self.find(seen[cn]), self.find(c)
                        self._uf[x] = y
                        self.classes[y] = self.classes.pop(x) | self.classes[y]
                        changed = True
                    else:
                        seen[cn] = self.find(c)
        # re-key everything canonically
        for c in list(self.classes):
            if self.find(c) != c:
                self.classes[self.find(c)] |= self.classes.pop(c)
        for c in list(self.classes):
            self.classes[c] = {self.canonicalize(n) for n in self.classes[c]}
        self.hashcons = {}
        for c, ns in self.classes.items():
            for n in ns:
                self.hashcons[n] = c

    # -- invariants ---------------------------------------------------------

    def check_invariants(self) -> list[str]:
        """Full rescan of the congruence and hashcons invariants."""
        report: list[str] = []
        for c in self.classes:
            if self.find(c) != c:
                report.append(f"class map keyed by non-canonical id {c}")
        seen: dict[ENode, int] = {}
        for c, ns in self.classes.items():
            for n in ns:
                cn = self.canonicalize(n)
                if cn in seen and seen[cn] != self.find(c):
                    report.append(
                        f"congruent nodes {cn!r} in distinct classes "
                        f"{seen[cn]} and {self.find(c)}"
                    )
                seen[cn] = self.find(c)
                if self.hashcons.get(cn) is None:
                    report.append(f"hashcons missing canonical node {cn!r}")
                elif self.find(self.hashcons[cn]) != self.find(c):
                    report.append(f"hashcons maps {cn!r} to the wrong class")
        return report

    def __repr__(self) -> str:
        parts = [f"{c}: {{{', '.join(map(repr, self.nodes(c)))}}}" for c in self.class_ids()]
        return "EGraph(" + "; ".join(parts) + ")"


def egraph_of_term_tree(tree) -> tuple[EGraph, int]:
    """Build an e-graph from a nested ``(head, child_trees...)`` tuple."""
    eg = EGraph()

    def go(t) -> int:
        if isinstance(t, str):
            return eg.add(ENode(t, ()))
        head, *kids = t
        return eg.add(ENode(head, tuple(go(k) for k in kids)))

    return eg, go(tree)


# ---------------------------------------------------------------------------
# Translation to cospans
# ---------------------------------------------------------------------------

NodeTable = dict[int, list[ENode]]


def _node_table(eg: EGraph) -> NodeTable:
    """Each canonical class's canonical nodes, sorted; classes ascending."""
    return {c: eg.nodes(c) for c in eg.class_ids()}


def _fanout(g: EHypergraph, src: int, k: int, elems: list[Element]) -> list[int]:
    """k wires carrying copies of ``src``, via a left-leaning chain of copies."""
    if k <= 0:
        raise EGraphError("fan-out of a wire with no consumers")
    wires = []
    cur = src
    for _ in range(k - 1):
        w = g.add_vertex()
        nxt = g.add_vertex()
        d = g.add_edge(COPY, [cur], [w, nxt])
        elems.extend([("e", d), ("v", w), ("v", nxt)])
        wires.append(w)
        cur = nxt
    wires.append(cur)
    return wires


def _node_arity(sig: Signature, n: ENode) -> int:
    if n.head not in sig:
        raise EGraphError(f"unknown generator {n.head!r}")
    ar, coar = sig.arity(n.head)
    if coar != 1 or ar != len(n.children):
        raise EGraphError(
            f"node {n!r} does not fit generator {n.head}: {ar} -> {coar}"
        )
    return ar


def _emit_producer(
    g: EHypergraph,
    sig: Signature,
    nodes: Sequence[ENode],
    slot_wires: Sequence[int],
    out: int,
    interior_ins: list[int],
    interior_outs: list[int],
    elems: list[Element],
) -> None:
    """One class's producer: a plain edge for a singleton class, otherwise a
    hierarchical edge with one component per node; sibling nodes' input slots
    are consumed by explicit discards inside each component.  Every element
    made is appended to ``elems``."""
    if len(nodes) == 1:
        n = nodes[0]
        _node_arity(sig, n)
        elems.append(("e", g.add_edge(n.head, list(slot_wires), [out])))
        return
    arities = [_node_arity(sig, n) for n in nodes]
    offsets = [sum(arities[:i]) for i in range(len(nodes))]
    total = sum(arities)
    box = g.add_edge(None, list(slot_wires), [out])
    elems.append(("e", box))
    for i, n in enumerate(nodes):
        us = [g.add_vertex(parent=box, component=i) for _ in range(total)]
        w = g.add_vertex(parent=box, component=i)
        elems.extend(("v", u) for u in us)
        elems.append(("v", w))
        own = range(offsets[i], offsets[i] + arities[i])
        ge = g.add_edge(n.head, [us[s] for s in own], [w], parent=box, component=i)
        elems.append(("e", ge))
        for s in range(total):
            if s not in own:
                de = g.add_edge(DISCARD, [us[s]], [], parent=box, component=i)
                elems.append(("e", de))
        interior_ins.extend(us)
        interior_outs.append(w)


@dataclass
class _Layout:
    """Which carrier elements each class's rendering produced, in order,
    and the node table it was rendered from."""

    elems: dict[int, list[Element]]
    out: dict[int, int]
    nodes: NodeTable


def _render(eg: EGraph, sig: Signature) -> tuple[ExtendedCospan, _Layout]:
    """Render a canonical, acyclic, connected e-graph as an extended cospan."""
    bad = eg.check_invariants()
    if bad:
        raise EGraphError("e-graph not canonical: " + bad[0])
    table = _node_table(eg)
    empty = next((c for c, ns in table.items() if not ns), None)
    if empty is not None:
        raise EGraphError(f"class {empty} has no nodes")
    deps = [(c, ch) for c, ns in table.items() for n in ns for ch in n.children]
    if not acyclic(table, deps):
        raise EGraphError("e-graph has a cyclic class dependency")
    if len(connected_components(table, deps)) > 1:
        raise EGraphError("e-graph is not connected")
    ids = list(table)
    if not ids:
        raise EGraphError("empty e-graph")

    # Occurrence list per class, in deterministic consumer order.
    uses: dict[int, list[tuple[int, int, int]]] = {c: [] for c in ids}
    for c in ids:
        for ni, n in enumerate(table[c]):
            for si, ch in enumerate(n.children):
                uses[ch].append((c, ni, si))
    roots = [c for c in ids if not uses[c]]

    g = EHypergraph()
    out = {c: g.add_vertex() for c in ids}
    layout = _Layout(elems={c: [("v", out[c])] for c in ids}, out=dict(out), nodes=table)
    wire: dict[tuple[int, int, int], int] = {}
    for c in ids:
        k = len(uses[c]) if uses[c] else 1
        ws = _fanout(g, out[c], k, layout.elems[c])
        for slot, w in zip(uses[c], ws):
            wire[slot] = w
    interior_ins: list[int] = []
    interior_outs: list[int] = []
    for c in ids:
        nodes = table[c]
        slot_wires = [
            wire[(c, ni, si)]
            for ni, n in enumerate(nodes)
            for si in range(len(n.children))
        ]
        _emit_producer(
            g, sig, nodes, slot_wires, out[c], interior_ins, interior_outs, layout.elems[c]
        )

    int_out = tuple(out[c] for c in roots) + tuple(interior_outs)
    result = ExtendedCospan(
        g,
        tuple(interior_ins),
        int_out,
        (),
        tuple(range(len(roots))),
    )
    return result, layout


def translate(eg: EGraph, sig: Signature) -> ExtendedCospan:
    """Render a canonical, acyclic, connected e-graph as an extended cospan."""
    return _render(eg, sig)[0]


# ---------------------------------------------------------------------------
# Replay of an e-graph rewrite as double-pushout steps
# ---------------------------------------------------------------------------


@dataclass
class ReplayStep:
    rule: RewriteRule
    result: ExtendedCospan


@dataclass
class ReplayResult:
    steps: list[ReplayStep]
    result: ExtendedCospan


def _convex_hull(g: EHypergraph, elements: set[Element]) -> set[Element]:
    """Grow an element set until every directed path between its top-level
    vertices stays inside it (adding whole hierarchical edges as needed)."""
    elements = set(elements)
    while True:
        top_vs = {
            i for k, i in elements if k == "v" and g.vparent.get(i) is None
        }
        fwd, bwd = reach(g, top_vs)
        grew = False
        for e in g.edges:
            if ("e", e) in elements or g.eparent.get(e) is not None:
                continue
            if any(v in fwd for v in g.source[e]) and any(
                v in bwd for v in g.target[e]
            ):
                elements |= down_closure(g, [e])
                grew = True
        for v in fwd & bwd:
            if g.vparent.get(v) is None and ("v", v) not in elements:
                elements.add(("v", v))
                grew = True
        if not grew:
            return elements


def _region_interface(g: EHypergraph, elements: set[Element]) -> tuple[list[int], list[int]]:
    """Top-level boundary wires of a region: consumed-but-not-produced inputs
    and produced-but-not-consumed outputs, ordered by vertex id."""
    edge_ids = {i for k, i in elements if k == "e"}
    consumed = {v for e in edge_ids for v in g.source[e]}
    produced = {v for e in edge_ids for v in g.target[e]}
    top_vs = sorted(
        i for k, i in elements if k == "v" and g.vparent.get(i) is None
    )
    ins = [v for v in top_vs if v not in produced]
    outs = [v for v in top_vs if v not in consumed]
    return ins, outs


def _mapped(n: ENode, cmap: dict[int, int]) -> ENode:
    return ENode(n.head, tuple(cmap[ch] for ch in n.children))


def _class_map(before: NodeTable, after: EGraph) -> dict[int, int]:
    """Each class of ``before`` (given by its node table) mapped to the
    class of ``after`` holding its nodes, bottom-up by congruence: a node is
    looked up in ``after``'s hashcons with its children already mapped.
    Class ids are never looked up in ``after`` directly, since a document
    lists only canonical classes and a class merged away is missing from it."""
    cmap: dict[int, int] = {}

    def go(c: int) -> int:
        if c not in cmap:
            found = {
                after.hashcons.get(ENode(n.head, tuple(go(ch) for ch in n.children)))
                for n in before[c]
            }
            if None in found or len({after.find(a) for a in found}) != 1:
                raise ReplayIncomplete(f"class {c} has no counterpart after the rewrite")
            cmap[c] = after.find(found.pop())
        return cmap[c]

    for c in before:
        go(c)
    return cmap


def _mapped_uses(
    table: NodeTable, cmap: dict[int, int]
) -> dict[int, list[tuple[int, ENode, int]]]:
    """Occurrence list per class, with consumers expressed in the vocabulary
    of the graph ``cmap`` maps into, so that two graphs compare."""
    out: dict[int, list[tuple[int, ENode, int]]] = {}
    for c, ns in table.items():
        for n in ns:
            mn = _mapped(n, cmap)
            for si, ch in enumerate(n.children):
                out.setdefault(cmap[ch], []).append((cmap[c], mn, si))
    return out


def _replay_diff_composite(
    before: tuple[ExtendedCospan, _Layout],
    after: tuple[ExtendedCospan, _Layout],
    cmap: dict[int, int],
) -> ReplayStep:
    """One composite step rewriting exactly the region of the rendered graph
    that the e-graph transformation touched, convex-closed in the host;
    ``cmap`` sends each ``before`` class to its ``after`` class."""
    (rb, lb), (ra, la) = before, after
    gb, ga = rb.carrier, ra.carrier
    groups: dict[int, list[int]] = {}
    for b in lb.nodes:
        groups.setdefault(cmap[b], []).append(b)

    # Element correspondence for classes whose rendering is unaffected.
    ub = _mapped_uses(lb.nodes, cmap)
    ua = _mapped_uses(la.nodes, {c: c for c in la.nodes})
    m: dict[Element, Element] = {}
    for gamma, ns in la.nodes.items():
        members = groups.get(gamma, [])
        if len(members) != 1:
            continue
        b = members[0]
        if [_mapped(n, cmap) for n in lb.nodes[b]] != ns:
            continue
        if ub.get(gamma, []) != ua.get(gamma, []):
            continue
        eb, ea = lb.elems[b], la.elems[gamma]
        if len(eb) != len(ea):
            continue
        m.update(zip(eb, ea))
    m_image = set(m.values())

    region_b = set(gb.elements()) - set(m)
    region_b |= down_closure(
        gb, [i for k, i in region_b if k == "e" and gb.eparent.get(i) is None]
    )
    region_b = _convex_hull(gb, region_b)
    if not any(k == "e" for k, _ in region_b):
        raise ReplayIncomplete("no changed region found")
    region_a = (set(ga.elements()) - m_image) | {
        m[el] for el in region_b if el in m
    }
    region_a |= down_closure(
        ga, [i for k, i in region_a if k == "e" and ga.eparent.get(i) is None]
    )

    ins_b, outs_b = _region_interface(gb, region_b)
    out_class_b = {v: c for c, v in lb.out.items()}

    def map_in(w: int) -> int:
        el = m.get(("v", w))
        if el is None:
            raise ReplayIncomplete("boundary input wire has no counterpart")
        return el[1]

    def map_out(w: int) -> int:
        el = m.get(("v", w))
        if el is not None:
            return el[1]
        for e in gb.edges:
            if gb.eparent.get(e) is None and ("e", e) not in region_b and w in gb.source[e]:
                me = m.get(("e", e))
                if me is None:
                    raise ReplayIncomplete("boundary consumer has no counterpart")
                return ga.source[me[1]][gb.source[e].index(w)]
        c = out_class_b.get(w)
        if c is None:
            raise ReplayIncomplete("boundary output wire has no counterpart")
        return la.out[cmap[c]]

    ins_a = [map_in(w) for w in ins_b]
    outs_a = [map_out(w) for w in outs_b]
    check_ins, check_outs = _region_interface(ga, region_a)
    if set(ins_a) != set(check_ins) or set(outs_a) != set(check_outs):
        raise ReplayIncomplete("region boundaries do not correspond")
    rhs, _ = extract_subdiagram(ra, region_a, ins_a, outs_a)
    lhs, hom = extract_subdiagram(rb, region_b, ins_b, outs_b)
    rule = RewriteRule("rewrite changed region", lhs, rhs)
    return ReplayStep(rule, apply(Match(rule=rule, hom=hom, host=rb)))


def replay(
    before: EGraph, rule: tuple[Term, Term], after: EGraph, sig: Signature
) -> ReplayResult:
    """Express ``before`` ~> ``after`` as double-pushout steps on cospans.

    The rule's two sides must have one type.  Returns the step sequence
    together with the final cospan, which is isomorphic to
    ``translate(after, sig)``: no step when the two renderings are already
    isomorphic, otherwise one step that rewrites the changed region.  Raises
    :class:`ReplayIncomplete` when that region cannot be matched up.
    """
    tl, tr = typecheck(rule[0], sig), typecheck(rule[1], sig)
    if tl != tr:
        raise EGraphError(
            f"rule sides have types {tl.dom}->{tl.cod} and {tr.dom}->{tr.cod}"
        )
    rb, lb = _render(before, sig)
    ra, la = _render(after, sig)
    target = cs.canonical(ra)
    if cs.iso(rb, ra, None, target) is not None:
        return ReplayResult([], rb)

    step = _replay_diff_composite((rb, lb), (ra, la), _class_map(lb.nodes, after))
    if cs.iso(step.result, ra, None, target) is None:
        raise ReplayIncomplete("replayed result differs from the target graph")
    return ReplayResult([step], step.result)
