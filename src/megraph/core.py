"""Hierarchical hypergraphs with per-box consistency components.

The central data structure is :class:`EHypergraph`: a directed hypergraph
whose edges carry either a generator label or no label at all.  Unlabelled
edges are *hierarchical* ("boxes"): other vertices and edges may be nested
inside them via the immediate-parent map, and the children of each box are
partitioned into *consistency components* (the alternative branches the box
represents).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Optional, TypeVar

# An element of a graph is a tagged id: ("v", vertex_id) or ("e", edge_id).
Element = tuple[str, int]
T = TypeVar("T", bound=Hashable)


@dataclass(frozen=True)
class Generator:
    """A named operation with fixed input and output arity."""

    name: str
    arity: int
    coarity: int

    def __post_init__(self) -> None:
        if self.arity < 0 or self.coarity < 0:
            raise ValueError(f"generator {self.name}: negative arity")
        if self.arity == 0 and self.coarity == 0:
            raise ValueError(
                f"generator {self.name}: operations with no inputs and no "
                "outputs are not supported"
            )


COPY = "dup"
DISCARD = "del"


class Signature:
    """A finite set of generators, optionally with copy/delete structure.

    When ``cartesian`` is set, the signature contains the fan-out generator
    ``dup: 1 -> 2`` and the discard generator ``del: 1 -> 0`` used to encode
    sharing and unused values.
    """

    def __init__(self, generators: Iterable[Generator] = (), cartesian: bool = False):
        self.generators: dict[str, Generator] = {}
        self.cartesian = cartesian
        for gen in generators:
            self.add(gen)
        if cartesian:
            if COPY not in self.generators:
                self.add(Generator(COPY, 1, 2))
            if DISCARD not in self.generators:
                self.add(Generator(DISCARD, 1, 0))
            if self.generators[COPY].arity != 1 or self.generators[COPY].coarity != 2:
                raise ValueError(f"{COPY} must have type 1 -> 2")
            if self.generators[DISCARD].arity != 1 or self.generators[DISCARD].coarity != 0:
                raise ValueError(f"{DISCARD} must have type 1 -> 0")

    def add(self, gen: Generator) -> None:
        if gen.name in self.generators:
            raise ValueError(f"duplicate generator name: {gen.name}")
        self.generators[gen.name] = gen

    def __contains__(self, name: str) -> bool:
        return name in self.generators

    def __getitem__(self, name: str) -> Generator:
        return self.generators[name]

    def arity(self, name: str) -> tuple[int, int]:
        gen = self.generators[name]
        return gen.arity, gen.coarity


class EHypergraph:
    """A directed hypergraph with hierarchy and consistency components.

    Vertices and edges have integer ids in separate namespaces.  ``label[e]``
    is a generator name, or ``None`` for a hierarchical (box) edge.  The
    partial maps ``vparent``/``eparent`` give the immediate enclosing box of
    a vertex/edge; ``vcomp``/``ecomp`` give the index of the consistency
    component the element belongs to inside that box.  An element has a
    component index iff it has a parent.
    """

    def __init__(self) -> None:
        self.vertices: list[int] = []
        self.edges: list[int] = []
        self.source: dict[int, tuple[int, ...]] = {}
        self.target: dict[int, tuple[int, ...]] = {}
        self.label: dict[int, Optional[str]] = {}
        self.vparent: dict[int, int] = {}
        self.eparent: dict[int, int] = {}
        self.vcomp: dict[int, int] = {}
        self.ecomp: dict[int, int] = {}
        self._next_v = 0
        self._next_e = 0

    # -- construction -----------------------------------------------------

    def add_vertex(self, parent: Optional[int] = None, component: Optional[int] = None) -> int:
        v = self._next_v
        self._next_v += 1
        self.vertices.append(v)
        if parent is not None:
            if component is None:
                raise ValueError("nested vertex needs a component index")
            self.vparent[v] = parent
            self.vcomp[v] = component
        return v

    def add_edge(
        self,
        label: Optional[str],
        sources: Iterable[int],
        targets: Iterable[int],
        parent: Optional[int] = None,
        component: Optional[int] = None,
    ) -> int:
        e = self._next_e
        self._next_e += 1
        self.edges.append(e)
        self.source[e] = tuple(sources)
        self.target[e] = tuple(targets)
        self.label[e] = label
        if parent is not None:
            if component is None:
                raise ValueError("nested edge needs a component index")
            self.eparent[e] = parent
            self.ecomp[e] = component
        return e

    def copy(self) -> "EHypergraph":
        return self.without(set(), set())

    def without(self, rm_v: set[int], rm_e: set[int]) -> "EHypergraph":
        """A copy keeping ids, minus the given vertices and edges.  Elements
        nested in a removed box become top level."""
        g = EHypergraph()
        g.vertices = [v for v in self.vertices if v not in rm_v]
        g.edges = [e for e in self.edges if e not in rm_e]
        g.source = {e: self.source[e] for e in g.edges}
        g.target = {e: self.target[e] for e in g.edges}
        g.label = {e: self.label[e] for e in g.edges}
        g.vparent = {v: p for v, p in self.vparent.items() if v not in rm_v and p not in rm_e}
        g.eparent = {e: p for e, p in self.eparent.items() if e not in rm_e and p not in rm_e}
        g.vcomp = {
            v: c for v, c in self.vcomp.items()
            if v not in rm_v and self.vparent.get(v) not in rm_e
        }
        g.ecomp = {
            e: c for e, c in self.ecomp.items()
            if e not in rm_e and self.eparent.get(e) not in rm_e
        }
        g._next_v = self._next_v
        g._next_e = self._next_e
        return g

    # -- element-level accessors ------------------------------------------

    def elements(self) -> Iterator[Element]:
        for v in self.vertices:
            yield ("v", v)
        for e in self.edges:
            yield ("e", e)

    def parent_of(self, elem: Element) -> Optional[int]:
        kind, i = elem
        return self.vparent.get(i) if kind == "v" else self.eparent.get(i)

    def component_of(self, elem: Element) -> Optional[int]:
        kind, i = elem
        return self.vcomp.get(i) if kind == "v" else self.ecomp.get(i)

    def placement(self, elem: Element) -> tuple[Optional[int], Optional[int]]:
        """(parent box id, component index) of an element; (None, None) at top level."""
        return self.parent_of(elem), self.component_of(elem)

    def is_box(self, e: int) -> bool:
        return self.label[e] is None

    def children(self, box: int) -> list[Element]:
        out: list[Element] = [("v", v) for v in self.vertices if self.vparent.get(v) == box]
        out.extend(("e", e) for e in self.edges if self.eparent.get(e) == box)
        return out

    def alternatives(self, box: int) -> dict[int, list[Element]]:
        """The children of a box grouped by consistency component, components
        ascending; each group lists its vertices, then its edges."""
        groups: dict[int, list[Element]] = {}
        for el in self.children(box):
            groups.setdefault(self.component_of(el), []).append(el)
        return dict(sorted(groups.items()))

    def ancestors(self, elem: Element) -> list[int]:
        """Chain of enclosing box ids, innermost first."""
        chain: list[int] = []
        p = self.parent_of(elem)
        seen: set[int] = set()
        while p is not None and p not in seen:
            chain.append(p)
            seen.add(p)
            p = self.eparent.get(p)
        return chain

    def depth(self, elem: Element) -> int:
        return len(self.ancestors(elem))

    def endpoints(self, e: int) -> list[int]:
        return list(self.source[e]) + list(self.target[e])

    # -- convenience ------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"EHypergraph(|V|={len(self.vertices)}, |E|={len(self.edges)}, "
            f"boxes={sum(1 for e in self.edges if self.label[e] is None)})"
        )


def copy_into(
    dst: EHypergraph,
    src: EHypergraph,
    keep: Optional[set[Element]] = None,
    parent: Optional[int] = None,
    component: Optional[int] = None,
) -> tuple[dict[int, int], dict[int, int]]:
    """Add the elements of ``src`` (only those in ``keep`` when given) to
    ``dst`` under fresh ids, in ``src`` order; return the (vertex map, edge
    map).  An element nested in a copied box stays nested in its copy; every
    other copied element is placed at ``(parent, component)``, top level by
    default."""
    vmap = {v: dst.add_vertex() for v in src.vertices if keep is None or ("v", v) in keep}
    emap: dict[int, int] = {}
    for e in src.edges:
        if keep is None or ("e", e) in keep:
            emap[e] = dst.add_edge(
                src.label[e],
                [vmap[v] for v in src.source[e]],
                [vmap[v] for v in src.target[e]],
            )
    for old_parent, old_comp, new_parent, new_comp, idmap in (
        (src.vparent, src.vcomp, dst.vparent, dst.vcomp, vmap),
        (src.eparent, src.ecomp, dst.eparent, dst.ecomp, emap),
    ):
        for x, nx in idmap.items():
            p = old_parent.get(x)
            if p in emap:
                new_parent[nx], new_comp[nx] = emap[p], old_comp[x]
            elif parent is not None:
                new_parent[nx], new_comp[nx] = parent, component
    return vmap, emap


def validate(g: EHypergraph, sig: Optional[Signature] = None) -> list[str]:
    """Check every well-formedness condition; return the list of violations,
    grouped by condition in a fixed order: duplicate ids, unknown endpoints,
    parents, nesting cycles, box children, placements, generator typing."""
    vset, eset = set(g.vertices), set(g.edges)
    source, target, label = g.source, g.target, g.label
    vparent, vcomp, eparent, ecomp = g.vparent, g.vcomp, g.eparent, g.ecomp
    report: list[str] = []
    if len(vset) != len(g.vertices):
        report.append("duplicate vertex ids")
    if len(eset) != len(g.edges):
        report.append("duplicate edge ids")

    # Parents are hierarchical edges, and each element with a parent has a
    # component index; collect the components of each parent on the way.
    parents: list[str] = []
    child_comps: dict[int, set[int]] = {}
    for kind, xs, parent, comp in (("v", g.vertices, vparent, vcomp),
                                   ("e", g.edges, eparent, ecomp)):
        for x in xs:
            p = parent.get(x)
            c = comp.get(x)
            if p is None:
                if c is not None:
                    parents.append(f"{(kind, x)}: component index without a parent")
                continue
            if c is None:
                parents.append(f"{(kind, x)}: parent without a component index")
            else:
                child_comps.setdefault(p, set()).add(c)
            if p not in eset:
                parents.append(f"{(kind, x)}: unknown parent edge {p}")
            elif label[p] is not None:
                parents.append(f"{(kind, x)}: parent edge {p} is not hierarchical")

    # Per edge: endpoints exist; nesting forms a forest; childless edges are
    # labelled and boxes have children in >= 2 components; endpoints share
    # the edge's placement (consistency is closed under connectivity); the
    # generator has its declared arity.
    unknown: list[str] = []
    cycles: list[str] = []
    boxes: list[str] = []
    placed: list[str] = []
    typed: list[str] = []
    gens = None if sig is None else sig.generators
    for e in g.edges:
        ends = source[e] + target[e]
        if not vset.issuperset(ends):
            unknown += [f"edge {e}: unknown endpoint vertex {v}" for v in ends if v not in vset]
        ep = eparent.get(e)
        if ep is not None:
            chain, p = set(), ep
            while p is not None:
                if p == e or p in chain:
                    cycles.append(f"edge {e}: cyclic nesting chain")
                    break
                chain.add(p)
                p = eparent.get(p)
        lbl = label[e]
        comps = child_comps.get(e)
        if lbl is None:
            if not comps:
                boxes.append(f"edge {e}: hierarchical edge with no children")
            elif len(comps) == 1:
                boxes.append(f"edge {e}: single-component box")
        elif comps:
            boxes.append(f"edge {e}: labelled edge used as a parent")
        ec = ecomp.get(e)
        for v in ends:
            vp = vparent.get(v)
            if vp != ep:
                if v in vset:
                    placed.append(f"edge {e} and endpoint {v}: different parents")
            elif ep is not None and vcomp.get(v) != ec and v in vset:
                placed.append(f"edge {e} and endpoint {v}: same box, different components")
        if gens is not None and lbl is not None:
            gen = gens.get(lbl)
            if gen is None:
                typed.append(f"edge {e}: unknown generator {lbl}")
            elif len(source[e]) != gen.arity or len(target[e]) != gen.coarity:
                typed.append(
                    f"edge {e}: generator {lbl} expects {gen.arity} -> {gen.coarity}, "
                    f"got {len(source[e])} -> {len(target[e])}"
                )
    return report + unknown + parents + cycles + boxes + placed + typed


def degrees(g: EHypergraph) -> dict[int, tuple[int, int]]:
    """(in-degree, out-degree) of every vertex, counting multiplicity, from
    one pass over the edges.  An endpoint that names no vertex is ignored."""
    return _degrees(g, g.vertices)


def _degrees(g: EHypergraph, vs: Iterable[int]) -> dict[int, tuple[int, int]]:
    """``degrees`` of the vertices ``vs`` only."""
    ind = dict.fromkeys(vs, 0)
    outd = dict.fromkeys(ind, 0)
    for e in g.edges:
        for v in g.target[e]:
            if v in ind:
                ind[v] += 1
        for v in g.source[e]:
            if v in outd:
                outd[v] += 1
    return {v: (ind[v], outd[v]) for v in ind}


def is_acyclic(g: EHypergraph) -> bool:
    """True when no directed path of edges returns to its starting edge."""
    produced: dict[int, list[int]] = {}
    for e in g.edges:
        for v in g.target[e]:
            produced.setdefault(v, []).append(e)
    return acyclic(g.edges, ((d, e) for e in g.edges for v in g.source[e]
                             for d in produced.get(v, ())))


def down_closure(g: EHypergraph, seed: Iterable[int]) -> set[Element]:
    """Smallest element set containing the seed edges, closed under taking
    children of included edges and endpoints of included edges."""
    closed: set[Element] = set()
    todo: list[Element] = [("e", e) for e in seed]
    while todo:
        elem = todo.pop()
        if elem in closed:
            continue
        closed.add(elem)
        if elem[0] == "e":
            e = elem[1]
            for v in g.endpoints(e):
                if ("v", v) not in closed:
                    todo.append(("v", v))
            if g.label[e] is None:
                for child in g.children(e):
                    if child not in closed:
                        todo.append(child)
    return closed


def reach(g: EHypergraph, starts: set[int]) -> tuple[set[int], set[int]]:
    """(forward, backward) reach of a vertex set along directed edges: the
    vertices some start reaches, and the vertices that reach some start.
    Both include the starts."""
    succ, pred = _adjacency(g)
    return _close(succ, starts), _close(pred, starts)


def _adjacency(g: EHypergraph) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
    """(successors, predecessors) of every vertex along directed edges."""
    succ: dict[int, set[int]] = {v: set() for v in g.vertices}
    pred: dict[int, set[int]] = {v: set() for v in g.vertices}
    for e in g.edges:
        for u in g.source[e]:
            succ[u].update(g.target[e])
        for w in g.target[e]:
            pred[w].update(g.source[e])
    return succ, pred


def _close(rel: dict[int, set[int]], starts: set[int]) -> set[int]:
    """The vertices that ``rel`` leads to from ``starts``, starts included."""
    seen = set(starts)
    todo = list(seen)
    while todo:
        for w in rel[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def is_convex(g: EHypergraph, sub: set[Element]) -> bool:
    """True when every directed path between vertices of ``sub`` stays in ``sub``."""
    sub_vs = {i for k, i in sub if k == "v"}
    if not sub_vs:
        return True
    succ, pred = _adjacency(g)
    fwd, bwd = _close(succ, sub_vs), _close(pred, sub_vs)
    # A vertex lies on some sub-to-sub path iff it is both reachable from sub
    # and reaches sub; an edge does iff one of its sources is reachable and
    # one of its targets reaches back.
    if any(("v", v) not in sub for v in fwd & bwd):
        return False
    return not any(
        ("e", e) not in sub
        and any(u in fwd for u in g.source[e])
        and any(w in bwd for w in g.target[e])
        for e in g.edges
    )


def _feeds(g: EHypergraph) -> dict[int, list[int]]:
    """The edges that each vertex is a source of; a vertex that feeds no
    edge has no entry."""
    feeds: dict[int, list[int]] = {}
    for e in g.edges:
        for v in g.source[e]:
            feeds.setdefault(v, []).append(e)
    return feeds


def _is_convex(g: EHypergraph, sub: set[Element], feeds: dict[int, list[int]]) -> bool:
    """``is_convex`` for a set that holds every endpoint of its edges, as a
    match image and a ``down_closure`` do, by one forward reach.

    A path that leaves such a set leaves it along an edge outside the set
    that a vertex of the set feeds, and goes on through vertices outside
    the set, each of which feeds only edges outside it.  So the reach from
    the targets of those edges through vertices outside the set comes back
    into the set exactly when ``sub`` is not convex.  ``feeds`` is
    ``_feeds(g)``, so that one index serves many candidate sets."""
    vs = {v for k, v in sub if k == "v"}
    todo = [w for v in vs for e in feeds.get(v, ()) if ("e", e) not in sub for w in g.target[e]]
    seen: set[int] = set()
    while todo:
        w = todo.pop()
        if w in vs:
            return False
        if w not in seen:
            seen.add(w)
            for e in feeds.get(w, ()):
                todo += g.target[e]
    return True


def connected_components(nodes: Iterable[T], links: Iterable[tuple[T, T]]) -> list[list[T]]:
    """The classes of ``nodes`` under the undirected closure of ``links``."""
    adj: dict[T, list[T]] = {n: [] for n in nodes}
    for a, b in links:
        adj[a].append(b)
        adj[b].append(a)
    seen: set[T] = set()
    out: list[list[T]] = []
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        todo, members = [start], []
        while todo:
            n = todo.pop()
            members.append(n)
            for m in adj[n]:
                if m not in seen:
                    seen.add(m)
                    todo.append(m)
        out.append(members)
    return out


def acyclic(nodes: Iterable[T], links: Iterable[tuple[T, T]]) -> bool:
    """True when the directed ``links`` between ``nodes`` close no cycle
    (Kahn: repeatedly remove a node that no remaining link enters)."""
    succ: dict[T, list[T]] = {n: [] for n in nodes}
    indeg = dict.fromkeys(succ, 0)
    for a, b in links:
        succ[a].append(b)
        indeg[b] += 1
    queue = [n for n, k in indeg.items() if k == 0]
    seen = 0
    while queue:
        seen += 1
        for m in succ[queue.pop()]:
            indeg[m] -= 1
            if indeg[m] == 0:
                queue.append(m)
    return seen == len(succ)


def embeddings(
    pat: EHypergraph, host: EHypergraph
) -> Iterator[tuple[dict[int, int], dict[int, int]]]:
    """Yield (vertex map, edge map) pairs of injective maps from ``pat`` into
    ``host`` that preserve labels, ordered endpoints, immediate parents and
    consistency components.

    Top-level pattern elements may land inside host boxes, and several
    pattern components may land in one host component.  The search places
    the pattern edges outermost first, then by id, each on the host edges
    in edge order, and then the vertices that no edge touches.
    """

    def ekey(g: EHypergraph, e: int) -> tuple:
        return (g.label[e], len(g.source[e]), len(g.target[e]))

    # Edges outermost first, so a parent box is mapped before its children.
    edges = sorted(pat.edges, key=lambda e: (pat.depth(("e", e)), e))
    edge_keys = [ekey(pat, e) for e in edges]
    by_key: dict[tuple, list[int]] = {}
    for e in host.edges:
        by_key.setdefault(ekey(host, e), []).append(e)

    vmap: dict[int, int] = {}
    emap: dict[int, int] = {}
    used_v: set[int] = set()
    used_e: set[int] = set()
    # (pattern box, pattern component) -> host component
    comps: dict[tuple[int, int], int] = {}

    def try_place(pp, pc, hp, hc, undo: list) -> bool:
        """Parent and component of a nested pattern element against a host
        candidate."""
        if hp is None or emap.get(pp) != hp:
            return False
        key = (pp, pc)
        if key in comps:
            return comps[key] == hc
        comps[key] = hc
        undo.append(("c", key, hc))
        return True

    def try_vertex(va: int, vb: int, undo: list) -> bool:
        if va in vmap:
            return vmap[va] == vb
        if vb in used_v:
            return False
        pp = pat.vparent.get(va)
        if pp is not None and not try_place(pp, pat.vcomp[va], host.vparent.get(vb),
                                            host.vcomp.get(vb), undo):
            return False
        vmap[va] = vb
        used_v.add(vb)
        undo.append(("v", va, vb))
        return True

    def try_edge(ea: int, eb: int, undo: list) -> bool:
        if eb in used_e:
            return False
        pp = pat.eparent.get(ea)
        if pp is not None and not try_place(pp, pat.ecomp[ea], host.eparent.get(eb),
                                            host.ecomp.get(eb), undo):
            return False
        emap[ea] = eb
        used_e.add(eb)
        undo.append(("e", ea, eb))
        for va, vb in zip(pat.source[ea] + pat.target[ea], host.source[eb] + host.target[eb]):
            if not try_vertex(va, vb, undo):
                return False
        return True

    def undo_all(undo: list) -> None:
        for kind, a, b in reversed(undo):
            if kind == "v":
                del vmap[a]
                used_v.discard(b)
            elif kind == "e":
                del emap[a]
                used_e.discard(b)
            else:
                del comps[a]

    # After the edges, the vertices that no edge reaches.
    touched = {v for e in edges for v in pat.source[e] + pat.target[e]}
    loose = [v for v in pat.vertices if v not in touched]

    def search(i: int) -> Iterator[tuple[dict[int, int], dict[int, int]]]:
        if i == len(edges) + len(loose):
            yield dict(vmap), dict(emap)
            return
        if i < len(edges):
            a, cands, attempt = edges[i], by_key.get(edge_keys[i], ()), try_edge
        else:
            a, cands, attempt = loose[i - len(edges)], host.vertices, try_vertex
        for b in cands:
            undo: list = []
            if attempt(a, b, undo):
                yield from search(i + 1)
            undo_all(undo)

    yield from search(0)


@dataclass
class EHomomorphism:
    """A structure-preserving map between hierarchical hypergraphs."""

    dom: EHypergraph
    cod: EHypergraph
    vmap: dict[int, int] = field(default_factory=dict)
    emap: dict[int, int] = field(default_factory=dict)

    def apply(self, elem: Element) -> Element:
        kind, i = elem
        return (kind, self.vmap[i] if kind == "v" else self.emap[i])

    def violations(self) -> list[str]:
        """What keeps this map from being a homomorphism: unmapped elements
        and images outside the codomain, then labels and ports; when those
        all hold, immediate parents (vertices, then edges) and consistency
        groups (in order of first appearance)."""
        dom, cod, vmap, emap = self.dom, self.cod, self.vmap, self.emap
        cod_vs, cod_es = set(cod.vertices), set(cod.edges)
        report: list[str] = []
        parents: list[str] = []
        # (box, component) of the domain -> placements of its members' images
        groups: dict[tuple[int, int], set[tuple[Optional[int], Optional[int]]]] = {}
        for kind, xs, imap, within, dparent, dcomp, cparent, ccomp in (
            ("vertex", dom.vertices, vmap, cod_vs, dom.vparent, dom.vcomp, cod.vparent, cod.vcomp),
            ("edge", dom.edges, emap, cod_es, dom.eparent, dom.ecomp, cod.eparent, cod.ecomp),
        ):
            for x in xs:
                if x not in imap:
                    report.append(f"{kind} {x} unmapped")
                    continue
                y = imap[x]
                if y not in within:
                    report.append(f"{kind} {x} maps outside codomain")
                    continue
                if kind == "edge":
                    if dom.label[x] != cod.label[y]:
                        report.append(f"edge {x}: label not preserved")
                    ends = dom.source[x] + dom.target[x]
                    if all(v in vmap for v in ends) and (
                        tuple([vmap[v] for v in dom.source[x]]) != cod.source[y]
                        or tuple([vmap[v] for v in dom.target[x]]) != cod.target[y]
                    ):
                        report.append(f"edge {x}: sources/targets not preserved")
                p = dparent.get(x)
                if p is None:
                    continue
                if cparent.get(y) != emap.get(p):
                    parents.append(f"{(kind[0], x)}: immediate parent not preserved")
                c = dcomp.get(x)
                if c is not None:
                    groups.setdefault((p, c), set()).add((cparent.get(y), ccomp.get(y)))
        if report:
            return report
        return parents + [
            f"consistency group {key}: not preserved"
            for key, placements in groups.items()
            if len(placements) > 1 or (None, None) in placements
        ]

    def is_mono(self) -> bool:
        return len(set(self.vmap.values())) == len(self.vmap) and len(
            set(self.emap.values())
        ) == len(self.emap)

    def image(self) -> set[Element]:
        out: set[Element] = {("v", w) for w in self.vmap.values()}
        out.update(("e", d) for d in self.emap.values())
        return out
