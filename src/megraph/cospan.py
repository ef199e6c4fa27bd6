"""Cospans of hierarchical hypergraphs with two-level interfaces.

An :class:`ExtendedCospan` wraps a carrier graph together with ordered input
and output interfaces.  Each side has an *internal* interface (one slot per
dangling wire, including wires hidden inside boxes) and an *external*
interface (the subsequence of internal slots that is visible from outside).
Slots of the internal interface that are not external point at vertices
nested inside boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, NamedTuple, Optional, Sequence

from .core import (
    EHomomorphism,
    EHypergraph,
    Element,
    Signature,
    connected_components,
    copy_into,
    degrees,
    is_acyclic,
    validate,
)


class CospanError(Exception):
    """Malformed cospan or ill-typed cospan operation."""


class PushoutPreconditionError(Exception):
    """A gluing does not satisfy the preconditions for the pushout to exist.

    ``assumptions`` lists the numbers of the violated preconditions:
    (1) shared part discrete, (2) equal ancestor chains across all glue
    points of one leg, (3) no glue point nested on both sides, (4) equal
    consistency classes across all glue points of one leg.
    """

    def __init__(self, assumptions: list[int], message: str = ""):
        self.assumptions = assumptions
        super().__init__(f"pushout preconditions violated: {assumptions} {message}")


@dataclass
class ExtendedCospan:
    """A carrier graph with ordered two-level interfaces.

    ``int_in``/``int_out`` hold the carrier vertex for each internal slot, in
    slot order.  ``ext_in``/``ext_out`` hold the positions (indices into
    ``int_in``/``int_out``) of the external slots, in external order.
    """

    carrier: EHypergraph
    int_in: tuple[int, ...]
    int_out: tuple[int, ...]
    ext_in: tuple[int, ...]
    ext_out: tuple[int, ...]

    # -- derived views -----------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.ext_in)

    @property
    def coarity(self) -> int:
        return len(self.ext_out)

    def ext_in_vertices(self) -> tuple[int, ...]:
        return tuple(self.int_in[p] for p in self.ext_in)

    def ext_out_vertices(self) -> tuple[int, ...]:
        return tuple(self.int_out[p] for p in self.ext_out)

    def strict_in_positions(self) -> tuple[int, ...]:
        ext = set(self.ext_in)
        return tuple(p for p in range(len(self.int_in)) if p not in ext)

    def strict_out_positions(self) -> tuple[int, ...]:
        ext = set(self.ext_out)
        return tuple(p for p in range(len(self.int_out)) if p not in ext)

    def copy(self) -> "ExtendedCospan":
        return ExtendedCospan(
            self.carrier.copy(), self.int_in, self.int_out, self.ext_in, self.ext_out
        )

    def __repr__(self) -> str:
        return (
            f"ExtendedCospan({self.arity} -> {self.coarity}, "
            f"slots {len(self.int_in)}/{len(self.int_out)}, {self.carrier!r})"
        )


def validate_cospan(c: ExtendedCospan, sig: Optional[Signature] = None) -> list[str]:
    """Interface well-formedness; carrier conditions included when possible."""
    report = validate(c.carrier, sig)
    vset = set(c.carrier.vertices)
    vparent = c.carrier.vparent
    for side, slots, ext in (
        ("input", c.int_in, c.ext_in),
        ("output", c.int_out, c.ext_out),
    ):
        report += [f"{side} slot vertex {v} not in carrier" for v in slots if v not in vset]
        ext_set = set(ext)
        if len(ext_set) != len(ext):
            report.append(f"{side} external positions not injective")
        for p in ext:
            if not (0 <= p < len(slots)):
                report.append(f"{side} external position {p} out of range")
            elif vparent.get(slots[p]) is not None and slots[p] in vset:
                report.append(f"{side} external slot {p} maps to a nested vertex")
        for p, v in enumerate(slots):
            if p not in ext_set and vparent.get(v) is None and v in vset:
                report.append(
                    f"{side} strictly internal slot {p} maps to a top-level vertex"
                )
    return report


def is_mda_well_typed(c: ExtendedCospan) -> list[str]:
    """Monogamous-directed-acyclic and box-typing conditions; [] when all hold."""
    g = c.carrier
    report = [] if is_acyclic(g) else ["carrier has a directed cycle"]
    return report + _slot_report(c.int_in, c.int_out, degrees(g)) + _box_typing(c)


def _slot_report(
    int_in: Sequence[int], int_out: Sequence[int], deg: dict[int, tuple[int, int]]
) -> list[str]:
    """Injective internal interfaces, and at each vertex of ``deg`` at most
    one producer and one consumer, with in-degree (out-degree) 0 exactly at
    an input (output) slot."""
    report: list[str] = []
    ins, outs = set(int_in), set(int_out)
    if len(ins) != len(int_in):
        report.append("input internal interface not injective")
    if len(outs) != len(int_out):
        report.append("output internal interface not injective")
    for v, (ind, outd) in deg.items():
        if ind > 1 or outd > 1:
            report.append(f"vertex {v}: degree above 1 (in={ind}, out={outd})")
        if (ind == 0) != (v in ins):
            report.append(f"vertex {v}: in-degree-0 iff input-slot violated")
        if (outd == 0) != (v in outs):
            report.append(f"vertex {v}: out-degree-0 iff output-slot violated")
    return report


def _box_typing(c: ExtendedCospan) -> list[str]:
    """Each component of each box must expose |sources| inputs and |targets|
    outputs; a component that holds only edges exposes none."""
    g = c.carrier
    strict_in = {c.int_in[p] for p in c.strict_in_positions()}
    strict_out = {c.int_out[p] for p in c.strict_out_positions()}
    # [inputs, outputs] of each component of each parent, from one pass
    # over the vertices; the edges add the components they alone hold.
    counts: dict[int, dict[Optional[int], list[int]]] = {}
    for v in g.vertices:
        p = g.vparent.get(v)
        if p is not None:
            got = counts.setdefault(p, {}).setdefault(g.vcomp.get(v), [0, 0])
            got[0] += v in strict_in
            got[1] += v in strict_out
    for e in g.edges:
        p = g.eparent.get(e)
        if p is not None:
            counts.setdefault(p, {}).setdefault(g.ecomp.get(e), [0, 0])
    report: list[str] = []
    for e in g.edges:
        if g.label[e] is not None or e not in counts:
            continue
        for comp_id, (got_in, got_out) in sorted(counts[e].items()):
            if got_in != len(g.source[e]):
                report.append(f"box {e} component {comp_id}: {got_in} inputs, "
                              f"expected {len(g.source[e])}")
            if got_out != len(g.target[e]):
                report.append(f"box {e} component {comp_id}: {got_out} outputs, "
                              f"expected {len(g.target[e])}")
    return report


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


@dataclass
class IsoWitness:
    """Carrier isomorphism plus the two interface bijections (as position maps)."""

    alpha: EHomomorphism
    beta: tuple[int, ...]  # input slot p of a corresponds to slot beta[p] of b
    gamma: tuple[int, ...]


class Canonical(NamedTuple):
    """The certificate of a cospan, and the order in which it numbers
    things: the carrier's vertices, its edges, and the (input, output) slot
    positions of each level, top level first."""

    cert: tuple
    vertices: list[int]
    edges: list[int]
    blocks: list[tuple]


def canonical(c: ExtendedCospan) -> Canonical:
    """The canonical form of ``c``: its certificate and canonical orders."""
    g = c.carrier
    if any(ind > 1 or outd > 1 for ind, outd in degrees(g).values()):
        raise CospanError("certificate: a vertex has two producers or two consumers")
    producer = {v: e for e in g.edges for v in g.target[e]}
    consumer = {v: e for e in g.edges for v in g.source[e]}
    # A level is the top level (None, None) or a (box, component).  Its slots
    # are the external ones at the top level, else the strict ones it holds.
    members: dict[tuple, tuple[list[int], list[int]]] = {}
    for side, xs, parent, comp in ((0, g.vertices, g.vparent, g.vcomp),
                                   (1, g.edges, g.eparent, g.ecomp)):
        for x in xs:
            members.setdefault((parent.get(x), comp.get(x)), ([], []))[side].append(x)
    slots = {(None, None): (list(c.ext_in), list(c.ext_out))}
    for side, vs, strict in ((0, c.int_in, c.strict_in_positions()),
                             (1, c.int_out, c.strict_out_positions())):
        for p in strict:
            slots.setdefault((g.vparent.get(vs[p]), g.vcomp.get(vs[p])), ([], []))[side].append(p)
    boxes: dict[int, list[tuple]] = {}  # box -> its components' levels, sorted

    def walk(vorder: list[int], eorder: list[int]) -> tuple[list, list, tuple, dict]:
        """Number what the listed vertices and edges reach, extending the
        lists: a vertex brings its producer, then its consumer; an edge its
        endpoints in port order.  Returns the lists, a record (label, source
        numbers, target numbers) per edge, and the vertex numbers."""
        vnum = {v: i for i, v in enumerate(vorder)}
        eseen, records, i = set(eorder), [], 0
        while i < len(vorder) or len(records) < len(eorder):
            for v in vorder[i:]:
                for e in (producer.get(v), consumer.get(v)):
                    if e is not None and e not in eseen:
                        eseen.add(e)
                        eorder.append(e)
            i = len(vorder)
            for e in eorder[len(records):]:
                for v in g.source[e] + g.target[e]:
                    if v not in vnum:
                        vnum[v] = len(vorder)
                        vorder.append(v)
                if g.label[e] is None and e not in boxes:
                    boxes[e] = sorted((level(k) for k in members if k[0] == e),
                                      key=lambda r: r[0])
                label = (0, g.label[e]) if e not in boxes else (1, tuple(r[0] for r in boxes[e]))
                records.append((label, tuple([vnum[v] for v in g.source[e]]),
                                tuple([vnum[v] for v in g.target[e]])))
        return vorder, eorder, tuple(records), vnum

    def level(key: tuple) -> tuple:
        (ins, outs), (vs, es) = slots.get(key, ([], [])), members.get(key, ([], []))
        in_vs, out_vs = [c.int_in[p] for p in ins], [c.int_out[p] for p in outs]
        vorder, eorder, records, vnum = walk(list(dict.fromkeys(in_vs + out_vs)), [])
        covered, pieces = set(eorder), []  # what no slot reaches, in pieces
        for e in es:
            if e not in covered:
                piece = walk([], [e])[1]
                covered.update(piece)
                pieces.append(min((walk([], [d]) for d in piece), key=lambda p: p[2]))
        pieces.sort(key=lambda p: p[2])
        vorder += [v for p in pieces for v in p[0]]
        eorder += [e for p in pieces for e in p[1]]
        reached = set(vorder)
        loose = [v for v in vs if v not in reached]
        cert = (tuple([vnum[v] for v in in_vs]), tuple([vnum[v] for v in out_vs]),
                records, tuple(p[2] for p in pieces), len(loose))
        vorder += loose
        blocks = [(ins, outs)]
        for box in [e for e in eorder if e in boxes]:
            for _, nested_vs, nested_es, nested_blocks in boxes[box]:
                vorder += nested_vs
                eorder += nested_es
                blocks += nested_blocks
        return cert, vorder, eorder, blocks

    return Canonical(*level((None, None)))


def certificate(c: ExtendedCospan) -> Hashable:
    """A canonical form of ``c``: two cospans have equal certificates exactly
    when they are isomorphic (see ``iso``).  Defined when every vertex has at
    most one producer and one consumer, as in every MDA cospan; raises
    ``CospanError`` otherwise.  Ordered slots and ports then fix a numbering:
    each level is walked from its slots, and only the components of a box
    (by certificate) and the pieces no slot reaches (by their least walk)
    are sorted."""
    return canonical(c).cert


def iso(
    a: ExtendedCospan,
    b: ExtendedCospan,
    form_a: Optional[Canonical] = None,
    form_b: Optional[Canonical] = None,
) -> Optional[IsoWitness]:
    """An isomorphism witness between two cospans, or None.

    External slots must correspond pointwise; strictly internal slots may be
    permuted blockwise (one block per box component), keeping the order of
    slots within each block.  Decided by ``certificate``, on its domain; the
    witness pairs the two canonical orders and is checked.  A caller that
    already holds ``canonical(a)`` or ``canonical(b)`` passes it as
    ``form_a`` or ``form_b``; the witness is built and checked either way."""
    cert, vs_a, es_a, blocks_a = form_a or canonical(a)
    cert_b, vs_b, es_b, blocks_b = form_b or canonical(b)
    if cert != cert_b:
        return None
    alpha = EHomomorphism(a.carrier, b.carrier, dict(zip(vs_a, vs_b)), dict(zip(es_a, es_b)))
    maps: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for block_a, block_b in zip(blocks_a, blocks_b):
        for m, ps_a, ps_b in zip(maps, block_a, block_b):
            m.update(zip(ps_a, ps_b))
    beta, gamma = (tuple(m.get(p, -1) for p in range(len(m))) for m in maps)
    sides = ((beta, a.int_in, b.int_in, a.ext_in, b.ext_in),
             (gamma, a.int_out, b.int_out, a.ext_out, b.ext_out))
    if alpha.violations() or not alpha.is_mono() or any(
        sorted(m) != list(range(len(sa))) or len(sa) != len(sb)
        or any(alpha.vmap.get(sa[p]) != sb[q] for p, q in enumerate(m))
        or [m[p] for p in ea] != list(eb)
        for m, sa, sb, ea, eb in sides
    ):
        raise CospanError("certificate: equal certificates gave no isomorphism")
    return IsoWitness(alpha=alpha, beta=beta, gamma=gamma)


# ---------------------------------------------------------------------------
# Pushout
# ---------------------------------------------------------------------------


@dataclass
class PushoutResult:
    obj: EHypergraph
    inj_left: EHomomorphism
    inj_right: EHomomorphism


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def check_pushout_preconditions(
    left: EHomomorphism, right: EHomomorphism
) -> list[int]:
    """Return the list of violated precondition numbers (see class docstring),
    from one pass over the glue points.  In a nesting forest two vertices
    have equal ancestor chains exactly when they have the same immediate
    parent, so precondition (2) compares parents."""
    z, x, y = left.dom, left.cod, right.cod
    fv, gv = left.vmap, right.vmap
    first = None
    parents = places = both = False
    for v in z.vertices:
        a, b = fv[v], gv[v]
        pa, pb = x.vparent.get(a), y.vparent.get(b)
        place = (pa, x.vcomp.get(a), pb, y.vcomp.get(b))
        if first is None:
            first = place
        elif place != first:
            places = True
            parents = parents or (pa, pb) != (first[0], first[2])
        both = both or (pa is not None and pb is not None)
    return [n for n, bad in ((1, bool(z.edges)), (2, parents), (3, both), (4, places)) if bad]


def pushout(left: EHomomorphism, right: EHomomorphism) -> PushoutResult:
    """Glue the codomains of two maps out of a shared discrete graph.

    The result is the disjoint union with glue-point vertices identified,
    edges kept apart, and nesting/consistency data propagated onto glued-in
    material that ends up (transitively connected) inside a box.  Vertices
    are allocated X first, then the unglued Y ones; edges X first, then Y.
    """
    if left.dom is not right.dom:
        raise ValueError("pushout legs must share their domain")
    violated = check_pushout_preconditions(left, right)
    if violated:
        raise PushoutPreconditionError(violated)
    sides = {"X": left.cod, "Y": right.cod}
    uf = _UnionFind()
    for v in left.dom.vertices:
        uf.union(("X", left.vmap[v]), ("Y", right.vmap[v]))

    # Vertex and edge ids are numbered apart, so building X whole and then Y
    # gives both orders above.
    p = EHypergraph()
    vclass: dict[tuple, int] = {}
    vmaps: dict[str, dict[int, int]] = {}
    emaps: dict[str, dict[int, int]] = {}
    for tag, g in sides.items():
        vmaps[tag] = vm = {}
        for v in g.vertices:
            root = uf.find((tag, v))
            if root not in vclass:
                vclass[root] = p.add_vertex()
            vm[v] = vclass[root]
        emaps[tag] = {e: p.add_edge(g.label[e], [vm[v] for v in g.source[e]],
                                    [vm[v] for v in g.target[e]]) for e in g.edges}

    # Placement of each result element, with component keys namespaced per
    # side; merged keys tracked by union-find.
    comp_uf = _UnionFind()
    parent_of: dict[Element, int] = {}
    compkey_of: dict[Element, tuple] = {}
    for tag, g in sides.items():
        em = emaps[tag]
        for kind, imap, nest, comp in (("v", vmaps[tag], g.vparent, g.vcomp),
                                       ("e", em, g.eparent, g.ecomp)):
            for i, pe in nest.items():
                elem, key = (kind, imap[i]), (tag, pe, comp[i])
                if elem not in parent_of:
                    parent_of[elem], compkey_of[elem] = em[pe], key
                elif parent_of[elem] != em[pe]:
                    raise PushoutPreconditionError(
                        [2], "glued elements nested in different boxes"
                    )
                else:
                    comp_uf.union(compkey_of[elem], key)

    # Propagate nesting along undirected connectivity: a parentless element
    # connected to a placed one joins its box and component class.  With no
    # nested element on either side there is nothing to propagate.
    pieces: list[list[Element]] = []
    if parent_of:
        incidence = [(("e", e), ("v", v)) for e in p.edges for v in p.endpoints(e)]
        pieces = connected_components(p.elements(), incidence)
    for comp_elems in pieces:
        placed = [el for el in comp_elems if el in parent_of]
        if not placed:
            continue
        parents = {parent_of[el] for el in placed}
        if len(parents) > 1:
            raise PushoutPreconditionError(
                [2], "connected glued material spans different boxes"
            )
        parent, key0 = parents.pop(), compkey_of[placed[0]]
        for el in comp_elems:
            if el in parent_of:
                comp_uf.union(key0, compkey_of[el])
            else:
                parent_of[el], compkey_of[el] = parent, key0

    # Renumber component classes per box, in order of first appearance.
    comp_index: dict[int, dict] = {}
    for el in p.elements():
        if el in parent_of:
            parent = parent_of[el]
            index = comp_index.setdefault(parent, {})
            idx = index.setdefault(comp_uf.find(compkey_of[el]), len(index))
            kind, i = el
            nest, comp = (p.vparent, p.vcomp) if kind == "v" else (p.eparent, p.ecomp)
            nest[i], comp[i] = parent, idx
    return PushoutResult(p, EHomomorphism(sides["X"], p, vmaps["X"], emaps["X"]),
                         EHomomorphism(sides["Y"], p, vmaps["Y"], emaps["Y"]))


def glue(x: EHypergraph, xs: Sequence[int], y: EHypergraph, ys: Sequence[int]) -> PushoutResult:
    """The pushout of ``x`` and ``y`` along a discrete interface, where
    ``xs[i]`` meets ``ys[i]``."""
    if len(xs) != len(ys):
        raise ValueError("glue: interfaces of different lengths")
    z = discrete(len(xs))
    return pushout(EHomomorphism(z, x, dict(zip(z.vertices, xs))),
                   EHomomorphism(z, y, dict(zip(z.vertices, ys))))


def discrete(n: int) -> EHypergraph:
    g = EHypergraph()
    for _ in range(n):
        g.add_vertex()
    return g


# ---------------------------------------------------------------------------
# Categorical operations
# ---------------------------------------------------------------------------


def compose(f: ExtendedCospan, g: ExtendedCospan) -> ExtendedCospan:
    """Sequential composition: glue f's external outputs to g's external inputs."""
    if f.coarity != g.arity:
        raise CospanError(
            f"composition mismatch: {f.coarity} outputs vs {g.arity} inputs"
        )
    try:
        po = glue(f.carrier, f.ext_out_vertices(), g.carrier, g.ext_in_vertices())
    except PushoutPreconditionError as exc:  # pragma: no cover - internal bug class
        raise CospanError(f"internal error: composition pushout failed: {exc}") from exc
    p1, p2 = po.inj_left.vmap, po.inj_right.vmap
    int_in = tuple(p1[v] for v in f.int_in) + tuple(
        p2[g.int_in[q]] for q in g.strict_in_positions()
    )
    int_out = tuple(p2[v] for v in g.int_out) + tuple(
        p1[f.int_out[q]] for q in f.strict_out_positions()
    )
    return ExtendedCospan(po.obj, int_in, int_out, f.ext_in, g.ext_out)


def tensor(f: ExtendedCospan, g: ExtendedCospan) -> ExtendedCospan:
    """Parallel composition: disjoint union with concatenated interfaces."""
    po = glue(f.carrier, (), g.carrier, ())
    p1, p2 = po.inj_left.vmap, po.inj_right.vmap
    int_in = tuple(p1[v] for v in f.int_in) + tuple(p2[v] for v in g.int_in)
    int_out = tuple(p1[v] for v in f.int_out) + tuple(p2[v] for v in g.int_out)
    ext_in = f.ext_in + tuple(p + len(f.int_in) for p in g.ext_in)
    ext_out = f.ext_out + tuple(p + len(f.int_out) for p in g.ext_out)
    return ExtendedCospan(po.obj, int_in, int_out, ext_in, ext_out)


def join_raw(parts: Sequence[ExtendedCospan]) -> ExtendedCospan:
    """Box a list of alternatives without deduplication.

    Each part becomes one consistency component of a fresh box; each part's
    former external wires become strictly internal slots, in external order,
    followed by the part's own strictly internal slots.
    """
    if not parts:
        raise CospanError("join of an empty list")
    arities = {(p.arity, p.coarity) for p in parts}
    if len(arities) > 1:
        raise CospanError(f"join of differently typed parts: {sorted(arities)}")
    if len(parts) == 1:
        return parts[0].copy()
    n, k = parts[0].arity, parts[0].coarity
    g = EHypergraph()
    box_in = [g.add_vertex() for _ in range(n)]
    box_out = [g.add_vertex() for _ in range(k)]
    box = g.add_edge(None, box_in, box_out)
    int_in: list[int] = list(box_in)
    int_out: list[int] = list(box_out)
    for comp, part in enumerate(parts):
        # Top-level part elements become children of the fresh box.
        vmap, _ = copy_into(g, part.carrier, parent=box, component=comp)
        strict_in = tuple(part.int_in[p] for p in part.strict_in_positions())
        strict_out = tuple(part.int_out[p] for p in part.strict_out_positions())
        int_in.extend(vmap[v] for v in part.ext_in_vertices() + strict_in)
        int_out.extend(vmap[v] for v in part.ext_out_vertices() + strict_out)
    return ExtendedCospan(
        carrier=g,
        int_in=tuple(int_in),
        int_out=tuple(int_out),
        ext_in=tuple(range(n)),
        ext_out=tuple(range(k)),
    )


def iso_classes(parts: Sequence[ExtendedCospan]) -> list[list[int]]:
    """The indices of ``parts`` grouped up to isomorphism; classes, and the
    members of each, in order of first appearance.  Parts are looked up by
    certificate, and ``iso`` confirms each hit with a checked witness."""
    classes: dict[Hashable, tuple[Canonical, list[int]]] = {}
    for i, part in enumerate(parts):
        form = canonical(part)
        first, members = classes.setdefault(form.cert, (form, []))
        if members:  # checks a witness, or raises CospanError
            iso(part, parts[members[0]], form, first)
        members.append(i)
    return [members for _, members in classes.values()]


def join(parts: Sequence[ExtendedCospan]) -> ExtendedCospan:
    """Box a list of alternatives, deduplicating parts up to isomorphism."""
    return join_raw([parts[members[0]] for members in iso_classes(parts)])


def identity_cospan(n: int) -> ExtendedCospan:
    g = discrete(n)
    slots = tuple(g.vertices)
    pos = tuple(range(n))
    return ExtendedCospan(g, slots, slots, pos, pos)


def symmetry_cospan(n: int, m: int) -> ExtendedCospan:
    g = discrete(n + m)
    vs = tuple(g.vertices)
    int_in = vs
    int_out = vs[n:] + vs[:n]
    pos_in = tuple(range(n + m))
    pos_out = tuple(range(n + m))
    return ExtendedCospan(g, int_in, int_out, pos_in, pos_out)


def generator_cospan(gen) -> ExtendedCospan:
    g = EHypergraph()
    ins = [g.add_vertex() for _ in range(gen.arity)]
    outs = [g.add_vertex() for _ in range(gen.coarity)]
    g.add_edge(gen.name, ins, outs)
    return ExtendedCospan(
        g,
        tuple(ins),
        tuple(outs),
        tuple(range(gen.arity)),
        tuple(range(gen.coarity)),
    )
