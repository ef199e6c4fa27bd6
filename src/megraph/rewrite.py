"""Rewrite rules over cospans and their double-pushout application.

A rule is a pair of cospans with equal external interfaces.  A match embeds
the left-hand carrier into a host carrier as a convex, down-closed subgraph;
applying the rule removes the matched material (keeping the glue vertices of
the external interface), then glues the right-hand side into the hole.

The structural schemas implement the semilattice laws (distribution over
alternatives, flattening of nested alternative boxes, idempotence and
singleton unboxing); each schema instance is synthesised as an ordinary
concrete rule plus match, so the single generic engine covers every rewrite.
An alternative is read out of its box by copying (``component_cospan``);
``components`` and the flattening and idempotence right-hand sides are built
so.  ``choose`` replaces a box by one of its alternatives by gluing, which is
needed only where a context surrounds the box: the right-hand sides of
distribution and the pruning of a box that is not the whole diagram.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .core import (
    EHomomorphism,
    EHypergraph,
    Element,
    Signature,
    _degrees,
    _feeds,
    _is_convex,
    connected_components,
    copy_into,
    down_closure,
    embeddings,
    is_acyclic,
)
from .cospan import (
    ExtendedCospan,
    PushoutPreconditionError,
    _box_typing,
    _slot_report,
    glue,
    is_mda_well_typed,
    iso_classes,
    join_raw,
    validate_cospan,
)
from .term import Term, interpret, typecheck


class RuleError(Exception):
    pass


class NoComplement(Exception):
    """No boundary complement exists; ``condition`` is the first violated one."""

    def __init__(self, condition: int, message: str = ""):
        self.condition = condition
        super().__init__(f"no boundary complement (condition {condition}): {message}")


class RewriteInternalError(Exception):
    """A rewrite step produced an ill-formed result; indicates a bug."""


@dataclass
class RewriteRule:
    name: str
    lhs: ExtendedCospan
    rhs: ExtendedCospan

    def __post_init__(self) -> None:
        if (self.lhs.arity, self.lhs.coarity) != (self.rhs.arity, self.rhs.coarity):
            raise RuleError(
                f"rule {self.name}: sides have different external interfaces"
            )
        for side, c in (("lhs", self.lhs), ("rhs", self.rhs)):
            bad = validate_cospan(c) + is_mda_well_typed(c)
            if bad:
                raise RuleError(f"rule {self.name}: {side} ill-formed: {bad[0]}")
            if _has_closed_component(c):
                raise RuleError(
                    f"rule {self.name}: {side} has a subdiagram with no inputs "
                    "and no outputs, which is not supported"
                )

    def reversed(self) -> "RewriteRule":
        """The rule with its sides swapped.  The checks of ``__post_init__``
        are symmetric in the two sides, so they are not run again."""
        rev = copy.copy(self)
        rev.name, rev.lhs, rev.rhs = f"{self.name}~rev", self.rhs, self.lhs
        return rev


def _has_closed_component(c: ExtendedCospan) -> bool:
    """True when some connected piece of the carrier touches no interface slot."""
    g = c.carrier
    slots = set(c.int_in) | set(c.int_out)
    links = [(("e", e), ("v", v)) for e in g.edges for v in g.endpoints(e)]
    links += [(el, ("e", p)) for el in g.elements() if (p := g.parent_of(el)) is not None]
    return any(
        not any(k == "v" and i in slots for k, i in members)
        for members in connected_components(g.elements(), links)
    )


def rule_from_terms(name: str, l: Term, r: Term, sig: Signature) -> RewriteRule:
    tl, tr = typecheck(l, sig), typecheck(r, sig)
    if tl != tr:
        raise RuleError(
            f"rule {name}: sides have types {tl.dom}->{tl.cod} and {tr.dom}->{tr.cod}"
        )
    return RewriteRule(name=name, lhs=interpret(l, sig), rhs=interpret(r, sig))


@dataclass
class Match:
    rule: RewriteRule
    hom: EHomomorphism  # lhs carrier -> host carrier
    host: ExtendedCospan


# ---------------------------------------------------------------------------
# Monomorphism enumeration
# ---------------------------------------------------------------------------


def monomorphisms(pat: EHypergraph, host: EHypergraph) -> Iterator[EHomomorphism]:
    """All injective structure-preserving maps from ``pat`` into ``host``.

    Top-level pattern elements may land inside host boxes (nested matches);
    nested pattern structure must be preserved exactly.  These are the maps
    of ``core.embeddings``, which preserve labels, ports, parents and
    components by construction.
    """
    for vmap, emap in embeddings(pat, host):
        yield EHomomorphism(dom=pat, cod=host, vmap=vmap, emap=emap)


def _glue_vertices(m: Match) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Host images of the rule's external input/output interface vertices."""
    ins = tuple(m.hom.vmap[v] for v in m.rule.lhs.ext_in_vertices())
    outs = tuple(m.hom.vmap[v] for v in m.rule.lhs.ext_out_vertices())
    return ins, outs


def _bare_wire(c: ExtendedCospan) -> bool:
    """Whether some vertex of ``c`` is both an external input and output."""
    return not set(c.ext_in_vertices()).isdisjoint(c.ext_out_vertices())


def _interface_images_admissible(host: EHypergraph, vs: Sequence[int]) -> bool:
    """All glue images top-level, or all in one box component (and so with
    one chain of ancestors)."""
    return len({(host.vparent.get(v), host.vcomp.get(v)) for v in vs}) <= 1


def find_matches(rule: RewriteRule, host: ExtendedCospan) -> list[Match]:
    """Enumerate admissible convex down-closed matches, deterministically ordered.

    In two stages.  The monomorphisms of the left-hand side that are
    down-closed and whose interface images are admissible are the
    *candidates*; the convex candidates are the matches, sorted by their
    edge images, then their vertex images, then in the order of the search
    (``core.embeddings``).

    A left-hand side with a bare wire (one vertex that is both an external
    input and an external output) has no match: the images of its input and
    output glue would overlap, so no boundary complement exists.
    """
    lhs = rule.lhs
    if _bare_wire(lhs):
        return []
    hg, glue = host.carrier, lhs.ext_in_vertices() + lhs.ext_out_vertices()

    def candidate(hom: EHomomorphism) -> bool:
        # Down-closed: every child of a matched box is matched.
        boxes = [e for e in hom.emap.values() if hg.label[e] is None]
        if boxes:
            image = hom.image()
            if any(child not in image for e in boxes for child in hg.children(e)):
                return False
        return _interface_images_admissible(hg, [hom.vmap[v] for v in glue])

    cands = [h for h in monomorphisms(lhs.carrier, hg) if candidate(h)]
    if not cands:
        return []
    feeds = _feeds(hg)
    out = [Match(rule, hom, host) for hom in cands if _is_convex(hg, hom.image(), feeds)]
    out.sort(key=lambda m: (sorted(m.hom.emap.values()), sorted(m.hom.vmap.values())))
    return out


# ---------------------------------------------------------------------------
# Boundary complement and rule application
# ---------------------------------------------------------------------------


@dataclass
class Complement:
    """The host minus the matched material (for ``choose``, minus a box and
    its contents), with gluing bookkeeping.

    The complement graph keeps host ids.  ``in_glue`` are the images of the
    rule's external *outputs* (they feed what remains downstream, so they sit
    on the complement's input side); ``out_glue`` are the images of the
    external *inputs*.
    """

    graph: EHypergraph
    kept_int_in: tuple[int, ...]
    kept_int_out: tuple[int, ...]
    in_glue: tuple[int, ...]
    out_glue: tuple[int, ...]
    host: ExtendedCospan

    @property
    def top_level(self) -> bool:
        """Whether the glue vertices, and so the hole, are at the top level."""
        return all(self.graph.vparent.get(v) is None for v in self.in_glue + self.out_glue)

    def host_ext(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The positions of the host's external slots among the kept slots."""

        def place(kept: tuple[int, ...], slots: tuple[int, ...], ext: tuple[int, ...]):
            pos = {v: p for p, v in enumerate(kept)}
            return tuple(pos[slots[p]] for p in ext)

        h = self.host
        return (place(self.kept_int_in, h.int_in, h.ext_in),
                place(self.kept_int_out, h.int_out, h.ext_out))


def _hole(
    host: ExtendedCospan, rm_v: set[int], rm_e: set[int],
    in_glue: tuple[int, ...], out_glue: tuple[int, ...],
) -> Complement:
    """``host`` minus the given vertices and edges, to be refilled along
    ``in_glue`` and ``out_glue``."""
    return Complement(
        graph=host.carrier.without(rm_v, rm_e),
        kept_int_in=tuple(v for v in host.int_in if v not in rm_v),
        kept_int_out=tuple(v for v in host.int_out if v not in rm_v),
        in_glue=in_glue,
        out_glue=out_glue,
        host=host,
    )


def boundary_complement(m: Match) -> Complement:
    """The host minus the match, to be refilled along the glue vertices;
    ``NoComplement`` names the first violated condition.

    On a valid host and a down-closed match, only what the cut changes is
    checked.  Down-closure and condition (1) leave no kept element in a
    removed box and no kept edge on a removed vertex, so kept elements keep
    their placement and nesting and only glue vertices lose edges; a
    subgraph of an acyclic, monogamous carrier is acyclic and monogamous;
    and each kept slot keeps its vertex and its level.  What the cut can
    break are the degree and slot conditions at the glue vertices
    (condition (6) at the top level, (7) in a box) and, for a hole in a
    box, that box's typing and component count, which the hole's extra
    slots break by design: condition (7) waives them, and ``_glue`` checks
    the box once it is refilled.

    The complement needs no own placement check of the glue vertices:
    condition (1) rejects every glue vertex whose box is removed, and
    ``EHypergraph.without`` changes the placement only of elements whose
    box is removed.  So each glue vertex keeps its host placement, which
    condition (3) has already found uniform: condition (4), that check on
    the complement, always holds and is not made."""
    hg = m.host.carrier
    gi, go = _glue_vertices(m)
    points = gi + go
    # Condition (2): the combined gluing map must be injective.
    if len(set(points)) != len(points):
        raise NoComplement(2, "external input and output images overlap")
    # Conditions (3): interface images uniformly placed in the host.
    if not _interface_images_admissible(hg, points):
        raise NoComplement(3, "interface images not uniformly placed")
    removed_v = set(m.hom.vmap.values()) - set(points)
    removed_e = set(m.hom.emap.values())
    # No dangling incidence or dangling nesting may remain.
    for e in hg.edges:
        if e in removed_e:
            continue
        if any(v in removed_v for v in hg.endpoints(e)):
            raise NoComplement(1, f"edge {e} would dangle")
    for v in points:
        if hg.vparent.get(v) in removed_e:
            raise NoComplement(1, f"glue vertex {v} would lose its box")
    comp = _hole(m.host, removed_v, removed_e, go, gi)
    # Condition (5): the host's own external interface survives.
    vset = set(comp.graph.vertices)
    for v in m.host.ext_in_vertices() + m.host.ext_out_vertices():
        if v not in vset:
            raise NoComplement(5, "host external interface was removed")
    # Conditions (6) and (7): the glue vertices are well-formed slots.
    report = _slot_report(comp.kept_int_in + comp.in_glue, comp.kept_int_out + comp.out_glue,
                          _degrees(comp.graph, points))
    if report:
        raise NoComplement(6 if comp.top_level else 7, report[0])
    return comp


@dataclass(repr=False, eq=False)
class Glued(ExtendedCospan):
    """The result of gluing a right-hand side into a hole, with the two
    injections of the pushout: ``comatch`` embeds the right-hand side's
    carrier in the result, and ``context`` maps the host elements that the
    step kept (the complement, which keeps host ids) to the result.  A glue
    vertex is in the image of both."""

    comatch: EHomomorphism
    context: EHomomorphism


def apply(m: Match) -> ExtendedCospan:
    """One double-pushout step: carve out the match, glue in the replacement.

    The host must be valid (``validate_cospan`` and ``is_mda_well_typed``
    report nothing), as every loader, ``RewriteRule`` and every earlier
    step ensure: the step checks only what it changes (see
    ``boundary_complement`` and ``_glue``).  The result is a ``Glued``,
    which also holds the comatch and the context map."""
    return _glue(boundary_complement(m), m.rule.rhs)


def _glue(comp: Complement, rhs: ExtendedCospan) -> Glued:
    """Glue ``rhs`` into the hole of ``comp`` along its glue vertices, keeping
    the host's interface; the result is checked where the gluing changed it.

    ``comp`` is a valid host minus a down-closed region, and ``rhs`` is
    valid.  The pushout identifies only glue vertices with the right-hand
    side's external vertices and places the inserted material at the
    hole's level, so every other element keeps its edges, slots and level,
    and the right-hand side's own boxes keep their typing.  What the gluing
    can break is:

    - the degree and slot conditions at the glue vertices;
    - the typing of the box around the hole, whose component gets its
      slots back (its component count cannot change, as the glue vertices
      stay in the hole's component);
    - acyclicity.  Both sides are acyclic, so a cycle has to leave the
      inserted region at a vertex the hole outputs to and come back at one
      it takes input from, along a path of the complement.  When no such
      path exists the result is acyclic; otherwise (the match was not
      convex) the whole result is checked."""
    try:
        po = glue(comp.graph, comp.out_glue + comp.in_glue,
                  rhs.carrier, rhs.ext_in_vertices() + rhs.ext_out_vertices())
    except PushoutPreconditionError as exc:  # pragma: no cover - bug class
        raise RewriteInternalError(f"insertion pushout failed: {exc}") from exc
    inj_c, inj_r = po.inj_left.vmap, po.inj_right.vmap
    int_in = tuple(inj_c[v] for v in comp.kept_int_in) + tuple(
        inj_r[rhs.int_in[p]] for p in rhs.strict_in_positions()
    )
    int_out = tuple(inj_c[v] for v in comp.kept_int_out) + tuple(
        inj_r[rhs.int_out[p]] for p in rhs.strict_out_positions()
    )
    result = Glued(po.obj, int_in, int_out, *comp.host_ext(), po.inj_right, po.inj_left)
    points = [inj_c[v] for v in comp.out_glue + comp.in_glue]
    report = _slot_report(int_in, int_out, _degrees(po.obj, points))
    box = po.obj.vparent.get(points[0]) if points else None
    if box is not None:
        report += [r for r in _box_typing(result) if r.startswith(f"box {box} ")]
    if not report and _reaches_back(comp) and not is_acyclic(po.obj):
        report.append("carrier has a directed cycle")
    if report:
        raise RewriteInternalError(f"rewrite produced ill-formed cospan: {report[0]}")
    return result


def _reaches_back(comp: Complement) -> bool:
    """Whether a directed path of the complement leads from a vertex the
    hole outputs to (``in_glue``) back to one it takes input from
    (``out_glue``)."""
    g = comp.graph
    feeds = _feeds(g)
    seen = set(comp.in_glue)
    todo = list(seen)
    while todo:
        for e in feeds.get(todo.pop(), ()):
            for w in g.target[e]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
    return not seen.isdisjoint(comp.out_glue)


# ---------------------------------------------------------------------------
# Closed-subdiagram extraction
# ---------------------------------------------------------------------------


def extract_subdiagram(
    host: ExtendedCospan,
    elements: set[Element],
    ext_in_vs: Sequence[int],
    ext_out_vs: Sequence[int],
) -> tuple[ExtendedCospan, EHomomorphism]:
    """Lift a down-closed element set into a standalone cospan.

    ``elements`` must be down-closed with all endpoints included, and its top
    elements (those whose parent is not among the included edges) must share
    one placement; they become top-level in the result.  ``ext_in_vs`` /
    ``ext_out_vs`` give the external interface order (host vertex ids); the
    remaining dangling wires become strictly internal slots in host interface
    order.  Returns the cospan and the embedding back into the host carrier.
    """
    hg = host.carrier
    g = EHypergraph()
    vmap, emap = copy_into(g, hg, keep=elements)

    # Wires nothing inside produces (consumes) are inputs (outputs).
    not_in = {v for e in emap for v in hg.target[e]} | set(ext_in_vs)
    not_out = {v for e in emap for v in hg.source[e]} | set(ext_out_vs)
    strict_in = [v for v in _host_ordered(host, list(vmap), "in") if v not in not_in]
    strict_out = [v for v in _host_ordered(host, list(vmap), "out") if v not in not_out]
    int_in = tuple(vmap[v] for v in list(ext_in_vs) + strict_in)
    int_out = tuple(vmap[v] for v in list(ext_out_vs) + strict_out)
    cospan = ExtendedCospan(
        g,
        int_in,
        int_out,
        tuple(range(len(ext_in_vs))),
        tuple(range(len(ext_out_vs))),
    )
    hom = EHomomorphism(dom=g, cod=hg, vmap={nv: v for v, nv in vmap.items()},
                        emap={ne: e for e, ne in emap.items()})
    return cospan, hom


def component_cospan(host: ExtendedCospan, box: int, comp: int) -> ExtendedCospan:
    """One alternative of a box, lifted to a standalone cospan.

    The external slot order follows the host's internal interface order,
    which positionally matches the box's source/target order.
    """
    hg = host.carrier
    vs = [v for v in hg.vertices if hg.vparent.get(v) == box and hg.vcomp[v] == comp]
    elements = down_closure(hg, [e for e in hg.edges
                                 if hg.eparent.get(e) == box and hg.ecomp[e] == comp])
    elements.update(("v", v) for v in vs)
    host_in, host_out = set(host.int_in), set(host.int_out)
    ins = _host_ordered(host, [v for v in vs if v in host_in], "in")
    outs = _host_ordered(host, [v for v in vs if v in host_out], "out")
    cospan, _ = extract_subdiagram(host, elements, ins, outs)
    return cospan


def edge_cospan(host: ExtendedCospan, e: int) -> tuple[ExtendedCospan, EHomomorphism]:
    """Edge ``e`` with everything nested in it, as a cospan whose external
    interface is ``e``'s sources and targets; with its embedding into the
    host carrier."""
    g = host.carrier
    return extract_subdiagram(host, down_closure(g, [e]), g.source[e], g.target[e])


# ---------------------------------------------------------------------------
# Choosing an alternative
# ---------------------------------------------------------------------------


def choose(c: ExtendedCospan, box: int, k: int) -> ExtendedCospan:
    """``c`` with ``box`` replaced by its alternative ``k``, keeping ``c``'s
    interface.

    The box and everything nested in it are removed, and the alternative is
    glued into the hole along the box's endpoints: its external inputs
    (outputs) meet the box's sources (targets) in order.  This is a gluing
    of context around an alternative, as distribution and the pruning of a
    box in context need; an alternative read out of a top-level box is a
    copy (``alternative``).
    """
    g = c.carrier
    removed = down_closure(g, [box]) - {("v", v) for v in g.endpoints(box)}
    hole = _hole(c, {i for kind, i in removed if kind == "v"},
                 {i for kind, i in removed if kind == "e"}, g.target[box], g.source[box])
    return _glue(hole, component_cospan(c, box, k))


def _top_box(c: ExtendedCospan) -> Optional[int]:
    """The box when the whole diagram is one top-level alternative box."""
    g = c.carrier
    tops = [e for e in g.edges if g.eparent.get(e) is None]
    if len(tops) != 1 or not g.is_box(tops[0]):
        return None
    endpoints = set(g.endpoints(tops[0]))
    if all(v in endpoints for v in g.vertices if g.vparent.get(v) is None):
        return tops[0]
    return None


def components(c: ExtendedCospan) -> list[ExtendedCospan]:
    """The alternatives of a top-level alternative box, each with ``c``'s
    interface (``alternative``), or ``[c]`` itself."""
    box = _top_box(c)
    if box is None:
        return [c]
    return [alternative(c, box, k) for k in c.carrier.alternatives(box)]


def alternative(c: ExtendedCospan, box: int, k: int) -> ExtendedCospan:
    """Alternative ``k`` of ``c``'s top-level alternative box ``box``, with
    ``c``'s interface.

    It is copied out with ``component_cospan``, and its external positions
    are permuted to ``c``'s: external input ``i`` is the alternative's input
    at the box source that ``c``'s external input ``i`` is, and likewise for
    outputs.  So a crossing in front of the box stays."""
    g = c.carrier
    part = component_cospan(c, box, k)
    ext_in = tuple(g.source[box].index(v) for v in c.ext_in_vertices())
    ext_out = tuple(g.target[box].index(v) for v in c.ext_out_vertices())
    return ExtendedCospan(part.carrier, part.int_in, part.int_out, ext_in, ext_out)


# ---------------------------------------------------------------------------
# Structural schemas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructuralSchema:
    schema_id: str


def _sibling_match(
    host: ExtendedCospan, lhs: ExtendedCospan, hom: EHomomorphism,
    rhs: ExtendedCospan, schema: str, name: str,
) -> Optional[tuple[StructuralSchema, Match]]:
    """The instance of a schema on a convex region of the host."""
    try:
        rule = RewriteRule(name=name, lhs=lhs, rhs=rhs)
    except RuleError:
        return None
    return StructuralSchema(schema), Match(rule=rule, hom=hom, host=host)


def _host_ordered(host: ExtendedCospan, vs: Sequence[int], side: str) -> list[int]:
    """Order wires by their host interface position (fallback: vertex id)."""
    slots = host.int_in if side == "in" else host.int_out
    pos = {v: p for p, v in enumerate(slots)}
    return sorted(vs, key=lambda v: (pos.get(v, len(pos)), v))


def _dist_instance(
    host: ExtendedCospan, e: int, box: int
) -> Optional[tuple[StructuralSchema, Match]]:
    """Absorb a sibling edge that feeds, is fed by, or runs beside a box into
    every alternative: the context around the box equals the join of that
    context around each alternative.  Of the schemas, only this region (two
    edges) can be non-convex; a box with its contents and endpoints is
    convex in an acyclic host."""
    hg = host.carrier
    elements = down_closure(hg, [e, box])
    if not _is_convex(hg, elements, _feeds(hg)):
        return None
    if set(hg.target[e]) & set(hg.source[box]):
        schema = "SeqDistL"
    elif set(hg.source[e]) & set(hg.target[box]):
        schema = "SeqDistR"
    else:
        schema = "TensDistL"
    produced = set(hg.target[e] + hg.target[box])
    consumed = set(hg.source[e] + hg.source[box])
    lhs, hom = extract_subdiagram(
        host,
        elements,
        _host_ordered(host, list(consumed - produced), "in"),
        _host_ordered(host, list(produced - consumed), "out"),
    )
    lbox = next(x for x, y in hom.emap.items() if y == box)
    rhs = join_raw([choose(lhs, lbox, k) for k in lhs.carrier.alternatives(lbox)])
    return _sibling_match(host, lhs, hom, rhs, schema, f"dist-{schema}")


def _flatten_instance(
    host: ExtendedCospan, outer: int, inner: int
) -> Optional[tuple[StructuralSchema, Match]]:
    """Splice a component that consists of exactly one box into its parent:
    the outer box's alternatives, with that one replaced by the inner box's."""
    hg = host.carrier
    comp = hg.ecomp[inner]
    alternatives = hg.alternatives(outer)
    if set(alternatives[comp]) != {("e", inner)} | {("v", v) for v in hg.endpoints(inner)}:
        return None
    lhs, hom = edge_cospan(host, outer)
    parts = components(lhs)
    i = list(alternatives).index(comp)
    rhs = join_raw(parts[:i] + components(parts[i]) + parts[i + 1:])
    return _sibling_match(host, lhs, hom, rhs, "Flatten", "flatten")


def _idem_instance(
    host: ExtendedCospan, box: int
) -> Optional[tuple[StructuralSchema, Match]]:
    """Drop a duplicate component, or unbox a two-component box of duplicates."""
    hg = host.carrier
    parts = [component_cospan(host, box, c) for c in hg.alternatives(box)]
    # The earliest component with a later duplicate, and its first duplicate.
    dup = next((ix for ix in iso_classes(parts) if len(ix) > 1), None)
    if dup is None:
        return None
    lhs, hom = edge_cospan(host, box)
    if len(parts) >= 3:
        rhs = join_raw([p for i, p in enumerate(parts) if i != dup[1]])
        return _sibling_match(host, lhs, hom, rhs, "Idem", "idem")
    return _sibling_match(host, lhs, hom, parts[dup[0]], "Singleton-absorb", "singleton")


def structural_matches(
    host: ExtendedCospan,
) -> Iterator[tuple[StructuralSchema, Match]]:
    """Forward structural-rule instances present in the host, outermost
    first; each box's flattenings, then its idempotence, then its
    distributions over sibling edges.  An instance is built only when the
    caller asks for it."""
    hg = host.carrier
    for box in sorted((e for e in hg.edges if hg.is_box(e)),
                      key=lambda e: (hg.depth(("e", e)), e)):
        placement = hg.placement(("e", box))
        yield from filter(None, (_flatten_instance(host, box, i) for kind, i in hg.children(box)
                                 if kind == "e" and hg.is_box(i)))
        if idem := _idem_instance(host, box):
            yield idem
        siblings = sorted(e for e in hg.edges if e != box and hg.placement(("e", e)) == placement)
        yield from filter(None, (_dist_instance(host, e, box) for e in siblings))
