"""Independent brute-force oracles used by the acceptance tests.

These deliberately avoid the library's own search code wherever practical:
homomorphism enumeration is a direct backtracking search over raw maps, the
isomorphism oracle filters it for bijections that line up the slots, the
complement oracle enumerates every candidate subgraph of the host, the
equational oracle works on term syntax only, and the saturation oracles are
the restart-after-every-addition loop that the worklist replaced and the
worklist that takes every step, also the reversed rule's step back to the
host.  The alternative builders glue each alternative into its box's place,
as ``components`` and flattening did before they copied it out.  The checkers
and writers after them are the straightforward versions that the one-pass
checks and the direct JSON emitters replaced.  Last come the DPO steps that
check every complement and result whole-graph, as ``apply`` and ``choose``
did before they checked only where a step changes the graph, and the
element-by-element homomorphism and pushout-precondition checks.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from typing import Any, Hashable, Iterator, Optional

from megraph.core import (
    EHypergraph,
    EHomomorphism,
    Element,
    Signature,
    copy_into,
    down_closure,
    is_acyclic,
)
from megraph.cospan import ExtendedCospan, PushoutPreconditionError, pushout
from megraph import cospan as cs
from megraph.egraph import EGraph, ENode
from megraph.engine import (
    CostModel,
    SaturationResult,
    Strategy,
    _alternative_costs,
    components,
)
from megraph.rewrite import (
    Complement,
    Match,
    NoComplement,
    RewriteInternalError,
    _glue_vertices,
    _hole,
    _interface_images_admissible,
    _top_box,
    apply,
    boundary_complement,
    choose,
    component_cospan,
    extract_subdiagram,
    find_matches,
)
from megraph.serialize import HIERARCHICAL, SerializationError


# ---------------------------------------------------------------------------
# Brute-force homomorphism enumeration
# ---------------------------------------------------------------------------


def all_homs(
    dom: EHypergraph, cod: EHypergraph, injective: bool = False
) -> Iterator[EHomomorphism]:
    """Every valid homomorphism dom -> cod, by exhaustive backtracking; with
    ``injective``, every injective one."""
    dom_edges = list(dom.edges)

    def extend(i: int, vmap: dict[int, int], emap: dict[int, int]):
        if i == len(dom_edges):
            free = [v for v in dom.vertices if v not in vmap]
            if injective:
                if len(set(vmap.values())) < len(vmap):
                    return
                unused = [w for w in cod.vertices if w not in set(vmap.values())]
                choices = itertools.permutations(unused, len(free))
            else:
                choices = itertools.product(cod.vertices, repeat=len(free))
            for images in choices:
                full_v = dict(vmap)
                full_v.update(zip(free, images))
                h = EHomomorphism(dom=dom, cod=cod, vmap=full_v, emap=dict(emap))
                if not h.violations():
                    yield h
            return
        e = dom_edges[i]
        for d in cod.edges:
            if injective and d in emap.values():
                continue
            if cod.label[d] != dom.label[e]:
                continue
            if len(cod.source[d]) != len(dom.source[e]):
                continue
            if len(cod.target[d]) != len(dom.target[e]):
                continue
            new_v = dict(vmap)
            ok = True
            for x, y in zip(
                dom.endpoints(e), cod.endpoints(d)
            ):
                if new_v.get(x, y) != y:
                    ok = False
                    break
                new_v[x] = y
            if not ok:
                continue
            emap[e] = d
            yield from extend(i + 1, new_v, emap)
            del emap[e]

    yield from extend(0, {}, {})


def _strict_blocks(c: ExtendedCospan, slots: tuple[int, ...], ext: tuple[int, ...]) -> dict:
    """Strictly internal slot positions grouped by the placement of their
    vertex, in slot order."""
    blocks: dict = {}
    for p, v in enumerate(slots):
        if p not in ext:
            blocks.setdefault(c.carrier.placement(("v", v)), []).append(p)
    return blocks


def iso_oracle(a: ExtendedCospan, b: ExtendedCospan) -> bool:
    """Some bijective homomorphism of the carriers, whose inverse is one too,
    maps a's external slots pointwise onto b's and each block of a's strict
    slots (one per box component), in order, onto a block of b's."""
    sides = ((a.int_in, b.int_in, a.ext_in, b.ext_in),
             (a.int_out, b.int_out, a.ext_out, b.ext_out))
    if any(len(sa) != len(sb) or len(ea) != len(eb) for sa, sb, ea, eb in sides):
        return False

    def lines_up(vmap: dict[int, int]) -> bool:
        for sa, sb, ea, eb in sides:
            if any(vmap[sa[p]] != sb[q] for p, q in zip(ea, eb)):
                return False
            blocks_a, blocks_b = _strict_blocks(a, sa, ea), _strict_blocks(b, sb, eb)
            if len(blocks_a) != len(blocks_b):
                return False
            for ps in blocks_a.values():
                qs = blocks_b.get(b.carrier.placement(("v", vmap[sa[ps[0]]])), [])
                if [vmap[sa[p]] for p in ps] != [sb[q] for q in qs]:
                    return False
        return True

    return any(
        _is_iso_onto(h) and lines_up(h.vmap)
        for h in all_homs(a.carrier, b.carrier, injective=True)
    )


def hom_equal(h1: EHomomorphism, h2: EHomomorphism) -> bool:
    return h1.vmap == h2.vmap and h1.emap == h2.emap


# ---------------------------------------------------------------------------
# Complement enumeration (uniqueness oracle)
# ---------------------------------------------------------------------------


def induced(g: EHypergraph, elems: set[Element]) -> tuple[Optional[EHypergraph], dict, dict]:
    """The subgraph on ``elems`` (fresh ids), or None if an edge loses a leg."""
    vs = sorted(i for k, i in elems if k == "v")
    es = sorted(i for k, i in elems if k == "e")
    vset = set(vs)
    sub = EHypergraph()
    vmap = {v: sub.add_vertex() for v in vs}
    emap = {}
    for e in es:
        if any(v not in vset for v in g.endpoints(e)):
            return None, {}, {}
        if g.eparent.get(e) is not None and g.eparent[e] not in {x for x in es}:
            return None, {}, {}
        emap[e] = sub.add_edge(
            g.label[e], [vmap[v] for v in g.source[e]], [vmap[v] for v in g.target[e]]
        )
    for v in vs:
        if g.vparent.get(v) is not None:
            if g.vparent[v] not in emap:
                return None, {}, {}
            sub.vparent[vmap[v]] = emap[g.vparent[v]]
            sub.vcomp[vmap[v]] = g.vcomp[v]
    for e in es:
        if g.eparent.get(e) is not None:
            sub.eparent[emap[e]] = emap[g.eparent[e]]
            sub.ecomp[emap[e]] = g.ecomp[e]
    return sub, vmap, emap


def _discrete(n: int) -> EHypergraph:
    g = EHypergraph()
    for _ in range(n):
        g.add_vertex()
    return g


def _induced_square_map(
    p, host: EHypergraph, match_hom: EHomomorphism, cvmap: dict, cemap: dict
) -> Optional[EHomomorphism]:
    """The map P -> host induced by the cocone (match, inclusion), if single-valued."""
    vmap: dict[int, int] = {}
    emap: dict[int, int] = {}
    for x, px in p.inj_left.vmap.items():
        hx = match_hom.vmap[x]
        if vmap.get(px, hx) != hx:
            return None
        vmap[px] = hx
    for y, py in p.inj_right.vmap.items():
        hy = {sv: hv for hv, sv in cvmap.items()}[y]
        if vmap.get(py, hy) != hy:
            return None
        vmap[py] = hy
    for x, px in p.inj_left.emap.items():
        hx = match_hom.emap[x]
        if emap.get(px, hx) != hx:
            return None
        emap[px] = hx
    for y, py in p.inj_right.emap.items():
        hy = {se: he for he, se in cemap.items()}[y]
        if emap.get(py, hy) != hy:
            return None
        emap[py] = hy
    return EHomomorphism(dom=p.obj, cod=host, vmap=vmap, emap=emap)


def _is_iso_onto(h: EHomomorphism) -> bool:
    if set(h.vmap) != set(h.dom.vertices) or set(h.emap) != set(h.dom.edges):
        return False
    if sorted(h.vmap.values()) != sorted(h.cod.vertices):
        return False
    if sorted(h.emap.values()) != sorted(h.cod.edges):
        return False
    if h.violations():
        return False
    inv = EHomomorphism(
        dom=h.cod,
        cod=h.dom,
        vmap={w: v for v, w in h.vmap.items()},
        emap={d: e for e, d in h.emap.items()},
    )
    return not inv.violations()


def enumerate_complements(m: Match) -> list[tuple[set[Element], ExtendedCospan]]:
    """All subgraphs of the host that complete the rewrite square, as pinned
    cospans over the glue + host interface wires.  Box-free hosts only."""
    host = m.host
    g = host.carrier
    lhs = m.rule.lhs
    glue_in = [m.hom.vmap[v] for v in lhs.ext_in_vertices()]
    glue_out = [m.hom.vmap[v] for v in lhs.ext_out_vertices()]
    glue = glue_in + glue_out
    keep_always = set(glue) | set(host.int_in) | set(host.int_out)
    removable = sorted(
        el for el in g.elements() if not (el[0] == "v" and el[1] in keep_always)
    )
    z = _discrete(len(glue))
    zl = EHomomorphism(
        dom=z,
        cod=lhs.carrier,
        vmap=dict(
            zip(z.vertices, list(lhs.ext_in_vertices()) + list(lhs.ext_out_vertices()))
        ),
        emap={},
    )
    found: list[tuple[set[Element], ExtendedCospan]] = []
    all_elems = set(g.elements())
    for r in range(len(removable) + 1):
        for drop in itertools.combinations(removable, r):
            kept = all_elems - set(drop)
            sub, vmap, emap = induced(g, kept)
            if sub is None:
                continue
            zc = EHomomorphism(
                dom=z, cod=sub, vmap={zv: vmap[hv] for zv, hv in zip(z.vertices, glue)},
                emap={},
            )
            try:
                p = pushout(zl, zc)
            except PushoutPreconditionError:
                continue
            psi = _induced_square_map(p, g, m.hom, vmap, emap)
            if psi is None or not _is_iso_onto(psi):
                continue
            found.append((kept, _pinned_cospan(host, sub, vmap, glue_in, glue_out)))
    return found


def _pinned_cospan(
    host: ExtendedCospan, sub: EHypergraph, vmap: dict, glue_in, glue_out
) -> ExtendedCospan:
    """Wrap a host subgraph so iso comparison pins glue and host wires pointwise."""
    ins = [v for v in host.int_in if v in vmap] + [v for v in glue_out if v in vmap]
    outs = [v for v in host.int_out if v in vmap] + [v for v in glue_in if v in vmap]
    return ExtendedCospan(
        sub,
        tuple(vmap[v] for v in ins),
        tuple(vmap[v] for v in outs),
        tuple(range(len(ins))),
        tuple(range(len(outs))),
    )


def complement_iso_classes(m: Match) -> tuple[int, bool]:
    """(number of iso classes among all complements, library result is one of them)."""
    found = enumerate_complements(m)
    classes: list[ExtendedCospan] = []
    for _, c in found:
        if all(cs.iso(c, rep) is None for rep in classes):
            classes.append(c)
    bc = boundary_complement(m)
    sub, vmap, _ = induced(
        bc.graph, set(bc.graph.elements())
    )
    lib = _pinned_cospan(m.host, sub, vmap, list(bc.out_glue), list(bc.in_glue))
    lib_matches = any(cs.iso(lib, rep) is not None for rep in classes)
    return len(classes), lib_matches


# ---------------------------------------------------------------------------
# Equational-closure oracle on join-of-chain terms
# ---------------------------------------------------------------------------

# States are sorted tuples of chains; a chain is a tuple of generator names.
# One oracle move is a single equation instance: swapping an adjacent f;g
# pair inside one chain, collapsing two equal chains, or duplicating a chain.


def _swaps(chain: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
    for i in range(len(chain) - 1):
        pair = (chain[i], chain[i + 1])
        if pair in (("f", "g"), ("g", "f")):
            yield chain[:i] + (chain[i + 1], chain[i]) + chain[i + 2 :]


def _term_moves(state: tuple) -> Iterator[tuple]:
    chains = list(state)
    for idx, chain in enumerate(chains):
        for swapped in _swaps(chain):
            yield tuple(sorted(chains[:idx] + [swapped] + chains[idx + 1 :]))
    for idx, chain in enumerate(chains):
        yield tuple(sorted(chains + [chain]))
        if chains.count(chain) >= 2:
            yield tuple(sorted(chains[:idx] + chains[idx + 1 :]))


def oracle_ball(state: tuple, depth: int) -> set[tuple]:
    """All states reachable within ``depth`` single-equation moves."""
    seen = {state}
    frontier = [state]
    for _ in range(depth):
        nxt = []
        for s in frontier:
            for t in _term_moves(s):
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


def chain_signature(state: tuple) -> frozenset:
    """Invariant preserved by every oracle move: the set of chains up to
    reordering f/g inside maximal h-free blocks."""

    def canon(chain: tuple[str, ...]) -> tuple:
        blocks: list = []
        cur: list[str] = []
        for x in chain:
            if x == "h":
                blocks.append(tuple(sorted(cur)))
                blocks.append("h")
                cur = []
            else:
                cur.append(x)
        blocks.append(tuple(sorted(cur)))
        return tuple(blocks)

    return frozenset(canon(c) for c in state)


# ---------------------------------------------------------------------------
# Saturation oracle
# ---------------------------------------------------------------------------


def saturate_oracle(c: ExtendedCospan, s: Strategy) -> SaturationResult:
    """Saturation by restarting after every added alternative: rebuild the
    joined diagram, match every rule against all of it, and add the first
    new component of the first result that has one."""
    rules = list(s.rules)
    if s.bidirectional:
        rules += [r.reversed() for r in s.rules]
    comps = components(c)
    steps = 0
    while steps < s.max_steps:
        cur = comps[0] if len(comps) == 1 else cs.join(comps)
        added = False
        for rule in rules:
            for m in find_matches(rule, cur):
                cand = apply(m)
                for new in components(cand):
                    if all(cs.iso(new, old) is None for old in comps):
                        comps.append(new)
                        steps += 1
                        added = True
                        break
                if added:
                    break
            if added:
                break
        if not added:
            result = c if steps == 0 else cur
            return SaturationResult(result, steps, True)
    result = c if steps == 0 else (comps[0] if len(comps) == 1 else cs.join(comps))
    return SaturationResult(result, steps, False)


def saturate_worklist_oracle(c: ExtendedCospan, s: Strategy) -> SaturationResult:
    """``saturate``'s worklist taking every step: each reversed rule's match
    is applied too, also the one at the comatch of the step that made the
    alternative, which gives that step's host back."""
    rules = list(s.rules)
    if s.bidirectional:
        rules += [r.reversed() for r in s.rules]
    boxed = [r for r in rules if any(map(r.lhs.carrier.is_box, r.lhs.carrier.edges))]
    stored: dict[Hashable, tuple[ExtendedCospan, cs.Canonical]] = {}

    def is_new(part: ExtendedCospan) -> bool:
        form = cs.canonical(part)
        old, old_form = stored.setdefault(form.cert, (part, form))
        return old is part or cs.iso(part, old, form, old_form) is None

    comps = [part for part in components(c) if is_new(part)]
    initial = len(comps)

    def add(m: Match) -> bool:
        for new in components(apply(m)):
            if is_new(new):
                if len(comps) - initial == s.max_steps:
                    return False
                comps.append(new)
        return True

    def finish(saturated: bool) -> SaturationResult:
        steps = len(comps) - initial
        return SaturationResult(c if steps == 0 else cs.join_raw(comps), steps, saturated)

    done = 0
    while True:
        while done < len(comps):
            alt = comps[done]
            done += 1
            for rule in rules:
                for m in find_matches(rule, alt):
                    if not add(m):
                        return finish(False)
        if len(comps) < 2 or not boxed:
            return finish(True)
        joined = cs.join_raw(comps)
        top = _top_box(joined)
        for rule in boxed:
            for m in find_matches(rule, joined):
                if top in m.hom.emap.values() and not add(m):
                    return finish(False)
        if done == len(comps):
            return finish(True)


# ---------------------------------------------------------------------------
# Alternatives built by gluing
# ---------------------------------------------------------------------------


def components_oracle(c: ExtendedCospan) -> list[ExtendedCospan]:
    """``components`` by gluing: each alternative of the top-level box is
    ``c`` with the box replaced by it (``choose``)."""
    box = _top_box(c)
    if box is None:
        return [c]
    return [choose(c, box, k) for k in c.carrier.alternatives(box)]


def prune_oracle(c: ExtendedCospan, m: Optional[CostModel] = None) -> ExtendedCospan:
    """``prune`` choosing every box's cheapest alternative by gluing, the
    top-level box too."""
    m = m or CostModel()
    cur = c
    while True:
        g = cur.carrier
        boxes = sorted((e for e in g.edges if g.is_box(e)), key=lambda e: g.depth(("e", e)))
        if not boxes:
            return cur
        costs = _alternative_costs(cur, boxes[0], m)
        cur = choose(cur, boxes[0], min(costs, key=costs.get))


def flatten_rhs_oracle(host: ExtendedCospan, outer: int, inner: int) -> ExtendedCospan:
    """The right-hand side of the flattening instance of ``inner`` in
    ``outer``, by gluing: each alternative of the outer box is chosen in its
    left-hand side, and the one that is the inner box is split into the
    inner box's glued alternatives."""
    hg = host.carrier
    lhs, hom = extract_subdiagram(
        host, down_closure(hg, [outer]), list(hg.source[outer]), list(hg.target[outer])
    )
    louter = next(x for x, y in hom.emap.items() if y == outer)
    parts = []
    for k in hg.alternatives(outer):
        part = choose(lhs, louter, k)
        parts.extend(components_oracle(part) if k == hg.ecomp[inner] else [part])
    return cs.join_raw(parts)


# ---------------------------------------------------------------------------
# Checkers and writers, one whole-graph scan per condition
# ---------------------------------------------------------------------------


def validate_oracle(g: EHypergraph, sig: Optional[Signature] = None) -> list[str]:
    """``core.validate`` as an element-by-element scan per condition."""
    report: list[str] = []
    vset = set(g.vertices)
    eset = set(g.edges)
    if len(vset) != len(g.vertices):
        report.append("duplicate vertex ids")
    if len(eset) != len(g.edges):
        report.append("duplicate edge ids")
    for e in g.edges:
        for v in g.endpoints(e):
            if v not in vset:
                report.append(f"edge {e}: unknown endpoint vertex {v}")

    for elem in g.elements():
        p = g.parent_of(elem)
        if p is None:
            if g.component_of(elem) is not None:
                report.append(f"{elem}: component index without a parent")
            continue
        if g.component_of(elem) is None:
            report.append(f"{elem}: parent without a component index")
        if p not in eset:
            report.append(f"{elem}: unknown parent edge {p}")
        elif g.label[p] is not None:
            report.append(f"{elem}: parent edge {p} is not hierarchical")
    for e in g.edges:
        chain = set()
        p: Optional[int] = g.eparent.get(e)
        while p is not None:
            if p == e or p in chain:
                report.append(f"edge {e}: cyclic nesting chain")
                break
            chain.add(p)
            p = g.eparent.get(p)

    child_comps: dict[int, set[int]] = {}
    for elem in g.elements():
        p = g.parent_of(elem)
        if p is not None:
            c = g.component_of(elem)
            if c is not None:
                child_comps.setdefault(p, set()).add(c)
    for e in g.edges:
        comps = child_comps.get(e, set())
        if not comps and g.label[e] is None:
            report.append(f"edge {e}: hierarchical edge with no children")
        if comps and g.label[e] is not None:
            report.append(f"edge {e}: labelled edge used as a parent")
        if g.label[e] is None and len(comps) == 1:
            report.append(f"edge {e}: single-component box")

    for e in g.edges:
        ep, ec = g.placement(("e", e))
        for v in g.endpoints(e):
            if v not in vset:
                continue
            vp, vc = g.placement(("v", v))
            if vp != ep:
                report.append(f"edge {e} and endpoint {v}: different parents")
            elif ep is not None and vc != ec:
                report.append(
                    f"edge {e} and endpoint {v}: same box, different components"
                )

    if sig is not None:
        for e in g.edges:
            lbl = g.label[e]
            if lbl is None:
                continue
            if lbl not in sig:
                report.append(f"edge {e}: unknown generator {lbl}")
                continue
            ar, coar = sig.arity(lbl)
            if len(g.source[e]) != ar or len(g.target[e]) != coar:
                report.append(
                    f"edge {e}: generator {lbl} expects {ar} -> {coar}, "
                    f"got {len(g.source[e])} -> {len(g.target[e])}"
                )
    return report


def validate_cospan_oracle(c: ExtendedCospan, sig: Optional[Signature] = None) -> list[str]:
    """``cospan.validate_cospan`` on top of :func:`validate_oracle`."""
    report = validate_oracle(c.carrier, sig)
    vset = set(c.carrier.vertices)
    for side, slots, ext in (
        ("input", c.int_in, c.ext_in),
        ("output", c.int_out, c.ext_out),
    ):
        for v in slots:
            if v not in vset:
                report.append(f"{side} slot vertex {v} not in carrier")
        ext_set = set(ext)
        if len(ext_set) != len(ext):
            report.append(f"{side} external positions not injective")
        for p in ext:
            if not (0 <= p < len(slots)):
                report.append(f"{side} external position {p} out of range")
                continue
            if slots[p] in vset and c.carrier.parent_of(("v", slots[p])) is not None:
                report.append(f"{side} external slot {p} maps to a nested vertex")
        for p in range(len(slots)):
            if p in ext_set or slots[p] not in vset:
                continue
            if c.carrier.parent_of(("v", slots[p])) is None:
                report.append(
                    f"{side} strictly internal slot {p} maps to a top-level vertex"
                )
    return report


def degrees_oracle(g: EHypergraph) -> dict[int, tuple[int, int]]:
    ind: Counter[int] = Counter()
    outd: Counter[int] = Counter()
    for e in g.edges:
        ind.update(g.target[e])
        outd.update(g.source[e])
    return {v: (ind[v], outd[v]) for v in g.vertices}


def box_typing_oracle(c: ExtendedCospan) -> list[str]:
    """Box typing from one ``alternatives`` scan per box."""
    report: list[str] = []
    g = c.carrier
    strict_in = {c.int_in[p] for p in c.strict_in_positions()}
    strict_out = {c.int_out[p] for p in c.strict_out_positions()}
    for e in g.edges:
        if g.label[e] is not None:
            continue
        sides = (("inputs", strict_in, len(g.source[e])),
                 ("outputs", strict_out, len(g.target[e])))
        for comp, members in g.alternatives(e).items():
            vs = [i for k, i in members if k == "v"]
            for side, slots, want in sides:
                got = sum(v in slots for v in vs)
                if got != want:
                    report.append(f"box {e} component {comp}: {got} {side}, expected {want}")
    return report


def is_mda_well_typed_oracle(c: ExtendedCospan) -> list[str]:
    report: list[str] = []
    g = c.carrier
    if not is_acyclic(g):
        report.append("carrier has a directed cycle")
    if len(set(c.int_in)) != len(c.int_in):
        report.append("input internal interface not injective")
    if len(set(c.int_out)) != len(c.int_out):
        report.append("output internal interface not injective")
    ins, outs = set(c.int_in), set(c.int_out)
    for v, (ind, outd) in degrees_oracle(g).items():
        if ind > 1 or outd > 1:
            report.append(f"vertex {v}: degree above 1 (in={ind}, out={outd})")
        if (ind == 0) != (v in ins):
            report.append(f"vertex {v}: in-degree-0 iff input-slot violated")
        if (outd == 0) != (v in outs):
            report.append(f"vertex {v}: out-degree-0 iff output-slot violated")
    report.extend(box_typing_oracle(c))
    return report


def graph_to_doc(g: EHypergraph) -> dict[str, Any]:
    parents = []
    for v in g.vertices:
        if v in g.vparent:
            parents.append(
                {"child": f"v{v}", "parent": g.vparent[v], "component": g.vcomp[v]}
            )
    for e in g.edges:
        if e in g.eparent:
            parents.append(
                {"child": f"e{e}", "parent": g.eparent[e], "component": g.ecomp[e]}
            )
    return {
        "vertices": list(g.vertices),
        "edges": [
            {
                "id": e,
                "label": HIERARCHICAL if g.label[e] is None else g.label[e],
                "sources": list(g.source[e]),
                "targets": list(g.target[e]),
            }
            for e in g.edges
        ],
        "parents": parents,
    }


def cospan_to_doc(c: ExtendedCospan) -> dict[str, Any]:
    doc = graph_to_doc(c.carrier)
    doc["int_in"] = list(c.int_in)
    doc["int_out"] = list(c.int_out)
    doc["ext_in"] = list(c.ext_in)
    doc["ext_out"] = list(c.ext_out)
    return doc


def canonical_renumber(c: ExtendedCospan) -> ExtendedCospan:
    """Rebuild with vertex/edge ids 0..n-1 in allocation order."""
    ng = EHypergraph()
    vmap, _ = copy_into(ng, c.carrier)
    return ExtendedCospan(
        ng,
        tuple(vmap[v] for v in c.int_in),
        tuple(vmap[v] for v in c.int_out),
        tuple(c.ext_in),
        tuple(c.ext_out),
    )


def egraph_to_doc(eg: EGraph) -> dict[str, Any]:
    return {
        "classes": [
            {
                "id": c,
                "nodes": [
                    {"head": n.head, "children": list(n.children)}
                    for n in eg.nodes(c)
                ],
            }
            for c in eg.class_ids()
        ]
    }


def dumps_cospan_oracle(c: ExtendedCospan) -> str:
    return json.dumps(cospan_to_doc(canonical_renumber(c)), indent=2) + "\n"


def dumps_egraph_oracle(eg: EGraph) -> str:
    return json.dumps(egraph_to_doc(eg), indent=2) + "\n"


def egraph_invariants_oracle(doc: dict[str, Any]) -> list[str]:
    """The e-graph of a well-formed class document, built without checks,
    then ``check_invariants`` over all of it."""
    eg = EGraph()
    for cd in doc["classes"]:
        cid = int(cd["id"])
        if cid in eg.classes:
            raise SerializationError(f"duplicate class id {cid}")
        eg._uf[cid] = cid
        eg.classes[cid] = set()
    for cd in doc["classes"]:
        cid = int(cd["id"])
        for nd in cd["nodes"]:
            n = ENode(str(nd["head"]), tuple(int(x) for x in nd["children"]))
            eg.classes[cid].add(n)
            eg.hashcons[n] = cid
    return eg.check_invariants()


# ---------------------------------------------------------------------------
# DPO steps, homomorphisms and pushout preconditions, checked whole-graph
# ---------------------------------------------------------------------------


def _complement_cospan(comp: Complement) -> ExtendedCospan:
    """The hole as a cospan; its glue slots are external at the top level."""
    int_in, int_out = comp.kept_int_in + comp.in_glue, comp.kept_int_out + comp.out_glue
    ext_in, ext_out = comp.host_ext()
    if comp.top_level:
        ext_in += tuple(range(len(comp.kept_int_in), len(int_in)))
        ext_out += tuple(range(len(comp.kept_int_out), len(int_out)))
    return ExtendedCospan(comp.graph, int_in, int_out, ext_in, ext_out)


def boundary_complement_oracle(m: Match) -> Complement:
    """``boundary_complement`` with the complement checked by the full
    ``validate_cospan`` and ``is_mda_well_typed`` (conditions 6 and 7)."""
    hg = m.host.carrier
    gi, go = _glue_vertices(m)
    points = gi + go
    if len(set(points)) != len(points):
        raise NoComplement(2, "external input and output images overlap")
    if not _interface_images_admissible(hg, points):
        raise NoComplement(3, "interface images not uniformly placed")
    removed_v = set(m.hom.vmap.values()) - set(points)
    removed_e = set(m.hom.emap.values())
    for e in hg.edges:
        if e in removed_e:
            continue
        if any(v in removed_v for v in hg.endpoints(e)):
            raise NoComplement(1, f"edge {e} would dangle")
    for v in points:
        if hg.vparent.get(v) in removed_e:
            raise NoComplement(1, f"glue vertex {v} would lose its box")
    comp = _hole(m.host, removed_v, removed_e, go, gi)
    vset = set(comp.graph.vertices)
    for v in m.host.ext_in_vertices() + m.host.ext_out_vertices():
        if v not in vset:
            raise NoComplement(5, "host external interface was removed")
    cospan = _complement_cospan(comp)
    report = cs.validate_cospan(cospan) + cs.is_mda_well_typed(cospan)
    if comp.top_level:
        if report:
            raise NoComplement(6, report[0])
    else:
        report = [r for r in report if not r.startswith("box ")]
        report = [r for r in report if "single-component box" not in r]
        if report:
            raise NoComplement(7, report[0])
    return comp


def glue_oracle(comp: Complement, rhs: ExtendedCospan) -> ExtendedCospan:
    """``rewrite._glue`` with the result checked by the full
    ``validate_cospan`` and ``is_mda_well_typed``."""
    try:
        po = cs.glue(comp.graph, comp.out_glue + comp.in_glue,
                     rhs.carrier, rhs.ext_in_vertices() + rhs.ext_out_vertices())
    except PushoutPreconditionError as exc:
        raise RewriteInternalError(f"insertion pushout failed: {exc}") from exc
    inj_c, inj_r = po.inj_left.vmap, po.inj_right.vmap
    int_in = tuple(inj_c[v] for v in comp.kept_int_in) + tuple(
        inj_r[rhs.int_in[p]] for p in rhs.strict_in_positions()
    )
    int_out = tuple(inj_c[v] for v in comp.kept_int_out) + tuple(
        inj_r[rhs.int_out[p]] for p in rhs.strict_out_positions()
    )
    result = ExtendedCospan(po.obj, int_in, int_out, *comp.host_ext())
    report = cs.validate_cospan(result) + cs.is_mda_well_typed(result)
    if report:
        raise RewriteInternalError(f"rewrite produced ill-formed cospan: {report[0]}")
    return result


def apply_oracle(m: Match) -> ExtendedCospan:
    """``apply`` with both full checks."""
    return glue_oracle(boundary_complement_oracle(m), m.rule.rhs)


def choose_oracle(c: ExtendedCospan, box: int, k: int) -> ExtendedCospan:
    """``choose`` with the result checked whole-graph."""
    g = c.carrier
    removed = down_closure(g, [box]) - {("v", v) for v in g.endpoints(box)}
    hole = _hole(c, {i for kind, i in removed if kind == "v"},
                 {i for kind, i in removed if kind == "e"}, g.target[box], g.source[box])
    return glue_oracle(hole, component_cospan(c, box, k))


def violations_oracle(h: EHomomorphism) -> list[str]:
    """``EHomomorphism.violations`` through the element accessors."""
    report: list[str] = []
    cod_vs = set(h.cod.vertices)
    cod_es = set(h.cod.edges)
    for v in h.dom.vertices:
        if v not in h.vmap:
            report.append(f"vertex {v} unmapped")
        elif h.vmap[v] not in cod_vs:
            report.append(f"vertex {v} maps outside codomain")
    for e in h.dom.edges:
        if e not in h.emap:
            report.append(f"edge {e} unmapped")
            continue
        img = h.emap[e]
        if img not in cod_es:
            report.append(f"edge {e} maps outside codomain")
            continue
        if h.dom.label[e] != h.cod.label[img]:
            report.append(f"edge {e}: label not preserved")
        try:
            src = tuple(h.vmap[v] for v in h.dom.source[e])
            tgt = tuple(h.vmap[v] for v in h.dom.target[e])
        except KeyError:
            continue
        if src != h.cod.source[img] or tgt != h.cod.target[img]:
            report.append(f"edge {e}: sources/targets not preserved")
    if report:
        return report
    for elem in h.dom.elements():
        p = h.dom.parent_of(elem)
        if p is None:
            continue
        img_parent = h.cod.parent_of(h.apply(elem))
        if img_parent != h.emap.get(p):
            report.append(f"{elem}: immediate parent not preserved")
    groups: dict[tuple[int, int], list[Element]] = {}
    for elem in h.dom.elements():
        p, c = h.dom.placement(elem)
        if p is not None and c is not None:
            groups.setdefault((p, c), []).append(elem)
    for key, members in groups.items():
        placements = {h.cod.placement(h.apply(x)) for x in members}
        if len(placements) > 1 or (None, None) in placements:
            report.append(f"consistency group {key}: not preserved")
    return report


def pushout_preconditions_oracle(left: EHomomorphism, right: EHomomorphism) -> list[int]:
    """``check_pushout_preconditions`` from ancestor chains and placement sets."""
    violated: list[int] = []
    z = left.dom
    if z.edges:
        violated.append(1)
    x, y = left.cod, right.cod
    anc_f = {frozenset(x.ancestors(("v", left.vmap[v]))) for v in z.vertices}
    anc_g = {frozenset(y.ancestors(("v", right.vmap[v]))) for v in z.vertices}
    if len(anc_f) > 1 or len(anc_g) > 1:
        violated.append(2)
    for v in z.vertices:
        if x.vparent.get(left.vmap[v]) is not None and y.vparent.get(
            right.vmap[v]
        ) is not None:
            violated.append(3)
            break
    place_f = {x.placement(("v", left.vmap[v])) for v in z.vertices}
    place_g = {y.placement(("v", right.vmap[v])) for v in z.vertices}
    if len(place_f) > 1 or len(place_g) > 1:
        violated.append(4)
    return violated
