"""Property-based tests of the algebraic laws, driven by seeded random terms."""

import copy
import itertools
import json
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from megraph.core import (
    EHomomorphism,
    EHypergraph,
    _feeds,
    _is_convex,
    copy_into,
    degrees,
    down_closure,
    is_convex,
)
from megraph.cospan import (
    ExtendedCospan,
    canonical,
    certificate,
    check_pushout_preconditions,
    compose,
    identity_cospan,
    is_mda_well_typed,
    iso,
    join,
    join_raw,
    symmetry_cospan,
    tensor,
    validate_cospan,
)
from megraph.egraph import EGraph, EGraphError, ENode, replay, translate
from megraph.engine import (
    CostModel,
    Strategy,
    _carried,
    _strict_slots,
    _top_box,
    components,
    normalize,
    prune,
    saturate,
    term_of,
)
from megraph.rewrite import (
    Match,
    NoComplement,
    RewriteInternalError,
    RewriteRule,
    RuleError,
    _flatten_instance,
    _glue_vertices,
    _host_ordered,
    _interface_images_admissible,
    apply,
    boundary_complement,
    choose,
    edge_cospan,
    extract_subdiagram,
    find_matches,
    monomorphisms,
    rule_from_terms,
    structural_matches,
)
from megraph.serialize import (
    SerializationError,
    dumps_cospan,
    dumps_egraph,
    loads_cospan,
    loads_egraph,
)
from megraph.term import (
    Comp, Gen, Id, Join, Sym, Tensor, interpret, parse, parse_signature, print_term,
)

from .helpers import (
    BASIC,
    expand,
    identity_hom,
    interp,
    random_term,
    same_alternatives,
    then,
)
from .oracles import (
    all_homs,
    apply_oracle,
    choose_oracle,
    components_oracle,
    degrees_oracle,
    dumps_cospan_oracle,
    dumps_egraph_oracle,
    egraph_invariants_oracle,
    flatten_rhs_oracle,
    induced,
    is_mda_well_typed_oracle,
    iso_oracle,
    prune_oracle,
    pushout_preconditions_oracle,
    saturate_oracle,
    saturate_worklist_oracle,
    validate_cospan_oracle,
    violations_oracle,
)
from .test_cli import fuzz_documents

seeds = st.integers(min_value=0, max_value=10**9)
widths = st.integers(min_value=1, max_value=3)

FAST = settings(max_examples=25, deadline=None)


def rnd_cospan(seed, dom=1, cod=1, size=3):
    rng = random.Random(seed)
    return interpret(random_term(rng, dom, cod, size=size), BASIC)


class TestDownClosure:
    @given(seeds)
    @FAST
    def test_idempotent(self, seed):
        g = rnd_cospan(seed).carrier
        closed = down_closure(g, g.edges)
        again = down_closure(g, [i for k, i in closed if k == "e"])
        assert again == closed

    @given(seeds, seeds)
    @FAST
    def test_monotone(self, seed, pick):
        g = rnd_cospan(seed).carrier
        if not g.edges:
            return
        some = [e for e in g.edges if e % 2 == pick % 2] or g.edges[:1]
        assert down_closure(g, some) <= down_closure(g, g.edges)


class TestIsoIsAnEquivalence:
    @given(seeds)
    @FAST
    def test_reflexive(self, seed):
        c = rnd_cospan(seed)
        assert iso(c, c) is not None

    @given(seeds)
    @FAST
    def test_symmetric(self, seed):
        rng = random.Random(seed)
        a = interpret(random_term(rng, 1, 1, size=2), BASIC)
        b = interpret(random_term(rng, 1, 1, size=2), BASIC)
        assert (iso(a, b) is None) == (iso(b, a) is None)

    @given(seeds)
    @FAST
    def test_transitive_on_reassociated_copies(self, seed):
        rng = random.Random(seed)
        x = interpret(random_term(rng, 1, 1, size=2), BASIC)
        y = interpret(random_term(rng, 1, 1, size=2), BASIC)
        z = interpret(random_term(rng, 1, 1, size=2), BASIC)
        ab = compose(compose(x, y), z)
        bc = compose(x, compose(y, z))
        assert iso(ab, bc) is not None


class TestCategoryLaws:
    @given(seeds)
    @FAST
    def test_composition_units(self, seed):
        c = rnd_cospan(seed)
        assert iso(compose(identity_cospan(c.arity), c), c) is not None
        assert iso(compose(c, identity_cospan(c.coarity)), c) is not None

    @given(seeds)
    @FAST
    def test_interchange(self, seed):
        rng = random.Random(seed)
        a = interpret(random_term(rng, 1, 1, size=2), BASIC)
        b = interpret(random_term(rng, 1, 1, size=2), BASIC)
        c = interpret(random_term(rng, 1, 1, size=2), BASIC)
        d = interpret(random_term(rng, 1, 1, size=2), BASIC)
        lhs = compose(tensor(a, b), tensor(c, d))
        rhs = tensor(compose(a, c), compose(b, d))
        assert iso(lhs, rhs) is not None

    @given(seeds, widths, widths)
    @FAST
    def test_symmetry_is_involutive(self, seed, n, m):
        both = compose(symmetry_cospan(n, m), symmetry_cospan(m, n))
        assert iso(both, identity_cospan(n + m)) is not None

    @given(seeds)
    @FAST
    def test_symmetry_naturality(self, seed):
        rng = random.Random(seed)
        f = interpret(random_term(rng, 1, 1, size=2), BASIC)
        g = interpret(random_term(rng, 1, 1, size=2), BASIC)
        lhs = compose(tensor(f, g), symmetry_cospan(1, 1))
        rhs = compose(symmetry_cospan(1, 1), tensor(g, f))
        assert iso(lhs, rhs) is not None


class TestMdaClosure:
    @given(seeds)
    @FAST
    def test_compose_tensor_join_stay_well_typed(self, seed):
        rng = random.Random(seed)
        a = interpret(random_term(rng, 1, 1, size=2), BASIC)
        b = interpret(random_term(rng, 1, 1, size=2), BASIC)
        assert is_mda_well_typed(compose(a, b)) == []
        assert is_mda_well_typed(tensor(a, b)) == []
        assert is_mda_well_typed(join([a, b])) == []

    @given(seeds)
    @FAST
    def test_join_commutes_up_to_iso(self, seed):
        rng = random.Random(seed)
        a = interpret(random_term(rng, 1, 1, size=2), BASIC)
        b = interpret(random_term(rng, 1, 1, size=2), BASIC)
        assert iso(join([a, b]), join([b, a])) is not None


class TestHomomorphisms:
    @given(seeds)
    @FAST
    def test_identity_composition_is_identity(self, seed):
        g = rnd_cospan(seed).carrier
        h = then(identity_hom(g), identity_hom(g))
        assert h.violations() == []
        assert h.vmap == {v: v for v in g.vertices}


# ---------------------------------------------------------------------------
# The shared matcher against the brute-force homomorphism oracle
# ---------------------------------------------------------------------------

MATCHING = settings(max_examples=200, deadline=None)


def random_diagram(rng, max_elements=18):
    """A small random 1 -> 1 or 2 -> 2 diagram, often with alternative boxes:
    nested ones, two in a row, boxes with equal alternatives, boxes beside a
    bare wire."""
    while True:
        n = rng.choice([1, 1, 2])

        def piece(size=1):
            return interpret(random_term(rng, n, n, size=size), BASIC)

        def box(inner=None):
            first = inner or piece(rng.randint(1, 2))
            second = first.copy() if rng.random() < 0.3 else piece()
            return join_raw([first, second])

        shape = rng.randrange(5)
        if shape == 0:
            c = piece(rng.randint(1, 4))
        elif shape == 1:
            c = box()
        elif shape == 2:
            c = box(inner=box())
        elif shape == 3:
            c = compose(piece(), box()) if rng.random() < 0.5 else compose(box(), piece())
        else:
            b = box()
            c = compose(b, b.copy() if rng.random() < 0.5 else box())
        if n == 1 and rng.random() < 0.3:
            c = tensor(c, identity_cospan(1) if rng.random() < 0.5 else piece())
        g = c.carrier
        if len(g.vertices) + len(g.edges) <= max_elements:
            return c


def shuffled_copy(g, rng):
    """An isomorphic copy of ``g`` whose vertices and edges are allocated in a
    random order and whose component indices are permuted per box, so the
    isomorphism between the two is not the identity; returns the copy and
    its vertex map."""
    vs, es = list(g.vertices), list(g.edges)
    rng.shuffle(vs)
    rng.shuffle(es)
    h = EHypergraph()
    vmap = {v: h.add_vertex() for v in vs}
    emap = {
        e: h.add_edge(g.label[e], [vmap[v] for v in g.source[e]],
                      [vmap[v] for v in g.target[e]])
        for e in es
    }
    perm = {}
    for box in g.edges:
        ks = list(g.alternatives(box))
        perm[box] = dict(zip(ks, rng.sample(ks, len(ks))))
    for v, p in g.vparent.items():
        h.vparent[vmap[v]], h.vcomp[vmap[v]] = emap[p], perm[p][g.vcomp[v]]
    for e, p in g.eparent.items():
        h.eparent[emap[e]], h.ecomp[emap[e]] = emap[p], perm[p][g.ecomp[e]]
    return h, vmap


def as_key(vmap, emap):
    return tuple(sorted(vmap.items())), tuple(sorted(emap.items()))


def is_iso(h):
    """Bijective, and the inverse map is a homomorphism too."""
    if not h.is_mono():
        return False
    if len(h.vmap) != len(h.cod.vertices) or len(h.emap) != len(h.cod.edges):
        return False
    inv = EHomomorphism(
        dom=h.cod, cod=h.dom,
        vmap={w: v for v, w in h.vmap.items()},
        emap={d: e for e, d in h.emap.items()},
    )
    return not inv.violations()


def split_box(rng, n, context=False):
    """A box of two ``n -> n`` alternatives over f and g: the first a bare
    wire, two pieces side by side or one piece, the second a piece.  So one
    component of a pattern box can meet its material spread over several
    host components, and a bare wire is a nested vertex that no edge
    reaches.  With ``context``, a third alternative, and a piece or a second
    such box before or after the box."""
    unary = [Gen("f"), Gen("g")]

    def piece():
        return rng.choice(unary) if n == 1 else Tensor(rng.choice(unary), rng.choice(unary))

    first = [Id(n), piece()]
    first += [Tensor(rng.choice(unary), Id(1)), Tensor(Id(1), rng.choice(unary))] \
        if n == 2 else [Comp(rng.choice(unary), rng.choice(unary))]
    alternatives = [rng.choice(first), piece()]
    if context:
        alternatives.append(rng.choice(first))
    c = join_raw([interpret(t, BASIC) for t in alternatives])
    if context:
        other = split_box(rng, n) if rng.random() < 0.5 else interpret(piece(), BASIC)
        c = compose(c, other) if rng.random() < 0.5 else compose(other, c)
    return c


class TestMatcherAgainstOracle:
    @given(seeds)
    @MATCHING
    def test_monomorphisms_are_the_injective_homomorphisms(self, seed):
        rng = random.Random(seed)
        if rng.random() < 0.5:
            host = random_diagram(rng).carrier
            pat = random_diagram(rng, max_elements=7).carrier
        else:
            n = rng.choice([1, 2])
            host = split_box(rng, n, context=True).carrier
            pat = split_box(rng, n).carrier
        found = [as_key(h.vmap, h.emap) for h in monomorphisms(pat, host)]
        expected = {as_key(h.vmap, h.emap) for h in all_homs(pat, host) if h.is_mono()}
        assert len(found) == len(set(found))
        assert set(found) == expected


# ---------------------------------------------------------------------------
# Certificates and iso against the brute-force isomorphism oracle
# ---------------------------------------------------------------------------


def closed_piece(rng):
    """``a : 0 -> 1 ; d : 1 -> 0``, with up to two unary generators between,
    built by hand: terms of type ``0 -> 0`` are rejected."""
    g = EHypergraph()
    v = g.add_vertex()
    g.add_edge("a", [], [v])
    for _ in range(rng.randint(0, 2)):
        w = g.add_vertex()
        g.add_edge(rng.choice("fg"), [v], [w])
        v = w
    g.add_edge("d", [v], [])
    return ExtendedCospan(g, (), (), (), ())


def iso_diagram(rng):
    """A random diagram, sometimes beside closed pieces, with one inside an
    alternative, or beside two bare wires, crossed or not."""
    c = random_diagram(rng, max_elements=14)
    shape = rng.randrange(4)
    if shape == 1:
        for _ in range(rng.randint(1, 2)):
            piece = closed_piece(rng)
            c = tensor(c, piece) if rng.random() < 0.5 else tensor(piece, c)
    elif shape == 2:
        other = c.copy() if rng.random() < 0.5 else random_diagram(rng, max_elements=6)
        if (other.arity, other.coarity) == (c.arity, c.coarity):
            c = join_raw([tensor(c, closed_piece(rng)), other])
    elif shape == 3:
        c = tensor(c, rng.choice([identity_cospan(2), symmetry_cospan(1, 1)]))
    return c


def shuffled_cospan(c, rng, tweak=False, renumber=True):
    """An isomorphic copy of ``c`` (see ``shuffled_copy``) whose slots are
    interleaved anew, keeping the external order and the order within each
    block of strict slots.  With ``tweak``, two slots of one block or two
    external slots then trade places, which may break the isomorphism.
    Without ``renumber``, the copy keeps ``c``'s carrier and only its slots
    are listed anew."""
    if renumber:
        h, vmap = shuffled_copy(c.carrier, rng)
    else:
        h, vmap = c.carrier.copy(), {v: v for v in c.carrier.vertices}
    sides = []
    for slots, ext in ((c.int_in, c.ext_in), (c.int_out, c.ext_out)):
        block_of = [("ext", ext.index(p)) if p in ext else c.carrier.placement(("v", v))
                    for p, v in enumerate(slots)]
        queues = {k: [p for p, b in enumerate(block_of) if b == k] for k in block_of}
        order = rng.sample(block_of, len(block_of))
        new_slots = [vmap[slots[queues[k].pop(0)]] for k in order]
        new_ext = [order.index(("ext", i)) for i in range(len(ext))]
        blocks = [[i for i, k in enumerate(order) if k == b] for b in dict.fromkeys(order)]
        swaps = [(new_slots, b) for b in blocks if len(b) > 1]
        if len(ext) > 1:
            swaps.append((new_ext, range(len(ext))))
        if tweak and swaps:
            seq, among = rng.choice(swaps)
            i, j = rng.sample(list(among), 2)
            seq[i], seq[j] = seq[j], seq[i]
        sides.append((tuple(new_slots), tuple(new_ext)))
    (int_in, ext_in), (int_out, ext_out) = sides
    return ExtendedCospan(h, int_in, int_out, ext_in, ext_out)


class TestIsoAgainstOracle:
    @given(seeds)
    @MATCHING
    def test_certificate_iso_and_the_oracle_agree(self, seed):
        rng = random.Random(seed)
        a = iso_diagram(rng)
        r = rng.random()
        b = iso_diagram(rng) if r < 0.2 else shuffled_cospan(a, rng, tweak=r > 0.7)
        w = iso(a, b)
        assert (certificate(a) == certificate(b)) == (w is not None) == iso_oracle(a, b)
        # Forms computed by the caller give the same answer and witness.
        form_a, form_b = canonical(a), canonical(b)
        for given_a, given_b in ((form_a, form_b), (form_a, None), (None, form_b)):
            v = iso(a, b, given_a, given_b)
            assert (v is None) == (w is None)
            if v is not None:
                assert (v.alpha.vmap, v.alpha.emap, v.beta, v.gamma) == \
                    (w.alpha.vmap, w.alpha.emap, w.beta, w.gamma)
        if w is None:
            return
        assert not w.alpha.violations() and is_iso(w.alpha)
        for m, sa, sb, ea, eb in ((w.beta, a.int_in, b.int_in, a.ext_in, b.ext_in),
                                  (w.gamma, a.int_out, b.int_out, a.ext_out, b.ext_out)):
            assert sorted(m) == list(range(len(sb)))
            assert all(w.alpha.vmap[sa[p]] == sb[q] for p, q in enumerate(m))
            assert [m[p] for p in ea] == list(eb)


def pulled_back(h, vmap, emap):
    """The edges and placements of the elements of ``h`` that ``vmap`` and
    ``emap`` hit, written in the ids those maps map from; a box of ``h``
    outside their image reads as "outside"."""
    vback = {w: v for v, w in vmap.items()}
    eback = {d: e for e, d in emap.items()}
    edges = {
        eback[d]: (h.label[d], [vback[w] for w in h.source[d]],
                   [vback[w] for w in h.target[d]])
        for d in emap.values()
    }
    places = {}
    for kind, i in h.elements():
        back = vback if kind == "v" else eback
        if i in back:
            p, c = h.placement((kind, i))
            places[kind, back[i]] = (None if p is None else eback.get(p, "outside"), c)
    return edges, places


class TestGraphViews:
    @given(seeds)
    @MATCHING
    def test_copy_into_agrees_with_the_induced_subgraph(self, seed):
        rng = random.Random(seed)
        g = random_diagram(rng).carrier
        keep = down_closure(g, [e for e in g.edges if rng.random() < 0.5])
        keep |= {("v", v) for v in g.vertices if rng.random() < 0.2}
        # The oracle on ``g`` with the kept elements whose box is not kept
        # moved to top level.
        flat = copy.deepcopy(g)
        for kind, i in keep:
            parents, comps = (flat.vparent, flat.vcomp) if kind == "v" else (flat.eparent, flat.ecomp)
            if ("e", parents.get(i)) not in keep:
                parents.pop(i, None)
                comps.pop(i, None)
        sub, sub_vmap, sub_emap = induced(flat, keep)
        assert sub is not None
        dst = EHypergraph()
        outer = dst.add_edge(None, [], []) if rng.random() < 0.5 else None
        comp = None if outer is None else rng.randint(0, 2)
        vmap, emap = copy_into(dst, g, keep=keep, parent=outer, component=comp)
        assert (set(vmap), set(emap)) == (set(sub_vmap), set(sub_emap))
        want_edges, want_places = pulled_back(sub, sub_vmap, sub_emap)
        got_edges, got_places = pulled_back(dst, vmap, emap)
        assert got_edges == want_edges
        top = (None, None) if outer is None else ("outside", comp)
        assert got_places == {
            el: top if place == (None, None) else place for el, place in want_places.items()
        }

    @given(seeds)
    @MATCHING
    def test_alternatives_partition_the_children(self, seed):
        rng = random.Random(seed)
        g, _ = shuffled_copy(random_diagram(rng).carrier, rng)  # components out of order
        for box in g.edges:
            children = g.children(box)
            alts = g.alternatives(box)
            assert list(alts) == sorted({g.component_of(el) for el in children})
            assert sorted(el for members in alts.values() for el in members) == sorted(children)
            for comp, members in alts.items():
                assert all(g.placement(el) == (box, comp) for el in members)


class TestConvexityByOneForwardReach:
    @given(seeds)
    @MATCHING
    def test_agrees_with_the_two_sided_closure(self, seed):
        rng = random.Random(seed)
        g = random_diagram(rng).carrier
        feeds = _feeds(g)
        subs = []
        for _ in range(4):
            sub = down_closure(g, [e for e in g.edges if rng.random() < 0.4])
            subs.append(sub | {("v", v) for v in g.vertices if rng.random() < 0.1})
        n = rng.choice([1, 2])
        pat = interpret(random_term(rng, n, n, size=rng.randint(1, 2)), BASIC).carrier
        subs += [h.image() for h in monomorphisms(pat, g)]
        for sub in subs:
            assert _is_convex(g, sub, feeds) == is_convex(g, sub)


def random_matches(seed):
    """The matches of a random rule and of the structural rules in a random
    diagram."""
    rng = random.Random(seed)
    host = random_diagram(rng)
    n = rng.choice([1, 2])
    lhs = interpret(random_term(rng, n, n, size=rng.randint(1, 2)), BASIC)
    rhs = interpret(random_term(rng, n, n, size=rng.randint(1, 2)), BASIC)
    rule = RewriteRule("r", lhs, rhs)
    return find_matches(rule, host) + [m for _, m in structural_matches(host)]


class TestEveryMatchApplies:
    @given(seeds)
    @MATCHING
    def test_find_matches_and_structural_matches_apply(self, seed):
        for m in random_matches(seed):
            result = apply(m)
            assert validate_cospan(result) == []
            assert is_mda_well_typed(result) == []

    @given(seeds)
    @MATCHING
    def test_glue_vertices_keep_their_placement_in_the_complement(self, seed):
        # Why boundary_complement makes no check of its own (condition 4)
        # on the complement's glue vertices.
        for m in random_matches(seed):
            try:
                boundary_complement(m)
            except NoComplement as exc:
                if exc.condition in (1, 2, 3):
                    continue
            gi, go = _glue_vertices(m)
            points = gi + go
            rest = m.host.carrier.without(set(m.hom.vmap.values()) - set(points),
                                          set(m.hom.emap.values()))
            assert _interface_images_admissible(rest, points)


# ---------------------------------------------------------------------------
# Worklist saturation against the restart-after-every-addition oracle
# ---------------------------------------------------------------------------

SATURATION = settings(max_examples=100, deadline=None)


def random_host(rng, n):
    """A random n -> n diagram, sometimes two or three joined alternatives."""
    parts = [interpret(random_term(rng, n, n, size=rng.randint(1, 3)), BASIC)
             for _ in range(rng.choice([1, 1, 2, 3]))]
    return join_raw(parts)


def random_rules(rng, n, boxed):
    """One or two random n -> n rules; with ``boxed``, each side may be two
    joined alternatives, alone or after a random prefix."""

    def side():
        t = interpret(random_term(rng, n, n, size=rng.randint(1, 2)), BASIC)
        if not boxed or rng.random() < 0.4:
            return t
        box = join_raw([t, interpret(random_term(rng, n, n, size=1), BASIC)])
        if rng.random() < 0.5:
            return box
        return compose(interpret(random_term(rng, n, n, size=1), BASIC), box)

    return [RewriteRule(f"r{i}", side(), side()) for i in range(rng.choice([1, 2]))]


class TestSaturateAgainstOracle:
    @given(seeds)
    @SATURATION
    def test_box_free_rules_agree_with_the_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.choice([1, 1, 2])
        host = random_host(rng, n)
        s = Strategy(rules=random_rules(rng, n, boxed=False), max_steps=8,
                     bidirectional=rng.random() < 0.5)
        expected = saturate_oracle(host, s)
        if not expected.saturated or expected.steps >= 8:
            return
        got = saturate(host, s)
        assert got.saturated
        assert got.steps == expected.steps
        assert iso(got.result, expected.result) is not None

    @given(seeds)
    @SATURATION
    def test_rules_with_boxes_reach_a_fixpoint(self, seed):
        rng = random.Random(seed)
        n = rng.choice([1, 1, 2])
        host = random_host(rng, n)
        s = Strategy(rules=random_rules(rng, n, boxed=True), max_steps=8,
                     bidirectional=rng.random() < 0.5)
        res = saturate(host, s)
        if not res.saturated:
            return
        alts = []
        for p in components(res.result):
            if all(iso(p, q) is None for q in alts):
                alts.append(p)

        def stored(m):
            return all(any(iso(p, q) is not None for q in alts)
                       for p in components(apply(m)))

        rules = s.rules + [r.reversed() for r in s.rules if s.bidirectional]
        for rule in rules:
            for alt in alts:
                assert all(stored(m) for m in find_matches(rule, alt))
            if len(alts) > 1:
                joined = join_raw(alts)
                top = _top_box(joined)
                assert all(stored(m) for m in find_matches(rule, joined)
                           if top in m.hom.emap.values())

    @given(seeds)
    @SATURATION
    def test_skipping_the_step_back_to_the_host_changes_nothing(self, seed):
        rng = random.Random(seed)
        if rng.random() < 0.5:
            host = random_diagram(rng)
        else:
            host = random_host(rng, rng.choice([1, 1, 2]))
        s = Strategy(rules=random_rules(rng, host.arity, boxed=rng.random() < 0.5),
                     max_steps=rng.randint(0, 8), bidirectional=rng.random() < 0.75)
        assert saturation_outcome(saturate, host, s) == \
            saturation_outcome(saturate_worklist_oracle, host, s)

    @given(seeds)
    @settings(max_examples=300, deadline=None)
    def test_skipping_commuting_steps_changes_nothing(self, seed):
        host, s = commuting_case(random.Random(seed))
        assert saturation_outcome(saturate, host, s) == \
            saturation_outcome(saturate_worklist_oracle, host, s)


COMMUTING = parse_signature("a: 1 -> 1\nb: 1 -> 1\nc: 1 -> 1\nm: 2 -> 1\nd: 1 -> 2\n")
COMMUTING_RULES = [
    ("a ; b", "b ; a"), ("b ; c", "c ; b"), ("a ; c", "c ; a"),  # swaps
    ("a ; a", "a"), ("b ; c", "a"),  # contractions
    ("a", "a ; b"), ("c", "b ; b"),  # expansions
    ("a * c", "m ; d"),  # joins two strands
    ("b", "id:1"),  # deletes, with a bare wire on the right
]


def commuting_case(rng):
    """A host and a strategy under which many steps commute: one word or two
    or three parallel ones over a, b and c, sometimes with a box before or
    after one of them, and one to three rules of ``COMMUTING_RULES``."""
    words = [" ; ".join(rng.choices("abc", k=rng.randint(1, 4)))
             for _ in range(rng.choice([1, 2, 2, 3, 3]))]
    if rng.random() < 0.3:
        i = rng.randrange(len(words))
        box = f"({rng.choice('abc')} + {rng.choice('abc')})"
        words[i] = f"{box} ; {words[i]}" if rng.random() < 0.5 else f"{words[i]} ; {box}"
    host = interpret(parse(" * ".join(f"({w})" for w in words)), COMMUTING)
    rules = [rule_from_terms(f"r{k}", parse(lhs), parse(rhs), COMMUTING)
             for k, (lhs, rhs) in enumerate(rng.sample(COMMUTING_RULES, rng.randint(1, 3)))]
    return host, Strategy(rules=rules, max_steps=rng.randint(4, 30),
                          bidirectional=rng.random() < 0.75)


class TestReversedRule:
    @given(seeds)
    @FAST
    def test_reversed_is_the_checked_rule_with_its_sides_swapped(self, seed):
        rng = random.Random(seed)
        for rule in random_rules(rng, rng.choice([1, 2]), boxed=rng.random() < 0.5):
            rev = rule.reversed()
            checked = RewriteRule(rev.name, rule.rhs, rule.lhs)
            assert type(rev) is RewriteRule and vars(rev).keys() == vars(checked).keys()
            assert all(getattr(rev, f) is getattr(checked, f) for f in ("lhs", "rhs"))
            assert rev.name == checked.name == f"{rule.name}~rev"
            twice = rev.reversed()
            assert twice.lhs is rule.lhs and twice.rhs is rule.rhs


def saturation_outcome(f, host, s):
    """The bytes, steps and fixpoint flag of a saturation, or the type of
    what it raises."""
    res = outcome(f, host, s)
    if isinstance(res, type):
        return res
    return dumps_cospan(res.result), res.steps, res.saturated


class TestInverseStep:
    @given(seeds)
    @MATCHING
    def test_the_reversed_rule_at_the_comatch_gives_back_the_host(self, seed):
        rng = random.Random(seed)
        host = random_diagram(rng)
        g = host.carrier
        rules = random_rules(rng, host.arity, boxed=False)
        for e in rng.sample(g.edges, min(2, len(g.edges))):
            if not g.is_box(e):  # a rule that matches this edge at least
                lhs = edge_cospan(host, e)[0]
                t = random_term(rng, lhs.arity, lhs.coarity, size=rng.randint(1, 2))
                rules.append(RewriteRule("e", lhs, interpret(t, BASIC)))
        for rule in rules:
            rhs = rule.rhs
            # A left-hand side with a bare wire has no match at all.
            if _strict_slots(rule) or set(rhs.ext_in_vertices()) & set(rhs.ext_out_vertices()):
                continue
            rev = rule.reversed()
            for m in find_matches(rule, host):
                result = apply(m)
                comatch = (result.comatch.vmap, result.comatch.emap)
                back = [k for k in find_matches(rev, result)
                        if (k.hom.vmap, k.hom.emap) == comatch]
                assert len(back) == 1
                assert iso(apply(back[0]), host) is not None


def carried(m, hom):
    """The vertex and edge maps of ``m`` followed by ``hom``, or None where
    ``hom`` is undefined on ``m``'s image."""
    if not set(m.hom.vmap.values()) <= hom.vmap.keys() or \
            not set(m.hom.emap.values()) <= hom.emap.keys():
        return None
    return ({a: hom.vmap[b] for a, b in m.hom.vmap.items()},
            {a: hom.emap[b] for a, b in m.hom.emap.items()})


class TestLocalChurchRosser:
    @given(seeds)
    @MATCHING
    def test_independent_steps_commute(self, seed):
        # The theorem behind ``saturate``'s skips: when each of two steps,
        # carried through the other's context map, is a match of the
        # other's result, both orders give isomorphic results.
        rng = random.Random(seed)
        host = random_diagram(rng)
        g = host.carrier
        rules = random_rules(rng, host.arity, boxed=False)
        for e in rng.sample(g.edges, min(3, len(g.edges))):
            if not g.is_box(e):  # a rule that matches this edge at least
                lhs = edge_cospan(host, e)[0]
                rhs = random_term(rng, lhs.arity, lhs.coarity, size=rng.randint(1, 2))
                rules.append(RewriteRule("e", lhs, interpret(rhs, BASIC)))
        matches = [m for r in rules if not _strict_slots(r) for m in find_matches(r, host)]
        results = [apply(m) for m in matches]
        for (s, rs), (t, rt) in itertools.combinations(zip(matches, results), 2):
            s2, t2 = carried(s, rt.context), carried(t, rs.context)
            # ``saturate`` carries a step with ``_carried``.
            for m, hom, want in ((s, rt.context, s2), (t, rs.context, t2)):
                got = _carried((0, *as_key(m.hom.vmap, m.hom.emap)), hom.vmap, hom.emap)
                assert got == (None if want is None else (0, *as_key(*want)))
            if s2 is None or t2 is None:
                continue
            then_s = [k for k in find_matches(s.rule, rt) if (k.hom.vmap, k.hom.emap) == s2]
            then_t = [k for k in find_matches(t.rule, rs) if (k.hom.vmap, k.hom.emap) == t2]
            if then_s and then_t:
                assert certificate(apply(then_s[0])) == certificate(apply(then_t[0]))


# ---------------------------------------------------------------------------
# Normalization against syntactic expansion
# ---------------------------------------------------------------------------


def random_branching_term(rng, dom, cod, depth=2):
    """A random ``dom -> cod`` term (widths 1 and 2) over f, g, h, s, k and
    sym:1,1, with joins nested in joins and crossings directly in front of
    joins.  It has no ``id:n``, so no box sits beside a bare wire, which
    ``normalize`` leaves as it is."""
    if depth > 0 and rng.random() < 0.4:
        parts = [random_branching_term(rng, dom, cod, depth - 1)
                 for _ in range(rng.choice([2, 2, 3]))]
        t = Join(tuple(parts))
        return Comp(Sym(1, 1), t) if dom == 2 and rng.random() < 0.7 else t
    r = rng.random()
    if depth > 0 and r < 0.3:
        mid = rng.choice([1, 2])
        return Comp(random_branching_term(rng, dom, mid, depth - 1),
                    random_branching_term(rng, mid, cod, depth - 1))
    if depth > 0 and dom == cod == 2 and r < 0.6:
        return Tensor(random_branching_term(rng, 1, 1, depth - 1),
                      random_branching_term(rng, 1, 1, depth - 1))
    unary = [Gen("f"), Gen("g"), Gen("h")]
    if dom == cod == 1:
        return rng.choice(unary)
    if (dom, cod) == (1, 2):
        return Gen("s")
    if (dom, cod) == (2, 1):
        return Gen("k")
    return rng.choice([Sym(1, 1), Tensor(rng.choice(unary), rng.choice(unary))])


class TestNormalizeAgainstExpansion:
    @given(seeds)
    @settings(max_examples=200, deadline=None)
    def test_alternatives_are_the_syntactic_expansion(self, seed):
        rng = random.Random(seed)
        t = random_branching_term(rng, rng.choice([1, 2, 2]), rng.choice([1, 2]))
        expected = [print_term(u) for u in expand(t)]
        assert same_alternatives(normalize(interpret(t, BASIC)), expected, BASIC)


# ---------------------------------------------------------------------------
# Alternatives copied out of boxes against the glued ones
# ---------------------------------------------------------------------------


def certificates(parts):
    return [certificate(p) for p in parts]


def nested_boxes(g):
    """Every (outer, inner) pair of boxes with ``inner`` directly in ``outer``."""
    return [(g.eparent[e], e) for e in g.edges if g.is_box(e) and e in g.eparent]


def assert_alternatives_match_the_oracles(c):
    """``components(c)`` and every flattening right-hand side in ``c`` are
    the glued oracles' alternatives, by certificate and in order."""
    assert certificates(components(c)) == certificates(components_oracle(c))
    for outer, inner in nested_boxes(c.carrier):
        inst = _flatten_instance(c, outer, inner)
        if inst is not None:
            want = flatten_rhs_oracle(c, outer, inner)
            got = inst[1].rule.rhs
            assert certificates(components_oracle(got)) == certificates(components_oracle(want))


class TestAlternativesAgainstGluing:
    @given(seeds)
    @settings(max_examples=200, deadline=None)
    def test_copied_alternatives_are_the_glued_ones(self, seed):
        """On random nested joins with crossings in front of boxes, as built
        and as loaded documents whose slots are listed in another order, so
        that their external positions are not increasing."""
        rng = random.Random(seed)
        c = interpret(random_branching_term(rng, rng.choice([1, 2, 2]), rng.choice([1, 2])),
                      BASIC)
        if rng.random() < 0.5:
            c = loads_cospan(dumps_cospan(shuffled_cospan(c, rng, renumber=False)))
        assert_alternatives_match_the_oracles(c)

    @given(seeds)
    @settings(max_examples=200, deadline=None)
    def test_pruning_copies_what_gluing_chooses(self, seed):
        rng = random.Random(seed)
        c = interpret(random_branching_term(rng, rng.choice([1, 2, 2]), rng.choice([1, 2])),
                      BASIC)
        costs = CostModel({x: Fraction(rng.randint(0, 3)) for x in "fghksabc"})
        got, want = prune(c, costs), prune_oracle(c, costs)
        # A copied alternative lists its slots in box-port order, so the two
        # differ in bytes when a crossing is in front of the box.
        assert certificate(got) == certificate(want)
        assert print_term(term_of(got)) == print_term(term_of(want))


# ---------------------------------------------------------------------------
# One-pass checks and direct writers against the scans they replaced
# ---------------------------------------------------------------------------

CHECKS = settings(max_examples=100, deadline=None)
ODD_LABELS = ['"', "\\", "q\"uo\\te", "é", "\x01", "\x7f", "☃", "\U0001d11e", "a\nb",
              "/", "#box", "f"]


def outcome(f, *args):
    """What a call returns, or the type of what it raises."""
    try:
        return f(*args)
    except Exception as exc:  # the two sides must fail alike
        return type(exc)


def assert_checks_match_oracles(c):
    for sig in (None, BASIC):
        assert outcome(validate_cospan, c, sig) == outcome(validate_cospan_oracle, c, sig)
    g = c.carrier
    assert outcome(degrees, g) == outcome(degrees_oracle, g)
    assert outcome(is_mda_well_typed, c) == outcome(is_mda_well_typed_oracle, c)


def thinned(c, rng):
    """``c`` with some elements removed through ``EHypergraph.without``, so
    ids are no longer dense, and sometimes with its vertex and edge lists
    shuffled; only vertices that no kept edge or slot names are removed."""
    g = c.carrier
    rm_e = {e for e in g.edges if rng.random() < 0.3}
    named = {v for e in g.edges if e not in rm_e for v in g.endpoints(e)}
    named |= set(c.int_in) | set(c.int_out)
    rm_v = {v for v in g.vertices if v not in named and rng.random() < 0.5}
    h = g.without(rm_v, rm_e)
    if rng.random() < 0.3:
        rng.shuffle(h.vertices)
        rng.shuffle(h.edges)
    return ExtendedCospan(h, c.int_in, c.int_out, c.ext_in, c.ext_out)


def random_class_document(rng):
    """A well-formed e-graph document over a few heads, so that one node
    often appears in two classes."""
    ids = rng.sample(range(12), rng.randint(1, 5))
    return {"classes": [
        {"id": c, "nodes": [
            {"head": rng.choice("ab"),
             "children": [rng.choice(ids) for _ in range(rng.randint(0, 2))]}
            for _ in range(rng.randint(1, 3))
        ]}
        for c in ids
    ]}


class TestOnePassChecksAgainstOracles:
    @given(seeds)
    @CHECKS
    def test_reports_on_random_diagrams(self, seed):
        rng = random.Random(seed)
        c = random_diagram(rng)
        assert_checks_match_oracles(c)
        assert_checks_match_oracles(thinned(c, rng))

    @given(seeds)
    @CHECKS
    def test_reports_on_fuzzed_documents(self, seed):
        for text in fuzz_documents(seed, 12):
            try:
                c = loads_cospan(text)
            except SerializationError:
                continue
            assert_checks_match_oracles(c)

    @given(seeds)
    @CHECKS
    def test_dumps_cospan_is_json_dumps(self, seed):
        rng = random.Random(seed)
        for c in (random_diagram(rng), interp("a ; s"), interp("(a + b) ; f"),
                  ExtendedCospan(EHypergraph(), (), (), (), ())):
            c = thinned(c, rng) if rng.random() < 0.5 else c
            for e in c.carrier.edges:
                if c.carrier.label[e] is not None and rng.random() < 0.5:
                    c.carrier.label[e] = "".join(rng.choices(ODD_LABELS, k=rng.randint(0, 3)))
            assert dumps_cospan(c) == dumps_cospan_oracle(c)

    @given(seeds)
    @CHECKS
    def test_dumps_egraph_is_json_dumps(self, seed):
        rng = random.Random(seed)
        eg = EGraph()
        for _ in range(rng.randint(0, 8)):
            kids = rng.sample(eg.class_ids(), min(len(eg.class_ids()), rng.randint(0, 2)))
            eg.add(ENode("".join(rng.choices(ODD_LABELS, k=rng.randint(1, 2))), tuple(kids)))
        if len(eg.class_ids()) > 1 and rng.random() < 0.5:
            eg.merge(*rng.sample(eg.class_ids(), 2))
        assert dumps_egraph(eg) == dumps_egraph_oracle(eg)

    @given(seeds)
    @CHECKS
    def test_loader_rejects_what_check_invariants_rejects(self, seed):
        doc = random_class_document(random.Random(seed))
        bad = egraph_invariants_oracle(doc)
        try:
            loads_egraph(json.dumps(doc))
        except SerializationError as exc:
            message = str(exc).removeprefix("e-graph document violates invariants: ")
            assert message in bad
        else:
            assert bad == []


# ---------------------------------------------------------------------------
# Local checks of a DPO step against the whole-graph checks
# ---------------------------------------------------------------------------


def local_check_host(rng):
    """A random valid host: a random diagram, a split box in context, joined
    alternatives after a random prefix, or a crossing in front of a box."""
    n = rng.choice([1, 2])
    shape = rng.randrange(4)
    if shape == 0:
        return random_diagram(rng)
    if shape == 1:
        return split_box(rng, n, context=True)
    if shape == 2:
        return compose(interpret(random_term(rng, n, n, size=rng.randint(2, 5)), BASIC),
                       random_host(rng, n))
    return compose(symmetry_cospan(1, 1), random_host(rng, 2))


def hand_rhs(rng, n, m):
    """A right-hand side ``n -> m``: a random term, a bare wire, a crossing,
    a box, a crossing in front of a box, or a box with a bare-wire
    alternative."""
    def term():
        return interpret(random_term(rng, n, m, size=rng.randint(1, 3)), BASIC)

    shape = rng.randrange(6)
    if shape == 0 and n == m:
        return identity_cospan(n)
    if shape == 1 and n == m == 2:
        return symmetry_cospan(1, 1)
    if shape == 2:
        return join_raw([term(), term()])
    if shape == 3 and n == 2:
        return compose(symmetry_cospan(1, 1), join_raw([term(), term()]))
    if shape == 4 and n == m:
        return join_raw([identity_cospan(n), term()])
    return term()


def hand_matches(rng, host, tries=6):
    """Matches of one to three edges of one level of the host (sometimes of
    any levels) with everything nested in them, so they may be non-convex
    or lie inside a box, against a random right-hand side."""
    g = host.carrier
    levels = {}
    for e in g.edges:
        levels.setdefault(g.placement(("e", e)), []).append(e)
    out = []
    for _ in range(tries if g.edges else 0):
        pool = g.edges if rng.random() < 0.15 else levels[rng.choice(sorted(levels, key=str))]
        pick = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
        produced = {v for e in pick for v in g.target[e]}
        consumed = {v for e in pick for v in g.source[e]}
        ins = _host_ordered(host, list(consumed - produced), "in")
        outs = _host_ordered(host, list(produced - consumed), "out")
        if rng.random() < 0.2:
            rng.shuffle(ins)
        lhs, hom = extract_subdiagram(host, down_closure(g, pick), ins, outs)
        rhs = hand_rhs(rng, len(ins), len(outs))
        try:
            out.append(Match(RewriteRule("hand", lhs, rhs), hom, host))
        except RuleError:  # the picked edges span levels
            continue
    return out


def reversed_rhs(m, rng):
    """``m`` with a box-free right-hand side whose inputs and outputs swap
    places, as a rule that skipped its check would carry: ill-formed at its
    interface, so at the glue vertices of the result."""
    lhs = m.rule.lhs
    t = interpret(random_term(rng, lhs.coarity, lhs.arity, size=rng.randint(1, 2)), BASIC)
    rule = RewriteRule("reversed", lhs, lhs)
    rule.rhs = ExtendedCospan(t.carrier, t.int_out, t.int_in, t.ext_out, t.ext_in)
    return Match(rule, m.hom, m.host)


def step_outcome(f, *args):
    """The bytes of a step's result, or how it was refused."""
    try:
        return dumps_cospan(f(*args))
    except NoComplement as exc:
        return ("NoComplement", exc.condition)
    except RewriteInternalError:
        return "RewriteInternalError"


class TestLocalStepChecksAgainstFullChecks:
    @given(seeds)
    @MATCHING
    def test_apply_and_choose_agree_with_the_full_checks(self, seed):
        rng = random.Random(seed)
        host = local_check_host(rng)
        n = rng.choice([1, 2])
        rule = RewriteRule("r", interpret(random_term(rng, n, n, size=rng.randint(1, 2)), BASIC),
                           interpret(random_term(rng, n, n, size=rng.randint(1, 2)), BASIC))
        matches = find_matches(rule, host) + [m for _, m in structural_matches(host)]
        matches += hand_matches(rng, host)
        if matches and matches[-1].rule.lhs.arity and matches[-1].rule.lhs.coarity:
            matches.append(reversed_rhs(matches[-1], rng))
        for m in matches:
            assert step_outcome(apply, m) == step_outcome(apply_oracle, m)
        g = host.carrier
        for box in (e for e in g.edges if g.is_box(e)):
            for k in g.alternatives(box):
                assert step_outcome(choose, host, box, k) == \
                    step_outcome(choose_oracle, host, box, k)


# ---------------------------------------------------------------------------
# One-pass homomorphism and pushout checks against the element-wise ones
# ---------------------------------------------------------------------------


def broken_hom(rng):
    """A homomorphism between random diagrams (an isomorphism onto a
    shuffled copy, or a match), then perhaps broken: an element unmapped or
    sent outside the codomain, an edge sent to another edge, two vertex
    images swapped, an image moved to another box or component, or the
    images of a whole component moved to the top level."""
    c = random_diagram(rng)
    if rng.random() < 0.5:
        cod, vmap = shuffled_copy(c.carrier, rng)
        h = iso(c, ExtendedCospan(cod, tuple(vmap[v] for v in c.int_in),
                                  tuple(vmap[v] for v in c.int_out), c.ext_in, c.ext_out))
        h = h.alpha if h is not None else identity_hom(c.carrier)
    else:
        pat = random_diagram(rng, max_elements=7).carrier
        h = next(monomorphisms(pat, c.carrier), None) or identity_hom(c.carrier)
    cod = h.cod.copy()
    h = EHomomorphism(h.dom, cod, dict(h.vmap), dict(h.emap))
    boxes = [e for e in cod.edges if cod.is_box(e)]
    for _ in range(rng.choice([0, 1, 1, 2])):
        kind = rng.randrange(8)
        imap = h.vmap if kind % 2 == 0 else h.emap
        if not imap:
            continue
        x = rng.choice(sorted(imap))
        if kind < 2:
            del imap[x]
        elif kind < 4:
            imap[x] = 10**6
        elif kind == 4 and len(h.vmap) > 1:
            a, b = rng.sample(sorted(h.vmap), 2)
            h.vmap[a], h.vmap[b] = h.vmap[b], h.vmap[a]
        elif kind == 5:
            h.emap[x] = rng.choice(cod.edges)
        elif kind >= 6:
            parent, comp = (cod.vparent, cod.vcomp) if kind == 6 else (cod.eparent, cod.ecomp)
            y = imap[x]
            if y in parent and rng.random() < 0.5:
                comp[y] = rng.randrange(3)  # another component of the same box
            elif boxes and rng.random() < 0.6:
                parent[y], comp[y] = rng.choice(boxes), rng.randrange(3)
            else:
                parent.pop(y, None)
                comp.pop(y, None)
    if rng.random() < 0.2 and h.dom.vparent:
        # Every image of one component moves to the top level.
        d = h.dom
        box, k = rng.choice(sorted(set(zip(d.vparent.values(), d.vcomp.values()))))
        for imap, parent, comp, cparent, ccomp in ((h.vmap, d.vparent, d.vcomp, cod.vparent, cod.vcomp),
                                                   (h.emap, d.eparent, d.ecomp, cod.eparent, cod.ecomp)):
            for x, y in imap.items():
                if (parent.get(x), comp.get(x)) == (box, k):
                    cparent.pop(y, None)
                    ccomp.pop(y, None)
    return h


def random_gluing(rng):
    """Two legs out of a small discrete graph (sometimes with an edge) into
    random diagrams, onto glue points drawn from one level, from several
    levels, or from different components of one box."""
    x, y = random_diagram(rng).carrier, random_diagram(rng).carrier
    z = EHypergraph()
    n = rng.randint(0, 3)
    for _ in range(n):
        z.add_vertex()
    if n and rng.random() < 0.1:
        z.add_edge("f", [z.vertices[0]], [z.vertices[-1]])

    def points(g):
        nested = [v for v in g.vertices if g.vparent.get(v) is not None]
        pool = nested if nested and rng.random() < 0.5 else g.vertices
        if rng.random() < 0.5:
            level = g.placement(("v", rng.choice(pool)))
            pool = [v for v in g.vertices if g.placement(("v", v)) == level]
        return [rng.choice(pool) for _ in range(n)]

    return (EHomomorphism(z, x, dict(zip(z.vertices, points(x)))),
            EHomomorphism(z, y, dict(zip(z.vertices, points(y)))))


class TestOnePassMapChecksAgainstOracles:
    @given(seeds)
    @CHECKS
    def test_violations_on_random_broken_homomorphisms(self, seed):
        h = broken_hom(random.Random(seed))
        assert h.violations() == violations_oracle(h)

    @given(seeds)
    @CHECKS
    def test_pushout_preconditions_on_random_gluings(self, seed):
        left, right = random_gluing(random.Random(seed))
        assert check_pushout_preconditions(left, right) == \
            pushout_preconditions_oracle(left, right)


# ---------------------------------------------------------------------------
# Replay of e-graph merges
# ---------------------------------------------------------------------------

MERGES = parse_signature(
    "a: 0 -> 1\nb: 0 -> 1\nc: 0 -> 1\ng: 1 -> 1\nf: 2 -> 1\nplus: 2 -> 1\n", cartesian=True)
REPLAY = settings(max_examples=200, deadline=None)


def merge_tree(rng, depth=4):
    """A random term tree of depth at most ``depth`` over ``MERGES``."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice("abc")
    head = rng.choice(["g", "f", "plus"])
    return (head, *(merge_tree(rng, depth - 1) for _ in range(1 if head == "g" else 2)))


def tree_term(t):
    """The closed term of a tree: its children side by side, then its head."""
    if isinstance(t, str):
        return Gen(t)
    head, *kids = t
    ins = tree_term(kids[0]) if len(kids) == 1 else Tensor(tree_term(kids[0]), tree_term(kids[1]))
    return Comp(ins, Gen(head))


def merge_case(rng, leaves):
    """(before, rule, after) for a random tree's e-graph and a merge of two of
    its classes: those of ``b`` and ``c`` under the rule ``(b, c)`` when
    ``leaves``, else two random classes under the rule of their subtrees;
    None when the tree has no two such classes."""
    t = merge_tree(rng)
    before = EGraph()
    subtree = {}

    def go(t):
        kids = () if isinstance(t, str) else tuple(go(k) for k in t[1:])
        cid = before.add(ENode(t if isinstance(t, str) else t[0], kids))
        subtree.setdefault(cid, t)
        return cid

    go(t)
    if leaves:
        pair = [c for c, u in subtree.items() if u in ("b", "c")]
    else:
        pair = rng.sample(sorted(subtree), 2) if len(subtree) > 1 else []
    if len(pair) != 2:
        return None
    after = before.copy()
    after.merge(*pair)
    return before, (tree_term(subtree[pair[0]]), tree_term(subtree[pair[1]])), after


class TestReplayIsTotalOnAcyclicMerges:
    def check(self, case):
        if case is None:
            return
        before, rule, after = case
        try:
            target = translate(after, MERGES)
        except EGraphError:  # the merge made the e-graph cyclic
            return
        res = replay(before, rule, after, MERGES)
        assert iso(res.result, target) is not None
        for step in res.steps:
            assert validate_cospan(step.result) == []
            assert is_mda_well_typed(step.result) == []

    @given(seeds)
    @REPLAY
    def test_merges_of_two_leaves(self, seed):
        self.check(merge_case(random.Random(seed), leaves=True))

    @given(seeds)
    @REPLAY
    def test_merges_of_two_subterm_classes(self, seed):
        self.check(merge_case(random.Random(seed), leaves=False))
