"""Unit tests for the hypergraph data structure and graph-theoretic helpers."""

import pytest

from megraph.core import (
    EHomomorphism,
    EHypergraph,
    Generator,
    Signature,
    degrees,
    down_closure,
    is_acyclic,
    is_convex,
    validate,
)
from megraph.cospan import join
from megraph.term import parse

from .helpers import BASIC, identity_hom, interp, then


def chain(labels):
    """f1 ; f2 ; ... as a bare graph of 1->1 edges."""
    g = EHypergraph()
    vs = [g.add_vertex() for _ in range(len(labels) + 1)]
    es = [g.add_edge(l, [vs[i]], [vs[i + 1]]) for i, l in enumerate(labels)]
    return g, vs, es


class TestValidate:
    def test_discrete_graph_is_valid(self):
        g = EHypergraph()
        for _ in range(3):
            g.add_vertex()
        assert validate(g) == []

    def test_single_component_box_is_flagged(self):
        g = EHypergraph()
        v = g.add_vertex()
        box = g.add_edge(None, [], [v])
        u1 = g.add_vertex(parent=box, component=0)
        u2 = g.add_vertex(parent=box, component=0)
        g.add_edge("f", [u1], [u2], parent=box, component=0)
        report = validate(g)
        assert any("single-component box" in r for r in report)

    def test_endpoint_parent_mismatch_is_flagged_once(self):
        g = EHypergraph()
        a = g.add_vertex()
        b = g.add_vertex()
        box = g.add_edge(None, [a], [b])
        inner = g.add_vertex(parent=box, component=0)
        sib = g.add_vertex(parent=box, component=1)
        g.add_edge("f", [inner], [sib], parent=box, component=1)
        # edge at top level with one endpoint inside the box
        g.add_edge("g", [inner], [b])
        report = validate(g)
        assert sum("different parents" in r for r in report) == 1

    def test_childless_hierarchical_edge_is_flagged(self):
        g = EHypergraph()
        v = g.add_vertex()
        g.add_edge(None, [], [v])
        assert any("no children" in r for r in validate(g))

    def test_labelled_parent_is_flagged(self):
        g = EHypergraph()
        v = g.add_vertex()
        e = g.add_edge("f", [], [v])
        g.add_vertex(parent=e, component=0)
        report = validate(g)
        assert any("not hierarchical" in r for r in report)

    def test_generator_typing(self):
        sig = Signature([Generator("f", 2, 1)])
        g = EHypergraph()
        v = g.add_vertex()
        w = g.add_vertex()
        g.add_edge("f", [v], [w])
        assert any("expects 2 -> 1" in r for r in validate(g, sig))
        assert any("unknown generator" in r for r in validate(g, Signature([])))

    def test_component_index_requires_parent(self):
        g = EHypergraph()
        v = g.add_vertex()
        g.vcomp[v] = 0
        assert any("component index without a parent" in r for r in validate(g))


class TestGeneratorInvariants:
    def test_zero_to_zero_generator_rejected(self):
        with pytest.raises(ValueError):
            Generator("bad", 0, 0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Signature([Generator("f", 1, 1), Generator("f", 2, 1)])


class TestDegrees:
    def test_isolated_vertex(self):
        g = EHypergraph()
        v = g.add_vertex()
        assert degrees(g)[v] == (0, 0)

    def test_through_vertex(self):
        g, vs, _ = chain(["f", "g"])
        assert degrees(g)[vs[1]] == (1, 1)

    def test_multiplicity_counts_per_occurrence(self):
        g = EHypergraph()
        v = g.add_vertex()
        w = g.add_vertex()
        g.add_edge("k", [v, v], [w])
        assert degrees(g)[v] == (0, 2)

    def test_unknown_vertex(self):
        g = EHypergraph()
        with pytest.raises(KeyError):
            degrees(g)[99]


class TestAcyclicity:
    def test_shared_constant_diagram_is_acyclic(self):
        g = EHypergraph()
        va, v2, v2a, v2b, vm, vr = (g.add_vertex() for _ in range(6))
        g.add_edge("a", [], [va])
        g.add_edge("two", [], [v2])
        g.add_edge("dup", [v2], [v2a, v2b])
        g.add_edge("mul", [va, v2a], [vm])
        g.add_edge("div", [vm, v2b], [vr])
        assert is_acyclic(g)

    def test_self_loop(self):
        g = EHypergraph()
        v = g.add_vertex()
        g.add_edge("f", [v], [v])
        assert not is_acyclic(g)

    def test_two_cycle(self):
        g = EHypergraph()
        v = g.add_vertex()
        w = g.add_vertex()
        g.add_edge("f", [v], [w])
        g.add_edge("g", [w], [v])
        assert not is_acyclic(g)


class TestDownClosure:
    def test_plain_edge_closure_is_edge_plus_endpoints(self):
        g, vs, es = chain(["f"])
        assert down_closure(g, [es[0]]) == {("e", es[0]), ("v", vs[0]), ("v", vs[1])}

    def test_box_closure_contains_all_contents(self):
        c = join([interp("f"), interp("g")])
        g = c.carrier
        box = next(e for e in g.edges if g.label[e] is None)
        closed = down_closure(g, [box])
        expected = {("e", e) for e in g.edges} | {("v", v) for v in g.vertices}
        assert closed == expected

    def test_empty_seed(self):
        g, _, _ = chain(["f", "g"])
        assert down_closure(g, []) == set()

    def test_idempotent_and_monotone(self):
        c = join([interp("f ; g"), interp("h")])
        g = c.carrier
        small = down_closure(g, [g.edges[0]])
        big = down_closure(g, g.edges[:2])
        assert small <= big
        again = down_closure(g, [i for k, i in big if k == "e"])
        assert again == big


class TestConvexity:
    def test_single_edge_closure_is_convex(self):
        g, _, es = chain(["f", "g", "h"])
        assert is_convex(g, down_closure(g, [es[1]]))

    def test_gap_in_chain_is_not_convex(self):
        g, vs, es = chain(["f", "g", "h"])
        sub = down_closure(g, [es[0]]) | down_closure(g, [es[2]])
        assert not is_convex(g, sub)

    def test_full_graph_is_convex(self):
        g, _, es = chain(["f", "g", "h"])
        assert is_convex(g, down_closure(g, es))

    def test_parallel_edges_are_convex(self):
        c = interp("f * g")
        g = c.carrier
        sub = down_closure(g, [g.edges[0]])
        assert is_convex(g, sub)


class TestHomomorphisms:
    def test_identity_is_valid(self):
        c = interp("f ; g")
        h = identity_hom(c.carrier)
        assert h.violations() == []
        assert h.is_mono()

    def test_label_mismatch_is_flagged(self):
        a = interp("f").carrier
        b = interp("g").carrier
        h = EHomomorphism(
            dom=a, cod=b, vmap=dict(zip(a.vertices, b.vertices)),
            emap=dict(zip(a.edges, b.edges)),
        )
        assert any("label" in r for r in h.violations())

    def test_composition_of_valid_homs_is_valid(self):
        a = interp("f").carrier
        host = interp("f ; f").carrier
        from .oracles import all_homs

        hs = list(all_homs(a, host))
        assert len(hs) == 2
        ident = identity_hom(host)
        for h in hs:
            assert then(h, ident).violations() == []

    def test_parent_preservation_required(self):
        boxed = join([interp("f"), interp("g")]).carrier
        flat = interp("f").carrier
        fe = next(e for e in boxed.edges if boxed.label[e] == "f")
        vmap = {v: flat.vertices[0] for v in boxed.endpoints(fe)}
        h = EHomomorphism(
            dom=boxed, cod=flat,
            vmap={**{v: flat.vertices[0] for v in boxed.vertices}, **vmap},
            emap={e: flat.edges[0] for e in boxed.edges},
        )
        assert h.violations()
