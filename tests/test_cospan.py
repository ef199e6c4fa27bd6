"""Unit tests for extended cospans: validation, isomorphism, pushout,
composition, tensor, and join."""

import pytest

from megraph.core import EHomomorphism, EHypergraph
from megraph.cospan import (
    CospanError,
    ExtendedCospan,
    PushoutPreconditionError,
    compose,
    discrete,
    glue,
    identity_cospan,
    is_mda_well_typed,
    iso,
    join,
    join_raw,
    pushout,
    symmetry_cospan,
    tensor,
    validate_cospan,
)

from .helpers import BASIC, interp


def edge_graph(label, arity=1, coarity=1):
    g = EHypergraph()
    ins = [g.add_vertex() for _ in range(arity)]
    outs = [g.add_vertex() for _ in range(coarity)]
    g.add_edge(label, ins, outs)
    return g, ins, outs


class TestValidateCospan:
    def test_identity_on_two_wires_is_valid(self):
        c = identity_cospan(2)
        assert validate_cospan(c) == []
        assert is_mda_well_typed(c) == []

    def test_external_slot_on_boxed_vertex_is_invalid(self):
        c = join([interp("f"), interp("g")])
        strict = c.strict_in_positions()[0]
        bad = ExtendedCospan(c.carrier, c.int_in, c.int_out, (strict,), c.ext_out)
        assert validate_cospan(bad)

    def test_strict_slot_on_top_level_vertex_is_invalid(self):
        g, ins, outs = edge_graph("f")
        loose = g.add_vertex()
        bad = ExtendedCospan(g, (ins[0], loose), (outs[0],), (0,), (0,))
        assert any("top-level" in r for r in validate_cospan(bad))


class TestMdaWellTyped:
    def test_composition_of_generators_is_well_typed(self):
        assert is_mda_well_typed(interp("f ; g")) == []

    def test_vertex_with_two_consumers_is_flagged(self):
        g = EHypergraph()
        v = g.add_vertex()
        w1 = g.add_vertex()
        w2 = g.add_vertex()
        g.add_edge("f", [v], [w1])
        g.add_edge("g", [v], [w2])
        c = ExtendedCospan(g, (v,), (w1, w2), (0,), (0, 1))
        assert any("degree" in r for r in is_mda_well_typed(c))

    def test_ill_typed_box_component_is_flagged(self):
        # box with one input wire but a component whose input block has 2 slots
        g = EHypergraph()
        a = g.add_vertex()
        b = g.add_vertex()
        box = g.add_edge(None, [a], [b])
        u0 = g.add_vertex(parent=box, component=0)
        u1 = g.add_vertex(parent=box, component=0)
        w0 = g.add_vertex(parent=box, component=0)
        g.add_edge("k", [u0, u1], [w0], parent=box, component=0)
        u2 = g.add_vertex(parent=box, component=1)
        w1 = g.add_vertex(parent=box, component=1)
        g.add_edge("f", [u2], [w1], parent=box, component=1)
        c = ExtendedCospan(g, (a, u0, u1, u2), (b, w0, w1), (0,), (0,))
        assert validate_cospan(c) == []
        assert any("box" in r for r in is_mda_well_typed(c))


class TestIso:
    def test_join_is_commutative_up_to_iso(self):
        assert iso(interp("f + g"), interp("g + f")) is not None

    def test_symmetry_is_not_parallel_identities(self):
        assert iso(symmetry_cospan(1, 1), identity_cospan(2)) is None

    def test_reordered_parallel_parts_are_iso(self):
        assert iso(interp("(f ; g) + h"), interp("h + (f ; g)")) is not None

    def test_distinct_labels_are_not_iso(self):
        assert iso(interp("f"), interp("g")) is None

    def test_reflexive(self):
        c = interp("f ; (g + h)")
        assert iso(c, c) is not None

    def test_a_vertex_consumed_twice_is_outside_the_domain(self):
        g = EHypergraph()
        v, w1, w2 = g.add_vertex(), g.add_vertex(), g.add_vertex()
        g.add_edge("f", [v], [w1])
        g.add_edge("g", [v], [w2])
        c = ExtendedCospan(g, (v,), (w1, w2), (0,), (0, 1))
        with pytest.raises(CospanError):
            iso(c, c)


class TestPushout:
    def test_empty_apex_gives_disjoint_union(self):
        z = discrete(0)
        a, _, _ = edge_graph("f")
        b, _, _ = edge_graph("g")
        p = pushout(
            EHomomorphism(dom=z, cod=a, vmap={}, emap={}),
            EHomomorphism(dom=z, cod=b, vmap={}, emap={}),
        )
        assert len(p.obj.vertices) == 4
        assert len(p.obj.edges) == 2
        assert sorted(p.obj.label.values()) == ["f", "g"]

    def test_gluing_two_edges_gives_a_chain(self):
        z = discrete(1)
        a, a_in, a_out = edge_graph("f")
        b, b_in, b_out = edge_graph("g")
        p = pushout(
            EHomomorphism(dom=z, cod=a, vmap={z.vertices[0]: a_out[0]}, emap={}),
            EHomomorphism(dom=z, cod=b, vmap={z.vertices[0]: b_in[0]}, emap={}),
        )
        assert len(p.obj.vertices) == 3
        assert len(p.obj.edges) == 2
        assert p.inj_left.vmap[a_out[0]] == p.inj_right.vmap[b_in[0]]
        # the glued vertex is the middle of a 2-edge chain
        mid = p.inj_left.vmap[a_out[0]]
        fe = next(e for e in p.obj.edges if p.obj.label[e] == "f")
        ge = next(e for e in p.obj.edges if p.obj.label[e] == "g")
        assert p.obj.target[fe] == (mid,) and p.obj.source[ge] == (mid,)

    def test_gluing_into_a_box_pulls_the_outside_part_in(self):
        # gluing an outside producer onto a boxed wire drags the producer
        # (and its whole connected part) into that box component
        host = join([interp("f"), interp("g")])
        hg = host.carrier
        fe = next(e for e in hg.edges if hg.label[e] == "f")
        boxed_in = hg.source[fe][0]
        c, c_in, c_out = edge_graph("a", arity=0, coarity=1)
        z = discrete(1)
        p = pushout(
            EHomomorphism(dom=z, cod=hg, vmap={z.vertices[0]: boxed_in}, emap={}),
            EHomomorphism(dom=z, cod=c, vmap={z.vertices[0]: c_out[0]}, emap={}),
        )
        glued_edge = p.inj_right.emap[c.edges[0]]
        box_img = p.inj_left.emap[next(e for e in hg.edges if hg.label[e] is None)]
        assert p.obj.eparent.get(glued_edge) == box_img
        assert p.obj.ecomp[glued_edge] == hg.vcomp[boxed_in]

    def test_parent_conflict_is_rejected(self):
        # a vertex may not acquire a parent through both legs
        left = join([interp("f"), interp("g")])
        right = join([interp("g"), interp("h")])
        lg, rg = left.carrier, right.carrier
        lv = next(v for v in lg.vertices if lg.vparent.get(v) is not None)
        rv = next(v for v in rg.vertices if rg.vparent.get(v) is not None)
        z = discrete(1)
        with pytest.raises(PushoutPreconditionError):
            pushout(
                EHomomorphism(dom=z, cod=lg, vmap={z.vertices[0]: lv}, emap={}),
                EHomomorphism(dom=z, cod=rg, vmap={z.vertices[0]: rv}, emap={}),
            )


def _pushout_parts(p):
    g = p.obj
    return (g.vertices, g.edges, g.source, g.target, g.label, g.vparent, g.vcomp,
            g.eparent, g.ecomp, p.inj_left.vmap, p.inj_left.emap,
            p.inj_right.vmap, p.inj_right.emap)


class TestGlue:
    """``glue(x, xs, y, ys)`` is the pushout along the discrete interface
    whose ``i``-th point meets ``xs[i]`` and ``ys[i]``."""

    @staticmethod
    def by_hand(x, xs, y, ys):
        z = discrete(len(xs))
        return pushout(
            EHomomorphism(dom=z, cod=x, vmap=dict(zip(z.vertices, xs)), emap={}),
            EHomomorphism(dom=z, cod=y, vmap=dict(zip(z.vertices, ys)), emap={}),
        )

    def test_non_injective_leg_merges_its_images(self):
        # f's output meets both inputs of ``g * h``, which become one vertex
        x, _, x_out = edge_graph("f")
        yc = interp("g * h")
        ys = yc.ext_in_vertices()
        p = glue(x, (x_out[0], x_out[0]), yc.carrier, ys)
        assert _pushout_parts(p) == _pushout_parts(
            self.by_hand(x, (x_out[0], x_out[0]), yc.carrier, ys))
        assert p.inj_right.vmap[ys[0]] == p.inj_right.vmap[ys[1]] == p.inj_left.vmap[x_out[0]]
        assert len(p.obj.vertices) == 4

    def test_glue_point_nested_in_a_box(self):
        host = join([interp("f"), interp("g")])
        hg = host.carrier
        ge = next(e for e in hg.edges if hg.label[e] == "g")
        boxed_out = hg.target[ge][0]
        yc = interp("h")
        p = glue(hg, (boxed_out,), yc.carrier, yc.ext_in_vertices())
        assert _pushout_parts(p) == _pushout_parts(
            self.by_hand(hg, (boxed_out,), yc.carrier, yc.ext_in_vertices()))
        he = p.inj_right.emap[yc.carrier.edges[0]]
        box = next(e for e in hg.edges if hg.label[e] is None)
        assert p.obj.eparent[he] == p.inj_left.emap[box]
        assert p.obj.ecomp[he] == hg.vcomp[boxed_out]

    def test_empty_interface_is_the_disjoint_union(self):
        a, b = interp("f ; g").carrier, interp("h").carrier
        p = glue(a, (), b, ())
        assert _pushout_parts(p) == _pushout_parts(self.by_hand(a, (), b, ()))
        assert len(p.obj.vertices) == len(a.vertices) + len(b.vertices)

    def test_interfaces_of_different_lengths_are_rejected(self):
        a, _, a_out = edge_graph("f")
        with pytest.raises(ValueError):
            glue(a, a_out, a, ())


class TestCompose:
    def test_identity_is_a_unit(self):
        f = interp("f")
        assert iso(compose(f, identity_cospan(1)), f) is not None
        assert iso(compose(identity_cospan(1), f), f) is not None

    def test_two_generators_give_a_chain(self):
        c = compose(interp("f"), interp("g"))
        assert len(c.carrier.vertices) == 3
        assert len(c.carrier.edges) == 2
        assert c.strict_in_positions() == ()
        assert c.strict_out_positions() == ()
        assert iso(c, interp("f ; g")) is not None

    def test_generator_feeding_a_box(self):
        c = compose(interp("f"), join([interp("g"), interp("h")]))
        boxes = [e for e in c.carrier.edges if c.carrier.label[e] is None]
        assert len(boxes) == 1
        assert len(c.strict_in_positions()) == 2
        assert len(c.strict_out_positions()) == 2
        assert is_mda_well_typed(c) == []

    def test_arity_mismatch_is_rejected(self):
        with pytest.raises(Exception):
            compose(interp("s"), interp("f"))  # 1->2 then 1->1


class TestTensor:
    def test_empty_unit(self):
        f = interp("f")
        assert iso(tensor(f, identity_cospan(0)), f) is not None

    def test_order_matters(self):
        a = tensor(interp("f"), interp("g"))
        b = tensor(interp("g"), interp("f"))
        assert iso(a, b) is None

    def test_sizes_add(self):
        a, b = interp("f ; g"), interp("k")
        t = tensor(a, b)
        assert len(t.carrier.vertices) == len(a.carrier.vertices) + len(b.carrier.vertices)
        assert len(t.carrier.edges) == len(a.carrier.edges) + len(b.carrier.edges)


class TestJoin:
    def test_singleton_join_is_identity(self):
        f = interp("f")
        assert iso(join([f]), f) is not None

    def test_two_part_join_shape(self):
        c = join([interp("f"), interp("g")])
        g = c.carrier
        boxes = [e for e in g.edges if g.label[e] is None]
        assert len(boxes) == 1
        assert sum(1 for e in g.edges if g.label[e] is not None) == 2
        top = [v for v in g.vertices if g.vparent.get(v) is None]
        boxed = [v for v in g.vertices if g.vparent.get(v) is not None]
        assert len(top) == 2 and len(boxed) == 4
        assert len(c.strict_in_positions()) == 2
        assert len(c.strict_out_positions()) == 2
        assert is_mda_well_typed(c) == []

    def test_join_deduplicates_up_to_iso(self):
        c = join([interp("f"), interp("f")])
        assert iso(c, interp("f")) is not None

    def test_join_raw_keeps_duplicates(self):
        c = join_raw([interp("f"), interp("f")])
        assert any(c.carrier.label[e] is None for e in c.carrier.edges)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(Exception):
            join([interp("f"), interp("k")])
