"""Unit tests for rules, match enumeration, boundary complements, rewriting,
and the structural (box-manipulating) schema rules."""

import json

import pytest

from megraph.core import down_closure, is_convex
from megraph.cospan import (
    certificate,
    identity_cospan,
    is_mda_well_typed,
    iso,
    join,
    join_raw,
    symmetry_cospan,
)
from megraph.engine import Strategy, saturate
from megraph.rewrite import (
    Match,
    NoComplement,
    RewriteInternalError,
    RewriteRule,
    RuleError,
    _flatten_instance,
    apply,
    boundary_complement,
    components,
    extract_subdiagram,
    find_matches,
    monomorphisms,
    rule_from_terms,
    structural_matches,
)
from megraph.serialize import dumps_cospan, loads_cospan
from megraph.term import parse

from .helpers import ARITH, BASIC, interp, same_alternatives
from .oracles import components_oracle, flatten_rhs_oracle


class TestRuleConstruction:
    def test_open_wire_rule_has_unit_interfaces(self):
        rule = rule_from_terms(
            "mul-to-shl",
            parse("(id:1 * two) ; mul"),
            parse("(id:1 * one) ; shl"),
            ARITH,
        )
        assert rule.lhs.arity == rule.rhs.arity == 1
        assert rule.lhs.coarity == rule.rhs.coarity == 1

    def test_identity_rule_applies_as_a_noop(self):
        rule = rule_from_terms("same", parse("f"), parse("f"), BASIC)
        host = interp("f ; g")
        result = apply(find_matches(rule, host)[0])
        assert iso(result, host) is not None

    def test_type_mismatch_rejected(self):
        with pytest.raises((RuleError, Exception)):
            rule_from_terms("bad", parse("f"), parse("k"), BASIC)

    def test_closed_component_rejected(self):
        from megraph.core import EHypergraph
        from megraph.cospan import ExtendedCospan

        # an f-edge plus a floating produce-then-discard loop with no interface
        g = EHypergraph()
        w1, w2, v = g.add_vertex(), g.add_vertex(), g.add_vertex()
        g.add_edge("f", [w1], [w2])
        g.add_edge("a", [], [v])
        g.add_edge("del", [v], [])
        lhs = ExtendedCospan(g, (w1,), (w2,), (0,), (0,))
        with pytest.raises(RuleError):
            RewriteRule("closed", lhs, interp("f"))
        # open sides are fine
        RewriteRule("open", interp("f"), interp("g"))

    def test_reversed_swaps_sides(self):
        rule = rule_from_terms("r", parse("f"), parse("g"), BASIC)
        rev = rule.reversed()
        assert iso(rev.lhs, rule.rhs) is not None
        assert iso(rev.rhs, rule.lhs) is not None


class TestFindMatches:
    def test_two_occurrences_in_a_chain(self):
        rule = rule_from_terms("r", parse("f"), parse("g"), BASIC)
        assert len(find_matches(rule, interp("f ; f"))) == 2

    def test_disconnected_shape_does_not_match(self):
        rule = rule_from_terms("r", parse("f ; g"), parse("g ; f"), BASIC)
        assert find_matches(rule, interp("f * g")) == []

    def test_no_match_across_box_components(self):
        rule = rule_from_terms("r", parse("f * g"), parse("g * f"), BASIC)
        host = interp("(f + g) ; g")
        assert find_matches(rule, host) == []

    def test_deterministic_order(self):
        rule = rule_from_terms("r", parse("f"), parse("g"), BASIC)
        host = interp("f ; f ; f")
        a = [sorted(m.hom.emap.values()) for m in find_matches(rule, host)]
        b = [sorted(m.hom.emap.values()) for m in find_matches(rule, host)]
        assert a == b and len(a) == 3
        # Sorted by edge images, then by vertex images, then in search order,
        # which breaks the ties between a match and its swap automorphism.
        rule = rule_from_terms("r", parse("f * f"), parse("g * g"), BASIC)
        assert [m.hom.emap for m in find_matches(rule, interp("f * f * f"))] == [
            {0: 0, 1: 1}, {0: 1, 1: 0}, {0: 0, 1: 2}, {0: 2, 1: 0}, {0: 1, 1: 2}, {0: 2, 1: 1},
        ]


class TestBoundaryComplement:
    def test_whole_host_match_leaves_discrete_interface(self):
        rule = rule_from_terms("r", parse("f ; g"), parse("g ; f"), BASIC)
        host = interp("f ; g")
        comp = boundary_complement(find_matches(rule, host)[0])
        assert comp.graph.edges == []
        assert len(comp.graph.vertices) == 2  # the two glue wires

    def test_overlapping_glue_is_rejected(self):
        # an identity-wire pattern maps both glue slots to one host vertex
        rule = RewriteRule("wire", identity_cospan(1), interp("f ; g"))
        host = interp("f")
        hom = next(monomorphisms(rule.lhs.carrier, host.carrier))
        with pytest.raises(NoComplement) as exc:
            boundary_complement(Match(rule, hom, host))
        assert exc.value.condition == 2
        # find_matches offers no such match, so every match it returns applies
        assert find_matches(rule, host) == []

    def test_middle_of_chain(self):
        rule = rule_from_terms("r", parse("g"), parse("f"), BASIC)
        host = interp("f ; g ; h")
        comp = boundary_complement(find_matches(rule, host)[0])
        assert sorted(comp.graph.label.values()) == ["f", "h"]
        assert len(comp.in_glue) == 1 and len(comp.out_glue) == 1


class TestApply:
    def test_rewrite_middle_of_chain(self):
        rule = rule_from_terms("r", parse("g"), parse("g ; g"), BASIC)
        host = interp("f ; g ; h")
        result = apply(find_matches(rule, host)[0])
        assert iso(result, interp("f ; g ; g ; h")) is not None

    def test_external_interface_preserved(self):
        rule = rule_from_terms("r", parse("f"), parse("g"), BASIC)
        host = interp("s ; (f * f)")
        result = apply(find_matches(rule, host)[0])
        assert (result.arity, result.coarity) == (host.arity, host.coarity)
        assert is_mda_well_typed(result) == []

    def test_rewrite_inside_a_box_component(self):
        rule = rule_from_terms("r", parse("f"), parse("f ; h"), BASIC)
        host = interp("(f ; g) + (g ; f)")
        g = host.carrier
        box = next(e for e in g.edges if g.label[e] is None)
        ms = [
            m
            for m in find_matches(rule, host)
            if all(g.eparent.get(e) == box for e in m.hom.emap.values())
        ]
        assert len(ms) == 2
        result = apply(ms[0])
        assert is_mda_well_typed(result) == []
        assert (
            iso(result, interp("(f ; h ; g) + (g ; f)")) is not None
            or iso(result, interp("(f ; g) + (g ; f ; h)")) is not None
        )

    def test_bare_wire_right_hand_side_inside_a_box(self):
        # The glue leg of ``id:1`` sends its input and output to one vertex,
        # so gluing it merges the two hole vertices inside the box.
        rule = rule_from_terms("r", parse("f ; g"), parse("id:1"), BASIC)
        host = interp("(f ; g) + h")
        (m,) = find_matches(rule, host)
        result = apply(m)
        assert is_mda_well_typed(result) == []
        assert iso(result, interp("id:1 + h")) is not None

    def test_a_non_convex_match_that_closes_a_cycle_is_an_internal_error(self):
        # f and h of ``f ; g ; h`` matched as ``f * h``; the crossing glues
        # f's output to h's input around g, so g would feed itself.
        host = interp("f ; g ; h")
        g = host.carrier
        f_edge, h_edge = (next(e for e in g.edges if g.label[e] == x) for x in "fh")
        lhs, hom = extract_subdiagram(
            host, down_closure(g, [f_edge, h_edge]),
            [g.source[f_edge][0], g.source[h_edge][0]],
            [g.target[f_edge][0], g.target[h_edge][0]],
        )
        rule = RewriteRule("cross", lhs, symmetry_cospan(1, 1))
        m = Match(rule, hom, host)
        assert not is_convex(g, hom.image())
        # The cut is fine: only the gluing closes the cycle.
        assert list(boundary_complement(m).graph.label.values()) == ["g"]
        with pytest.raises(RewriteInternalError, match="directed cycle"):
            apply(m)


class TestStructuralMatches:
    def test_seq_dist_forward_instance(self):
        host = interp("h ; (f + g)")
        insts = list(structural_matches(host))
        assert any(s.schema_id == "SeqDistL" for s, _ in insts)
        sm = next(m for s, m in insts if s.schema_id == "SeqDistL")
        assert iso(apply(sm), interp("(h ; f) + (h ; g)")) is not None

    def test_seq_dist_right_instance(self):
        host = interp("(f + g) ; h")
        insts = structural_matches(host)
        sm = next(m for s, m in insts if s.schema_id == "SeqDistR")
        assert iso(apply(sm), interp("(f ; h) + (g ; h)")) is not None

    def test_tensor_dist_instance(self):
        host = interp("h * (f + g)")
        insts = structural_matches(host)
        sm = next(m for s, m in insts if s.schema_id == "TensDistL")
        assert iso(apply(sm), interp("(h * f) + (h * g)")) is not None

    def test_box_free_host_has_no_instances(self):
        assert list(structural_matches(interp("f ; g"))) == []

    def test_idem_forward_collapses_duplicates(self):
        host = join_raw([interp("f"), interp("f")])
        insts = structural_matches(host)
        sm = next(m for s, m in insts if s.schema_id == "Singleton-absorb")
        assert iso(apply(sm), interp("f")) is not None

    def test_idem_drops_one_of_three(self):
        host = join_raw([interp("f"), interp("g"), interp("f")])
        insts = structural_matches(host)
        sm = next(m for s, m in insts if s.schema_id == "Idem")
        assert iso(apply(sm), interp("f + g")) is not None

    def test_flatten_nested_box(self):
        inner = join_raw([interp("f"), interp("g")])
        host = join_raw([inner, interp("h")])
        insts = structural_matches(host)
        sm = next(m for s, m in insts if s.schema_id == "Flatten")
        assert iso(apply(sm), interp("f + g + h")) is not None
        # A crossing in front of the nested box stays in each of its alternatives.
        host = interp("(sym:1,1 ; ((f * g) + (g * f))) + (h * h)")
        insts = structural_matches(host)
        sm = next(m for s, m in insts if s.schema_id == "Flatten")
        assert same_alternatives(
            apply(sm), ["sym:1,1 ; (f * g)", "sym:1,1 ; (g * f)", "h * h"]
        )


def certificates(parts):
    return [certificate(p) for p in parts]


def flatten_rhs(host):
    """The right-hand side of the one flattening instance in ``host``, and
    the glued oracle's."""
    g = host.carrier
    ((outer, inner),) = [(g.eparent[e], e) for e in g.edges if g.is_box(e) and e in g.eparent]
    return _flatten_instance(host, outer, inner)[1].rule.rhs, flatten_rhs_oracle(host, outer, inner)


class TestCopiedAlternatives:
    """Crossings that the builders have lost before: each alternative keeps
    the diagram's interface, equal to the glued oracle's and in order."""

    def test_a_crossing_in_front_of_the_top_box_stays(self):
        c = interp("sym:1,1 ; ((f * g) + (g * g))")
        want = [interp("sym:1,1 ; (f * g)"), interp("sym:1,1 ; (g * g)")]
        assert certificates(components(c)) == certificates(components_oracle(c)) \
            == certificates(want)

    def test_a_crossing_in_front_of_a_nested_box_stays(self):
        rhs, oracle = flatten_rhs(interp("(sym:1,1 ; ((f * g) + (g * f))) + (h * h)"))
        want = [interp("sym:1,1 ; (f * g)"), interp("sym:1,1 ; (g * f)"), interp("h * h")]
        assert certificates(components(rhs)) == certificates(components_oracle(oracle)) \
            == certificates(want)

    def test_a_loaded_document_keeps_its_external_order(self):
        doc = json.loads(dumps_cospan(interp("f * g")))
        doc["ext_in"] = [1, 0]
        crossed = loads_cospan(json.dumps(doc))
        c = join_raw([crossed, interp("h * g")])
        want = [interp("sym:1,1 ; (f * g)"), interp("h * g")]
        assert certificates(components(c)) == certificates(components_oracle(c)) \
            == certificates(want)
        rhs, oracle = flatten_rhs(join_raw([c, interp("h * h")]))
        assert certificates(components(rhs)) == certificates(components_oracle(oracle)) \
            == certificates(want + [interp("h * h")])
        rule = rule_from_terms("r", parse("f"), parse("h"), BASIC)
        res = saturate(crossed, Strategy(rules=[rule]))
        assert certificates(components(res.result)) == \
            certificates([interp("sym:1,1 ; (f * g)"), interp("sym:1,1 ; (h * g)")])
