"""Unit tests for the classical e-graph, its rendering as a diagram, and the
replay of e-graph rewrites as double-pushout steps."""

import json

import pytest

from megraph import egraph
from megraph.core import validate
from megraph.cospan import is_mda_well_typed, iso, validate_cospan
from megraph.egraph import (
    EGraph,
    EGraphError,
    ENode,
    ReplayIncomplete,
    egraph_of_term_tree,
    replay,
    translate,
)
from megraph.serialize import loads_egraph
from megraph.term import TermTypeError, parse

from .fixtures import (
    expected_stage_b,
    expected_stage_c,
    leaf_merge_egraphs,
    leaf_merge_rule,
    pipeline_egraphs,
    pipeline_rules,
)
from .helpers import ARITH, FIG14


class TestEGraph:
    def test_add_is_hashconsed(self):
        eg = EGraph()
        a = eg.add(ENode("a", ()))
        b = eg.add(ENode("b", ()))
        n1 = eg.add(ENode("f", (a, b)))
        n2 = eg.add(ENode("f", (a, b)))
        assert n1 == n2
        assert eg.check_invariants() == []

    def test_add_constant_makes_singleton_class(self):
        eg = EGraph()
        a = eg.add(ENode("a", ()))
        assert eg.nodes(a) == [ENode("a", ())]

    def test_merge_self_is_noop(self):
        eg = EGraph()
        a = eg.add(ENode("a", ()))
        before = repr(eg)
        eg.merge(a, a)
        assert repr(eg) == before

    def test_merge_triggers_upward_merging(self):
        eg, _root = egraph_of_term_tree(("plus", ("f", "a", "b"), ("f", "a", "c")))
        b = eg.hashcons[ENode("b", ())]
        c = eg.hashcons[ENode("c", ())]
        fab = eg.find(eg.hashcons[ENode("f", (eg.hashcons[ENode("a", ())], b))])
        fac = eg.find(eg.hashcons[ENode("f", (eg.hashcons[ENode("a", ())], c))])
        assert fab != fac
        eg.merge(b, c)
        assert eg.find(fab) == eg.find(fac)
        assert eg.check_invariants() == []

    def test_merge_chain_has_single_representative(self):
        eg = EGraph()
        ids = [eg.add(ENode(n, ())) for n in ("a", "b", "c")]
        eg.merge(ids[0], ids[1])
        eg.merge(ids[1], ids[2])
        assert len({eg.find(i) for i in ids}) == 1
        assert eg.check_invariants() == []

    def test_add_after_merge_canonicalizes_lookup(self):
        eg = EGraph()
        a = eg.add(ENode("a", ()))
        b = eg.add(ENode("b", ()))
        fa = eg.add(ENode("f", (a, a)))
        eg.merge(a, b)
        assert eg.add(ENode("f", (b, b))) == eg.find(fa)


class TestTranslate:
    def test_single_constant(self):
        eg, _ = egraph_of_term_tree("a")
        c = translate(eg, ARITH)
        assert len(c.carrier.edges) == 1
        assert c.carrier.label[c.carrier.edges[0]] == "a"
        assert (c.arity, c.coarity) == (0, 1)

    def test_output_always_validates(self):
        for eg in pipeline_egraphs():
            c = translate(eg, ARITH)
            assert validate(c.carrier, ARITH) == []
            assert validate_cospan(c) == []
            assert is_mda_well_typed(c) == []

    def test_shared_leaf_uses_copy(self):
        eg, _ = egraph_of_term_tree(("div", ("mul", "a", "two"), "two"))
        c = translate(eg, ARITH)
        assert sum(1 for e in c.carrier.edges if c.carrier.label[e] == "dup") == 1

    def test_multi_node_class_becomes_box(self):
        _, eg1, _ = pipeline_egraphs()
        c = translate(eg1, ARITH)
        boxes = [e for e in c.carrier.edges if c.carrier.label[e] is None]
        assert len(boxes) == 1

    def test_disconnected_egraph_rejected(self):
        eg = EGraph()
        eg.add(ENode("a", ()))
        eg.add(ENode("one", ()))
        with pytest.raises(EGraphError):
            translate(eg, ARITH)

    def test_class_without_nodes_rejected(self):
        eg, root = egraph_of_term_tree(("mul", "a", "two"))
        eg.classes[root] = set()
        with pytest.raises(EGraphError, match="no nodes"):
            translate(eg, ARITH)

    def test_cyclic_egraph_rejected(self):
        eg = EGraph()
        a = eg.add(ENode("a", ()))
        fa = eg.add(ENode("mul", (a, a)))
        eg.merge(a, fa)
        with pytest.raises(EGraphError):
            translate(eg, ARITH)


class TestReplay:
    def test_noop_rewrite_gives_empty_sequence(self):
        eg, _ = egraph_of_term_tree(("mul", "a", "two"))
        res = replay(eg, (parse("a"), parse("a")), eg.copy(), ARITH)
        assert res.steps == []

    def test_pipeline_first_step(self):
        eg0, eg1, _ = pipeline_egraphs()
        r1, _ = pipeline_rules()
        res = replay(eg0, r1, eg1, ARITH)
        assert len(res.steps) >= 1
        assert iso(res.result, translate(eg1, ARITH)) is not None
        for step in res.steps:
            assert validate_cospan(step.result) == []
            assert is_mda_well_typed(step.result) == []

    def test_pipeline_second_step(self):
        _, eg1, eg2 = pipeline_egraphs()
        _, r2 = pipeline_rules()
        res = replay(eg1, r2, eg2, ARITH)
        assert iso(res.result, translate(eg2, ARITH)) is not None

    def test_leaf_merge_is_one_changed_region_step(self):
        before, after = leaf_merge_egraphs()
        res = replay(before, leaf_merge_rule(), after, FIG14)
        assert [s.rule.name for s in res.steps] == ["rewrite changed region"]
        assert iso(res.result, translate(after, FIG14)) is not None

    def test_merge_of_two_existing_classes_from_documents(self):
        # mul((a*2)/2, a*(2/2)); reassociating (a*2)/2 merges it with the
        # existing class of a*(2/2), which the "after" document omits.
        def doc(classes):
            return json.dumps({"classes": [
                {"id": i, "nodes": [{"head": h, "children": k} for h, k in ns]}
                for i, ns in classes]})

        before = loads_egraph(doc([
            (0, [("a", [])]), (1, [("two", [])]), (2, [("mul", [0, 1])]),
            (3, [("div", [2, 1])]), (4, [("div", [1, 1])]),
            (5, [("mul", [0, 4])]), (6, [("mul", [3, 5])]),
        ]))
        after = loads_egraph(doc([
            (0, [("a", [])]), (1, [("two", [])]), (2, [("mul", [0, 1])]),
            (3, [("div", [2, 1]), ("mul", [0, 4])]), (4, [("div", [1, 1])]),
            (6, [("mul", [3, 3])]),
        ]))
        rule = (parse("(mul * id:1) ; div"), parse("(id:1 * div) ; mul"))
        res = replay(before, rule, after, ARITH)
        assert [s.rule.name for s in res.steps] == ["rewrite changed region"]
        assert iso(res.result, translate(after, ARITH)) is not None

    @pytest.mark.parametrize("case", ["noop", "composite", "leaf merge"])
    def test_each_egraph_is_rendered_once(self, case, monkeypatch):
        renders = []
        real_render = egraph._render

        def render(eg, sig):
            renders.append(eg)
            return real_render(eg, sig)

        monkeypatch.setattr(egraph, "_render", render)
        if case == "noop":
            before, _ = egraph_of_term_tree(("mul", "a", "two"))
            args = (before, (parse("a"), parse("a")), before.copy(), ARITH)
        elif case == "composite":
            eg0, eg1, _ = pipeline_egraphs()
            args = (eg0, pipeline_rules()[0], eg1, ARITH)
        else:
            before, after = leaf_merge_egraphs()
            args = (before, leaf_merge_rule(), after, FIG14)
        res = replay(*args)
        assert renders == [args[0], args[2]]
        assert (res.steps == []) == (case == "noop")

    def test_rule_sides_of_different_types_are_rejected(self):
        before, _ = egraph_of_term_tree(("mul", "a", "two"))
        with pytest.raises(EGraphError, match="0->1 and 2->1"):
            replay(before, (parse("a"), parse("mul")), before.copy(), ARITH)

    def test_ill_typed_rule_side_is_rejected(self):
        before, _ = egraph_of_term_tree(("mul", "a", "two"))
        with pytest.raises(TermTypeError):
            replay(before, (parse("a"), parse("a ; mul")), before.copy(), ARITH)

    def test_class_without_counterpart_is_reported(self):
        before, _ = egraph_of_term_tree(("mul", "a", "two"))
        after, _ = egraph_of_term_tree(("mul", "two", "a"))
        with pytest.raises(ReplayIncomplete):
            replay(before, (parse("a"), parse("a")), after, ARITH)


class TestPipelineFixtures:
    def test_stage_b_matches_hand_built_diagram(self):
        _, eg1, _ = pipeline_egraphs()
        assert iso(translate(eg1, ARITH), expected_stage_b()) is not None

    def test_stage_c_matches_hand_built_diagram(self):
        _, _, eg2 = pipeline_egraphs()
        assert iso(translate(eg2, ARITH), expected_stage_c()) is not None
