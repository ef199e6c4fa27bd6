"""Unit tests for normalization, saturation, extraction, and DOT export."""

import time
from fractions import Fraction

import pytest

from megraph import cospan as cs, engine, rewrite
from megraph.cospan import identity_cospan, is_mda_well_typed, iso, join_raw
from megraph.engine import (
    CostModel,
    EngineError,
    Strategy,
    components,
    export_dot,
    extract,
    normalize,
    parse_costs,
    parse_rules,
    saturate,
)
from megraph.rewrite import rule_from_terms
from megraph.serialize import dumps_cospan
from megraph.term import interpret, parse, parse_signature, print_term, typecheck

from .fixtures import expected_stage_b
from .helpers import ARITH, BASIC, UNARY, interp, same_alternatives
from .oracles import saturate_worklist_oracle


class TestNormalize:
    def test_distributes_context_into_alternatives(self):
        result = normalize(interp("h ; (f + g)"))
        assert iso(result, interp("(h ; f) + (h ; g)")) is not None

    def test_collapses_duplicate_alternatives(self):
        result = normalize(join_raw([interp("f"), interp("f")]))
        assert iso(result, interp("f")) is not None

    def test_box_free_input_is_a_fixpoint(self):
        c = interp("f ; g")
        assert iso(normalize(c), c) is not None

    def test_idempotent_up_to_iso(self):
        c = interp("s ; ((f + g) * h) ; k")
        once = normalize(c)
        assert iso(normalize(once), once) is not None

    def test_components_are_box_free_and_distinct(self):
        result = normalize(interp("h ; (f + g + f)"))
        parts = components(result)
        for p in parts:
            assert all(p.carrier.label[e] is not None for e in p.carrier.edges)
        for i, p in enumerate(parts):
            for q in parts[i + 1 :]:
                assert iso(p, q) is None

    def test_budget_guard(self):
        # ``h ; (f + g)`` needs exactly one step.
        with pytest.raises(EngineError, match="budget exceeded"):
            normalize(interp("h ; (f + g)"), budget=0)
        assert iso(normalize(interp("h ; (f + g)"), budget=1),
                   interp("(h ; f) + (h ; g)")) is not None

    def test_fixpoint_needs_no_budget(self):
        c = interp("f ; g")
        assert iso(normalize(c, budget=0), c) is not None

    @pytest.mark.parametrize("kwargs, message", [
        ({"budget": -1}, "budget must be non-negative"),
        ({"order": "middle"}, "unknown normalization order 'middle'"),
    ])
    def test_bad_arguments_rejected(self, kwargs, message):
        with pytest.raises(EngineError, match=message):
            normalize(interp("f ; g"), **kwargs)


class TestComponents:
    def test_a_crossing_in_front_of_the_box_stays(self):
        c = interp("sym:1,1 ; ((f * g) + (g * g))")
        assert same_alternatives(c, ["sym:1,1 ; (f * g)", "sym:1,1 ; (g * g)"])


class TestSaturate:
    def test_empty_rule_set_is_identity(self):
        c = interp("f ; g")
        res = saturate(c, Strategy(rules=[]))
        assert res.saturated and res.steps == 0
        assert iso(res.result, c) is not None

    def test_zero_budget_is_identity(self):
        c = interp("f")
        rule = rule_from_terms("r", parse("f"), parse("g"), BASIC)
        res = saturate(c, Strategy(rules=[rule], max_steps=0))
        assert res.steps == 0
        assert iso(res.result, c) is not None

    def test_grows_alternatives_nondestructively(self):
        rule = rule_from_terms("r", parse("f"), parse("g"), BASIC)
        res = saturate(interp("f"), Strategy(rules=[rule]))
        assert res.saturated
        assert iso(res.result, interp("f + g")) is not None

    def test_monotone_component_set(self):
        rule = rule_from_terms("r", parse("f"), parse("g ; h"), BASIC)
        c = interp("f + (h ; h)")
        res = saturate(c, Strategy(rules=[rule]))
        before = components(normalize(c))
        after = components(normalize(res.result))
        for p in before:
            assert any(iso(p, q) is not None for q in after)

    def test_negative_budget_rejected(self):
        with pytest.raises(EngineError):
            Strategy(max_steps=-1)


SWAP = parse_signature("f0: 1 -> 1\nf1: 1 -> 1\ng: 1 -> 1\n")


def saturate_terms(lhs, rhs, host, sig=UNARY, **strategy):
    rule = rule_from_terms("r", parse(lhs), parse(rhs), sig)
    return saturate(interpret(parse(host), sig), Strategy(rules=[rule], **strategy))


class TestSaturateWorklist:
    def test_every_new_component_of_a_result_is_added(self):
        res = saturate_terms("f + g", "h + k", "f + g")
        assert res.saturated and res.steps == 2
        assert same_alternatives(res.result, ["f", "g", "h", "k"])

    def test_box_right_hand_side_splits_into_alternatives(self):
        res = saturate_terms("f", "f + h", "f + g", max_steps=6)
        assert res.saturated and res.steps == 1
        assert same_alternatives(res.result, ["f", "g", "h"])

    def test_fixpoint_reached_on_the_last_allowed_step(self):
        res = saturate_terms("f", "g", "f", max_steps=1)
        assert res.saturated and res.steps == 1
        assert same_alternatives(res.result, ["f", "g"])

    def test_zero_budget_without_a_match_is_saturated(self):
        res = saturate_terms("f", "g", "h", max_steps=0)
        assert res.saturated and res.steps == 0

    def test_budget_stops_before_a_new_alternative(self):
        res = saturate_terms("f", "g", "f", max_steps=0)
        assert not res.saturated and res.steps == 0
        res = saturate_terms("f ; g", "g ; f", "f ; g ; g", max_steps=1)
        assert not res.saturated and res.steps == 1
        assert same_alternatives(res.result, ["f ; g ; g", "g ; f ; g"])

    def test_top_box_match_resumes_the_worklist(self):
        rules = [rule_from_terms("join", parse("f + g"), parse("h"), UNARY),
                 rule_from_terms("step", parse("h"), parse("k"), UNARY)]
        res = saturate(interp("f + g", UNARY), Strategy(rules=rules))
        assert res.saturated and res.steps == 2
        assert same_alternatives(res.result, ["f", "g", "h", "k"])

    def test_duplicate_alternatives_are_stored_once(self):
        c = join_raw([interp("f"), interp("f")])
        res = saturate(c, Strategy(rules=[]))
        assert res.saturated and res.steps == 0 and res.result is c
        rule = rule_from_terms("r", parse("f"), parse("g"), BASIC)
        res = saturate(c, Strategy(rules=[rule]))
        assert res.saturated and res.steps == 1
        assert same_alternatives(res.result, ["f", "g"])

    @pytest.mark.parametrize("host, steps, dpo_steps", [
        pytest.param(" ; ".join(["f0 ; f1"] * 3), 19, 21, id="3-19"),
        pytest.param(" ; ".join(["f0 ; f1"] * 4), 69, 103, id="4-69"),
        pytest.param(" ; ".join(["f0 ; f1"] * 5), 251, 505, id="5-251"),
        pytest.param(" ; g ; ".join(["f0 ; f1"] * 6), 63, 161, id="6-sites"),
        pytest.param(" * ".join(["(f0 ; f1)"] * 4), 15, 25, id="4-strands"),
    ])
    def test_swap_chain_counts(self, monkeypatch, host, steps, dpo_steps):
        # Every DPO step cuts one boundary complement.  The worklist that
        # takes every step makes 60, 280, 1260, 384 and 64, and skipping
        # only the step back to each alternative's host 41, 211, 1009, 321
        # and 49.  Skipping also the steps that commute with a step already
        # taken about halves those.
        cuts = []
        real = rewrite.boundary_complement
        monkeypatch.setattr(rewrite, "boundary_complement", lambda m: cuts.append(m) or real(m))
        t0 = time.perf_counter()
        res = saturate_terms("f0 ; f1", "f1 ; f0", host, sig=SWAP, bidirectional=True,
                             max_steps=1000)
        assert time.perf_counter() - t0 < 20
        assert res.saturated and res.steps == steps
        assert len(components(res.result)) == steps + 1
        assert len(cuts) == dpo_steps

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_a_square_closes_only_through_a_step_taken(self, bidirectional):
        # Strand one reads a ; c, strand two c ; a.  The steps s and t are
        # parallel independent, but after t joins the two a's a path leads
        # from one c to the other, so s is no longer convex there: the
        # alternative that t made takes no s step to close the square.  A
        # skip of t after s that does not ask for that step adds only 3.
        sig = parse_signature("a: 1 -> 1\nb: 1 -> 1\nc: 1 -> 1\nm: 2 -> 1\nd: 1 -> 2\n")
        rules = [rule_from_terms("t", parse("a * a"), parse("m ; d"), sig),
                 rule_from_terms("s", parse("c * c"), parse("b * b"), sig)]
        host = interpret(parse("(a ; c) * (c ; a)"), sig)
        strategy = Strategy(rules=rules, bidirectional=bidirectional)
        res, expected = saturate(host, strategy), saturate_worklist_oracle(host, strategy)
        assert res.saturated and res.steps == expected.steps == 5
        assert dumps_cospan(res.result) == dumps_cospan(expected.result)

    def test_no_step_of_a_rule_with_strictly_internal_slots_is_skipped(self):
        # The wires of the right-hand side's box are strictly internal
        # slots, which ``apply`` appends after the host's, so a step and
        # the step back can reorder a slot block.  Skipping steps of this
        # rule on the nested box adds 2.
        rule = rule_from_terms("r", parse("s ; k"), parse("g + (a * id:1 ; sym:1,1 ; k)"), BASIC)
        host = join_raw([join_raw([interp("g"), interp("s ; k")]), interp("g")])
        strategy = Strategy(rules=[rule], bidirectional=True)
        res, expected = saturate(host, strategy), saturate_worklist_oracle(host, strategy)
        assert res.saturated and res.steps == expected.steps == 3
        assert dumps_cospan(res.result) == dumps_cospan(expected.result)

    def test_one_canonical_form_per_candidate_component(self, monkeypatch):
        # Every component that saturate considers is canonicalised once:
        # ``iso`` confirms a certificate hit on the forms already computed.
        counts = {"canonical": 0, "candidates": 0}
        real_canonical, real_components = cs.canonical, engine.components

        def canonical(c):
            counts["canonical"] += 1
            return real_canonical(c)

        def candidates(c):
            parts = real_components(c)
            counts["candidates"] += len(parts)
            return parts

        monkeypatch.setattr(cs, "canonical", canonical)
        monkeypatch.setattr(engine, "components", candidates)
        res = saturate_terms("f0 ; f1", "f1 ; f0", " ; ".join(["f0 ; f1"] * 4),
                             sig=SWAP, bidirectional=True)
        assert res.saturated and res.steps == 69
        assert counts["candidates"] > 69
        assert counts["canonical"] == counts["candidates"]


class TestExtract:
    def test_prefers_fewer_edges_by_default(self):
        t = extract(interp("(f ; g) + f"))
        assert print_term(t) == "f"

    def test_box_free_input_round_trips(self):
        t = extract(interp("h"))
        assert print_term(t) == "h"

    def test_cost_model_changes_the_winner(self):
        c = interp("(f ; g) + h")
        assert print_term(extract(c)) == "h"
        expensive_h = CostModel({"h": Fraction(10)})
        assert iso(interpret(extract(c, expensive_h), BASIC), interp("f ; g")) is not None

    def test_a_bare_wire_alternative_costs_nothing(self):
        # The nested box costs its cheapest alternative, the bare wire (0),
        # so the first alternative costs 1 (h) and beats g (5).
        costs = CostModel({"f": Fraction(10), "g": Fraction(5), "h": Fraction(1)})
        assert print_term(extract(interp("((f + id:1) ; h) + g"), costs)) == "h"

    def test_extracted_term_interprets_to_a_component(self):
        c = expected_stage_b()
        t = extract(c)
        ty = typecheck(t, ARITH)
        assert (ty.dom, ty.cod) == (0, 1)
        s = print_term(t)
        assert ("mul" in s) != ("shl" in s)
        assert is_mda_well_typed(interpret(t, ARITH)) == []


class TestExportDot:
    def test_identity_is_stable(self):
        c = identity_cospan(1)
        assert export_dot(c) == export_dot(c)
        assert "digraph" in export_dot(c)

    def test_alternatives_become_nested_clusters(self):
        c = interp("f + g")
        dot = export_dot(c)
        assert dot.count("subgraph cluster") >= 3  # the box and two branches
        assert "f" in dot and "g" in dot

    def test_deterministic_for_equal_inputs(self):
        a = interp("h ; (f + g)")
        b = interp("h ; (f + g)")
        assert export_dot(a) == export_dot(b)


class TestRuleAndCostFiles:
    def test_parse_rules(self):
        rules = parse_rules("swap : f ; g => g ; f\n# comment\n", BASIC)
        assert len(rules) == 1
        assert rules[0].name == "swap"
        assert iso(rules[0].lhs, interp("f ; g")) is not None

    def test_parse_rules_rejects_garbage(self):
        with pytest.raises(EngineError):
            parse_rules("not a rule line", BASIC)

    def test_parse_costs(self):
        m = parse_costs("f = 2\ng = 1/2\n")
        assert m.cost("f") == 2
        assert m.cost("g") * 2 == 1
        assert m.cost("unlisted") == 1

    def test_cost_model_rejects_a_negative_cost_when_built(self):
        with pytest.raises(EngineError, match="negative cost for 'f'"):
            CostModel({"g": Fraction(1), "f": Fraction(-1)})
