"""Round-trip tests for the structured-text graph/diagram/e-graph formats."""

import json

import pytest

from megraph.cospan import iso, join
from megraph.egraph import ENode, egraph_of_term_tree, translate
from megraph.serialize import (
    SerializationError,
    dumps_cospan,
    dumps_egraph,
    loads_cospan,
    loads_egraph,
)

from .helpers import ARITH, interp
from .oracles import canonical_renumber


class TestCospanRoundTrip:
    CASES = [
        "f",
        "f ; g",
        "f * g",
        "s ; (f * f) ; k",
        "h ; (f + g)",
        "a ; ((f ; g) + h)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_loads_inverts_dumps_up_to_iso(self, text):
        c = interp(text)
        assert iso(loads_cospan(dumps_cospan(c)), c) is not None

    @pytest.mark.parametrize("text", CASES)
    def test_bit_exact_after_canonical_renumbering(self, text):
        c = canonical_renumber(interp(text))
        once = dumps_cospan(c)
        again = dumps_cospan(canonical_renumber(loads_cospan(once)))
        assert once == again

    def test_boxes_survive_the_round_trip(self):
        c = join([interp("f"), interp("g")])
        back = loads_cospan(dumps_cospan(c))
        assert sum(1 for e in back.carrier.edges if back.carrier.label[e] is None) == 1
        assert iso(back, c) is not None

    def test_garbage_is_rejected(self):
        with pytest.raises(SerializationError):
            loads_cospan("not a diagram")
        with pytest.raises(SerializationError):
            loads_cospan("{}")

    def test_repeated_parent_entry_is_rejected(self):
        doc = json.loads(dumps_cospan(interp("f + g")))
        first = doc["parents"][0]["child"]
        doc["parents"] += [dict(pd, component=1 - pd["component"]) for pd in doc["parents"]]
        with pytest.raises(SerializationError, match=f"duplicate parent entry for {first}$"):
            loads_cospan(json.dumps(doc))


def edited(doc, path, value):
    """``doc`` with the value at ``path`` (keys and indices) replaced."""
    doc = json.loads(json.dumps(doc))
    *inner, last = path
    at = doc
    for key in inner:
        at = at[key]
    at[last] = value
    return json.dumps(doc)


class TestReaderTypes:
    """Each field must have its JSON type; nothing is converted."""

    COSPAN = json.loads(dumps_cospan(interp("h ; (f + g)")))
    EGRAPH = json.loads(dumps_egraph(egraph_of_term_tree(("mul", "a", "two"))[0]))

    @pytest.mark.parametrize("path", [("vertices",), ("edges",), ("edges", 0, "sources"),
                                      ("edges", 0, "targets"), ("parents",), ("int_in",),
                                      ("int_out",), ("ext_in",), ("ext_out",)])
    def test_cospan_lists_must_be_lists(self, path):
        with pytest.raises(SerializationError, match="must be a JSON list"):
            loads_cospan(edited(self.COSPAN, path, "0"))

    @pytest.mark.parametrize("value", [1.9, 1.0, True, "1"])
    @pytest.mark.parametrize("path", [("vertices", 1), ("edges", 0, "id"),
                                      ("edges", 0, "sources", 0), ("parents", 0, "parent"),
                                      ("parents", 0, "component"), ("int_out", 0),
                                      ("ext_in", 0)])
    def test_cospan_ids_and_positions_must_be_integers(self, path, value):
        with pytest.raises(SerializationError, match="must be a JSON (list of )?integer"):
            loads_cospan(edited(self.COSPAN, path, value))

    def test_cospan_labels_must_be_strings(self):
        with pytest.raises(SerializationError, match="edge label must be a JSON string"):
            loads_cospan(edited(self.COSPAN, ("edges", 0, "label"), 5))

    @pytest.mark.parametrize("path", [("classes",), ("classes", 0, "nodes"),
                                      ("classes", 2, "nodes", 0, "children")])
    def test_egraph_lists_must_be_lists(self, path):
        with pytest.raises(SerializationError, match="must be a JSON list"):
            loads_egraph(edited(self.EGRAPH, path, "0"))

    @pytest.mark.parametrize("value", [1.5, 0.0, False, "0"])
    @pytest.mark.parametrize("path", [("classes", 0, "id"),
                                      ("classes", 2, "nodes", 0, "children", 0)])
    def test_egraph_ids_must_be_integers(self, path, value):
        with pytest.raises(SerializationError, match="must be a JSON (list of )?integer"):
            loads_egraph(edited(self.EGRAPH, path, value))

    def test_egraph_heads_must_be_strings(self):
        with pytest.raises(SerializationError, match="head must be a JSON string"):
            loads_egraph(edited(self.EGRAPH, ("classes", 0, "nodes", 0, "head"), 5))


class TestEGraphRoundTrip:
    def test_round_trip_preserves_translation(self):
        eg, _ = egraph_of_term_tree(("div", ("mul", "a", "two"), "two"))
        back = loads_egraph(dumps_egraph(eg))
        assert back.check_invariants() == []
        assert iso(translate(back, ARITH), translate(eg, ARITH)) is not None

    def test_round_trip_preserves_classes(self):
        eg, root = egraph_of_term_tree(("mul", "a", "two"))
        extra = eg.add(ENode("one", ()))
        shl = eg.add(ENode("shl", (eg.hashcons[ENode("a", ())], extra)))
        eg.merge(shl, root)
        back = loads_egraph(dumps_egraph(eg))
        assert {frozenset(map(repr, back.nodes(c))) for c in back.class_ids()} == {
            frozenset(map(repr, eg.nodes(c))) for c in eg.class_ids()
        }

    def test_garbage_is_rejected(self):
        with pytest.raises(SerializationError):
            loads_egraph("nonsense")

    @pytest.mark.parametrize("classes, message", [
        ([{"id": 0, "nodes": [{"head": "mul", "children": [0, 7]}]}], "unknown class 7"),
        ([{"id": 0, "nodes": []}], "class 0 has no nodes"),
        ([{"id": 0, "nodes": [{"head": "a", "children": []}]},
          {"id": 0, "nodes": [{"head": "mul", "children": [0, 0]}]}], "duplicate class id 0"),
        ([{"id": 0, "nodes": [{"head": "a", "children": []}]},
          {"id": 1, "nodes": [{"head": "a", "children": []}]}], "congruent nodes"),
    ])
    def test_malformed_classes_are_named(self, classes, message):
        with pytest.raises(SerializationError, match=message):
            loads_egraph(json.dumps({"classes": classes}))
