"""Unit tests for term syntax: type checking, parsing, printing, and
interpretation into extended cospans."""

import pytest

from megraph.cospan import is_mda_well_typed, iso, join
from megraph.term import (
    Comp,
    Gen,
    Id,
    Join,
    Sym,
    Tensor,
    TermSyntaxError,
    TermType,
    TermTypeError,
    interpret,
    is_generator_name,
    parse,
    parse_signature,
    print_term,
    typecheck,
)

from .helpers import ARITH, BASIC, interp


class TestTypecheck:
    def test_generator_type(self):
        ty = typecheck(Gen("mul"), ARITH)
        assert (ty.dom, ty.cod) == (2, 1)

    def test_zero_to_zero_rejected(self):
        with pytest.raises(TermTypeError):
            typecheck(Comp(Gen("a"), Gen("del")), ARITH)

    def test_zero_to_zero_inside_a_chain_rejected(self):
        with pytest.raises(TermTypeError, match="0 -> 0 .*: a \\* a ; mul ; del$"):
            typecheck(parse("a * a ; mul ; del ; a"), ARITH)

    def test_join_of_identity_and_generator(self):
        ty = typecheck(Join((Id(1), Gen("f"))), BASIC)
        assert (ty.dom, ty.cod) == (1, 1)

    def test_unknown_generator(self):
        with pytest.raises(TermTypeError):
            typecheck(Gen("nope"), BASIC)

    def test_composition_mismatch(self):
        with pytest.raises(TermTypeError):
            typecheck(Comp(Gen("f"), Gen("k")), BASIC)

    def test_join_branch_mismatch(self):
        with pytest.raises(TermTypeError):
            typecheck(Join((Gen("f"), Gen("k"))), BASIC)


class TestParsePrint:
    def test_precedence(self):
        t = parse("a ; dup ; (mul * id:1)")
        assert t == Comp(
            Comp(Gen("a"), Gen("dup")), Tensor(Gen("mul"), Id(1))
        )

    def test_join_is_nary_and_flattened(self):
        t = parse("f + g + h")
        assert t == Join((Gen("f"), Gen("g"), Gen("h")))

    def test_syntax_error_with_position(self):
        with pytest.raises(TermSyntaxError):
            parse("(")

    def test_symmetry_literal(self):
        assert parse("sym:2,3") == Sym(2, 3)

    def test_roundtrip_print_then_parse(self):
        for text in [
            "f ; g ; h",
            "(f * g) ; k",
            "f + g + h",
            "a ; (f + g)",
            "sym:1,1 ; (f * g)",
            "id:2",
            "(f ; g) + (g ; f)",
        ]:
            t = parse(text)
            assert parse(print_term(t)) == t


class TestInterpret:
    def test_identity_wire(self):
        c = interpret(Id(1), BASIC)
        assert len(c.carrier.vertices) == 1
        assert len(c.carrier.edges) == 0
        assert c.int_in == c.int_out
        assert c.arity == c.coarity == 1

    def test_shared_constant_diagram_shape(self):
        c = interpret(parse("(a * (two ; dup)) ; (mul * id:1) ; div"), ARITH)
        labels = sorted(l for l in c.carrier.label.values())
        assert labels == ["a", "div", "dup", "mul", "two"]
        assert len(c.carrier.vertices) == 6
        assert is_mda_well_typed(c) == []
        assert (c.arity, c.coarity) == (0, 1)

    def test_join_term_matches_join_of_parts(self):
        t = Join((Gen("f"), Gen("g")))
        assert (
            iso(interpret(t, BASIC), join([interp("f"), interp("g")]))
            is not None
        )

    def test_symmetry_compiles_to_crossed_wires(self):
        c = interpret(Sym(1, 1), BASIC)
        assert len(c.carrier.vertices) == 2
        assert len(c.carrier.edges) == 0
        assert c.ext_in_vertices() == tuple(reversed(c.ext_out_vertices()))

    def test_every_interpretation_is_mda_well_typed(self):
        for text in ["f ; g", "f * g", "s ; (f * g) ; k", "a ; (f + (g ; h))"]:
            assert is_mda_well_typed(interp(text)) == []


class TestLongTerms:
    """Chains longer than the interpreter's recursion limit, left-associated
    as the parser builds them, and parentheses nested deeper than it."""

    N = 3000

    @pytest.mark.parametrize("op, ty", [(" ; ", TermType(1, 1)), (" * ", TermType(N, N))])
    def test_chain_typechecks_and_prints_back(self, op, ty):
        text = op.join(["f"] * self.N)
        t = parse(text)
        assert typecheck(t, BASIC) == ty
        assert print_term(t) == text

    @pytest.mark.parametrize("op", [" ; ", " * "])
    def test_chain_compares_hashes_and_reprs(self, op):
        text = op.join(["f"] * self.N)
        t, u = parse(text), parse(text)
        assert t == u and hash(t) == hash(u)
        assert t != parse(op.join(["f"] * (self.N - 1) + ["g"]))
        assert t != parse(f"f{op}({op.join(['f'] * (self.N - 1))})")
        name, first, second = ("Comp", "first", "second") if op == " ; " else \
            ("Tensor", "left", "right")
        assert repr(t) == (f"{name}({first}=" * (self.N - 1) + "Gen(name='f')"
                           + f", {second}=Gen(name='f'))" * (self.N - 1))

    def test_short_terms_keep_the_dataclass_repr(self):
        t = parse("(f * g) ; (h + k)")
        assert repr(t) == ("Comp(first=Tensor(left=Gen(name='f'), right=Gen(name='g')), "
                           "second=Join(parts=(Gen(name='h'), Gen(name='k'))))")
        assert t == Comp(Tensor(Gen("f"), Gen("g")), Join((Gen("h"), Gen("k"))))
        assert {t: 1}[parse("(f * g) ; (h + k)")] == 1
        assert Comp(Gen("f"), Gen("g")) != Tensor(Gen("f"), Gen("g"))

    def test_deep_nesting_is_a_syntax_error(self):
        with pytest.raises(TermSyntaxError, match="term nested too deeply"):
            parse("(" * 1200 + "f" + ")" * 1200)


class TestGeneratorNames:
    @pytest.mark.parametrize("name", ["f", "_x1", "mul", "idx", "symbol", "Id"])
    def test_names_that_read_back(self, name):
        assert is_generator_name(name)
        assert parse(name) == Gen(name)

    @pytest.mark.parametrize("name", ["id", "sym", "f g", "", "1f", "f;g", 'a"];evil'])
    def test_names_that_do_not(self, name):
        assert not is_generator_name(name)

    @pytest.mark.parametrize("name", ["id", "sym"])
    def test_signature_rejects_grammar_words(self, name):
        with pytest.raises(ValueError, match=f"line 2: '{name}' is a wiring"):
            parse_signature(f"f : 1 -> 1\n{name} : 1 -> 1\n")
