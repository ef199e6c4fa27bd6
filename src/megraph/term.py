"""Term syntax over a signature, with parsing, printing and interpretation.

Grammar (loosest to tightest binding)::

    join  := seq ('+' seq)*            n-ary alternative, flattened
    seq   := tens (';' tens)*          sequential composition, left-assoc
    tens  := atom ('*' atom)*          parallel composition, left-assoc
    atom  := '(' join ')' | 'id' ':' INT | 'sym' ':' INT ',' INT | NAME

Signature files contain lines ``name : n -> m``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .core import Generator, Signature
from . import cospan as cs


class TermTypeError(Exception):
    pass


class TermSyntaxError(Exception):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (column {position + 1})")


@dataclass(frozen=True)
class Gen:
    name: str


@dataclass(frozen=True)
class Id:
    width: int


@dataclass(frozen=True)
class Sym:
    left: int
    right: int


class _Link:
    """Equality, hashing and ``repr`` of a binary node, walking the
    left-associated chain that ends at the node with ``_chain`` instead of
    a stack frame per link: the parser and ``engine.term_of`` build such
    chains, as long as the input.  Equality and ``repr`` are those of the
    generated dataclass methods."""

    _names: tuple[str, str]  # the node's two fields

    def _operands(self) -> tuple["Term", list["Term"]]:
        """The chain's innermost first operand, and its other operands."""
        first, nodes = _chain(self)
        return first, [getattr(node, self._names[1]) for node in nodes]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._operands() == other._operands()

    def __hash__(self) -> int:
        first, rest = self._operands()
        return hash((first, tuple(rest)))

    def __repr__(self) -> str:
        first, rest = self._operands()
        head, tail = f"{type(self).__name__}({self._names[0]}=", f", {self._names[1]}="
        return head * len(rest) + repr(first) + "".join(f"{tail}{x!r})" for x in rest)


@dataclass(frozen=True, eq=False, repr=False)
class Comp(_Link):
    first: "Term"
    second: "Term"
    _names = ("first", "second")


@dataclass(frozen=True, eq=False, repr=False)
class Tensor(_Link):
    left: "Term"
    right: "Term"
    _names = ("left", "right")


@dataclass(frozen=True)
class Join:
    parts: tuple["Term", ...]

    def __post_init__(self):
        if not self.parts:
            raise TermTypeError("empty alternative")


Term = Union[Gen, Id, Sym, Comp, Tensor, Join]


@dataclass(frozen=True)
class TermType:
    dom: int
    cod: int


def typecheck(t: Term, sig: Signature) -> TermType:
    """Infer the type of a term; rejects subterms with no inputs and no outputs."""
    ty = _infer(t, sig)
    return ty


def _chain(t: Union[Comp, Tensor]) -> tuple[Term, list[Union[Comp, Tensor]]]:
    """The innermost first operand of the left-associated chain of ``t``'s
    kind that ends at ``t``, and the chain's nodes from the innermost out.

    The parser and ``engine.term_of`` build chains this way, so walking one
    with a loop takes no stack frame per link."""
    nodes = []
    if isinstance(t, Comp):
        while isinstance(t, Comp):
            nodes.append(t)
            t = t.first
    else:
        while isinstance(t, Tensor):
            nodes.append(t)
            t = t.left
    nodes.reverse()
    return t, nodes


def _infer(t: Term, sig: Signature) -> TermType:
    if isinstance(t, Gen):
        if t.name not in sig:
            raise TermTypeError(f"unknown generator: {t.name}")
        ar, coar = sig.arity(t.name)
        ty = TermType(ar, coar)
    elif isinstance(t, Id):
        if t.width < 0:
            raise TermTypeError("identity of negative width")
        ty = TermType(t.width, t.width)
    elif isinstance(t, Sym):
        if t.left < 0 or t.right < 0:
            raise TermTypeError("wire crossing of negative width")
        ty = TermType(t.left + t.right, t.left + t.right)
    elif isinstance(t, Comp):
        first, nodes = _chain(t)
        ty = _infer(first, sig)
        for node in nodes:
            b = _infer(node.second, sig)
            if ty.cod != b.dom:
                raise TermTypeError(
                    f"composition mismatch: {ty.cod} outputs vs {b.dom} inputs"
                )
            ty = TermType(ty.dom, b.cod)
            if ty.dom == 0 and ty.cod == 0:
                _reject_empty(node)
        return ty
    elif isinstance(t, Tensor):
        # Operands are not 0 -> 0, so neither is any node of the chain.
        first, nodes = _chain(t)
        ty = _infer(first, sig)
        for node in nodes:
            b = _infer(node.right, sig)
            ty = TermType(ty.dom + b.dom, ty.cod + b.cod)
        return ty
    elif isinstance(t, Join):
        types = {_infer(part, sig) for part in t.parts}
        if len(types) > 1:
            raise TermTypeError(f"alternative branches differ in type: {sorted((x.dom, x.cod) for x in types)}")
        ty = types.pop()
    else:  # pragma: no cover
        raise TermTypeError(f"unknown term node: {t!r}")
    if ty.dom == 0 and ty.cod == 0:
        _reject_empty(t)
    return ty


def _reject_empty(t: Term) -> None:
    raise TermTypeError(f"subterm of type 0 -> 0 is not supported: {print_term(t)}")


def interpret(t: Term, sig: Signature) -> cs.ExtendedCospan:
    """Compile a term to a cospan, structurally."""
    typecheck(t, sig)
    return _interp(t, sig)


def _interp(t: Term, sig: Signature) -> cs.ExtendedCospan:
    if isinstance(t, Gen):
        return cs.generator_cospan(sig[t.name])
    if isinstance(t, Id):
        return cs.identity_cospan(t.width)
    if isinstance(t, Sym):
        return cs.symmetry_cospan(t.left, t.right)
    if isinstance(t, Comp):
        first, nodes = _chain(t)
        c = _interp(first, sig)
        for node in nodes:
            c = cs.compose(c, _interp(node.second, sig))
        return c
    if isinstance(t, Tensor):
        first, nodes = _chain(t)
        c = _interp(first, sig)
        for node in nodes:
            c = cs.tensor(c, _interp(node.right, sig))
        return c
    if isinstance(t, Join):
        return cs.join([_interp(part, sig) for part in t.parts])
    raise TermTypeError(f"unknown term node: {t!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN = re.compile(rf"\s*(?:(?P<name>{_NAME})|(?P<int>\d+)|(?P<sym>[;*+():,]))")
# Names that the grammar reads as wirings, so that no generator can have them.
_KEYWORDS = frozenset({"id", "sym"})
_GENERATOR_NAME = re.compile(_NAME)


def is_generator_name(name: str) -> bool:
    """Whether a term can name a generator ``name``: a name token of the
    grammar other than ``id`` and ``sym``."""
    return name not in _KEYWORDS and _GENERATOR_NAME.fullmatch(name) is not None


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise TermSyntaxError(f"unexpected character {stripped[0]!r}", pos)
        if m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        elif m.group("int"):
            tokens.append(("int", m.group("int"), m.start("int")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise TermSyntaxError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect(self, value: str):
        tok = self.next()
        if tok[1] != value:
            raise TermSyntaxError(f"expected {value!r}, got {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Term:
        t = self.join()
        if self.peek() is not None:
            tok = self.peek()
            raise TermSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
        return t

    def join(self) -> Term:
        parts = [self.seq()]
        while self.peek() and self.peek()[1] == "+":
            self.next()
            part = self.seq()
            if isinstance(part, Join):
                parts.extend(part.parts)
            else:
                parts.append(part)
        head = parts[0]
        if len(parts) == 1:
            return head
        flat: list[Term] = []
        for p in parts:
            flat.extend(p.parts if isinstance(p, Join) else (p,))
        return Join(tuple(flat))

    def seq(self) -> Term:
        t = self.tens()
        while self.peek() and self.peek()[1] == ";":
            self.next()
            t = Comp(t, self.tens())
        return t

    def tens(self) -> Term:
        t = self.atom()
        while self.peek() and self.peek()[1] == "*":
            self.next()
            t = Tensor(t, self.atom())
        return t

    def atom(self) -> Term:
        tok = self.next()
        kind, value, at = tok
        if value == "(":
            inner = self.join()
            self.expect(")")
            return inner
        if kind == "name" and value == "id":
            self.expect(":")
            n = self.next()
            if n[0] != "int":
                raise TermSyntaxError("expected width after 'id:'", n[2])
            return Id(int(n[1]))
        if kind == "name" and value == "sym":
            self.expect(":")
            a = self.next()
            self.expect(",")
            b = self.next()
            if a[0] != "int" or b[0] != "int":
                raise TermSyntaxError("expected widths after 'sym:'", at)
            return Sym(int(a[1]), int(b[1]))
        if kind == "name":
            return Gen(value)
        raise TermSyntaxError(f"unexpected token {value!r}", at)


def parse(text: str) -> Term:
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        tok = parser.peek()
        raise TermSyntaxError("term nested too deeply",
                              tok[2] if tok else len(text)) from None


def print_term(t: Term) -> str:
    return _print(t, 0)


def _print(t: Term, level: int) -> str:
    # Levels: 0 = alternative, 1 = sequential, 2 = parallel, 3 = atom.
    if isinstance(t, Gen):
        return t.name
    if isinstance(t, Id):
        return f"id:{t.width}"
    if isinstance(t, Sym):
        return f"sym:{t.left},{t.right}"
    if isinstance(t, Join):
        body = " + ".join(_print(p, 1) for p in t.parts)
        return f"({body})" if level > 0 else body
    # A chain is printed from its last operand back along its left spine,
    # without ``_chain``'s node list, which made printing slower.
    if isinstance(t, Comp):
        parts = []
        while isinstance(t, Comp):
            parts.append(_print(t.second, 2))
            t = t.first
        parts.append(_print(t, 1))
        parts.reverse()
        body = " ; ".join(parts)
        return f"({body})" if level > 1 else body
    if isinstance(t, Tensor):
        parts = []
        while isinstance(t, Tensor):
            parts.append(_print(t.right, 3))
            t = t.left
        parts.append(_print(t, 2))
        parts.reverse()
        body = " * ".join(parts)
        return f"({body})" if level > 2 else body
    raise ValueError(f"unknown term node: {t!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Signature files
# ---------------------------------------------------------------------------

_SIG_LINE = re.compile(
    rf"^\s*(?P<name>{_NAME})\s*:\s*(?P<dom>\d+)\s*->\s*(?P<cod>\d+)\s*$"
)


def parse_signature(text: str, cartesian: bool = False) -> Signature:
    """Parse ``name : n -> m`` lines; '#' starts a comment, blank lines skipped."""
    gens = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SIG_LINE.match(line)
        if not m:
            raise ValueError(f"signature line {lineno}: cannot parse {raw!r}")
        if m.group("name") in _KEYWORDS:
            raise ValueError(f"signature line {lineno}: {m.group('name')!r} is a wiring "
                             "of the term grammar, not a generator name")
        gens.append(Generator(m.group("name"), int(m.group("dom")), int(m.group("cod"))))
    return Signature(gens, cartesian=cartesian)
