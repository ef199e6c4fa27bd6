"""Shared test utilities: signatures, term builders, seeded random terms."""

from __future__ import annotations

import random
from typing import Optional

from megraph import term as tm
from megraph.core import EHomomorphism, EHypergraph
from megraph.cospan import iso
from megraph.engine import components
from megraph.term import Comp, Gen, Id, Join, Sym, Tensor, interpret, parse, parse_signature

BASIC_SIG_TEXT = """
f: 1 -> 1
g: 1 -> 1
h: 1 -> 1
k: 2 -> 1
s: 1 -> 2
a: 0 -> 1
b: 0 -> 1
c: 0 -> 1
"""

ARITH_SIG_TEXT = """
a: 0 -> 1
one: 0 -> 1
two: 0 -> 1
mul: 2 -> 1
shl: 2 -> 1
div: 2 -> 1
"""

FIG14_SIG_TEXT = """
a: 0 -> 1
b: 0 -> 1
c: 0 -> 1
f: 2 -> 1
plus: 2 -> 1
"""

BASIC = parse_signature(BASIC_SIG_TEXT)
# Four unary generators, so that two-branch rules such as f + g => h + k type.
UNARY = parse_signature("f: 1 -> 1\ng: 1 -> 1\nh: 1 -> 1\nk: 1 -> 1\n")
BASIC_CART = parse_signature(BASIC_SIG_TEXT, cartesian=True)
ARITH = parse_signature(ARITH_SIG_TEXT, cartesian=True)
FIG14 = parse_signature(FIG14_SIG_TEXT, cartesian=True)


def interp(text: str, sig=BASIC):
    return interpret(parse(text), sig)


def same_alternatives(c, texts, sig=UNARY):
    """``c``'s alternatives are, up to iso and order, the distinct diagrams of
    the given terms."""
    wanted: list = []
    for text in texts:
        w = interpret(parse(text), sig)
        if all(iso(w, other) is None for other in wanted):
            wanted.append(w)
    parts = components(c)
    return len(parts) == len(wanted) and all(
        any(iso(p, w) is not None for p in parts) for w in wanted
    )


def expand(t: tm.Term) -> list[tm.Term]:
    """The box-free terms that ``t``'s alternatives stand for: ``Join``
    distributed over ``Comp`` and ``Tensor``, nested joins flattened."""
    if isinstance(t, Join):
        return [u for part in t.parts for u in expand(part)]
    if isinstance(t, Comp):
        return [Comp(a, b) for a in expand(t.first) for b in expand(t.second)]
    if isinstance(t, Tensor):
        return [Tensor(a, b) for a in expand(t.left) for b in expand(t.right)]
    return [t]


def comp(*parts: tm.Term) -> tm.Term:
    t = parts[0]
    for p in parts[1:]:
        t = Comp(t, p)
    return t


def tens(*parts: tm.Term) -> tm.Term:
    t = parts[0]
    for p in parts[1:]:
        t = Tensor(t, p)
    return t


def pad(t: tm.Term, left: int, right: int) -> tm.Term:
    """``t`` running in parallel with ``left``/``right`` identity wires."""
    if left:
        t = Tensor(Id(left), t)
    if right:
        t = Tensor(t, Id(right))
    return t


# Building blocks available to the random generators (name, arity, coarity).
_BLOCKS = [("f", 1, 1), ("g", 1, 1), ("h", 1, 1), ("k", 2, 1), ("s", 1, 2), ("a", 0, 1)]


def random_layer(rng: random.Random, width: int, target: int) -> tuple[tm.Term, int]:
    """One parallel slice acting on ``width`` wires, biased toward ``target``."""
    options = [(n, ar, co) for n, ar, co in _BLOCKS if ar <= width]
    if width < target:
        options = [o for o in options if o[2] > o[1]] or options
    elif width > target:
        options = [o for o in options if o[2] < o[1]] or options
    name, ar, co = rng.choice(options)
    pos = rng.randrange(width - ar + 1) if width > ar else 0
    return pad(Gen(name), pos, width - ar - pos), width - ar + co


def random_term(
    rng: random.Random, dom: int, cod: int, size: int = 4
) -> tm.Term:
    """A random well-typed term ``dom -> cod`` with roughly ``size`` slices."""
    for _ in range(200):
        width = dom
        layers: list[tm.Term] = []
        for _ in range(size + 6):
            if width == cod and len(layers) >= 1 and rng.random() < 0.45:
                break
            if width == 0:
                layers.append(Gen("a"))
                width = 1
                continue
            layer, width = random_layer(rng, width, cod)
            layers.append(layer)
            if len(layers) >= size and width == cod:
                break
        if width == cod and layers:
            return comp(*layers)
        if width == cod and dom == cod and dom > 0:
            return Id(dom)
    raise AssertionError(f"could not generate a term {dom} -> {cod}")


def gen_count(t: tm.Term) -> int:
    if isinstance(t, Gen):
        return 1
    if isinstance(t, (Id, Sym)):
        return 0
    if isinstance(t, Comp):
        return gen_count(t.first) + gen_count(t.second)
    if isinstance(t, Tensor):
        return gen_count(t.left) + gen_count(t.right)
    return sum(gen_count(p) for p in t.parts)


def identity_hom(g: EHypergraph) -> EHomomorphism:
    return EHomomorphism(
        dom=g, cod=g, vmap={v: v for v in g.vertices}, emap={e: e for e in g.edges}
    )


def then(h: EHomomorphism, k: EHomomorphism) -> EHomomorphism:
    """``h`` followed by ``k``."""
    if k.dom is not h.cod:
        raise ValueError("composition mismatch")
    return EHomomorphism(
        dom=h.dom,
        cod=k.cod,
        vmap={v: k.vmap[w] for v, w in h.vmap.items()},
        emap={e: k.emap[d] for e, d in h.emap.items()},
    )
