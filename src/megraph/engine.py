"""Rewriting engine: normalization, saturation, extraction, DOT export.

Normalization drives the forward structural schemas to a fixpoint, yielding
a (possibly trivial) alternative of box-free, pairwise non-isomorphic
subdiagrams.  Saturation grows the alternative structure non-destructively:
every rule application whose result contributes a new alternative (up to
isomorphism) is joined into the graph.  Extraction picks one alternative per
hierarchical edge minimizing a per-generator cost and re-expresses the
pruned diagram as a term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, NamedTuple, Optional

from . import cospan as cs
from .cospan import ExtendedCospan
from . import term as tm
from .rewrite import (
    Glued,
    Match,
    RewriteRule,
    _bare_wire,
    _top_box,
    alternative,
    apply,
    choose,
    components,
    find_matches,
    structural_matches,
)


class EngineError(Exception):
    pass


@dataclass
class Strategy:
    rules: list[RewriteRule] = field(default_factory=list)
    max_steps: int = 100
    bidirectional: bool = False

    def __post_init__(self) -> None:
        if self.max_steps < 0:
            raise EngineError("max_steps must be non-negative")


DEFAULT_COST = Fraction(1)


@dataclass
class CostModel:
    """Cost per generator label; a label with no entry costs ``DEFAULT_COST``.
    Every cost is checked to be non-negative when the model is built."""

    costs: dict[str, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        bad = next((label for label, c in self.costs.items() if c < 0), None)
        if bad is not None:
            raise EngineError(f"negative cost for {bad!r}")

    def cost(self, label: str) -> Fraction:
        return self.costs.get(label, DEFAULT_COST)


def parse_costs(text: str) -> CostModel:
    """Parse ``name = cost`` lines; '#' starts a comment.  A line with an
    empty name or a negative cost is rejected with its line number."""
    costs: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise EngineError(f"cost line {lineno}: cannot parse {raw!r}")
        name, val = (part.strip() for part in line.split("=", 1))
        if not name:
            raise EngineError(f"cost line {lineno}: empty name")
        try:
            costs[name] = Fraction(val)
        except (ValueError, ZeroDivisionError) as exc:
            raise EngineError(f"cost line {lineno}: {exc}") from exc
        if costs[name] < 0:
            raise EngineError(f"cost line {lineno}: negative cost for {name!r}")
    return CostModel(costs)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def normalize(
    c: ExtendedCospan, budget: int = 10_000, order: str = "first"
) -> ExtendedCospan:
    """Apply forward structural schemas to a fixpoint.

    ``order`` selects which available step runs first ("first" or "last"),
    used to probe order-independence; "first" builds only the instance it
    applies.  A box beside a bare wire (as in
    ``(f + g) * id:1``) has no tensor-distribution step, because no match
    exists for a left-hand side with a bare wire; such a box is left
    unnormalized.  Raises :class:`EngineError` when a step is still
    available after ``budget`` steps, and for a negative budget or an unknown
    order.
    """
    if budget < 0:
        raise EngineError("normalization budget must be non-negative")
    if order not in ("first", "last"):
        raise EngineError(f"unknown normalization order {order!r}")
    cur, steps = c, 0
    while True:
        insts = structural_matches(cur)
        inst = next(insts if order == "first" else reversed(list(insts)), None)
        if inst is None:
            break
        if steps == budget:
            raise EngineError("normalization step budget exceeded")
        cur, steps = apply(inst[1]), steps + 1
    # Rejoined from its components, a top-level box has its wires in
    # external-interface order, whatever order the steps left them in.
    return cs.join(components(cur))


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------


@dataclass
class SaturationResult:
    """``steps`` is the number of alternatives added.  ``saturated`` is True
    when the fixpoint was reached, and False only when a new alternative was
    found after ``max_steps`` had already been added; ``result`` then holds
    the first ``max_steps`` additions in the order they were found."""

    result: ExtendedCospan
    steps: int
    saturated: bool


def saturate(c: ExtendedCospan, s: Strategy) -> SaturationResult:
    """Join in every alternative that a rule application produces.

    Worklist (semi-naive) evaluation: the alternatives of ``c`` and every
    new one found are each matched once against each rule (and its reverse
    under ``bidirectional``), on their own.  Every component of each result
    that is not isomorphic to a stored alternative is stored and queued.  A
    match spanning several alternatives must contain the top-level box, so
    when the worklist drains, the rules whose left-hand side has a box are
    also matched against the joined diagram, keeping only the matches of its
    top box; anything they add resumes the worklist.  Returns ``c`` itself
    when nothing was added.

    Some steps are known in advance to give back a stored alternative, and
    are not applied.  Let X be an alternative stored whole from the step s
    at the alternative P, and m a match in X:

    - Under ``bidirectional``, m is the reversed rule at s's comatch.  That
      step undoes s and gives back P (the inverse direct derivation).
    - m lies in what s kept, so it is the image of a match t in P under s's
      context map (``Glued.context``); P took t, which led to the stored Y;
      and Y took s carried into Y through t's context map and, when t's
      result was a duplicate, ``iso``'s witness.  Both carried maps being
      defined means that s and t are parallel independent, and by the
      Local Church-Rosser theorem (Ehrig et al., *Fundamentals of
      Algebraic Graph Transformation*, 2006, Thm. 5.12) two parallel
      independent steps give isomorphic results in either order.  The
      step taken at Y closes the square: its result, which is stored, is
      isomorphic to m's.  That Y took s is checked, not only that s can be
      carried there, since after t the image of s need not be convex.

    The step back is recorded as a step X took, leading to P, so that at
    X·q the match that undoes s closes its square through the step q
    carried back into P, where P took it.  A skipped step would add
    nothing, so the stored alternatives, their order, ``steps`` and
    ``saturated`` are those of taking every step.

    Steps are recorded only where the result was stored whole (not split
    into the alternatives of a top-level box), by rules with neither
    strictly internal slots on either side, which ``apply`` would append
    after the host's and so could reorder a slot block that ``iso``
    compares, nor a bare wire on the right-hand side, which would glue two
    host vertices, so that the context map would not be injective.  Such a
    rule has no box, as the wires of a box's alternatives are strictly
    internal slots; so the host of such a step was stored whole too, since
    in a host that is one top-level box the match lies inside the box,
    which stays in the result.  The top-box pass records nothing.  Maps
    are compared whole, since a side with automorphisms can match one
    image in several ways, with different results.  On the bidirectional
    swap ``f0;f1 => f1;f0`` over ``(f0;f1)×3/×4/×5`` this takes 21, 103
    and 505 DPO steps, where taking every step takes 60, 280 and 1,260.
    """
    rules = list(s.rules)
    n = len(rules)
    if s.bidirectional:
        rules += [r.reversed() for r in s.rules]
    # The rules whose steps may be recorded and skipped, and the index of
    # each one's reverse, where the step back may be skipped.
    plain = [not _strict_slots(r) and not _bare_wire(r.rhs) for r in rules]
    undoes = [(i + n) % len(rules) if s.bidirectional and plain[i] else None
              for i in range(len(rules))]
    boxed = [i for i, r in enumerate(rules)
             if any(map(r.lhs.carrier.is_box, r.lhs.carrier.edges))]
    stored: dict[Hashable, tuple[ExtendedCospan, cs.Canonical, int]] = {}
    comps: list[ExtendedCospan] = []
    origins: list[Optional[_Origin]] = []
    # For each processed alternative, where its recorded steps lead, by key:
    # the index of a stored alternative, and the vertex and edge maps into
    # it from the elements the step kept.
    led: list[dict[_Key, _Lead]] = []

    def lookup(part: ExtendedCospan) -> tuple[int, Optional[cs.IsoWitness]]:
        """The index of the stored alternative isomorphic to ``part`` and
        ``iso``'s witness, which confirms a hit on the two canonical forms
        already computed; or, after storing ``part`` under the next index
        when there is none, that index and None."""
        form = cs.canonical(part)
        old, old_form, k = stored.setdefault(form.cert, (part, form, len(comps)))
        return k, None if old is part else cs.iso(part, old, form, old_form)

    def push(part: ExtendedCospan, origin: Optional[_Origin]) -> None:
        comps.append(part)
        origins.append(origin)
        led.append({})

    for part in components(c):
        if lookup(part)[0] == len(comps):
            push(part, None)
    initial = len(comps)

    def add(m: Match, i: int, x: Optional[int] = None, key: Optional[_Key] = None) -> bool:
        """Store the new components of ``m``'s result, where ``m`` matches
        ``rules[i]`` in ``comps[x]`` with the key ``key`` (both None in the
        top-box pass); False past the budget."""
        result = apply(m)
        parts = components(result)
        whole = key is not None and plain[i] and parts[0] is result
        if parts[0] is result:  # stored without the complement its context map holds
            parts = [ExtendedCospan(result.carrier, result.int_in, result.int_out,
                                    result.ext_in, result.ext_out)]
        ctx = result.context
        for new in parts:
            k, wit = lookup(new)
            if k == len(comps):
                if k - initial == s.max_steps:
                    return False
                push(new, _Origin.of(x, key, result, undoes[i]) if whole else None)
            if whole:
                vs, es = ctx.vmap, ctx.emap
                if wit is not None:
                    vs = {a: wit.alpha.vmap[b] for a, b in vs.items()}
                    es = {a: wit.alpha.emap[b] for a, b in es.items()}
                led[x][key] = (k, vs, es)
        return True

    def known(x: int, key: _Key, o: _Origin) -> bool:
        """Whether the step ``key`` at ``comps[x]``, which ``o`` made, is
        known to give a stored alternative: the step back to ``o``'s host,
        which is recorded as leading there, or one closing a square with
        ``o``'s step (see above)."""
        if key == o.undo:
            led[x][key] = (o.host, o.back_v, o.back_e)
            return True
        hit = led[o.host].get(_carried(key, o.back_v, o.back_e))
        return hit is not None and _carried(o.step, hit[1], hit[2]) in led[hit[0]]

    def finish(saturated: bool) -> SaturationResult:
        steps = len(comps) - initial
        return SaturationResult(c if steps == 0 else cs.join_raw(comps), steps, saturated)

    done = 0  # comps[done:] is the worklist
    while True:
        while done < len(comps):
            x, alt, o = done, comps[done], origins[done]
            done += 1
            for i, rule in enumerate(rules):
                for m in find_matches(rule, alt):
                    key = (i, _pairs(m.hom.vmap), _pairs(m.hom.emap))
                    if not (o is not None and known(x, key, o)) and not add(m, i, x, key):
                        return finish(False)
        if len(comps) < 2 or not boxed:
            return finish(True)
        joined = cs.join_raw(comps)
        top = _top_box(joined)
        for i in boxed:
            for m in find_matches(rules[i], joined):
                if top in m.hom.emap.values() and not add(m, i):
                    return finish(False)
        if done == len(comps):
            return finish(True)


# A step: a rule's index, and its match's vertex and edge maps as sorted
# (element, image) pairs.  A lead: a stored alternative's index, and
# vertex and edge maps into it.
_Key = tuple[int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]
_Lead = tuple[int, dict[int, int], dict[int, int]]


def _pairs(m: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(m.items()))


def _carried(key: _Key, vmap: dict[int, int], emap: dict[int, int]) -> Optional[_Key]:
    """The step ``key`` with its vertex and edge images sent through
    ``vmap`` and ``emap``; None where one of them is undefined."""
    i, vs, es = key
    vs2, es2 = tuple((a, vmap.get(b)) for a, b in vs), tuple((a, emap.get(b)) for a, b in es)
    if any(b is None for _, b in vs2 + es2):
        return None
    return i, vs2, es2


class _Origin(NamedTuple):
    """How ``saturate`` made a stored alternative X: by the step ``step`` at
    ``comps[host]``.  ``back_v`` and ``back_e`` invert the step's context
    map, taking X's elements that the step kept back to the host's, and
    ``undo`` is the key of the step back to the host, or None."""

    host: int
    step: _Key
    back_v: dict[int, int]
    back_e: dict[int, int]
    undo: Optional[_Key]

    @classmethod
    def of(cls, host: int, step: _Key, result: Glued, undoes: Optional[int]) -> "_Origin":
        """The origin of ``result``, made by ``step`` at ``comps[host]``,
        whose reverse is the rule ``undoes``, or None."""
        ctx, co = result.context, result.comatch
        undo = None if undoes is None else (undoes, _pairs(co.vmap), _pairs(co.emap))
        return cls(host, step, {b: a for a, b in ctx.vmap.items()},
                   {b: a for a, b in ctx.emap.items()}, undo)


def _strict_slots(r: RewriteRule) -> bool:
    """Whether either side of ``r`` has a strictly internal slot."""
    return any(side.strict_in_positions() or side.strict_out_positions()
               for side in (r.lhs, r.rhs))


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _alternative_costs(c: ExtendedCospan, box: int, m: CostModel) -> dict[int, Fraction]:
    """The cost of each alternative of a box: the sum over its edges, where a
    nested box costs its cheapest alternative.  An alternative with no edges
    (a bare wire) costs 0."""
    g = c.carrier

    def edge_cost(e: int) -> Fraction:
        if g.is_box(e):
            return min(_alternative_costs(c, e, m).values())
        return m.cost(g.label[e])

    return {
        comp: sum((edge_cost(i) for k, i in members if k == "e"), Fraction(0))
        for comp, members in g.alternatives(box).items()
    }


def prune(c: ExtendedCospan, m: Optional[CostModel] = None) -> ExtendedCospan:
    """Keep the cheapest alternative of every hierarchical edge, outermost
    first: a box that is the whole diagram is replaced by a copy of that
    alternative (``alternative``), a box in context by gluing (``choose``)."""
    m = m or CostModel()
    cur = c
    for _ in range(len(c.carrier.edges) + 1):
        g = cur.carrier
        boxes = sorted(
            (e for e in g.edges if g.is_box(e)), key=lambda e: g.depth(("e", e))
        )
        if not boxes:
            return cur
        costs = _alternative_costs(cur, boxes[0], m)
        best = min(costs, key=costs.get)
        pick = alternative if boxes[0] == _top_box(cur) else choose
        cur = pick(cur, boxes[0], best)
    raise EngineError("pruning did not terminate")  # pragma: no cover


def _perm_term(cur: list[int], want: list[int]) -> Optional[tm.Term]:
    """Adjacent-swap wiring turning wire order ``cur`` into ``want``."""
    if cur == want:
        return None
    work = list(cur)
    t: Optional[tm.Term] = None
    for i, target in enumerate(want):
        j = work.index(target)
        while j > i:
            work[j - 1], work[j] = work[j], work[j - 1]
            swap: tm.Term = tm.Sym(1, 1)
            if j - 1 > 0:
                swap = tm.Tensor(tm.Id(j - 1), swap)
            if len(work) - j - 1 > 0:
                swap = tm.Tensor(swap, tm.Id(len(work) - j - 1))
            t = swap if t is None else tm.Comp(t, swap)
            j -= 1
    return t


def term_of(c: ExtendedCospan) -> tm.Term:
    """Re-express a box-free MDA cospan as a term interpreting to it;
    ``EngineError`` when an edge label cannot be read back as a generator
    (``term.is_generator_name``)."""
    g = c.carrier
    if any(g.is_box(e) for e in g.edges):
        raise EngineError("cannot express a diagram with alternatives as a term")
    for label in dict.fromkeys(g.label.values()):
        if not tm.is_generator_name(label):
            raise EngineError(f"cannot express label {label!r} as a generator in a term")
    avail = list(c.ext_in_vertices())
    remaining = set(g.edges)
    parts: list[tm.Term] = []

    def emit(t: Optional[tm.Term]) -> None:
        if t is not None:
            parts.append(t)

    while remaining:
        have = set(avail)
        ready = sorted(e for e in remaining if have.issuperset(g.source[e]))
        if not ready:
            raise EngineError("diagram is not acyclic")
        consumed = [s for e in ready for s in g.source[e]]
        used = set(consumed)
        rest = [w for w in avail if w not in used]
        emit(_perm_term(avail, consumed + rest))
        layer: Optional[tm.Term] = None
        for e in ready:
            gen = tm.Gen(g.label[e])
            layer = gen if layer is None else tm.Tensor(layer, gen)
        if rest:
            pad = tm.Id(len(rest))
            layer = pad if layer is None else tm.Tensor(layer, pad)
        emit(layer)
        avail = [t for e in ready for t in g.target[e]] + rest
        remaining -= set(ready)
    emit(_perm_term(avail, list(c.ext_out_vertices())))
    if not parts:
        if not avail:
            raise EngineError("cannot express an empty diagram as a term")
        parts.append(tm.Id(len(avail)))
    t = parts[0]
    for p in parts[1:]:
        t = tm.Comp(t, p)
    return t


def extract(c: ExtendedCospan, m: Optional[CostModel] = None) -> tm.Term:
    """A cheapest term: one alternative chosen per hierarchical edge."""
    return term_of(prune(c, m))


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def export_dot(c: ExtendedCospan) -> str:
    """Deterministic DOT rendering: hierarchical edges become dashed
    clusters, their alternatives nested dashed sub-clusters.  An edge label
    is written as a DOT string with ``\\`` and ``"`` escaped by a
    backslash."""
    g = c.carrier
    out: list[str] = [
        "digraph diagram {",
        "  compound=true;",
        "  rankdir=LR;",
        "  node [fontname=\"Helvetica\"];",
    ]

    def vertex_line(v: int, indent: str) -> str:
        return f'{indent}v{v} [shape=point, xlabel="{v}"];'

    def edge_node_line(e: int, indent: str) -> str:
        label = g.label[e].replace("\\", "\\\\").replace('"', '\\"')
        return f'{indent}e{e} [shape=box, label="{label}"];'

    def emit_box(e: int, indent: str) -> None:
        out.append(f"{indent}subgraph cluster_e{e} {{")
        out.append(f'{indent}  style=dashed;')
        out.append(f'{indent}  label="e{e}";')
        out.append(f"{indent}  a{e} [shape=point, style=invis];")
        for comp, members in g.alternatives(e).items():
            out.append(f"{indent}  subgraph cluster_e{e}_c{comp} {{")
            out.append(f"{indent}    style=dashed;")
            out.append(f'{indent}    label="alt {comp}";')
            for v in sorted(i for k, i in members if k == "v"):
                out.append(vertex_line(v, indent + "    "))
            for ch in sorted(i for k, i in members if k == "e"):
                if g.is_box(ch):
                    emit_box(ch, indent + "    ")
                else:
                    out.append(edge_node_line(ch, indent + "    "))
            out.append(f"{indent}  }}")
        out.append(f"{indent}}}")

    for v in sorted(v for v in g.vertices if g.vparent.get(v) is None):
        out.append(vertex_line(v, "  "))
    for e in sorted(e for e in g.edges if g.eparent.get(e) is None):
        if g.is_box(e):
            emit_box(e, "  ")
        else:
            out.append(edge_node_line(e, "  "))

    def anchor(e: int) -> tuple[str, str]:
        if g.is_box(e):
            return f"a{e}", f" [lhead=cluster_e{e}]"
        return f"e{e}", ""

    def anchor_out(e: int) -> tuple[str, str]:
        if g.is_box(e):
            return f"a{e}", f" [ltail=cluster_e{e}]"
        return f"e{e}", ""

    for e in sorted(g.edges):
        node_in, attr_in = anchor(e)
        node_out, attr_out = anchor_out(e)
        for v in g.source[e]:
            out.append(f"  v{v} -> {node_in}{attr_in};")
        for v in g.target[e]:
            out.append(f"  {node_out} -> v{v}{attr_out};")

    ins = sorted(set(c.ext_in_vertices()))
    outs = sorted(set(c.ext_out_vertices()) - set(ins))
    if ins:
        out.append("  { rank=source; " + " ".join(f"v{v};" for v in ins) + " }")
    if outs:
        out.append("  { rank=sink; " + " ".join(f"v{v};" for v in outs) + " }")
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Rule files
# ---------------------------------------------------------------------------


def parse_rules(text: str, sig) -> list[RewriteRule]:
    """Parse ``name : term => term`` lines; '#' starts a comment."""
    from .rewrite import rule_from_terms

    rules = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line or "=>" not in line:
            raise EngineError(f"rule line {lineno}: cannot parse {raw!r}")
        name, rest = (p.strip() for p in line.split(":", 1))
        lhs_text, rhs_text = (p.strip() for p in rest.split("=>", 1))
        rules.append(
            rule_from_terms(name, tm.parse(lhs_text), tm.parse(rhs_text), sig)
        )
    return rules
