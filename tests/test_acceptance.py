"""Acceptance tests.

Each test covers one top-level guarantee, prints a single pass/fail line,
and enforces its wall-clock budget.
"""

import itertools
import random
import time

from megraph import cospan as cs
from megraph.core import EHypergraph, EHomomorphism, validate
from megraph.cospan import (
    ExtendedCospan,
    PushoutPreconditionError,
    check_pushout_preconditions,
    compose,
    discrete,
    identity_cospan,
    is_mda_well_typed,
    iso,
    join,
    join_raw,
    pushout,
    tensor,
    validate_cospan,
)
from megraph.egraph import replay, translate
from megraph.engine import components, normalize
from megraph.rewrite import (
    NoComplement,
    RewriteRule,
    apply,
    boundary_complement,
    find_matches,
    rule_from_terms,
    structural_matches,
)
from megraph.term import Comp, Gen, Id, Join, Sym, Tensor, interpret, parse

from .fixtures import (
    expected_stage_b,
    expected_stage_c,
    leaf_merge_egraphs,
    leaf_merge_rule,
    pipeline_egraphs,
    pipeline_rules,
)
from .helpers import ARITH, BASIC, FIG14, gen_count, interp, random_term
from .oracles import (
    all_homs,
    chain_signature,
    complement_iso_classes,
    oracle_ball,
)


def _report(name: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {name}: {elapsed:.1f}s of {budget:.0f}s budget")
    assert ok
    assert elapsed < budget, f"budget exceeded: {elapsed:.1f}s >= {budget}s"


# ---------------------------------------------------------------------------
# 1. Interpretation absorbs the symmetric-monoidal axioms
# ---------------------------------------------------------------------------


def _axiom_pair(rng: random.Random):
    kind = rng.choice(
        ["assoc_comp", "assoc_tens", "unit_comp", "sym_invol", "interchange", "symmetry"]
    )
    small = lambda: random_term(rng, 1, 1, size=1)
    if kind == "assoc_comp":
        a, b, c = small(), small(), small()
        return Comp(Comp(a, b), c), Comp(a, Comp(b, c))
    if kind == "assoc_tens":
        a, b, c = small(), small(), small()
        return Tensor(Tensor(a, b), c), Tensor(a, Tensor(b, c))
    if kind == "unit_comp":
        a = small()
        return (Comp(a, Id(1)), a) if rng.random() < 0.5 else (Comp(Id(1), a), a)
    if kind == "sym_invol":
        a = small()
        return Comp(Comp(Sym(1, 1), Sym(1, 1)), Tensor(a, Id(1))), Tensor(a, Id(1))
    if kind == "interchange":
        a, b, c, d = small(), small(), small(), small()
        return Comp(Tensor(a, b), Tensor(c, d)), Tensor(Comp(a, c), Comp(b, d))
    a, b = small(), small()
    return (
        Comp(Tensor(a, b), Sym(1, 1)),
        Comp(Sym(1, 1), Tensor(b, a)),
    )


def test_acceptance_1_smc_axiom_absorption():
    start = time.monotonic()
    rng = random.Random(1)
    checked = 0
    ok = True
    while checked < 200:
        l, r = _axiom_pair(rng)
        if gen_count(l) > 12 or gen_count(r) > 12:
            continue
        if iso(interpret(l, BASIC), interpret(r, BASIC)) is None:
            ok = False
            break
        checked += 1
    _report("1 SMC-axiom absorption (200 pairs)", ok and checked == 200,
            time.monotonic() - start, 10.0)


# ---------------------------------------------------------------------------
# 2. Structural-rule soundness
# ---------------------------------------------------------------------------


def _distinct_parts(rng, n=2):
    """n pairwise non-isomorphic random 1->1 diagrams (with their terms)."""
    out = []
    while len(out) < n:
        t = random_term(rng, 1, 1, size=1)
        c = interpret(t, BASIC)
        if all(iso(c, d) is None for _, d in out):
            out.append((t, c))
    return out


def _one_step_and_back(host, expected):
    """host --one structural step--> iso expected, and the reverse rule
    applied to the result recovers the host."""
    for _, m in structural_matches(host):
        result = apply(m)
        if iso(result, expected) is None:
            continue
        rev = m.rule.reversed()
        for back in find_matches(rev, result):
            try:
                undone = apply(back)
            except NoComplement:
                continue
            if iso(undone, host) is not None:
                return True
    return False


def test_acceptance_2_structural_rule_soundness():
    start = time.monotonic()
    ok = True
    rng = random.Random(2)
    for i in range(20):
        (pt, pc), (qt, qc), (rt, rc) = _distinct_parts(rng, 3)
        ctx = Gen(rng.choice("fgh"))
        cases = [
            # sequential distributivity, both sides
            (interpret(Comp(ctx, Join((pt, qt))), BASIC),
             interpret(Join((Comp(ctx, pt), Comp(ctx, qt))), BASIC)),
            (interpret(Comp(Join((pt, qt)), ctx), BASIC),
             interpret(Join((Comp(pt, ctx), Comp(qt, ctx))), BASIC)),
            # parallel distributivity, both sides
            (interpret(Tensor(ctx, Join((pt, qt))), BASIC),
             interpret(Join((Tensor(ctx, pt), Tensor(ctx, qt))), BASIC)),
            (interpret(Tensor(Join((pt, qt)), ctx), BASIC),
             interpret(Join((Tensor(pt, ctx), Tensor(qt, ctx))), BASIC)),
            # flattening of a nested alternative box
            (join_raw([join([pc, qc]), rc]), join([pc, qc, rc])),
            # idempotence with three alternatives
            (join_raw([pc, qc, pc.copy()]), join([pc, qc])),
            # idempotence collapsing a two-alternative box
            (join_raw([pc, pc.copy()]), pc),
        ]
        for host, expected in cases:
            if not _one_step_and_back(host, expected):
                ok = False
                break
        # alternative order (the eighth equation) is absorbed by isomorphism
        if iso(join([pc, qc]), join([qc, pc])) is None:
            ok = False
        if not ok:
            break
    _report("2 structural-rule soundness (8 schemas x 20)", ok,
            time.monotonic() - start, 30.0)


# ---------------------------------------------------------------------------
# 3. Completeness desk check on a three-generator theory
# ---------------------------------------------------------------------------


def _state_term(state):
    parts = []
    for chain in state:
        t = Gen(chain[0])
        for x in chain[1:]:
            t = Comp(t, Gen(x))
        parts.append(t)
    return parts[0] if len(parts) == 1 else Join(tuple(parts))


def _bucket_key(c: ExtendedCospan):
    g = c.carrier
    return tuple(sorted((g.label[e] or "#", g.depth(("e", e))) for e in g.edges))


class _IsoSet:
    """A visited set over diagrams, deduplicated up to isomorphism."""

    def __init__(self):
        self.buckets: dict = {}

    def add(self, c: ExtendedCospan) -> bool:
        key = _bucket_key(c)
        bucket = self.buckets.setdefault(key, [])
        if any(iso(c, d) is not None for d in bucket):
            return False
        bucket.append(c)
        return True

    def contains_iso(self, c: ExtendedCospan) -> bool:
        return any(
            iso(c, d) is not None for d in self.buckets.get(_bucket_key(c), [])
        )

    def __iter__(self):
        for bucket in self.buckets.values():
            yield from bucket


def _edpoi_successors(c: ExtendedCospan, rules):
    out = []
    for rule in rules:
        for m in find_matches(rule, c):
            try:
                out.append(apply(m))
            except NoComplement:
                pass
    for _, m in structural_matches(c):
        try:
            out.append(apply(m))
        except NoComplement:
            pass
    # reverse idempotence: duplicate the whole diagram into two alternatives
    try:
        dup = RewriteRule("expand", c, join_raw([c.copy(), c.copy()]))
        m = next(
            m for m in find_matches(dup, c)
            if set(m.hom.emap.values()) == set(c.carrier.edges)
        )
        out.append(apply(m))
    except (StopIteration, Exception):
        pass
    return out


def _edpoi_ball(c: ExtendedCospan, rules, depth: int, cap: int = 300):
    seen = _IsoSet()
    seen.add(c)
    frontier = [c]
    for _ in range(depth):
        nxt = []
        for node in frontier:
            for succ in _edpoi_successors(node, rules):
                if sum(len(b) for b in seen.buckets.values()) >= cap:
                    return seen
                if seen.add(succ):
                    nxt.append(succ)
        frontier = nxt
    return seen


def test_acceptance_3_completeness_desk_check():
    start = time.monotonic()
    chains = [
        c for length in (1, 2, 3) for c in itertools.product("fgh", repeat=length)
    ]
    states = [(c,) for c in chains]
    for c1, c2 in itertools.combinations(chains, 2):
        states.append(tuple(sorted((c1, c2))))

    balls = {s: oracle_ball(s, 4) for s in states}
    pairs = []
    for i, s in enumerate(states):
        for t in states[i + 1 :]:
            if t in balls[s]:
                assert chain_signature(s) == chain_signature(t)
                pairs.append((s, t))
    assert pairs, "oracle found no equal pairs"

    swap = rule_from_terms("swap", parse("f ; g"), parse("g ; f"), BASIC)
    rules = [swap, swap.reversed()]
    needed = sorted({s for p in pairs for s in p})
    half_balls = {}
    for s in needed:
        half_balls[s] = _edpoi_ball(interpret(_state_term(s), BASIC), rules, 3)

    found = 0
    for s, t in pairs:
        a, b = half_balls[s], half_balls[t]
        hit = False
        for c in a:
            if b.contains_iso(c):
                hit = True
                break
        if hit:
            found += 1
    ok = found == len(pairs)
    _report(
        f"3 completeness desk check ({found}/{len(pairs)} oracle-equal pairs)",
        ok,
        time.monotonic() - start,
        300.0,
    )


# ---------------------------------------------------------------------------
# 4. Boundary-complement uniqueness
# ---------------------------------------------------------------------------

HOST_TERMS = [
    "f ; g",
    "f ; f",
    "f ; g ; h",
    "f * g",
    "s ; (f * g)",
    "s ; (f * g) ; k",
    "(f * g) ; k",
    "s ; k",
    "f ; s ; k",
    "g ; f ; g",
]

RULE_TERMS = [
    ("f", "g"),
    ("g", "f ; f"),
    ("f ; g", "g ; f"),
    ("s ; k", "f"),
    ("k", "k"),
    ("s", "s"),
    ("f ; f", "g"),
]


def test_acceptance_4_boundary_complement_uniqueness():
    start = time.monotonic()
    rng = random.Random(4)
    checked = 0
    ok = True
    while checked < 100 and ok:
        host = interp(rng.choice(HOST_TERMS))
        if len(host.carrier.vertices) + len(host.carrier.edges) > 8:
            continue
        l, r = rng.choice(RULE_TERMS)
        rule = rule_from_terms("r", parse(l), parse(r), BASIC)
        ms = find_matches(rule, host)
        if not ms:
            continue
        m = rng.choice(ms)
        try:
            boundary_complement(m)
        except NoComplement:
            continue
        classes, lib_in = complement_iso_classes(m)
        if classes != 1 or not lib_in:
            ok = False
            break
        checked += 1
    _report(
        f"4 boundary-complement uniqueness ({checked}/100 triples)",
        ok and checked == 100,
        time.monotonic() - start,
        120.0,
    )


# ---------------------------------------------------------------------------
# 5. Pushout universal property
# ---------------------------------------------------------------------------


def _pool_graph(rng: random.Random) -> EHypergraph:
    g = EHypergraph()
    shape = rng.choice(["edge", "const", "wide", "chain", "point"])
    if shape == "edge":
        v, w = g.add_vertex(), g.add_vertex()
        g.add_edge(rng.choice("fg"), [v], [w])
    elif shape == "const":
        v = g.add_vertex()
        g.add_edge("a", [], [v])
    elif shape == "wide":
        u, v, w = g.add_vertex(), g.add_vertex(), g.add_vertex()
        g.add_edge("k", [u, v], [w])
    elif shape == "chain":
        u, v, w = g.add_vertex(), g.add_vertex(), g.add_vertex()
        g.add_edge("f", [u], [v])
        g.add_edge("g", [v], [w])
    else:
        g.add_vertex()
    return g


def _size(g: EHypergraph) -> int:
    return len(g.vertices) + len(g.edges)


def _commutes(z, left, right, c1, c2) -> bool:
    return all(
        c1.vmap[left.vmap[v]] == c2.vmap[right.vmap[v]] for v in z.vertices
    )


def _composes_to(u, inj, c) -> bool:
    return all(
        u.vmap[inj.vmap[v]] == c.vmap[v] for v in inj.dom.vertices
    ) and all(u.emap[inj.emap[e]] == c.emap[e] for e in inj.dom.edges)


def test_acceptance_5_pushout_universal_property():
    start = time.monotonic()
    rng = random.Random(5)
    checked = 0
    ok = True
    while checked < 100 and ok:
        x, y = _pool_graph(rng), _pool_graph(rng)
        if _size(x) + _size(y) > 6:
            continue
        n = rng.randint(0, min(2, len(x.vertices), len(y.vertices)))
        z = discrete(n)
        left = EHomomorphism(
            dom=z, cod=x,
            vmap=dict(zip(z.vertices, rng.sample(x.vertices, n))), emap={},
        )
        right = EHomomorphism(
            dom=z, cod=y,
            vmap=dict(zip(z.vertices, rng.sample(y.vertices, n))), emap={},
        )
        if check_pushout_preconditions(left, right):
            continue
        p = pushout(left, right)
        if validate(p.obj) != []:
            ok = False
            break
        extra = p.obj.copy()
        extra.add_vertex()
        targets = [x, y, p.obj, extra, _pool_graph(rng)]
        for tg in targets:
            if _size(tg) > 6:
                continue
            mediators_pool = list(all_homs(p.obj, tg))
            for c1 in all_homs(x, tg):
                for c2 in all_homs(y, tg):
                    if not _commutes(z, left, right, c1, c2):
                        continue
                    fits = [
                        u
                        for u in mediators_pool
                        if _composes_to(u, p.inj_left, c1)
                        and _composes_to(u, p.inj_right, c2)
                    ]
                    if len(fits) != 1:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        checked += 1
    _report(
        f"5 pushout universal property ({checked}/100 spans)",
        ok and checked == 100,
        time.monotonic() - start,
        300.0,
    )


# ---------------------------------------------------------------------------
# 6. MDA preservation under single rewrite steps
# ---------------------------------------------------------------------------


def test_acceptance_6_mda_preservation():
    start = time.monotonic()
    rng = random.Random(6)
    steps = 0
    ok = True
    while steps < 500 and ok:
        if rng.random() < 0.5:
            host = interpret(random_term(rng, 1, 1, size=3), BASIC)
            l, r = rng.choice(RULE_TERMS)
            rule = rule_from_terms("r", parse(l), parse(r), BASIC)
            ms = find_matches(rule, host)
            if not ms:
                continue
            try:
                result = apply(rng.choice(ms))
            except NoComplement:
                continue
        else:
            t1 = random_term(rng, 1, 1, size=1)
            t2 = random_term(rng, 1, 1, size=1)
            ctx = Gen(rng.choice("fgh"))
            host = interpret(Comp(ctx, Join((t1, t2))), BASIC)
            insts = list(structural_matches(host))
            if not insts:
                continue
            try:
                result = apply(rng.choice(insts)[1])
            except NoComplement:
                continue
        if validate_cospan(result) != [] or is_mda_well_typed(result) != []:
            ok = False
            break
        steps += 1
    _report(
        f"6 MDA preservation ({steps}/500 steps)",
        ok and steps == 500,
        time.monotonic() - start,
        60.0,
    )


# ---------------------------------------------------------------------------
# 7. Shared-constant pipeline regression
# ---------------------------------------------------------------------------


def test_acceptance_7_pipeline_regression():
    start = time.monotonic()
    eg0, eg1, eg2 = pipeline_egraphs()
    r1, r2 = pipeline_rules()
    ok = True
    # stage (a): importing the e-graph of (a*2)/2 matches the interpreted term
    stage_a = translate(eg0, ARITH)
    ok &= iso(stage_a, interp("(a * (two ; dup)) ; (mul * id:1) ; div", ARITH)) is not None
    # stage (b): one rewrite replayed as rewrite steps, against a hand-built diagram
    res1 = replay(eg0, r1, eg1, ARITH)
    ok &= len(res1.steps) >= 1
    ok &= iso(res1.result, expected_stage_b()) is not None
    # stage (c): the second rewrite
    res2 = replay(eg1, r2, eg2, ARITH)
    ok &= len(res2.steps) >= 1
    ok &= iso(res2.result, expected_stage_c()) is not None
    _report("7 pipeline regression (stages a-c)", bool(ok),
            time.monotonic() - start, 5.0)


# ---------------------------------------------------------------------------
# 8. E-graph rewrites replayed as rewrite sequences commute with translation
# ---------------------------------------------------------------------------


def test_acceptance_8_commuting_square():
    start = time.monotonic()
    ok = True
    # shared-leaf merge: plus(f(a,b), f(a,c)) with b -> c
    before, after = leaf_merge_egraphs()
    res = replay(before, leaf_merge_rule(), after, FIG14)
    ok &= iso(res.result, translate(after, FIG14)) is not None
    for step in res.steps:
        ok &= validate_cospan(step.result) == []
        ok &= is_mda_well_typed(step.result) == []
    # class-extension rewrite on the shared-constant pipeline
    eg0, eg1, _ = pipeline_egraphs()
    r1, _ = pipeline_rules()
    res2 = replay(eg0, r1, eg1, ARITH)
    ok &= iso(res2.result, translate(eg1, ARITH)) is not None
    for step in res2.steps:
        ok &= validate_cospan(step.result) == []
        ok &= is_mda_well_typed(step.result) == []
    _report("8 e-graph commuting squares (2 fixtures)", bool(ok),
            time.monotonic() - start, 10.0)


# ---------------------------------------------------------------------------
# 9. Normal form: termination, shape, and order-independence
# ---------------------------------------------------------------------------


def _random_boxy_term(rng: random.Random, depth: int = 0):
    """A random 1->1 term with alternative boxes nested at most 3 deep."""
    if depth >= 3 or rng.random() < 0.35:
        return random_term(rng, 1, 1, size=1)
    a = _random_boxy_term(rng, depth + 1)
    b = _random_boxy_term(rng, depth + 1)
    t = Join((a, b))
    if rng.random() < 0.6:
        ctx = Gen(rng.choice("fgh"))
        t = Comp(ctx, t) if rng.random() < 0.5 else Comp(t, ctx)
    return t


def test_acceptance_9_normal_form():
    start = time.monotonic()
    rng = random.Random(9)
    ok = True
    for i in range(50):
        c = interpret(_random_boxy_term(rng), BASIC)
        first = normalize(c, order="first")
        last = normalize(c, order="last")
        parts = components(first)
        for p in parts:
            if any(p.carrier.label[e] is None for e in p.carrier.edges):
                ok = False  # a box survived normalization
        for j, p in enumerate(parts):
            for q in parts[j + 1 :]:
                if iso(p, q) is not None:
                    ok = False  # duplicate alternatives survived
        if iso(first, last) is None:
            ok = False  # match order changed the result
        if not ok:
            break
    _report("9 normal form (50 random inputs, 2 orders)", ok,
            time.monotonic() - start, 120.0)
