"""Localisation by a calculus of right fractions.

The class of maps inverted is generated by the tensored subunit
inclusions s (x) A together with all identities, closed under
composition and under tensoring with objects.  After verifying the two
right-fraction conditions (the Ore square and left cancellation), the
localised category is built concretely: morphisms are equivalence
classes of spans (denominator in the class, numerator arbitrary), with
composition through Ore fillers.  Inverting every subunit at once gives
the universal simple quotient.

A thin category (every hom-set has at most one element) localises by
typing (Gabriel & Zisman, *Calculus of Fractions and Homotopy Theory*,
1967, ch. I).  Let C be thin and let the class admit right fractions.
Two spans A <- P -> B and A <- P' -> B with denominators d and d' have
a common refinement: the Ore square on (d, d') gives t: R -> P' in the
class and g: R -> P with d o g = d' o t, a member by composition
closure, and the numerator legs agree because C is thin.  So the
localisation is thin, with A -> B exactly when some d: P -> A in the
class has P <= B: each hom-pair with a span is one class, labelled by
its least (d, n), and identities, composites, the tensor, the braiding
and the quotient functor are lookups by (domain, codomain).  The
conditions become masks over the objects.  The Ore square at
(s: A -> C, f: B -> C) needs a domain of the class into B that lies
below A, one AND of those domains with the down-set of A; composition
closure at f: X -> Y is the inclusion of the codomains of the class
out of Y in those out of X; left cancellation holds vacuously, as
parallel morphisms are equal.  Every other category gets the span
construction, which the test suite keeps as the oracle of the thin one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ._unionfind import UnionFind
from .caps import DEFAULT_CAPS, Caps
from .errors import BuildError, ConsistencyError
from .fincat import (CatFunctor, MonoidalCategory, _tabulate, _tabulate_monoidal,
                     assert_valid, is_iso)
from .restriction import restriction_category
from .subunits import (PropertyReport, Subunit, _tensor_left, _tensor_right,
                       enumerate_subunits)


@dataclass(frozen=True, eq=False)
class SigmaClass:
    mc: MonoidalCategory
    members: frozenset[int]


@dataclass(frozen=True, order=True)
class FractionSpan:
    denominator: int  # P -> A, member of the class
    numerator: int    # P -> B


@dataclass(frozen=True, eq=False)
class LocalisedCategory:
    category: MonoidalCategory
    source: MonoidalCategory
    sigma: SigmaClass
    quotient: CatFunctor                       # source -> localised
    classes: tuple[frozenset[FractionSpan], ...]  # per localised morphism
    reps: tuple[FractionSpan, ...]


def sigma(mc: MonoidalCategory,
          subunit_set: list[Subunit] | None = None) -> SigmaClass:
    """The class generated by all s (x) A for s in the given subunit set
    (default: every subunit) plus identities, closed under composition
    and under tensoring with object identities on either side.  A
    worklist takes each new member once: it is composed with the members
    before and after it and tensored with every object, so each
    composable pair of members is met when the later of the two is
    taken."""
    if subunit_set is None:
        subunit_set = enumerate_subunits(mc)
    n_obj = len(mc.objects)
    members: set[int] = set()
    out_of: list[list[int]] = [[] for _ in range(n_obj)]  # members by domain
    into: list[list[int]] = [[] for _ in range(n_obj)]    # members by codomain
    work: list[int] = []

    def add(h: int) -> None:
        if h not in members:
            members.add(h)
            out_of[mc.dom(h)].append(h)
            into[mc.cod(h)].append(h)
            work.append(h)

    for a in range(n_obj):
        add(mc.identity(a))
    for s in subunit_set:
        for a in range(n_obj):
            add(_tensor_right(mc, s.rep, a))
    while work:
        f = work.pop()
        for g in tuple(out_of[mc.cod(f)]):
            add(mc.compose(g, f))
        for g in tuple(into[mc.dom(f)]):
            add(mc.compose(f, g))
        for a in range(n_obj):
            add(_tensor_right(mc, f, a))
            add(_tensor_left(mc, a, f))
    return SigmaClass(mc, frozenset(members))


def _sigma_masks(mc: MonoidalCategory,
                 members) -> tuple[list[int], list[int]]:
    """Per object X, the mask of the codomains of the members out of X,
    and the mask of the domains of the members into X."""
    n_obj = len(mc.objects)
    out_of, into = [0] * n_obj, [0] * n_obj
    for f in members:
        a, b = mc.dom(f), mc.cod(f)
        out_of[a] |= 1 << b
        into[b] |= 1 << a
    return out_of, into


def verify_right_fractions(mc: MonoidalCategory, sig: SigmaClass) -> PropertyReport:
    """Closure properties plus the two right-fraction conditions, all
    checked exhaustively with witnesses on failure.  On a thin category
    composition closure is one mask inclusion per member, the Ore square
    one AND per (s, f), and left cancellation holds vacuously (module
    docstring); a failed mask test is located by the walk every other
    category runs, in the same order, so the first witness is the same
    on both routes."""
    members = sig.members
    n_obj = len(mc.objects)
    for a in range(n_obj):
        if mc.identity(a) not in members:
            return PropertyReport("right_fractions", False,
                                  witness=("identity", a),
                                  details={"reason": "missing identity"})
    thin = mc.is_thin()
    if thin:
        sigma_out, sigma_in = _sigma_masks(mc, members)
        down = mc.cat.down

    def has_filler(s: int, f: int) -> bool:
        if thin:
            return bool(sigma_in[mc.dom(f)] & down[mc.dom(s)])
        return _ore_filler(mc, sig, s, f) is not None

    for f in members:
        if not thin or sigma_out[mc.cod(f)] & ~sigma_out[mc.dom(f)]:
            for g in members:
                if mc.dom(g) == mc.cod(f) and mc.compose(g, f) not in members:
                    return PropertyReport("right_fractions", False,
                                          witness=("composition", g, f),
                                          details={"reason": "not composition closed"})
        for a in range(n_obj):
            if _tensor_right(mc, f, a) not in members or \
                    _tensor_left(mc, a, f) not in members:
                return PropertyReport("right_fractions", False,
                                      witness=("tensor", f, a),
                                      details={"reason": "not tensor closed"})
    # Ore square: every cospan (sigma, f) admits a span (t, g), t in Sigma
    incoming: list[list[int]] = [[] for _ in range(n_obj)]
    for f in mc.morphisms:
        incoming[f.cod].append(f.mid)
    for s in members:
        for f in incoming[mc.cod(s)]:
            if not has_filler(s, f):
                return PropertyReport("right_fractions", False,
                                      witness=("ore", s, f))
    holds = PropertyReport("right_fractions", True, details={"size": len(members)})
    if thin:
        return holds
    # cancellation: t o f = t o g forces f o sigma = g o sigma
    for t in members:
        c = mc.dom(t)
        for b in range(n_obj):
            for f, g in itertools.combinations(mc.hom(b, c), 2):
                if mc.compose(t, f) != mc.compose(t, g):
                    continue
                if not any(mc.compose(f, s) == mc.compose(g, s)
                           for s in members if mc.cod(s) == b):
                    return PropertyReport("right_fractions", False,
                                          witness=("cancellation", t, f, g))
    return holds


def _ore_filler(mc: MonoidalCategory, sig: SigmaClass, s: int,
                f: int) -> tuple[int, int] | None:
    """For s: A -> C in the class and f: B -> C, the first (t, g) with
    t: P -> B in the class, g: P -> A, and s o g = f o t."""
    a, b = mc.dom(s), mc.dom(f)
    for p in range(len(mc.objects)):
        for t in mc.hom(p, b):
            if t not in sig.members:
                continue
            ft = mc.compose(f, t)
            for g in mc.hom(p, a):
                if mc.compose(s, g) == ft:
                    return t, g
    return None


def _span_equivalent(mc: MonoidalCategory, sig: SigmaClass, x: FractionSpan,
                     y: FractionSpan) -> bool:
    """Spans with common refinement: u, u' with equal denominator legs in
    the class and equal numerator legs."""
    p1, p2 = mc.dom(x.denominator), mc.dom(y.denominator)
    for r in range(len(mc.objects)):
        for u in mc.hom(r, p1):
            du = mc.compose(x.denominator, u)
            if du not in sig.members:
                continue
            nu = mc.compose(x.numerator, u)
            for u2 in mc.hom(r, p2):
                if mc.compose(y.denominator, u2) == du and \
                        mc.compose(y.numerator, u2) == nu:
                    return True
    return False


def _spans_by_pair(mc: MonoidalCategory,
                   sig: SigmaClass) -> dict[tuple[int, int], list[FractionSpan]]:
    """Every span (d: P -> A in the class, n: P -> B), listed under
    (A, B) in increasing (d, n) order."""
    spans: dict[tuple[int, int], list[FractionSpan]] = {}
    for d in sorted(sig.members):
        p = mc.dom(d)
        a = mc.cod(d)
        for b in range(len(mc.objects)):
            for n in mc.hom(p, b):
                spans.setdefault((a, b), []).append(FractionSpan(d, n))
    return spans


def _escaped(**details) -> ConsistencyError:
    return ConsistencyError("span escaped the enumerated quotient", details=details)


def localise(mc: MonoidalCategory, sig: SigmaClass,
             caps: Caps = DEFAULT_CAPS) -> LocalisedCategory:
    """The category of right fractions at the class.

    Objects are unchanged; a morphism A -> B is an equivalence class of
    spans (d: P -> A in the class, n: P -> B), canonically represented
    by its least (d, n) pair.  A thin category has one class per
    hom-pair with a span (module docstring); on any other, composition
    finds an Ore filler, and the result is checked independent of the
    filler chosen.  The quotient functor sends f to the class of
    (identity, f) and is verified to invert the class and to be strict
    monoidal on the quotient tensor.
    """
    check = verify_right_fractions(mc, sig)
    if not check.holds:
        raise BuildError(f"no calculus of right fractions: {check.witness}", check)
    if mc.is_thin():
        return _localise_thin(mc, sig, caps)
    return _localise_spans(mc, sig, caps)


def _localise_thin(mc: MonoidalCategory, sig: SigmaClass,
                   caps: Caps) -> LocalisedCategory:
    """``localise`` of a thin category at a class with right fractions:
    the spans of each hom-pair form one class, so the result is thin
    and each table it keeps is a lookup by pair."""
    spans_by_pair = _spans_by_pair(mc, sig)
    pairs = sorted(spans_by_pair)
    index = {pair: k for k, pair in enumerate(pairs)}

    def classify(d: int, n: int) -> int:
        pair = (mc.cod(d), mc.cod(n))
        if pair not in index:
            raise _escaped(pair=pair)
        return index[pair]

    return _assemble(mc, sig, [frozenset(spans_by_pair[pair]) for pair in pairs],
                     [spans_by_pair[pair][0] for pair in pairs], classify, None, caps)


def _localise_spans(mc: MonoidalCategory, sig: SigmaClass,
                    caps: Caps) -> LocalisedCategory:
    """``localise`` by span equivalence, for a class with right
    fractions: spans are merged when they have a common refinement, and
    composites are found through every Ore filler."""
    uf = UnionFind()
    for spans in _spans_by_pair(mc, sig).values():
        for span in spans:
            uf.add(span)
        for x, y in itertools.combinations(spans, 2):
            if _span_equivalent(mc, sig, x, y):
                uf.union(x, y)

    by_rep = {min(group): frozenset(group) for group in uf.classes()}
    reps = sorted(by_rep, key=lambda rep: (mc.cod(rep.denominator),
                                           mc.cod(rep.numerator), rep))
    classes = [by_rep[rep] for rep in reps]
    span_class = {span: k for k, group in enumerate(classes) for span in group}

    def classify(d: int, n: int) -> int:
        span = FractionSpan(d, n)
        if span in span_class:
            return span_class[span]
        raise _escaped(span=span)

    def compose_spans(beta: FractionSpan, alpha: FractionSpan) -> int:
        results = set()
        p1, p2 = mc.dom(alpha.denominator), mc.dom(beta.denominator)
        for r in range(len(mc.objects)):
            for t in mc.hom(r, p1):
                if t not in sig.members:
                    continue
                mid_path = mc.compose(alpha.numerator, t)
                for g in mc.hom(r, p2):
                    if mc.compose(beta.denominator, g) != mid_path:
                        continue
                    results.add(classify(mc.compose(alpha.denominator, t),
                                         mc.compose(beta.numerator, g)))
        if not results:
            raise ConsistencyError("no Ore filler found during composition",
                                   details={"alpha": alpha, "beta": beta})
        if len(results) > 1:
            raise ConsistencyError("composition depends on the Ore filler",
                                   details={"alpha": alpha, "beta": beta,
                                            "classes": sorted(results)})
        return results.pop()

    return _assemble(mc, sig, classes, reps, classify,
                     lambda g, f: compose_spans(reps[g], reps[f]), caps)


def _assemble(mc: MonoidalCategory, sig: SigmaClass, classes, reps, classify,
              compose, caps: Caps) -> LocalisedCategory:
    """The localised category on the given classes, the k-th labelled by
    its representative ``reps[k]``: ``classify(d, n)`` is the class of
    the span (d, n) and ``compose(g, f)`` that of a composite, or None
    on a thin result; then the quotient functor, checked."""
    n_obj = len(mc.objects)
    cat = _tabulate(
        mc.objects,
        [(mc.cod(rep.denominator), mc.cod(rep.numerator),
          f"[{mc.mor_label(rep.denominator)};{mc.mor_label(rep.numerator)}]")
         for rep in reps],
        [classify(mc.identity(a), mc.identity(a)) for a in range(n_obj)],
        compose)
    loc = assert_valid(_tabulate_monoidal(
        cat, mc.unit,
        [[mc.tensor_obj(a, b) for b in range(n_obj)] for a in range(n_obj)],
        lambda f, g: classify(mc.tensor_mor(reps[f].denominator, reps[g].denominator),
                              mc.tensor_mor(reps[f].numerator, reps[g].numerator)),
        lambda a, b: classify(mc.identity(mc.tensor_obj(a, b)), mc.braiding(a, b))),
        caps=caps)

    q_mor = tuple(classify(mc.identity(f.dom), f.mid) for f in mc.morphisms)
    quotient = CatFunctor(mc, loc, tuple(range(n_obj)), q_mor)
    quotient.check_strict_monoidal()
    for s in sig.members:
        if is_iso(loc, q_mor[s]) is None:
            raise ConsistencyError("quotient functor fails to invert the class",
                                   details={"member": s})
    return LocalisedCategory(loc, mc, sig, quotient, tuple(classes), tuple(reps))


def is_simple(mc: MonoidalCategory) -> bool:
    """No subunits except the identity class."""
    subs = enumerate_subunits(mc)
    return len(subs) == 1 and mc.identity(mc.unit) in subs[0].cls.members


def simple_quotient(mc: MonoidalCategory, caps: Caps = DEFAULT_CAPS) -> LocalisedCategory:
    """Invert every tensored subunit inclusion at once; the result is
    verified simple."""
    loc = localise(mc, sigma(mc), caps=caps)
    if not is_simple(loc.category):
        raise ConsistencyError("simple quotient still has proper subunits",
                               details={"objects": loc.category.objects})
    return loc


def localisation_factor(loc: LocalisedCategory, functor: CatFunctor) -> CatFunctor:
    """Factor a functor that inverts the class through the quotient.

    The factor sends a span class to target(numerator) after the inverse
    of target(denominator); it is checked well defined on every class
    member, functorial, and exactly equal to the original on images of
    the quotient.
    """
    functor.check_functor()
    mc = loc.source
    target = functor.target
    for s in loc.sigma.members:
        if is_iso(target, functor.on_mor(s)) is None:
            raise BuildError(f"functor does not invert class member {s}")
    mor_map = []
    for members in loc.classes:
        values = set()
        for span in members:
            inv = is_iso(target, functor.on_mor(span.denominator))
            values.add(target.compose(functor.on_mor(span.numerator), inv))
        if len(values) != 1:
            raise ConsistencyError("factor is not constant on a span class",
                                   details={"values": sorted(values)})
        mor_map.append(values.pop())
    factored = CatFunctor(loc.category, target, functor.obj_map, tuple(mor_map))
    factored.check_functor()
    for f in mc.morphisms:
        if factored.on_mor(loc.quotient.on_mor(f.mid)) != functor.on_mor(f.mid):
            raise ConsistencyError("factor does not recover the functor",
                                   details={"morphism": f.mid})
    return factored


def restriction_localisation_equivalence(mc: MonoidalCategory, s: Subunit,
                                         caps: Caps = DEFAULT_CAPS) -> PropertyReport:
    """Restriction to s is the localisation at its tensored inclusions:
    the coreflector inverts them, and the induced factor puts each
    localised hom-set in bijection with the restricted one."""
    loc = localise(mc, sigma(mc, [s]), caps=caps)
    rc = restriction_category(mc, s)
    factored = localisation_factor(loc, rc.coreflector)
    sub = rc.subcategory
    for a in range(len(mc.objects)):
        for b in range(len(mc.objects)):
            loc_hom = [m.mid for m in loc.category.morphisms
                       if m.dom == a and m.cod == b]
            images = [factored.on_mor(k) for k in loc_hom]
            target_hom = sub.hom(factored.on_obj(a), factored.on_obj(b))
            if len(set(images)) != len(images) or set(images) != set(target_hom):
                return PropertyReport(
                    "restriction_is_localisation", False, witness=(a, b),
                    details={"loc_hom": loc_hom, "images": images,
                             "restricted_hom": list(target_hom)})
    return PropertyReport("restriction_is_localisation", True,
                          details={"subunit": s.rep})
