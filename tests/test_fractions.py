from __future__ import annotations

import itertools

import pytest

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (OUT_OF_RANGE, build_cached, closure_lattices, completion_cached,
                      explicit_compose, generic_hierarchy_sweeps, mor_by_label,
                      out_of_range_entry, subunit_by_domain, sweep_functor_tensor,
                      thin_monoidal_preorders)
from ttw import gallery
from ttw.caps import DEFAULT_CAPS
from ttw.errors import BuildError, MalformedTableError
from ttw.fincat import CatFunctor, from_semilattice, is_iso, objects_isomorphic
from ttw.fractions import (FractionSpan, SigmaClass, _localise_spans,
                           _span_equivalent, is_simple, localisation_factor,
                           localise, restriction_localisation_equivalence, sigma,
                           simple_quotient, verify_right_fractions)
from ttw.orderkit import Semilattice
from ttw.restriction import restriction_category
from ttw.subunits import _tensor_left, _tensor_right, enumerate_subunits


def top_subunit(mc):
    return next(s for s in enumerate_subunits(mc)
                if mc.identity(mc.unit) in s.cls.members)


# ---------------------------------------------------------------------------
# the inverted class


def test_sigma_of_identity_subunit_is_identities(q3):
    sig = sigma(q3, [top_subunit(q3)])
    assert sig.members == frozenset(q3.identity(a)
                                    for a in range(len(q3.objects)))


def test_sigma_of_q3_contains_zero_tensors(q3):
    sig = sigma(q3)
    zero = subunit_by_domain(q3, enumerate_subunits(q3), "0")
    for a in range(len(q3.objects)):
        assert q3.tensor_mor(zero.rep, q3.identity(a)) in sig.members


def test_sigma_composition_lands_on_meets(boolean2x2):
    # composing tensored inclusions stays inside the class and the
    # composite is again a tensored inclusion of the meet
    mc = boolean2x2
    sig = sigma(mc)
    members = sig.members
    for f in members:
        for g in members:
            if mc.dom(g) == mc.cod(f):
                assert mc.compose(g, f) in members


def test_right_fraction_conditions_on_gallery(gallery_category):
    name, mc = gallery_category
    assert verify_right_fractions(mc, sigma(mc)).holds


def test_identities_only_sigma_passes(gallery_category):
    name, mc = gallery_category
    sig = sigma(mc, [top_subunit(mc)])
    assert verify_right_fractions(mc, sig).holds


def test_adversarial_sigma_fails_with_witness(q3):
    # identities plus 0 -> eps and eps -> 1 but not their composite
    members = {q3.identity(a) for a in range(3)}
    members.add(mor_by_label(q3, "0->eps"))
    members.add(mor_by_label(q3, "eps->1"))
    sig = SigmaClass(q3, frozenset(members))
    report = verify_right_fractions(q3, sig)
    assert not report.holds
    assert report.witness[0] in ("composition", "tensor")


# ---------------------------------------------------------------------------
# localisation


def test_localise_at_identities_is_identity(gallery_category):
    name, mc = gallery_category
    loc = localise(mc, sigma(mc, [top_subunit(mc)]))
    assert loc.category.objects == mc.objects
    assert len(loc.category.morphisms) == len(mc.morphisms)
    images = {loc.quotient.on_mor(m.mid) for m in mc.morphisms}
    assert len(images) == len(mc.morphisms)


def test_span_equivalence_is_equivalence_relation(q3):
    sig = sigma(q3)
    spans = []
    for d in sorted(sig.members):
        p = q3.dom(d)
        for b in range(len(q3.objects)):
            for n in q3.hom(p, b):
                spans.append(FractionSpan(d, n))
    same_type = lambda x, y: (q3.cod(x.denominator) == q3.cod(y.denominator)
                              and q3.cod(x.numerator) == q3.cod(y.numerator))
    for x in spans:
        assert _span_equivalent(q3, sig, x, x)
    for x, y in itertools.permutations(spans, 2):
        if same_type(x, y) and _span_equivalent(q3, sig, x, y):
            assert _span_equivalent(q3, sig, y, x)
    for x, y, z in itertools.permutations(spans, 3):
        if same_type(x, y) and same_type(y, z) and \
                _span_equivalent(q3, sig, x, y) and \
                _span_equivalent(q3, sig, y, z):
            assert _span_equivalent(q3, sig, x, z)


def test_q3_simple_quotient_skeleton(q3):
    # computed by span enumeration: all three objects become isomorphic
    # and every hom-set collapses to a point
    loc = simple_quotient(q3)
    cat = loc.category
    assert len(cat.objects) == 3
    for a in range(3):
        for b in range(3):
            assert len(cat.hom(a, b)) == 1
        assert objects_isomorphic(cat, a, 0) is not None
    assert is_simple(cat)


def test_b2_simple_quotient_identifies_bottom_with_top(b2):
    loc = simple_quotient(b2)
    assert objects_isomorphic(loc.category, 0, 1) is not None
    assert is_simple(loc.category)


def test_simple_quotient_gallery(gallery_category):
    name, mc = gallery_category
    loc = simple_quotient(mc)  # verifies simplicity internally
    assert is_simple(loc.category)


def test_group_category_already_simple(z2):
    assert is_simple(z2)
    loc = simple_quotient(z2)
    assert len(loc.category.morphisms) == len(z2.morphisms)


def test_simple_quotient_idempotent(gallery_category):
    name, mc = gallery_category
    once = simple_quotient(mc)
    twice = simple_quotient(once.category)
    assert twice.category.objects == once.category.objects
    for a in range(len(once.category.objects)):
        for b in range(len(once.category.objects)):
            assert len(twice.category.hom(a, b)) == \
                len(once.category.hom(a, b))


def test_quotient_functor_is_monoidal(q3):
    loc = simple_quotient(q3)
    loc.quotient.check_strict_monoidal()
    for member in loc.sigma.members:
        assert is_iso(loc.category, loc.quotient.on_mor(member)) is not None


def test_factorisation_through_quotient(gallery_category):
    # the quotient functor itself inverts the class, so it factors
    # through itself by an isomorphism-on-homs functor
    name, mc = gallery_category
    loc = simple_quotient(mc)
    factored = localisation_factor(loc, loc.quotient)
    for m in mc.morphisms:
        assert factored.on_mor(loc.quotient.on_mor(m.mid)) == \
            loc.quotient.on_mor(m.mid)


@pytest.mark.parametrize("table, past_end", OUT_OF_RANGE)
def test_factor_of_an_out_of_range_functor_is_malformed(z2, table, past_end):
    loc = simple_quotient(z2)
    broken = out_of_range_entry(loc.quotient, table, past_end)
    with pytest.raises(MalformedTableError, match="out of range"):
        localisation_factor(loc, broken)


def test_restriction_is_localisation(q3, boolean2x2):
    for mc in (q3, boolean2x2):
        for s in enumerate_subunits(mc):
            report = restriction_localisation_equivalence(mc, s)
            assert report.holds


def test_localise_requires_fraction_calculus(q3):
    # identities plus 0->eps alone do admit the calculus (and localising
    # there identifies 0 with eps); dropping closure breaks it
    members = {q3.identity(a) for a in range(3)}
    members.add(mor_by_label(q3, "0->eps"))
    good = SigmaClass(q3, frozenset(members))
    loc = localise(q3, good)
    assert objects_isomorphic(loc.category, 0, 1) is not None
    members.add(mor_by_label(q3, "eps->1"))
    bad = SigmaClass(q3, frozenset(members))
    with pytest.raises(BuildError):
        localise(q3, bad)


@pytest.mark.parametrize("name, count", [
    ("b2", 6), ("c3", 42), ("q3", 30), ("boolean2x2", 108)])
def test_factor_of_a_corrupted_coreflector_is_refused(name, count):
    # the restriction coreflector with one morphism sent elsewhere is no
    # longer a functor, and is refused as one before anything composes it
    mc = build_cached(name)
    corruptions = 0
    for s in enumerate_subunits(mc):
        loc = localise(mc, sigma(mc, [s]))
        cor = restriction_category(mc, s).coreflector
        for f, image in enumerate(cor.mor_map):
            for wrong in range(len(cor.target.morphisms)):
                if wrong != image:
                    bad = cor.mor_map[:f] + (wrong,) + cor.mor_map[f + 1:]
                    with pytest.raises(BuildError):
                        localisation_factor(
                            loc, CatFunctor(mc, cor.target, cor.obj_map, bad))
                    corruptions += 1
    assert corruptions == count


# ---------------------------------------------------------------------------
# the thin localisation by typing against the span construction

THIN_GALLERY = [name for name in gallery.names() if build_cached(name).is_thin()]
# the span construction and the member walk take 15-16 s on each of these
SPANS_TOO_SLOW = {("m3", "finite"), ("m3", "all")}
THIN_SOURCES = [(name, flavour) for name in THIN_GALLERY
                for flavour in (None, "finite", "directed", "all")]


def thin_source(name, flavour):
    return (build_cached(name) if flavour is None
            else completion_cached(name, flavour).category)


def localisation_tables(loc):
    cat = loc.category
    return (cat.objects, cat.morphisms, cat.cat.identity, explicit_compose(cat),
            cat.unit, cat.mon.tensor_obj, cat.mon.tensor_mor, cat.mon.braiding,
            loc.classes, loc.reps, loc.quotient.obj_map, loc.quotient.mor_map)


def assert_thin_route_matches_spans(mc, sig):
    """The mask checks give the report of the member walk, and where the
    calculus holds the localisation by typing equals the span
    construction: tables, labels, classes, representatives and quotient
    functor.  Returns the report."""
    assert mc.is_thin()
    report = verify_right_fractions(mc, sig)
    with generic_hierarchy_sweeps():
        assert verify_right_fractions(mc, sig) == report
    if report.holds:
        assert localisation_tables(localise(mc, sig)) == \
            localisation_tables(_localise_spans(mc, sig, DEFAULT_CAPS))
    return report


def assert_thin_localisations_match_spans(mc):
    """At every subunit at once (the simple quotient) and at each one."""
    assert_thin_route_matches_spans(mc, sigma(mc))
    for s in enumerate_subunits(mc):
        assert_thin_route_matches_spans(mc, sigma(mc, [s]))


@pytest.mark.parametrize("name, flavour", [
    source for source in THIN_SOURCES if source not in SPANS_TOO_SLOW])
def test_thin_localisation_matches_the_span_construction(name, flavour):
    assert_thin_localisations_match_spans(thin_source(name, flavour))


@settings(max_examples=40, deadline=None)
@given(st.one_of(thin_monoidal_preorders(),
                 closure_lattices().map(
                     lambda poset: from_semilattice(Semilattice.from_poset(poset)))))
def test_thin_localisation_matches_the_span_construction_on_generated_categories(mc):
    assert_thin_localisations_match_spans(mc)


def closed_class(mc, members, compose: bool) -> frozenset[int]:
    """``members`` closed under tensoring with objects on either side,
    and under composition when ``compose`` is set."""
    members = set(members)
    while True:
        new = {h for f in members for a in range(len(mc.objects))
               for h in (_tensor_right(mc, f, a), _tensor_left(mc, a, f))}
        if compose:
            new |= {mc.compose(g, f) for f in members for g in members
                    if mc.dom(g) == mc.cod(f)}
        if new <= members:
            return frozenset(members)
        members |= new


@pytest.mark.parametrize("name, verdicts", [
    ("b2", {"holds": 38, "ore": 12}),
    ("c3", {"holds": 110, "ore": 78}),
    ("q3", {"holds": 70, "ore": 27, "composition": 11})])
def test_hand_made_thin_classes_get_the_same_report_on_both_routes(name, verdicts):
    # per morphism g of the "all" completion, identities and g closed
    # under the tensor alone (some fail composition closure) and under
    # composition too (some fail the Ore condition)
    mc = completion_cached(name, "all").category
    identities = {mc.identity(a) for a in range(len(mc.objects))}
    seen = Counter()
    for g in range(len(mc.morphisms)):
        for compose in (False, True):
            sig = SigmaClass(mc, closed_class(mc, identities | {g}, compose))
            report = assert_thin_route_matches_spans(mc, sig)
            seen["holds" if report.holds else report.witness[0]] += 1
    assert seen == verdicts


@pytest.mark.parametrize("name, flavour", THIN_SOURCES)
def test_thin_target_functors_pass_the_tensor_sweep(name, flavour):
    # check_strict_monoidal checks no tensor pair on a thin target; the
    # sweep it skips holds on the quotient functors and completion
    # embeddings the library builds
    mc = thin_source(name, flavour)
    functors = [simple_quotient(mc).quotient]
    if (name, flavour) not in SPANS_TOO_SLOW:
        functors += [localise(mc, sigma(mc, [s])).quotient
                     for s in enumerate_subunits(mc)]
    if flavour is not None:
        functors.append(completion_cached(name, flavour).embedding)
    for functor in functors:
        assert functor.target.is_thin()
        assert sweep_functor_tensor(functor) is None
