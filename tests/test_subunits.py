from __future__ import annotations

import functools
import gc
import weakref

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (brute_d_diagram, brute_is_pullback, brute_is_pushout,
                      build_cached, closure_lattices, commutative_monoids,
                      completion_cached, generic_hierarchy_sweeps,
                      obj_by_label, ordered_monoid_category, outcome,
                      scan_is_distributive, split_monoid_category, subunit_by_domain,
                      sweep_join_preserved, sweep_universal_directed_joins,
                      thin_monoidal_preorders)
import ttw.subunits
from ttw import gallery
from ttw.caps import DEFAULT_CAPS, Caps
from ttw.daycat import broad_category
from ttw.errors import BuildError, CapExceededError, TtwError
from ttw.fincat import (FinCategory, MonoidalCategory, MonoidalData, Morphism,
                        all_cocones, colimit, from_commutative_monoid,
                        from_quantale, from_semilattice, is_iso, is_pullback,
                        is_pushout, objects_isomorphic, subobjects)
from ttw.fractions import simple_quotient
from ttw.orderkit import (FinPoset, Quantale, Semilattice, _bits, ideal_quantale,
                          is_distributive, is_preframe, poset_isomorphism,
                          quantale_subunits)
from ttw.subunits import (_join_preserved, _tensor_right, check_characterisation,
                          d_diagram, enumerate_subunits,
                          has_universal_directed_joins,
                          has_universal_finite_joins, idempotent_families,
                          is_firm, is_locale_based, is_stiff, retract_pairs,
                          subunit_leq, subunit_leq_factoring,
                          subunit_leq_invertibility, subunit_semilattice)


# ---------------------------------------------------------------------------
# enumeration


def test_semilattice_subunits_are_all_elements(gallery_category):
    name, mc = gallery_category
    subs = enumerate_subunits(mc)
    expected = gallery.GALLERY[name].expected_subunits
    assert tuple(mc.obj_label(s.domain) for s in subs) == expected


def test_q3_subunits(q3):
    subs = enumerate_subunits(q3)
    assert [q3.obj_label(s.domain) for s in subs] == ["0", "1"]


def test_one_object_group_has_single_subunit(z2):
    subs = enumerate_subunits(z2)
    assert len(subs) == 1
    # ... even though there are two monomorphisms into the unit
    assert len(subs[0].cls.members) == 2
    # and the category has no terminal object
    from ttw.fincat import terminal_object
    assert terminal_object(z2) is None


def test_subunits_determined_by_domain(gallery_category):
    name, mc = gallery_category
    subs = enumerate_subunits(mc)
    classes = {s.cls.representative: s for s in subs}
    for s in subs:
        for member in s.cls.members:
            assert mc.dom(member) in [mc.dom(m) for m in s.cls.members]
    # any two subunit monos with the same domain lie in one class
    monos = [m for cls in subobjects(mc, mc.unit) for m in cls.members]
    for s in subs:
        for t in subs:
            if s is not t:
                assert mc.dom(s.rep) != mc.dom(t.rep) or s.rep == t.rep


def split_epic_subunits(mc) -> list[int]:
    """Oracle: representatives s of subobjects of the unit for which
    s (x) S has a section g, (s (x) S) o g = id, instead of an inverse."""
    out = []
    for cls in subobjects(mc, mc.unit):
        cand = _tensor_right(mc, cls.representative, mc.dom(cls.representative))
        if any(mc.compose(cand, g) == mc.identity(mc.cod(cand))
               for g in mc.hom(mc.cod(cand), mc.dom(cand))):
            out.append(cls.representative)
    return out


def test_split_epic_mode_matches_on_gallery(gallery_category):
    name, mc = gallery_category
    invertible = enumerate_subunits(mc)
    assert [s.rep for s in invertible] == split_epic_subunits(mc)


# ---------------------------------------------------------------------------
# order


def test_everything_below_identity_subunit(gallery_category):
    name, mc = gallery_category
    subs = enumerate_subunits(mc)
    top = next(s for s in subs if mc.identity(mc.unit) in s.cls.members)
    for s in subs:
        assert subunit_leq(mc, s, top)


def test_c3_subunit_order(c3):
    subs = enumerate_subunits(c3)
    m = subunit_by_domain(c3, subs, "m")
    one = subunit_by_domain(c3, subs, "1")
    assert subunit_leq(c3, m, one)
    assert not subunit_leq(c3, one, m)


def test_order_routes_agree_everywhere(gallery_category):
    name, mc = gallery_category
    subs = enumerate_subunits(mc)
    for s in subs:
        for t in subs:
            assert subunit_leq_factoring(mc, s, t) == \
                subunit_leq_invertibility(mc, s, t)
            subunit_leq(mc, s, t)  # raises on disagreement


# ---------------------------------------------------------------------------
# semilattice of subunits


def test_semilattice_of_semilattice_category_is_input(boolean2x2):
    lat = subunit_semilattice(boolean2x2)
    assert lat.lattice.elements == ("0", "a", "b", "1")
    from ttw.gallery import boolean2x2_semilattice
    assert poset_isomorphism(lat.lattice.poset,
                             boolean2x2_semilattice().poset) is not None


def test_q3_subunit_semilattice_is_two_chain(q3):
    lat = subunit_semilattice(q3)
    assert lat.lattice.elements == ("0", "1")
    assert lat.meet(0, 1) == 0 and lat.meet(1, 1) == 1


def test_meet_is_quantale_product_of_idempotents():
    for name in ("q3", "ideal2", "boolean2x2"):
        mc = build_cached(name)
        entry = gallery.GALLERY[name]
        q = entry.quantale()
        lat = subunit_semilattice(mc)
        q_subs = quantale_subunits(q)
        for i in range(len(lat)):
            for j in range(len(lat)):
                meet_dom = mc.obj_label(lat.subunits[lat.meet(i, j)].domain)
                a = q.elements.index(mc.obj_label(lat.subunits[i].domain))
                b = q.elements.index(mc.obj_label(lat.subunits[j].domain))
                assert q.elements[q.mult[a][b]] == meet_dom


def assert_quantale_subunits_match(q) -> None:
    """The idempotents below the unit of a commutative quantale, against
    the subunits of its thin category: the same labels, isomorphic
    orders, and the same meets under the label map."""
    formula = quantale_subunits(q)
    lattice = subunit_semilattice(from_quantale(q)).lattice
    assert sorted(formula.elements) == sorted(lattice.elements)
    assert poset_isomorphism(formula.poset, lattice.poset) is not None
    at = [lattice.elements.index(label) for label in formula.elements]
    for i in range(len(formula)):
        for j in range(len(formula)):
            assert formula.poset.leq[i][j] == lattice.poset.leq[at[i]][at[j]]
            assert at[formula.meet(i, j)] == lattice.meet(at[i], at[j])


@settings(max_examples=30, deadline=None)
@given(commutative_monoids())
def test_quantale_subunits_of_ideal_quantales(monoid):
    try:
        q = ideal_quantale(monoid)
    except CapExceededError:
        assume(False)
    assert_quantale_subunits_match(q)


@settings(max_examples=20, deadline=None)
@given(closure_lattices())
def test_quantale_subunits_of_distributive_lattices(poset):
    # a finite distributive lattice under meet is a frame, so a quantale
    # whose idempotents below the unit are all of its elements
    assume(is_distributive(poset))
    assert_quantale_subunits_match(
        Quantale.from_semilattice(Semilattice.from_poset(poset)))


def test_subunit_semilattice_laws_hold(gallery_category):
    name, mc = gallery_category
    lat = subunit_semilattice(mc)  # the constructor verifies all laws
    n = len(lat)
    for i in range(n):
        assert lat.meet(i, lat.top) == i
        for j in range(n):
            assert lat.meet(i, j) == lat.meet(j, i)
            assert (lat.meet(i, j) == i) == lat.leq[i][j]
            for k in range(n):
                assert lat.meet(lat.meet(i, j), k) == lat.meet(i, lat.meet(j, k))


# ---------------------------------------------------------------------------
# firmness, including a constructed failure


def test_gallery_is_firm(gallery_category):
    name, mc = gallery_category
    assert is_firm(mc).holds


def non_firm_tables() -> MonoidalCategory:
    """Deliberately unlawful tables where two subunits s, t have a
    non-monic s (x) T; only the checks is_firm needs are meaningful."""
    objects = ("I", "S", "T", "P")
    labels = ["id_I", "id_S", "id_T", "id_P", "s", "t", "p", "q", "r", "e"]
    doms = [0, 1, 2, 3, 1, 2, 3, 3, 3, 3]
    cods = [0, 1, 2, 3, 0, 0, 1, 2, 0, 3]
    morphisms = tuple(Morphism(k, doms[k], cods[k], labels[k])
                      for k in range(10))
    identity = (0, 1, 2, 3)
    compose = {}
    for f in morphisms:
        for g in morphisms:
            if g.dom != f.cod:
                continue
            if f.mid == identity[f.dom]:
                compose[(g.mid, f.mid)] = g.mid
            elif g.mid == identity[g.dom]:
                compose[(g.mid, f.mid)] = f.mid
            else:
                pair = (labels[g.mid], labels[f.mid])
                table = {("s", "p"): "r", ("t", "q"): "r", ("p", "e"): "p",
                         ("q", "e"): "q", ("r", "e"): "r", ("e", "e"): "e"}
                compose[(g.mid, f.mid)] = labels.index(table[pair])
    t_obj = ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3))
    hom_first = {}
    for m in morphisms:
        hom_first.setdefault((m.dom, m.cod), m.mid)
    t_mor = {}
    for f in morphisms:
        for g in morphisms:
            key = (t_obj[f.dom][g.dom], t_obj[f.cod][g.cod])
            t_mor[(f.mid, g.mid)] = hom_first[key]
    # pin the entries the subunit machinery consults
    t_mor[(4, 1)] = 1   # s (x) S invertible
    t_mor[(5, 2)] = 2   # t (x) T invertible
    t_mor[(4, 2)] = 7   # s (x) T = q, the non-monic side
    t_mor[(5, 1)] = 6   # t (x) S = p
    t_mor[(4, 0)] = 4
    t_mor[(5, 0)] = 5
    braiding = tuple(tuple(identity[t_obj[b][a]] for b in range(4))
                     for a in range(4))
    cat = FinCategory(objects, morphisms, identity, compose)
    return MonoidalCategory(cat, MonoidalData(0, t_obj, t_mor, braiding))


def test_constructed_non_firm_category_reports_witness():
    mc = non_firm_tables()
    subs = enumerate_subunits(mc)
    assert sorted(mc.obj_label(s.domain) for s in subs) == ["I", "S", "T"]
    report = is_firm(mc)
    assert not report.holds
    s_rep, t_rep, culprit = report.witness
    assert mc.mor_label(culprit) == "q"
    # the witness is replayable: q really is not monic
    from ttw.fincat import is_mono
    assert not is_mono(mc, culprit)
    # and the semilattice construction refuses the category, on every
    # call, keeping nothing
    for _ in range(2):
        with pytest.raises(BuildError):
            subunit_semilattice(mc)
    assert "subunit_semilattice" not in mc.derived


# ---------------------------------------------------------------------------
# the join hierarchy


def test_gallery_is_stiff(gallery_category):
    name, mc = gallery_category
    assert is_stiff(mc).holds


def test_boolean2x2_has_universal_finite_joins(boolean2x2):
    assert has_universal_finite_joins(boolean2x2).holds


def test_m3_universal_finite_joins_fail_with_replayable_witness(m3):
    report = has_universal_finite_joins(m3)
    assert not report.holds
    assert report.details["stage"] == "square"
    s_rep, t_rep, x, left, top, bottom_leg, right_leg = report.witness
    assert not is_pushout(m3, left, top, bottom_leg, right_leg)
    assert not brute_is_pushout(m3, left, top, bottom_leg, right_leg)


def test_quantale_categories_locale_based():
    for name in ("b2", "c3", "q3", "boolean2x2", "ideal2"):
        assert is_locale_based(build_cached(name)).holds


def test_directed_joins():
    assert has_universal_directed_joins(build_cached("c3")).holds
    assert has_universal_directed_joins(build_cached("m3")).holds
    assert not has_universal_directed_joins(build_cached("z2")).holds
    # without the empty family, the one-object group needs no initial object
    assert has_universal_directed_joins(build_cached("z2"),
                                        include_empty=False).holds


def test_m3_not_locale_based(m3):
    report = is_locale_based(m3)
    assert not report.holds
    assert report.details["finite"] is False
    assert report.details["directed"] is True


def test_hierarchy_is_monotone(gallery_category):
    name, mc = gallery_category
    firm = is_firm(mc).holds
    stiff = is_stiff(mc).holds
    finite = has_universal_finite_joins(mc).holds
    directed = has_universal_directed_joins(mc).holds
    locale = is_locale_based(mc).holds
    assert not stiff or firm
    assert not finite or stiff
    assert not directed or stiff
    assert not locale or (finite and directed)
    assert locale == (finite and directed)
    assert locale == gallery.GALLERY[name].expected_locale_based


def test_characterisation_agrees_on_gallery(gallery_category):
    name, mc = gallery_category
    report = check_characterisation(mc)  # raises on any disagreement
    assert report.details["verdicts"]["all"] == \
        gallery.GALLERY[name].expected_locale_based


@settings(max_examples=40, deadline=None)
@given(closure_lattices())
def test_characterisation_on_closure_lattices_is_distributivity(poset):
    # a finite lattice under meet: every family of subunits has a top, so
    # directed joins are universal, and finite joins are universal exactly
    # when meets distribute over joins, which for a finite lattice also
    # makes it a frame
    mc = from_semilattice(Semilattice.from_poset(poset))
    d = scan_is_distributive(poset)
    report = check_characterisation(mc)
    assert report.details["verdicts"] == {"all": d, "finite": d, "directed": True}
    assert is_locale_based(mc).holds == d


def test_characterisation_b2_all_conditions(b2):
    report = check_characterisation(b2)
    assert report.holds and not report.witness


def test_characterisation_m3_witness(m3):
    report = check_characterisation(m3)
    assert not report.holds
    witness = report.details["witnesses"]["all"]
    family, x, comparison, reason = witness
    assert reason == "comparison not invertible"
    assert is_iso(m3, comparison) is None
    # the degenerate colimit: the family of a, b over object c collapses
    lat = subunit_semilattice(m3)
    a = lat.index_of_domain("a")
    b = lat.index_of_domain("b")
    c = obj_by_label(m3, "c")
    fam = tuple(sorted(lat.lattice.poset.down_closure((a, b))))
    col = colimit(m3, d_diagram(m3, lat, fam, c))
    assert m3.obj_label(col.apex) == "0"


@pytest.mark.parametrize("name", ["z2", "monoid_idem"])
def test_empty_family_counts_for_all_and_finite_joins(name):
    # without an initial object the empty join is missing, whether or
    # not the empty family counts as directed
    mc = gallery.build(name)
    report = check_characterisation(mc, include_empty=False)
    assert report.details["verdicts"] == \
        {"all": False, "finite": False, "directed": True}
    assert report.witness == ((), mc.unit, "no colimit over the unit")
    locale = is_locale_based(mc, include_empty=False)
    assert (locale.holds, locale.details["finite"], locale.details["directed"]) \
        == (False, False, True)


# ---------------------------------------------------------------------------
# the thin branches of the join hierarchy against the generic sweeps


def hierarchy_outcomes(mc) -> list:
    """The outcome of is_stiff and has_universal_finite_joins, and of
    check_characterisation, is_locale_based and
    has_universal_directed_joins under both conventions for the empty
    family.  The checks call one another with the same arguments, so
    within this call each runs once per convention and a repeated call
    gives back the first one's report or error."""
    first: dict[tuple, tuple] = {}

    def once(check):
        def call(mc, **kwargs):
            key = (check.__name__, kwargs.get("include_empty"))
            if key not in first:
                try:
                    first[key] = (check(mc, **kwargs), None)
                except TtwError as exc:
                    first[key] = (None, exc)
            report, error = first[key]
            if error is not None:
                raise error
            return report
        return call
    with pytest.MonkeyPatch.context() as patch:
        for check in (has_universal_finite_joins, is_locale_based,
                      has_universal_directed_joins):
            patch.setattr(ttw.subunits, check.__name__, once(check))
        out = [outcome(ttw.subunits.is_stiff, mc),
               outcome(ttw.subunits.has_universal_finite_joins, mc)]
        for include_empty in (True, False):
            for name in ("check_characterisation", "is_locale_based",
                         "has_universal_directed_joins"):
                out.append(outcome(getattr(ttw.subunits, name), mc,
                                   include_empty=include_empty))
    return out


def replay_hierarchy_witness(mc, report) -> None:
    """Replays the witness of a negative verdict: a square of stiffness
    or of universal finite joins (also where the directed joins or the
    locale-based check stop at stiffness) through ``replay_square``, and
    a swept stage of the characterisation or the locale-based check
    through ``colimit`` on ``d_diagram`` and ``is_iso``.  The directed
    joins fail only at the stiffness and empty-family stages, on every
    category, so they have no swept witness of their own."""
    lat = subunit_semilattice(mc)

    def col(family, x):
        return colimit(mc, d_diagram(mc, lat, family, x))
    if report.name == "stiff":
        replay_square(mc, lat, "stiff", report.witness, report.details["reason"])
    elif report.details.get("stage") == "stiff":
        replay_square(mc, lat, "stiff", report.witness,
                      is_stiff(mc).details["reason"])
    elif report.name == "universal_finite_joins" and \
            report.details["stage"] == "square":
        replay_square(mc, lat, report.name, report.witness, report.details["reason"])
    elif report.name == "characterisation":
        for family, x, *rest in report.details["witnesses"].values():
            if rest in (["no colimit over the unit"], ["no colimit"]):
                assert col(family, x) is None
                continue
            comparison, reason = rest
            assert reason == "comparison not invertible"
            assert is_iso(mc, comparison) is None
            assert mc.dom(comparison) == col(family, x).apex
            assert mc.cod(comparison) == \
                mc.tensor_obj(col(family, mc.unit).apex, x)
    elif report.name == "locale_based" and report.details.get("stage") == "colimit":
        family, x = report.witness
        v = lat.join(family) if family else lat.bottom()
        found = col(family, x)
        assert found is None or objects_isomorphic(
            mc, found.apex, mc.tensor_obj(lat.subunits[v].domain, x)) is None


def replay_square(mc, lat, name, witness, reason) -> None:
    """The witness (s, t, X, *sides) of a square of stiffness (``name``
    "stiff": bottom, right, left, top into X) or of universal finite
    joins (left, top, bottom, right into V (x) X, for the join v) that
    is not a pullback or not a pushout: each side runs between the
    tensored objects, and the named square test fails on the sides, as
    does its brute-force oracle.  Every side of the thin inputs replayed
    here is monic."""
    s_rep, t_rep, x, *sides = witness
    index = {s.rep: k for k, s in enumerate(lat.subunits)}
    i, j = index[s_rep], index[t_rep]
    sd, td = lat.subunits[i].domain, lat.subunits[j].domain
    sx, tx = mc.tensor_obj(sd, x), mc.tensor_obj(td, x)
    if name == "stiff":
        bottom, right, left, top = sides
        target = x
    else:
        left, top, bottom, right = sides
        target = mc.tensor_obj(lat.subunits[lat.join((i, j))].domain, x)
    stx = mc.tensor_obj(sd, tx)
    assert [(mc.dom(m), mc.cod(m)) for m in (left, top, bottom, right)] == \
        [(stx, sx), (stx, tx), (sx, target), (tx, target)]
    if reason == "not a pushout":
        assert not is_pushout(mc, left, top, bottom, right)
        assert not brute_is_pushout(mc, left, top, bottom, right)
    else:
        assert reason in ("square is not a pullback", "not a pullback")
        assert not is_pullback(mc, bottom, right, left, top)
        assert not brute_is_pullback(mc, bottom, right, left, top)


def assert_thin_hierarchy_matches_sweep(mc) -> None:
    assert mc.is_thin()
    fast = hierarchy_outcomes(mc)
    with generic_hierarchy_sweeps():
        assert hierarchy_outcomes(mc) == fast
    for result in fast:
        if result[0] == "value" and not result[1].holds:
            replay_hierarchy_witness(mc, result[1])


@pytest.mark.parametrize("name", gallery.names())
def test_thin_hierarchy_matches_sweep_on_gallery(name):
    # m3 "all" and "finite" take seconds each on the sweep
    flavours = ("directed",) if name == "m3" else ("finite", "directed", "all")
    for mc in (build_cached(name),
               *(completion_cached(name, f).category for f in flavours)):
        if mc.is_thin():
            assert_thin_hierarchy_matches_sweep(mc)


@settings(max_examples=15, deadline=None)
@given(closure_lattices(max_size=8))
def test_thin_hierarchy_matches_sweep_on_closure_lattices(poset):
    assert_thin_hierarchy_matches_sweep(
        from_semilattice(Semilattice.from_poset(poset)))


@settings(max_examples=40, deadline=None)
@given(thin_monoidal_preorders())
def test_thin_hierarchy_matches_sweep_on_monoidal_preorders(mc):
    assert_thin_hierarchy_matches_sweep(mc)


@pytest.mark.parametrize("build, stiff, finite", [
    (split_monoid_category, "square is not a pullback", "not a pullback"),
    (lambda: gallery.build("m3"), None, "not a pushout")], ids=["split", "m3"])
def test_thin_squares_fail_at_each_stage_like_the_sweep(build, stiff, finite):
    # the "split" preorder is not stiff, so its squares fail at the
    # pullback; m3 is stiff, and its join squares fail at the pushout
    mc = build()
    assert is_stiff(mc).details.get("reason") == stiff
    assert has_universal_finite_joins(mc).details == \
        {"stage": "square", "reason": finite}
    assert_thin_hierarchy_matches_sweep(mc)


def test_a_zero_tensor_that_is_not_initial_fails_like_the_sweep():
    # the chain e0 < e1 under max, unit e0: the unit is initial, and
    # e1 (x) e0 = e1 is not
    mc = ordered_monoid_category(((0, 1), (1, 1)), 0, [(0, 1)])
    report = has_universal_finite_joins(mc)
    assert (report.witness, report.details) == (
        ("X (x) 0 is not initial at X=1",), {"stage": "initial"})
    assert_thin_hierarchy_matches_sweep(mc)


# ---------------------------------------------------------------------------
# the thin join test, one object per isomorphism class


def assert_join_preserved_matches_the_sweep(mc) -> int:
    """``_join_preserved`` against the sweep over every object, with the
    same result, witness and cap refusal: for every meet-closed family U,
    at every object j above all its subunit domains, under the default
    ``max_cocones`` and limits 1 and 2.  Returns how many of these fail
    at an object whose isomorphism class has another member."""
    lat = subunit_semilattice(mc)
    cat, shared = mc.cat, 0
    in_big_class = {x for cls in cat.iso_classes if len(cls) > 1 for x in cls}
    for family in idempotent_families(lat):
        bounds = functools.reduce(
            int.__and__, (cat.up[lat.subunits[i].domain] for i in family),
            (1 << len(mc.objects)) - 1)
        for j in _bits(bounds):
            for caps in (DEFAULT_CAPS, Caps(max_cocones=1), Caps(max_cocones=2)):
                found = outcome(_join_preserved, mc, lat, family, j, caps)
                assert found == outcome(sweep_join_preserved, mc, lat, family, j, caps)
                shared += found[0] == "value" and found[1] is not None \
                    and found[1][0] in in_big_class
    return shared


def test_join_preserved_matches_the_sweep_on_gallery():
    shared = 0
    for name in gallery.names():
        flavours = ("directed",) if name == "m3" else ("finite", "directed", "all")
        for mc in (build_cached(name), simple_quotient(build_cached(name)).category,
                   *(completion_cached(name, f).category for f in flavours)):
            if mc.is_thin():
                shared += assert_join_preserved_matches_the_sweep(mc)
    assert shared


@settings(max_examples=40, deadline=None)
@given(thin_monoidal_preorders())
def test_join_preserved_matches_the_sweep_on_monoidal_preorders(mc):
    try:
        subunit_semilattice(mc)
    except BuildError:
        assume(False)
    assert_join_preserved_matches_the_sweep(mc)


# ---------------------------------------------------------------------------
# the directed joins against the family sweep


def assert_directed_joins_match_sweep(mc) -> None:
    for include_empty in (True, False):
        found = outcome(has_universal_directed_joins, mc,
                        include_empty=include_empty)
        swept = outcome(sweep_universal_directed_joins, mc, include_empty)
        if swept[:2] == ("cap", "max_subunit_family_base"):
            # past the cap only the sweep is refused: the check sweeps
            # no family
            assert found[0] == "value"
        else:
            assert found == swept


def test_directed_joins_fail_at_stiffness_like_the_sweep():
    mc = split_monoid_category()
    report = has_universal_directed_joins(mc)
    assert (report.holds, report.details) == (False, {"stage": "stiff"})
    assert_directed_joins_match_sweep(mc)


@pytest.mark.parametrize("name", gallery.names())
def test_directed_joins_match_sweep_on_gallery(name):
    # the sweep takes seconds on m3 "all" and "finite"
    flavours = ("directed",) if name == "m3" else ("finite", "directed", "all")
    mc = build_cached(name)
    for category in (mc, simple_quotient(mc).category,
                     *(completion_cached(name, f).category for f in flavours)):
        assert_directed_joins_match_sweep(category)


@settings(max_examples=30, deadline=None)
@given(commutative_monoids(), st.sampled_from(["one_object", "ideal_quantale"]))
def test_directed_joins_match_sweep_on_commutative_monoids(monoid, mode):
    try:
        mc = from_commutative_monoid(monoid, mode=mode)
    except CapExceededError:
        assume(False)
    assert_directed_joins_match_sweep(mc)


@settings(max_examples=40, deadline=None)
@given(thin_monoidal_preorders())
def test_directed_joins_match_sweep_on_monoidal_preorders(mc):
    assert_directed_joins_match_sweep(mc)


@settings(max_examples=15, deadline=None)
@given(closure_lattices(max_size=8))
def test_directed_joins_match_sweep_on_closure_lattices(poset):
    assert_directed_joins_match_sweep(
        from_semilattice(Semilattice.from_poset(poset)))


def long_chain_category():
    """The thin category of a 14-element chain under meet: 14 subunits,
    two more than the default ``max_subunit_family_base``."""
    return from_semilattice(Semilattice.from_poset(
        FinPoset.chain([f"c{i}" for i in range(14)])))


def test_directed_checks_sweep_no_family_on_a_long_chain():
    mc = long_chain_category()
    assert has_universal_directed_joins(mc).holds
    assert has_universal_directed_joins(mc, include_empty=False).holds
    assert is_preframe(subunit_semilattice(mc).lattice)
    # the meet-closed families are still swept, and capped
    for check in (is_locale_based, check_characterisation):
        with pytest.raises(CapExceededError) as exc:
            check(mc)
        assert (exc.value.cap_name, exc.value.limit, exc.value.actual) == \
            ("max_subunit_family_base", 12, 14)


# ---------------------------------------------------------------------------
# invariants


def test_retract_stability(gallery_category):
    name, mc = gallery_category
    subs = enumerate_subunits(mc)
    for m, e in retract_pairs(mc):
        a, b = mc.dom(m), mc.cod(m)
        for s in subs:
            if is_iso(mc, _tensor_right(mc, s.rep, b)) is not None:
                assert is_iso(mc, _tensor_right(mc, s.rep, a)) is not None


def test_idempotent_family_cocones_extend_uniquely():
    for name in ("q3", "boolean2x2", "m3"):
        mc = build_cached(name)
        lat = subunit_semilattice(mc)
        for family in idempotent_families(lat):
            closed = tuple(sorted(lat.lattice.poset.down_closure(family)))
            if closed == family:
                continue
            for x in range(len(mc.objects)):
                small = d_diagram(mc, lat, family, x)
                big = d_diagram(mc, lat, closed, x)
                positions = [closed.index(i) for i in family]
                for cocone in all_cocones(mc, small):
                    extensions = [
                        c for c in all_cocones(mc, big)
                        if c.apex == cocone.apex and
                        tuple(c.legs[p] for p in positions) == cocone.legs]
                    assert len(extensions) == 1


@pytest.mark.parametrize("name", gallery.names())
def test_d_diagram_matches_the_edge_filter(name):
    # about 20 families per category, over every object
    for mc in (build_cached(name), completion_cached(name, "all").category):
        lat = subunit_semilattice(mc)
        families = list(idempotent_families(lat))
        for family in families[::max(1, len(families) // 20)]:
            for x in range(len(mc.objects)):
                assert d_diagram(mc, lat, family, x) == \
                    brute_d_diagram(mc, lat, family, x)


def test_directed_family_predicate(m3):
    lat = subunit_semilattice(m3)
    a = lat.index_of_domain("a")
    b = lat.index_of_domain("b")
    one = lat.index_of_domain("1")
    poset = lat.lattice.poset
    assert not poset.is_directed((a, b))
    assert poset.is_directed((a, b, one))
    assert poset.is_directed(())
    assert not poset.is_directed((), include_empty=False)


# ---------------------------------------------------------------------------
# the facts kept per category object


def count_subobject_sweeps(monkeypatch) -> list[int]:
    calls = []
    sweep = ttw.subunits.subobjects

    def counting(mc, a):
        calls.append(a)
        return sweep(mc, a)
    monkeypatch.setattr(ttw.subunits, "subobjects", counting)
    return calls


def test_characterisation_runs_one_subobject_sweep(monkeypatch):
    calls = count_subobject_sweeps(monkeypatch)
    check_characterisation(gallery.build("q3"))
    assert len(calls) == 1


def test_clone_of_the_tables_computes_its_own_facts(monkeypatch):
    mc = gallery.build("q3")
    subs = enumerate_subunits(mc)
    calls = count_subobject_sweeps(monkeypatch)
    assert enumerate_subunits(mc) is subs
    assert calls == []
    clone = MonoidalCategory(mc.cat, mc.mon)
    clone_subs = enumerate_subunits(clone)
    assert len(calls) == 1
    assert clone_subs is not subs
    assert [s.rep for s in clone_subs] == [s.rep for s in subs]
    assert enumerate_subunits(clone) is clone_subs


@pytest.mark.parametrize("completed", [False, True])
def test_checked_category_is_freed_without_the_cyclic_gc(completed):
    # a fact that points back at its category would make a cycle through
    # mc.derived, and every category would then wait for the cyclic GC
    gc.disable()
    try:
        mc = gallery.build("q3")
        if completed:
            mc = broad_category(mc, "all").category
        check_characterisation(mc)
        ref = weakref.ref(mc)
        del mc
        assert ref() is None
    finally:
        gc.enable()
