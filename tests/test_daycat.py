from __future__ import annotations

import contextlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (boolean_category, brute_day_classes, build_cached,
                      closure_lattices, commutative_monoids, completion_cached,
                      explicit_compose, generic_hierarchy_sweeps, obj_by_label,
                      outcome, quotient_cached, thin_monoidal_preorders)
from ttw import daycat, gallery
from ttw.caps import DEFAULT_CAPS
from ttw.daycat import (Presheaf, all_sieves_on_unit, broad_category,
                        broad_presheaf, check_presheaf, completion_has_no_terminal,
                        coproduct_of_representables, day_tensor, day_tensor_mor,
                        day_unitors, extend_functor, identity_nat, is_natural,
                        make_broad_spec, nat_transformations, presheaf_subunits,
                        presheaves_isomorphic, sieve_presheaf, yoneda)
from ttw.errors import (BuildError, CapExceededError, ConsistencyError,
                        MalformedTableError)
from ttw.fincat import (CatFunctor, from_commutative_monoid, from_quantale,
                        from_semilattice, identity_functor, objects_isomorphic)
from ttw.gallery import boolean2x2_semilattice
from ttw.orderkit import (Quantale, Semilattice, directed_downsets, downsets,
                          finitely_bounded_downsets, poset_isomorphism)
from ttw.restriction import restricts_to
from ttw.subunits import enumerate_subunits, is_locale_based, subunit_semilattice


# ---------------------------------------------------------------------------
# an independent oracle for the Day quotient: naive merge to a fixpoint


def day_classes_oracle(mc, left, right, a):
    triples = []
    for b in range(len(mc.objects)):
        for c in range(len(mc.objects)):
            for h in mc.hom(a, mc.tensor_obj(b, c)):
                for x in range(left.size(b)):
                    for y in range(right.size(c)):
                        triples.append((b, c, h, x, y))
    classes = {t: {t} for t in triples}
    changed = True
    while changed:
        changed = False
        for (b2, c2, h2, x2, y2) in triples:
            for f in mc.morphisms:
                if f.cod != b2:
                    continue
                for g in mc.morphisms:
                    if g.cod != c2:
                        continue
                    x1 = left.apply(f.mid, x2)
                    y1 = right.apply(g.mid, y2)
                    fg = mc.tensor_mor(f.mid, g.mid)
                    for h1 in mc.hom(a, mc.dom(fg)):
                        if mc.compose(fg, h1) != h2:
                            continue
                        one = classes[(f.dom, g.dom, h1, x1, y1)]
                        other = classes[(b2, c2, h2, x2, y2)]
                        if one is not other:
                            union = one | other
                            for t in union:
                                classes[t] = union
                            changed = True
    return {frozenset(s) for s in classes.values()}


def two_point_presheaf(mc):
    """Over b2: two elements at 0, one at 1, the arrow picking the first."""
    values = (("p0", "p1"), ("q",))
    action = {mc.identity(0): (0, 1), mc.identity(1): (0,)}
    arrow = next(m.mid for m in mc.morphisms if m.dom == 0 and m.cod == 1)
    action[arrow] = (0,)
    p = Presheaf(mc, values, action)
    check_presheaf(p)
    return p


# ---------------------------------------------------------------------------
# yoneda


def test_yoneda_b2_values(b2):
    y1 = yoneda(b2, obj_by_label(b2, "1"))
    assert y1.size(0) == 1 and y1.size(1) == 1


def test_yoneda_full_and_faithful():
    for name in ("b2", "c3", "q3", "z2", "monoid_idem"):
        mc = build_cached(name)
        for a in range(len(mc.objects)):
            for b in range(len(mc.objects)):
                nts = nat_transformations(yoneda(mc, a), yoneda(mc, b))
                assert len(nts) == len(mc.hom(a, b))


def test_yoneda_monoidal():
    for name in ("b2", "c3", "q3"):
        mc = build_cached(name)
        for a in range(len(mc.objects)):
            for b in range(len(mc.objects)):
                lhs = day_tensor(mc, yoneda(mc, a), yoneda(mc, b)).presheaf
                rhs = yoneda(mc, mc.tensor_obj(a, b))
                assert presheaves_isomorphic(lhs, rhs) is not None


def first_non_functorial_pair(p):
    """The first composable pair (g, f), f outer and g inner over every
    pair of morphisms, with P(g o f) != P(f) o P(g), or None."""
    mc = p.mc
    for f in mc.morphisms:
        for g in mc.morphisms:
            if g.dom == f.cod and any(
                    p.action[mc.compose(g.mid, f.mid)][x] !=
                    p.action[f.mid][p.action[g.mid][x]] for x in range(p.size(g.cod))):
                return g.mid, f.mid
    return None


@pytest.mark.parametrize("name", ["z2", "monoid_idem", "q3", "boolean2x2", "m3"])
def test_a_non_functorial_presheaf_names_the_first_failing_pair(name):
    # the sum of all representables with one entry of a non-identity
    # action moved to another value in range: the range and identity
    # checks pass, and the functoriality check names the pair the
    # all-pairs sweep meets first
    mc = build_cached(name)
    p = coproduct_of_representables(mc, list(range(len(mc.objects))))
    identities = {mc.identity(a) for a in range(len(mc.objects))}
    refused = 0
    for m in mc.morphisms:
        if m.mid in identities:
            continue
        for k, value in enumerate(p.action[m.mid]):
            for wrong in range(p.size(m.dom)):
                if wrong == value:
                    continue
                row = list(p.action[m.mid])
                row[k] = wrong
                bad = Presheaf(mc, p.values, {**p.action, m.mid: tuple(row)})
                pair = first_non_functorial_pair(bad)
                expected = (("value", None) if pair is None else
                            ("BuildError", f"presheaf not functorial at {pair}"))
                assert outcome(check_presheaf, bad) == expected
                refused += pair is not None
    assert refused


# ---------------------------------------------------------------------------
# the Day tensor


def test_unit_square_collapses(b2):
    unit_p = yoneda(b2, b2.unit)
    result = day_tensor(b2, unit_p, unit_p)
    assert all(result.class_count(a) == 1 for a in range(2))
    assert presheaves_isomorphic(result.presheaf, unit_p) is not None


def test_day_class_counts_match_oracle_and_pin(b2):
    f = two_point_presheaf(b2)
    g = two_point_presheaf(b2)
    result = day_tensor(b2, f, g)
    oracle = {a: day_classes_oracle(b2, f, g, a) for a in range(2)}
    assert {a: len(oracle[a]) for a in oracle} == {0: 4, 1: 1}
    for a in range(2):
        assert {frozenset(grp) for grp in result.classes[a]} == oracle[a]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(("b2", "c3")), st.data())
def test_day_quotient_matches_oracle_on_representable_sums(name, data):
    mc = build_cached(name)
    tags_l = data.draw(st.lists(st.integers(0, len(mc.objects) - 1),
                                max_size=2))
    tags_r = data.draw(st.lists(st.integers(0, len(mc.objects) - 1),
                                max_size=2))
    left = coproduct_of_representables(mc, tags_l)
    right = coproduct_of_representables(mc, tags_r)
    result = day_tensor(mc, left, right)
    for a in range(len(mc.objects)):
        assert {frozenset(grp) for grp in result.classes[a]} == \
            day_classes_oracle(mc, left, right, a)


def test_day_tensor_of_morphisms_natural(b2):
    f = two_point_presheaf(b2)
    unit_p = yoneda(b2, b2.unit)
    # a non-identity endomorphism of f: collapse both elements over the
    # bottom object onto the image of the arrow
    collapse = [nt for nt in nat_transformations(f, f)
                if nt.components[0] == (0, 0)]
    assert collapse
    phi = collapse[0]
    src = day_tensor(b2, f, unit_p)
    tensored = day_tensor_mor(src, src, phi, identity_nat(unit_p))
    assert is_natural(src.presheaf, src.presheaf, tensored.components)


def test_day_symmetry_on_thin_categories():
    for name in ("b2", "c3"):
        mc = build_cached(name)
        f = coproduct_of_representables(mc, [0, len(mc.objects) - 1])
        g = coproduct_of_representables(mc, [len(mc.objects) - 1])
        lhs = day_tensor(mc, f, g).presheaf
        rhs = day_tensor(mc, g, f).presheaf
        assert presheaves_isomorphic(lhs, rhs) is not None


# ---------------------------------------------------------------------------
# unitors


def test_unitors_coincide_on_unit(b2):
    unit_p = yoneda(b2, b2.unit)
    rho, lam = day_unitors(b2, unit_p)
    assert rho.components == lam.components


def test_unitors_on_random_presheaves():
    rng = random.Random(7)
    for name in ("b2", "c3"):
        mc = build_cached(name)
        for _ in range(10):
            tags = [rng.randrange(len(mc.objects))
                    for _ in range(rng.randrange(3))]
            p = coproduct_of_representables(mc, tags)
            day_unitors(mc, p)  # verifies naturality and invertibility


def test_left_unitor_natural_in_the_presheaf(b2):
    f = two_point_presheaf(b2)
    unit_p = yoneda(b2, b2.unit)
    for phi in nat_transformations(f, f):
        src = day_tensor(b2, unit_p, f)
        tensored = day_tensor_mor(src, src, identity_nat(unit_p), phi)
        _, lam = day_unitors(b2, f)
        for a in range(len(b2.objects)):
            for k in range(src.presheaf.size(a)):
                lhs = lam.components[a][tensored.components[a][k]]
                rhs = phi.components[a][lam.components[a][k]]
                assert lhs == rhs


# ---------------------------------------------------------------------------
# presheaf subunits


def quantale_sieve_oracle(name):
    """Downward-closed subsets of the elements below the unit for which
    every member is below a product of members."""
    entry = build_cached(name)
    from ttw import gallery
    q = gallery.GALLERY[name].quantale()
    poset = q.poset
    unit = q.unit
    below = [x for x in range(len(poset)) if poset.leq[x][unit]]
    good = []
    for size in range(len(below) + 1):
        for subset in itertools.combinations(below, size):
            s = set(subset)
            if not all(poset.leq[y][x] or y not in s
                       for x in s for y in range(len(poset))):
                pass
            if not all(y in s
                       for x in s for y in range(len(poset))
                       if poset.leq[y][x]):
                continue
            if all(any(poset.leq[x][q.mult[y][z]] for y in s for z in s)
                   for x in s):
                good.append(frozenset(s))
    return sorted(good, key=lambda s: (len(s), sorted(s)))


def test_presheaf_subunits_match_quantale_description():
    for name in ("b2", "q3", "boolean2x2"):
        mc = build_cached(name)
        sieves = presheaf_subunits(mc)
        # in a thin category a sieve on the unit is a downward-closed set
        # of objects; compare against the order-theoretic description
        sieve_objects = sorted(
            (frozenset(mc.dom(m) for m in s.members) for s in sieves),
            key=lambda s: (len(s), sorted(s)))
        assert sieve_objects == quantale_sieve_oracle(name)


def test_b2_sieve_subunits(b2):
    sieves = presheaf_subunits(b2)
    assert [sorted(s.members) for s in sieves] == \
        [[], [b2.hom(0, 1)[0]], sorted((b2.hom(0, 1)[0], b2.identity(1)))]


def test_presheaf_subunit_lattice(gallery_category):
    # the subunits of the presheaf category form a complete lattice
    name, mc = gallery_category
    sieves = presheaf_subunits(mc)
    from ttw.orderkit import FinPoset
    leq = tuple(tuple(a.members <= b.members for b in sieves) for a in sieves)
    poset = FinPoset(tuple(str(i) for i in range(len(sieves))), leq)
    assert poset.is_lattice()


def test_presheaf_category_can_exceed_downsets():
    # the one-object idempotent monoid has one subunit, two downsets of
    # subunits, but three presheaf subunits: the completion by broad
    # presheaves stays at two
    mc = build_cached("monoid_idem")
    assert len(presheaf_subunits(mc)) == 3
    lat = subunit_semilattice(mc)
    assert len(downsets(lat.lattice).sets) == 2
    comp = broad_category(mc, "all")
    assert len(enumerate_subunits(comp.category)) == 2


# ---------------------------------------------------------------------------
# broad presheaves


def test_broad_of_top_family_is_representable(q3):
    lat = subunit_semilattice(q3)
    full = tuple(range(len(lat)))
    for x in range(len(q3.objects)):
        spec = make_broad_spec(lat, full, x, "all")
        assert presheaves_isomorphic(broad_presheaf(q3, spec),
                                     yoneda(q3, x)) is not None


@pytest.mark.parametrize("name", gallery.names())
def test_broad_presheaf_matches_the_restricts_to_filter(name):
    # the oracle scans the family with restricts_to for every candidate
    mc = build_cached(name)
    lat = subunit_semilattice(mc)
    for family in downsets(lat.lattice).sets:
        for x in range(len(mc.objects)):
            spec = make_broad_spec(lat, family, x, "all")
            fam = [lat.subunits[i] for i in spec.family]
            assert broad_presheaf(mc, spec).values == tuple(
                tuple(f for f in mc.hom(a, x)
                      if any(restricts_to(mc, f, s) is not None for s in fam))
                for a in range(len(mc.objects)))


def test_broad_unit_family_over_q3(q3):
    lat = subunit_semilattice(q3)
    spec = make_broad_spec(lat, range(len(lat)), q3.unit, "all")
    p = broad_presheaf(q3, spec)
    for a in range(len(q3.objects)):
        assert p.size(a) == len(q3.hom(a, q3.unit))


def test_broad_tensor_lemma():
    # the pairing (h, f, g) -> (f (x) g) o h identifies the Day tensor of
    # two broad presheaves with the broad presheaf of the meet family at
    # the tensor object: well defined on classes, injective, and onto
    # the morphisms restricting into the meet family
    for name in ("b2", "q3"):
        mc = build_cached(name)
        lat = subunit_semilattice(mc)
        families = [frozenset(), frozenset((0,)), frozenset(range(len(lat)))]
        for fu, fv in itertools.product(families, repeat=2):
            for x in range(len(mc.objects)):
                for y in range(len(mc.objects)):
                    pu = broad_presheaf(mc, make_broad_spec(
                        lat, fu, x, "all"))
                    pv = broad_presheaf(mc, make_broad_spec(
                        lat, fv, y, "all"))
                    day = day_tensor(mc, pu, pv)
                    meets = {lat.meet(i, j) for i in fu for j in fv}
                    closed = frozenset(
                        i for i in range(len(lat))
                        if any(lat.leq[i][j] for j in meets))
                    rhs = broad_presheaf(mc, make_broad_spec(
                        lat, closed, mc.tensor_obj(x, y), "all"))
                    for a in range(len(mc.objects)):
                        pairs = []
                        for grp in day.classes[a]:
                            values = {mc.compose(
                                mc.tensor_mor(pu.values[b][xi],
                                              pv.values[c][yi]), h)
                                for (b, c, h, xi, yi) in grp}
                            assert len(values) == 1
                            pairs.append(values.pop())
                        assert len(set(pairs)) == len(pairs)
                        assert set(pairs) == set(rhs.values[a])


def test_b3_completion_caps_name_the_size_that_is_over():
    mc = boolean_category(3)
    # 9 directed families times 8 objects: refused before the tables are built
    with pytest.raises(CapExceededError) as exc:
        broad_category(mc, "directed")
    assert (exc.value.cap_name, exc.value.limit, exc.value.actual) == ("max_objects", 64, 72)
    # 20 families times 8 objects is over max_objects too, but the cocone
    # sweep, which counts the morphisms, comes first; it refuses as the
    # count passes the cap, before all 11,724 cocones are listed
    with pytest.raises(CapExceededError) as exc:
        broad_category(mc, "finite")
    assert exc.value.cap_name == "max_morphisms"
    assert exc.value.limit < exc.value.actual < 11724


def test_completion_morphism_cap_boundary(c3):
    # c3 "all" has exactly 94 morphisms
    assert len(broad_category(c3, "all").category.morphisms) == 94
    with pytest.raises(CapExceededError) as exc:
        broad_category(c3, "all", caps=DEFAULT_CAPS.with_overrides(max_morphisms=93))
    assert (exc.value.cap_name, exc.value.limit, exc.value.actual) == \
        ("max_morphisms", 93, 94)
    built = broad_category(c3, "all", caps=DEFAULT_CAPS.with_overrides(max_morphisms=94))
    assert len(built.category.morphisms) == 94


def test_day_cap_counts_the_triples_at_one_object(c3):
    # 15, 6 and 1 triples at the objects 0, m and 1; the cap is checked
    # on each count before its triples are listed
    left = coproduct_of_representables(c3, [2])
    right = coproduct_of_representables(c3, [1, 2])
    assert [len(t) for t in day_tensor(c3, left, right).triples] == [15, 6, 1]
    with pytest.raises(CapExceededError) as exc:
        day_tensor(c3, left, right, caps=DEFAULT_CAPS.with_overrides(max_cocones=5))
    assert (exc.value.cap_name, exc.value.limit, exc.value.actual) == \
        ("max_cocones", 5, 15)


def test_broad_spec_validation(q3):
    lat = subunit_semilattice(q3)
    with pytest.raises(BuildError):
        make_broad_spec(lat, (lat.top,), 0, "all")  # not downward closed


# ---------------------------------------------------------------------------
# the completion categories


def test_b2_completion_subunits_form_three_chain(b2):
    comp = broad_category(b2, "all")
    lat2 = subunit_semilattice(comp.category)
    from ttw.orderkit import FinPoset
    assert poset_isomorphism(lat2.lattice.poset,
                             FinPoset.chain(["x", "y", "z"])) is not None


def test_completion_subunit_posets_match_downset_flavours():
    for name in ("b2", "c3", "q3", "boolean2x2"):
        mc = build_cached(name)
        lat = subunit_semilattice(mc)
        for flavour, completion_fn in (
                ("all", downsets),
                ("finite", finitely_bounded_downsets),
                ("directed", directed_downsets)):
            comp = completion_cached(name, flavour)
            lat2 = subunit_semilattice(comp.category)
            expected = completion_fn(lat.lattice)
            assert poset_isomorphism(lat2.lattice.poset,
                                     expected.poset) is not None


def test_completion_is_locale_based_small():
    for name in ("b2", "q3"):
        comp = broad_category(build_cached(name), "all")
        assert is_locale_based(comp.category).holds


def test_completion_hom_sets_match_natural_transformations(q3):
    comp = broad_category(q3, "all")
    for a, src in enumerate(comp.specs):
        for b, dst in enumerate(comp.specs):
            p_src = broad_presheaf(q3, src)
            p_dst = broad_presheaf(q3, dst)
            assert len(comp.category.hom(a, b)) == \
                len(nat_transformations(p_src, p_dst))


def completion_transformations(comp):
    """Per completion morphism, the natural transformation between broad
    presheaves whose value on each generating element t (x) X of its
    source is its leg at t; asserts that exactly one matches and that
    every transformation of a hom set is matched by one morphism."""
    mc, cat = comp.source, comp.category
    presheaves = [broad_presheaf(mc, spec) for spec in comp.specs]
    generators = [[(mc.dom(g), presheaves[a].values[mc.dom(g)].index(g))
                   for g in (mc.tensor_mor(comp.lat.subunits[t].rep,
                                           mc.identity(spec.obj))
                             for t in spec.family)]
                  for a, spec in enumerate(comp.specs)]
    nats = [None] * len(cat.morphisms)
    for a in range(len(comp.specs)):
        for b in range(len(comp.specs)):
            values = presheaves[b].values
            transformations = nat_transformations(presheaves[a], presheaves[b])
            assert len(transformations) == len(cat.hom(a, b))
            for k in cat.hom(a, b):
                [nat] = [nt for nt in transformations
                         if all(values[d][nt.components[d][x]] == leg
                                for (d, x), leg in zip(generators[a],
                                                       comp.cocones[k]))]
                nats[k] = nat.components
            assert len({nats[k] for k in cat.hom(a, b)}) == len(cat.hom(a, b))
    return nats


@pytest.mark.parametrize("name,flavour", [
    ("q3", "all"), ("c3", "all"), ("b2", "all"), ("z2", "all"),
    ("q3", "directed")])
def test_completion_composition_is_composition_of_transformations(name, flavour):
    # a second route to the composition table: compose the matching
    # natural transformations componentwise, with no factorisation of legs
    comp = completion_cached(name, flavour)
    cat = comp.category
    nats = completion_transformations(comp)
    for f in range(len(cat.morphisms)):
        for b in range(len(comp.specs)):
            for g in cat.hom(cat.cod(f), b):
                composite = tuple(tuple(nats[g][d][x] for x in component)
                                  for d, component in enumerate(nats[f]))
                assert nats[cat.compose(g, f)] == composite


def test_completion_subunits_are_families(gallery_category):
    # every subunit of the completion is isomorphic to a family spec
    name, mc = gallery_category
    comp = completion_cached(name, "all")
    unit_specs = [k for k, spec in enumerate(comp.specs)
                  if spec.obj == mc.unit]
    for s in enumerate_subunits(comp.category):
        assert any(objects_isomorphic(comp.category, s.domain, k) is not None
                   for k in unit_specs)


def test_thin_tensor_shortcut_matches_leg_formula(q3):
    from ttw.daycat import tensor_of_morphisms_by_legs
    comp = broad_category(q3, "all")
    cat = comp.category
    for ka in range(len(cat.morphisms)):
        for kb in range(len(cat.morphisms)):
            assert cat.tensor_mor(ka, kb) == \
                tensor_of_morphisms_by_legs(comp, ka, kb)


def test_z2_completion_has_no_terminal_object(z2):
    comp = broad_category(z2, "all")
    assert completion_has_no_terminal(comp)
    # while locale-based thin completions do have one
    comp_b2 = broad_category(build_cached("b2"), "all")
    assert not completion_has_no_terminal(comp_b2)


def test_embedding_is_fully_faithful_on_thin():
    for name in ("b2", "q3"):
        mc = build_cached(name)
        comp = broad_category(mc, "all")
        emb = comp.embedding
        for a in range(len(mc.objects)):
            for b in range(len(mc.objects)):
                image_hom = comp.category.hom(emb.on_obj(a), emb.on_obj(b))
                assert len(image_hom) == len(mc.hom(a, b))


# ---------------------------------------------------------------------------
# functor extension


def test_extend_identity_collapses_specs(q3):
    comp = broad_category(q3, "all")
    ext = extend_functor(comp, identity_functor(q3))
    lat = subunit_semilattice(q3)
    for k, spec in enumerate(comp.specs):
        join = lat.join(spec.family) if spec.family else lat.bottom()
        expected = q3.tensor_obj(lat.subunits[join].domain, spec.obj)
        assert ext.on_obj(k) == expected


def test_extend_semilattice_into_downset_frame():
    src = build_cached("boolean2x2")
    lat_src = subunit_semilattice(src)
    dl = downsets(boolean2x2_semilattice())
    frame = from_quantale(Quantale.from_semilattice(
        Semilattice.from_poset(dl.poset)))
    obj_map = tuple(dl.embedding)
    mor_map = []
    for m in src.morphisms:
        mor_map.append(frame.hom(obj_map[m.dom], obj_map[m.cod])[0])
    functor = CatFunctor(src, frame, obj_map, tuple(mor_map))
    comp = broad_category(src, "all")
    ext = extend_functor(comp, functor)
    # family specs land on the join of the image of the family
    lat_t = subunit_semilattice(frame)
    for k, spec in enumerate(comp.specs):
        if spec.obj != src.unit:
            continue
        images = [lat_t.index_of_domain(frame.obj_label(obj_map[
            lat_src.subunits[i].domain])) for i in spec.family]
        join = lat_t.join(images) if images else lat_t.bottom()
        assert ext.on_obj(k) == lat_t.subunits[join].domain


def test_extend_rejects_target_without_joins(m3):
    comp = broad_category(build_cached("b2"), "all")
    emb = comp.embedding  # noqa: F841 - builds fine
    # m3 is not locale-based, so no extension along it may exist
    b2 = build_cached("b2")
    obj_map = (obj_by_label(m3, "0"), obj_by_label(m3, "1"))
    mor_map = []
    for m in b2.morphisms:
        mor_map.append(m3.hom(obj_map[m.dom], obj_map[m.cod])[0])
    functor = CatFunctor(b2, m3, obj_map, tuple(mor_map))
    functor.check_strict_monoidal()
    with pytest.raises(BuildError):
        extend_functor(comp, functor)


# ---------------------------------------------------------------------------
# the Day quotient by one-variable slides against the slide of every pair


def _day_pool(mc, rng) -> list:
    """Seeded nonempty presheaves within the default value cap: the
    representable of an object with the fewest morphisms into it, two
    coproducts of representables, a sieve presheaf and a broad presheaf,
    each kind where the category has them."""
    n = len(mc.objects)
    least = min(range(n), key=lambda o: sum(len(mc.hom(a, o)) for a in range(n)))
    pool = [coproduct_of_representables(mc, tags) for tags in (
        [least], *([rng.randrange(n) for _ in range(rng.randint(1, 2))]
                   for _ in range(2)))]
    try:
        sieves = [s for s in all_sieves_on_unit(mc) if s.members]
        pool.append(sieve_presheaf(mc, rng.choice(sieves)))
    except CapExceededError:
        pass  # too many morphisms into the unit to list the sieves
    try:
        lat = subunit_semilattice(mc)
        family = rng.choice([f for f in downsets(lat.lattice).sets if f])
        pool.append(broad_presheaf(mc, make_broad_spec(lat, family, rng.randrange(n),
                                                       "all")))
    except BuildError:
        pass  # no subunit semilattice
    return [p for p in pool if all(p.size(a) <= 6 for a in range(n))]


def assert_day_matches_pair_sweep(mc, left, right):
    result = day_tensor(mc, left, right)
    classes, action = brute_day_classes(mc, left, right)
    assert result.classes == classes
    assert result.presheaf.action == action
    assert result.triples == tuple(tuple(sorted(t for grp in cls for t in grp))
                                   for cls in classes)


def day_triple_count(mc, left, right) -> int:
    n = range(len(mc.objects))
    into = [sum(len(mc.hom(a, o)) for a in n) for o in n]
    return sum(into[mc.tensor_obj(b, c)] * left.size(b) * right.size(c)
               for b in n for c in n)


@pytest.mark.parametrize("name", gallery.names())
def test_day_quotient_matches_the_pair_sweep(name):
    # the sweep tries every pair into every triple, so only pairs of
    # presheaves with at most 1000 triples are drawn: m3 "all" has 50
    # objects and 1432 morphisms
    rng = random.Random(name)
    for mc in (build_cached(name), completion_cached(name, "all").category):
        pool = _day_pool(mc, rng)
        pairs = [(left, right) for left in pool for right in pool
                 if 0 < day_triple_count(mc, left, right) <= 1000]
        assert pairs
        for left, right in rng.sample(pairs, min(len(pairs), 6)):
            assert_day_matches_pair_sweep(mc, left, right)


@settings(max_examples=40, deadline=None)
@given(st.one_of(commutative_monoids().map(from_commutative_monoid),
                 closure_lattices().map(
                     lambda poset: from_semilattice(Semilattice.from_poset(poset)))),
       st.randoms(use_true_random=False))
def test_day_quotient_matches_the_pair_sweep_on_generated_categories(mc, rng):
    # one-object categories of commutative monoids (not thin) and thin
    # categories of closure lattices
    pool = _day_pool(mc, rng)
    for left in pool:
        for right in pool:
            assert_day_matches_pair_sweep(mc, left, right)


# ---------------------------------------------------------------------------
# the thin completion by typing and the Day slides along generators, each
# against the path every other category takes

FLAVOURS = ("finite", "directed", "all")
THIN_GALLERY = [name for name in gallery.names() if build_cached(name).is_thin()]


@pytest.mark.parametrize("flavour", FLAVOURS)
@pytest.mark.parametrize("name", gallery.names())
def test_completion_specs_are_broad_specs(name, flavour):
    comp = completion_cached(name, flavour)
    for spec in comp.specs:
        assert make_broad_spec(comp.lat, spec.family, spec.obj, flavour) == spec


def completion_tables(mc, flavour):
    """A broad completion as plain data: its specs, the legs, dom and cod
    of each morphism, its identities and composition, its unit, object
    tensor and braiding rows, and the maps of its embedding."""
    comp = broad_category(mc, flavour)
    cat = comp.category
    return (comp.specs, comp.cocones, cat.morphisms, cat.cat.identity,
            explicit_compose(cat), cat.unit, cat.mon.tensor_obj, cat.mon.braiding,
            comp.embedding.obj_map, comp.embedding.mor_map)


def assert_completion_matches_pasting(mc, flavour):
    """The completion composed and braided by typing equals the one that
    pastes every composite, raise for raise; returns the outcome."""
    typed = outcome(completion_tables, mc, flavour)
    with generic_hierarchy_sweeps():
        pasted = outcome(completion_tables, mc, flavour)
    assert typed == pasted
    return typed


@pytest.mark.parametrize("flavour", FLAVOURS)
@pytest.mark.parametrize("name", THIN_GALLERY)
def test_thin_completion_matches_the_pasting_oracle(name, flavour):
    assert assert_completion_matches_pasting(build_cached(name), flavour)[0] == "value"


@settings(max_examples=30, deadline=None)
@given(st.one_of(thin_monoidal_preorders(),
                 closure_lattices(max_size=6).map(
                     lambda poset: from_semilattice(Semilattice.from_poset(poset)))),
       st.sampled_from(FLAVOURS))
def test_thin_completion_matches_the_pasting_oracle_on_generated_categories(
        mc, flavour):
    # non-stiff preorders are refused the same way by both paths
    assert_completion_matches_pasting(mc, flavour)


@pytest.mark.parametrize("pasting", [False, True])
def test_a_composite_outside_the_hom_sets_is_a_consistency_error(c3, pasting):
    # with the cocones from (all subunits, 0) into every spec on 1 dropped,
    # the composite of the embedded 0 -> m and m -> 1 names no morphism:
    # the pasting path finds no cocone for it, and the completion by
    # typing, which keeps no composition table, is refused as a preorder
    # that is not transitive
    source = (tuple(range(len(subunit_semilattice(c3)))), obj_by_label(c3, "0"))
    apex = obj_by_label(c3, "1")
    spec_of = {}
    real_d_diagram, real_is_cocone = daycat.d_diagram, daycat.is_cocone

    def d_diagram(mc, lat, family, obj):
        diagram = real_d_diagram(mc, lat, family, obj)
        spec_of[id(diagram)] = (diagram, (tuple(family), obj))
        return diagram

    def is_cocone(mc, diagram, cocone):
        return real_is_cocone(mc, diagram, cocone) and not (
            spec_of[id(diagram)][1] == source and cocone.apex == apex)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(daycat, "d_diagram", d_diagram)
        patch.setattr(daycat, "is_cocone", is_cocone)
        with generic_hierarchy_sweeps() if pasting else contextlib.nullcontext():
            with pytest.raises(ConsistencyError if pasting else MalformedTableError,
                               match="composite cocone escaped the hom sets"
                               if pasting else r"no morphism for the composite \("):
                broad_category(c3, "all")


def composition_closure(mc, mids) -> set[int]:
    """Every composite of one or more of ``mids``."""
    out: dict[int, list[int]] = {}
    for f in mids:
        out.setdefault(mc.dom(f), []).append(f)
    closed, frontier = set(mids), list(mids)
    while frontier:
        f = frontier.pop()
        for g in out.get(mc.cod(f), ()):
            gf = mc.compose(g, f)
            if gf not in closed:
                closed.add(gf)
                frontier.append(gf)
    return closed


def assert_generates(mc) -> tuple[int, ...]:
    generators = mc.cat.generators
    ids = {mc.identity(a) for a in range(len(mc.objects))}
    assert not ids & set(generators)
    assert composition_closure(mc, generators) - ids == \
        {m.mid for m in mc.morphisms} - ids
    return generators


@pytest.mark.parametrize("name", gallery.names())
def test_thin_generators_generate(name):
    # the entry, its completions and the simple quotients of each, where
    # thin; m3 "finite" and "all" take 3.5 s each to quotient
    for flavour in (None, *FLAVOURS):
        mc = (build_cached(name) if flavour is None
              else completion_cached(name, flavour).category)
        quotients = [] if name == "m3" and flavour in ("finite", "all") else \
            [quotient_cached(name, flavour)]
        for cat in (mc, *quotients):
            if cat.is_thin():
                assert_generates(cat)


def test_thin_generator_counts():
    # 14 of 94 morphisms, 59 of 1432, and one cycle through the 30
    # isomorphic objects of the simple quotient, of 900 morphisms
    for mc, count in ((completion_cached("c3", "all").category, 14),
                      (completion_cached("m3", "all").category, 59),
                      (quotient_cached("m3", "directed"), 30)):
        assert len(assert_generates(mc)) == count


@settings(max_examples=60, deadline=None)
@given(st.one_of(thin_monoidal_preorders(),
                 closure_lattices().map(
                     lambda poset: from_semilattice(Semilattice.from_poset(poset)))))
def test_thin_generators_generate_on_generated_categories(mc):
    # preorders of monoids have isomorphism classes with cycles
    assert_generates(mc)


def day_outputs(mc, pairs, unitor_of=None) -> list:
    """The triples, classes and quotient presheaf of the Day tensor of
    each pair, and the unitor components of ``unitor_of``."""
    out = []
    for left, right in pairs:
        day = day_tensor(mc, left, right)
        out.append((day.triples, day.classes, day.presheaf.values,
                    day.presheaf.action))
    if unitor_of is not None:
        out.append([nt.components for nt in day_unitors(mc, unitor_of)])
    return out


def assert_day_matches_all_morphism_slides(mc, pairs, unitor_of=None):
    along_generators = day_outputs(mc, pairs, unitor_of)
    with generic_hierarchy_sweeps():
        assert along_generators == day_outputs(mc, pairs, unitor_of)


def test_the_oracle_block_slides_along_every_morphism():
    # the 14 thin generators of c3 "all" are cached on the category
    # before the block, and the block still answers all 82 non-identities
    cat = completion_cached("c3", "all").category.cat
    thin = cat.generators
    with generic_hierarchy_sweeps():
        every = cat.generators
    assert len(thin) == 14 and cat.generators == thin
    assert every == tuple(m.mid for m in cat.morphisms if m.mid != cat.identity[m.dom])


@pytest.mark.parametrize("name, flavour", [
    *((name, None) for name in THIN_GALLERY),
    ("b2", "all"), ("c3", "all"), ("q3", "all")])
def test_day_along_generators_matches_all_morphism_slides(name, flavour):
    # the three pairs of representables of document_digests.py and its
    # unitors, then up to six pairs of the seeded pool
    mc = (build_cached(name) if flavour is None
          else completion_cached(name, flavour).category)
    reps = [coproduct_of_representables(mc, [a])
            for a in (0, len(mc.objects) - 1, mc.unit)]
    rng = random.Random(f"{name}/{flavour}")
    pool = _day_pool(mc, rng)
    pairs = list(itertools.product(pool, pool))
    assert_day_matches_all_morphism_slides(
        mc, [(reps[0], reps[1]), (reps[1], reps[2]), (reps[2], reps[0]),
             *rng.sample(pairs, min(len(pairs), 6))], reps[0])


def test_day_along_generators_matches_all_morphism_slides_on_a_quotient():
    # 30 isomorphic objects: one cycle of 30 slides against 870; each
    # tensor of all-morphism slides takes about 4 s, so one pair
    mc = quotient_cached("m3", "directed")
    reps = [coproduct_of_representables(mc, [a]) for a in (0, len(mc.objects) - 1)]
    assert_day_matches_all_morphism_slides(mc, [tuple(reps)])
