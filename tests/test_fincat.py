from __future__ import annotations

import dataclasses
import functools
import importlib.util
import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (OUT_OF_RANGE, brute_all_cocones, brute_colimit, brute_is_colimit,
                      brute_is_mono, brute_is_pullback, brute_is_pushout,
                      brute_iso_classes, brute_untyped_tensor_pairs, build_cached,
                      completion_cached, explicit_compose, explicit_tensor, max_monoid,
                      mor_by_label, obj_by_label, ordered_monoid_category,
                      out_of_range_entry, outcome, product_category, quotient_cached,
                      shuffled_posets, thin_monoidal_preorders, with_explicit_compose)
from ttw import fincat, gallery
from ttw.caps import Caps
from ttw.daycat import coproduct_of_representables, day_tensor
from ttw.errors import (BuildError, CapExceededError, MalformedTableError,
                        NonCommutingSquareError)
from ttw.fincat import (CatFunctor, Cocone, DiagramSpec, FinCategory, MonoidalData,
                        Morphism, all_cocones, check_monoidal_structure, colimit,
                        factors_through,
                        from_commutative_monoid, from_semilattice,
                        initial_object, is_cocone, is_colimit, is_iso, is_mono,
                        is_pullback, is_pushout, objects_isomorphic,
                        subobject_leq, subobjects, terminal_object,
                        thin_category_from_poset, validate)
from ttw.gallery import idem_monoid, zero_one_monoid
from ttw.orderkit import FinPoset, Semilattice
from ttw.restriction import restriction_category, tensor_ideals
from ttw.subunits import enumerate_subunits, is_locale_based


def thin_mor(mc, src, dst):
    return mor_by_label(mc, f"{src}->{dst}")


# ---------------------------------------------------------------------------
# validation


def test_validate_b2_clean(b2):
    assert validate(b2.cat, b2.mon).ok()
    assert validate(b2.cat, b2.mon, force_generic=True).ok()


def test_validate_reports_corrupted_compose(b2):
    # redirect (0->1) o id_0 to id_0: the composite no longer typechecks
    f = thin_mor(b2, "0", "1")
    i0 = b2.identity(0)
    bad = dict(explicit_compose(b2))
    bad[(f, i0)] = i0
    cat = FinCategory(b2.cat.objects, b2.cat.morphisms, b2.cat.identity, bad)
    report = validate(cat, b2.mon)
    assert not report.ok()
    assert any(v.law == "compose_typing" and v.witness == (f, i0, i0)
               for v in report.violations)


def test_validate_idempotent_monoid_generic():
    # one object, two morphisms: all eight composition triples checked
    mc = from_commutative_monoid(idem_monoid())
    report = validate(mc.cat, mc.mon, force_generic=True)
    assert report.ok()


def test_validate_missing_compose_entry_is_structural(b2):
    bad = dict(explicit_compose(b2))
    del bad[next(iter(bad))]
    with pytest.raises(MalformedTableError):
        FinCategory(b2.cat.objects, b2.cat.morphisms, b2.cat.identity, bad)


@pytest.mark.parametrize("change", ["missing", "extra", "out_of_range"])
def test_tensor_table_must_be_total_on_morphism_pairs(b2, change):
    n_mor = len(b2.morphisms)
    bad = explicit_tensor(b2)
    if change == "missing":
        del bad[(0, 1)]
    elif change == "extra":
        bad[(n_mor, 0)] = 0
    else:
        # still n_mor * n_mor keys, one of them not a pair of mids
        bad[(n_mor, 0)] = bad.pop((0, 1))
        assert len(bad) == n_mor * n_mor
    mon = dataclasses.replace(b2.mon, tensor_mor=bad)
    with pytest.raises(MalformedTableError, match="not total"):
        check_monoidal_structure(b2.cat, mon)


# Z2 as a one-object category: identity e, generator g, and the group
# product as both the composition and the morphism tensor
_Z2_PRODUCT = {(f, g): f ^ g for f in range(2) for g in range(2)}
_Z2_TABLES = {"objects": ("*",),
              "morphisms": (Morphism(0, 0, 0, "e"), Morphism(1, 0, 0, "g")),
              "identity": (0,), "compose_table": _Z2_PRODUCT, "unit": 0,
              "tensor_obj": ((0,),), "tensor_mor": _Z2_PRODUCT, "braiding": ((0,),)}


def _z2_validated(**changes):
    """``validate`` on the Z2 tables with ``changes`` made, each dataclass
    built directly: ``FinCategory`` checks the indices of its own tables
    and ``validate`` those of the monoidal data before any law."""
    t = _Z2_TABLES | changes
    cat = FinCategory(t["objects"], t["morphisms"], t["identity"], t["compose_table"])
    return validate(cat, MonoidalData(t["unit"], t["tensor_obj"], t["tensor_mor"],
                                      t["braiding"]))


@pytest.mark.parametrize("changes, message", [
    ({"morphisms": (Morphism(0, 0, 0), Morphism(0, 0, 0))},
     "morphism at position 1 has mid 0"),
    ({"morphisms": (Morphism(0, 0, 0), Morphism(1, 0, 1))},
     "morphism 1 has out-of-range dom/cod"),
    ({"identity": (0, 0)}, "identity table has wrong length"),
    ({"identity": (2,)}, "identity of object 0 out of range"),
    ({"compose_table": _Z2_PRODUCT | {(1, 1): 2}}, "compose table entry out of range"),
    ({"unit": 1}, "unit object out of range"),
    ({"tensor_obj": ((0, 0),)}, "tensor_obj table has wrong shape"),
    ({"tensor_obj": ((1,),)}, "tensor_obj entry out of range"),
    ({"braiding": ()}, "braiding table has wrong shape"),
    ({"braiding": ((-1,),)}, "braiding entry out of range"),
    ({"tensor_mor": _Z2_PRODUCT | {(0, 1): 2}}, "tensor_mor entry out of range")])
def test_malformed_tables_are_refused_with_their_message(changes, message):
    assert _z2_validated().ok()
    with pytest.raises(MalformedTableError) as exc:
        _z2_validated(**changes)
    assert str(exc.value) == message


def test_validate_law_break_in_one_object_category():
    # force a o a = 1 while keeping a o 1 = a: breaks associativity or
    # identity laws, caught by the generic path
    mc = from_commutative_monoid(idem_monoid())
    bad = dict(explicit_compose(mc))
    bad[(1, 1)] = 0
    cat = FinCategory(mc.cat.objects, mc.cat.morphisms, mc.cat.identity, bad)
    report = validate(cat, mc.mon)
    assert not report.ok()


def scan_composable(mors):
    """Composable pairs (g, f) by a sweep over every pair, f outer."""
    return [(g.mid, f.mid) for f in mors for g in mors if g.dom == f.cod]


def test_compose_table_shape_errors_name_the_least_pair(c3):
    # c3 is the chain 0 -> 1 -> 2; morphism k is the k-th pair a <= b
    pairs = scan_composable(c3.morphisms)
    # two pairs that the f-outer sweep meets in the opposite of sorted order
    later, least = next((p, q) for i, p in enumerate(pairs) for q in pairs[i:] if q < p)
    table = dict(explicit_compose(c3))
    del table[later], table[least]
    with pytest.raises(MalformedTableError) as exc:
        FinCategory(c3.cat.objects, c3.cat.morphisms, c3.cat.identity, table)
    assert str(exc.value) == f"compose table missing entry {least}"
    # 0->1 after 1->2, then id_0 after id_1: neither composes
    table = dict(explicit_compose(c3))
    table[(1, 4)] = table[(0, 3)] = 0
    with pytest.raises(MalformedTableError) as exc:
        FinCategory(c3.cat.objects, c3.cat.morphisms, c3.cat.identity, table)
    assert str(exc.value) == "compose table defined on non-composable pair (0, 3)"


def test_a_table_less_category_must_be_thin(z2):
    with pytest.raises(MalformedTableError, match="not thin"):
        FinCategory(z2.cat.objects, z2.cat.morphisms, z2.cat.identity, None)


def test_a_table_less_relation_must_be_transitive():
    # 2 -> 3, 0 -> 1 and 1 -> 2 with identities, and neither 0 -> 2 nor
    # 1 -> 3: the f-outer sweep meets (m2, m1) before the least pair (m0, m2)
    ends = [(2, 3), (0, 1), (1, 2), (0, 0), (1, 1), (2, 2), (3, 3)]
    mors = tuple(fincat.Morphism(k, a, b) for k, (a, b) in enumerate(ends))
    hom = set(ends)
    missing = [(g, f) for g, f in scan_composable(mors)
               if (mors[f].dom, mors[g].cod) not in hom]
    assert missing == [(2, 1), (0, 2)]
    with pytest.raises(MalformedTableError) as exc:
        FinCategory(tuple("0123"), mors, (3, 4, 5, 6), None)
    assert str(exc.value) == "no morphism for the composite (0, 2)"
    # the same relation with 1 -> 3 added still lacks 0 -> 2
    mors += (fincat.Morphism(7, 1, 3),)
    with pytest.raises(MalformedTableError, match=r"composite \(2, 1\)$"):
        FinCategory(tuple("0123"), mors, (3, 4, 5, 6), None)


@st.composite
def typed_tables(draw):
    """Braided monoidal tables that are well typed but obey few laws: at
    least one morphism between any two objects, any object tensor, and
    every composite, tensor and braiding drawn from the right hom-set."""
    n_obj = draw(st.integers(1, 3))
    ends = [(a, b) for a in range(n_obj) for b in range(n_obj)]
    ends += draw(st.lists(st.sampled_from(ends), max_size=2))
    ends = draw(st.permutations(ends))
    morphisms = tuple(fincat.Morphism(k, a, b) for k, (a, b) in enumerate(ends))
    homs = {pair: [k for k, e in enumerate(ends) if e == pair] for pair in ends}

    def pick(a, b):
        return draw(st.sampled_from(homs[(a, b)]))

    identity = tuple(pick(a, a) for a in range(n_obj))
    compose = {(g.mid, f.mid): pick(f.dom, g.cod)
               for f in morphisms for g in morphisms if g.dom == f.cod}
    cat = FinCategory(tuple(map(str, range(n_obj))), morphisms, identity, compose)
    unit = draw(st.integers(0, n_obj - 1))
    t_obj = tuple(tuple(draw(st.integers(0, n_obj - 1)) for b in range(n_obj))
                  for a in range(n_obj))
    t_mor = {(f.mid, g.mid): pick(t_obj[f.dom][g.dom], t_obj[f.cod][g.cod])
             for f in morphisms for g in morphisms}
    braiding = tuple(tuple(pick(t_obj[a][b], t_obj[b][a]) for b in range(n_obj))
                     for a in range(n_obj))
    mon = fincat.MonoidalData(unit, t_obj, t_mor, braiding)
    return fincat.MonoidalCategory(cat, mon)


@settings(max_examples=60, deadline=None)
@given(typed_tables(), st.data())
def test_composable_sweeps_match_the_pair_scan(mc, data):
    cat, t_mor = mc.cat, mc.mon.tensor_mor
    comp = explicit_compose(cat)
    pairs = scan_composable(cat.morphisms)
    report = validate(cat, mc.mon, force_generic=True)
    assert [v.witness for v in report.violations if v.law == "associativity"] == [
        (h, g, f) for g, f in pairs for h, g2 in pairs
        if g2 == g and comp[(h, comp[(g, f)])] != comp[(comp[(h, g)], f)]]
    assert [v.witness for v in report.violations if v.law == "interchange"] == [
        (f2, f1, g2, g1) for f2, f1 in pairs for g2, g1 in pairs
        if comp[(t_mor[(f2, g2)], t_mor[(f1, g1)])] != t_mor[(comp[(f2, f1)],
                                                              comp[(g2, g1)])]]
    # an endofunctor that keeps types and identities fails composition at
    # the first bad pair in the same order
    mor_map = [data.draw(st.sampled_from(cat.hom(m.dom, m.cod))) for m in cat.morphisms]
    for i in cat.identity:
        mor_map[i] = i
    functor = CatFunctor(mc, mc, tuple(range(len(cat.objects))), tuple(mor_map))
    bad = [(g, f) for g, f in pairs
           if mor_map[comp[(g, f)]] != comp[(mor_map[g], mor_map[f])]]
    if bad:
        with pytest.raises(BuildError) as exc:
            functor.check_functor()
        assert str(exc.value) == f"functor breaks composition at {bad[0]}"
    else:
        functor.check_functor()


def test_thin_fast_path_agrees_with_generic():
    for name in ("b2", "c3", "q3", "boolean2x2", "m3", "ideal2"):
        mc = build_cached(name)
        fast = validate(mc.cat, mc.mon)
        slow = validate(mc.cat, mc.mon, force_generic=True)
        assert fast.ok() and slow.ok()


def test_thin_categories_keep_no_tensor_table(gallery_category):
    name, mc = gallery_category
    assert (mc.mon.tensor_mor is None) == mc.is_thin()


def test_thin_categories_keep_no_composition_table(gallery_category):
    name, mc = gallery_category
    assert (mc.cat.compose_table is None) == mc.is_thin()
    n = len(mc.objects)
    if mc.is_thin():
        assert mc.cat.down == tuple(sum(1 << a for a in range(n) if mc.hom(a, b))
                                    for b in range(n))


def test_tensor_table_is_required_off_thin_categories(z2):
    mon = dataclasses.replace(z2.mon, tensor_mor=None)
    with pytest.raises(MalformedTableError, match="not thin"):
        check_monoidal_structure(z2.cat, mon)
    with pytest.raises(MalformedTableError, match="not thin"):
        validate(z2.cat, mon)


def test_non_monotone_object_tensor_is_a_typing_violation(c3):
    # m (x) m = 1 but m (x) 1 = m: the forced m (x) (m -> 1) would run 1 -> m
    m, one = obj_by_label(c3, "m"), obj_by_label(c3, "1")
    rows = [list(r) for r in c3.mon.tensor_obj]
    rows[m][m] = one
    mon = dataclasses.replace(c3.mon, tensor_obj=tuple(map(tuple, rows)))
    witnesses = [v.witness for v in validate(c3.cat, mon).violations
                 if v.law == "tensor_typing"]
    f = thin_mor(c3, "m", "1")
    assert (c3.identity(m), f) in witnesses and (f, c3.identity(m)) in witnesses
    idents = set(c3.cat.identity)
    for x, y in witnesses:
        assert x in idents or y in idents
        assert not c3.hom(mon.tensor_obj[c3.dom(x)][c3.dom(y)],
                          mon.tensor_obj[c3.cod(x)][c3.cod(y)])


@pytest.mark.parametrize("explicit", [True, False])
def test_non_associative_object_tensor_is_reported_not_raised(explicit):
    # three objects and their identities, unit 0, a commutative object
    # tensor with (1 (x) 1) (x) 2 = 1 but 1 (x) (1 (x) 2) = 2
    t_obj = ((0, 1, 2), (1, 2, 1), (2, 1, 1))
    cat = FinCategory(("0", "1", "2"), tuple(fincat.Morphism(k, k, k) for k in range(3)),
                      (0, 1, 2), {(k, k): k for k in range(3)})
    t_mor = {(f, g): t_obj[f][g] for f in range(3) for g in range(3)}
    mon = fincat.MonoidalData(0, t_obj, t_mor if explicit else None, t_obj)
    assert validate(cat, mon).laws() == {"strict_assoc_obj"}
    assert validate(cat, mon, force_generic=True).laws() == {
        "strict_assoc_obj", "strict_assoc_mor"}


@st.composite
def thin_tensors(draw):
    """The thin category of a random poset with a random commutative
    object tensor that has a unit, need not be monotone or associative,
    and whose braiding is the identity; no tensor_mor table."""
    poset = draw(shuffled_posets(max_size=5))
    cat = fincat.thin_category_from_poset(poset)
    n = len(poset)
    unit = draw(st.integers(0, n - 1))
    rows = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            value = (b if a == unit else a if b == unit
                     else draw(st.integers(0, n - 1)))
            rows[a][b] = rows[b][a] = value
    t_obj = tuple(map(tuple, rows))
    braiding = tuple(tuple(cat.identity[x] for x in row) for row in t_obj)
    return fincat.MonoidalCategory(cat, fincat.MonoidalData(unit, t_obj, None,
                                                            braiding))


@settings(max_examples=150, deadline=None)
@given(thin_tensors())
def test_thin_tensor_reduction_matches_the_pair_sweep(mc):
    cat, mon = mc.cat, mc.mon
    untyped = brute_untyped_tensor_pairs(cat, mon.tensor_obj)
    fast = validate(cat, mon)
    witnesses = [v.witness for v in fast.violations if v.law == "tensor_typing"]
    assert bool(witnesses) == bool(untyped)
    assert set(witnesses) <= set(untyped)
    if untyped:
        return
    slow = validate(cat, mon, force_generic=True)
    assert fast.ok() == slow.ok()
    objects_only = ("strict_unit_obj", "strict_assoc_obj", "braiding_typing")
    assert [v for v in fast.violations if v.law in objects_only] == \
        [v for v in slow.violations if v.law in objects_only]
    for f in cat.morphisms:
        for g in cat.morphisms:
            src = cat.objects[mon.tensor_obj[f.dom][g.dom]]
            dst = cat.objects[mon.tensor_obj[f.cod][g.cod]]
            assert mc.tensor_mor(f.mid, g.mid) == mor_by_label(mc, f"{src}->{dst}")


def sweep_untyped_one_variable(cat, t_obj) -> list[tuple[int, int]]:
    """The pairs (f, identity[b]) and (identity[b], f), for every morphism
    f and object b, whose tensor has no morphism, sorted: what the thin
    ``validate`` lists as ``tensor_typing`` witnesses."""
    ids = cat.identity
    return sorted({(f.mid, ids[b]) for f in cat.morphisms for b in range(len(t_obj))
                   if not cat.hom(t_obj[f.dom][b], t_obj[f.cod][b])}
                  | {(ids[b], f.mid) for f in cat.morphisms for b in range(len(t_obj))
                     if not cat.hom(t_obj[b][f.dom], t_obj[b][f.cod])})


def sweep_non_associative(t_obj) -> list[tuple[int, int, int]]:
    n = range(len(t_obj))
    return [(a, b, c) for a in n for b in n for c in n
            if t_obj[t_obj[a][b]][c] != t_obj[a][t_obj[b][c]]]


def with_tensor_entry(mon, a, b, value):
    rows = [list(r) for r in mon.tensor_obj]
    rows[a][b] = value
    return dataclasses.replace(mon, tensor_obj=tuple(map(tuple, rows)))


def assert_object_laws_match_the_sweeps(cat, mon):
    violations = validate(cat, mon).violations
    assert [v.witness for v in violations if v.law == "tensor_typing"] == \
        sweep_untyped_one_variable(cat, mon.tensor_obj)
    assert [v.witness for v in violations if v.law == "strict_assoc_obj"] == \
        sweep_non_associative(mon.tensor_obj)
    return violations


@settings(max_examples=80, deadline=None)
@given(thin_monoidal_preorders(), st.data())
def test_thin_object_laws_match_the_sweeps_on_monoidal_preorders(mc, data):
    # preorders of monoids have isomorphism classes, whose cycles are
    # generators; one corrupted entry may break monotonicity or
    # associativity anywhere
    n = len(mc.objects)
    a, b, value = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    assert_object_laws_match_the_sweeps(mc.cat, mc.mon)
    assert_object_laws_match_the_sweeps(mc.cat, with_tensor_entry(mc.mon, a, b, value))


def test_a_tensor_monotone_along_covers_but_not_within_a_class_is_untyped():
    # {}[a] lies in the class of the initial {}[0]; sending {}[a] (x) {}[a]
    # up to {}[0] -> {0}[0] breaks monotonicity along the class's cycle
    # only, never along a cover between classes
    mc = completion_cached("m3", "all").category
    cat = mc.cat
    a = obj_by_label(mc, "{}[a]")
    mon = with_tensor_entry(mc.mon, a, a, obj_by_label(mc, "{0}[0]"))
    violations = assert_object_laws_match_the_sweeps(cat, mon)
    witnesses = {w for v in violations if v.law == "tensor_typing" for w in v.witness}
    generators = set(cat.generators) & witnesses
    assert generators
    assert all(cat.hom(cat.cod(g), cat.dom(g)) for g in generators)


def test_a_thin_category_with_a_mistyped_identity_is_reported():
    # the identity of object 1 is 0 -> 1 and no morphism 1 -> 1 exists:
    # the preorder is not reflexive, so it has no generating set
    cat = FinCategory(("0", "1"), (fincat.Morphism(0, 0, 0), fincat.Morphism(1, 0, 1)),
                      (0, 1), None)
    t_obj = ((0, 1), (1, 1))
    braiding = tuple(tuple(cat.identity[x] for x in row) for row in t_obj)
    violations = assert_object_laws_match_the_sweeps(
        cat, fincat.MonoidalData(0, t_obj, None, braiding))
    assert violations[0] == fincat.Violation(
        "identity_typing", (1, 1), "identity of 1 is not an endomorphism")
    assert any(v.law == "tensor_typing" for v in violations)


# ---------------------------------------------------------------------------
# the preorder view: isomorphism classes and generators


def iso_class_inputs():
    """The gallery, the completions of each entry and the simple quotients
    of the entries and their "directed" completions, then the products of
    b2 with z2 and of z2 with monoid_idem, which are not thin."""
    for name in gallery.names():
        yield build_cached(name)
        for flavour in ("finite", "directed", "all"):
            yield completion_cached(name, flavour).category
        yield quotient_cached(name)
        yield quotient_cached(name, "directed")
    yield product_category(build_cached("b2"), build_cached("z2"))
    yield product_category(build_cached("z2"), build_cached("monoid_idem"))


def test_iso_classes_match_the_union_find():
    nontrivial = 0
    for mc in iso_class_inputs():
        assert mc.cat.iso_classes == brute_iso_classes(mc)
        nontrivial += any(len(cls) > 1 for cls in mc.cat.iso_classes)
    assert nontrivial  # the m3 "directed" quotient has a class of 30


@settings(max_examples=60, deadline=None)
@given(thin_monoidal_preorders())
def test_iso_classes_match_the_union_find_on_monoidal_preorders(mc):
    assert mc.cat.iso_classes == brute_iso_classes(mc)


def counted_derivation(monkeypatch, name):
    """The categories whose ``FinCategory`` property ``name`` is derived
    from here on, one entry per call of its function, which stays under
    the same kind of descriptor, cached or not."""
    derived = []
    kept = getattr(FinCategory, name)
    real = getattr(kept, "func", None) or kept.fget

    @functools.wraps(real)
    def derive(cat):
        derived.append(cat)
        return real(cat)
    monkeypatch.setattr(FinCategory, name, type(kept)(derive))
    return derived


@pytest.mark.parametrize("build", [
    lambda: from_semilattice(Semilattice.from_poset(
        FinPoset.chain(["0", "1", "2"]))),
    lambda: ordered_monoid_category(((0, 1), (1, 1)), 0, [(0, 1), (1, 0)]),
    lambda: product_category(gallery.build("b2"), gallery.build("z2"))],
    ids=["chain", "cycle", "product"])
def test_the_preorder_view_is_derived_once_per_category(monkeypatch, build):
    classes = counted_derivation(monkeypatch, "iso_classes")
    generators = counted_derivation(monkeypatch, "generators")
    mc = build()
    unit = coproduct_of_representables(mc, [mc.unit])
    for _ in range(2):
        validate(mc.cat, mc.mon)
        day_tensor(mc, unit, unit)
        tensor_ideals(mc)
        if mc.is_thin():
            is_locale_based(mc)
    for derived in (classes, generators):
        assert derived.count(mc.cat) == 1
        assert len(set(map(id, derived))) == len(derived)


# ---------------------------------------------------------------------------
# monos, isos, subobjects


def test_thin_morphisms_are_mono(c3):
    assert all(is_mono(c3, m.mid) for m in c3.morphisms)


def test_idempotent_endo_not_mono():
    mc = from_commutative_monoid(idem_monoid())
    a = mor_by_label(mc, "a")
    assert not is_mono(mc, a)
    assert is_mono(mc, mc.identity(0))


def test_is_iso():
    b2 = build_cached("b2")
    f = thin_mor(b2, "0", "1")
    assert is_iso(b2, f) is None
    assert is_iso(b2, b2.identity(0)) == b2.identity(0)
    z2 = build_cached("z2")
    g = mor_by_label(z2, "g")
    assert is_iso(z2, g) == g  # its own inverse


def test_subobjects_counts():
    b2 = build_cached("b2")
    assert len(subobjects(b2, obj_by_label(b2, "1"))) == 2
    c3 = build_cached("c3")
    assert len(subobjects(c3, obj_by_label(c3, "1"))) == 3
    z2 = build_cached("z2")
    assert len(subobjects(z2, 0)) == 1
    # in z2 both elements are monic and factor through each other
    assert subobjects(z2, 0)[0].members == frozenset((0, 1))


def test_subobject_order_is_factoring(c3):
    classes = subobjects(c3, obj_by_label(c3, "1"))
    doms = [c3.obj_label(c3.dom(c.representative)) for c in classes]
    order = {(a, b) for a in doms for b in doms
             if subobject_leq(c3, classes[doms.index(a)], classes[doms.index(b)])}
    assert ("0", "1") in order and ("1", "0") not in order
    assert ("0", "m") in order and ("m", "1") in order


def test_mutual_factoring_is_equivalence(gallery_category):
    name, mc = gallery_category
    for a in range(len(mc.objects)):
        monos = [m.mid for m in mc.morphisms
                 if m.cod == a and is_mono(mc, m.mid)]
        related = {(s, t) for s in monos for t in monos
                   if factors_through(mc, s, t) is not None
                   and factors_through(mc, t, s) is not None}
        for s in monos:
            assert (s, s) in related
        for s, t in related:
            assert (t, s) in related
        for s, t in related:
            for u in monos:
                if (t, u) in related:
                    assert (s, u) in related


# ---------------------------------------------------------------------------
# colimits and squares


def test_empty_diagram_colimit_is_initial(c3):
    col = colimit(c3, DiagramSpec((), ()))
    assert col is not None and c3.obj_label(col.apex) == "0"
    assert initial_object(c3).apex == col.apex


def test_terminal_object():
    assert terminal_object(build_cached("c3")) == obj_by_label(
        build_cached("c3"), "1")
    assert terminal_object(build_cached("z2")) is None


def span_diagram(mc, left, mid, right):
    """left <- mid -> right as a DiagramSpec in a thin category."""
    nodes = (obj_by_label(mc, left), obj_by_label(mc, mid),
             obj_by_label(mc, right))
    edges = ((1, 0, thin_mor(mc, mid, left)), (1, 2, thin_mor(mc, mid, right)))
    return DiagramSpec(nodes, edges)


def test_boolean2x2_span_colimit_is_join_meet(boolean2x2):
    # apex of a.x <- (a^b).x -> b.x is (a v b) ^ x, for every x
    mc = boolean2x2
    for x in mc.objects:
        def meet(u, v):
            return mc.obj_label(mc.tensor_obj(obj_by_label(mc, u),
                                              obj_by_label(mc, v)))
        diagram = span_diagram(mc, meet("a", x), meet(meet("a", "b"), x),
                               meet("b", x))
        col = colimit(mc, diagram)
        assert col is not None
        assert mc.obj_label(col.apex) == meet("1", x)  # a v b = 1


def test_m3_span_colimit_degenerates(m3):
    # with incomparable a, b and x = c the span collapses to 0, which is
    # not (a v b) ^ c = c
    diagram = span_diagram(m3, "0", "0", "0")
    col = colimit(m3, diagram)
    assert m3.obj_label(col.apex) == "0"
    assert m3.obj_label(col.apex) != "c"


def test_colimit_unique_up_to_iso(gallery_category):
    name, mc = gallery_category
    diagram = DiagramSpec((0,), ((0, 0, mc.identity(0)),))
    cocones = all_cocones(mc, diagram)
    universal = [c for c in cocones if is_colimit(mc, diagram, c, cocones)]
    for c1 in universal:
        for c2 in universal:
            assert objects_isomorphic(mc, c1.apex, c2.apex) is not None


def test_is_cocone_is_membership_in_all_cocones(gallery_category):
    # every leg tuple into every apex, including legs of the wrong type
    name, mc = gallery_category
    n_obj = len(mc.objects)
    f = next((m for m in mc.morphisms if m.dom != m.cod), mc.morphisms[-1])
    shapes = [DiagramSpec((), ()), DiagramSpec((f.dom,), ()),
              DiagramSpec((f.dom, f.cod), ((0, 1, f.mid),)),
              DiagramSpec((f.cod, f.dom), ((1, 0, f.mid),))]
    for diagram in shapes:
        cocones = set(all_cocones(mc, diagram))
        for apex in range(n_obj):
            legs_at = [[m for a in range(n_obj) for m in mc.hom(a, apex)]
                       for _ in diagram.nodes]
            for legs in itertools.product(*legs_at):
                cocone = Cocone(apex, legs)
                assert is_cocone(mc, diagram, cocone) == (cocone in cocones)
        assert not is_cocone(mc, diagram, Cocone(n_obj, ()))


def test_thin_colimit_is_join_or_absent():
    # two incomparable maximal elements: no join, hence no colimit
    poset = FinPoset.from_pairs(["a", "b", "t1", "t2"],
                                [("a", "t1"), ("a", "t2"),
                                 ("b", "t1"), ("b", "t2")])
    cat = thin_category_from_poset(poset)
    a, b = poset.index("a"), poset.index("b")
    diagram = DiagramSpec((a, b), ())
    assert colimit(cat, diagram) is None
    # in m3 the same shape has join 1
    m3 = build_cached("m3")
    diagram = DiagramSpec((obj_by_label(m3, "a"), obj_by_label(m3, "b")), ())
    col = colimit(m3, diagram)
    assert m3.obj_label(col.apex) == "1"


def test_pullback_identity_square(b2):
    i = b2.identity(b2.unit)
    assert is_pullback(b2, i, i, i, i)


def test_boolean2x2_join_square(boolean2x2):
    mc = boolean2x2
    a, b, one, zero = (obj_by_label(mc, x) for x in ("a", "b", "1", "0"))
    f = thin_mor(mc, "a", "1")
    g = thin_mor(mc, "b", "1")
    p = thin_mor(mc, "0", "a")
    q = thin_mor(mc, "0", "b")
    assert is_pullback(mc, f, g, p, q)
    assert is_pushout(mc, p, q, f, g)


def test_m3_pushout_fails(m3):
    mc = m3
    # span a^c <- (a^b)^c -> b^c pushed to (a v b)^c = c fails
    f = thin_mor(mc, "0", "0")
    g = thin_mor(mc, "0", "0")
    p = thin_mor(mc, "0", "c")
    q = thin_mor(mc, "0", "c")
    assert not is_pushout(mc, f, g, p, q)


def test_square_must_commute(q3):
    f = thin_mor(q3, "0", "1")
    g = thin_mor(q3, "eps", "1")
    with pytest.raises(NonCommutingSquareError):
        is_pullback(q3, f, g, f, f)  # sides do not even typecheck


@st.composite
def thin_colimit_cases(draw):
    """The thin category of a random poset with a diagram (nodes may
    repeat, edges are typed but for a rare stray one), a candidate cocone
    that is typed or not, a cocone list to test it against (none, the
    oracle's, or that plus a stray cocone), a ``max_cocones`` cap small
    enough to refuse, and a square P -> A, B -> X with some side
    possibly replaced by an arbitrary morphism."""
    cat = thin_category_from_poset(draw(shuffled_posets(max_size=6)))
    n, hom = len(cat.objects), cat.hom_table
    objs, mids = st.integers(0, n - 1), st.integers(0, len(cat.morphisms) - 1)

    def up(a):
        return [b for b in range(n) if (a, b) in hom]

    nodes = tuple(draw(st.lists(objs, max_size=4)))
    places = st.integers(0, max(len(nodes) - 1, 0))
    edges = [(a, b, hom[(nodes[a], nodes[b])][0])
             for a, b in draw(st.lists(st.tuples(places, places), max_size=4))
             if nodes and (nodes[a], nodes[b]) in hom]
    if nodes and draw(st.integers(0, 9)) == 0:
        edges.append((draw(places), draw(places), draw(mids)))
    diagram = DiagramSpec(nodes, tuple(edges))

    bounds = [u for u in range(n) if all((v, u) in hom for v in nodes)]
    apex = draw(st.sampled_from(bounds) if bounds and draw(st.booleans())
                else st.integers(-1, n))
    typed = draw(st.booleans())
    legs = tuple(hom[(v, apex)][0] if typed and (v, apex) in hom else draw(mids)
                 for v in nodes)
    if draw(st.integers(0, 4)) == 0:
        legs = legs[:-1] if legs and draw(st.booleans()) else legs + (draw(mids),)
    candidate = Cocone(apex, legs)

    cocones = None
    if draw(st.booleans()):
        kind, cocones = outcome(brute_all_cocones, cat, diagram)
        if kind != "value":
            cocones = None
        elif draw(st.booleans()):
            stray = Cocone(draw(st.integers(-1, n)),
                           tuple(draw(mids) for _ in nodes))
            cocones = cocones + [stray]
    caps = Caps(max_cocones=draw(st.integers(-1, n + 1))) \
        if draw(st.booleans()) else Caps()

    p_obj = draw(objs)
    a_obj, b_obj = draw(st.sampled_from(up(p_obj))), draw(st.sampled_from(up(p_obj)))
    common = [x for x in up(a_obj) if (b_obj, x) in hom]
    x_obj = draw(st.sampled_from(common)) if common else draw(objs)
    sides = [hom.get(pair, (draw(mids),))[0] for pair in
             ((a_obj, x_obj), (b_obj, x_obj), (p_obj, a_obj), (p_obj, b_obj))]
    if draw(st.booleans()):
        sides[draw(st.integers(0, 3))] = draw(mids)
    return cat, diagram, candidate, cocones, caps, tuple(sides)


def assert_kernel_matches_the_sweep(cat, diagram, candidate, cocones, caps,
                                    square):
    """Results, exceptions and cap fields of the (co)limit kernel equal
    those of the sweep oracles.  ``square`` is (f, g, p, q) with
    f: A -> X, g: B -> X, p: P -> A and q: P -> B when it is typed; it is
    tested as a pullback of (f, g) and as a pushout of (p, q)."""
    assert outcome(all_cocones, cat, diagram, caps=caps) == \
        outcome(brute_all_cocones, cat, diagram, caps=caps)
    assert outcome(colimit, cat, diagram, caps=caps) == \
        outcome(brute_colimit, cat, diagram, caps=caps)
    assert outcome(is_colimit, cat, diagram, candidate, cocones, caps=caps) == \
        outcome(brute_is_colimit, cat, diagram, candidate, cocones, caps=caps)
    f, g, p, q = square
    assert outcome(is_pullback, cat, f, g, p, q) == \
        outcome(brute_is_pullback, cat, f, g, p, q)
    assert outcome(is_pushout, cat, p, q, f, g) == \
        outcome(brute_is_pushout, cat, p, q, f, g)


@settings(max_examples=400, deadline=None)
@given(thin_colimit_cases())
def test_thin_colimit_kernel_matches_the_sweep(case):
    cat = case[0]
    n = len(cat.objects)
    assert cat.up == tuple(sum(1 << b for b in range(n) if cat.hom(a, b))
                           for a in range(n))
    assert_kernel_matches_the_sweep(*case)
    assert all(is_mono(cat, m.mid) == brute_is_mono(cat, m.mid)
               for m in cat.morphisms)


@pytest.mark.parametrize("name", gallery.names())
def test_colimit_kernel_matches_the_sweep_on_gallery_and_completions(name):
    # 25 seeded diagrams per category, each on 0-3 (possibly repeated)
    # objects with every morphism between them as an edge; a random
    # cocone and a stray one are tested as colimits against no list, the
    # oracle's list and that list with the stray added, each with a
    # seeded square
    for mc in (build_cached(name), completion_cached(name, "all").category):
        cat = mc.cat
        rng = random.Random(f"{name}/{len(cat.objects)}")
        n, mors = len(cat.objects), cat.morphisms
        assert cat.is_thin() == all(len(v) <= 1 for v in cat.hom_table.values())
        for _ in range(25):
            nodes = tuple(rng.choices(range(n), k=rng.randint(0, 3)))
            diagram = DiagramSpec(nodes, tuple(
                (a, b, f) for a, u in enumerate(nodes)
                for b, v in enumerate(nodes) for f in cat.hom(u, v)))
            cocones = brute_all_cocones(cat, diagram)
            stray = Cocone(rng.randrange(n), tuple(
                rng.randrange(len(mors)) for _ in nodes))
            candidates = [stray] + ([rng.choice(cocones)] if cocones else [])
            for candidate in candidates:
                for given_cocones in (None, cocones, cocones + [stray]):
                    p = rng.randrange(n)
                    a, b = (rng.choice([v for v in range(n) if cat.hom(p, v)])
                            for _ in "ab")
                    x = rng.choice([v for v in range(n)
                                    if cat.hom(a, v) and cat.hom(b, v)] or [a])
                    sides = [rng.choice(cat.hom(u, v) or (0,)) for u, v in
                             ((a, x), (b, x), (p, a), (p, b))]
                    assert_kernel_matches_the_sweep(
                        cat, diagram, candidate, given_cocones,
                        Caps(), tuple(sides))
        assert all(is_mono(cat, m.mid) == brute_is_mono(cat, m.mid)
                   for m in mors)


# ---------------------------------------------------------------------------
# constructors


def test_from_semilattice_b2(b2):
    assert len(b2.objects) == 2
    assert len(b2.morphisms) == 3
    assert b2.obj_label(b2.unit) == "1"


def test_from_quantale_q3(q3):
    assert len(q3.objects) == 3
    assert len(q3.morphisms) == 6
    eps = obj_by_label(q3, "eps")
    zero = obj_by_label(q3, "0")
    assert q3.tensor_obj(eps, eps) == zero
    assert q3.tensor_obj(eps, obj_by_label(q3, "1")) == eps


def test_from_commutative_monoid_modes():
    one_obj = from_commutative_monoid(zero_one_monoid())
    assert len(one_obj.objects) == 1 and len(one_obj.morphisms) == 2
    ideals = from_commutative_monoid(zero_one_monoid(), mode="ideal_quantale")
    assert set(ideals.objects) == {"{0}", "{0,1}", "{}"}


def test_one_object_mode_rejects_noncommutative():
    from ttw.orderkit import FinMonoid
    mult = ((0, 1, 2), (1, 1, 1), (2, 2, 2))
    with pytest.raises(BuildError):
        from_commutative_monoid(FinMonoid(("1", "x", "y"), mult, 0))


def test_thin_constructors_check_caps_before_building_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("tables built before the caps were checked")
    monkeypatch.setattr(fincat, "_thin_category", refuse)
    chain = [f"c{i}" for i in range(66)]
    lat = Semilattice.from_poset(FinPoset.from_pairs(chain, list(zip(chain, chain[1:]))))
    with pytest.raises(CapExceededError) as exc:
        from_semilattice(lat)
    assert (exc.value.cap_name, exc.value.actual) == ("max_objects", 66)
    with pytest.raises(CapExceededError) as exc:
        from_semilattice(lat, caps=Caps(max_objects=66, max_morphisms=2210))
    assert (exc.value.cap_name, exc.value.actual) == ("max_morphisms", 66 * 67 // 2)
    # 25 ideals of a max chain, 325 order pairs
    with pytest.raises(CapExceededError) as exc:
        from_commutative_monoid(max_monoid(24), mode="ideal_quantale",
                                caps=Caps(max_morphisms=324))
    assert (exc.value.cap_name, exc.value.actual) == ("max_morphisms", 325)


def test_gallery_categories_all_validate(gallery_category):
    name, mc = gallery_category
    assert validate(mc.cat, mc.mon).ok()


# ---------------------------------------------------------------------------
# functors


def test_functor_validation(q3):
    from ttw.fincat import identity_functor
    identity_functor(q3).check_strict_monoidal()
    broken = CatFunctor(q3, q3, tuple(range(3)),
                        tuple(0 for _ in q3.morphisms))
    with pytest.raises(BuildError):
        broken.check_functor()


@pytest.mark.parametrize("table, past_end", OUT_OF_RANGE)
def test_functor_entry_out_of_range_is_malformed(z2, table, past_end):
    # refused before the typing loop, which would index the target with it
    broken = out_of_range_entry(fincat.identity_functor(z2), table, past_end)
    with pytest.raises(MalformedTableError, match="out of range"):
        broken.check_functor()


def test_inclusion_functor_semilattice_to_quantale():
    # x -> down-set-of-x from the 2x2 lattice into its downset frame
    from ttw.fincat import from_quantale
    from ttw.orderkit import Quantale, downsets
    from ttw.gallery import boolean2x2_semilattice
    lat = boolean2x2_semilattice()
    src = build_cached("boolean2x2")
    dl = downsets(lat)
    frame = from_quantale(Quantale.from_semilattice(
        __import__("ttw.orderkit", fromlist=["Semilattice"]).Semilattice.from_poset(dl.poset)))
    obj_map = tuple(dl.embedding)
    mor_map = []
    for m in src.morphisms:
        target = frame.hom(obj_map[m.dom], obj_map[m.cod])
        assert len(target) == 1
        mor_map.append(target[0])
    functor = CatFunctor(src, frame, obj_map, tuple(mor_map))
    functor.check_strict_monoidal()


def test_every_single_entry_corruption_detected_exhaustively():
    # small categories allow sweeping every entry and every wrong value
    for name in ("b2", "q3", "z2", "monoid_idem"):
        mc = build_cached(name)
        mids = [m.mid for m in mc.morphisms]
        table = explicit_compose(mc)
        for key in table:
            for wrong in mids:
                if wrong == table[key]:
                    continue
                bad = dict(table)
                bad[key] = wrong
                cat = FinCategory(mc.cat.objects, mc.cat.morphisms,
                                  mc.cat.identity, bad)
                assert not validate(cat, mc.mon).ok(), (name, key, wrong)
        table = explicit_tensor(mc)
        for key in table:
            for wrong in mids:
                if wrong == table[key]:
                    continue
                bad = dict(table)
                bad[key] = wrong
                mon = dataclasses.replace(mc.mon, tensor_mor=bad)
                assert not validate(mc.cat, mon).ok(), (name, key, wrong)
        for a in range(len(mc.objects)):
            for b in range(len(mc.objects)):
                for wrong in mids:
                    if wrong == mc.braiding(a, b):
                        continue
                    rows = [list(r) for r in mc.mon.braiding]
                    rows[a][b] = wrong
                    mon = dataclasses.replace(
                        mc.mon, braiding=tuple(tuple(r) for r in rows))
                    assert not validate(mc.cat, mon).ok(), (name, a, b, wrong)


# ---------------------------------------------------------------------------
# single-entry fault sensitivity (hypothesis drives the choice of entry)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(gallery.names()), st.data())
def test_single_entry_corruption_is_detected(name, data):
    mc = build_cached(name)
    table = data.draw(st.sampled_from(("compose", "tensor_mor", "braiding")))
    if table == "compose":
        table = explicit_compose(mc)
        keys = sorted(table)
        key = data.draw(st.sampled_from(keys))
        old = table[key]
        new = data.draw(st.sampled_from(
            [m.mid for m in mc.morphisms if m.mid != old]))
        bad = dict(table)
        bad[key] = new
        cat = FinCategory(mc.cat.objects, mc.cat.morphisms, mc.cat.identity, bad)
        report = validate(cat, mc.mon)
    elif table == "tensor_mor":
        table = explicit_tensor(mc)
        keys = sorted(table)
        key = data.draw(st.sampled_from(keys))
        old = table[key]
        new = data.draw(st.sampled_from(
            [m.mid for m in mc.morphisms if m.mid != old]))
        bad = dict(table)
        bad[key] = new
        mon = dataclasses.replace(mc.mon, tensor_mor=bad)
        report = validate(mc.cat, mon)
    else:
        n = len(mc.objects)
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        old = mc.braiding(a, b)
        candidates = [m.mid for m in mc.morphisms if m.mid != old]
        new = data.draw(st.sampled_from(candidates))
        rows = [list(r) for r in mc.mon.braiding]
        rows[a][b] = new
        mon = dataclasses.replace(mc.mon,
                                  braiding=tuple(tuple(r) for r in rows))
        report = validate(mc.cat, mon)
    assert not report.ok()
    assert report.violations[0].witness is not None


# ---------------------------------------------------------------------------
# composition forced by typing, against an explicit table


BENCH_COMMON = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "common.py"


@pytest.mark.parametrize("name, flavour", [("b2", None), ("z2", None), ("b2", "all")])
def test_the_benchmark_rebuild_keeps_every_answer(name, flavour):
    # perfbench/common.py's ``clone`` rebuilds each category from its
    # tables with positional arguments; the copy must answer alike
    spec = importlib.util.spec_from_file_location("perfbench_common", BENCH_COMMON)
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    mc = build_cached(name) if flavour is None else completion_cached(name, flavour).category
    assert (mc.cat.compose_table is None) == mc.is_thin() == (name == "b2")
    copy = common.clone(mc)
    n, mids = range(len(mc.objects)), range(len(mc.morphisms))
    assert [copy.hom(a, b) for a in n for b in n] == [mc.hom(a, b) for a in n for b in n]
    pairs = scan_composable(mc.morphisms)
    assert [copy.compose(g, f) for g, f in pairs] == [mc.compose(g, f) for g, f in pairs]
    assert [copy.tensor_mor(f, g) for f in mids for g in mids] == \
        [mc.tensor_mor(f, g) for f in mids for g in mids]
    assert validate(copy.cat, copy.mon).ok()


def thin_family(name):
    """The thin gallery entry ``name``, its three completions, the simple
    quotient of each of these and the restriction of each to every
    subunit where one is built, all built by typing."""
    for flavour in (None, "finite", "directed", "all"):
        mc = build_cached(name) if flavour is None \
            else completion_cached(name, flavour).category
        yield mc
        yield quotient_cached(name, flavour)
        for s in enumerate_subunits(mc):
            if outcome(restriction_category, mc, s)[0] == "value":
                yield restriction_category(mc, s).subcategory


def assert_forced_composition_matches_the_table(mc, rng, generic=True):
    """``mc`` keeps no composition table, and a copy carrying
    ``explicit_compose`` gets the same ``validate`` reports (the generic
    one when ``generic``) and the same answers from the fincat kernels:
    ``is_iso`` on every morphism, and ``factors_through``, squares as
    pullbacks and pushouts, and colimits of diagrams on up to three
    objects, drawn from ``rng``."""
    assert mc.cat.compose_table is None
    copy = with_explicit_compose(mc)
    assert validate(copy.cat, copy.mon) == validate(mc.cat, mc.mon)
    if generic:
        assert validate(copy.cat, copy.mon, force_generic=True) == \
            validate(mc.cat, mc.mon, force_generic=True)
    n, mids = len(mc.objects), range(len(mc.morphisms))
    assert [is_iso(copy, f) for f in mids] == [is_iso(mc, f) for f in mids]
    for _ in range(100):
        f, g = rng.choice(mids), rng.choice(mids)
        assert factors_through(copy, f, g) == factors_through(mc, f, g)
    for _ in range(25):
        p = rng.randrange(n)
        a, b = (rng.choice([v for v in range(n) if mc.hom(p, v)]) for _ in "ab")
        x = rng.choice([v for v in range(n) if mc.hom(a, v) and mc.hom(b, v)] or [a])
        f, g, p_leg, q_leg = (rng.choice(mc.hom(u, v) or (0,)) for u, v in
                              ((a, x), (b, x), (p, a), (p, b)))
        assert outcome(is_pullback, copy, f, g, p_leg, q_leg) == \
            outcome(is_pullback, mc, f, g, p_leg, q_leg)
        assert outcome(is_pushout, copy, p_leg, q_leg, f, g) == \
            outcome(is_pushout, mc, p_leg, q_leg, f, g)
        nodes = tuple(rng.choices(range(n), k=rng.randint(0, 3)))
        diagram = DiagramSpec(nodes, tuple(
            (i, j, h) for i, u in enumerate(nodes)
            for j, v in enumerate(nodes) for h in mc.hom(u, v)))
        assert outcome(colimit, copy, diagram) == outcome(colimit, mc, diagram)


THIN_GALLERY = [name for name in gallery.names() if build_cached(name).is_thin()]


@pytest.mark.parametrize("name", THIN_GALLERY)
def test_forced_composition_matches_the_table_on_derived_categories(name):
    # the generic validation sweeps every composable pair against every
    # other (interchange), so it runs on the categories of at most 60
    # morphisms: b2 and q3 "all" have 25 and 54
    rng = random.Random(name)
    for mc in thin_family(name):
        assert_forced_composition_matches_the_table(
            mc, rng, generic=len(mc.morphisms) <= 60)


@settings(max_examples=40, deadline=None)
@given(thin_monoidal_preorders(), st.randoms(use_true_random=False))
def test_forced_composition_matches_the_table_on_generated_categories(mc, rng):
    assert_forced_composition_matches_the_table(mc, rng)
