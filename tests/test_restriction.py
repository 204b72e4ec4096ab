from __future__ import annotations

import dataclasses
import functools
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (GRADING_NOT_CLOSED, _MONOID_FAMILIES, _product_monoid,
                      all_pair_sweeps, build_cached, closure_lattices,
                      commutative_monoids, completion_cached, coreflector_comparisons,
                      explicit_compose, generic_hierarchy_sweeps, mor_by_label,
                      null_monoid, obj_by_label, outcome, product_category,
                      restriction_flips,
                      subunit_by_domain, sweep_coreflection,
                      sweep_coreflector_monoidal, sweep_graded_monad,
                      thin_monoidal_preorders, with_restriction_table)
import ttw.restriction
from ttw import gallery
from ttw.daycat import broad_category
from ttw.errors import BuildError, ConsistencyError, TtwError
from ttw.fincat import (CatFunctor, FinCategory, MonoidalCategory, _tabulate,
                        _tabulate_monoidal, from_commutative_monoid,
                        from_semilattice, identity_functor, is_iso, is_mono,
                        validate)
from ttw.orderkit import FinMonoid, Semilattice, _bits
from ttw.restriction import (ComonadData, _subunit_monos, _verify_coreflection,
                             check_restriction_comonad,
                             extract_subunit, frobenius_law_holds,
                             object_restriction_equivalences, restricting_subunits,
                             restriction_category, restriction_comonad,
                             restriction_composition_law, restriction_meet_failure,
                             restriction_table,
                             restricts_to, tensor_ideals,
                             verify_comonad_bijection, verify_graded_monad,
                             verify_ideal_bijection)
from ttw.subunits import (PropertyReport, _tensor_right, enumerate_subunits,
                          retract_pairs, subunit_semilattice)
from ttw.support import canonical_support_datum, verify_support_laws


# ---------------------------------------------------------------------------
# the restricts-to relation


def test_everything_restricts_to_identity(gallery_category):
    name, mc = gallery_category
    subs = enumerate_subunits(mc)
    top = next(s for s in subs if mc.identity(mc.unit) in s.cls.members)
    for m in mc.morphisms:
        assert restricts_to(mc, m.mid, top) is not None


def test_q3_restriction_of_eps_arrow(q3):
    subs = enumerate_subunits(q3)
    zero = subunit_by_domain(q3, subs, "0")
    one = subunit_by_domain(q3, subs, "1")
    eps_arrow = mor_by_label(q3, "eps->1")
    assert restricts_to(q3, eps_arrow, one) is not None
    assert restricts_to(q3, eps_arrow, zero) is None


def test_identity_of_tensored_object_restricts(gallery_category):
    name, mc = gallery_category
    for s in enumerate_subunits(mc):
        for b in range(len(mc.objects)):
            sb = mc.tensor_obj(s.domain, b)
            assert restricts_to(mc, mc.identity(sb), s) is not None


# ---------------------------------------------------------------------------
# the restriction table against one restricts_to call per pair


def assert_table_matches_restricts_to(mc):
    subs = enumerate_subunits(mc)
    table = restriction_table(mc)
    assert len(table) == len(mc.morphisms)
    for f in mc.morphisms:
        oracle = [restricts_to(mc, f.mid, s) is not None for s in subs]
        assert table[f.mid] >> len(subs) == 0
        assert [bool(table[f.mid] >> k & 1) for k in range(len(subs))] == oracle
        assert restricting_subunits(mc, f.mid) == \
            [k for k, hit in enumerate(oracle) if hit]


@pytest.mark.parametrize("name", gallery.names())
def test_restriction_table_matches_restricts_to(name):
    for mc in (build_cached(name), completion_cached(name, "all").category):
        assert_table_matches_restricts_to(mc)
        assert subunit_semilattice(mc).subunits == enumerate_subunits(mc)


@settings(max_examples=60, deadline=None)
@given(closure_lattices())
def test_restriction_table_on_closure_lattices(poset):
    assert_table_matches_restricts_to(
        from_semilattice(Semilattice.from_poset(poset)))


@settings(max_examples=60, deadline=None)
@given(commutative_monoids())
def test_restriction_table_on_commutative_monoids(monoid):
    assert_table_matches_restricts_to(from_commutative_monoid(monoid))


def count_calls(monkeypatch, name: str) -> list:
    """The argument tuples of every call of ``ttw.restriction.<name>``
    from now on."""
    calls = []
    real = getattr(ttw.restriction, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ttw.restriction, name, counting)
    return calls


def assert_restriction_table_is_computed_once(mc, calls: list, once: int):
    table = restriction_table(mc)
    assert len(calls) == once
    # the second call and every reader of the relation use the same table
    assert restriction_table(mc) is table
    restriction_composition_law(mc)
    verify_support_laws(mc, canonical_support_datum(mc)[0])
    broad_category(mc, "all")
    assert len(calls) == once
    # the table belongs to the category object, so a clone computes it anew
    clone = MonoidalCategory(mc.cat, mc.mon)
    assert restriction_table(clone) == table
    assert len(calls) == 2 * once


def test_restriction_table_is_computed_once_per_category(monkeypatch):
    # a thin category reads one row of masks per morphism
    rows = count_calls(monkeypatch, "_restriction_row")
    mc = gallery.build("q3")
    assert_restriction_table_is_computed_once(mc, rows, len(mc.morphisms))
    # elsewhere each row tests every subunit through restricts_to
    tests = count_calls(monkeypatch, "restricts_to")
    mc = product_category(build_cached("b2"), build_cached("z2"))
    assert not mc.is_thin()
    assert_restriction_table_is_computed_once(
        mc, tests, len(mc.morphisms) * len(enumerate_subunits(mc)))


def test_object_restriction_equivalences(q3):
    subs = enumerate_subunits(q3)
    zero = subunit_by_domain(q3, subs, "0")
    eps = obj_by_label(q3, "eps")
    report = object_restriction_equivalences(q3, eps, zero)
    assert not report.holds
    report = object_restriction_equivalences(q3, zero.domain, zero)
    assert report.holds


def test_object_restriction_sweep(gallery_category):
    # the four conditions are computed independently and must agree
    name, mc = gallery_category
    for s in enumerate_subunits(mc):
        for a in range(len(mc.objects)):
            object_restriction_equivalences(mc, a, s)


# ---------------------------------------------------------------------------
# restriction subcategories


def test_restriction_at_identity_is_whole_category(gallery_category):
    # the top subunit's restriction is the category itself, with identity
    # inclusion, coreflector and counit, and tabulating it gives the same
    # tables, on the entry and its completions, thin or not (the top
    # class of z2 also holds the non-identity automorphism)
    name, source = gallery_category
    for mc in (source, *(completion_cached(name, flavour).category
                         for flavour in ("finite", "directed", "all"))):
        top, = (s for s in enumerate_subunits(mc) if s.rep == mc.identity(mc.unit))
        result = restriction_category(mc, top)
        assert result.subcategory is mc
        assert _result_tables(result) == \
            _result_tables(ttw.restriction._tabulated_restriction(mc, top))


def test_restriction_of_semilattice_is_downset(boolean2x2):
    subs = enumerate_subunits(boolean2x2)
    a = subunit_by_domain(boolean2x2, subs, "a")
    result = restriction_category(boolean2x2, a)
    assert result.subcategory.objects == ("0", "a")
    assert result.subcategory.obj_label(result.subcategory.unit) == "a"


def test_restriction_of_q3_at_zero(q3):
    subs = enumerate_subunits(q3)
    zero = subunit_by_domain(q3, subs, "0")
    result = restriction_category(q3, zero)
    assert result.subcategory.objects == ("0",)
    # the coreflector collapses everything onto 0
    for a in range(len(q3.objects)):
        assert result.coreflector.on_obj(a) == 0


def test_coreflector_lands_in_subcategory(gallery_category):
    name, mc = gallery_category
    for s in enumerate_subunits(mc):
        result = restriction_category(mc, s)
        for a in range(len(mc.objects)):
            target = result.inclusion.on_obj(result.coreflector.on_obj(a))
            assert mc.tensor_obj(s.domain, a) == target


# ---------------------------------------------------------------------------
# graded monad


def test_graded_monad_laws(gallery_category):
    name, mc = gallery_category
    assert verify_graded_monad(mc).holds


def subunit_monos_by_morphism(mc) -> list[int]:
    """The grading objects morphism by morphism: every monomorphism into
    the unit whose self-tensor is invertible."""
    return [m.mid for m in mc.morphisms if m.cod == mc.unit and is_mono(mc, m.mid)
            and is_iso(mc, _tensor_right(mc, m.mid, m.dom)) is not None]


@pytest.mark.parametrize("name", gallery.names())
def test_subunit_monos_are_the_subunit_class_members(name):
    for mc in [build_cached(name)] + [completion_cached(name, flavour).category
                                      for flavour in ("finite", "directed", "all")]:
        assert _subunit_monos(mc) == subunit_monos_by_morphism(mc)


@settings(max_examples=60, deadline=None)
@given(thin_monoidal_preorders())
def test_subunit_monos_are_the_subunit_class_members_on_preorders(mc):
    assert _subunit_monos(mc) == subunit_monos_by_morphism(mc)


@settings(max_examples=60, deadline=None)
@given(commutative_monoids())
def test_subunit_monos_are_the_subunit_class_members_on_monoids(monoid):
    mc = from_commutative_monoid(monoid)
    assert _subunit_monos(mc) == subunit_monos_by_morphism(mc)


def test_grading_category_does_not_quotient(z2):
    # both elements of the group are subunit monomorphisms, so the
    # grading category has two objects even though ISub has one
    report = verify_graded_monad(z2)
    assert report.details["grading_objects"] == 2
    assert len(enumerate_subunits(z2)) == 1


# the graded monad sweep takes about 20 s on each of these 50-object
# completions
GRADED_SWEEP_TOO_SLOW = {("m3", "finite"), ("m3", "all")}


@pytest.mark.parametrize("name", gallery.names())
def test_graded_monad_matches_the_sweep(name):
    cats = [build_cached(name)] + [
        completion_cached(name, flavour).category
        for flavour in ("finite", "directed", "all")
        if (name, flavour) not in GRADED_SWEEP_TOO_SLOW]
    for mc in cats:
        assert verify_graded_monad(mc) == sweep_graded_monad(mc)


@pytest.mark.parametrize("left, right", [
    ("b2", "z2"), ("z2", "monoid_idem"), ("c3", "monoid_idem"), ("q3", "z2"),
    ("b2", "c3")])
def test_graded_monad_matches_the_sweep_on_products(left, right):
    mc = product_category(build_cached(left), build_cached(right))
    assert verify_graded_monad(mc) == sweep_graded_monad(mc)


@settings(max_examples=40, deadline=None)
@given(commutative_monoids())
def test_graded_monad_matches_the_sweep_on_monoids(monoid):
    mc = from_commutative_monoid(monoid)
    assert verify_graded_monad(mc) == sweep_graded_monad(mc)


def _family_monoid(size, op, unit):
    return FinMonoid(tuple(f"e{x}" for x in range(size)),
                     tuple(tuple(op(x, y) for y in range(size)) for x in range(size)),
                     unit)


def _corruptible_categories():
    """The non-thin categories whose tables are corrupted entry by entry:
    two gallery entries, two products and the one-object categories of
    Z3, Z2 x Z2 and {1, 0, a} with a.a = 0."""
    cyclic = _MONOID_FAMILIES["cyclic"]
    yield build_cached("z2")
    yield build_cached("monoid_idem")
    yield product_category(build_cached("b2"), build_cached("z2"))
    yield product_category(build_cached("z2"), build_cached("monoid_idem"))
    yield from_commutative_monoid(_family_monoid(*cyclic(3)))
    yield from_commutative_monoid(_family_monoid(*_product_monoid(cyclic(2), cyclic(2))))
    yield from_commutative_monoid(null_monoid(1))


def _with_table(mc, name, table):
    """``mc`` with its ``compose_table``, ``tensor_mor`` or ``braiding``
    replaced, left unvalidated; a braiding is handed as a dict keyed by
    pairs of objects."""
    cat, mon = mc.cat, mc.mon
    if name == "compose_table":
        cat = FinCategory(cat.objects, cat.morphisms, cat.identity, table)
    elif name == "braiding":
        n_obj = len(mc.objects)
        mon = dataclasses.replace(mon, braiding=tuple(
            tuple(table[(a, b)] for b in range(n_obj)) for a in range(n_obj)))
    else:
        mon = dataclasses.replace(mon, tensor_mor=table)
    return MonoidalCategory(cat, mon)


def _comparison_oracle(mc, s):
    """``sweep_coreflector_monoidal`` on the comparisons of s, built from
    the tables of ``mc`` as they stand."""
    return sweep_coreflector_monoidal(mc, s, coreflector_comparisons(mc, s))


def _coreflection_args(mc, s):
    """What ``restriction_category`` hands ``_verify_coreflection``."""
    return mc, s, {a: inv for a in range(len(mc.objects))
                   if (inv := is_iso(mc, _tensor_right(mc, s.rep, a))) is not None}


def test_validate_rejects_what_only_the_deleted_sweeps_reject():
    # every single-entry corruption of the composition, tensor and
    # braiding tables: the library keeps the closure stage of the graded
    # monad sweep and the bijection of the coreflection, and whatever the
    # rest of either sweep, or the coreflector comparison oracle, rejects,
    # validate rejects too
    reasons = set()
    braidings = 0
    for mc in _corruptible_categories():
        subs = enumerate_subunits(mc)
        mids = [m.mid for m in mc.morphisms]
        braiding = {(a, b): mc.braiding(a, b) for a in range(len(mc.objects))
                    for b in range(len(mc.objects))}
        for name, table in (("compose_table", dict(explicit_compose(mc))),
                            ("tensor_mor", mc.mon.tensor_mor),
                            ("braiding", braiding)):
            for bad_table in _corruptions(table, mids):
                braidings += name == "braiding"
                bad = _with_table(mc, name, bad_table)
                rejected = not validate(bad.cat, bad.mon).ok()
                library = outcome(verify_graded_monad, bad)
                oracle = outcome(sweep_graded_monad, bad)
                if oracle[0] == "value" and not oracle[1].holds:
                    reasons.add(oracle[1].details["reason"])
                if library != oracle:
                    # the oracle failed past the closure stage
                    assert library[0] == "value" and library[1].holds
                    assert oracle[0] != "value" or not oracle[1].holds and \
                        oracle[1].details["reason"] != GRADING_NOT_CLOSED
                if oracle[0] != "value" or not oracle[1].holds:
                    assert rejected, (mc.objects, name, oracle)
                for s in subs:
                    args = _coreflection_args(bad, s)
                    kept = outcome(_verify_coreflection, *args)
                    swept = outcome(sweep_coreflection, *args)
                    assert kept == swept or swept[0] != "value"
                    reasons |= {found[1] for found in (kept, swept)
                                if found[0] == "ConsistencyError"}
                    if swept[0] != "value":
                        assert rejected, (mc.objects, name, swept)
                    compared = outcome(_comparison_oracle, bad, s)
                    if compared[0] == "ConsistencyError":
                        reasons.add(compared[1])
                    if compared[0] != "value":
                        assert rejected, (mc.objects, name, compared)
    assert braidings == 32
    # the kept checks refuse some tables, and the sweeps reach past them
    assert {GRADING_NOT_CLOSED, "coreflection correspondence is not a bijection",
            "grading action not natural",
            "coreflection bijection fails roundtrip",
            "coreflector comparison map is not invertible",
            "coreflector comparison not natural"} <= reasons, reasons


def assert_coreflector_oracle_holds(mc):
    """``sweep_coreflector_monoidal`` passes at every subunit of ``mc``
    whose restriction builds: the comparisons are invertible, natural and
    coherent, as the ``restriction`` module docstring derives from the
    laws ``validate`` proved."""
    for s in enumerate_subunits(mc):
        try:
            restriction_category(mc, s)
        except BuildError:
            continue
        _comparison_oracle(mc, s)


def test_coreflector_oracle_holds_wherever_a_restriction_builds():
    # the gallery, its completions (as SWEEPS_TOO_SLOW allows), the
    # corruptible categories and drawn monoids and preorders
    for name in gallery.names():
        assert_coreflector_oracle_holds(build_cached(name))
        for flavour in ("finite", "directed", "all"):
            if (name, flavour) not in SWEEPS_TOO_SLOW:
                assert_coreflector_oracle_holds(completion_cached(name, flavour).category)
    for mc in _corruptible_categories():
        assert_coreflector_oracle_holds(mc)

    @settings(max_examples=40, deadline=None)
    @given(commutative_monoids())
    def on_monoids(monoid):
        assert_coreflector_oracle_holds(from_commutative_monoid(monoid))

    @settings(max_examples=40, deadline=None)
    @given(thin_monoidal_preorders())
    def on_preorders(mc):
        assert_coreflector_oracle_holds(mc)

    on_monoids()
    on_preorders()


# ---------------------------------------------------------------------------
# restriction comonads


def test_identity_subunit_gives_identity_comonad(q3):
    subs = enumerate_subunits(q3)
    one = subunit_by_domain(q3, subs, "1")
    data = restriction_comonad(q3, one)
    assert data.obj_map == tuple(range(len(q3.objects)))
    assert data.mor_map == tuple(range(len(q3.morphisms)))
    assert all(data.counit[a] == q3.identity(a) for a in range(3))


def test_zero_subunit_gives_constant_comonad(q3):
    subs = enumerate_subunits(q3)
    zero = subunit_by_domain(q3, subs, "0")
    data = restriction_comonad(q3, zero)
    z = obj_by_label(q3, "0")
    assert all(obj == z for obj in data.obj_map)
    back = extract_subunit(q3, data)
    assert back.rep == zero.rep


def test_comonad_bijection_and_frobenius(gallery_category):
    name, mc = gallery_category
    assert verify_comonad_bijection(mc).holds
    for s in enumerate_subunits(mc):
        assert frobenius_law_holds(restriction_comonad(mc, s))


def assert_built_restrictions_pass(mc) -> int:
    """The comonad of each subunit passes ``check_restriction_comonad``,
    and the inclusion and coreflector of each restriction pass
    ``check_functor``, each with its full sweep, since the block makes
    every category look not thin; returns how many restrictions were
    strict, the others being refused before any functor is built."""
    strict = 0
    with generic_hierarchy_sweeps():
        for s in enumerate_subunits(mc):
            check_restriction_comonad(restriction_comonad(mc, s))
            try:
                result = ttw.restriction.restriction_category(mc, s)
            except BuildError:
                continue
            result.inclusion.check_functor()
            result.coreflector.check_functor()
            strict += 1
    return strict


# the sweeps take about 6 s on each 50-object completion of m3; "all"
# is checked, "finite" left out to keep the suite short
SWEEPS_TOO_SLOW = {("m3", "finite")}


@pytest.mark.parametrize("name", gallery.names())
def test_built_restrictions_pass_the_law_checks(name):
    assert assert_built_restrictions_pass(build_cached(name))
    for flavour in ("finite", "directed", "all"):
        if (name, flavour) not in SWEEPS_TOO_SLOW:
            assert assert_built_restrictions_pass(completion_cached(name, flavour).category)


def test_built_restrictions_pass_the_law_checks_on_a_product():
    # b2 x z2: not thin, with two morphisms between distinct objects
    assert assert_built_restrictions_pass(
        product_category(build_cached("b2"), build_cached("z2"))) == 2


@settings(max_examples=40, deadline=None)
@given(commutative_monoids())
def test_built_restrictions_pass_the_law_checks_on_monoids(monoid):
    assert assert_built_restrictions_pass(from_commutative_monoid(monoid))


def test_invalid_comonad_rejected(z2):
    g = mor_by_label(z2, "g")
    ident = z2.identity(0)
    data = ComonadData(z2, (0,), (0, 1), (ident,), (g,), {(0, 0): ident})
    with pytest.raises(BuildError) as err:
        check_restriction_comonad(data)
    assert "counit" in str(err.value)
    with pytest.raises(BuildError):
        extract_subunit(z2, data)


# ---------------------------------------------------------------------------
# tensor ideals


def test_group_category_has_one_ideal(z2):
    ideals = tensor_ideals(z2)
    assert len(ideals) == 1
    assert ideals[0].objects == frozenset((0,))


def test_q3_has_two_ideals(q3):
    ideals = tensor_ideals(q3)
    assert len(ideals) == 2
    object_sets = {frozenset(q3.obj_label(a) for a in ideal.objects)
                   for ideal in ideals}
    assert object_sets == {frozenset(("0",)), frozenset(("0", "eps", "1"))}


def test_restrictions_are_among_ideals(gallery_category):
    name, mc = gallery_category
    ideals = tensor_ideals(mc)
    ideal_objects = {ideal.objects for ideal in ideals}
    for s in enumerate_subunits(mc):
        keep = frozenset(a for a in range(len(mc.objects))
                         if is_iso(mc, _tensor_right(mc, s.rep, a)) is not None)
        assert keep in ideal_objects


def test_ideal_bijection(gallery_category):
    name, mc = gallery_category
    report = verify_ideal_bijection(mc)
    assert report.holds
    assert report.details["count"] == len(enumerate_subunits(mc))


# ---------------------------------------------------------------------------
# composition and retraction laws


def test_restriction_composition_law(gallery_category):
    name, mc = gallery_category
    assert restriction_composition_law(mc).holds


def sweep_meet_failure(mc, pairs=None):
    """The composite and tensor laws of restriction swept over every pair
    of morphisms (f, g), or over ``pairs``, in that order: the first
    (f, g, i, j, "compose" | "tensor") with f o g or f (x) g not
    restricting to i /\\ j, or None.  The oracle of
    ``restriction_meet_failure``, which checks the composable and
    one-variable pairs only."""
    lat, table = subunit_semilattice(mc), restriction_table(mc)
    mids = range(len(mc.morphisms))
    for f, g in pairs if pairs is not None else itertools.product(mids, mids):
        comp = table[mc.compose(f, g)] if mc.cod(g) == mc.dom(f) else None
        tens = table[mc.tensor_mor(f, g)]
        for i in _bits(table[f]):
            for j in _bits(table[g]):
                meet = lat.meet(i, j)
                if comp is not None and not comp >> meet & 1:
                    return f, g, i, j, "compose"
                if not tens >> meet & 1:
                    return f, g, i, j, "tensor"
    return None


def sweep_restriction_composition_law(mc):
    """``restriction_composition_law`` with the laws swept over every pair
    of morphisms, as it was before the reduction."""
    failure = sweep_meet_failure(mc)
    if failure is not None:
        return PropertyReport("restriction_composition", False, witness=failure)
    table = restriction_table(mc)
    for m, e in retract_pairs(mc):
        if table[m] != table[e]:
            return PropertyReport(
                "restriction_composition", False, witness=(m, e, "retract"),
                details={"m_restricts": restricting_subunits(mc, m),
                         "e_restricts": restricting_subunits(mc, e)})
    return PropertyReport("restriction_composition", True)


def assert_witness_replays(mc, witness):
    """f restricts to i and g to j, and the named composite or tensor does
    not restrict to i /\\ j, all read from ``mc``'s restriction table."""
    f, g, i, j, kind = witness
    lat, table = subunit_semilattice(mc), restriction_table(mc)
    assert table[f] >> i & 1 and table[g] >> j & 1
    if kind == "compose":
        assert mc.cod(g) == mc.dom(f)
        result = mc.compose(f, g)
    else:
        assert kind == "tensor"
        result = mc.tensor_mor(f, g)
    assert not table[result] >> lat.meet(i, j) & 1


def assert_laws_agree(mc):
    reduced, swept = restriction_composition_law(mc), \
        sweep_restriction_composition_law(mc)
    assert reduced.holds == swept.holds
    failure = restriction_meet_failure(mc)
    assert (failure is None) == (sweep_meet_failure(mc) is None)
    if failure is not None:
        assert reduced.witness == failure
        assert_witness_replays(mc, failure)


DIFFERENTIAL_SOURCES = [(name, flavour) for name in gallery.names()
                        for flavour in (None, "finite", "directed", "all")
                        if (name, flavour) not in {("m3", "finite"), ("m3", "all")}]


@pytest.mark.parametrize("name, flavour", DIFFERENTIAL_SOURCES)
def test_restriction_meet_law_matches_the_sweep(name, flavour):
    # m3 "finite" and "all" are left out: 2.05M pairs each, 40 s for the sweep
    assert_laws_agree(build_cached(name) if flavour is None
                      else completion_cached(name, flavour).category)


@settings(max_examples=40, deadline=None)
@given(thin_monoidal_preorders(), st.data())
def test_restriction_meet_law_matches_the_sweep_on_generated_categories(mc, data):
    assert_laws_agree(mc)
    flips = list(restriction_flips(mc))
    if flips:
        assert_laws_agree(with_restriction_table(mc, data.draw(st.sampled_from(flips))[1]))


def test_a_row_without_the_top_subunit_is_refused():
    # f = (id_I (x) B) o f restricts every morphism to the top, which the
    # reduction to composable and one-variable pairs relies on
    mc = completion_cached("q3", "all").category
    lat, table = subunit_semilattice(mc), restriction_table(mc)
    for f, row in enumerate(table):
        flipped = with_restriction_table(
            mc, table[:f] + (row & ~(1 << lat.top),) + table[f + 1:])
        with pytest.raises(ConsistencyError, match="top subunit") as err:
            restriction_composition_law(flipped)
        assert err.value.details == {"morphism": f}


class _Incidence:
    """Per morphism f0, the pairs (f, g) whose check in ``sweep_meet_failure``
    reads the row of f0: f0 is f, g, f o g or f (x) g."""

    def __init__(self, mc):
        n = range(len(mc.objects))
        self.mc = mc
        self.into = {}
        for p, q in itertools.product(n, n):
            self.into.setdefault(mc.tensor_obj(p, q), []).append((p, q))

    @functools.cache
    def pairs(self, f0):
        mc, a, c = self.mc, self.mc.dom(f0), self.mc.cod(f0)
        out = set()
        for h in range(len(mc.morphisms)):
            out |= {(f0, h), (h, f0)}
        for b in range(len(mc.objects)):
            out |= {(f, g) for g in mc.hom(a, b) for f in mc.hom(b, c)
                    if mc.compose(f, g) == f0}
        for (p, q), (r, t) in itertools.product(self.into.get(a, ()),
                                                self.into.get(c, ())):
            out |= {(f, g) for f in mc.hom(p, r) for g in mc.hom(q, t)
                    if mc.tensor_mor(f, g) == f0}
        return sorted(out)


@pytest.mark.parametrize("name", ["b2", "c3", "q3", "boolean2x2"])
def test_every_flipped_restriction_bit_is_decided_as_the_sweep_decides(name):
    # The unflipped table passes the whole sweep, and flipping row f0
    # changes only the checks that read it, so on a flipped table the
    # sweep over the pairs incident to f0 has the verdict of the sweep
    # over every pair.  Every reduced witness replays on its table.
    mc = completion_cached(name, "all").category
    assert sweep_meet_failure(mc) is None
    incidence = _Incidence(mc)
    rejected = 0
    for f0, table in restriction_flips(mc):
        flipped = with_restriction_table(mc, table)
        failure = restriction_meet_failure(flipped)
        swept = sweep_meet_failure(flipped, incidence.pairs(f0))
        assert (failure is None) == (swept is None), (f0, table[f0])
        if failure is not None:
            rejected += 1
            assert_witness_replays(flipped, failure)
            assert restriction_composition_law(flipped).witness == failure
    assert rejected


def test_composition_with_identity_subunit(q3):
    # g restricting to the top and f to s makes f o g restrict to s
    lat = subunit_semilattice(q3)
    subs = lat.subunits
    for f in q3.morphisms:
        for g in q3.morphisms:
            if g.cod != f.dom:
                continue
            for i in restricting_subunits(q3, f.mid):
                comp = q3.compose(f.mid, g.mid)
                assert restricts_to(q3, comp, subs[i]) is not None \
                    or restricts_to(q3, g.mid, subs[lat.top]) is None


# ---------------------------------------------------------------------------
# the naturality sweeps over one-variable pairs against every pair


def _verdict(result):
    """An ``outcome`` without the witness pair a message may end with:
    the reduced sweep can meet a failing square at another pair first.
    A mistyped comparison map leaves some composite undefined, and which
    lookup fails first depends on the pair order too, so a ``KeyError``
    keeps only its kind."""
    if result[0] == "KeyError":
        return result[:1]
    if result[0] == "value":
        return result
    return result[0], re.sub(r" \(\d+, \d+\)$", "", result[1])


def _both_sweeps(check, *args):
    reduced = _verdict(outcome(check, *args))
    with all_pair_sweeps():
        return reduced, _verdict(outcome(check, *args))


def _corruptions(table, mids):
    """Each copy of ``table``, a dict or a tuple, with one entry set to
    another of ``mids``."""
    is_dict = isinstance(table, dict)
    for key in list(table) if is_dict else range(len(table)):
        for wrong in mids:
            if wrong != table[key]:
                bad = dict(table) if is_dict else list(table)
                bad[key] = wrong
                yield bad if is_dict else tuple(bad)


def _naturality_sweeps_agree(mc) -> set:
    """Corrupt every single entry of each subunit's comonad data, of its
    coreflector comparisons and of the identity functor's morphism map,
    and check that every check rejects exactly what it rejects when its
    naturality sweep walks every pair; return the rejections seen."""
    mids = [m.mid for m in mc.morphisms]
    seen = set()

    def agree(check, *args):
        reduced, full = _both_sweeps(check, *args)
        assert reduced == full, (check, args)
        seen.add(reduced)

    for s in enumerate_subunits(mc):
        data = restriction_comonad(mc, s)
        for name in ("phi", "delta", "counit", "mor_map"):
            table = getattr(data, name)
            for bad in _corruptions(table, mids):
                agree(check_restriction_comonad,
                      dataclasses.replace(data, **{name: bad}))
        comparisons = coreflector_comparisons(mc, s)
        for bad in _corruptions(comparisons, mids):
            agree(sweep_coreflector_monoidal, mc, s, bad)
    ident = identity_functor(mc)
    for bad in _corruptions(ident.mor_map, mids):
        agree(CatFunctor(mc, mc, ident.obj_map, bad).check_strict_monoidal)
    return seen


@pytest.mark.parametrize("name, reached", [
    ("z2", ("ConsistencyError", "coreflector comparison not natural")),
    ("monoid_idem", ("BuildError", "functor breaks the tensor at morphisms"))])
def test_naturality_sweeps_agree_with_every_pair(name, reached):
    # the one-object entry, its completion (two objects, one hom-set of
    # two morphisms) and its product with b2 (two morphisms 0 -> 1,
    # where a corrupted square can fail)
    mc = build_cached(name)
    completion = completion_cached(name, "all")
    seen = set()
    for cat in (mc, completion.category, product_category(build_cached("b2"), mc)):
        seen |= _naturality_sweeps_agree(cat)
    emb = completion.embedding
    for bad in _corruptions(emb.mor_map, range(len(emb.target.morphisms))):
        reduced, full = _both_sweeps(
            CatFunctor(mc, emb.target, emb.obj_map, bad).check_strict_monoidal)
        assert reduced == full
    # some corruption passes every earlier check and fails a swept
    # square; coherence_naturality is never reached, since coherence_counit
    # fixes phi wherever the counit is monic
    assert reached in seen


@settings(max_examples=40, deadline=None)
@given(commutative_monoids())
def test_naturality_sweeps_agree_with_every_pair_on_monoids(monoid):
    mc = from_commutative_monoid(monoid)
    for cat in (mc, broad_category(mc, "all").category,
                product_category(build_cached("b2"), mc)):
        _naturality_sweeps_agree(cat)


@pytest.mark.parametrize("name", ["z2", "monoid_idem"])
def test_mistyped_comonad_components_are_refused(name):
    # every counit or delta component set to another morphism, on the
    # one-object entry and its completions (two objects in "all"): the
    # checker types each component before a law composes it
    cats = [build_cached(name)] + [completion_cached(name, flavour).category
                                   for flavour in ("finite", "directed", "all")]
    for mc in cats:
        mids = [m.mid for m in mc.morphisms]
        for s in enumerate_subunits(mc):
            data = restriction_comonad(mc, s)
            for field in ("delta", "counit"):
                for bad in _corruptions(getattr(data, field), mids):
                    with pytest.raises(BuildError):
                        check_restriction_comonad(
                            dataclasses.replace(data, **{field: bad}))


@pytest.mark.parametrize("side", (0, 1))
def test_comparisons_natural_in_one_variable_only_are_rejected(side):
    # in b2 x z2 the comparisons of the unit subunit are identities; swap
    # them by the central z2 element at the pairs whose first (or second)
    # object is the top: every square in the other variable still commutes
    mc = product_category(build_cached("b2"), build_cached("z2"))
    s = next(s for s in enumerate_subunits(mc) if s.domain == mc.unit)
    swap = [next(m for m in mc.hom(o, o) if m != mc.identity(o))
            for o in range(len(mc.objects))]
    comparisons = {key: swap[mc.tensor_obj(*key)] if key[side] == mc.unit else comp
                   for key, comp in coreflector_comparisons(mc, s).items()}
    reduced, full = _both_sweeps(sweep_coreflector_monoidal, mc, s, comparisons)
    assert reduced == full == ("ConsistencyError", "coreflector comparison not natural")


# ---------------------------------------------------------------------------
# the thin branches against the generic sweeps


THIN_GALLERY = [name for name in gallery.names() if build_cached(name).is_thin()]


def _full_outcome(call, *args):
    """``outcome`` with the witness an error carries (a ConsistencyError's
    details, a BuildError's report), so two routes must also fail at the
    same place."""
    try:
        return "value", call(*args)
    except (TtwError, KeyError, IndexError) as exc:
        return (type(exc).__name__, str(exc),
                getattr(exc, "details", getattr(exc, "report", None)))


def _restriction_tables(mc, s):
    """Every table ``restriction_category(mc, s)`` returns, looked up on
    the module, so that ``generic_hierarchy_sweeps`` tabulates the top
    subunit's restriction."""
    return _result_tables(ttw.restriction.restriction_category(mc, s))


def _result_tables(result):
    """Every table of a ``RestrictionResult``."""
    sub = result.subcategory
    return (sub.objects, sub.morphisms, sub.cat.identity, explicit_compose(sub),
            sub.unit, sub.mon.tensor_obj, sub.mon.braiding, result.inclusion.obj_map,
            result.inclusion.mor_map, result.coreflector.obj_map,
            result.coreflector.mor_map, result.counit)


def _restriction_checks(mc) -> list:
    subs = enumerate_subunits(mc)
    return ([_full_outcome(_restriction_tables, mc, s) for s in subs]
            + [_full_outcome(verify_comonad_bijection, mc)]
            + [_full_outcome(lambda s: frobenius_law_holds(restriction_comonad(mc, s)), s)
               for s in subs])


def assert_thin_route_matches_sweeps(mc):
    assert mc.is_thin()
    thin = _restriction_checks(mc)
    with generic_hierarchy_sweeps():
        assert not mc.is_thin()
        assert _restriction_checks(mc) == thin


@pytest.mark.parametrize("name", THIN_GALLERY)
def test_thin_restriction_checks_match_the_sweeps(name):
    assert_thin_route_matches_sweeps(build_cached(name))
    for flavour in ("finite", "directed", "all"):
        if (name, flavour) not in SWEEPS_TOO_SLOW:
            assert_thin_route_matches_sweeps(completion_cached(name, flavour).category)


@settings(max_examples=40, deadline=None)
@given(closure_lattices())
def test_thin_restriction_checks_match_the_sweeps_on_closure_lattices(poset):
    assert_thin_route_matches_sweeps(from_semilattice(Semilattice.from_poset(poset)))


@settings(max_examples=60, deadline=None)
@given(thin_monoidal_preorders())
def test_thin_restriction_checks_match_the_sweeps_on_preorders(mc):
    assert_thin_route_matches_sweeps(mc)


@pytest.mark.parametrize("name", THIN_GALLERY)
def test_both_routes_reject_every_corrupted_entry(name):
    # a thin hom-set holds at most one morphism, so an entry set to
    # another morphism is mistyped: the thin route names a typing law
    # (or a comparison that is not invertible), and the sweeps fail too
    mc = build_cached(name)
    mids = [m.mid for m in mc.morphisms]
    comonads, comparisons = [], []
    for s in enumerate_subunits(mc):
        data = restriction_comonad(mc, s)
        for field in ("phi", "delta", "counit", "mor_map"):
            comonads += [dataclasses.replace(data, **{field: bad})
                         for bad in _corruptions(getattr(data, field), mids)]
        comparisons += [(s, bad) for bad in
                        _corruptions(coreflector_comparisons(mc, s), mids)]
    for data in comonads:
        kind, message = outcome(check_restriction_comonad, data)
        assert kind == "BuildError" and "typing" in message, message
    for s, bad in comparisons:
        assert outcome(sweep_coreflector_monoidal, mc, s, bad) in (
            ("ConsistencyError", "coreflector comparison map is not invertible"),
            ("ConsistencyError", "coreflector comparison map is mistyped"))
    with generic_hierarchy_sweeps():
        for data in comonads:
            assert outcome(check_restriction_comonad, data)[0] != "value"
        for s, bad in comparisons:
            assert outcome(sweep_coreflector_monoidal, mc, s, bad)[0] != "value"


def test_thin_route_rejects_a_comultiplication_without_inverse():
    # on the chain 0 <= m <= 1 of c3, F moves each object one step up
    # (1 stays): a functor with delta: F(a) -> FF(a) typed, but at 0 that
    # is m -> 1, which has no inverse; no counit F(0) -> 0 exists either,
    # so the identities stand in for it
    mc = build_cached("c3")
    step = (1, 2, 2)
    n_obj = len(mc.objects)
    data = ComonadData(
        mc, step,
        tuple(mc.hom(step[m.dom], step[m.cod])[0] for m in mc.morphisms),
        tuple(mc.hom(step[a], step[step[a]])[0] for a in range(n_obj)),
        tuple(mc.identity(a) for a in range(n_obj)),
        {(a, b): mc.identity(a) for a in range(n_obj) for b in range(n_obj)})
    assert outcome(check_restriction_comonad, data) == \
        ("BuildError", "comonad law comultiplication_invertible fails")
    with generic_hierarchy_sweeps():
        assert outcome(check_restriction_comonad, data)[0] != "value"


# ---------------------------------------------------------------------------
# the unitality refusal before any table is built


def tabulated_restriction_report(mc, s):
    """``validate`` on the tables of the restriction to s, tabulated in
    full whether or not it is strictly unital: the oracle of the early
    refusal of ``restriction_category``."""
    keep = [a for a in range(len(mc.objects))
            if is_iso(mc, _tensor_right(mc, s.rep, a)) is not None]
    obj_index = {a: k for k, a in enumerate(keep)}
    mors = [m for m in mc.morphisms if m.dom in obj_index and m.cod in obj_index]
    mor_index = {m.mid: k for k, m in enumerate(mors)}
    cat = _tabulate([mc.obj_label(a) for a in keep],
                    [(obj_index[m.dom], obj_index[m.cod], m.label) for m in mors],
                    [mor_index[mc.identity(a)] for a in keep],
                    lambda g, f: mor_index[mc.compose(mors[g].mid, mors[f].mid)])
    sub = _tabulate_monoidal(
        cat, obj_index[s.domain],
        [[obj_index[mc.tensor_obj(a, b)] for b in keep] for a in keep],
        lambda f, g: mor_index[mc.tensor_mor(mors[f].mid, mors[g].mid)],
        lambda a, b: mor_index[mc.braiding(keep[a], keep[b])])
    return validate(sub.cat, sub.mon)


@pytest.mark.parametrize("name, refused", [
    ("c3", 3), ("q3", 2), ("boolean2x2", 5), ("m3", 9)])
def test_unitality_refusal_reports_what_validate_reports(name, refused):
    # the refusal reads S (x) A = A = A (x) S off the object tensor before
    # any table is built; validate on the full tables rejects the same
    # subunits, and on these inputs with the same violations and no other
    mc = completion_cached(name, "all").category
    seen = 0
    for s in enumerate_subunits(mc):
        full = tabulated_restriction_report(mc, s)
        try:
            restriction_category(mc, s)
        except BuildError as exc:
            assert str(exc) == (
                "restriction of this category is not strictly unital at "
                f"{mc.obj_label(s.domain)}; only strict restrictions are supported")
            assert exc.report.laws() == {"strict_unit_obj"}
            assert exc.report == full
            seen += 1
        else:
            assert full.ok()
    assert seen == refused


def assert_refusals_match_the_full_report(mc):
    """At every subunit of ``mc``, ``restriction_category`` refuses
    exactly where ``validate`` on the fully tabulated restriction does,
    with the same text, and that report lists unit laws only.  The
    refusal's report equals validate's violations of the first unit law
    that fails: strict_unit_obj, read before any table is built, and
    otherwise strict_unit_mor.  Returns the number of refusals."""
    refused = 0
    for s in enumerate_subunits(mc):
        full = tabulated_restriction_report(mc, s)
        assert full.laws() <= {"strict_unit_obj", "strict_unit_mor"}
        try:
            restriction_category(mc, s)
        except BuildError as exc:
            assert str(exc) == (
                "restriction of this category is not strictly unital at "
                f"{mc.obj_label(s.domain)}; only strict restrictions are supported")
            law = min(full.laws(), key=["strict_unit_obj", "strict_unit_mor"].index)
            assert exc.report.violations == [v for v in full.violations if v.law == law]
            refused += 1
        else:
            assert full.ok()
    return refused


@pytest.mark.parametrize("name, flavour", [(name, None) for name in THIN_GALLERY] + [
    ("b2", "finite"), ("b2", "directed"), ("b2", "all")])
def test_unit_checks_match_validate_on_products_with_z2(name, flavour):
    # off thin categories the refusal checks the unit on objects, then on
    # morphisms, and validates nothing; the products of the b2
    # completions with z2 refuse two subunits each, on objects
    left = build_cached(name) if flavour is None \
        else completion_cached(name, flavour).category
    mc = product_category(left, build_cached("z2"))
    assert not mc.is_thin()
    assert assert_refusals_match_the_full_report(mc) == (0 if flavour is None else 2)


def test_unit_check_on_morphisms_reports_what_validate_reports():
    # z2 x b2 restricted to s = (1, 0 -> 1) keeps the object (*, 0) and
    # its two automorphisms, mids 0 and 3 there and 0 and 1 in the
    # restriction; redirecting id_S (x) (g, id_0) to id_S leaves every
    # table typed and unital on objects but not on morphisms.  The
    # ambient is no longer lawful, so validate on the restriction lists
    # more than the unit law; the refusal lists its strict_unit_mor part
    mc = product_category(build_cached("z2"), build_cached("b2"))
    s = next(s for s in enumerate_subunits(mc) if s.rep != mc.identity(mc.unit))
    id_s = mc.identity(s.domain)
    twist = next(f for f in mc.hom(s.domain, s.domain) if f != id_s)
    bad = MonoidalCategory(mc.cat, dataclasses.replace(
        mc.mon, tensor_mor=mc.mon.tensor_mor | {(id_s, twist): id_s}))
    full = tabulated_restriction_report(bad, s)
    with pytest.raises(BuildError, match="not strictly unital") as exc:
        restriction_category(bad, s)
    assert exc.value.report.violations == [
        v for v in full.violations if v.law == "strict_unit_mor"] != []
