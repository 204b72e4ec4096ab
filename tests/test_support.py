from __future__ import annotations

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (boolean_category, build_cached, completion_cached, mor_by_label,
                      restriction_flips, scan_join, shuffled_posets,
                      with_restriction_table)
from ttw import gallery
from ttw.errors import BuildError, ConsistencyError
from ttw.orderkit import FinPoset, downsets
from ttw.restriction import restricting_subunits, restriction_meet_failure
from ttw.subunits import subunit_semilattice
from ttw.support import (_join_failure, canonical_support, canonical_support_datum,
                         support_datum_from_monotone, verify_support_laws)


def test_identity_of_unit_has_full_support(gallery_category):
    name, mc = gallery_category
    lat = subunit_semilattice(mc)
    result = canonical_support(mc, mc.identity(mc.unit), lat=lat)
    assert result.canonical == frozenset(range(len(lat)))
    assert result.supp == lat.top


def test_q3_counterexample(q3):
    lat = subunit_semilattice(q3)
    eps_arrow = mor_by_label(q3, "eps->1")
    zero_arrow = mor_by_label(q3, "0->1")
    supp_eps = canonical_support(q3, eps_arrow, lat=lat).supp
    assert q3.obj_label(lat.subunits[supp_eps].domain) == "1"
    tensor = q3.tensor_mor(eps_arrow, eps_arrow)
    assert tensor == zero_arrow
    supp_sq = canonical_support(q3, tensor, lat=lat).supp
    assert q3.obj_label(lat.subunits[supp_sq].domain) == "0"
    # supports multiply to 1 while the support of the square is 0
    assert lat.meet(supp_eps, supp_eps) != supp_sq


def test_thin_frame_support_is_meet_of_upper_subunits(boolean2x2):
    mc = boolean2x2
    lat = subunit_semilattice(mc)
    for x in range(len(mc.objects)):
        arrow = mc.hom(x, mc.unit)[0]
        # independent route: subunits whose domain lies above x
        above = [k for k, s in enumerate(lat.subunits)
                 if mc.hom(x, s.domain)]
        expected = lat.lattice.poset.meet(tuple(above))
        assert canonical_support(mc, arrow, lat=lat).supp == expected


def test_canonical_downset_is_downward_closed(gallery_category):
    name, mc = gallery_category
    lat = subunit_semilattice(mc)
    for m in mc.morphisms:
        result = canonical_support(mc, m.mid, lat=lat)
        for s in result.canonical:
            for t in range(len(lat)):
                if lat.leq(t, s):
                    assert t in result.canonical


def test_identity_datum_recovers_supp(boolean2x2):
    mc = boolean2x2
    lat = subunit_semilattice(mc)
    datum = support_datum_from_monotone(mc, lat.lattice.poset,
                                        range(len(lat)), lat=lat)
    for m in mc.morphisms:
        assert datum.value(m.mid) == canonical_support(mc, m.mid, lat=lat).supp
    assert verify_support_laws(mc, datum).holds


def test_downset_datum_recovers_canonical(q3):
    lat = subunit_semilattice(q3)
    datum, dl = canonical_support_datum(q3, lat=lat)
    for m in q3.morphisms:
        canonical = canonical_support(q3, m.mid, lat=lat).canonical
        assert dl.sets[datum.value(m.mid)] == canonical
    assert verify_support_laws(q3, datum).holds


def test_non_monotone_assignment_rejected(q3):
    lat = subunit_semilattice(q3)
    two = FinPoset.chain(["lo", "hi"])
    bad = [1, 0] if lat.leq(0, 1) else [0, 1]
    with pytest.raises(BuildError):
        support_datum_from_monotone(q3, two, bad, lat=lat)


def test_collapsed_chain_datum_valid(gallery_category):
    name, mc = gallery_category
    lat = subunit_semilattice(mc)
    two = FinPoset.chain(["lo", "hi"])
    bottom = lat.bottom()
    h = tuple(0 if (bottom is not None and i == bottom) else 1
              for i in range(len(lat)))
    datum = support_datum_from_monotone(mc, two, h, lat=lat)
    assert verify_support_laws(mc, datum).holds


def test_support_laws_on_gallery(gallery_category):
    name, mc = gallery_category
    lat = subunit_semilattice(mc)
    datum, _ = canonical_support_datum(mc, lat=lat)
    assert verify_support_laws(mc, datum).holds


@pytest.mark.parametrize("atoms", [3, 4])
def test_support_laws_on_boolean_lattices(atoms):
    # B3 has 20 downsets of subunits and B4 168: past any sweep over
    # families of downsets
    mc = boolean_category(atoms)
    datum, dl = canonical_support_datum(mc)
    assert len(dl.sets) == {3: 20, 4: 168}[atoms]
    assert verify_support_laws(mc, datum).holds


def test_supp_of_composites_and_tensors_bounded(gallery_category):
    name, mc = gallery_category
    lat = subunit_semilattice(mc)
    supp = {m.mid: canonical_support(mc, m.mid, lat=lat).supp
            for m in mc.morphisms}
    for f in mc.morphisms:
        for g in mc.morphisms:
            bound = lat.meet(supp[f.mid], supp[g.mid])
            if g.cod == f.dom:
                comp = mc.compose(f.mid, g.mid)
                assert lat.leq(supp[comp], bound)
            tens = mc.tensor_mor(f.mid, g.mid)
            assert lat.leq(supp[tens], bound)


def sweep_colax_failure(mc, datum):
    """The first pair (f, g), over every pair of morphisms, whose tensor's
    value is not below the meet of their values, or None: the oracle of
    the colax bound, which ``verify_support_laws`` reads off the
    restriction table."""
    target, values = datum.target, datum.values
    for f in mc.morphisms:
        for g in mc.morphisms:
            bound = target.meet((values[f.mid], values[g.mid]))
            if not target.leq(values[mc.tensor_mor(f.mid, g.mid)], bound):
                return f.mid, g.mid
    return None


@pytest.mark.parametrize("name, flavour", [
    *((name, None) for name in gallery.names()),
    ("c3", "all"), ("q3", "all"), ("boolean2x2", "all")])
def test_colax_bound_holds_wherever_the_support_laws_hold(name, flavour):
    mc = build_cached(name) if flavour is None else completion_cached(name, flavour).category
    for datum in gallery_datums(mc)[1]:
        assert verify_support_laws(mc, datum).holds
        assert sweep_colax_failure(mc, datum) is None


def test_a_table_breaking_the_meet_laws_raises_and_returns_no_verdict():
    mc = completion_cached("q3", "all").category
    reps = {s.rep for s in subunit_semilattice(mc).subunits}
    raised = 0
    for f, table in restriction_flips(mc):
        flipped = with_restriction_table(mc, table)
        if f in reps or restriction_meet_failure(flipped) is None:
            continue
        datum, _ = canonical_support_datum(flipped)
        with pytest.raises(ConsistencyError, match="meet laws") as err:
            verify_support_laws(flipped, datum)
        assert err.value.details == {"witness": restriction_meet_failure(flipped)}
        raised += 1
    assert raised


def test_restriction_preorder_functoriality():
    # where g restricts only to subunits f restricts to, f's value is
    # below g's, for the canonical and the collapsed-chain datum of every
    # gallery entry and its "all" completion: every pair of morphisms,
    # taken as every pair of their restricting sets and every value seen
    # with each set
    for name in gallery.names():
        for mc in (build_cached(name), completion_cached(name, "all").category):
            for datum in gallery_datums(mc)[1]:
                assert_preorder_functorial(mc, datum)


def assert_preorder_functorial(mc, datum):
    seen = {}
    for m in mc.morphisms:
        seen.setdefault(frozenset(restricting_subunits(mc, m.mid)),
                        set()).add(datum.value(m.mid))
    for set_f, values_f in seen.items():
        for set_g, values_g in seen.items():
            if set_g <= set_f:
                assert all(datum.target.leq(v, w) for v in values_f for w in values_g)


# ---------------------------------------------------------------------------
# join preservation: the bottom-and-pairs check against the full sweep

FULL_SWEEP_LIMIT = 12  # the max_subunit_family_base cap the sweep once had


def full_sweep_join_failure(dl, factor, target):
    """The first family of downsets, by size and then in ``combinations``
    order, whose union's image is not the join of its members' images."""
    n = len(dl.sets)
    for size in range(n + 1):
        for family in itertools.combinations(range(n), size):
            union = frozenset().union(*(dl.sets[k] for k in family))
            if factor[dl.sets.index(union)] != scan_join(
                    target, [factor[k] for k in family]):
                return family
    return None


def gallery_datums(mc):
    lat = subunit_semilattice(mc)
    canonical, _ = canonical_support_datum(mc, lat=lat)
    two = FinPoset.chain(["lo", "hi"])
    bottom = lat.bottom()
    collapsed = support_datum_from_monotone(
        mc, two, [0 if i == bottom else 1 for i in range(len(lat))], lat=lat)
    return lat, (canonical, collapsed)


def test_join_preservation_matches_full_sweep_on_gallery(gallery_category):
    name, mc = gallery_category
    lat, datums = gallery_datums(mc)
    dl = downsets(lat.lattice)
    assert len(dl.sets) <= FULL_SWEEP_LIMIT
    for datum in datums:
        factor = [scan_join(datum.target, [datum.on_subunits[s] for s in d])
                  for d in dl.sets]
        assert full_sweep_join_failure(dl, factor, datum.target) is None
        assert _join_failure(dl, factor, datum.target) is None
        assert verify_support_laws(mc, datum).holds


@st.composite
def factoring_maps(draw):
    """A map from the downsets of a small poset into another poset: the
    join of the images of a random map on elements where that join exists,
    arbitrary elsewhere, and sometimes one entry moved."""
    dl = downsets(draw(shuffled_posets(max_size=4)))
    assume(len(dl.sets) <= 10)
    target = draw(shuffled_posets(max_size=4))
    pick = st.integers(0, len(target) - 1)
    on_base = [draw(pick) for _ in dl.base.elements]
    factor = []
    for d in dl.sets:
        sup = scan_join(target, [on_base[i] for i in d])
        factor.append(draw(pick) if sup is None else sup)
    if draw(st.booleans()):
        factor[draw(st.integers(0, len(factor) - 1))] = draw(pick)
    return dl, factor, target


@settings(max_examples=100, deadline=None)
@given(factoring_maps())
def test_join_preservation_matches_full_sweep_on_generated_maps(case):
    dl, factor, target = case
    assert _join_failure(dl, factor, target) == full_sweep_join_failure(dl, factor, target)
