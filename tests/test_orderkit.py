from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (closure_lattices, filtered_directed_downsets, max_monoid,
                      maximal, null_monoid, scan_covers, scan_is_directed,
                      scan_is_preframe, scan_join, scan_meet, shuffled_posets)
from ttw import orderkit
from ttw.caps import Caps
from ttw.errors import BuildError, CapExceededError
from ttw.gallery import (b2_semilattice, boolean2x2_semilattice, c3_semilattice,
                         m3_semilattice, q3_quantale, zero_one_monoid)
from ttw.orderkit import (FinMonoid, FinPoset, Quantale, Semilattice,
                          directed_downsets, downsets, finitely_bounded_downsets,
                          ideal_quantale, is_distributive, is_frame,
                          is_frame_exhaustive, is_preframe, poset_isomorphism,
                          quantale_subunits)


def antichain_with_top(width=2):
    # no two atoms have a meet, so this is a poset but not a semilattice
    atoms = [chr(ord("a") + i) for i in range(width)]
    return FinPoset.from_pairs(atoms + ["1"], [(x, "1") for x in atoms])


def test_poset_laws_rejected():
    with pytest.raises(BuildError):
        FinPoset(("x", "y"), ((True, True), (True, True)))  # not antisymmetric


def test_downsets_b2():
    dl = downsets(b2_semilattice())
    assert [sorted(s) for s in dl.sets] == [[], [0], [0, 1]]
    assert dl.poset.elements == ("{}", "{0}", "{0,1}")


def test_downsets_antichain_with_top():
    # subset enumeration: downward closed subsets of a < 1 > b
    base = antichain_with_top()
    dl = downsets(base)
    assert len(dl.sets) == 5
    brute = [frozenset(s)
             for size in range(4)
             for s in itertools.combinations(range(3), size)
             if base.is_downset(s)] + [frozenset(range(3))]
    assert set(dl.sets) == set(brute)


def test_downsets_of_two_chain_is_three_chain():
    # the two-element subunit chain of an unbounded-multiplication quantale
    # completes to the three-element chain of downsets
    two = Semilattice.from_poset(FinPoset.chain(["0", "oo"]))
    dl = downsets(two)
    assert poset_isomorphism(dl.poset, FinPoset.chain(["x", "y", "z"])) is not None


def test_directed_downsets_b2():
    dl = directed_downsets(b2_semilattice())
    assert [sorted(s) for s in dl.sets] == [[], [0], [0, 1]]


def test_directed_downsets_exclude_empty():
    dl = directed_downsets(b2_semilattice(), include_empty=False)
    assert [sorted(s) for s in dl.sets] == [[0], [0, 1]]


def test_directed_downsets_three_chain():
    dl = directed_downsets(c3_semilattice())
    assert len(dl.sets) == 4  # empty plus the three principal downsets


def test_directed_downsets_of_boolean2x2_drop_the_join_free_pair():
    dl = directed_downsets(boolean2x2_semilattice())
    assert len(dl.sets) == 5
    assert frozenset((0, 1, 2)) not in dl.sets  # {0, a, b} has no top


def assert_same_downset_lattice(got, want):
    assert got.sets == want.sets
    assert got.poset.elements == want.poset.elements
    assert got.poset.leq == want.poset.leq
    assert got.embedding == want.embedding


@settings(max_examples=60, deadline=None)
@given(st.one_of(shuffled_posets(), closure_lattices()), st.booleans())
def test_directed_downsets_match_filtered_downsets(poset, include_empty):
    assert_same_downset_lattice(
        directed_downsets(poset, include_empty=include_empty),
        filtered_directed_downsets(poset, include_empty=include_empty))


@pytest.mark.parametrize("include_empty", [True, False])
@pytest.mark.parametrize("width", [2, 5])
def test_directed_downsets_of_antichain_with_top(width, include_empty):
    base = antichain_with_top(width)
    dl = directed_downsets(base, include_empty=include_empty)
    assert_same_downset_lattice(
        dl, filtered_directed_downsets(base, include_empty=include_empty))
    assert len(dl.sets) == width + 1 + include_empty


def test_directed_downsets_skip_the_full_downset_lattice(monkeypatch):
    # 2^8 + 1 downsets, of which the 9 principal ones and the empty one
    # are directed; only the 10 are built, and no frame check of all of
    # them runs
    def no_full_lattice(*args, **kwargs):
        raise AssertionError("the full downset lattice was built")

    monkeypatch.setattr(orderkit, "downsets", no_full_lattice)
    monkeypatch.setattr(orderkit, "is_frame", no_full_lattice)
    dl = directed_downsets(antichain_with_top(8))
    assert len(dl.sets) == 10
    assert dl.sets[0] == frozenset() and dl.sets[-1] == frozenset(range(9))


def test_directed_downsets_of_a_chain_beyond_the_downset_cap():
    # 17 elements pass no max_downset_base (16) check, and only the 17
    # principal downsets and the empty one are built; the downsets of
    # the same chain are still refused by that cap
    chain = FinPoset.chain([f"x{i}" for i in range(17)])
    dl = directed_downsets(chain)
    assert len(dl.sets) == 18
    assert dl.sets[-1] == frozenset(range(17))
    with pytest.raises(CapExceededError) as exc:
        downsets(chain)
    assert (exc.value.cap_name, exc.value.limit, exc.value.actual) == \
        ("max_downset_base", 16, 17)


def test_finitely_bounded_is_everything_on_finite_posets():
    for lat in (b2_semilattice(), m3_semilattice(), antichain_with_top()):
        assert finitely_bounded_downsets(lat).sets == downsets(lat).sets
        # and every downset really is generated by its maximal elements
        dl = downsets(lat)
        base = dl.base
        for s in dl.sets:
            assert base.down_closure(maximal(base, s)) == s


def test_downsets_form_frame_and_embedding_preserves_meets():
    for lat in (b2_semilattice(), c3_semilattice(), boolean2x2_semilattice(),
                m3_semilattice()):
        dl = downsets(lat)
        assert is_frame(dl.poset)
        n = len(lat)
        for i in range(n):
            for j in range(n):
                meet_then_embed = dl.embedding[lat.meet(i, j)]
                embedded_meet = dl.poset.meet((dl.embedding[i], dl.embedding[j]))
                assert meet_then_embed == embedded_meet
        assert dl.sets[dl.embedding[lat.top]] == frozenset(range(n))
    assert is_frame(downsets(antichain_with_top()).poset)


def test_quantale_subunits_q3():
    lat = quantale_subunits(q3_quantale())
    assert lat.elements == ("0", "1")


def test_quantale_subunits_of_frame_is_whole_frame():
    q = Quantale.from_semilattice(boolean2x2_semilattice())
    lat = quantale_subunits(q)
    assert lat.elements == ("0", "a", "b", "1")
    assert poset_isomorphism(lat.poset, boolean2x2_semilattice().poset) is not None


def test_ideal_quantale_of_zero_one_monoid():
    q = ideal_quantale(zero_one_monoid())
    assert q.elements == ("{}", "{0}", "{0,1}")
    lat = quantale_subunits(q)
    # all three ideals are idempotent below the unit
    assert len(lat) == 3


def test_ideal_quantale_rejects_noncommutative():
    # two-element left-zero semigroup adjoined a unit is not commutative
    mult = ((0, 1, 2), (1, 1, 1), (2, 2, 2))
    monoid = FinMonoid(("1", "x", "y"), mult, 0)
    assert not monoid.is_commutative()
    with pytest.raises(BuildError):
        ideal_quantale(monoid)


def test_ideal_quantale_caps_the_ideal_count():
    # the null monoid {1, 0, z0..z5} has the ideals {}, the whole monoid
    # and {0} with any set of the z: 66 in all
    assert len(ideal_quantale(null_monoid(6), caps=Caps(max_objects=66))) == 66
    with pytest.raises(CapExceededError) as exc:
        ideal_quantale(null_monoid(6), caps=Caps(max_objects=10))
    assert (exc.value.cap_name, exc.value.limit) == ("max_objects", 10)
    with pytest.raises(CapExceededError) as exc:
        ideal_quantale(null_monoid(10))
    assert exc.value.cap_name == "max_objects"


def test_ideal_quantale_of_a_long_max_chain():
    q = ideal_quantale(max_monoid(24))
    assert len(q) == 25
    assert q.elements[1] == "{x23}"


def test_is_distributive():
    assert is_distributive(boolean2x2_semilattice())
    assert not is_distributive(m3_semilattice())
    assert is_distributive(c3_semilattice())


def test_is_frame():
    assert is_frame(boolean2x2_semilattice().poset)
    assert not is_frame(m3_semilattice().poset)
    assert is_frame(FinPoset.chain(["a", "b", "c", "d"]))
    assert not is_frame(antichain_with_top())  # no bottom


def test_is_preframe():
    # every bounded meet-semilattice is a preframe at finite scale
    assert is_preframe(c3_semilattice())
    assert is_preframe(m3_semilattice())
    # the antichain with top lacks binary meets, so it is no preframe
    assert not is_preframe(antichain_with_top())


@settings(max_examples=40, deadline=None)
@given(st.one_of(shuffled_posets(), closure_lattices(max_size=8),
                 st.just(antichain_with_top())))
def test_is_preframe_matches_the_directed_subset_scan(poset):
    # whether the empty subset counts as directed never changes the verdict
    expected = scan_is_preframe(poset, include_empty=True)
    assert scan_is_preframe(poset, include_empty=False) == expected
    assert is_preframe(poset) == expected


def test_finite_frame_iff_distributive_bounded_lattice():
    for lat in (b2_semilattice(), c3_semilattice(), boolean2x2_semilattice(),
                m3_semilattice()):
        poset = lat.poset
        expected = (poset.is_lattice() and is_distributive(lat))
        assert is_frame(poset) == expected
        # the two frame routes agree where the exhaustive one is feasible
        assert is_frame_exhaustive(poset) == is_frame(poset)


def test_quantale_law_rejection():
    poset = FinPoset.chain(["0", "eps", "1"])
    bad = ((0, 0, 0), (0, 1, 1), (0, 1, 2))  # eps.eps = eps but eps.1 = eps: fine
    # break associativity instead: eps.eps = 1
    worse = ((0, 0, 0), (0, 2, 1), (0, 1, 2))
    with pytest.raises(BuildError):
        Quantale(poset, worse, 2)
    Quantale(poset, bad, 2)  # lawful: a chain with idempotent eps


@st.composite
def small_posets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    elements = [f"e{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((elements[i], elements[j]))
    return FinPoset.from_pairs(elements, pairs)


@settings(max_examples=60, deadline=None)
@given(small_posets())
def test_downsets_always_frame(poset):
    dl = downsets(poset)
    assert is_frame(dl.poset)
    # downsets are closed under union and intersection
    for a in dl.sets:
        for b in dl.sets:
            assert (a | b) in dl.sets
            assert (a & b) in dl.sets


@settings(max_examples=60, deadline=None)
@given(small_posets())
def test_directed_downsets_are_empty_or_principal(poset):
    dl = directed_downsets(poset)
    for s in dl.sets:
        if s:
            maxima = maximal(poset, s)
            assert len(maxima) == 1
            assert poset.down_closure(maxima) == s
        else:
            assert s == frozenset()


# ---------------------------------------------------------------------------
# the mask-and-table kernel against scan oracles


def scan_is_lattice(poset):
    n = len(poset)
    return (n > 0 and scan_join(poset, ()) is not None
            and scan_meet(poset, ()) is not None
            and all(scan_join(poset, (i, j)) is not None
                    and scan_meet(poset, (i, j)) is not None
                    for i in range(n) for j in range(n)))


def scan_is_distributive(poset):
    n = len(poset)
    return scan_is_lattice(poset) and all(
        scan_meet(poset, (x, scan_join(poset, (y, z))))
        == scan_join(poset, (scan_meet(poset, (x, y)), scan_meet(poset, (x, z))))
        for x in range(n) for y in range(n) for z in range(n))


def scan_is_frame_exhaustive(poset):
    """The frame law over every subset, on the scan oracles."""
    if not scan_is_lattice(poset):
        return False
    n = len(poset)
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            sup = scan_join(poset, subset)
            for x in range(n):
                distributed = scan_join(poset, [scan_meet(poset, (x, s)) for s in subset])
                if scan_meet(poset, (x, sup)) != distributed:
                    return False
    return True


def brute_downsets(poset):
    """Every subset closed downward under ``leq``, in the documented order."""
    n = len(poset)
    subsets = [frozenset(i for i in range(n) if bits >> i & 1) for bits in range(1 << n)]
    found = [s for s in subsets
             if all(i in s for j in s for i in range(n) if poset.leq[i][j])]
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def scan_order_error(elements, leq):
    """The message of the first order law broken, checked in (i, j, k)
    order, or None for a lawful matrix."""
    n = len(elements)
    for i in range(n):
        if not leq[i][i]:
            return f"leq not reflexive at {elements[i]}"
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return f"leq not antisymmetric on {elements[i]}, {elements[j]}"
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    return f"leq not transitive via {elements[j]}"
    return None


@st.composite
def closure_lattices(draw):
    """Intersection-closed families of subsets of {0, 1, 2} that hold the
    whole set, by inclusion, listed in a shuffled order: lattices, some of
    them not distributive."""
    family = {frozenset(range(3))}
    family |= set(draw(st.lists(st.frozensets(st.integers(0, 2)), max_size=6)))
    while True:
        closed = family | {a & b for a in family for b in family}
        if closed == family:
            break
        family = closed
    sets = draw(st.permutations(sorted(family, key=sorted)))
    labels = ["s" + "".join(map(str, sorted(s))) for s in sets]
    return FinPoset.from_pairs(labels, [(labels[i], labels[j])
                                        for i, a in enumerate(sets)
                                        for j, b in enumerate(sets) if a < b])


any_posets = st.one_of(shuffled_posets(), closure_lattices())


@settings(max_examples=80, deadline=None)
@given(any_posets, st.data())
def test_joins_and_meets_match_scan(poset, data):
    n = len(poset)
    assert poset.bottom() == scan_join(poset, ())
    assert poset.top() == scan_meet(poset, ())
    for i in range(n):
        for j in range(n):
            assert poset.join_table[i][j] == scan_join(poset, (i, j)) == poset.join((i, j))
            assert poset.meet_table[i][j] == scan_meet(poset, (i, j)) == poset.meet((i, j))
    subset = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    assert poset.join(subset) == scan_join(poset, subset)
    assert poset.meet(subset) == scan_meet(poset, subset)


@settings(max_examples=80, deadline=None)
@given(any_posets, st.data())
def test_is_directed_matches_pairwise_scan(poset, data):
    n = len(poset)
    subsets = [data.draw(st.sets(st.integers(0, n - 1))) for _ in range(4)]
    subsets += [(), range(n), maximal(poset, range(n))]
    for subset in subsets:
        for include_empty in (False, True):
            assert poset.is_directed(subset, include_empty=include_empty) == \
                scan_is_directed(poset, list(subset), include_empty)


@settings(max_examples=80, deadline=None)
@given(any_posets)
def test_lattice_and_distributivity_match_scan(poset):
    assert poset.is_lattice() == scan_is_lattice(poset)
    assert is_distributive(poset) == scan_is_distributive(poset)


@settings(max_examples=80, deadline=None)
@given(st.one_of(any_posets, shuffled_posets(max_size=3).map(lambda p: downsets(p).poset)))
def test_covers_match_the_triple_scan(poset):
    assert poset.covers() == scan_covers(poset)


@settings(max_examples=40, deadline=None)
@given(st.one_of(closure_lattices(),
                 shuffled_posets(max_size=3).map(lambda p: downsets(p).poset)))
def test_is_frame_matches_exhaustive_scan(poset):
    assert is_frame(poset) == scan_is_frame_exhaustive(poset)


@settings(max_examples=60, deadline=None)
@given(shuffled_posets())
def test_downsets_match_brute_force(poset):
    dl = downsets(poset)
    want = brute_downsets(poset)
    assert list(dl.sets) == want
    assert dl.poset.elements == tuple(
        "{" + ",".join(poset.elements[i] for i in sorted(s)) + "}" if s else "{}"
        for s in want)
    assert dl.poset.leq == tuple(tuple(a <= b for b in want) for a in want)
    n = len(poset)
    assert dl.embedding == tuple(
        want.index(frozenset(i for i in range(n) if poset.leq[i][j])) for j in range(n))


@st.composite
def leq_matrices(draw):
    """Square boolean matrices near a partial order: the diagonal is
    mostly set and most pairs are related one way or not at all."""
    n = draw(st.integers(min_value=1, max_value=5))
    leq = [[False] * n for _ in range(n)]
    for i in range(n):
        leq[i][i] = draw(st.integers(0, 9)) > 0
        for j in range(i + 1, n):
            way = draw(st.sampled_from(["", "", "<", ">", "<", ">", "<>"]))
            leq[i][j], leq[j][i] = "<" in way, ">" in way
    return tuple(f"e{i}" for i in range(n)), tuple(map(tuple, leq))


@settings(max_examples=150, deadline=None)
@given(leq_matrices())
def test_malformed_leq_raises_the_scan_order_message(case):
    elements, leq = case
    want = scan_order_error(elements, leq)
    if want is None:
        FinPoset(elements, leq)
    else:
        with pytest.raises(BuildError) as exc:
            FinPoset(elements, leq)
        assert str(exc.value) == want
