"""Downsets, monoid ideals, sieves on the unit and tensor ideals are
enumerated as unions of their principal members; these tests hold each
enumeration to the subset sweep it replaced, values and order alike.
The downset sweep is in test_orderkit."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from conftest import (brute_ideals, brute_sieves_on_unit, brute_tensor_ideals,
                      build_cached, commutative_monoids, completion_cached)
from ttw import gallery
from ttw.daycat import all_sieves_on_unit
from ttw.errors import CapExceededError
from ttw.orderkit import ideal_quantale
from ttw.restriction import tensor_ideals


@settings(max_examples=80, deadline=None)
@given(commutative_monoids())
def test_ideal_quantale_matches_subset_sweep(monoid):
    q = ideal_quantale(monoid)
    want = brute_ideals(monoid)
    assert q.elements == tuple(
        "{" + ",".join(sorted(monoid.elements[i] for i in s)) + "}" for s in want)
    assert q.mult == tuple(
        tuple(want.index(frozenset(monoid.mult[x][y] for x in a for y in b))
              for b in want) for a in want)
    assert want[q.unit] == frozenset(range(len(monoid.elements)))


def _outcome(enumerate_, mc):
    """The fields of each member listed, or the cap that stops the list."""
    try:
        return [vars(member) for member in enumerate_(mc)]
    except CapExceededError as exc:
        return (exc.cap_name, exc.limit, exc.actual)


@pytest.mark.parametrize("name", gallery.names())
def test_sieves_and_tensor_ideals_match_subset_sweeps(name):
    mc = build_cached(name)
    for cat in (mc, completion_cached(name, "all").category):
        assert _outcome(all_sieves_on_unit, cat) == _outcome(brute_sieves_on_unit, cat)
        assert _outcome(tensor_ideals, cat) == _outcome(brute_tensor_ideals, cat)
