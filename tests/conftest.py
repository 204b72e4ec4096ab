from __future__ import annotations

import itertools

import pytest
from hypothesis import strategies as st

from ttw import gallery
from ttw.fincat import from_semilattice
from ttw.orderkit import FinPoset, Semilattice

_CACHE: dict[str, object] = {}


def build_cached(name: str):
    if name not in _CACHE:
        _CACHE[name] = gallery.build(name)
    return _CACHE[name]


@pytest.fixture(params=gallery.names())
def gallery_category(request):
    return request.param, build_cached(request.param)


@pytest.fixture
def b2():
    return build_cached("b2")


@pytest.fixture
def c3():
    return build_cached("c3")


@pytest.fixture
def q3():
    return build_cached("q3")


@pytest.fixture
def boolean2x2():
    return build_cached("boolean2x2")


@pytest.fixture
def m3():
    return build_cached("m3")


@pytest.fixture
def z2():
    return build_cached("z2")


def boolean_category(atoms: int):
    """The thin category of the Boolean lattice on ``atoms`` atoms."""
    subsets = [frozenset(s) for r in range(atoms + 1)
               for s in itertools.combinations(range(atoms), r)]
    labels = ["{" + ",".join(map(str, sorted(s))) + "}" for s in subsets]
    pairs = [(labels[i], labels[j]) for i, a in enumerate(subsets)
             for j, b in enumerate(subsets) if a < b]
    return from_semilattice(Semilattice.from_poset(FinPoset.from_pairs(labels, pairs)))


def mor_by_label(mc, label):
    for m in mc.morphisms:
        if m.label == label:
            return m.mid
    raise KeyError(label)


def obj_by_label(mc, label):
    return mc.objects.index(label)


def subunit_by_domain(mc, subs, label):
    for s in subs:
        if mc.obj_label(s.domain) == label:
            return s
    raise KeyError(label)


# ---------------------------------------------------------------------------
# scan oracles for the order kernel: bounds by a scan over every element,
# using nothing of a FinPoset but its ``leq`` matrix


def scan_join(poset, subset):
    n = len(poset)
    ubs = [u for u in range(n) if all(poset.leq[i][u] for i in subset)]
    least = [u for u in ubs if all(poset.leq[u][v] for v in ubs)]
    return least[0] if least else None


def scan_meet(poset, subset):
    n = len(poset)
    lbs = [u for u in range(n) if all(poset.leq[u][i] for i in subset)]
    greatest = [u for u in lbs if all(poset.leq[v][u] for v in lbs)]
    return greatest[0] if greatest else None


@st.composite
def shuffled_posets(draw, max_size=7):
    """Random posets whose index order is not a linear extension: the
    order is drawn on ranks and the ranks are dealt to shuffled indices."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    at_rank = draw(st.permutations(range(n)))
    elements = [f"e{i}" for i in range(n)]
    pairs = [(elements[at_rank[i]], elements[at_rank[j]])
             for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    return FinPoset.from_pairs(elements, pairs)
