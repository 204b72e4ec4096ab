"""Builtin example gallery.

Every entry carries a JSON document (the same shape the CLI parses), a
builder, and the documented expected outputs the acceptance suite pins.
The categories:

  b2           Boolean frame 0 <= 1 under meet
  c3           three-element chain 0 <= m <= 1 under meet
  boolean2x2   the 2x2 Boolean lattice {0, a, b, 1} under meet
  m3           the diamond lattice {0, a, b, c, 1}, not distributive
  q3           the quantale 0 <= eps <= 1 with eps.eps = 0
  monoid_idem  one object on the monoid {1, a}, a.a = a
  z2           one object on the group {1, g}, g.g = 1
  ideal2       the ideal quantale of the monoid {1, 0}
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .fincat import MonoidalCategory, from_commutative_monoid, from_quantale, from_semilattice
from .orderkit import FinMonoid, FinPoset, Quantale, Semilattice, ideal_quantale


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    document: dict
    build: Callable[[], MonoidalCategory]
    # domains of the expected subunits, as object labels, bottom-up
    expected_subunits: tuple[str, ...]
    expected_locale_based: bool
    quantale: Callable[[], Quantale] | None = None


def _semilattice(elements, pairs) -> Semilattice:
    return Semilattice.from_poset(FinPoset.from_pairs(elements, pairs))


def b2_semilattice() -> Semilattice:
    return _semilattice(["0", "1"], [("0", "1")])


def c3_semilattice() -> Semilattice:
    return _semilattice(["0", "m", "1"], [("0", "m"), ("m", "1")])


def boolean2x2_semilattice() -> Semilattice:
    return _semilattice(["0", "a", "b", "1"],
                        [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


def m3_semilattice() -> Semilattice:
    return _semilattice(["0", "a", "b", "c", "1"],
                        [("0", "a"), ("0", "b"), ("0", "c"),
                         ("a", "1"), ("b", "1"), ("c", "1")])


def q3_quantale() -> Quantale:
    poset = FinPoset.chain(["0", "eps", "1"])
    # multiplication: unit 1, eps.eps = 0, zero absorbs
    mult = ((0, 0, 0),
            (0, 0, 1),
            (0, 1, 2))
    return Quantale(poset, mult, 2)


def idem_monoid() -> FinMonoid:
    return FinMonoid(("1", "a"), ((0, 1), (1, 1)), 0)


def z2_monoid() -> FinMonoid:
    return FinMonoid(("1", "g"), ((0, 1), (1, 0)), 0)


def zero_one_monoid() -> FinMonoid:
    return FinMonoid(("1", "0"), ((0, 1), (1, 1)), 0)


def _semilattice_doc(name, elements, pairs, top) -> dict:
    return {"kind": "semilattice", "name": name, "elements": list(elements),
            "leq": [list(p) for p in pairs], "top": top}


def _monoid_doc(kind, name, elements, table, unit) -> dict:
    return {"kind": kind, "name": name, "elements": list(elements),
            "mult": [list(row) for row in table], "unit": unit}


# mult is a full matrix of labels: row x, column y holds x.y
_Q3_DOC = {
    "kind": "quantale", "name": "q3",
    "elements": ["0", "eps", "1"],
    "leq": [["0", "eps"], ["eps", "1"]],
    "mult": [["0", "0", "0"],
             ["0", "0", "eps"],
             ["0", "eps", "1"]],
    "unit": "1",
}

GALLERY: dict[str, GalleryEntry] = {}


def _register(entry: GalleryEntry) -> None:
    GALLERY[entry.name] = entry


_register(GalleryEntry(
    "b2",
    _semilattice_doc("b2", ["0", "1"], [("0", "1")], "1"),
    lambda: from_semilattice(b2_semilattice()),
    ("0", "1"), True,
    quantale=lambda: Quantale.from_semilattice(b2_semilattice())))

_register(GalleryEntry(
    "c3",
    _semilattice_doc("c3", ["0", "m", "1"], [("0", "m"), ("m", "1")], "1"),
    lambda: from_semilattice(c3_semilattice()),
    ("0", "m", "1"), True,
    quantale=lambda: Quantale.from_semilattice(c3_semilattice())))

_register(GalleryEntry(
    "boolean2x2",
    _semilattice_doc("boolean2x2", ["0", "a", "b", "1"],
                     [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")], "1"),
    lambda: from_semilattice(boolean2x2_semilattice()),
    ("0", "a", "b", "1"), True,
    quantale=lambda: Quantale.from_semilattice(boolean2x2_semilattice())))

_register(GalleryEntry(
    "m3",
    _semilattice_doc("m3", ["0", "a", "b", "c", "1"],
                     [("0", "a"), ("0", "b"), ("0", "c"),
                      ("a", "1"), ("b", "1"), ("c", "1")], "1"),
    lambda: from_semilattice(m3_semilattice()),
    # the diamond is not distributive, so its meet does not distribute
    # over joins and it is not a quantale
    ("0", "a", "b", "c", "1"), False))

_register(GalleryEntry(
    "q3", _Q3_DOC,
    lambda: from_quantale(q3_quantale()),
    ("0", "1"), True,
    quantale=q3_quantale))

_register(GalleryEntry(
    "monoid_idem",
    _monoid_doc("monoid", "monoid_idem", ["1", "a"], [["1", "a"], ["a", "a"]], "1"),
    lambda: from_commutative_monoid(idem_monoid()),
    ("*",), False))

_register(GalleryEntry(
    "z2",
    _monoid_doc("monoid", "z2", ["1", "g"], [["1", "g"], ["g", "1"]], "1"),
    lambda: from_commutative_monoid(z2_monoid()),
    ("*",), False))

_register(GalleryEntry(
    "ideal2",
    _monoid_doc("monoid_ideals", "ideal2", ["1", "0"],
                [["1", "0"], ["0", "0"]], "1"),
    lambda: from_commutative_monoid(zero_one_monoid(), mode="ideal_quantale"),
    ("{}", "{0}", "{0,1}"), True,
    quantale=lambda: ideal_quantale(zero_one_monoid())))


def names() -> list[str]:
    return sorted(GALLERY)


def build(name: str) -> MonoidalCategory:
    return GALLERY[name].build()
