"""Support of morphisms.

The subunits a morphism restricts to, read from the category's
``restriction_table``, determine its support.  The canonical support
lands in the downset lattice of the subunit semilattice: it sends f to
the set of subunits below every subunit f restricts to, and every other
support datum factors through it by joins.  When the subunits form a
lattice (always, at this finite scale), the single best subunit supp(f)
is the meet of the restricting set, equivalently the join of the
canonical downset.  A ``lat`` argument, where given, must be
``subunit_semilattice(mc)``.

A ``SupportDatum`` extends its monotone map by construction: each value
is the meet over the morphism's restriction mask.  Two of its laws follow
from that and are not swept over pairs of morphisms:

- functoriality for the restriction preorder on morphisms: a meet over a
  larger set is lower.  ``test_restriction_preorder_functoriality``
  keeps the sweep over every pair of morphisms as its oracle.
- colax monoidality, supp(f (x) g) <= supp(f) /\\ supp(g).  The row of
  f (x) g contains the rows of f and of g: the tensor law of
  restriction, which ``restriction.restriction_meet_failure`` decides
  on the composable and one-variable pairs, at the top subunit, which
  is in every row.  A meet over that larger set is below the values of
  f and of g, so below their meet.  ``tests/test_support.py`` keeps
  the sweep over every pair as its oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .caps import DEFAULT_CAPS, Caps
from .errors import BuildError, ConsistencyError
from .fincat import MonoidalCategory
from .orderkit import DownsetLattice, FinPoset, _bits, downsets
from .restriction import restriction_meet_failure, restriction_row, restriction_table
from .subunits import PropertyReport, SubunitSemilattice, subunit_semilattice


@dataclass(frozen=True)
class SupportResult:
    morphism: int
    canonical: frozenset[int]  # downset of subunit indices
    supp: int                  # subunit index


@dataclass(frozen=True, eq=False)
class SupportDatum:
    """A monotone assignment of lattice values to subunits, extended to
    every morphism as the meet over the subunits it restricts to."""

    mc: MonoidalCategory
    lat: SubunitSemilattice
    target: FinPoset
    on_subunits: tuple[int, ...]
    values: tuple[int, ...] = field(init=False)  # per morphism id

    def __post_init__(self):
        by_row: dict[int, int] = {}
        values = []
        for f, row in enumerate(restriction_table(self.mc)):
            if row not in by_row:
                meet = self.target.meet(tuple(self.on_subunits[s] for s in _bits(row)))
                if meet is None:
                    raise ConsistencyError("target lacks a needed meet",
                                           details={"morphism": f})
                by_row[row] = meet
            values.append(by_row[row])
        object.__setattr__(self, "values", tuple(values))

    def value(self, f: int) -> int:
        return self.values[f]


def canonical_support(mc: MonoidalCategory, f: int,
                      lat: SubunitSemilattice | None = None) -> SupportResult:
    """The canonical downset-valued support of one morphism, plus the
    single subunit supp(f); the two descriptions are cross-checked.

    Both depend on f only through its restriction row, so each row's pair
    is kept in ``mc.derived`` once found, and a single query still costs
    one row."""
    if lat is None:
        lat = subunit_semilattice(mc)
    row = restriction_row(mc, f)
    by_row = mc.derived.setdefault(canonical_support.__name__, {})
    if row not in by_row:
        by_row[row] = _canonical_support_of_row(lat, row, f)
    return SupportResult(f, *by_row[row])


def _canonical_support_of_row(lat: SubunitSemilattice, row: int,
                              f: int) -> tuple[frozenset[int], int]:
    """The canonical downset and supp of f, whose restriction row is
    ``row``: the downset is the AND of the down-masks of the restricting
    subunits."""
    restricting = list(_bits(row))
    if not restricting:
        raise ConsistencyError("morphism restricts to no subunit at all",
                               details={"morphism": f})
    below = (1 << len(lat)) - 1
    for t in restricting:
        below &= lat.lattice.poset.down[t]
    canonical = frozenset(_bits(below))
    supp = lat.lattice.poset.meet(tuple(restricting))
    if supp is None:
        raise ConsistencyError("restricting set has no meet",
                               details={"morphism": f})
    join_route = lat.lattice.poset.join(tuple(canonical))
    if join_route != supp:
        raise ConsistencyError(
            "meet of restricting subunits differs from join of the downset",
            details={"morphism": f, "meet": supp, "join": join_route})
    return canonical, supp


def support_datum_from_monotone(mc: MonoidalCategory, target: FinPoset,
                                on_subunits, lat: SubunitSemilattice | None = None
                                ) -> SupportDatum:
    """Extend a monotone map on subunits to a support datum.

    Rejects non-monotone input and targets that are not complete
    lattices; verifies that the extension agrees with the given map on
    subunit representatives.
    """
    if lat is None:
        lat = subunit_semilattice(mc)
    on_subunits = tuple(on_subunits)
    if len(on_subunits) != len(lat):
        raise BuildError("assignment length does not match the subunits")
    if not target.is_lattice():
        raise BuildError("support target is not a complete lattice")
    for i, j in itertools.product(range(len(lat)), repeat=2):
        if lat.leq(i, j) and not target.leq(on_subunits[i], on_subunits[j]):
            raise BuildError(f"assignment is not monotone on subunit pair ({i}, {j})")
    datum = SupportDatum(mc, lat, target, on_subunits)
    for k, s in enumerate(lat.subunits):
        if datum.value(s.rep) != on_subunits[k]:
            raise ConsistencyError(
                "extension disagrees with the assignment on a subunit",
                details={"subunit": k})
    return datum


def canonical_support_datum(mc: MonoidalCategory,
                            lat: SubunitSemilattice | None = None,
                            caps: Caps = DEFAULT_CAPS
                            ) -> tuple[SupportDatum, DownsetLattice]:
    """The initial support datum, valued in downsets of the subunits."""
    if lat is None:
        lat = subunit_semilattice(mc)
    dl = downsets(lat.lattice, caps=caps)
    return (support_datum_from_monotone(mc, dl.poset, dl.embedding, lat=lat), dl)


def verify_support_laws(mc: MonoidalCategory, datum: SupportDatum,
                        caps: Caps = DEFAULT_CAPS) -> PropertyReport:
    """The two derived laws of any support datum, plus initiality of the
    canonical one.

    Colax monoidality: the value of a tensor is below the meet of the
    values.  It holds by construction once the restriction table obeys
    ``restriction_meet_failure`` (module docstring), and a table that
    does not raises ``ConsistencyError`` with its witness.  Object
    factoring: the value of f is the meet of the values of the
    identities f factors through; on a thin category f: A -> B factors
    through exactly the objects of ``up[A] & down[B]``.  Initiality:
    mapping a downset to the join of the assigned values carries the
    canonical datum to this one, preserves all joins, and agrees on
    principal downsets.

    Preservation of all joins is checked on the empty join and on binary
    joins only; see ``_join_failure`` for why that is exact.
    """
    failure = restriction_meet_failure(mc)
    if failure is not None:
        raise ConsistencyError("restriction table breaks the meet laws",
                               details={"witness": failure})
    target = datum.target
    values = datum.values
    thin, up, down = mc.is_thin(), mc.cat.up, mc.cat.down
    on_identities = [values[mc.identity(a)] for a in range(len(mc.objects))]
    for f in mc.morphisms:
        if thin:
            objects = _bits(up[f.dom] & down[f.cod])
        else:
            objects = (a for a in range(len(mc.objects))
                       if any(mc.compose(v, u) == f.mid for u in mc.hom(f.dom, a)
                              for v in mc.hom(a, f.cod)))
        if target.meet(tuple(on_identities[a] for a in objects)) != values[f.mid]:
            return PropertyReport("support_laws", False, witness=(f.mid,),
                                  details={"reason": "object formula fails"})

    lat = datum.lat
    dl = downsets(lat.lattice, caps=caps)
    def join_image(downset: frozenset[int]) -> int | None:
        return target.join(tuple(datum.on_subunits[s] for s in downset))
    factor = [join_image(s) for s in dl.sets]
    if any(v is None for v in factor):
        return PropertyReport("support_laws", False,
                              details={"reason": "target lacks a join"})
    for f in mc.morphisms:
        canonical = canonical_support(mc, f.mid, lat=lat)
        if factor[dl.index_of(canonical.canonical)] != values[f.mid]:
            return PropertyReport(
                "support_laws", False, witness=(f.mid,),
                details={"reason": "canonical datum does not factor to this one"})
    witness = _join_failure(dl, factor, target)
    if witness is not None:
        return PropertyReport(
            "support_laws", False, witness=witness,
            details={"reason": "factoring map is not join preserving"})
    for k, s in enumerate(lat.subunits):
        principal = dl.sets[dl.embedding[k]]
        if factor[dl.index_of(principal)] != datum.on_subunits[k]:
            return PropertyReport(
                "support_laws", False, witness=(k,),
                details={"reason": "factoring map moves a principal downset"})
    return PropertyReport("support_laws", True)


def _join_failure(dl: DownsetLattice, factor: list[int],
                  target: FinPoset) -> tuple[int, ...] | None:
    """The first family of downsets (as indices into ``dl.sets``), in a
    sweep over all families by size and then in ``combinations`` order,
    whose union ``factor`` does not send to the join of the images of its
    members; None when ``factor`` preserves all joins.

    Only the empty family and the pairs are visited, and that is exact: a
    singleton always passes, and once the bottom and every binary join are
    preserved, so is the join of any larger family, by induction on its
    size (the union of all members but one is itself a downset, so its
    image is the join of theirs).  A failure of the full sweep therefore
    first shows on the empty family or on a pair, both visited in the same
    order as there.
    """
    position = {s: k for k, s in enumerate(dl.sets)}
    if factor[position[frozenset()]] != target.bottom():
        return ()
    join = target.join_table
    for a, b in itertools.combinations(range(len(dl.sets)), 2):
        if factor[position[dl.sets[a] | dl.sets[b]]] != join[factor[a]][factor[b]]:
            return (a, b)
    return None
