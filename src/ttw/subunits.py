"""Subunits of a finite braided strict monoidal category.

A subunit is a subobject class of the tensor unit whose canonical
representative s: S >-> I has s (x) S invertible.  This module
enumerates them, computes their order and meet-semilattice, and decides
the property hierarchy: firm, stiff, universal finite joins, universal
directed joins, locale-based, together with the purely colimit-based
characterisation of the same properties.  Every check is exhaustive and
every negative verdict carries a witness replayable through the fincat
checkers.

On a thin category the facts of the subunits are read from the up-set
masks of ``FinCategory.up``, with no ``factors_through``, ``is_iso`` or
``is_mono``: the inverse of s (x) S is the hom entry S -> S (x) S
(``enumerate_subunits``), firmness holds at once, as every morphism is
monic (``is_firm``), the meet of s and t is the hom entry S (x) T -> I,
and both routes of the order (``subunit_leq``) are bits of up[S]: T for
factoring, S (x) T for invertibility.  The meet-closed families are
listed once per subunit semilattice, as a closure system
(``SubunitSemilattice.meet_closed_families``).

A colimit in a thin category is a least upper bound, so the join
hierarchy needs no diagram.  ``_characterisation_conditions`` and
``_locale_based_direct`` decide it from the up-set masks of
``FinCategory.up`` through one helper, ``_join_preserved`` ("X (x) -
preserves the join of U"), and ``is_stiff`` and
``has_universal_finite_joins`` read their squares, a pullback as a meet
and a pushout as a join, from the down- and up-set masks through
``_thin_square_failures``, building the morphisms of a square only where
it fails, and ``_initial_with_zero_tensor`` reads "X (x) 0 is initial"
off an up-set; each helper's docstring states its reduction, and other
categories run the full sweeps.  On a stiff category a nonempty finite
directed family holds its own join, its colimit at every X, so
``has_universal_directed_joins`` sweeps no family past the empty one.

The facts that depend on nothing but the category (its subunits,
firmness, the subunit semilattice and stiffness) are computed once per
category object and kept in ``mc.derived``, so the tables of a category
must not be mutated after construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .caps import DEFAULT_CAPS, Caps
from .errors import BuildError, ConsistencyError
from .fincat import (Cocone, DiagramSpec, MonoidalCategory, SubobjectClass,
                     _common_upper_bounds, _least_upper_bound, all_cocones,
                     colimit, factors_through, initial_object, is_cocone,
                     is_colimit, is_iso, is_mono, is_pullback, is_pushout,
                     mediating_morphisms, subobjects)
from .orderkit import (FinPoset, Semilattice, _computed_once, _mask,
                       _size_then_members, is_distributive, is_frame)


@dataclass(frozen=True)
class Subunit:
    cls: SubobjectClass
    domain: int
    witness_iso: int  # inverse of (representative (x) id_domain)

    @property
    def rep(self) -> int:
        return self.cls.representative


@dataclass(frozen=True)
class PropertyReport:
    name: str
    holds: bool
    witness: tuple = ()
    details: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class SubunitSemilattice:
    """The subunits, in canonical order, and the semilattice of their
    domains at the same positions, which holds their order, meets and
    top."""

    subunits: tuple[Subunit, ...]
    lattice: Semilattice

    def __len__(self):
        return len(self.subunits)

    def index_of_domain(self, label: str) -> int:
        if label not in self.lattice.elements:
            raise KeyError(label)
        return self.lattice.elements.index(label)

    @property
    def top(self) -> int:
        return self.lattice.top

    def leq(self, i: int, j: int) -> bool:
        return self.lattice.poset.leq(i, j)

    def meet(self, i: int, j: int) -> int:
        return self.lattice.meet_table[i][j]

    def join(self, subset) -> int | None:
        return self.lattice.poset.join(tuple(subset))

    def bottom(self) -> int | None:
        return self.lattice.poset.bottom()

    @_computed_once
    def meet_closed_families(self) -> tuple[tuple[int, ...], ...]:
        """Every meet-closed set of subunit positions, by size and then
        by members, the order of ``itertools.combinations``.

        Listed as a closure system, from the empty set: a closed F and
        an x outside it give F u {x} u (x /\\ F), where x /\\ F is
        {x /\\ f : f in F}; that set is closed, since the meet is
        associative, commutative and idempotent.  Every closed C is
        reached: with m a maximal member of C, C \\ {m} is closed (were
        m = a /\\ b for a, b in it, a would lie above m), and growing it
        by m gives C back.  So no subset is tested for closure.  Each
        family F found carries the masks of y /\\ F for every y, so that
        a step is one OR; the grown family's are
        (y /\\ F) u {y /\\ x} u ((y /\\ x) /\\ F)."""
        meet = self.lattice.meet_table
        found = {0}
        layer = [(0, [0] * len(meet))]
        while layer:
            grown = []
            for family, meets in layer:
                for x, row in enumerate(meet):
                    bigger = family | 1 << x | meets[x]
                    if bigger not in found:
                        found.add(bigger)
                        grown.append((bigger, [m | 1 << xy | meets[xy]
                                               for m, xy in zip(meets, row)]))
            layer = grown
        return tuple(tuple(members)
                     for _, members in sorted(map(_size_then_members, found)))


# ---------------------------------------------------------------------------
# enumeration and order


def _tensor_right(mc: MonoidalCategory, f: int, obj: int) -> int:
    return mc.tensor_mor(f, mc.identity(obj))


def _tensor_left(mc: MonoidalCategory, obj: int, f: int) -> int:
    return mc.tensor_mor(mc.identity(obj), f)


def _per_category(fact):
    """Keep the result of a function of the category alone in
    ``mc.derived``, under the function's name.  A call that raises keeps
    nothing, so the next call raises again."""
    @functools.wraps(fact)
    def memo(mc: MonoidalCategory):
        if fact.__name__ not in mc.derived:
            mc.derived[fact.__name__] = fact(mc)
        return mc.derived[fact.__name__]
    return memo


@_per_category
def enumerate_subunits(mc: MonoidalCategory) -> tuple[Subunit, ...]:
    """All subunits in canonical (representative id) order.  On a thin
    category the inverse of s (x) S: S (x) S -> S is the hom entry
    S -> S (x) S, when there is one."""
    thin = mc.is_thin()
    out = []
    for cls in subobjects(mc, mc.unit):
        rep = cls.representative
        dom = mc.dom(rep)
        if thin:
            back = mc.hom(dom, mc.tensor_obj(dom, dom))
            inv = back[0] if back else None
        else:
            inv = is_iso(mc, _tensor_right(mc, rep, dom))
        if inv is not None:
            out.append(Subunit(cls, dom, inv))
    return tuple(out)


def subunit_leq_factoring(mc: MonoidalCategory, s: Subunit, t: Subunit) -> bool:
    return factors_through(mc, s.rep, t.rep) is not None


def subunit_leq_invertibility(mc: MonoidalCategory, s: Subunit, t: Subunit) -> bool:
    return is_iso(mc, _tensor_left(mc, s.domain, t.rep)) is not None


def subunit_leq(mc: MonoidalCategory, s: Subunit, t: Subunit) -> bool:
    """The subunit order, by both routes: factoring of representatives,
    and invertibility of S (x) t.  Disagreement means the category is
    broken and raises ConsistencyError.  On a thin category both are
    read from the up-set of S: s factors through t exactly when S <= T,
    and S (x) t: S (x) T -> S is invertible exactly when S <= S (x) T."""
    if mc.is_thin():
        up_s = mc.cat.up[s.domain]
        by_factoring = bool(up_s >> t.domain & 1)
        by_inverse = bool(up_s >> mc.tensor_obj(s.domain, t.domain) & 1)
    else:
        by_factoring = subunit_leq_factoring(mc, s, t)
        by_inverse = subunit_leq_invertibility(mc, s, t)
    if by_factoring != by_inverse:
        raise ConsistencyError(
            "subunit order routes disagree",
            details={"s": s.rep, "t": t.rep, "factoring": by_factoring,
                     "invertibility": by_inverse})
    return by_factoring


@_per_category
def is_firm(mc: MonoidalCategory) -> PropertyReport:
    """s (x) T monic for every pair of subunits: on a thin category at
    once, as every morphism is."""
    subs = enumerate_subunits(mc)
    for s in () if mc.is_thin() else subs:
        for t in subs:
            cand = _tensor_right(mc, s.rep, t.domain)
            if not is_mono(mc, cand):
                return PropertyReport(
                    "firm", False, witness=(s.rep, t.rep, cand),
                    details={"reason": "s (x) T not monic"})
    return PropertyReport("firm", True, details={"pairs": len(subs) ** 2})


@_per_category
def subunit_semilattice(mc: MonoidalCategory) -> SubunitSemilattice:
    """The meet-semilattice of subunits: meet of s and t is the class of
    s (x) t, top is the identity class.  Refuses non-firm input, since
    the meet need not be a subunit there.  On a thin category s (x) t is
    the hom entry S (x) T -> I."""
    firm = is_firm(mc)
    if not firm.holds:
        raise BuildError(f"category is not firm, witness pair {firm.witness}", firm)
    subs = enumerate_subunits(mc)
    index_by_member: dict[int, int] = {}
    for k, s in enumerate(subs):
        for member in s.cls.members:
            index_by_member[member] = k
    thin = mc.is_thin()
    meet_table = []
    for s in subs:
        row = []
        for t in subs:
            m = (mc.hom(mc.tensor_obj(s.domain, t.domain), mc.unit)[0] if thin
                 else mc.tensor_mor(s.rep, t.rep))
            if m not in index_by_member:
                raise ConsistencyError(
                    "meet of subunits is not a subunit",
                    details={"s": s.rep, "t": t.rep, "tensor": m})
            row.append(index_by_member[m])
        meet_table.append(tuple(row))
    labels = tuple(mc.obj_label(s.domain) for s in subs)
    up = tuple(_mask(k for k, t in enumerate(subs) if subunit_leq(mc, s, t)) for s in subs)
    lattice = Semilattice(FinPoset(labels, up), tuple(meet_table),
                          index_by_member[mc.identity(mc.unit)])
    return SubunitSemilattice(subs, lattice)


# ---------------------------------------------------------------------------
# the D(U, X) diagrams


def d_diagram(mc: MonoidalCategory, lat: SubunitSemilattice, family,
              x: int) -> DiagramSpec:
    """The diagram of objects S (x) X for s in the family, with every
    connecting morphism f satisfying (t (x) X) o f = s (x) X.

    Callers check stiffness first, so t (x) X is monic and f unique (a
    second f raises ConsistencyError); on a thin category f is the hom
    entry, as both sides of the equation are parallel.  A directed
    family's greatest member (``FinPoset.is_directed``) is its colimit."""
    family = list(family)
    nodes = tuple(mc.tensor_obj(lat.subunits[i].domain, x) for i in family)
    edges = []
    incl = [_tensor_right(mc, lat.subunits[i].rep, x) for i in family]
    for a, i in enumerate(family):
        for b, j in enumerate(family):
            found = [f for f in mc.hom(nodes[a], nodes[b])
                     if mc.compose(incl[b], f) == incl[a]]
            if len(found) > 1:
                raise ConsistencyError(
                    "connecting morphism not unique in a stiff category",
                    details={"s": i, "t": j, "x": x, "found": found})
            edges.extend((a, b, f) for f in found)
    return DiagramSpec(nodes, tuple(edges))


def idempotent_families(lat: SubunitSemilattice, caps: Caps = DEFAULT_CAPS):
    """All meet-closed subsets of the subunit semilattice, the empty one
    first: ``SubunitSemilattice.meet_closed_families``, listed once per
    semilattice, after the ``max_subunit_family_base`` check that each
    call makes before its first family."""
    caps.check("max_subunit_family_base", len(lat))
    yield from lat.meet_closed_families


def _join_preserved(mc: MonoidalCategory, lat: SubunitSemilattice, family,
                    j: int, caps: Caps) -> tuple[int, int | None] | None:
    """X (x) - preserves the join j of U for every object X, on a thin
    category.

    ``j`` is an object above every subunit domain S of the family U.
    At each X in turn, B is the set of common upper bounds of the
    objects S (x) X, and the join is preserved at X when j (x) X lies
    below all of B.  Returns None when it is preserved at every X;
    otherwise the first X where it is not, with the least element of B
    there (its first bound lying below all of it, the apex ``colimit``
    picks), or None when B has no least element.  X runs over the least
    member of each isomorphism class only: the tensor is monotone, so an
    X' isomorphic to X gives S (x) X', j (x) X' the up-sets of S (x) X,
    j (x) X, and repeats the bounds, test and cap check of the earlier X.

    The reduction: in a thin category every diagram commutes, so a
    colimit of D(U, X) is a least upper bound of its nodes whatever its
    edges, and a cocone is a colimit exactly when its apex lies below
    every common upper bound (see ``fincat.colimit``).  Every morphism
    is monic, mediating arrows and comparisons are the hom entries, and
    an arrow is invertible exactly when there is an arrow back.  As
    S <= j gives S (x) X <= j (x) X, the canonical cocone at j (x) X is
    a colimit of D(U, X), and the comparison from the colimit to
    j (x) X is invertible, exactly when j (x) X lies below all of B.
    The sweeps' ConsistencyError guards (unique mediating arrows,
    canonical legs forming cocones) can therefore never fire on a thin
    input.  B is the AND of the masks up[S (x) X].  The ``max_cocones``
    cap is checked on B at each X, as ``fincat.colimit`` and
    ``fincat.is_colimit`` check it: a count above the limit is handed to
    ``_common_upper_bounds``, whose check gives the same
    (cap, limit, actual).
    """
    cat, tensor = mc.cat, mc.mon.tensor_obj
    up, limit = cat.up, caps.max_cocones
    everything = (1 << len(cat.objects)) - 1
    rows = [tensor[lat.subunits[i].domain] for i in family]
    for x, *_ in cat.iso_classes:
        bounds = everything
        for row in rows:
            bounds &= up[row[x]]
        if bounds.bit_count() > limit:
            _common_upper_bounds(cat, [row[x] for row in rows], caps)
        if bounds & ~up[tensor[j][x]]:
            return x, _least_upper_bound(cat, bounds)
    return None


# ---------------------------------------------------------------------------
# the property hierarchy


def _thin_square_failures(mc: MonoidalCategory, s: Subunit, t: Subunit,
                          v: Subunit | None = None) -> list[int]:
    """The objects X at which the square of s and t fails, on a thin
    category: the square of S (x) T (x) X over S (x) X and T (x) X is not
    a pullback, or, given their join v, its square into V (x) X is not a
    pushout.

    The reduction: in a thin category every morphism is monic, every
    square commutes, as its two composites are parallel, and each side
    the sweeps build (s (x) X, t (x) X, S (x) t (x) X, s (x) T (x) X, and
    i_s (x) X, i_t (x) X for the hom entries i_s: S -> V, i_t: T -> V) is
    the hom entry between its objects.  So the monic stage never fails,
    and the square fails exactly where ``fincat.is_pullback`` and
    ``fincat.is_pushout`` read it from the masks: it is a pullback when
    every common lower bound of S (x) X and T (x) X lies below
    S (x) T (x) X, down[S (x) X] & down[T (x) X] inside
    down[S (x) T (x) X], and a pushout when every common upper bound lies
    above V (x) X, up[S (x) X] & up[T (x) X] inside up[V (x) X].  No
    morphism, ``factors_through`` or ``is_mono`` is needed where the
    square holds; the callers build them at a failing X, where the
    sweep's stages give the sweep's report and witness.
    """
    cat, tensor = mc.cat, mc.mon.tensor_obj
    down, up = cat.down, cat.up
    s_row, t_row = tensor[s.domain], tensor[t.domain]
    v_row = None if v is None else tensor[v.domain]
    failures = []
    for x, (sx, tx) in enumerate(zip(s_row, t_row)):
        if down[sx] & down[tx] & ~down[s_row[tx]] or \
                v_row is not None and up[sx] & up[tx] & ~up[v_row[x]]:
            failures.append(x)
    return failures


@_per_category
def is_stiff(mc: MonoidalCategory) -> PropertyReport:
    """For all subunits s, t and objects X the square of tensored
    inclusions into X is a pullback of monomorphisms.  On a thin
    category only the objects ``_thin_square_failures`` returns are
    swept, which gives the same report and witness."""
    lat = subunit_semilattice(mc)
    thin = mc.is_thin()
    for s in lat.subunits:
        for t in lat.subunits:
            for x in (_thin_square_failures(mc, s, t) if thin
                      else range(len(mc.objects))):
                tx = mc.tensor_obj(t.domain, x)
                top = _tensor_right(mc, s.rep, tx)                # S.T.X -> T.X
                left = _tensor_left(mc, s.domain,
                                    _tensor_right(mc, t.rep, x))  # S.T.X -> S.X
                right = _tensor_right(mc, t.rep, x)               # T.X -> X
                bottom = _tensor_right(mc, s.rep, x)              # S.X -> X
                for m in (top, left, right, bottom):
                    if not is_mono(mc, m):
                        return PropertyReport(
                            "stiff", False, witness=(s.rep, t.rep, x, m),
                            details={"reason": "square side not monic"})
                if not is_pullback(mc, bottom, right, left, top):
                    return PropertyReport(
                        "stiff", False,
                        witness=(s.rep, t.rep, x, bottom, right, left, top),
                        details={"reason": "square is not a pullback"})
    return PropertyReport("stiff", True)


def _initial_with_zero_tensor(mc: MonoidalCategory,
                              caps: Caps) -> tuple[Cocone | None, int | None, str]:
    """Initial object plus its arrow to I; reports what failed.

    On a thin category an object is initial exactly when its up-set is
    every object (the empty diagram's cocones are the objects, see
    ``fincat.is_colimit``), so X (x) 0 is tested on its mask and no
    cocone is listed; ``initial_object`` checks the ``max_cocones`` cap
    with the count that ``all_cocones`` would."""
    ini = initial_object(mc, caps=caps)
    if ini is None:
        return None, None, "no initial object"
    zero = ini.apex
    arrows = mc.hom(zero, mc.unit)
    arrow = arrows[0]
    if not is_mono(mc, arrow):
        return ini, arrow, "initial arrow to the unit is not monic"
    n = len(mc.objects)
    if mc.is_thin():
        def initial(a):
            return mc.cat.up[a] == (1 << n) - 1
    else:
        empty = DiagramSpec((), ())
        cocones = all_cocones(mc, empty, caps=caps)

        def initial(a):
            return is_colimit(mc, empty, Cocone(a, ()), cocones)
    for x in range(n):
        if not initial(mc.tensor_obj(x, zero)):
            return ini, arrow, f"X (x) 0 is not initial at X={x}"
    return ini, arrow, ""


def has_universal_finite_joins(mc: MonoidalCategory,
                               caps: Caps = DEFAULT_CAPS) -> PropertyReport:
    """Initial object absorbed by the tensor, finite joins of subunits,
    and for all s, t, X a join square that is both a pullback and a
    pushout of monomorphisms.  On a thin category only the objects
    ``_thin_square_failures`` returns are swept, which gives the same
    report and witness."""
    lat = subunit_semilattice(mc)
    ini, zero_arrow, problem = _initial_with_zero_tensor(mc, caps)
    if problem:
        return PropertyReport("universal_finite_joins", False,
                              witness=(problem,), details={"stage": "initial"})
    bottom = lat.bottom()
    if bottom is None or zero_arrow not in lat.subunits[bottom].cls.members:
        return PropertyReport(
            "universal_finite_joins", False, witness=(zero_arrow,),
            details={"stage": "initial",
                     "reason": "initial arrow is not the least subunit"})
    for i in range(len(lat)):
        for j in range(len(lat)):
            if lat.join((i, j)) is None:
                return PropertyReport(
                    "universal_finite_joins", False, witness=(i, j),
                    details={"stage": "joins", "reason": "binary join missing"})
    thin = mc.is_thin()
    for i, s in enumerate(lat.subunits):
        for j, t in enumerate(lat.subunits):
            v = lat.subunits[lat.join((i, j))]
            objects = _thin_square_failures(mc, s, t, v) if thin \
                else range(len(mc.objects))
            if not objects:
                continue
            i_s = factors_through(mc, s.rep, v.rep)
            i_t = factors_through(mc, t.rep, v.rep)
            for x in objects:
                left = _tensor_left(mc, s.domain, _tensor_right(mc, t.rep, x))
                top = _tensor_right(mc, s.rep, mc.tensor_obj(t.domain, x))
                bottom_leg = _tensor_right(mc, i_s, x)
                right_leg = _tensor_right(mc, i_t, x)
                sides = (left, top, bottom_leg, right_leg)
                if any(not is_mono(mc, m) for m in sides):
                    return PropertyReport(
                        "universal_finite_joins", False,
                        witness=(s.rep, t.rep, x) + sides,
                        details={"stage": "square", "reason": "side not monic"})
                if not is_pullback(mc, bottom_leg, right_leg, left, top):
                    return PropertyReport(
                        "universal_finite_joins", False,
                        witness=(s.rep, t.rep, x) + sides,
                        details={"stage": "square", "reason": "not a pullback"})
                if not is_pushout(mc, left, top, bottom_leg, right_leg):
                    return PropertyReport(
                        "universal_finite_joins", False,
                        witness=(s.rep, t.rep, x) + sides,
                        details={"stage": "square", "reason": "not a pushout"})
    # a proven consequence: the subunits form a distributive lattice with
    # least element the initial subunit
    if not is_distributive(lat.lattice.poset):
        raise ConsistencyError(
            "universal finite joins hold but the subunit lattice is not "
            "distributive", details={"category": mc.objects})
    return PropertyReport("universal_finite_joins", True)


def has_universal_directed_joins(mc: MonoidalCategory, include_empty: bool = True,
                                 caps: Caps = DEFAULT_CAPS) -> PropertyReport:
    """Directed colimits of subunit inclusions exist, land on subunits,
    and are preserved by every functor X (x) (-).

    The empty family counts as directed by default, which demands an
    initial object absorbed by the tensor; pass ``include_empty=False``
    for the convention in which directed families are nonempty.

    On a stiff category, checked first, no nonempty family can fail, so
    none is swept and no cap is checked for them.  Such a family U holds
    its greatest member m (see ``FinPoset.is_directed``), and s = m o i_s
    for s in U.  Every edge f: S (x) X -> T (x) X of D(U, X) has
    (i_t (x) X) o f = i_s (x) X, as m (x) X is monic, and each i_s (x) X
    is an edge, so the cocone at M (x) X with legs i_s (x) X is a
    colimit (i_m is the identity).  For X = I its arrow to the unit is
    m, a subunit, and the edges X (x) i_s make X (x) M the colimit of
    X (x) D(U, I) likewise.
    """
    stiff = is_stiff(mc)
    if not stiff.holds:
        return PropertyReport("universal_directed_joins", False,
                              witness=stiff.witness,
                              details={"stage": "stiff"})
    if include_empty:
        lat = subunit_semilattice(mc)
        _, zero_arrow, problem = _initial_with_zero_tensor(mc, caps)
        if problem:
            return PropertyReport("universal_directed_joins", False,
                                  witness=(problem,), details={"stage": "empty"})
        if not any(zero_arrow in s.cls.members for s in lat.subunits):
            return PropertyReport(
                "universal_directed_joins", False, witness=(zero_arrow,),
                details={"stage": "empty",
                         "reason": "initial arrow is not a subunit"})
    return PropertyReport("universal_directed_joins", True)


def is_locale_based(mc: MonoidalCategory, include_empty: bool = True,
                    caps: Caps = DEFAULT_CAPS) -> PropertyReport:
    """Stiff, subunits a frame, and for every meet-closed family U and
    object X the canonical maps S (x) X -> (join U) (x) X form a colimit
    of D(U, X).

    Cross-checked against the conjunction of the two universal-join
    properties; a mismatch raises ConsistencyError.  The empty family
    always counts, as universal finite joins demand the empty join, an
    initial object absorbed by the tensor; ``include_empty`` only
    decides whether it counts as directed for the directed-join verdict.
    """
    direct = _locale_based_direct(mc, caps)
    finite = has_universal_finite_joins(mc, caps=caps)
    directed = has_universal_directed_joins(mc, include_empty=include_empty,
                                            caps=caps)
    both = finite.holds and directed.holds
    if direct.holds != both:
        raise ConsistencyError(
            "locale-based verdict disagrees with the two join properties",
            details={"direct": direct, "finite": finite, "directed": directed})
    return PropertyReport("locale_based", direct.holds, witness=direct.witness,
                          details={"finite": finite.holds,
                                   "directed": directed.holds,
                                   **direct.details})


def _locale_based_direct(mc: MonoidalCategory, caps: Caps) -> PropertyReport:
    stiff = is_stiff(mc)
    if not stiff.holds:
        return PropertyReport("locale_based", False, witness=stiff.witness,
                              details={"stage": "stiff"})
    lat = subunit_semilattice(mc)
    if not is_frame(lat.lattice.poset):
        return PropertyReport("locale_based", False,
                              details={"stage": "frame"})
    for family in idempotent_families(lat, caps=caps):
        v = lat.join(family) if family else lat.bottom()
        vs = lat.subunits[v]
        if mc.is_thin():
            failure = _join_preserved(mc, lat, family, vs.domain, caps)
            if failure is not None:
                return PropertyReport(
                    "locale_based", False, witness=(family, failure[0]),
                    details={"stage": "colimit"})
            continue
        for x in range(len(mc.objects)):
            diag = d_diagram(mc, lat, family, x)
            legs = []
            for i in family:
                inc = factors_through(mc, lat.subunits[i].rep, vs.rep)
                legs.append(_tensor_right(mc, inc, x))
            candidate = Cocone(mc.tensor_obj(vs.domain, x), tuple(legs))
            if not is_cocone(mc, diag, candidate):
                raise ConsistencyError(
                    "canonical legs do not form a cocone in a stiff category",
                    details={"family": family, "x": x})
            if not is_colimit(mc, diag, candidate, caps=caps):
                return PropertyReport(
                    "locale_based", False, witness=(family, x),
                    details={"stage": "colimit"})
    return PropertyReport("locale_based", True)


def check_characterisation(mc: MonoidalCategory, include_empty: bool = True,
                           caps: Caps = DEFAULT_CAPS) -> PropertyReport:
    """The colimit-based characterisation of the join hierarchy.

    For every meet-closed family U the three conditions are evaluated:
    D(U, X) has a colimit for every X, the mediating arrow from
    colim D(U, I) to the unit is monic, and the comparison from
    colim D(U, X) to colim D(U, I) (x) X is invertible.  The resulting
    verdicts (over all, finitely bounded, directed families) must agree
    with the direct definitions; disagreement raises ConsistencyError.
    The empty family always counts for the "all" and "finite" verdicts,
    whose direct definitions demand an initial object absorbed by the
    tensor; ``include_empty`` only decides whether it counts as
    directed.
    """
    stiff = is_stiff(mc)
    if not stiff.holds:
        raise BuildError("characterisation requires a stiff category", stiff)
    lat = subunit_semilattice(mc)
    verdicts = {"all": True, "finite": True, "directed": True}
    first_witness: dict[str, tuple] = {}

    for family in idempotent_families(lat, caps=caps):
        kinds = ["all", "finite"]
        if lat.lattice.poset.is_directed(family, include_empty=include_empty):
            kinds.append("directed")
        ok, witness = _characterisation_conditions(mc, lat, family, caps)
        if not ok:
            for kind in kinds:
                if verdicts[kind]:
                    verdicts[kind] = False
                    first_witness[kind] = witness

    # the locale-based verdict carries the two join verdicts it was
    # cross-checked against
    locale = is_locale_based(mc, include_empty=include_empty, caps=caps)
    expected = {"all": locale.holds, "finite": locale.details["finite"],
                "directed": locale.details["directed"]}
    if verdicts != expected:
        raise ConsistencyError(
            "characterisation disagrees with the direct definitions",
            details={"characterisation": verdicts, "direct": expected})
    return PropertyReport(
        "characterisation", verdicts["all"],
        witness=first_witness.get("all", ()),
        details={"verdicts": verdicts, "witnesses": first_witness})


def _characterisation_conditions(mc: MonoidalCategory, lat: SubunitSemilattice,
                                 family, caps: Caps) -> tuple[bool, tuple]:
    if mc.is_thin():
        # colim D(U, I) is the least upper bound j of the subunit domains,
        # and the mediating arrow j -> I the hom entry, which is monic
        j = _least_upper_bound(mc.cat, _common_upper_bounds(
            mc.cat, [lat.subunits[i].domain for i in family], caps))
        if j is None:
            return False, (family, mc.unit, "no colimit over the unit")
        failure = _join_preserved(mc, lat, family, j, caps)
        if failure is None:
            return True, ()
        x, lub = failure
        if lub is None:
            return False, (family, x, "no colimit")
        return False, (family, x, mc.hom(lub, mc.tensor_obj(j, x))[0],
                       "comparison not invertible")
    diag_unit = d_diagram(mc, lat, family, mc.unit)
    col_unit = colimit(mc, diag_unit, caps=caps)
    if col_unit is None:
        return False, (family, mc.unit, "no colimit over the unit")
    target = Cocone(mc.unit, tuple(lat.subunits[i].rep for i in family))
    arrows = mediating_morphisms(mc, col_unit, target)
    if len(arrows) != 1:
        raise ConsistencyError("mediating arrow to the unit not unique",
                               details={"family": family})
    if not is_mono(mc, arrows[0]):
        return False, (family, arrows[0], "mediating arrow not monic")
    for x in range(len(mc.objects)):
        diag = d_diagram(mc, lat, family, x)
        col = colimit(mc, diag, caps=caps)
        if col is None:
            return False, (family, x, "no colimit")
        apex = mc.tensor_obj(col_unit.apex, x)
        legs = tuple(_tensor_right(mc, leg, x) for leg in col_unit.legs)
        comparison_target = Cocone(apex, legs)
        if not is_cocone(mc, diag, comparison_target):
            raise ConsistencyError(
                "tensored colimit legs fail to form a cocone in a stiff category",
                details={"family": family, "x": x})
        fillers = mediating_morphisms(mc, col, comparison_target)
        if len(fillers) != 1:
            raise ConsistencyError("comparison morphism not unique",
                                   details={"family": family, "x": x})
        if is_iso(mc, fillers[0]) is None:
            return False, (family, x, fillers[0], "comparison not invertible")
    return True, ()


# ---------------------------------------------------------------------------
# small shared helpers


def retract_pairs(mc: MonoidalCategory) -> list[tuple[int, int]]:
    """All pairs (m, e) with e o m an identity."""
    out = []
    for m in mc.morphisms:
        for e in mc.hom(m.cod, m.dom):
            if mc.compose(e, m.mid) == mc.identity(m.dom):
                out.append((m.mid, e))
    return out
