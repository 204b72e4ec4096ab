"""Finite posets, semilattices, quantales and their downset completions.

Everything here is index-based: a poset holds a tuple of element labels
and, per element, its up-set as an int bitmask, the one representation
of the order; the constructor derives each down-set from these.  A join
is the element whose up-mask is the AND of the up-masks of its
arguments, a meet the dual; each poset caches its binary ``join_table``
and ``meet_table``.  Absence of a bound is a first-class result
(``None``), not an error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .caps import DEFAULT_CAPS, Caps
from .errors import BuildError, MalformedTableError


# ---------------------------------------------------------------------------
# posets


def _mask(subset) -> int:
    mask = 0
    for i in subset:
        mask |= 1 << i
    return mask


def _bits(mask: int):
    """The indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _size_then_members(mask: int) -> tuple[int, list[int]]:
    """Sort key: by size, then by members in increasing order."""
    return mask.bit_count(), list(_bits(mask))


def _unions(principal, check=lambda count: None) -> list[int]:
    """Every union of the bitmasks ``principal``, the empty one included,
    by size and then by members in increasing order.

    A union-closed family whose members are unions of principal members
    is exactly the set of unions of those, so no subset is ever tested
    for closure.  ``check`` sees the count as it grows, so that a cap
    fires before the family is built.
    """
    found = {0}
    for p in principal:
        found |= {m | p for m in found}
        check(len(found))
    return sorted(found, key=_size_then_members)


class _computed_once:
    """``functools.cached_property``, but stored with ``object.__setattr__``,
    as a frozen dataclass sets its fields: reading ``__dict__``, as
    cached_property does, stops CPython 3.11 specialising attribute reads
    on the instance (a tenth of perfbench complete for FinCategory)."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.func(instance)
        object.__setattr__(instance, self.name, value)
        return value


@dataclass(frozen=True)
class FinPoset:
    """A finite poset on indices ``0..n-1``, given by the bitmasks
    ``up[i]`` (bit ``j`` set iff ``i <= j``).

    The constructor refuses a mask that is not a subset of the indices,
    then checks the order laws on the masks, and derives ``down[i]``
    (bit ``j`` set iff ``j <= i``); joins and meets are read off both.
    """

    elements: tuple[str, ...]
    up: tuple[int, ...]
    down: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, up = len(self.elements), self.up
        if len(up) != n or any(mask < 0 or mask >> n for mask in up):
            raise MalformedTableError("up masks do not match the elements")
        for i in range(n):
            if not up[i] >> i & 1:
                raise BuildError(f"leq not reflexive at {self.elements[i]}")
        # the first offender in (i, j) order, as a scan over (i, j, k) finds it:
        # for each j above i, i is not above j and everything above j is above i
        down = [0] * n
        for i in range(n):
            for j in _bits(up[i]):
                if i != j and up[j] >> i & 1:
                    raise BuildError(
                        f"leq not antisymmetric on {self.elements[i]}, {self.elements[j]}")
                if up[j] & ~up[i]:
                    raise BuildError(f"leq not transitive via {self.elements[j]}")
                down[j] |= 1 << i
        object.__setattr__(self, "down", tuple(down))

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    @staticmethod
    def from_pairs(elements, pairs) -> "FinPoset":
        """Build from strict-or-not `x <= y` pairs; the reflexive-transitive
        closure is taken on the masks by Warshall's algorithm (for each k
        in turn, every element below k gets up[k]), and antisymmetry is
        verified by the constructor."""
        index = {x: i for i, x in enumerate(elements)}
        up = [1 << i for i in range(len(elements))]
        for x, y in pairs:
            if x not in index or y not in index:
                raise MalformedTableError(f"unknown element in pair ({x}, {y})")
            up[index[x]] |= 1 << index[y]
        for k in range(len(up)):
            up = [u | up[k] if u >> k & 1 else u for u in up]
        return FinPoset(tuple(elements), tuple(up))

    @staticmethod
    def chain(labels) -> "FinPoset":
        labels = list(labels)
        return FinPoset.from_pairs(labels, list(zip(labels, labels[1:])))

    def __len__(self):
        return len(self.elements)

    def index(self, label) -> int:
        return self.elements.index(label)

    @_computed_once
    def _by_up(self) -> dict[int, int]:
        return {mask: i for i, mask in enumerate(self.up)}

    @_computed_once
    def _by_down(self) -> dict[int, int]:
        return {mask: i for i, mask in enumerate(self.down)}

    def join(self, subset) -> int | None:
        """Least upper bound of a set of indices, or None.

        The common upper bounds of ``subset`` are the AND of its up-masks;
        the least of them is the element whose own up-mask is exactly that.
        """
        common = (1 << len(self)) - 1
        for i in subset:
            common &= self.up[i]
        return self._by_up.get(common)

    def meet(self, subset) -> int | None:
        """Greatest lower bound of a set of indices, or None; dual to join."""
        common = (1 << len(self)) - 1
        for i in subset:
            common &= self.down[i]
        return self._by_down.get(common)

    @_computed_once
    def join_table(self) -> tuple[tuple[int | None, ...], ...]:
        """``join_table[i][j]`` is the join of i and j, or None."""
        by_up, up = self._by_up, self.up
        return tuple(tuple(by_up.get(ui & uj) for uj in up) for ui in up)

    @_computed_once
    def meet_table(self) -> tuple[tuple[int | None, ...], ...]:
        """``meet_table[i][j]`` is the meet of i and j, or None."""
        by_down, down = self._by_down, self.down
        return tuple(tuple(by_down.get(di & dj) for dj in down) for di in down)

    def bottom(self) -> int | None:
        return self.join(())

    def top(self) -> int | None:
        return self.meet(())

    def down_closure(self, subset) -> frozenset[int]:
        closure = 0
        for j in subset:
            closure |= self.down[j]
        return frozenset(_bits(closure))

    def is_downset(self, subset) -> bool:
        mask = _mask(subset)
        return all(self.down[j] | mask == mask for j in _bits(mask))

    def is_directed(self, subset, include_empty: bool = True) -> bool:
        """Every two members have an upper bound among the members.

        A finite nonempty family is directed exactly when it contains its
        own join, which is then its greatest element: a directed family
        has a greatest member by induction on its size, a greatest member
        is the join, and a member join bounds every pair.  The directed
        checks cite this one statement and sweep no directed family."""
        subset = list(subset)
        if not subset:
            return include_empty
        return self.join(subset) in subset

    def is_lattice(self) -> bool:
        if len(self) == 0:
            return False
        return (self.bottom() is not None and self.top() is not None
                and all(None not in row for row in self.join_table)
                and all(None not in row for row in self.meet_table))

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (i, j): i < j with nothing strictly between."""
        covers = _covers(self.up, (1 << len(self)) - 1)
        return [(i, j) for i, mask in covers.items() for j in _bits(mask)]


def _covers(up, among: int) -> dict[int, int]:
    """Per member i of the mask ``among``, in order, the mask of those
    covering it: strictly_up(i) = ``up[i] & among`` without i, minus the
    strictly_up of each member of it.  ``among`` holds at most one member
    of each isomorphism class of the preorder ``up``."""
    strictly_up = {i: up[i] & among & ~(1 << i) for i in _bits(among)}
    out = dict(strictly_up)
    for i, above in strictly_up.items():
        for j in _bits(above):
            out[i] &= ~strictly_up[j]
    return out


def poset_isomorphism(p: FinPoset, q: FinPoset) -> tuple[int, ...] | None:
    """An order isomorphism p -> q as an index map, or None.

    Backtracking over candidates matched by up/down degree; fine at the
    sizes this package handles.
    """
    n = len(p)
    if n != len(q):
        return None

    p_prof, q_prof = ([(d.bit_count(), u.bit_count()) for d, u in zip(x.down, x.up)]
                      for x in (p, q))
    assignment: list[int] = []

    def extend(i: int) -> bool:
        if i == n:
            return True
        for cand in range(n):
            if cand in assignment or p_prof[i] != q_prof[cand]:
                continue
            ok = all((p.leq(j, i) == q.leq(assignment[j], cand))
                     and (p.leq(i, j) == q.leq(cand, assignment[j]))
                     for j in range(i))
            if ok:
                assignment.append(cand)
                if extend(i + 1):
                    return True
                assignment.pop()
        return False

    return tuple(assignment) if extend(0) else None


# ---------------------------------------------------------------------------
# semilattices and quantales


def _check_entries(table, unit, elements, what: str, unit_name: str) -> None:
    """Refuse a square table over ``elements`` before its laws are read:
    BuildError at the first missing (None) entry, row by row, and
    MalformedTableError at the first row with an entry, or at a
    ``unit``, that is not an index of ``elements``."""
    n = len(elements)
    for i, row in enumerate(table):
        if None in row:
            j = row.index(None)
            raise BuildError(f"no {what} of {elements[i]} and {elements[j]}")
        if row and (min(row) < 0 or max(row) >= n):
            raise MalformedTableError(f"{what} table entry out of range "
                                      f"in the row of {elements[i]}")
    if unit not in range(n):
        raise MalformedTableError(f"{unit_name} out of range")


@dataclass(frozen=True)
class Semilattice:
    """Finite meet-semilattice with a top element.

    ``meet`` is a full binary table of indices; it must agree with the
    order (x <= y iff x meet y = x).  A table equal to the poset's
    ``meet_table`` of greatest lower bounds, with no entry missing and
    with ``top`` the poset's top, is accepted at once: it passes every
    law the constructor checks otherwise, one by one.  A missing entry
    is refused first, as a missing meet, and an index out of range as a
    malformed table.
    """

    poset: FinPoset
    meet_table: tuple[tuple[int, ...], ...]
    top: int

    def __post_init__(self):
        n = len(self.poset)
        if len(self.meet_table) != n or any(len(r) != n for r in self.meet_table):
            raise MalformedTableError("meet table shape mismatch")
        m = self.meet_table
        _check_entries(m, self.top, self.poset.elements, "meet", "top")
        if self.top == self.poset.top() and m == self.poset.meet_table:
            return
        for i in range(n):
            if m[i][self.top] != i or m[self.top][i] != i:
                raise BuildError("top is not a unit for meet")
            if m[i][i] != i:
                raise BuildError("meet not idempotent")
            for j in range(n):
                if m[i][j] != m[j][i]:
                    raise BuildError("meet not commutative")
                if (m[i][j] == i) != self.poset.leq(i, j):
                    raise BuildError("meet disagrees with the order")
                for k in range(n):
                    if m[m[i][j]][k] != m[i][m[j][k]]:
                        raise BuildError("meet not associative")

    @staticmethod
    def from_poset(poset: FinPoset) -> "Semilattice":
        top = poset.top()
        if top is None:
            raise BuildError("poset has no top element")
        return Semilattice(poset, poset.meet_table, top)

    @property
    def elements(self):
        return self.poset.elements

    def __len__(self):
        return len(self.poset)

    def meet(self, i: int, j: int) -> int:
        return self.meet_table[i][j]


@dataclass(frozen=True)
class Quantale:
    """Finite commutative-or-not quantale: a complete lattice with a
    monoid multiplication distributing over all joins in each argument."""

    poset: FinPoset
    mult: tuple[tuple[int, ...], ...]
    unit: int
    commutative: bool = field(init=False, default=False)

    def __post_init__(self):
        n = len(self.poset)
        if len(self.mult) != n or any(len(r) != n for r in self.mult):
            raise MalformedTableError("mult table shape mismatch")
        _check_entries(self.mult, self.unit, self.poset.elements, "product", "unit")
        if not self.poset.is_lattice():
            raise BuildError("carrier is not a complete lattice")
        m = self.mult
        for i in range(n):
            if m[i][self.unit] != i or m[self.unit][i] != i:
                raise BuildError("unit law fails")
            for j in range(n):
                for k in range(n):
                    if m[m[i][j]][k] != m[i][m[j][k]]:
                        raise BuildError("multiplication not associative")
        # distributivity over all joins reduces, over a finite lattice, to
        # binary joins and the bottom element
        bot = self.poset.bottom()
        join = self.poset.join_table
        for i in range(n):
            if m[i][bot] != bot or m[bot][i] != bot:
                raise BuildError("multiplication does not preserve bottom")
            for j in range(n):
                for k in range(n):
                    if m[i][join[j][k]] != join[m[i][j]][m[i][k]]:
                        raise BuildError("left distributivity fails")
                    if m[join[j][k]][i] != join[m[j][i]][m[k][i]]:
                        raise BuildError("right distributivity fails")
        object.__setattr__(
            self, "commutative",
            all(m[i][j] == m[j][i] for i in range(n) for j in range(n)))

    @staticmethod
    def from_semilattice(lat: Semilattice) -> "Quantale":
        """A finite lattice with meet as multiplication; a frame."""
        if not lat.poset.is_lattice():
            raise BuildError("semilattice lacks joins, cannot form a quantale")
        return Quantale(lat.poset, lat.meet_table, lat.top)

    @property
    def elements(self):
        return self.poset.elements

    def __len__(self):
        return len(self.poset)


@dataclass(frozen=True)
class FinMonoid:
    elements: tuple[str, ...]
    mult: tuple[tuple[int, ...], ...]
    unit: int

    def __post_init__(self):
        n = len(self.elements)
        if len(self.mult) != n or any(len(r) != n for r in self.mult):
            raise MalformedTableError("mult table shape mismatch")
        _check_entries(self.mult, self.unit, self.elements, "product", "unit")
        m = self.mult
        for i in range(n):
            if m[i][self.unit] != i or m[self.unit][i] != i:
                raise BuildError("monoid unit law fails")
            for j in range(n):
                for k in range(n):
                    if m[m[i][j]][k] != m[i][m[j][k]]:
                        raise BuildError("monoid not associative")

    def is_commutative(self) -> bool:
        n = len(self.elements)
        return all(self.mult[i][j] == self.mult[j][i]
                   for i in range(n) for j in range(n))


@dataclass(frozen=True)
class DownsetLattice:
    """All downward-closed subsets of a base poset, ordered by inclusion,
    with the embedding x -> down-closure of {x}."""

    base: FinPoset
    sets: tuple[frozenset[int], ...]
    poset: FinPoset
    embedding: tuple[int, ...]

    def index_of(self, downset: frozenset[int]) -> int:
        return self._position[downset]

    @_computed_once
    def _position(self) -> dict[frozenset[int], int]:
        return {s: k for k, s in enumerate(self.sets)}


# ---------------------------------------------------------------------------
# operations


def _downset_label(base: FinPoset, s: frozenset[int]) -> str:
    return "{" + ",".join(base.elements[i] for i in sorted(s)) + "}"


def _inclusion_up(masks) -> tuple[int, ...]:
    """The up-masks of the distinct sets ``masks`` under inclusion: the
    sets above a are those that hold every member of a, the AND over
    the members x of a of the mask of sets holding x."""
    holding = [_mask(k for k, m in enumerate(masks) if m >> x & 1)
               for x in range(max(masks, default=0).bit_length())]
    up = []
    for m in masks:
        above = (1 << len(masks)) - 1
        for x in _bits(m):
            above &= holding[x]
        up.append(above)
    return tuple(up)


def _downset_lattice(base: FinPoset, masks: list[int]) -> DownsetLattice:
    """The downsets ``masks`` of ``base`` ordered by inclusion; the
    principal downsets must be among them."""
    sets = tuple(frozenset(_bits(m)) for m in masks)
    labels = tuple(_downset_label(base, s) for s in sets)
    embedding = tuple(map(masks.index, base.down))
    return DownsetLattice(base, sets, FinPoset(labels, _inclusion_up(masks)),
                          embedding)


def downsets(lat: Semilattice | FinPoset, caps: Caps = DEFAULT_CAPS) -> DownsetLattice:
    """All downsets of the carrier poset under inclusion.

    This is the free completion of a finite semilattice to a frame.  A
    family of sets closed under union and intersection, ordered by
    inclusion, is a distributive lattice, since union and intersection
    distribute over each other; finite, it is a frame.  So the result is
    checked in one pass over the pairs of downsets: the empty set is a
    member, and the table join and meet of every pair are their union and
    intersection.
    """
    base = lat.poset if isinstance(lat, Semilattice) else lat
    caps.check("max_downset_base", len(base))
    # a union of downsets is a downset, and a downset is the union of
    # the principal downsets of its elements
    masks = _unions(base.down)
    result = _downset_lattice(base, masks)
    index = {m: k for k, m in enumerate(masks)}.get
    join, meet = result.poset.join_table, result.poset.meet_table
    if masks[0] != 0 or any(
            tuple(map(index, [a | b for b in masks])) != join[k]
            or tuple(map(index, [a & b for b in masks])) != meet[k]
            for k, a in enumerate(masks)):
        raise BuildError("downset lattice failed the frame laws")
    return result


def directed_downsets(lat: Semilattice | FinPoset,
                      include_empty: bool = True) -> DownsetLattice:
    """The sub-poset of downsets that are upward directed.

    By ``FinPoset.is_directed`` a nonempty finite downset is directed
    exactly when it has a greatest member, so these are the principal
    downsets, plus the empty set when ``include_empty`` (the default; it
    is the bottom of the free preframe).  They are built directly, in
    the order of ``downsets``: by size, then by members.  That is n + 1
    sets for n elements, so no cap applies here; ``max_downset_base``
    bounds the 2^n of ``downsets``.
    """
    base = lat.poset if isinstance(lat, Semilattice) else lat
    masks = ([0] if include_empty else []) + sorted(base.down,
                                                     key=_size_then_members)
    return _downset_lattice(base, masks)


def finitely_bounded_downsets(lat: Semilattice | FinPoset,
                              caps: Caps = DEFAULT_CAPS) -> DownsetLattice:
    """Downsets generated by finitely many elements: on a finite poset,
    by their maximal elements, every downset.  Those generated by one
    element are the directed ones (``FinPoset.is_directed``)."""
    return downsets(lat, caps=caps)


def quantale_subunits(q: Quantale) -> Semilattice:
    """The idempotents below the unit, as a sub-semilattice of the
    quantale; meets are given by the multiplication.  Always a frame."""
    if not q.commutative:
        raise BuildError("quantale is not commutative")
    members = [i for i in _bits(q.poset.down[q.unit]) if q.mult[i][i] == i]
    labels = tuple(q.elements[i] for i in members)
    pos = {element: k for k, element in enumerate(members)}
    poset = FinPoset(labels, tuple(_mask(pos[b] for b in _bits(q.poset.up[a])
                                         if b in pos) for a in members))
    meet_table = tuple(tuple(pos[q.mult[a][b]] for b in members) for a in members)
    lat = Semilattice(poset, meet_table, pos[q.unit])
    if not is_frame(poset):
        raise BuildError("quantale idempotents failed the frame laws")
    return lat


def ideal_quantale(monoid: FinMonoid, caps: Caps = DEFAULT_CAPS) -> Quantale:
    """The quantale of ideals of a commutative monoid: subsets closed
    under multiplication by every element, multiplied elementwise, with
    the whole monoid as unit and unions as joins.

    The ideals become the objects of the ideal-quantale category, so
    ``max_objects`` bounds their number while they are enumerated.
    """
    if not monoid.is_commutative():
        raise BuildError("monoid is not commutative")
    # xM is an ideal, since (xm)m' = x(mm'), and an ideal is the union of
    # the xM of its elements x = x1; unions of ideals are ideals
    masks = _unions(map(_mask, monoid.mult),
                    lambda count: caps.check("max_objects", count))
    labels = tuple("{" + ",".join(sorted(monoid.elements[i] for i in _bits(m))) + "}"
                   for m in masks)
    position = {m: k for k, m in enumerate(masks)}
    # the elementwise product of ideals of a commutative monoid is itself
    # an ideal, so no generation step is needed
    mult = tuple(tuple(position[_mask(monoid.mult[x][y] for x in _bits(a) for y in _bits(b))]
                       for b in masks) for a in masks)
    return Quantale(FinPoset(labels, _inclusion_up(masks)), mult,
                    position[(1 << len(monoid.elements)) - 1])


def is_distributive(lat: Semilattice | FinPoset) -> bool:
    """Exhaustive x /\\ (y \\/ z) = (x /\\ y) \\/ (x /\\ z) over a lattice;
    False when the carrier is not a lattice at all."""
    poset = lat.poset if isinstance(lat, Semilattice) else lat
    if not poset.is_lattice():
        return False
    join, meet = poset.join_table, poset.meet_table
    for meet_x in meet:
        for y, join_y in enumerate(join):
            # the law for every z at once, as rows indexed by z
            join_xy = join[meet_x[y]]
            if [meet_x[j] for j in join_y] != [join_xy[m] for m in meet_x]:
                return False
    return True


def is_frame(lat: Semilattice | FinPoset) -> bool:
    """Complete lattice in which finite meets distribute over arbitrary
    joins.

    Over a finite carrier every supremum is a finite join, so the law
    reduces exactly to bounded-lattice structure plus binary
    distributivity; ``is_frame_exhaustive`` spells out the full
    quantification and is cross-checked against this in the tests.
    """
    poset = lat.poset if isinstance(lat, Semilattice) else lat
    return poset.is_lattice() and is_distributive(poset)


def is_frame_exhaustive(lat: Semilattice | FinPoset,
                        caps: Caps = DEFAULT_CAPS) -> bool:
    """The frame law quantified over every subset of the carrier; only
    feasible for small carriers, and capped accordingly."""
    poset = lat.poset if isinstance(lat, Semilattice) else lat
    if not poset.is_lattice():
        return False
    n = len(poset)
    caps.check("max_subunit_family_base", n)
    meet = poset.meet_table
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            sup = poset.join(subset)
            if sup is None:
                return False
            for x in range(n):
                distributed = poset.join(tuple(meet[x][s] for s in subset))
                if meet[x][sup] != distributed:
                    return False
    return True


def is_preframe(lat: Semilattice | FinPoset) -> bool:
    """Meet-semilattice with top in which every directed subset has a
    supremum and binary meets distribute over directed suprema.

    On a finite carrier that is a top and every binary meet: they give a
    bottom, the empty join, and a nonempty directed subset holds its join
    g (see ``FinPoset.is_directed``), so x /\\ g is the greatest of the
    x /\\ s, their join."""
    poset = lat.poset if isinstance(lat, Semilattice) else lat
    return poset.top() is not None and all(None not in row for row in poset.meet_table)
