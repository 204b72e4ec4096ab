"""Finite braided strict monoidal categories as explicit tables.

A category is a list of object labels, a list of morphisms with
dom/cod indices, an identity assignment and a composition table defined
exactly on composable pairs.  Monoidal data is a strict tensor on
objects and morphisms plus a braiding table; the unitors and associator
are identities throughout, so every law is an exact table equation.

Law checking is exhaustive.  A thin category (every hom-set has at most
one element) is its preorder a <= b iff hom(a, b) is nonempty: an up-
and a down-set bitmask per object, kept at construction
(``FinCategory.up`` and ``down``), and its isomorphism classes and a
generating set read from the covers between them, derived once and read
by every caller (``iso_classes``, ``generators``).  There any equation
between parallel morphisms holds, so the law checks test typing and
existence only, the tensor's along the generators, each fast path
cross-checked against the generic one in the test suite.

The same fact turns colimits, pullbacks, pushouts and monos of a thin
category into order theory on the masks.  ``all_cocones``,
``colimit``, ``is_colimit``, ``is_pullback``, ``is_pushout`` and
``is_mono`` decide from those masks, each stating its reduction, which
takes any composition table to be typed, as ``validate`` checks; every
other category runs the full sweep.  Typing forces g o f and f (x) g on
a thin category, so the thin categories built here keep neither table:
``compose_table`` and ``MonoidalData.tensor_mor`` are ``None``, each
such morphism is the one of its hom-set, and construction checks
transitivity where it would check the table (``check_composites``).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from ._unionfind import UnionFind
from .caps import DEFAULT_CAPS, Caps
from .errors import (BuildError, MalformedTableError,
                     NonCommutingSquareError)
from .orderkit import (FinMonoid, Quantale, Semilattice, _bits, _computed_once,
                       _covers, _mask, ideal_quantale)


@dataclass(frozen=True)
class Morphism:
    mid: int
    dom: int
    cod: int
    label: str = ""


@dataclass(frozen=True, eq=False)
class FinCategory:
    objects: tuple[str, ...]
    morphisms: tuple[Morphism, ...]
    identity: tuple[int, ...]
    compose_table: dict[tuple[int, int], int] | None  # None: forced by typing
    hom_table: dict[tuple[int, int], tuple[int, ...]] = field(repr=False, default=None)
    # on a thin category, up[a] has bit b and down[b] bit a set exactly
    # when hom(a, b) is nonempty; None when some hom-set holds two morphisms
    up: tuple[int, ...] | None = field(init=False, repr=False, default=None)
    down: tuple[int, ...] | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        check_structure(self)
        homs: dict[tuple[int, int], list[int]] = {}
        for m in self.morphisms:
            homs.setdefault((m.dom, m.cod), []).append(m.mid)
        object.__setattr__(self, "hom_table", {key: tuple(v) for key, v in homs.items()})
        if all(len(v) <= 1 for v in homs.values()):
            up, down = [0] * len(self.objects), [0] * len(self.objects)
            for a, b in homs:
                up[a] |= 1 << b
                down[b] |= 1 << a
            object.__setattr__(self, "up", tuple(up))
            object.__setattr__(self, "down", tuple(down))
        check_composites(self)

    # -- queries ----------------------------------------------------------

    def hom(self, a: int, b: int) -> tuple[int, ...]:
        return self.hom_table.get((a, b), ())

    def compose(self, g: int, f: int) -> int:
        """g o f; a KeyError unless cod f = dom g."""
        table = self.compose_table
        if table is not None:
            return table[(g, f)]
        mf, mg = self.morphisms[f], self.morphisms[g]
        if mf.cod != mg.dom:
            raise KeyError((g, f))
        return self.hom_table[(mf.dom, mg.cod)][0]

    def dom(self, f: int) -> int:
        return self.morphisms[f].dom

    def cod(self, f: int) -> int:
        return self.morphisms[f].cod

    def is_thin(self) -> bool:
        return self.up is not None

    def mor_label(self, f: int) -> str:
        return self.morphisms[f].label or f"m{f}"

    @_computed_once
    def iso_classes(self) -> tuple[tuple[int, ...], ...]:
        """The isomorphism classes as sorted tuples, by least member:
        ``up[a] & down[a]`` if thin, else union-find on ``objects_isomorphic``."""
        n = len(self.objects)
        if self.up is not None:
            iso = [self.up[a] & self.down[a] for a in range(n)]
            return tuple(tuple(_bits(m)) for a, m in enumerate(iso) if m & -m == 1 << a)
        uf = UnionFind(range(n))
        for a, b in itertools.combinations(range(n), 2):
            if objects_isomorphic(self, a, b) is not None:
                uf.union(a, b)
        return tuple(sorted(tuple(sorted(c)) for c in uf.classes()))

    @_computed_once
    def generators(self) -> tuple[int, ...]:
        """The mids of a set whose closure under composition holds every
        non-identity morphism: all of those off thin categories.  On a
        thin one, a cycle through the members of each class, in order,
        and a morphism from the least member of each class to that of
        each class covering it (``orderkit._covers``): any a -> b goes
        round a's cycle to its least member, up a finite chain of covers
        and round b's cycle to b, and is that path.  This needs the
        preorder reflexive and transitive (typed identities, composites)."""
        if self.up is None:
            return tuple(m.mid for m in self.morphisms if m.mid != self.identity[m.dom])
        classes = self.iso_classes
        covers = _covers(self.up, _mask(cls[0] for cls in classes))
        out = []
        for cls in classes:
            cycle = zip(cls, cls[1:] + cls[:1])
            out.extend(self.hom(x, y)[0] for x, y in cycle if x != y)
            out.extend(self.hom(cls[0], b)[0] for b in _bits(covers[cls[0]]))
        return tuple(sorted(out))


@dataclass(frozen=True, eq=False)
class MonoidalData:
    """Strict braided monoidal tables.  ``tensor_mor`` maps every pair
    of mids to their tensor, or is ``None`` on a thin category, where
    f (x) g is the only morphism from dom f (x) dom g to cod f (x) cod g
    (see ``MonoidalCategory.tensor_mor``)."""

    unit: int
    tensor_obj: tuple[tuple[int, ...], ...]
    tensor_mor: dict[tuple[int, int], int] | None
    braiding: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class MonoidalCategory:
    """A finite category bundled with strict braided monoidal data.

    ``derived`` holds the facts that depend on nothing but the tables
    (see ``subunits``), each computed once per category object."""

    cat: FinCategory
    mon: MonoidalData
    derived: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def unit(self) -> int:
        return self.mon.unit

    @property
    def objects(self):
        return self.cat.objects

    @property
    def morphisms(self):
        return self.cat.morphisms

    def identity(self, a: int) -> int:
        return self.cat.identity[a]

    def hom(self, a: int, b: int) -> tuple[int, ...]:
        return self.cat.hom(a, b)

    def compose(self, g: int, f: int) -> int:
        return self.cat.compose(g, f)

    def dom(self, f: int) -> int:
        return self.cat.morphisms[f].dom

    def cod(self, f: int) -> int:
        return self.cat.morphisms[f].cod

    def tensor_obj(self, a: int, b: int) -> int:
        return self.mon.tensor_obj[a][b]

    def tensor_mor(self, f: int, g: int) -> int:
        table = self.mon.tensor_mor
        if table is not None:
            return table[(f, g)]
        return _forced_tensor(self.cat, self.mon.tensor_obj, f, g)

    def braiding(self, a: int, b: int) -> int:
        return self.mon.braiding[a][b]

    def is_thin(self) -> bool:
        return self.cat.is_thin()

    def obj_label(self, a: int) -> str:
        return self.cat.objects[a]

    def mor_label(self, f: int) -> str:
        return self.cat.mor_label(f)


@dataclass(frozen=True)
class SubobjectClass:
    """An equivalence class of monomorphisms into a fixed object,
    identified when they factor through each other.  The canonical
    representative is the member with least morphism id."""

    representative: int
    members: frozenset[int]


@dataclass(frozen=True)
class DiagramSpec:
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]  # (source node, target node, mid)


@dataclass(frozen=True)
class Cocone:
    apex: int
    legs: tuple[int, ...]


@dataclass(frozen=True)
class Violation:
    law: str
    witness: tuple
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation]

    def ok(self) -> bool:
        return not self.violations

    def laws(self) -> set[str]:
        return {v.law for v in self.violations}


# ---------------------------------------------------------------------------
# structure and validation


def check_structure(cat: FinCategory) -> None:
    """Raise MalformedTableError on bad indices of the morphisms and
    identities.  Law violations are not checked here; ``validate``
    reports those."""
    n_obj = len(cat.objects)
    n_mor = len(cat.morphisms)
    for k, m in enumerate(cat.morphisms):
        if m.mid != k:
            raise MalformedTableError(f"morphism at position {k} has mid {m.mid}")
        if not (0 <= m.dom < n_obj and 0 <= m.cod < n_obj):
            raise MalformedTableError(f"morphism {k} has out-of-range dom/cod")
    if len(cat.identity) != n_obj:
        raise MalformedTableError("identity table has wrong length")
    for a, i in enumerate(cat.identity):
        if not (0 <= i < n_mor):
            raise MalformedTableError(f"identity of object {a} out of range")


def check_composites(cat: FinCategory) -> None:
    """Raise MalformedTableError naming the least composable pair (g, f)
    with no composite: no table entry, or with no table (a thin category)
    no morphism dom f -> cod g, sought only when some ``up[b]`` is not
    inside ``up[a]`` for a <= b.  A table holds mids on composable pairs."""
    n_obj, n_mor, mors = len(cat.objects), len(cat.morphisms), cat.morphisms
    table, up = cat.compose_table, cat.up
    if table is None:
        if up is None:
            raise MalformedTableError("compose table missing on a category that is not thin")
        if any(up[b] & ~up[a] for a, b in cat.hom_table):
            missing = min((g, f) for g, f in _composable_pairs(mors, n_obj)
                          if not up[mors[f].dom] >> mors[g].cod & 1)
            raise MalformedTableError(f"no morphism for the composite {missing}")
        return
    pairs = list(_composable_pairs(mors, n_obj))
    missing = [pair for pair in pairs if pair not in table]
    if missing:
        raise MalformedTableError(f"compose table missing entry {min(missing)}")
    if len(table) != len(pairs):
        extra = min((g, f) for g, f in table
                    if not (0 <= g < n_mor and 0 <= f < n_mor
                            and mors[g].dom == mors[f].cod))
        raise MalformedTableError(
            f"compose table defined on non-composable pair {extra}")
    for value in table.values():
        if not (0 <= value < n_mor):
            raise MalformedTableError("compose table entry out of range")


def _outgoing(morphisms, n_obj: int) -> list[list[int]]:
    """The mids out of each object, in mid order."""
    out: list[list[int]] = [[] for _ in range(n_obj)]
    for m in morphisms:
        out[m.dom].append(m.mid)
    return out


def _composable_pairs(morphisms, n_obj: int):
    """Every composable pair (g, f) of mids, f outer and g inner, both in
    mid order, read off each object's outgoing morphisms."""
    outgoing = _outgoing(morphisms, n_obj)
    for f in morphisms:
        for g in outgoing[f.cod]:
            yield g, f.mid


def _one_variable_pairs(mc: MonoidalCategory):
    """The pairs (f, id_b) for every morphism f and object b, then
    (id_a, g) for every object a and morphism g.

    These suffice for a law in two morphism variables whose two sides are
    functorial in the pair, such as the naturality square of a family
    indexed by pairs of objects between two bifunctors built from
    functors and the tensor.  In a valid category f (x) g =
    (f (x) id) o (id (x) g), by interchange and the identity laws, so
    the square at (f, g) is the square at (f, id) pasted onto the square
    at (id, g) (Mac Lane, *Categories for the Working Mathematician*,
    II.3: a family is natural in two variables exactly when it is
    natural in each separately).  The callers check functoriality of the
    functors involved before they sweep these pairs."""
    ids = [mc.identity(a) for a in range(len(mc.objects))]
    for f in mc.morphisms:
        for i in ids:
            yield f.mid, i
    for i in ids:
        for g in mc.morphisms:
            yield i, g.mid


def check_monoidal_structure(cat: FinCategory, mon: MonoidalData) -> None:
    n_obj = len(cat.objects)
    n_mor = len(cat.morphisms)
    if not (0 <= mon.unit < n_obj):
        raise MalformedTableError("unit object out of range")
    if len(mon.tensor_obj) != n_obj or any(len(r) != n_obj for r in mon.tensor_obj):
        raise MalformedTableError("tensor_obj table has wrong shape")
    if any(not (0 <= x < n_obj) for row in mon.tensor_obj for x in row):
        raise MalformedTableError("tensor_obj entry out of range")
    if len(mon.braiding) != n_obj or any(len(r) != n_obj for r in mon.braiding):
        raise MalformedTableError("braiding table has wrong shape")
    if any(not (0 <= x < n_mor) for row in mon.braiding for x in row):
        raise MalformedTableError("braiding entry out of range")
    if mon.tensor_mor is None:
        if not cat.is_thin():
            raise MalformedTableError(
                "tensor_mor table missing on a category that is not thin")
        return
    # n_mor * n_mor distinct keys, each a pair of mids, are all the pairs
    if len(mon.tensor_mor) != n_mor * n_mor or not all(
            0 <= f < n_mor and 0 <= g < n_mor for f, g in mon.tensor_mor):
        raise MalformedTableError("tensor_mor table is not total on morphism pairs")
    for value in mon.tensor_mor.values():
        if not (0 <= value < n_mor):
            raise MalformedTableError("tensor_mor entry out of range")


def validate(cat: FinCategory, mon: MonoidalData | None = None, *,
             force_generic: bool = False) -> ValidationReport:
    """Exhaustive law check; the report lists every violated axiom with a
    concrete witness.  An empty report means the tables present a
    braided strict monoidal category.  The shape of the category's own
    tables was checked when it was built.

    Without a ``tensor_mor`` table (a thin category) f (x) g is the one
    morphism of its target hom-set, and it exists for all f and g
    exactly when the object tensor is monotone in each argument: for
    every morphism f and object b there are morphisms
    dom f (x) b -> cod f (x) b and b (x) dom f -> b (x) cod f.  These
    are the targets of f (x) id_b and id_b (x) f; conversely f (x) g is
    the composite dom f (x) dom g -> cod f (x) dom g -> cod f (x) cod g.
    A failure is reported at (f, id_b) or (id_b, f).  Monotone along
    ``FinCategory.generators`` is monotone: each morphism a -> b is a
    composite a = x_0 -> ... -> x_k = b of generators, and the morphisms
    x_i (x) c -> x_(i+1) (x) c compose to one a (x) c -> b (x) c, on
    either side.  That needs the preorder reflexive and transitive, so
    the generators are checked only when ``identity_typing`` and
    ``compose_typing`` hold; when either fails, or some generator does,
    every morphism is swept, so the report lists every untyped pair.
    ``force_generic`` then runs the generic laws over the forced values,
    once that typing holds.  Forced composites (no ``compose_table``)
    are typed by construction, and ``force_generic`` tabulates them
    likewise.

    Associativity on objects compares the row (a (x) b) (x) - with
    a (x) (b (x) -) in one step per (a, b), and sweeps a row entry by
    entry only where the two differ.

    The interchange and braiding-naturality equations compose only
    well-typed morphisms, and the hexagons also need the object tensor
    to be associative; each is checked only when the laws it needs hold,
    so a broken table yields violations, never a failed lookup."""
    if mon is not None:
        check_monoidal_structure(cat, mon)
    out: list[Violation] = []
    thin = cat.is_thin() and not force_generic
    mors = cat.morphisms
    comp = cat.compose_table
    if comp is None and not thin:
        comp = {pair: cat.compose(*pair) for pair in _composable_pairs(mors, len(cat.objects))}

    for a, i in enumerate(cat.identity):
        m = mors[i]
        if m.dom != a or m.cod != a:
            out.append(Violation("identity_typing", (a, i),
                                 f"identity of {cat.objects[a]} is not an endomorphism"))
    for (g, f), h in (comp or {}).items():
        if mors[h].dom != mors[f].dom or mors[h].cod != mors[g].cod:
            out.append(Violation("compose_typing", (g, f, h),
                                 "composite has wrong dom/cod"))

    if not thin:
        for f in mors:
            i_dom, i_cod = cat.identity[f.dom], cat.identity[f.cod]
            if comp.get((f.mid, i_dom)) != f.mid:
                out.append(Violation("identity_law", (f.mid, i_dom),
                                     "f o id != f"))
            if comp.get((i_cod, f.mid)) != f.mid:
                out.append(Violation("identity_law", (i_cod, f.mid),
                                     "id o f != f"))
        outgoing = _outgoing(mors, len(cat.objects))
        for f in mors:
            for g in outgoing[f.cod]:
                gf = comp[(g, f.mid)]
                for h in outgoing[mors[g].cod]:
                    hg = comp[(h, g)]
                    if comp.get((h, gf)) != comp.get((hg, f.mid)):
                        out.append(Violation(
                            "associativity", (h, g, f.mid),
                            "h o (g o f) != (h o g) o f"))

    if mon is None:
        return ValidationReport(out)

    t_obj = mon.tensor_obj
    t_mor = mon.tensor_mor
    unit = mon.unit
    n_obj = len(cat.objects)

    # after[b](row) picks row[b (x) c] for every c; with one object
    # itemgetter returns a scalar, so that category sweeps every entry
    after = [operator.itemgetter(*row) for row in t_obj] if n_obj > 1 else None
    for a in range(n_obj):
        if t_obj[a][unit] != a or t_obj[unit][a] != a:
            out.append(Violation("strict_unit_obj", (a,),
                                 "unit is not strict on objects"))
        row = t_obj[a]
        for b in range(n_obj):
            if after is not None and t_obj[row[b]] == after[b](row):
                continue
            for c in range(n_obj):
                if t_obj[row[b]][c] != row[t_obj[b][c]]:
                    out.append(Violation("strict_assoc_obj", (a, b, c),
                                         "tensor on objects not associative"))

    def hold(*laws) -> bool:
        return not any(v.law in laws for v in out)

    if t_mor is not None:
        for f in mors:
            for g in mors:
                h = mors[t_mor[(f.mid, g.mid)]]
                if h.dom != t_obj[f.dom][g.dom] or h.cod != t_obj[f.cod][g.cod]:
                    out.append(Violation("tensor_typing", (f.mid, g.mid),
                                         "f (x) g has wrong dom/cod"))
    else:
        hom = cat.hom_table

        def untyped_pairs(fs) -> set[tuple[int, int]]:
            untyped = set()
            for f in fs:
                for b in range(n_obj):
                    if (t_obj[f.dom][b], t_obj[f.cod][b]) not in hom:
                        untyped.add((f.mid, cat.identity[b]))
                    if (t_obj[b][f.dom], t_obj[b][f.cod]) not in hom:
                        untyped.add((cat.identity[b], f.mid))
            return untyped

        untyped = set()
        if not hold("identity_typing", "compose_typing") or \
                untyped_pairs(mors[g] for g in cat.generators):
            untyped = untyped_pairs(mors)
        for pair in sorted(untyped):
            out.append(Violation("tensor_typing", pair,
                                 "no morphism for f (x) g: the tensor is not monotone"))
        if not untyped and not thin:
            t_mor = {(f.mid, g.mid): _forced_tensor(cat, t_obj, f.mid, g.mid)
                     for f in mors for g in mors}

    id_unit = cat.identity[unit]
    if not thin and t_mor is not None:
        for a in range(n_obj):
            for b in range(n_obj):
                lhs = t_mor[(cat.identity[a], cat.identity[b])]
                if lhs != cat.identity[t_obj[a][b]]:
                    out.append(Violation("tensor_identities", (a, b),
                                         "id (x) id != id of the tensor"))
        for f in mors:
            if t_mor[(f.mid, id_unit)] != f.mid or t_mor[(id_unit, f.mid)] != f.mid:
                out.append(Violation("strict_unit_mor", (f.mid,),
                                     "tensoring with the unit identity is not strict"))
        for f in mors:
            for g in mors:
                fg = t_mor[(f.mid, g.mid)]
                for h in mors:
                    if t_mor[(fg, h.mid)] != t_mor[(f.mid, t_mor[(g.mid, h.mid)])]:
                        out.append(Violation(
                            "strict_assoc_mor", (f.mid, g.mid, h.mid),
                            "tensor on morphisms not associative"))
    if not thin and hold("tensor_typing"):
        pairs = list(_composable_pairs(mors, n_obj))
        for f2, f1 in pairs:
            ff = comp[(f2, f1)]
            for g2, g1 in pairs:
                lhs = comp[(t_mor[(f2, g2)], t_mor[(f1, g1)])]
                if lhs != t_mor[(ff, comp[(g2, g1)])]:
                    out.append(Violation(
                        "interchange", (f2, f1, g2, g1),
                        "(f2 (x) g2) o (f1 (x) g1) != (f2 o f1) (x) (g2 o g1)"))

    for a in range(n_obj):
        for b in range(n_obj):
            s = mors[mon.braiding[a][b]]
            if s.dom != t_obj[a][b] or s.cod != t_obj[b][a]:
                out.append(Violation("braiding_typing", (a, b),
                                     "braiding has wrong dom/cod"))
                continue
            if thin:
                if not cat.hom(t_obj[b][a], t_obj[a][b]):
                    out.append(Violation("braiding_invertible", (a, b),
                                         "no reverse morphism exists"))
            else:
                back = mon.braiding[b][a]
                if (comp.get((back, s.mid)) != cat.identity[t_obj[a][b]]
                        or comp.get((s.mid, back)) != cat.identity[t_obj[b][a]]):
                    out.append(Violation("braiding_invertible", (a, b),
                                         "braiding is not inverted by its swap"))

    if not thin and hold("tensor_typing", "braiding_typing"):
        for f in mors:
            for g in mors:
                lhs = comp[(mon.braiding[f.cod][g.cod], t_mor[(f.mid, g.mid)])]
                rhs = comp[(t_mor[(g.mid, f.mid)], mon.braiding[f.dom][g.dom])]
                if lhs != rhs:
                    out.append(Violation("braiding_naturality", (f.mid, g.mid),
                                         "braiding square does not commute"))
    if not thin and hold("identity_typing", "tensor_typing", "braiding_typing",
                         "strict_assoc_obj"):
        for a in range(n_obj):
            for b in range(n_obj):
                for c in range(n_obj):
                    left = comp[(t_mor[(cat.identity[b], mon.braiding[a][c])],
                                 t_mor[(mon.braiding[a][b], cat.identity[c])])]
                    if left != mon.braiding[a][t_obj[b][c]]:
                        out.append(Violation("hexagon", (a, b, c),
                                             "first hexagon fails"))
                    right = comp[(t_mor[(mon.braiding[a][c], cat.identity[b])],
                                  t_mor[(cat.identity[a], mon.braiding[b][c])])]
                    if right != mon.braiding[t_obj[a][b]][c]:
                        out.append(Violation("hexagon_2", (a, b, c),
                                             "second hexagon fails"))

    return ValidationReport(out)


def _forced_tensor(cat: FinCategory, tensor_obj, f: int, g: int) -> int:
    """f (x) g in a thin category: the one morphism
    dom f (x) dom g -> cod f (x) cod g."""
    mf, mg = cat.morphisms[f], cat.morphisms[g]
    return cat.hom_table[(tensor_obj[mf.dom][mg.dom], tensor_obj[mf.cod][mg.cod])][0]


def assert_valid(mc: MonoidalCategory, caps: Caps = DEFAULT_CAPS) -> MonoidalCategory:
    caps.check("max_objects", len(mc.objects))
    caps.check("max_morphisms", len(mc.morphisms))
    report = validate(mc.cat, mc.mon)
    if not report.ok():
        first = report.violations[0]
        raise BuildError(f"category violates {first.law} at {first.witness}", report)
    return mc


# ---------------------------------------------------------------------------
# elementary queries


def is_mono(mc: MonoidalCategory | FinCategory, f: int) -> bool:
    """Left cancellability, checked against every parallel pair.  A thin
    category has no parallel pair g != h, so every morphism is mono."""
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    dom = cat.dom(f)
    if cat.up is not None:
        return True
    for a in range(len(cat.objects)):
        for g, h in itertools.combinations(cat.hom(a, dom), 2):
            if cat.compose(f, g) == cat.compose(f, h):
                return False
    return True


def is_iso(mc: MonoidalCategory | FinCategory, f: int) -> int | None:
    """The two-sided inverse of f, or None."""
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    m = cat.morphisms[f]
    for g in cat.hom(m.cod, m.dom):
        if (cat.compose(g, f) == cat.identity[m.dom]
                and cat.compose(f, g) == cat.identity[m.cod]):
            return g
    return None


def objects_isomorphic(mc: MonoidalCategory | FinCategory, a: int, b: int) -> int | None:
    """Some isomorphism a -> b, or None."""
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    for f in cat.hom(a, b):
        if is_iso(cat, f) is not None:
            return f
    return None


def factors_through(mc: MonoidalCategory | FinCategory, f: int, g: int) -> int | None:
    """Some h with f = g o h, or None.  Requires cod(f) = cod(g)."""
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    if cat.cod(f) != cat.cod(g):
        return None
    for h in cat.hom(cat.dom(f), cat.dom(g)):
        if cat.compose(g, h) == f:
            return h
    return None


def subobjects(mc: MonoidalCategory | FinCategory, a: int) -> list[SubobjectClass]:
    """All monomorphisms into ``a`` partitioned by mutual factoring,
    sorted by canonical representative."""
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    monos = [m.mid for m in cat.morphisms if m.cod == a and is_mono(cat, m.mid)]
    uf = UnionFind(monos)
    for s, t in itertools.combinations(monos, 2):
        if factors_through(cat, s, t) is not None and \
                factors_through(cat, t, s) is not None:
            uf.union(s, t)
    classes = [SubobjectClass(min(group), group) for group in uf.classes()]
    classes.sort(key=lambda c: c.representative)
    return classes


def subobject_leq(mc: MonoidalCategory | FinCategory, s: SubobjectClass,
                  t: SubobjectClass) -> bool:
    return factors_through(mc, s.representative, t.representative) is not None


# ---------------------------------------------------------------------------
# colimits, pullbacks, pushouts


def check_diagram(mc: MonoidalCategory | FinCategory, diagram: DiagramSpec) -> None:
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    for src, tgt, mid in diagram.edges:
        if not (0 <= src < len(diagram.nodes) and 0 <= tgt < len(diagram.nodes)):
            raise MalformedTableError("diagram edge references unknown node")
        m = cat.morphisms[mid]
        if m.dom != diagram.nodes[src] or m.cod != diagram.nodes[tgt]:
            raise MalformedTableError("diagram edge morphism has wrong endpoints")


def _upper_bounds(cat: FinCategory, diagram: DiagramSpec, caps: Caps) -> int:
    """The apexes of the cocones over ``diagram`` in the thin ``cat``, as
    a bitmask: the common upper bounds of its nodes.  Each apex carries
    exactly one cocone, since its legs are the only morphisms
    node -> apex and any two parallel composites are equal, so every
    edge commutes.  Checks the diagram, and the ``max_cocones`` cap as
    ``_common_upper_bounds`` does."""
    check_diagram(cat, diagram)
    return _common_upper_bounds(cat, diagram.nodes, caps)


def _common_upper_bounds(cat: FinCategory, nodes, caps: Caps) -> int:
    """The common upper bounds of ``nodes`` in the thin ``cat``, as the
    AND of their up-sets, after checking the ``max_cocones`` cap as the
    sweep in ``all_cocones`` does on a diagram with these nodes."""
    up, n = cat.up, len(cat.objects)
    bounds = (1 << n) - 1
    for node in nodes:
        bounds &= up[node] if 0 <= node < n else 0
    count = bounds.bit_count()
    if count:
        # the sweep checks the running count 1, 2, ... at each apex in
        # turn, so it refuses with the first count above the limit
        caps.check("max_cocones", min(count, max(1, caps.max_cocones + 1)))
    return bounds


def _least_upper_bound(cat: FinCategory, bounds: int) -> int | None:
    """The first object of the mask ``bounds`` lying below all of it, or
    None: the least element of a set of upper bounds in the thin ``cat``,
    up to isomorphism."""
    for apex in _bits(bounds):
        if bounds & ~cat.up[apex] == 0:
            return apex
    return None


def _thin_cocone(cat: FinCategory, diagram: DiagramSpec, apex: int) -> Cocone:
    return Cocone(apex, tuple(cat.hom_table[(node, apex)][0]
                              for node in diagram.nodes))


def all_cocones(mc: MonoidalCategory | FinCategory, diagram: DiagramSpec,
                caps: Caps = DEFAULT_CAPS) -> list[Cocone]:
    """Every cocone over ``diagram``, by apex and then legs.  On a thin
    category these are one cocone per common upper bound of the nodes
    (see ``_upper_bounds``)."""
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    if cat.up is not None:
        return [_thin_cocone(cat, diagram, apex)
                for apex in _bits(_upper_bounds(cat, diagram, caps))]
    check_diagram(cat, diagram)
    out: list[Cocone] = []
    for apex in range(len(cat.objects)):
        leg_choices = [cat.hom(node, apex) for node in diagram.nodes]
        count = 1
        for choice in leg_choices:
            count *= len(choice)
            if count == 0:
                break
        if count == 0:
            continue
        caps.check("max_cocones", len(out) + count)
        for legs in itertools.product(*leg_choices):
            cocone = Cocone(apex, legs)
            if is_cocone(cat, diagram, cocone):
                out.append(cocone)
    return out


def _has_typed_legs(cat: FinCategory, nodes, cocone: Cocone) -> bool:
    """The apex is an object and each leg a morphism from its node to
    the apex."""
    legs, mors = cocone.legs, cat.morphisms
    return (0 <= cocone.apex < len(cat.objects)
            and len(legs) == len(nodes)
            and all(0 <= leg < len(mors) and mors[leg].dom == node
                    and mors[leg].cod == cocone.apex
                    for node, leg in zip(nodes, legs)))


def is_cocone(mc: MonoidalCategory | FinCategory, diagram: DiagramSpec,
              cocone: Cocone) -> bool:
    """Each leg runs from its node to the apex and every edge commutes
    with the legs: exactly membership in ``all_cocones``."""
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    legs = cocone.legs
    return (_has_typed_legs(cat, diagram.nodes, cocone)
            and all(cat.compose(legs[tgt], mid) == legs[src]
                    for src, tgt, mid in diagram.edges))


def mediating_morphisms(mc: MonoidalCategory | FinCategory, source: Cocone,
                        target: Cocone) -> list[int]:
    """All u with u o source.legs[i] = target.legs[i] for every node."""
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    return [u for u in cat.hom(source.apex, target.apex)
            if all(cat.compose(u, leg) == target.legs[i]
                   for i, leg in enumerate(source.legs))]


def is_colimit(mc: MonoidalCategory | FinCategory, diagram: DiagramSpec,
               candidate: Cocone, cocones: list[Cocone] | None = None,
               caps: Caps = DEFAULT_CAPS) -> bool:
    """Every cocone (``cocones``, or else ``all_cocones``) factors
    through ``candidate`` in exactly one way.

    On a thin category whose candidate and given cocones have typed legs
    (node -> apex), u o leg and the other cocone's leg are parallel, so
    they are equal and the mediating morphisms are hom(apex, other
    apex): the candidate's apex must lie below every other apex.  Any
    other input runs the sweep."""
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    up = cat.up
    if up is not None and _has_typed_legs(cat, diagram.nodes, candidate):
        above = up[candidate.apex]
        if cocones is None:
            return _upper_bounds(cat, diagram, caps) & ~above == 0
        if all(_has_typed_legs(cat, diagram.nodes, other) for other in cocones):
            return all(above >> other.apex & 1 for other in cocones)
    if cocones is None:
        cocones = all_cocones(mc, diagram, caps=caps)
    return all(len(mediating_morphisms(mc, candidate, other)) == 1
               for other in cocones)


def colimit(mc: MonoidalCategory | FinCategory, diagram: DiagramSpec,
            caps: Caps = DEFAULT_CAPS) -> Cocone | None:
    """Brute-force colimit: the first cocone through which every cocone
    factors uniquely, in canonical order; None when there is none.

    On a thin category (see ``is_colimit``) that is the cocone at the
    first common upper bound of the nodes lying below every common upper
    bound: their least upper bound, up to isomorphism."""
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    if cat.up is not None:
        apex = _least_upper_bound(cat, _upper_bounds(cat, diagram, caps))
        return None if apex is None else _thin_cocone(cat, diagram, apex)
    cocones = all_cocones(mc, diagram, caps=caps)
    for candidate in cocones:
        if is_colimit(mc, diagram, candidate, cocones, caps=caps):
            return candidate
    return None


def initial_object(mc: MonoidalCategory | FinCategory,
                   caps: Caps = DEFAULT_CAPS) -> Cocone | None:
    return colimit(mc, DiagramSpec((), ()), caps=caps)


def terminal_object(mc: MonoidalCategory | FinCategory) -> int | None:
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    for apex in range(len(cat.objects)):
        if all(len(cat.hom(a, apex)) == 1 for a in range(len(cat.objects))):
            return apex
    return None


def is_pullback(mc: MonoidalCategory | FinCategory, f: int, g: int,
                p: int, q: int) -> bool:
    """Is (p, q) the pullback cone of the cospan (f: A -> X, g: B -> X)?

    Raises NonCommutingSquareError when f o p != g o q.

    On a thin category every cone over the cospan commutes and has at
    most one filler, so the square is a pullback exactly when every
    common lower bound of A and B lies below the apex: one AND of their
    down-sets.
    """
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    comp = cat.compose
    if cat.cod(f) != cat.cod(g) or cat.dom(f) != cat.cod(p) or \
            cat.dom(g) != cat.cod(q) or cat.dom(p) != cat.dom(q):
        raise NonCommutingSquareError("square sides do not typecheck")
    if comp(f, p) != comp(g, q):
        raise NonCommutingSquareError("square does not commute")
    apex = cat.dom(p)
    down = cat.down
    if down is not None:
        return down[cat.dom(f)] & down[cat.dom(g)] & ~down[apex] == 0
    for r in range(len(cat.objects)):
        for p2 in cat.hom(r, cat.dom(f)):
            for q2 in cat.hom(r, cat.dom(g)):
                if comp(f, p2) != comp(g, q2):
                    continue
                fillers = [u for u in cat.hom(r, apex)
                           if comp(p, u) == p2 and comp(q, u) == q2]
                if len(fillers) != 1:
                    return False
    return True


def is_pushout(mc: MonoidalCategory | FinCategory, f: int, g: int,
               p: int, q: int) -> bool:
    """Is (p, q) the pushout cocone of the span (f: X -> A, g: X -> B)?

    Raises NonCommutingSquareError when p o f != q o g.

    On a thin category every cocone under the span commutes and has at
    most one filler, so the square is a pushout exactly when every
    common upper bound of A and B lies above the apex.
    """
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    comp = cat.compose
    if cat.dom(f) != cat.dom(g) or cat.cod(f) != cat.dom(p) or \
            cat.cod(g) != cat.dom(q) or cat.cod(p) != cat.cod(q):
        raise NonCommutingSquareError("square sides do not typecheck")
    if comp(p, f) != comp(q, g):
        raise NonCommutingSquareError("square does not commute")
    apex = cat.cod(p)
    up = cat.up
    if up is not None:
        return up[cat.cod(f)] & up[cat.cod(g)] & ~up[apex] == 0
    for r in range(len(cat.objects)):
        for p2 in cat.hom(cat.cod(f), r):
            for q2 in cat.hom(cat.cod(g), r):
                if comp(p2, f) != comp(q2, g):
                    continue
                fillers = [u for u in cat.hom(apex, r)
                           if comp(u, p) == p2 and comp(u, q) == q2]
                if len(fillers) != 1:
                    return False
    return True


# ---------------------------------------------------------------------------
# constructors


def _tabulate(objects, morphisms, identity, compose) -> FinCategory:
    """The category on these objects whose k-th morphism is the k-th
    (dom, cod, label) triple, with the given identity mids; its
    composition table holds ``compose(g, f)`` for each composable pair
    of mids, called once per pair, f outer and g inner, or is None with
    ``compose`` (on a thin category, whose composites typing forces)."""
    mors = tuple(Morphism(k, a, b, label)
                 for k, (a, b, label) in enumerate(morphisms))
    table = None if compose is None else {
        (g, f): compose(g, f) for g, f in _composable_pairs(mors, len(objects))}
    return FinCategory(tuple(objects), mors, tuple(identity), table)


def _tabulate_monoidal(cat: FinCategory, unit: int, tensor_obj,
                       tensor, braiding) -> MonoidalCategory:
    """``cat`` with the given unit and object tensor table, and then the
    braiding rows ``braiding(a, b)``, a outer.  A thin ``cat`` gets no
    tensor table, since typing forces f (x) g, and ``tensor`` is not
    called; otherwise the table holds ``tensor(f, g)`` for every pair of
    mids, f outer.  The caller validates the result."""
    n_obj, n_mor = len(cat.objects), len(cat.morphisms)
    t_mor = None
    if not cat.is_thin():
        t_mor = {(f, g): tensor(f, g) for f in range(n_mor) for g in range(n_mor)}
    rows = tuple(tuple(braiding(a, b) for b in range(n_obj)) for a in range(n_obj))
    return MonoidalCategory(cat, MonoidalData(unit, tuple(map(tuple, tensor_obj)),
                                              t_mor, rows))


def _thin_category(poset_elements, leq):
    objects = tuple(poset_elements)
    n = len(objects)
    pairs = [(a, b) for a in range(n) for b in range(n) if leq[a][b]]
    mor_index = {pair: k for k, pair in enumerate(pairs)}
    return _tabulate(objects,
                     [(a, b, f"{objects[a]}->{objects[b]}") for a, b in pairs],
                     [mor_index[(a, a)] for a in range(n)], None)


def thin_category_from_poset(poset) -> FinCategory:
    """The thin category of a bare poset, without monoidal data; handy
    for (co)limit questions that need no tensor."""
    return _thin_category(poset.elements, poset.leq)


def _thin_monoidal(elements, leq, product, unit: int,
                   caps: Caps) -> MonoidalCategory:
    """The thin braided monoidal category of a poset with a commutative
    monotone product table: one morphism x -> y exactly when x <= y,
    tensor given by the product, braiding by identities.  The caps are
    checked before any table is built."""
    n = len(elements)
    caps.check("max_objects", n)
    caps.check("max_morphisms", sum(map(sum, leq)))
    cat = _thin_category(elements, leq)
    t_obj = [[product[a][b] for b in range(n)] for a in range(n)]
    return assert_valid(_tabulate_monoidal(
        cat, unit, t_obj, None, lambda a, b: cat.identity[t_obj[a][b]]),
        caps=caps)


def from_semilattice(lat: Semilattice, caps: Caps = DEFAULT_CAPS) -> MonoidalCategory:
    """The thin symmetric monoidal category of a meet-semilattice:
    one morphism x -> y exactly when x <= y, tensor given by meet."""
    return _thin_monoidal(lat.elements, lat.poset.leq, lat.meet_table, lat.top,
                          caps)


def from_quantale(q: Quantale, caps: Caps = DEFAULT_CAPS) -> MonoidalCategory:
    """The thin braided monoidal category of a commutative quantale:
    morphisms from the order, tensor from the multiplication."""
    if not q.commutative:
        raise BuildError("quantale is not commutative, no braiding exists")
    return _thin_monoidal(q.elements, q.poset.leq, q.mult, q.unit, caps)


def from_commutative_monoid(monoid: FinMonoid, mode: str = "one_object",
                            caps: Caps = DEFAULT_CAPS) -> MonoidalCategory:
    """Either the one-object category whose endomorphisms are the monoid
    elements with tensor given by multiplication, or the thin category
    of the monoid's ideal quantale."""
    if mode == "ideal_quantale":
        return from_quantale(ideal_quantale(monoid, caps=caps), caps=caps)
    if mode != "one_object":
        raise ValueError(f"unknown mode {mode!r}")
    if not monoid.is_commutative():
        raise BuildError("monoid is not commutative, no braiding exists")
    mult = monoid.mult
    cat = _tabulate(("*",), [(0, 0, label) for label in monoid.elements],
                    (monoid.unit,), lambda g, f: mult[g][f])
    return assert_valid(_tabulate_monoidal(
        cat, 0, ((0,),), lambda f, g: mult[f][g], lambda a, b: monoid.unit),
        caps=caps)


# ---------------------------------------------------------------------------
# functors


@dataclass(frozen=True, eq=False)
class CatFunctor:
    source: MonoidalCategory
    target: MonoidalCategory
    obj_map: tuple[int, ...]
    mor_map: tuple[int, ...]

    def on_obj(self, a: int) -> int:
        return self.obj_map[a]

    def on_mor(self, f: int) -> int:
        return self.mor_map[f]

    def check_functor(self) -> None:
        """Range, typing, identities, then composition over every
        composable pair of the source.  On a thin target no pair is
        checked: once F is typed, F(g o f) and F g o F f both run from
        F(dom f) to F(cod g), given the source's composites typed as
        ``validate`` checks, and parallel morphisms of a thin category
        are equal."""
        src, tgt = self.source, self.target
        if len(self.obj_map) != len(src.objects) or \
                len(self.mor_map) != len(src.morphisms):
            raise MalformedTableError("functor tables have wrong length")
        n_obj, n_mor = len(tgt.objects), len(tgt.morphisms)
        if any(not (0 <= a < n_obj) for a in self.obj_map) or \
                any(not (0 <= f < n_mor) for f in self.mor_map):
            raise MalformedTableError("functor table entry out of range")
        for f in src.morphisms:
            image = tgt.morphisms[self.mor_map[f.mid]]
            if image.dom != self.obj_map[f.dom] or image.cod != self.obj_map[f.cod]:
                raise BuildError(f"functor breaks typing at morphism {f.mid}")
        for a in range(len(src.objects)):
            if self.mor_map[src.identity(a)] != tgt.identity(self.obj_map[a]):
                raise BuildError(f"functor breaks identity at object {a}")
        if tgt.is_thin():
            return
        for g, f in _composable_pairs(src.morphisms, len(src.objects)):
            if self.mor_map[src.compose(g, f)] != \
                    tgt.compose(self.mor_map[g], self.mor_map[f]):
                raise BuildError(f"functor breaks composition at ({g}, {f})")

    def check_strict_monoidal(self) -> None:
        """Strict monoidality: the functor commutes with unit, tensor and
        braiding on the nose.  The only monoidal functors this package
        manipulates are strict, which covers all thin-category examples.

        On morphisms, F(f (x) g) = F f (x) F g is checked at the pairs of
        ``_one_variable_pairs`` only: once F is a functor, as checked
        first, both sides are functorial in the pair, so the pairs
        (f, id) and (id, g) give every other.  On a thin target no pair
        is checked: once F is typed and preserves the object tensor, both
        sides run from F(dom f) (x) F(dom g) to F(cod f) (x) F(cod g),
        and parallel morphisms of a thin category are equal."""
        self.check_functor()
        src, tgt = self.source, self.target
        if self.obj_map[src.unit] != tgt.unit:
            raise BuildError("functor does not preserve the tensor unit")
        for a in range(len(src.objects)):
            for b in range(len(src.objects)):
                if self.obj_map[src.tensor_obj(a, b)] != \
                        tgt.tensor_obj(self.obj_map[a], self.obj_map[b]):
                    raise BuildError(f"functor breaks the tensor at objects ({a}, {b})")
                if self.mor_map[src.braiding(a, b)] != \
                        tgt.braiding(self.obj_map[a], self.obj_map[b]):
                    raise BuildError(f"functor breaks the braiding at ({a}, {b})")
        if tgt.is_thin():
            return
        for f, g in _one_variable_pairs(src):
            lhs = self.mor_map[src.tensor_mor(f, g)]
            rhs = tgt.tensor_mor(self.mor_map[f], self.mor_map[g])
            if lhs != rhs:
                raise BuildError(f"functor breaks the tensor at morphisms ({f}, {g})")


def identity_functor(mc: MonoidalCategory) -> CatFunctor:
    return CatFunctor(mc, mc,
                      tuple(range(len(mc.objects))),
                      tuple(range(len(mc.morphisms))))
