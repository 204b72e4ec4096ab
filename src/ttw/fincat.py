"""Finite braided strict monoidal categories as explicit tables.

A category is a list of object labels, a list of morphisms with
dom/cod indices, an identity assignment and a composition table defined
exactly on composable pairs.  Monoidal data is a strict tensor on
objects and morphisms plus a braiding table; the unitors and associator
are identities throughout, so every law is an exact table equation.

Law checking is exhaustive.  Thin categories (every hom-set has at most
one element) take a fast path: any equation between parallel morphisms
holds automatically, so only typing and existence are checked.  The
fast path is cross-checked against the generic one in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ._unionfind import UnionFind
from .caps import DEFAULT_CAPS, Caps
from .errors import (BuildError, MalformedTableError,
                     NonCommutingSquareError)
from .orderkit import FinMonoid, Quantale, Semilattice, ideal_quantale


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
    compose_table: dict[tuple[int, int], int]
    hom_table: dict[tuple[int, int], tuple[int, ...]] = field(repr=False, default=None)

    def __post_init__(self):
        check_structure(self)
        homs: dict[tuple[int, int], list[int]] = {}
        for m in self.morphisms:
            homs.setdefault((m.dom, m.cod), []).append(m.mid)
        table = {key: tuple(v) for key, v in homs.items()}
        object.__setattr__(self, "hom_table", table)

    # -- queries ----------------------------------------------------------

    def hom(self, a: int, b: int) -> tuple[int, ...]:
        return self.hom_table.get((a, b), ())

    def compose(self, g: int, f: int) -> int:
        return self.compose_table[(g, f)]

    def dom(self, f: int) -> int:
        return self.morphisms[f].dom

    def cod(self, f: int) -> int:
        return self.morphisms[f].cod

    def is_thin(self) -> bool:
        return all(len(v) <= 1 for v in self.hom_table.values())

    def mor_label(self, f: int) -> str:
        return self.morphisms[f].label or f"m{f}"


@dataclass(frozen=True, eq=False)
class MonoidalData:
    unit: int
    tensor_obj: tuple[tuple[int, ...], ...]
    tensor_mor: dict[tuple[int, int], int]
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
        return self.cat.compose_table[(g, f)]

    def dom(self, f: int) -> int:
        return self.cat.morphisms[f].dom

    def cod(self, f: int) -> int:
        return self.cat.morphisms[f].cod

    def tensor_obj(self, a: int, b: int) -> int:
        return self.mon.tensor_obj[a][b]

    def tensor_mor(self, f: int, g: int) -> int:
        return self.mon.tensor_mor[(f, g)]

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
    """Raise MalformedTableError on shape problems: bad indices, missing
    or extraneous composition entries.  Law violations are not checked
    here; ``validate`` reports those."""
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
    composable = {(g.mid, f.mid) for f in cat.morphisms for g in cat.morphisms
                  if f.cod == g.dom}
    keys = set(cat.compose_table)
    missing = composable - keys
    if missing:
        raise MalformedTableError(f"compose table missing entry {sorted(missing)[0]}")
    extra = keys - composable
    if extra:
        raise MalformedTableError(
            f"compose table defined on non-composable pair {sorted(extra)[0]}")
    for value in cat.compose_table.values():
        if not (0 <= value < n_mor):
            raise MalformedTableError("compose table entry out of range")


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
    needed = {(f.mid, g.mid) for f in cat.morphisms for g in cat.morphisms}
    if set(mon.tensor_mor) != needed:
        raise MalformedTableError("tensor_mor table is not total on morphism pairs")
    for value in mon.tensor_mor.values():
        if not (0 <= value < n_mor):
            raise MalformedTableError("tensor_mor entry out of range")


def validate(cat: FinCategory, mon: MonoidalData | None = None, *,
             force_generic: bool = False) -> ValidationReport:
    """Exhaustive law check; the report lists every violated axiom with a
    concrete witness.  An empty report means the tables present a
    braided strict monoidal category."""
    check_structure(cat)
    if mon is not None:
        check_monoidal_structure(cat, mon)
    out: list[Violation] = []
    thin = cat.is_thin() and not force_generic
    mors = cat.morphisms
    comp = cat.compose_table

    for a, i in enumerate(cat.identity):
        m = mors[i]
        if m.dom != a or m.cod != a:
            out.append(Violation("identity_typing", (a, i),
                                 f"identity of {cat.objects[a]} is not an endomorphism"))
    for (g, f), h in comp.items():
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
        for f in mors:
            for g in mors:
                if g.dom != f.cod:
                    continue
                gf = comp[(g.mid, f.mid)]
                for h in mors:
                    if h.dom != g.cod:
                        continue
                    hg = comp[(h.mid, g.mid)]
                    if comp.get((h.mid, gf)) != comp.get((hg, f.mid)):
                        out.append(Violation(
                            "associativity", (h.mid, g.mid, f.mid),
                            "h o (g o f) != (h o g) o f"))

    if mon is None:
        return ValidationReport(out)

    t_obj = mon.tensor_obj
    t_mor = mon.tensor_mor
    unit = mon.unit
    n_obj = len(cat.objects)

    for a in range(n_obj):
        if t_obj[a][unit] != a or t_obj[unit][a] != a:
            out.append(Violation("strict_unit_obj", (a,),
                                 "unit is not strict on objects"))
        for b in range(n_obj):
            for c in range(n_obj):
                if t_obj[t_obj[a][b]][c] != t_obj[a][t_obj[b][c]]:
                    out.append(Violation("strict_assoc_obj", (a, b, c),
                                         "tensor on objects not associative"))

    for f in mors:
        for g in mors:
            h = mors[t_mor[(f.mid, g.mid)]]
            if h.dom != t_obj[f.dom][g.dom] or h.cod != t_obj[f.cod][g.cod]:
                out.append(Violation("tensor_typing", (f.mid, g.mid),
                                     "f (x) g has wrong dom/cod"))

    id_unit = cat.identity[unit]
    if not thin:
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
        for f1 in mors:
            for f2 in mors:
                if f2.dom != f1.cod:
                    continue
                ff = comp[(f2.mid, f1.mid)]
                for g1 in mors:
                    for g2 in mors:
                        if g2.dom != g1.cod:
                            continue
                        lhs = comp[(t_mor[(f2.mid, g2.mid)], t_mor[(f1.mid, g1.mid)])]
                        rhs = t_mor[(ff, comp[(g2.mid, g1.mid)])]
                        if lhs != rhs:
                            out.append(Violation(
                                "interchange", (f2.mid, f1.mid, g2.mid, g1.mid),
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

    if not thin:
        for f in mors:
            for g in mors:
                lhs = comp[(mon.braiding[f.cod][g.cod], t_mor[(f.mid, g.mid)])]
                rhs = comp[(t_mor[(g.mid, f.mid)], mon.braiding[f.dom][g.dom])]
                if lhs != rhs:
                    out.append(Violation("braiding_naturality", (f.mid, g.mid),
                                         "braiding square does not commute"))
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
    """Left cancellability, checked against every parallel pair."""
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    dom = cat.dom(f)
    comp = cat.compose_table
    for a in range(len(cat.objects)):
        candidates = cat.hom(a, dom)
        for g, h in itertools.combinations(candidates, 2):
            if comp[(f, g)] == comp[(f, h)]:
                return False
    return True


def is_iso(mc: MonoidalCategory | FinCategory, f: int) -> int | None:
    """The two-sided inverse of f, or None."""
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    m = cat.morphisms[f]
    comp = cat.compose_table
    for g in cat.hom(m.cod, m.dom):
        if (comp[(g, f)] == cat.identity[m.dom]
                and comp[(f, g)] == cat.identity[m.cod]):
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
    comp = cat.compose_table
    for h in cat.hom(cat.dom(f), cat.dom(g)):
        if comp[(g, h)] == f:
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


def all_cocones(mc: MonoidalCategory | FinCategory, diagram: DiagramSpec,
                caps: Caps = DEFAULT_CAPS) -> list[Cocone]:
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    check_diagram(cat, diagram)
    comp = cat.compose_table
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
            if all(comp[(legs[tgt], mid)] == legs[src]
                   for src, tgt, mid in diagram.edges):
                out.append(Cocone(apex, legs))
    return out


def mediating_morphisms(mc: MonoidalCategory | FinCategory, source: Cocone,
                        target: Cocone) -> list[int]:
    """All u with u o source.legs[i] = target.legs[i] for every node."""
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    comp = cat.compose_table
    return [u for u in cat.hom(source.apex, target.apex)
            if all(comp[(u, leg)] == target.legs[i]
                   for i, leg in enumerate(source.legs))]


def is_colimit(mc: MonoidalCategory | FinCategory, diagram: DiagramSpec,
               candidate: Cocone, cocones: list[Cocone] | None = None,
               caps: Caps = DEFAULT_CAPS) -> bool:
    if cocones is None:
        cocones = all_cocones(mc, diagram, caps=caps)
    return all(len(mediating_morphisms(mc, candidate, other)) == 1
               for other in cocones)


def colimit(mc: MonoidalCategory | FinCategory, diagram: DiagramSpec,
            caps: Caps = DEFAULT_CAPS) -> Cocone | None:
    """Brute-force colimit: the first cocone through which every cocone
    factors uniquely, in canonical order; None when there is none."""
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
    """
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    comp = cat.compose_table
    if cat.cod(f) != cat.cod(g) or cat.dom(f) != cat.cod(p) or \
            cat.dom(g) != cat.cod(q) or cat.dom(p) != cat.dom(q):
        raise NonCommutingSquareError("square sides do not typecheck")
    if comp[(f, p)] != comp[(g, q)]:
        raise NonCommutingSquareError("square does not commute")
    apex = cat.dom(p)
    for r in range(len(cat.objects)):
        for p2 in cat.hom(r, cat.dom(f)):
            for q2 in cat.hom(r, cat.dom(g)):
                if comp[(f, p2)] != comp[(g, q2)]:
                    continue
                fillers = [u for u in cat.hom(r, apex)
                           if comp[(p, u)] == p2 and comp[(q, u)] == q2]
                if len(fillers) != 1:
                    return False
    return True


def is_pushout(mc: MonoidalCategory | FinCategory, f: int, g: int,
               p: int, q: int) -> bool:
    """Is (p, q) the pushout cocone of the span (f: X -> A, g: X -> B)?

    Raises NonCommutingSquareError when p o f != q o g.
    """
    cat = mc.cat if isinstance(mc, MonoidalCategory) else mc
    comp = cat.compose_table
    if cat.dom(f) != cat.dom(g) or cat.cod(f) != cat.dom(p) or \
            cat.cod(g) != cat.dom(q) or cat.cod(p) != cat.cod(q):
        raise NonCommutingSquareError("square sides do not typecheck")
    if comp[(p, f)] != comp[(q, g)]:
        raise NonCommutingSquareError("square does not commute")
    apex = cat.cod(p)
    for r in range(len(cat.objects)):
        for p2 in cat.hom(cat.cod(f), r):
            for q2 in cat.hom(cat.cod(g), r):
                if comp[(p2, f)] != comp[(q2, g)]:
                    continue
                fillers = [u for u in cat.hom(apex, r)
                           if comp[(u, p)] == p2 and comp[(u, q)] == q2]
                if len(fillers) != 1:
                    return False
    return True


# ---------------------------------------------------------------------------
# constructors


def _thin_category(poset_elements, leq, label_sep="->"):
    objects = tuple(poset_elements)
    n = len(objects)
    morphisms = []
    mor_index: dict[tuple[int, int], int] = {}
    for a in range(n):
        for b in range(n):
            if leq[a][b]:
                mid = len(morphisms)
                morphisms.append(Morphism(mid, a, b,
                                          f"{objects[a]}{label_sep}{objects[b]}"))
                mor_index[(a, b)] = mid
    identity = tuple(mor_index[(a, a)] for a in range(n))
    compose = {}
    for f in morphisms:
        for g in morphisms:
            if g.dom == f.cod:
                compose[(g.mid, f.mid)] = mor_index[(f.dom, g.cod)]
    cat = FinCategory(objects, tuple(morphisms), identity, compose)
    return cat, mor_index


def thin_category_from_poset(poset) -> FinCategory:
    """The thin category of a bare poset, without monoidal data; handy
    for (co)limit questions that need no tensor."""
    cat, _ = _thin_category(poset.elements, poset.leq)
    return cat


def _thin_monoidal(elements, leq, product, unit: int,
                   caps: Caps) -> MonoidalCategory:
    """The thin braided monoidal category of a poset with a commutative
    monotone product table: one morphism x -> y exactly when x <= y,
    tensor given by the product, braiding by identities.  The caps are
    checked before any table is built."""
    n = len(elements)
    caps.check("max_objects", n)
    caps.check("max_morphisms", sum(map(sum, leq)))
    cat, mor_index = _thin_category(elements, leq)
    t_obj = tuple(tuple(product[a][b] for b in range(n)) for a in range(n))
    t_mor = {}
    for f in cat.morphisms:
        for g in cat.morphisms:
            t_mor[(f.mid, g.mid)] = mor_index[(t_obj[f.dom][g.dom],
                                               t_obj[f.cod][g.cod])]
    braiding = tuple(tuple(cat.identity[t_obj[a][b]] for b in range(n))
                     for a in range(n))
    mon = MonoidalData(unit, t_obj, t_mor, braiding)
    return assert_valid(MonoidalCategory(cat, mon), caps=caps)


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
    n = len(monoid.elements)
    objects = ("*",)
    morphisms = tuple(Morphism(i, 0, 0, monoid.elements[i]) for i in range(n))
    identity = (monoid.unit,)
    compose = {(g, f): monoid.mult[g][f] for g in range(n) for f in range(n)}
    cat = FinCategory(objects, morphisms, identity, compose)
    t_obj = ((0,),)
    t_mor = {(f, g): monoid.mult[f][g] for f in range(n) for g in range(n)}
    braiding = ((monoid.unit,),)
    mon = MonoidalData(0, t_obj, t_mor, braiding)
    return assert_valid(MonoidalCategory(cat, mon), caps=caps)


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
        src, tgt = self.source, self.target
        if len(self.obj_map) != len(src.objects) or \
                len(self.mor_map) != len(src.morphisms):
            raise MalformedTableError("functor tables have wrong length")
        for f in src.morphisms:
            image = tgt.morphisms[self.mor_map[f.mid]]
            if image.dom != self.obj_map[f.dom] or image.cod != self.obj_map[f.cod]:
                raise BuildError(f"functor breaks typing at morphism {f.mid}")
        for a in range(len(src.objects)):
            if self.mor_map[src.identity(a)] != tgt.identity(self.obj_map[a]):
                raise BuildError(f"functor breaks identity at object {a}")
        for f in src.morphisms:
            for g in src.morphisms:
                if g.dom != f.cod:
                    continue
                lhs = self.mor_map[src.compose(g.mid, f.mid)]
                rhs = tgt.compose(self.mor_map[g.mid], self.mor_map[f.mid])
                if lhs != rhs:
                    raise BuildError(f"functor breaks composition at ({g.mid}, {f.mid})")

    def check_strict_monoidal(self) -> None:
        """Strict monoidality: the functor commutes with unit, tensor and
        braiding on the nose.  The only monoidal functors this package
        manipulates are strict, which covers all thin-category examples."""
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
        for f in src.morphisms:
            for g in src.morphisms:
                lhs = self.mor_map[src.tensor_mor(f.mid, g.mid)]
                rhs = tgt.tensor_mor(self.mor_map[f.mid], self.mor_map[g.mid])
                if lhs != rhs:
                    raise BuildError(
                        f"functor breaks the tensor at morphisms ({f.mid}, {g.mid})")


def identity_functor(mc: MonoidalCategory) -> CatFunctor:
    return CatFunctor(mc, mc,
                      tuple(range(len(mc.objects))),
                      tuple(range(len(mc.morphisms))))
