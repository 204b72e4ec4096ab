"""Finite presheaves, Day convolution, and broad-presheaf completions.

Presheaves are tables: a finite value set per object and an index map
per morphism, contravariantly.  The Day tensor of two presheaves is
computed literally as its quotient presentation: triples (h, x, y) of a
morphism h: A -> B (x) C and elements x, y, identified by the least
equivalence relation generated by sliding morphisms f, g across the
components, closed with union-find.  One variable at a time suffices:
the slides of the pairs (f, id) and (id, g) generate the relation, so
each triple is slid outward and no morphism into the tensor is searched
for.  Slides compose, so only the category's one generating set,
``FinCategory.generators``, is slid along (see ``day_tensor``).

Broad presheaves are presented intensionally by a pair (U, X) of a
downward-closed subunit family and an object; morphisms between them
are cocones whose legs restrict into the target family.  Collecting the
(finitely bounded, directed, all) presentations yields the three
completion categories, again as explicit finite monoidal categories.
The completion of a thin category is thin, with at most one cocone per
hom-set, so its hom-sets are read from the preorder's masks and it is
composed and braided by typing; any other completion lists, checks and
pastes its cocones (see ``broad_category``).

Every presheaf this module builds is a presheaf by construction, and is
not checked: representables, sieves, broad presheaves and coproducts of
representables act by precomposition, functorial by associativity and
the identity law (``_precomposition_presheaf``); the Day quotient's
action is well defined and functorial by associativity
(``day_tensor``); a sieve's inclusion into the unit's representable is
natural, since both act by precomposition (``presheaf_subunits``).
``check_presheaf`` stays for presheaf documents, and the test suite runs
it on every kind of built presheaf
(``test_built_presheaves_pass_check_presheaf``) and computes the Day
action from every class member (``brute_day_classes``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .caps import DEFAULT_CAPS, Caps
from .errors import BuildError, ConsistencyError
from .fincat import (CatFunctor, Cocone, MonoidalCategory, _composable_pairs,
                     _outgoing, _tabulate, _tabulate_monoidal, assert_valid,
                     factors_through, is_cocone, mediating_morphisms, terminal_object)
from .orderkit import (_bits, _downset_label, _mask, _unions, directed_downsets,
                       downsets, finitely_bounded_downsets)
from .restriction import restriction_table, restricts_to
from .subunits import (SubunitSemilattice, _tensor_left, _tensor_right, d_diagram,
                       has_universal_directed_joins, has_universal_finite_joins,
                       is_locale_based, is_stiff, subunit_semilattice)

Triple = tuple[int, int, int, int, int]  # (B, C, h, x-index, y-index)


# ---------------------------------------------------------------------------
# presheaves


@dataclass(frozen=True, eq=False)
class Presheaf:
    mc: MonoidalCategory
    values: tuple[tuple, ...]          # labels per object
    action: dict[int, tuple[int, ...]]  # mid -> map of value indices, cod to dom

    def size(self, a: int) -> int:
        return len(self.values[a])

    def apply(self, f: int, x: int) -> int:
        return self.action[f][x]


def check_presheaf(p: Presheaf) -> None:
    """Reject a table that is not a presheaf: every action typed, the
    identities acting as identities, and every composable pair acting
    functorially.  For presheaf documents; a built presheaf is one by
    construction (module docstring)."""
    mc = p.mc
    if len(p.values) != len(mc.objects):
        raise BuildError("presheaf values missing objects")
    for f in mc.morphisms:
        arr = p.action.get(f.mid)
        if arr is None or len(arr) != p.size(f.cod) or \
                any(not (0 <= v < p.size(f.dom)) for v in arr):
            raise BuildError(f"presheaf action malformed at morphism {f.mid}")
    for a in range(len(mc.objects)):
        ida = p.action[mc.identity(a)]
        if any(ida[x] != x for x in range(p.size(a))):
            raise BuildError(f"presheaf action not identity at object {a}")
    for g, f in _composable_pairs(mc.morphisms, len(mc.objects)):
        gf = mc.compose(g, f)
        for x in range(p.size(mc.cod(g))):
            if p.action[gf][x] != p.action[f][p.action[g][x]]:
                raise BuildError(f"presheaf not functorial at ({g}, {f})")


def presheaf_cap_check(p: Presheaf, caps: Caps) -> None:
    for a in range(len(p.values)):
        caps.check("max_presheaf_values", p.size(a))


def _precomposition_presheaf(mc: MonoidalCategory, values) -> Presheaf:
    """The presheaf whose values at each object are morphisms out of it,
    with precomposition as the action.

    It is a presheaf by construction, so ``check_presheaf`` is not run:
    each value set is closed under precomposition, as the index lookup
    enforces (a precomposite outside it is a ``KeyError``), id is the
    identity map by the identity law, and m o (g o f) = (m o g) o f is
    associativity.  ``test_built_presheaves_pass_check_presheaf`` keeps
    the check as the oracle of this and of every other built presheaf."""
    index = [{m: i for i, m in enumerate(row)} for row in values]
    return Presheaf(mc, tuple(values), {
        f.mid: tuple(index[f.dom][mc.compose(m, f.mid)] for m in values[f.cod])
        for f in mc.morphisms})


def yoneda(mc: MonoidalCategory, a: int) -> Presheaf:
    """The representable presheaf of an object: morphisms into it, with
    precomposition as the action."""
    return _precomposition_presheaf(
        mc, [tuple(mc.hom(b, a)) for b in range(len(mc.objects))])


def coproduct_of_representables(mc: MonoidalCategory, tags: list[int]) -> Presheaf:
    """Disjoint unions of representables; handy as a pool of valid test
    presheaves (the empty list gives the empty presheaf).  Each summand
    is a representable, a presheaf by construction (see
    ``_precomposition_presheaf``), and the action keeps the tag k."""
    values = [tuple((k, m) for k, a in enumerate(tags) for m in mc.hom(b, a))
              for b in range(len(mc.objects))]
    index = [{lab: i for i, lab in enumerate(row)} for row in values]
    return Presheaf(mc, tuple(values), {
        f.mid: tuple(index[f.dom][(k, mc.compose(m, f.mid))] for k, m in values[f.cod])
        for f in mc.morphisms})


@dataclass(frozen=True, eq=False)
class NatTransformation:
    source: Presheaf
    target: Presheaf
    components: tuple[tuple[int, ...], ...]

    def is_bijective(self) -> bool:
        return all(len(set(c)) == len(c) == self.target.size(a)
                   for a, c in enumerate(self.components))


def is_natural(f: Presheaf, g: Presheaf, components) -> bool:
    mc = f.mc
    for m in mc.morphisms:
        for x in range(f.size(m.cod)):
            if g.action[m.mid][components[m.cod][x]] != \
                    components[m.dom][f.action[m.mid][x]]:
                return False
    return True


def nat_transformations(f: Presheaf, g: Presheaf,
                        caps: Caps = DEFAULT_CAPS) -> list[NatTransformation]:
    """All natural transformations, by exhaustive component search."""
    mc = f.mc
    spaces = []
    total = 1
    for a in range(len(mc.objects)):
        maps = list(itertools.product(range(g.size(a)), repeat=f.size(a)))
        if not maps:
            maps = [()] if f.size(a) == 0 else []
        total *= max(len(maps), 1)
        caps.check("max_cocones", total)
        if not maps:
            return []
        spaces.append(maps)
    out = []
    for combo in itertools.product(*spaces):
        if is_natural(f, g, combo):
            out.append(NatTransformation(f, g, tuple(combo)))
    return out


def presheaves_isomorphic(f: Presheaf, g: Presheaf,
                          caps: Caps = DEFAULT_CAPS) -> NatTransformation | None:
    if any(f.size(a) != g.size(a) for a in range(len(f.values))):
        return None
    for nt in nat_transformations(f, g, caps=caps):
        if nt.is_bijective():
            return nt
    return None


# ---------------------------------------------------------------------------
# Day convolution


@dataclass(frozen=True, eq=False)
class DayTensorResult:
    """The Day tensor as a quotient: all triples per object, their
    partition into classes, and the induced presheaf on classes."""

    mc: MonoidalCategory
    left: Presheaf
    right: Presheaf
    triples: tuple[tuple[Triple, ...], ...]
    class_of: tuple[dict[Triple, int], ...]
    classes: tuple[tuple[tuple[Triple, ...], ...], ...]
    presheaf: Presheaf

    def class_count(self, a: int) -> int:
        return len(self.classes[a])


def day_tensor(mc: MonoidalCategory, left: Presheaf, right: Presheaf,
               caps: Caps = DEFAULT_CAPS) -> DayTensorResult:
    """Quotient construction of the Day tensor.

    Per object A the triples are (B, C, h: A -> B (x) C, x, y), and each
    pair f: B -> B', g: C -> C' slides (B, C, h, F(f) x', G(g) y') onto
    (B', C', (f (x) g) o h, x', y'); the classes are the least
    equivalence relation holding these slides, closed with union-find.

    One-variable slides, the pairs (f, id) and (id, g), generate the
    same relation, so they are applied from each triple outward and no
    morphism into the tensor is searched for.  The slide of (f, g) from
    (B, C, h, F(f) x', G(g) y') is the slide of (id_B, g) to
    (B, C', k, F(f) x', y'), with k = (id_B (x) g) o h, followed by the
    slide of (f, id_C') to (B', C', (f (x) id) o k, x', y'), and
    (f (x) id) o (id (x) g) = f (x) g.  This needs the interchange and
    identity laws of the tensor, which ``validate`` checks, and
    F(id) = id and G(id) = id, which ``check_presheaf`` checks of a
    presheaf document and every built presheaf has by construction; by
    the same laws a slide of (id, id) moves nothing, so identities are
    not slid.

    Slides compose, so only a generating set is slid along.  F is a
    functor, so F(f' o f) = F(f) o F(f'), and (f' o f) (x) id =
    (f' (x) id) o (f (x) id); so the slide along (f' o f, id) from
    (B, C, h, F(f' o f) x'', y) is the slide along (f, id) to
    (B', C, (f (x) id) o h, F(f') x'', y), followed by the slide along
    (f', id), and likewise in the second variable.  A set of morphisms
    whose closure under composition holds every non-identity morphism
    therefore gives the same classes (Mac Lane, *CWM* II.7-8), and
    ``FinCategory.generators`` is such a set.

    The triples are numbered in sorted order, so the classes come out
    sorted with no sort: one pass over the numbers, bucketing each by its
    union-find root, opens a class's bucket at its least member and
    appends the rest in increasing order.  The buckets are therefore
    ordered by least member, each sorted, whatever the roots and the
    order of the unions, so no output depends on either or on the set
    slid along.

    The action of the quotient, precomposition on h, is read from each
    class's first member, and neither it nor the quotient is checked:
    both hold by construction.  Precomposing with m: A' -> A sends the
    slide along (f, g) from (B, C, h, F(f) x', G(g) y') to the slide along
    the same (f, g) from (B, C, h o m, F(f) x', G(g) y'), since
    ((f (x) g) o h) o m = (f (x) g) o (h o m); that slide was made at A',
    so related triples at A stay related at A', by associativity alone,
    for the classes actually built and whatever set is slid along.  The
    action is then functorial by associativity and the identity law, as
    for ``_precomposition_presheaf``.  ``brute_day_classes`` in the test
    suite computes the action from every member, and
    ``test_built_presheaves_pass_check_presheaf`` runs ``check_presheaf``
    on quotients; both are the oracles of this reduction.
    """
    presheaf_cap_check(left, caps)
    presheaf_cap_check(right, caps)
    cat = mc.cat
    hom_table, compose = cat.hom_table, cat.compose
    n_obj = len(mc.objects)
    ids = cat.identity
    outgoing = _outgoing([cat.morphisms[f] for f in cat.generators], n_obj)
    l_size = [left.size(b) for b in range(n_obj)]
    r_size = [right.size(c) for c in range(n_obj)]
    # per (B, C) holding triples, its slides (B', C', f (x) g, F f, G g)
    # with one of f, g an identity, into a (B', C') holding triples too
    slides = {}
    for b in range(n_obj):
        for c in range(n_obj):
            if not (l_size[b] and r_size[c]):
                continue
            moves = [(f, ids[c]) for f in outgoing[b]] + \
                [(ids[b], g) for g in outgoing[c]]
            slides[(b, c)] = [
                (mc.cod(f), mc.cod(g), mc.tensor_mor(f, g), left.action[f],
                 right.action[g])
                for f, g in moves if l_size[mc.cod(f)] and r_size[mc.cod(g)]]
    pairs = [(b, c, mc.tensor_obj(b, c), l_size[b] * r_size[c]) for b, c in slides]
    # each morphism's position in its hom-set, to number the triples
    pos = {h: k for hs in hom_table.values() for k, h in enumerate(hs)}
    all_triples: list[tuple[Triple, ...]] = []
    all_class_of: list[dict[Triple, int]] = []
    all_classes: list[tuple[tuple[Triple, ...], ...]] = []

    for a in range(n_obj):
        # every slide out of a triple at A lands in a nonempty hom-set, so
        # the (B, C) with none into B (x) C are never named
        sources, start, count = [], {}, 0
        for b, c, bc, block in pairs:
            hs = hom_table.get((a, bc))
            if hs:
                sources.append((b, c, hs))
                start[(b, c)] = count
                count += len(hs) * block
        caps.check("max_cocones", count)
        # the triples in sorted order: (B, C, h, x, y) is number
        # start[B, C] + (pos[h] * |F B| + x) * |G C| + y
        triples: list[Triple] = [(b, c, h, x, y) for b, c, hs in sources for h in hs
                                 for x in range(l_size[b]) for y in range(r_size[c])]
        parent = list(range(count))
        for b, c, hs in sources:
            n_c = r_size[c]
            for h in hs:
                here = start[(b, c)] + pos[h] * l_size[b] * n_c
                for b2, c2, k, x_map, y_map in slides[(b, c)]:
                    n2 = r_size[c2]
                    there = start[(b2, c2)] + pos[compose(k, h)] * l_size[b2] * n2
                    # the triple (x2, y2) there is slid onto (F f x2, G g y2)
                    # here: the union of their numbers, by path halving
                    for x in x_map:
                        row = here + x * n_c
                        for j, y in enumerate(y_map, there):
                            i = row + y
                            while parent[i] != i:
                                parent[i] = i = parent[parent[i]]
                            while parent[j] != j:
                                parent[j] = j = parent[parent[j]]
                            if i != j:
                                parent[i] = j
                        there += n2
        # in number order, a root's bucket opens at its class's least member
        buckets: dict[int, list[Triple]] = {}
        for i, triple in enumerate(triples):
            root = i
            while parent[root] != root:
                parent[root] = root = parent[parent[root]]
            buckets.setdefault(root, []).append(triple)
        groups = tuple(map(tuple, buckets.values()))
        all_triples.append(tuple(triples))
        all_classes.append(groups)
        all_class_of.append({t: k for k, grp in enumerate(groups) for t in grp})

    # each class by its first member, which the action precomposes
    values = tuple(tuple(grp[0] for grp in all_classes[a]) for a in range(n_obj))
    quotient = Presheaf(mc, values, {
        m.mid: tuple(all_class_of[m.dom][(b, c, compose(h, m.mid), x, y)]
                     for b, c, h, x, y in values[m.cod])
        for m in mc.morphisms})
    return DayTensorResult(mc, left, right, tuple(all_triples),
                           tuple(all_class_of), tuple(all_classes), quotient)


def day_tensor_mor(day_src: DayTensorResult, day_tgt: DayTensorResult,
                   phi: NatTransformation, psi: NatTransformation
                   ) -> NatTransformation:
    """The tensor of presheaf morphisms on quotient classes:
    (h, x, y) -> (h, phi(x), psi(y)); verified well defined and natural."""
    mc = day_src.mc
    components = []
    for a in range(len(mc.objects)):
        row = []
        for grp in day_src.classes[a]:
            images = {day_tgt.class_of[a][(b, c, h, phi.components[b][x],
                                           psi.components[c][y])]
                      for (b, c, h, x, y) in grp}
            if len(images) != 1:
                raise ConsistencyError("Day tensor of morphisms ill defined",
                                       details={"object": a, "class": grp})
            row.append(images.pop())
        components.append(tuple(row))
    nt = NatTransformation(day_src.presheaf, day_tgt.presheaf, tuple(components))
    if not is_natural(day_src.presheaf, day_tgt.presheaf, nt.components):
        raise ConsistencyError("Day tensor of morphisms not natural")
    return nt


def identity_nat(p: Presheaf) -> NatTransformation:
    return NatTransformation(p, p, tuple(tuple(range(p.size(a)))
                                         for a in range(len(p.values))))


def day_unitors(mc: MonoidalCategory, p: Presheaf,
                caps: Caps = DEFAULT_CAPS) -> tuple[NatTransformation, NatTransformation]:
    """The unitor isomorphisms F (x) I -> F and I (x) F -> F of the Day
    structure, computed from their explicit formulas and verified to be
    natural bijections.

    The unit presheaf is the representable of the tensor unit, so its
    elements are morphism ids and can be composed into the coordinates.
    """
    unit_p = yoneda(mc, mc.unit)
    right = day_tensor(mc, p, unit_p, caps=caps)
    left = day_tensor(mc, unit_p, p, caps=caps)
    # collapse the unit coordinate, a morphism into the unit, into h
    rho = _unitor(right, p, "right", lambda b, c, h, x, y: p.apply(
        mc.compose(_tensor_left(mc, b, unit_p.values[c][y]), h), x))
    lam = _unitor(left, p, "left", lambda b, c, h, x, y: p.apply(
        mc.compose(_tensor_right(mc, unit_p.values[b][x], c), h), y))
    for name, nt in (("right", rho), ("left", lam)):
        if not is_natural(nt.source, p, nt.components):
            raise ConsistencyError(f"{name} unitor not natural")
        if not nt.is_bijective():
            raise ConsistencyError(f"{name} unitor not invertible")
    return rho, lam


def _unitor(day: DayTensorResult, p: Presheaf, side: str,
            collapse) -> NatTransformation:
    """The components of a unitor out of the Day tensor ``day`` of ``p``
    with the unit presheaf: each class goes to ``collapse(b, c, h, x, y)``,
    which must be the same for every member of the class."""
    parts = []
    for a, groups in enumerate(day.classes):
        row = []
        for grp in groups:
            values = {collapse(*triple) for triple in grp}
            if len(values) != 1:
                raise ConsistencyError(f"{side} unitor ill defined",
                                       details={"object": a, "class": grp})
            row.append(values.pop())
        parts.append(tuple(row))
    return NatTransformation(day.presheaf, p, tuple(parts))


# ---------------------------------------------------------------------------
# sieves: the subunits of the presheaf category


@dataclass(frozen=True)
class Sieve:
    """A subfunctor of the morphisms into the unit: a set of morphisms
    closed under precomposition."""

    members: frozenset[int]

    def at(self, mc: MonoidalCategory, a: int) -> tuple[int, ...]:
        return tuple(m for m in sorted(self.members) if mc.dom(m) == a)


def sieve_presheaf(mc: MonoidalCategory, sieve: Sieve) -> Presheaf:
    return _precomposition_presheaf(
        mc, [sieve.at(mc, a) for a in range(len(mc.objects))])


def all_sieves_on_unit(mc: MonoidalCategory, caps: Caps = DEFAULT_CAPS) -> list[Sieve]:
    into_unit = [m.mid for m in mc.morphisms if m.cod == mc.unit]
    caps.check("max_downset_base", len(into_unit))
    # s o (-) is a sieve, since (s o f) o g = s o (f o g), and a sieve is
    # the union of the s o (-) of its members s = s o id
    principal = [_mask(mc.compose(s, f.mid) for f in mc.morphisms
                       if f.cod == mc.dom(s)) for s in into_unit]
    return [Sieve(frozenset(_bits(m))) for m in _unions(principal)]


def presheaf_subunits(mc: MonoidalCategory, caps: Caps = DEFAULT_CAPS) -> list[Sieve]:
    """The sieves on the unit that are subunits of the presheaf category.

    Two routes are computed and must agree: the factorisation condition
    (every member arises from exactly one Day class of the sieve
    squared), and invertibility of the inclusion tensored with the
    sieve.  The inclusion of a sieve into the unit's representable is
    natural by construction, since it sends each morphism to itself and
    both actions are precomposition, so its naturality is not checked.
    """
    unit_p = yoneda(mc, mc.unit)
    chosen = []
    for sieve in all_sieves_on_unit(mc, caps=caps):
        p = sieve_presheaf(mc, sieve)
        square = day_tensor(mc, p, p, caps=caps)
        route_a = True
        for a in range(len(mc.objects)):
            wanted = {m: 0 for m in p.values[a]}
            for grp in square.classes[a]:
                vals = set()
                for (b, c, h, x, y) in grp:
                    x_mor = p.values[b][x]
                    y_mor = p.values[c][y]
                    vals.add(mc.compose(mc.tensor_mor(x_mor, y_mor), h))
                if len(vals) != 1:
                    raise ConsistencyError("sieve pairing ill defined on a class",
                                           details={"object": a})
                val = vals.pop()
                if val not in wanted:
                    route_a = False
                    break
                wanted[val] += 1
            if not route_a or any(count != 1 for count in wanted.values()):
                route_a = False
                break
        inclusion_parts = []
        for a in range(len(mc.objects)):
            idx = {m: i for i, m in enumerate(unit_p.values[a])}
            inclusion_parts.append(tuple(idx[m] for m in p.values[a]))
        inclusion = NatTransformation(p, unit_p, tuple(inclusion_parts))
        tensored = day_tensor_mor(square, day_tensor(mc, unit_p, p, caps=caps),
                                  inclusion, identity_nat(p))
        route_b = tensored.is_bijective()
        if route_a != route_b:
            raise ConsistencyError(
                "sieve subunit routes disagree",
                details={"sieve": sorted(sieve.members),
                         "factorisation": route_a, "invertibility": route_b})
        if route_a:
            chosen.append(sieve)
    return chosen


# ---------------------------------------------------------------------------
# broad presheaves and the completion categories


@dataclass(frozen=True)
class BroadSpec:
    """A presentation (U, X): a downward-closed family of subunit
    indices and an object, of one of the three flavours."""

    family: tuple[int, ...]
    obj: int
    flavour: str


def make_broad_spec(lat: SubunitSemilattice, family, obj: int,
                    flavour: str) -> BroadSpec:
    family = tuple(sorted(set(family)))
    poset = lat.lattice.poset
    if not poset.is_downset(family):
        raise BuildError("broad family is not downward closed")
    if flavour == "directed":
        if not poset.is_directed(family):
            raise BuildError("broad family is not directed")
    elif flavour not in ("finite", "all"):
        raise ValueError(f"unknown flavour {flavour!r}")
    return BroadSpec(family, obj, flavour)


def broad_presheaf(mc: MonoidalCategory, spec: BroadSpec) -> Presheaf:
    """The presheaf of morphisms into the spec object restricting to a
    member of the family, with precomposition action; the family indexes
    the subunits of ``subunit_semilattice(mc)``."""
    table = restriction_table(mc)
    family = _mask(spec.family)
    return _precomposition_presheaf(
        mc, [tuple(f for f in mc.hom(a, spec.obj) if table[f] & family)
             for a in range(len(mc.objects))])


@dataclass(frozen=True, eq=False)
class BroadCompletion:
    source: MonoidalCategory
    flavour: str
    lat: SubunitSemilattice
    category: MonoidalCategory
    specs: tuple[BroadSpec, ...]
    cocones: tuple[tuple[int, ...], ...]  # per completion morphism, source legs
    embedding: CatFunctor


def _flavour_families(lat: SubunitSemilattice, flavour: str,
                      caps: Caps) -> list[tuple[int, ...]]:
    if flavour == "all":
        dl = downsets(lat.lattice, caps=caps)
    elif flavour == "finite":
        dl = finitely_bounded_downsets(lat.lattice, caps=caps)
    elif flavour == "directed":
        dl = directed_downsets(lat.lattice)
    else:
        raise ValueError(f"unknown flavour {flavour!r}")
    return [tuple(sorted(s)) for s in dl.sets]


def _restriction_factor(mc: MonoidalCategory, lat: SubunitSemilattice,
                        family, leg: int) -> tuple[int, int]:
    """The least (t, h) with leg = (t (x) target) o h and t in family."""
    for t in _bits(restriction_table(mc)[leg] & _mask(family)):
        return t, restricts_to(mc, leg, lat.subunits[t])
    raise ConsistencyError("cocone leg does not restrict into the family",
                           details={"leg": leg, "family": family})


def _thin_hom_masks(down, nodes) -> list[int]:
    """The hom-sets of the completion of a thin source, as one mask of
    target specs per source spec.  ``nodes`` lists, per spec (U, X), the
    objects S (x) X for s in U, and ``down`` is the source's down-set
    masks; bit b of row a is set exactly when N & ~R == 0, for N the
    mask of the nodes of spec a and R the OR of the down-sets of the
    nodes of spec b (see ``broad_category``).  N & ~R == 0 says that each
    node of spec a lies in R, so row a is the AND, over the nodes of
    spec a, of the mask of specs b whose R holds that node (every spec
    when spec a has no nodes)."""
    holding = [0] * len(down)
    for b, objs in enumerate(nodes):
        below = 0
        for obj in objs:
            below |= down[obj]
        for obj in _bits(below):
            holding[obj] |= 1 << b
    everything = (1 << len(nodes)) - 1
    rows = []
    for objs in nodes:
        row = everything
        for obj in objs:
            row &= holding[obj]
        rows.append(row)
    return rows


def broad_category(mc: MonoidalCategory, flavour: str = "all",
                   caps: Caps = DEFAULT_CAPS) -> BroadCompletion:
    """The completion of a stiff category by broad presheaves of the
    given flavour, presented intensionally.

    Objects are canonical pairs (downward-closed family, object);
    morphisms (U, X) -> (V, Y) are cocones over the diagram of the
    S (x) X whose legs restrict into V; composition pastes cocones
    through a restriction factorisation, checked independent of the
    factorisation chosen.  The factorisations of a leg through the
    middle family depend on that leg and the middle spec alone, not on
    the outer cocone, so they are listed once per (leg, middle spec);
    every composite still compares all of them.  ``max_morphisms`` is
    checked as the cocones are listed.  The embedding sends an object A
    to the pair (all subunits, A).

    On a thin source the completion is thin: a cocone's legs are the
    unique morphisms S (x) X -> Y, so a completion hom-set holds at most
    one cocone, named by its (source spec, target spec) alone.  It keeps
    no composition table, and its identities, braiding and embedded
    morphisms are the one cocone of their hom-sets.  The pasted
    composite of alpha: (U, X) -> (V, Y) and beta: (V, Y) -> (W, Z)
    always exists, as the construction checks: a leg of alpha factors
    as (t (x) Y) o h with t in V, and beta_t o h restricts into W
    wherever beta_t does.  Its hom-sets are decided by masks, with no
    cocone listed or checked: a leg c: S (x) X -> Y restricts to t
    exactly when S (x) X <= T (x) Y, for c then factors through
    t (x) Y by typing, and any two parallel composites agree.  So with
    N(U, X) the mask of the nodes S (x) X for s in U and R(V, Y) the OR
    over t in V of the down-sets of T (x) Y, (U, X) -> (V, Y) holds one
    cocone exactly when N & ~R == 0 (``_thin_hom_masks``), with legs the
    morphisms S (x) X -> Y in family order, built once per (source spec,
    target object).  A nonempty row of masks counts one cocone against
    ``max_cocones``, as its first cocone would in the listing.
    ``max_morphisms`` is checked once per row, at min(n + k,
    max(n, limit) + 1) for a row of k cocones after n: the listing
    checks the running counts n + 1, ..., n + k and refuses at the first
    above the limit, which is that same number (limit + 1 unless the
    limit is negative), so both refuse with the same (limit, actual).
    The result is validated and the embedding checked strict monoidal.
    Other sources list and check every cocone over ``d_diagram`` and
    paste every composite, the test oracle of this path.
    """
    stiff = is_stiff(mc)
    if not stiff.holds:
        raise BuildError("broad completion requires a stiff category", stiff)
    lat = subunit_semilattice(mc)
    families = _flavour_families(lat, flavour, caps)
    specs = [BroadSpec(fam, x, flavour)
             for fam in sorted(families) for x in range(len(mc.objects))]
    spec_index = {(s.family, s.obj): k for k, s in enumerate(specs)}

    thin = mc.is_thin()
    mor_defs: list[tuple[int, int, tuple[int, ...]]] = []
    # keyed by (source, target) on a thin source, else (source, target, legs)
    mor_index: dict[tuple, int] = {}

    if thin:
        nodes = [tuple(mc.tensor_obj(lat.subunits[i].domain, s.obj) for i in s.family)
                 for s in specs]
        hom_table = mc.cat.hom_table
        for a, row in enumerate(_thin_hom_masks(mc.cat.down, nodes)):
            if not row:
                continue
            # once per row, refusing as the listing would (see above)
            caps.check("max_cocones", 1)
            count = len(mor_defs)
            caps.check("max_morphisms", min(count + row.bit_count(),
                                            max(count, caps.max_morphisms) + 1))
            legs_into: dict[int, tuple[int, ...]] = {}
            for b in _bits(row):
                y = specs[b].obj
                legs = legs_into.get(y)
                if legs is None:
                    legs = legs_into[y] = tuple(hom_table[(node, y)][0]
                                                for node in nodes[a])
                mor_index[(a, b)] = len(mor_defs)
                mor_defs.append((a, b, legs))
    else:
        diagrams = {s: d_diagram(mc, lat, s.family, s.obj) for s in specs}
        table = restriction_table(mc)

        def hom_cocones(src: BroadSpec, dst: BroadSpec) -> list[tuple[int, ...]]:
            diagram = diagrams[src]
            fam_dst = _mask(dst.family)
            candidate_legs = []
            count = 1
            for node in diagram.nodes:
                legs = [c for c in mc.hom(node, dst.obj) if table[c] & fam_dst]
                count *= len(legs)
                candidate_legs.append(legs)
                if count == 0:
                    return []
            caps.check("max_cocones", count)
            return [legs for legs in itertools.product(*candidate_legs)
                    if is_cocone(mc, diagram, Cocone(dst.obj, legs))]

        for a, src in enumerate(specs):
            for b, dst in enumerate(specs):
                for legs in hom_cocones(src, dst):
                    mor_index[(a, b, legs)] = len(mor_defs)
                    mor_defs.append((a, b, legs))
                    # checked as the count grows, so that an over-cap
                    # completion is refused before the rest of the sweep
                    caps.check("max_morphisms", len(mor_defs))
    # one object per spec: refuse before the composition and tensor tables,
    # where nearly all the work lies; checked after max_morphisms so that
    # an input over both caps still names the one it always named
    caps.check("max_objects", len(specs))

    def cocone(a: int, b: int, legs, what: str) -> int:
        """The completion morphism a -> b with these legs.  On a thin
        source it is the one of its hom-set, and the iterable ``legs``
        is not read."""
        key = (a, b) if thin else (a, b, tuple(legs))
        if key not in mor_index:
            raise ConsistencyError(f"{what} escaped the hom sets",
                                   details={"key": key})
        return mor_index[key]

    # (leg, middle spec) -> every (position, h) with (t (x) Y) o h = leg
    # for t the member at that position; the outer cocone plays no part
    factorisations: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def leg_factorisations(leg: int, mid: int) -> list[tuple[int, int]]:
        mid_spec = specs[mid]
        found = factorisations[(leg, mid)] = []
        for pos, t in enumerate(mid_spec.family):
            # restricts_to(leg, t) is None exactly when no h has
            # (t (x) Y) o h = leg, so the sweep below would find none
            if not table[leg] >> t & 1:
                continue
            target = _tensor_right(mc, lat.subunits[t].rep, mid_spec.obj)
            found.extend((pos, h)
                         for h in mc.hom(mc.dom(leg), mc.dom(target))
                         if mc.compose(target, h) == leg)
        return found

    def compose_cocones(kb: int, ka: int) -> int:
        # each composite leg depends only on the factorisation of its own
        # leg through the middle family, so well-definedness reduces to a
        # per-leg comparison over every factorisation
        a_src, a_dst, a_legs = mor_defs[ka]
        b_src, b_dst, b_legs = mor_defs[kb]
        new_legs = []
        for leg in a_legs:
            found = factorisations.get((leg, a_dst))
            if found is None:
                found = leg_factorisations(leg, a_dst)
            candidates = {mc.compose(b_legs[pos], h) for pos, h in found}
            if len(candidates) != 1:
                raise ConsistencyError(
                    "cocone pasting depends on the factorisation",
                    details={"alpha": ka, "beta": kb, "leg": leg,
                             "candidates": sorted(candidates)})
            new_legs.append(candidates.pop())
        return cocone(a_src, b_dst, new_legs, "composite cocone")

    cat = _tabulate(
        [f"{_downset_label(lat.lattice.poset, s.family)}[{mc.obj_label(s.obj)}]"
         for s in specs],
        [(a, b, f"c{k}") for k, (a, b, _) in enumerate(mor_defs)],
        [cocone(k, k, (_tensor_right(mc, lat.subunits[i].rep, spec.obj)
                       for i in spec.family), "identity cocone")
         for k, spec in enumerate(specs)],
        None if thin else compose_cocones)

    tensor_family = {(fu, fv): tuple(sorted(lat.lattice.poset.down_closure(
                         {lat.meet(i, j) for i in fu for j in fv})))
                     for fu in families for fv in families}
    t_obj_idx = [[spec_index[(tensor_family[(s1.family, s2.family)],
                              mc.tensor_obj(s1.obj, s2.obj))] for s2 in specs]
                 for s1 in specs]

    prefix_cache: dict[tuple[int, int], tuple[tuple[int, int, int], ...]] = {}

    def tensor_cocones(ka: int, kb: int) -> int:
        a_src, a_dst, a_legs = mor_defs[ka]
        b_src, b_dst, b_legs = mor_defs[kb]
        if (a_src, b_src) not in prefix_cache:
            prefix_cache[(a_src, b_src)] = _tensor_leg_prefixes(
                mc, lat, specs[a_src], specs[b_src],
                specs[t_obj_idx[a_src][b_src]].family)
        legs = _tensor_legs(mc, prefix_cache[(a_src, b_src)], a_legs, b_legs)
        return cocone(t_obj_idx[a_src][b_src], t_obj_idx[a_dst][b_dst], legs,
                      "tensor of cocones")

    def braiding_cocone(k1: int, k2: int) -> int:
        src_idx, dst_idx = t_obj_idx[k1][k2], t_obj_idx[k2][k1]
        if thin:
            # the one cocone of its hom-set, which ``cocone`` names
            # without reading legs
            return cocone(src_idx, dst_idx, (), "braiding cocone")
        s1, s2 = specs[k1], specs[k2]
        legs = (mc.compose(_tensor_right(mc, lat.subunits[r].rep,
                                         mc.tensor_obj(s2.obj, s1.obj)),
                           _tensor_left(mc, lat.subunits[r].domain,
                                        mc.braiding(s1.obj, s2.obj)))
                for r in specs[src_idx].family)
        return cocone(src_idx, dst_idx, legs, "braiding cocone")

    full_family = tuple(range(len(lat)))
    completion = assert_valid(_tabulate_monoidal(
        cat, spec_index[(full_family, mc.unit)], t_obj_idx,
        tensor_cocones, braiding_cocone),
        caps=caps)

    emb_obj = tuple(spec_index[(full_family, a)] for a in range(len(mc.objects)))
    emb_mor = tuple(
        cocone(emb_obj[f.dom], emb_obj[f.cod],
               (mc.compose(f.mid, _tensor_right(mc, lat.subunits[i].rep, f.dom))
                for i in full_family), "embedded morphism")
        for f in mc.morphisms)
    embedding = CatFunctor(mc, completion, emb_obj, emb_mor)
    embedding.check_strict_monoidal()
    return BroadCompletion(mc, flavour, lat, completion, tuple(specs),
                           tuple(legs for _, _, legs in mor_defs), embedding)


def _tensor_leg_prefixes(mc: MonoidalCategory, lat: SubunitSemilattice,
                         su: BroadSpec, sv: BroadSpec,
                         family) -> tuple[tuple[int, int, int], ...]:
    """The leg formula of the tensor of two cocone morphisms out of su
    and sv, up to the legs themselves.

    The leg at a member r of the tensor family factors r through the
    first meet of the two families above it, shuffles the middle factors
    with the braiding, and applies the given legs at that pair; per r
    this returns the positions (ui, vj) of the pair and the prefix, which
    depend only on the two specs.
    """
    out = []
    for r in family:
        rsub = lat.subunits[r]
        chosen = None
        for ui, i in enumerate(su.family):
            for vj, j in enumerate(sv.family):
                if not lat.leq(r, lat.meet(i, j)):
                    continue
                meet_mono = mc.tensor_mor(lat.subunits[i].rep,
                                          lat.subunits[j].rep)
                k = factors_through(mc, rsub.rep, meet_mono)
                if k is None:
                    raise ConsistencyError(
                        "meet factorisation missing", details={"r": r})
                shuffle = mc.tensor_mor(
                    mc.tensor_mor(
                        mc.identity(lat.subunits[i].domain),
                        mc.braiding(lat.subunits[j].domain, su.obj)),
                    mc.identity(sv.obj))
                prefix = mc.compose(
                    shuffle,
                    _tensor_right(mc, k, mc.tensor_obj(su.obj, sv.obj)))
                chosen = (ui, vj, prefix)
                break
            if chosen is not None:
                break
        if chosen is None:
            raise ConsistencyError("tensor family member above no meet",
                                   details={"r": r})
        out.append(chosen)
    return tuple(out)


def _tensor_legs(mc: MonoidalCategory, prefixes, a_legs, b_legs) -> tuple[int, ...]:
    return tuple(mc.compose(mc.tensor_mor(a_legs[ui], b_legs[vj]), prefix)
                 for ui, vj, prefix in prefixes)


def completion_has_no_terminal(completion: BroadCompletion) -> bool:
    return terminal_object(completion.category) is None


def tensor_of_morphisms_by_legs(completion: BroadCompletion, ka: int,
                                kb: int) -> int:
    """Recompute the tensor of two completion morphisms from the leg
    formula, independently of a thin completion's tensor, which is read
    off its hom table; the two must agree."""
    cat = completion.category
    specs = completion.specs
    index = {(cat.dom(k), cat.cod(k), completion.cocones[k]): k
             for k in range(len(cat.morphisms))}
    a_src, b_src = cat.dom(ka), cat.dom(kb)
    src = cat.tensor_obj(a_src, b_src)
    prefixes = _tensor_leg_prefixes(completion.source, completion.lat,
                                    specs[a_src], specs[b_src], specs[src].family)
    legs = _tensor_legs(completion.source, prefixes, completion.cocones[ka],
                        completion.cocones[kb])
    return index[(src, cat.tensor_obj(cat.cod(ka), cat.cod(kb)), legs)]


# ---------------------------------------------------------------------------
# functor extension along the completion


def extend_functor(completion: BroadCompletion, functor: CatFunctor,
                   caps: Caps = DEFAULT_CAPS) -> CatFunctor:
    """Extend a strict monoidal subunit-preserving functor to the
    completion: a spec (U, X) is sent to (join of the image of U) (x)
    F(X), and a cocone morphism to the unique mediating morphism out of
    the corresponding colimit in the target.

    The target must have the universal joins matching the completion
    flavour; it is rejected otherwise.  The extension is verified to be
    a functor agreeing with the original along the embedding and to
    carry each family spec to the join of its image.
    """
    mc = completion.source
    target = functor.target
    functor.check_strict_monoidal()
    if completion.flavour == "all":
        joins = is_locale_based(target, caps=caps)
    elif completion.flavour == "finite":
        joins = has_universal_finite_joins(target, caps=caps)
    else:
        joins = has_universal_directed_joins(target, caps=caps)
    if not joins.holds:
        raise BuildError(
            f"target lacks universal {completion.flavour} joins", joins)
    lat = completion.lat
    lat_t = subunit_semilattice(target)

    image_sub = []
    for s in lat.subunits:
        img = functor.on_mor(s.rep)
        found = next((k for k, t in enumerate(lat_t.subunits)
                      if img in t.cls.members), None)
        if found is None:
            raise BuildError(
                f"functor does not preserve the subunit at {s.rep}")
        image_sub.append(found)

    def family_join(family) -> int:
        if family:
            j = lat_t.join(image_sub[i] for i in family)
        else:
            j = lat_t.bottom()
        if j is None:
            raise BuildError("target subunits lack a needed join")
        return j

    obj_map = []
    for spec in completion.specs:
        w = lat_t.subunits[family_join(spec.family)]
        obj_map.append(target.tensor_obj(w.domain, functor.on_obj(spec.obj)))

    mor_map = []
    for k, m in enumerate(completion.category.morphisms):
        src_spec = completion.specs[m.dom]
        dst_spec = completion.specs[m.cod]
        legs = completion.cocones[k]
        w_src = lat_t.subunits[family_join(src_spec.family)]
        w_dst = lat_t.subunits[family_join(dst_spec.family)]
        fx = functor.on_obj(src_spec.obj)
        fy = functor.on_obj(dst_spec.obj)
        colim_legs, rhos = [], []
        for pos, i in enumerate(src_spec.family):
            t_idx = image_sub[i]
            incl = factors_through(target, lat_t.subunits[t_idx].rep, w_src.rep)
            colim_legs.append(_tensor_right(target, incl, fx))
            t2, h = _restriction_factor(mc, lat, dst_spec.family, legs[pos])
            incl2 = factors_through(target, lat_t.subunits[image_sub[t2]].rep,
                                    w_dst.rep)
            rhos.append(target.compose(_tensor_right(target, incl2, fy),
                                       functor.on_mor(h)))
        fillers = mediating_morphisms(
            target, Cocone(target.tensor_obj(w_src.domain, fx), tuple(colim_legs)),
            Cocone(target.tensor_obj(w_dst.domain, fy), tuple(rhos)))
        if len(fillers) != 1:
            raise ConsistencyError(
                "mediating morphism for the extension not unique",
                details={"morphism": k, "fillers": fillers})
        mor_map.append(fillers[0])

    extension = CatFunctor(completion.category, target, tuple(obj_map),
                           tuple(mor_map))
    extension.check_functor()
    if target.is_thin():
        extension.check_strict_monoidal()
    emb = completion.embedding
    for a in range(len(mc.objects)):
        if extension.on_obj(emb.on_obj(a)) != functor.on_obj(a):
            raise ConsistencyError("extension moves an embedded object",
                                   details={"object": a})
    for f in mc.morphisms:
        if extension.on_mor(emb.on_mor(f.mid)) != functor.on_mor(f.mid):
            raise ConsistencyError("extension moves an embedded morphism",
                                   details={"morphism": f.mid})
    for spec_idx, spec in enumerate(completion.specs):
        if spec.obj == mc.unit:
            w = lat_t.subunits[family_join(spec.family)]
            if extension.on_obj(spec_idx) != target.tensor_obj(w.domain,
                                                               target.unit):
                raise ConsistencyError("extension misses the family join",
                                       details={"spec": spec})
    return extension
