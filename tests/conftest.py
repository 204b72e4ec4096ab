from __future__ import annotations

import contextlib
import dataclasses
import itertools
import types
import weakref

import pytest
from hypothesis import strategies as st

from ttw import fincat, gallery, restriction, subunits
from ttw.caps import DEFAULT_CAPS
from ttw._unionfind import UnionFind
from ttw.daycat import Sieve, broad_category, presheaf_cap_check
from ttw.errors import (CapExceededError, ConsistencyError, NonCommutingSquareError,
                        TtwError)
from ttw.fincat import from_semilattice
from ttw.fractions import simple_quotient
from ttw.orderkit import DownsetLattice, FinMonoid, FinPoset, Semilattice, downsets
from ttw.subunits import (PropertyReport, _initial_with_zero_tensor, _tensor_left,
                          _tensor_right, d_diagram, is_stiff, subunit_semilattice)

_CACHE: dict[str, object] = {}


def build_cached(name: str):
    if name not in _CACHE:
        _CACHE[name] = gallery.build(name)
    return _CACHE[name]


def completion_cached(name: str, flavour: str):
    """The broad completion of a gallery entry, built once per session;
    for tests that only read it."""
    key = f"{name}/{flavour}"
    if key not in _CACHE:
        _CACHE[key] = broad_category(build_cached(name), flavour)
    return _CACHE[key]


def quotient_cached(name: str, flavour: str | None = None):
    """The simple quotient category of a gallery entry, or of one of its
    broad completions, built once per session."""
    key = f"{name}/{flavour}/simple_quotient"
    if key not in _CACHE:
        mc = (build_cached(name) if flavour is None
              else completion_cached(name, flavour).category)
        _CACHE[key] = simple_quotient(mc).category
    return _CACHE[key]


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


def explicit_tensor(mc) -> dict[tuple[int, int], int]:
    """The tensor on morphisms as an explicit table over every pair of
    mids, for tests that read or corrupt single entries; a thin category
    keeps no such table."""
    n = range(len(mc.morphisms))
    return {(f, g): mc.tensor_mor(f, g) for f in n for g in n}


_FORCED_COMPOSE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def explicit_compose(mc) -> types.MappingProxyType:
    """The composition as an explicit table over every composable pair
    of mids, f outer and g inner, for tests that read single entries or
    corrupt a ``dict`` copy: the category's own table, or on a thin
    category that keeps none, the one morphism dom f -> cod g of each
    pair, read off the hom table once per category object."""
    cat = _cat_of(mc)
    table = cat.compose_table
    if table is None:
        table = _FORCED_COMPOSE.get(cat)
    if table is None:
        out = [[] for _ in cat.objects]
        for g in cat.morphisms:
            out[g.dom].append(g)
        table = _FORCED_COMPOSE[cat] = {
            (g.mid, f.mid): cat.hom(f.dom, g.cod)[0]
            for f in cat.morphisms for g in out[f.cod]}
    return types.MappingProxyType(table)


def with_explicit_compose(mc):
    """A copy of ``mc`` over the same tables that carries
    ``explicit_compose(mc)`` as its composition table."""
    cat = fincat.FinCategory(mc.cat.objects, mc.cat.morphisms, mc.cat.identity,
                             dict(explicit_compose(mc)))
    return fincat.MonoidalCategory(cat, mc.mon)


def brute_untyped_tensor_pairs(cat, tensor_obj) -> list[tuple[int, int]]:
    """Every pair (f, g) of mids with no morphism
    dom f (x) dom g -> cod f (x) cod g, by a sweep over all pairs."""
    mors = cat.morphisms
    return [(f.mid, g.mid) for f in mors for g in mors
            if not cat.hom(tensor_obj[f.dom][g.dom], tensor_obj[f.cod][g.cod])]


# ---------------------------------------------------------------------------
# sweep oracles for the thin (co)limit kernel of ``fincat``: every leg tuple
# into every apex, every cone and every filler is tried, whatever the
# category


def _cat_of(mc):
    return getattr(mc, "cat", mc)


def brute_all_cocones(mc, diagram, caps=DEFAULT_CAPS):
    cat = _cat_of(mc)
    fincat.check_diagram(cat, diagram)
    mors, comp = cat.morphisms, explicit_compose(cat)
    out = []
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
            if all(mors[leg].dom == node and mors[leg].cod == apex
                   for node, leg in zip(diagram.nodes, legs)) and \
                    all(comp[(legs[tgt], mid)] == legs[src]
                        for src, tgt, mid in diagram.edges):
                out.append(fincat.Cocone(apex, legs))
    return out


def brute_mediating(mc, source, target):
    cat = _cat_of(mc)
    comp = explicit_compose(cat)
    return [u for u in cat.hom(source.apex, target.apex)
            if all(comp[(u, leg)] == target.legs[i]
                   for i, leg in enumerate(source.legs))]


def brute_is_colimit(mc, diagram, candidate, cocones=None, caps=DEFAULT_CAPS):
    if cocones is None:
        cocones = brute_all_cocones(mc, diagram, caps=caps)
    return all(len(brute_mediating(mc, candidate, other)) == 1
               for other in cocones)


def brute_colimit(mc, diagram, caps=DEFAULT_CAPS):
    cocones = brute_all_cocones(mc, diagram, caps=caps)
    for candidate in cocones:
        if brute_is_colimit(mc, diagram, candidate, cocones, caps=caps):
            return candidate
    return None


def brute_is_pullback(mc, f, g, p, q):
    cat = _cat_of(mc)
    comp = explicit_compose(cat)
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


def brute_is_pushout(mc, f, g, p, q):
    cat = _cat_of(mc)
    comp = explicit_compose(cat)
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


def brute_is_mono(mc, f):
    cat = _cat_of(mc)
    dom, comp = cat.dom(f), explicit_compose(cat)
    for a in range(len(cat.objects)):
        for g, h in itertools.combinations(cat.hom(a, dom), 2):
            if comp[(f, g)] == comp[(f, h)]:
                return False
    return True


def brute_d_diagram(mc, lat, family, x):
    """D(U, X) with its edges filtered by (t (x) X) o f = s (x) X over
    every morphism between two nodes."""
    family = list(family)
    nodes = tuple(mc.tensor_obj(lat.subunits[i].domain, x) for i in family)
    incl = [mc.tensor_mor(lat.subunits[i].rep, mc.identity(x)) for i in family]
    return fincat.DiagramSpec(nodes, tuple(
        (a, b, f) for a in range(len(family)) for b in range(len(family))
        for f in mc.hom(nodes[a], nodes[b]) if mc.compose(incl[b], f) == incl[a]))


# ---------------------------------------------------------------------------
# sweep oracles for the one-variable reductions: the Day quotient found from
# every target triple and every pair (f, g) into it, and naturality checked
# at every pair of morphisms


def brute_day_classes(mc, left, right, caps=DEFAULT_CAPS):
    """The classes of the Day tensor per object and the action of the
    quotient on them, from the slide of every pair (f, g) onto every
    triple, with a search of the hom-set for each h1."""
    presheaf_cap_check(left, caps)
    presheaf_cap_check(right, caps)
    n_obj = len(mc.objects)
    all_class_of = []
    all_classes = []
    for a in range(n_obj):
        triples = []
        for b in range(n_obj):
            for c in range(n_obj):
                bc = mc.tensor_obj(b, c)
                for h in mc.hom(a, bc):
                    for x in range(left.size(b)):
                        for y in range(right.size(c)):
                            triples.append((b, c, h, x, y))
        caps.check("max_cocones", len(triples))
        uf = UnionFind(triples)
        for (b2, c2, h2, x2, y2) in triples:
            for f in mc.morphisms:
                if f.cod != b2:
                    continue
                x1 = left.apply(f.mid, x2)
                for g in mc.morphisms:
                    if g.cod != c2:
                        continue
                    y1 = right.apply(g.mid, y2)
                    fg = mc.tensor_mor(f.mid, g.mid)
                    for h1 in mc.hom(a, mc.dom(fg)):
                        if mc.compose(fg, h1) == h2:
                            uf.union((f.dom, g.dom, h1, x1, y1),
                                     (b2, c2, h2, x2, y2))
        groups = sorted((tuple(sorted(grp)) for grp in uf.classes()),
                        key=lambda grp: grp[0])
        all_class_of.append({t: k for k, grp in enumerate(groups) for t in grp})
        all_classes.append(tuple(groups))
    action = {}
    for m in mc.morphisms:
        row = []
        for grp in all_classes[m.cod]:
            images = {all_class_of[m.dom][(b, c, mc.compose(h, m.mid), x, y)]
                      for (b, c, h, x, y) in grp}
            if len(images) != 1:
                raise ConsistencyError(
                    "Day action not well defined on a class",
                    details={"morphism": m.mid, "class": grp})
            row.append(images.pop())
        action[m.mid] = tuple(row)
    return tuple(all_classes), action


def product_category(left, right):
    """The product of two braided strict monoidal categories: pairs of
    objects and of morphisms, every table componentwise, validated.
    b2 times z2 has two morphisms between two distinct objects, where a
    corrupted naturality square can fail; a one-object category has no
    such pair."""
    n_r, m_r = len(right.objects), len(right.morphisms)
    pairs = [(f, g) for f in range(len(left.morphisms)) for g in range(m_r)]
    index = {pair: k for k, pair in enumerate(pairs)}
    cat = fincat._tabulate(
        [f"{a},{b}" for a in left.objects for b in right.objects],
        [(left.dom(f) * n_r + right.dom(g), left.cod(f) * n_r + right.cod(g),
          f"{left.mor_label(f)},{right.mor_label(g)}") for f, g in pairs],
        [index[(left.identity(a), right.identity(b))]
         for a in range(len(left.objects)) for b in range(n_r)],
        lambda k2, k1: index[(left.compose(pairs[k2][0], pairs[k1][0]),
                              right.compose(pairs[k2][1], pairs[k1][1]))])
    objs = [(a, b) for a in range(len(left.objects)) for b in range(n_r)]
    return fincat.assert_valid(fincat._tabulate_monoidal(
        cat, left.unit * n_r + right.unit,
        [[left.tensor_obj(a1, a2) * n_r + right.tensor_obj(b1, b2)
          for a2, b2 in objs] for a1, b1 in objs],
        lambda k1, k2: index[(left.tensor_mor(pairs[k1][0], pairs[k2][0]),
                              right.tensor_mor(pairs[k1][1], pairs[k2][1]))],
        lambda o1, o2: index[(left.braiding(objs[o1][0], objs[o2][0]),
                              right.braiding(objs[o1][1], objs[o2][1]))]))


def out_of_range_entry(functor, table: str, past_end: bool):
    """``functor`` with the last entry of its ``table`` ("obj_map" or
    "mor_map") set to the number of objects or morphisms of its target,
    one past the end, or to -1, which Python indexing reads from the
    end."""
    target = functor.target
    size = len(target.objects if table == "obj_map" else target.morphisms)
    entries = getattr(functor, table)
    return dataclasses.replace(
        functor, **{table: entries[:-1] + (size if past_end else -1,)})


OUT_OF_RANGE = [("obj_map", True), ("obj_map", False), ("mor_map", True),
                ("mor_map", False)]


def all_morphism_pairs(mc):
    """Every pair (f, g) of mids, f outer: the pairs each two-variable
    naturality sweep walked before the one-variable reduction."""
    for f in mc.morphisms:
        for g in mc.morphisms:
            yield f.mid, g.mid


@contextlib.contextmanager
def all_pair_sweeps():
    """Within this block, the naturality sweeps of ``restriction``, of
    ``sweep_coreflector_monoidal`` and of ``CatFunctor.check_strict_monoidal``
    (on a target that is not thin) walk ``all_morphism_pairs`` instead of
    ``fincat._one_variable_pairs``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fincat, "_one_variable_pairs", all_morphism_pairs)
        patch.setattr(restriction, "_one_variable_pairs", all_morphism_pairs)
        yield


def sweep_functor_tensor(functor):
    """The first pair (f, g) of ``fincat._one_variable_pairs`` of the
    source with F(f (x) g) != F f (x) F g, or None: the sweep that
    ``CatFunctor.check_strict_monoidal`` runs on a target that is not
    thin, kept as the oracle of its thin branch, which checks no pair."""
    src, tgt = functor.source, functor.target
    for f, g in fincat._one_variable_pairs(src):
        if functor.on_mor(src.tensor_mor(f, g)) != \
                tgt.tensor_mor(functor.on_mor(f), functor.on_mor(g)):
            return f, g
    return None


@contextlib.contextmanager
def generic_hierarchy_sweeps():
    """Within this block, ``MonoidalCategory.is_thin`` answers False, so
    the characterisation and the locale-based check of ``subunits`` run
    the sweeps they run on every non-thin category, over D(U, X)
    diagrams, ``is_stiff`` and ``has_universal_finite_joins`` build and
    test every square, ``_initial_with_zero_tensor`` tests each X (x) 0
    against every cocone over the empty diagram, and the coreflection
    and comonad checks of ``restriction`` and the coreflector oracle
    ``sweep_coreflector_monoidal`` sweep every law square instead of
    checking typing and existence only; ``verify_right_fractions`` walks every
    member pair and searches every Ore filler, ``localise`` builds the
    span construction, ``broad_category`` pastes every composite cocone,
    ``restriction_category`` tabulates its composites, and
    ``CatFunctor.check_functor`` sweeps every composable pair and
    ``check_strict_monoidal`` the one-variable tensor pairs on every
    target.  Those constructions build an explicit
    composition table where the thin route builds none, so their
    results are compared through ``explicit_compose``.
    ``FinCategory.generators`` is every non-identity morphism, as on a
    category that is not thin, so ``day_tensor`` slides along all of
    them and ``validate`` types the tensor of each; it is patched as a
    property, which wins over a value an earlier read cached on the
    instance.
    ``FinCategory.is_thin`` is untouched: the fincat kernels (colimits,
    pullbacks, ``is_mono``) still read the up- and down-set masks, and a
    thin result of either route keeps no tensor table.
    ``is_stiff``, as ``subunits`` calls it, skips its memo in
    ``mc.derived``, which may hold the thin route's report, and
    ``restriction.restriction_category`` tabulates the top subunit's
    restriction too, where it would return the category itself.
    ``has_universal_directed_joins`` and ``verify_graded_monad`` have one
    path for every category, and ``sweep_universal_directed_joins`` and
    ``sweep_graded_monad`` are their oracles."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fincat.MonoidalCategory, "is_thin", lambda self: False)
        patch.setattr(fincat.FinCategory, "generators", property(
            lambda cat: tuple(m.mid for m in cat.morphisms
                              if m.mid != cat.identity[m.dom])))
        patch.setattr(subunits, "is_stiff", is_stiff.__wrapped__)
        patch.setattr(restriction, "restriction_category",
                      restriction._tabulated_restriction)
        yield


def sweep_join_preserved(mc, lat, family, j, caps=DEFAULT_CAPS):
    """``subunits._join_preserved`` visiting every object X in turn, not
    only the least member of each isomorphism class."""
    cat, tensor = mc.cat, mc.mon.tensor_obj
    rows = [tensor[lat.subunits[i].domain] for i in family]
    for x in range(len(mc.objects)):
        bounds = fincat._common_upper_bounds(cat, [row[x] for row in rows], caps)
        if bounds & ~cat.up[tensor[j][x]]:
            return x, fincat._least_upper_bound(cat, bounds)
    return None


def sweep_universal_directed_joins(mc, include_empty=True, caps=DEFAULT_CAPS):
    """Universal directed joins with every nonempty directed family
    swept: the colimit of D(U, I), the subunit test of its arrow to the
    unit, and its preservation by every X (x) (-), on thin and non-thin
    categories alike."""
    stiff = is_stiff(mc)
    if not stiff.holds:
        return PropertyReport("universal_directed_joins", False,
                              witness=stiff.witness,
                              details={"stage": "stiff"})
    lat = subunit_semilattice(mc)
    if include_empty:
        ini, zero_arrow, problem = _initial_with_zero_tensor(mc, caps)
        if problem:
            return PropertyReport("universal_directed_joins", False,
                                  witness=(problem,), details={"stage": "empty"})
        cls_members = [s for s in lat.subunits if zero_arrow in s.cls.members]
        if not cls_members:
            return PropertyReport(
                "universal_directed_joins", False, witness=(zero_arrow,),
                details={"stage": "empty",
                         "reason": "initial arrow is not a subunit"})
    n = len(lat)
    caps.check("max_subunit_family_base", n)
    for size in range(1, n + 1):
        for family in itertools.combinations(range(n), size):
            if not lat.lattice.poset.is_directed(family, include_empty=False):
                continue
            diag = d_diagram(mc, lat, family, mc.unit)
            col = fincat.colimit(mc, diag, caps=caps)
            if col is None:
                return PropertyReport(
                    "universal_directed_joins", False, witness=family,
                    details={"stage": "colimit", "reason": "no colimit"})
            target = fincat.Cocone(mc.unit, tuple(lat.subunits[i].rep for i in family))
            arrow = fincat.mediating_morphisms(mc, col, target)[0]
            if not fincat.is_mono(mc, arrow) or \
                    fincat.is_iso(mc, _tensor_right(mc, arrow, mc.dom(arrow))) is None:
                return PropertyReport(
                    "universal_directed_joins", False, witness=family + (arrow,),
                    details={"stage": "colimit",
                             "reason": "induced arrow is not a subunit"})
            for x in range(len(mc.objects)):
                x_diag = fincat.DiagramSpec(
                    tuple(mc.tensor_obj(x, node) for node in diag.nodes),
                    tuple((a, b, _tensor_left(mc, x, f)) for a, b, f in diag.edges))
                x_col = fincat.Cocone(mc.tensor_obj(x, col.apex),
                                      tuple(_tensor_left(mc, x, leg) for leg in col.legs))
                if not fincat.is_colimit(mc, x_diag, x_col, caps=caps):
                    return PropertyReport(
                        "universal_directed_joins", False, witness=family + (x,),
                        details={"stage": "preservation",
                                 "reason": "X (x) (-) does not preserve the colimit"})
    return PropertyReport("universal_directed_joins", True)


GRADING_NOT_CLOSED = "tensor of subunit monos escapes the grading"


def sweep_graded_monad(mc):
    """``verify_graded_monad`` with every law of the graded monad swept,
    on thin and non-thin categories alike, in stages: the closure of the
    grading under the tensor (the one stage the library keeps), then
    naturality and functoriality of the grading action s -> (-) (x) S,
    unit naturality, associativity of the grading tensor and the
    associativity and unit diagrams, componentwise over the identity unit
    and multiplication components of the strict model."""
    grading = restriction._subunit_monos(mc)
    g_set = set(grading)
    for s in grading:
        for t in grading:
            st = mc.tensor_mor(s, t)
            if st not in g_set:
                return PropertyReport("graded_monad", False, witness=(s, t, st),
                                      details={"reason": GRADING_NOT_CLOSED})
    homs = {(s, t): tuple(f for f in mc.hom(mc.dom(s), mc.dom(t))
                          if mc.compose(t, f) == s)
            for s in grading for t in grading}
    n_obj = len(mc.objects)
    unit_components = tuple(mc.identity(a) for a in range(n_obj))
    mult_components = {
        (s, t): tuple(mc.identity(mc.tensor_obj(a, mc.tensor_obj(mc.dom(s), mc.dom(t))))
                      for a in range(n_obj))
        for s in grading for t in grading}

    def act_obj(s, a):
        return mc.tensor_obj(a, mc.dom(s))

    def act_mor(s, f):
        return _tensor_right(mc, f, mc.dom(s))

    def fail(witness, reason):
        return PropertyReport("graded_monad", False, witness=witness,
                              details={"reason": reason})

    for (s, t), fs in homs.items():
        for f in fs:
            for u in mc.morphisms:
                lhs = mc.compose(_tensor_left(mc, u.cod, f), act_mor(s, u.mid))
                rhs = mc.compose(act_mor(t, u.mid), _tensor_left(mc, u.dom, f))
                if lhs != rhs:
                    return fail((s, t, f, u.mid), "grading action not natural")
    for (s, t), fs in homs.items():
        for (t2, r), gs in homs.items():
            if t2 != t:
                continue
            for f in fs:
                for g in gs:
                    gf = mc.compose(g, f)
                    for a in range(n_obj):
                        if _tensor_left(mc, a, gf) != mc.compose(
                                _tensor_left(mc, a, g), _tensor_left(mc, a, f)):
                            return fail((s, t, r, f, g, a), "functoriality fails")
    unit_mor = mc.identity(mc.unit)
    for u in mc.morphisms:
        lhs = mc.compose(act_mor(unit_mor, u.mid), unit_components[u.dom])
        if lhs != mc.compose(unit_components[u.cod], u.mid):
            return fail((u.mid,), "unit naturality fails")
    for r in grading:
        for s in grading:
            rs = mc.tensor_mor(r, s)
            for t in grading:
                st = mc.tensor_mor(s, t)
                if mc.tensor_mor(rs, t) != mc.tensor_mor(r, st):
                    return fail((r, s, t), "grading tensor not associative")
                for a in range(n_obj):
                    one_way = mc.compose(mult_components[(rs, t)][a],
                                         act_mor(t, mult_components[(r, s)][a]))
                    other = mc.compose(mult_components[(r, st)][a],
                                       mult_components[(s, t)][act_obj(r, a)])
                    if one_way != other:
                        return fail((r, s, t, a), "associativity diagram fails")
        if mc.tensor_mor(unit_mor, r) != r or mc.tensor_mor(r, unit_mor) != r:
            return fail((r,), "unit grade is not strict")
        for a in range(n_obj):
            first = mc.compose(mult_components[(unit_mor, r)][a],
                               act_mor(r, unit_components[a]))
            second = mc.compose(mult_components[(r, unit_mor)][a],
                                unit_components[act_obj(r, a)])
            ident = mc.identity(act_obj(r, a))
            if first != ident or second != ident:
                return fail((r, a), "unit diagrams fail componentwise")
    return PropertyReport("graded_monad", True,
                          details={"grading_objects": len(grading)})


def sweep_coreflection(mc, s, inverses):
    """``restriction._verify_coreflection`` on a category that is not
    thin, with the loops its reduction leaves out: per pair, the
    roundtrip of f -> (S (x) f) o inv through the counit before the
    bijection check, then naturality of the correspondence in the source
    and in the target, by whisker enumeration."""
    counit = [_tensor_right(mc, s.rep, b) for b in range(len(mc.objects))]
    for a, inv in inverses.items():
        for b in range(len(mc.objects)):
            sb = mc.tensor_obj(s.domain, b)
            forward = {}
            for f in mc.hom(a, b):
                g = mc.compose(_tensor_left(mc, s.domain, f), inv)
                forward[f] = g
                if mc.compose(counit[b], g) != f:
                    raise ConsistencyError(
                        "coreflection bijection fails roundtrip",
                        details={"a": a, "b": b, "f": f})
            image = set(forward.values())
            if len(image) != len(forward) or image != set(mc.hom(a, sb)):
                raise ConsistencyError(
                    "coreflection correspondence is not a bijection",
                    details={"a": a, "b": b})
    for a, inv_a in inverses.items():
        for b in range(len(mc.objects)):
            for f in mc.hom(a, b):
                phi_f = mc.compose(_tensor_left(mc, s.domain, f), inv_a)
                for a2, inv_a2 in inverses.items():
                    for u in mc.hom(a2, a):
                        lhs = mc.compose(_tensor_left(mc, s.domain, mc.compose(f, u)),
                                         inv_a2)
                        if lhs != mc.compose(phi_f, u):
                            raise ConsistencyError(
                                "coreflection bijection not natural in the source",
                                details={"f": f, "u": u})
                for b2 in range(len(mc.objects)):
                    for v in mc.hom(b, b2):
                        lhs = mc.compose(_tensor_left(mc, s.domain, mc.compose(v, f)),
                                         inv_a)
                        if lhs != mc.compose(_tensor_left(mc, s.domain, v), phi_f):
                            raise ConsistencyError(
                                "coreflection bijection not natural in the target",
                                details={"f": f, "v": v})


def coreflector_comparisons(mc, s) -> dict[tuple[int, int], int]:
    """The comparison maps (S (x) A) (x) (S (x) B) -> S (x) A (x) B of
    the coreflector A -> S (x) A, per pair of objects (A, B)."""
    mult = _tensor_right(mc, s.rep, s.domain)        # S (x) S -> S
    comparisons = {}
    for a in range(len(mc.objects)):
        for b in range(len(mc.objects)):
            shuffle = mc.tensor_mor(
                mc.tensor_mor(mc.identity(s.domain), mc.braiding(a, s.domain)),
                mc.identity(b))
            comparisons[(a, b)] = mc.compose(
                mc.tensor_mor(mult, mc.identity(mc.tensor_obj(a, b))), shuffle)
    return comparisons


def sweep_coreflector_monoidal(mc, s, comparisons):
    """Strong monoidality of A -> S (x) A: the comparison maps are
    invertible, natural and coherent; the unit comparison is the identity
    at S.  Naturality is checked at the pairs of ``_one_variable_pairs``:
    S (x) (-) is a functor, by interchange, so both sides of the square
    are functorial in the pair.  On a thin category the comparison maps
    are checked for invertibility and typing only.  The oracle of the
    reduction in the ``restriction`` module docstring, which checks none
    of this at run time."""
    thin = mc.is_thin()
    for (a, b), comp in comparisons.items():
        if fincat.is_iso(mc, comp) is None:
            raise ConsistencyError(
                "coreflector comparison map is not invertible",
                details={"a": a, "b": b})
        if thin and (mc.dom(comp) != mc.tensor_obj(mc.tensor_obj(s.domain, a),
                                                   mc.tensor_obj(s.domain, b))
                     or mc.cod(comp) != mc.tensor_obj(s.domain, mc.tensor_obj(a, b))):
            raise ConsistencyError(
                "coreflector comparison map is mistyped",
                details={"a": a, "b": b})
    if thin:
        return
    for f, g in fincat._one_variable_pairs(mc):
        lhs = mc.compose(_tensor_left(mc, s.domain, mc.tensor_mor(f, g)),
                         comparisons[(mc.dom(f), mc.dom(g))])
        rhs = mc.compose(comparisons[(mc.cod(f), mc.cod(g))],
                         mc.tensor_mor(_tensor_left(mc, s.domain, f),
                                       _tensor_left(mc, s.domain, g)))
        if lhs != rhs:
            raise ConsistencyError("coreflector comparison not natural",
                                   details={"f": f, "g": g})
    for a in range(len(mc.objects)):
        for b in range(len(mc.objects)):
            for c in range(len(mc.objects)):
                left = mc.compose(
                    comparisons[(mc.tensor_obj(a, b), c)],
                    mc.tensor_mor(comparisons[(a, b)],
                                  mc.identity(mc.tensor_obj(s.domain, c))))
                right = mc.compose(
                    comparisons[(a, mc.tensor_obj(b, c))],
                    mc.tensor_mor(mc.identity(mc.tensor_obj(s.domain, a)),
                                  comparisons[(b, c)]))
                if left != right:
                    raise ConsistencyError(
                        "coreflector comparison not coherent",
                        details={"a": a, "b": b, "c": c})


def outcome(call, *args, **kwargs):
    """What ``call`` returns, or the kind and content of what it raises,
    so that two implementations can be compared raise for raise."""
    try:
        return "value", call(*args, **kwargs)
    except CapExceededError as exc:
        return "cap", exc.cap_name, exc.limit, exc.actual
    except (TtwError, KeyError, IndexError) as exc:
        return type(exc).__name__, str(exc)


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


def scan_is_directed(poset, subset, include_empty=True):
    """Every two members have an upper bound among the members."""
    if not subset:
        return include_empty
    return all(any(poset.leq[a][c] and poset.leq[b][c] for c in subset)
               for a in subset for b in subset)


def scan_is_preframe(poset, include_empty=True):
    """A top, every binary meet, and for every directed subset a join
    that each x /\\ (-) preserves, by a sweep over every subset."""
    n = len(poset)
    if scan_meet(poset, ()) is None:
        return False
    meet = [[scan_meet(poset, (x, y)) for y in range(n)] for x in range(n)]
    if any(None in row for row in meet):
        return False
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            if not scan_is_directed(poset, subset, include_empty):
                continue
            sup = scan_join(poset, subset)
            if sup is None:
                return False
            for x in range(n):
                if meet[x][sup] != scan_join(poset, [meet[x][s] for s in subset]):
                    return False
    return True


def scan_is_distributive(poset):
    """a ^ (b v c) = (a ^ b) v (a ^ c) for all a, b, c, with every meet
    and join found by a scan; False when one of them is missing."""
    n = len(poset)
    for a, b, c in itertools.product(range(n), repeat=3):
        bc, ab, ac = scan_join(poset, (b, c)), scan_meet(poset, (a, b)), \
            scan_meet(poset, (a, c))
        if None in (bc, ab, ac):
            return False
        left, right = scan_meet(poset, (a, bc)), scan_join(poset, (ab, ac))
        if left is None or left != right:
            return False
    return True


def scan_covers(poset):
    """Cover pairs (i, j), i before j: i < j and no k strictly between,
    by a scan over every triple."""
    n, leq = len(poset), poset.leq
    return [(i, j) for i in range(n) for j in range(n)
            if i != j and leq[i][j]
            and not any(k not in (i, j) and leq[i][k] and leq[k][j] for k in range(n))]


def maximal(poset, subset):
    """The members of ``subset`` below no other member."""
    return [i for i in subset
            if not any(j != i and poset.leq[i][j] for j in subset)]


def filtered_directed_downsets(lat, include_empty=True):
    """``directed_downsets`` by a second route: every downset, kept when a
    pairwise scan finds it directed, with the order, labels and embedding
    read off the full downset lattice."""
    full = downsets(lat)
    keep = [k for k, s in enumerate(full.sets)
            if scan_is_directed(full.base, sorted(s), include_empty)]
    sets = tuple(full.sets[k] for k in keep)
    labels = tuple(full.poset.elements[k] for k in keep)
    leq = tuple(tuple(a <= b for b in sets) for a in sets)
    embedding = tuple(sets.index(full.base.down_closure((i,)))
                      for i in range(len(full.base)))
    return DownsetLattice(full.base, sets, FinPoset(labels, leq), embedding)


@st.composite
def closure_lattices(draw, max_size=9, ground=4):
    """The lattice of closed sets of a random closure operator on
    ``ground`` points: random subsets closed under intersection, with the
    whole set, ordered by inclusion and listed in a shuffled order; at
    most ``max_size`` elements.  Its ``leq`` is the inclusion matrix."""
    closed = {frozenset(range(ground))}
    for bits in draw(st.lists(st.integers(0, 2 ** ground - 1), max_size=12)):
        s = frozenset(i for i in range(ground) if bits >> i & 1)
        grown = closed | {s} | {s & t for t in closed}
        while True:
            more = grown | {a & b for a in grown for b in grown}
            if more == grown:
                break
            grown = more
        if len(grown) <= max_size:
            closed = grown
    members = draw(st.permutations(sorted(closed, key=sorted)))
    labels = tuple("{" + ",".join(map(str, sorted(m))) + "}" for m in members)
    return FinPoset(labels, tuple(tuple(a <= b for b in members) for a in members))


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


# ---------------------------------------------------------------------------
# subset-sweep oracles for the principal-union enumerations: every subset
# of the generators is tested for closure


def brute_ideals(monoid):
    """The ideals of a commutative monoid, by size and then members."""
    n = len(monoid.elements)
    ideals = []
    for bits in itertools.product((False, True), repeat=n):
        subset = frozenset(i for i in range(n) if bits[i])
        if all(monoid.mult[x][m] in subset for x in subset for m in range(n)):
            ideals.append(subset)
    ideals.sort(key=lambda s: (len(s), sorted(s)))
    return ideals


def brute_sieves_on_unit(mc, caps=DEFAULT_CAPS):
    into_unit = [m.mid for m in mc.morphisms if m.cod == mc.unit]
    caps.check("max_downset_base", len(into_unit))
    out = []
    for bits in itertools.product((False, True), repeat=len(into_unit)):
        subset = frozenset(m for k, m in enumerate(into_unit) if bits[k])
        closed = all(mc.compose(s, f.mid) in subset
                     for s in subset for f in mc.morphisms if f.cod == mc.dom(s))
        if closed:
            out.append(Sieve(subset))
    out.sort(key=lambda s: (len(s.members), sorted(s.members)))
    return out


def brute_iso_classes(mc):
    """The isomorphism classes by union-find over ``objects_isomorphic``
    on every pair of objects, each in increasing order, by least member."""
    cat = _cat_of(mc)
    uf = UnionFind(range(len(cat.objects)))
    for a, b in itertools.combinations(range(len(cat.objects)), 2):
        if fincat.objects_isomorphic(cat, a, b) is not None:
            uf.union(a, b)
    return tuple(sorted(tuple(sorted(c)) for c in uf.classes()))


def brute_tensor_ideals(mc, caps=DEFAULT_CAPS):
    subunit_semilattice(mc)
    classes = brute_iso_classes(mc)
    caps.check("max_ideal_base", len(classes))
    found = []
    for bits in itertools.product((False, True), repeat=len(classes)):
        subset = frozenset(a for k, cls in enumerate(classes) if bits[k]
                           for a in cls)
        if not subset:
            continue
        if any(mc.tensor_obj(a, b) not in subset
               for a in range(len(mc.objects)) for b in subset):
            continue
        ideal = restriction._tensor_ideal_on(mc, subset)
        if ideal is not None:
            found.append(ideal)
    return found


_MONOID_FAMILIES = {
    # size, product, unit; the null monoid is {1, 0, z1, ..., zk} with
    # zi zj = 0, listed as 0 = 1, 1 = 0 and the z from 2 on
    "cyclic": lambda k: (k, lambda i, j: (i + j) % k, 0),
    "truncated": lambda k: (k + 1, lambda i, j: min(i + j, k), 0),
    "min": lambda k: (k + 1, min, k),
    "max": lambda k: (k + 1, max, 0),
    "null": lambda k: (k + 2, lambda i, j: j if i == 0 else i if j == 0 else 1, 0),
}


def _product_monoid(left, right):
    (m, op_l, unit_l), (n, op_r, unit_r) = left, right
    return (m * n,
            lambda p, q: op_l(p // n, q // n) * n + op_r(p % n, q % n),
            unit_l * n + unit_r)


@st.composite
def commutative_monoids(draw, max_product=10):
    """Cyclic groups, truncated addition, min and max chains, null monoids
    and products of two of these (up to ``max_product`` elements), with
    the elements listed in a shuffled order."""
    def factor(max_k):
        family = draw(st.sampled_from(sorted(_MONOID_FAMILIES)))
        return _MONOID_FAMILIES[family](draw(st.integers(1, max_k)))
    size, op, unit = factor(5)
    if draw(st.booleans()):
        left, right = factor(3), factor(3)
        if left[0] * right[0] <= max_product:
            size, op, unit = _product_monoid(left, right)
    order = draw(st.permutations(range(size)))
    at = {x: k for k, x in enumerate(order)}
    mult = tuple(tuple(at[op(x, y)] for y in order) for x in order)
    return FinMonoid(tuple(f"e{x}" for x in order), mult, at[unit])


_SPLIT_PRODUCTS = {(2, 2): 2, (3, 3): 3, (2, 4): 5, (3, 4): 6, (2, 5): 5, (3, 6): 6}

_ORDERED_MONOIDS = {
    # size, product, unit and pairs forced into the order.  orthogonal:
    # {1, 0, e1, ..., ek} with ei ei = ei and every other product of two
    # non-units 0, whose idempotents form M_k, non-distributive from k = 3.
    # split: {1, 0, a, b, x, ax, bx, r} with a, b idempotent, a ax = ax,
    # b bx = bx and every other product of two non-units 0; with r below
    # ax and bx, the square a b x -> bx, ax -> x is no pullback
    "orthogonal": lambda k: (k + 2, lambda i, j: j if i == 0 else i if j == 0
                             else i if i == j > 1 else 1, 0, ()),
    "split": lambda k: (8, lambda i, j: j if i == 0 else i if j == 0
                        else _SPLIT_PRODUCTS.get((min(i, j), max(i, j)), 1),
                        0, ((7, 5), (7, 6))),
}


@st.composite
def thin_monoidal_preorders(draw):
    """The thin braided monoidal category of a commutative monoid under a
    preorder compatible with its product: the monoids of
    ``commutative_monoids`` and ``_ORDERED_MONOIDS``; the order starts
    from equality or from divisibility (x <= y when x is in yM), takes a
    few random pairs, and is closed under transitivity and under
    x <= y implying xw <= yw.  Reaches categories with no initial object,
    missing joins, joins the tensor does not preserve, non-distributive
    subunits and non-stiff squares."""
    kind = draw(st.sampled_from(["monoid", *sorted(_ORDERED_MONOIDS)]))
    if kind == "monoid":
        monoid = draw(commutative_monoids())
        n, mult, unit, forced = len(monoid.elements), monoid.mult, monoid.unit, ()
    else:
        n, op, unit, forced = _ORDERED_MONOIDS[kind](draw(st.integers(1, 3)))
        mult = tuple(tuple(op(i, j) for j in range(n)) for i in range(n))
    divisibility = draw(st.booleans())
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3))
    return ordered_monoid_category(mult, unit, (*forced, *pairs), divisibility)


def split_monoid_category():
    """The "split" monoid of ``_ORDERED_MONOIDS`` under divisibility and
    its forced pairs: a thin category that is not stiff."""
    n, op, unit, forced = _ORDERED_MONOIDS["split"](1)
    return ordered_monoid_category(
        tuple(tuple(op(i, j) for j in range(n)) for i in range(n)), unit, forced,
        divisibility=True)


def ordered_monoid_category(mult, unit, pairs, divisibility=False):
    """The thin braided monoidal category of a commutative monoid under
    the least preorder holding ``pairs`` (and divisibility, when asked)
    that is compatible with the product."""
    n = len(mult)
    leq = [[a == b or divisibility and a in mult[b] for b in range(n)]
           for a in range(n)]
    for a, b in pairs:
        leq[a][b] = True
    changed = True
    while changed:
        changed = False
        for a, b, w in itertools.product(range(n), repeat=3):
            if leq[a][b] and not leq[mult[a][w]][mult[b][w]]:
                leq[mult[a][w]][mult[b][w]] = changed = True
            if leq[a][b] and leq[b][w] and not leq[a][w]:
                leq[a][w] = changed = True
    return fincat._thin_monoidal(tuple(f"e{i}" for i in range(n)),
                                 tuple(map(tuple, leq)), mult, unit, DEFAULT_CAPS)


def null_monoid(zeros: int):
    """{1, 0, z0, ..., z(zeros-1)} with zi zj = 0: 2^zeros + 2 ideals."""
    size, op, unit = _MONOID_FAMILIES["null"](zeros)
    labels = ("1", "0") + tuple(f"z{i}" for i in range(zeros))
    return FinMonoid(labels, tuple(tuple(op(i, j) for j in range(size))
                                   for i in range(size)), unit)


def max_monoid(n: int):
    """{0, ..., n-1} under max, with 0 as unit: n + 1 ideals."""
    return FinMonoid(tuple(f"x{i}" for i in range(n)),
                     tuple(tuple(max(i, j) for j in range(n)) for i in range(n)), 0)
