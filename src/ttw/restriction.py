"""Restriction along subunits.

A morphism f: A -> B restricts to a subunit s when it factors through
s (x) B, a relation ``restriction_table`` decides once per category,
from the up-set masks on a thin category (``_restriction_row``).
Restriction to s carves out the full subcategory of objects A with
s (x) A invertible; tensoring with S is a coreflector onto it.
The same data appears in three equivalent guises verified here: a monad
graded by the (unquotiented) subunit monomorphisms, idempotent comonads
with monic counit at the unit, and monocoreflective tensor ideals, sought
among unions of the category's ``FinCategory.iso_classes``.

The checks here take a category whose laws hold: one built by a
constructor of this package, whose docstring states the proof, or one
that passed ``validate`` in ``assert_valid``.  Laws that are instances
of the axioms ``validate`` checks are not checked again, on any
category:

- the graded monad.  Grade s acts by (-) (x) S, with identity unit and
  multiplication in the strict model.  Naturality of the action,
  (id (x) f) o (u (x) id) = (u (x) id) o (id (x) f), and its
  functoriality, id (x) (g o f) = (id (x) g) o (id (x) f), are
  ``interchange`` with the ``identity_law``; unit naturality and the
  strictness of the unit grade are ``strict_unit_mor``; associativity
  of the grading tensor is ``strict_assoc_mor``; the associativity and
  unit diagrams compose identities only (``tensor_identities``,
  ``identity_law``, ``strict_assoc_obj``, ``strict_unit_obj``).  What
  remains is the closure of the grading under the tensor.
- the coreflection.  The roundtrip (s (x) B) o (S (x) f) o inv = f, with
  inv the inverse of s (x) A, is ``interchange`` and ``strict_unit_mor``
  (both sides of the first composite are s (x) f = f o (s (x) A)) with
  inv a two-sided inverse; naturality in either argument follows from
  S (x) (-) being a functor (``interchange``) and from the same square
  s (x) f = f o (s (x) A).  What remains is the bijection itself: the
  correspondence is injective and onto hom(A, S (x) B).
- the strong monoidality of the coreflector, with nothing left to check.
  Its comparison at (A, B) is (s (x) id_{S (x) A (x) B}) o
  (id_S (x) sigma_{A,S} (x) id_B), from (S (x) A) (x) (S (x) B) to
  S (x) (A (x) B).  It is invertible: s (x) S is, which is the definition
  ``enumerate_subunits`` checks, the braiding is
  (``braiding_invertible``), and tensoring with identities keeps both
  so (``tensor_identities``, ``interchange``).  It is natural in each
  variable by ``braiding_naturality`` and ``interchange``, and coherent
  by the hexagons (``hexagon``, ``hexagon_2``), braiding naturality,
  ``interchange`` and ``strict_assoc_mor``: both sides move the second
  and third copies of S past the same objects, and
  (s (x) S) o (s (x) S (x) S) = (s (x) S) o (S (x) s (x) S) = s (x) s (x) S.
- the comonad S (x) (-) that ``restriction_comonad`` builds, with
  nothing left to check.  S (x) s = s (x) S, because s is monic and
  s o (S (x) s) = s (x) s = s o (s (x) S) (``interchange``).  delta is
  by construction the inverse of s (x) S (x) A, so it is invertible and
  the left counit law holds; the right counit law and coassociativity
  are S (x) s = s (x) S, tensored with A and with S (x) A.  The counit
  at the unit is s, monic.  Naturality of the counit and of delta
  follows from ``interchange``.  Coherence of phi_{A,B} =
  sigma_{A,S} (x) B follows from ``braiding_naturality``, the hexagons
  and sigma_{I,A} = sigma_{A,I} = id.
  On a thin category all four are existence facts, which the thin
  ``validate`` and the subunit definition already give.

The inclusion of a restriction and its coreflector are functors by
construction too (``_tabulated_restriction``).  The test suite keeps
``check_restriction_comonad`` and ``CatFunctor.check_functor`` on every
built comonad, inclusion and coreflector, with the full sweeps, as the
oracle of these bullets (``test_built_restrictions_pass_the_law_checks``).
``check_restriction_comonad`` stays for comonad data from outside,
through ``extract_subunit``, and the Frobenius law is checked by
``verify_comonad_bijection``, as part of its verdict.

On a thin category (every hom-set has at most one element) each law
these checks sweep (naturality, coherence, counit squares) equates two
composites with the same source and target, and two parallel morphisms
of a thin category are equal, so the law holds once its composites are
defined.  There ``_verify_coreflection`` and
``check_restriction_comonad`` check only the typing of the components
they are handed and the existence facts: the coreflection bijection
(hom(A, B) is nonempty iff hom(A, S (x) B) is) and the invertibility of
the comultiplication.  Every morphism of a thin category is monic, the
counit at the unit included.  Every other category runs the full
sweeps, which the test suite keeps as the oracle of these branches.

The composite and tensor laws of restriction (where f restricts to s and
g to t, g o f and f (x) g restrict to s /\\ t) are decided by
``restriction_meet_failure`` over the composable pairs and the pairs
(f, id_b) instead of all pairs of morphisms: by braiding naturality
id_a (x) g is g (x) id_a between two braidings, and by interchange
f (x) g = (f (x) id_D) o (id_A (x) g) (Mac Lane, *CWM* II.3), so the
composite law, with the tensor law at the one-variable pairs, gives the
tensor law at (f, g).
"""

from __future__ import annotations

from dataclasses import dataclass

from .caps import DEFAULT_CAPS, Caps
from .errors import BuildError, ConsistencyError
from .fincat import (CatFunctor, MonoidalCategory, ValidationReport, Violation,
                     _composable_pairs, _one_variable_pairs,
                     _tabulate, _tabulate_monoidal,
                     factors_through, identity_functor, is_iso, is_mono,
                     objects_isomorphic)
from .orderkit import _bits, _mask, _unions
from .subunits import (PropertyReport, Subunit, _per_category, _tensor_left,
                       _tensor_right, enumerate_subunits, retract_pairs,
                       subunit_semilattice)


def restricts_to(mc: MonoidalCategory, f: int, s: Subunit) -> int | None:
    """A factorisation g with f = (s (x) B) o g, where B = cod(f), or None."""
    s_cod = _tensor_right(mc, s.rep, mc.cod(f))
    return factors_through(mc, f, s_cod)


def _restriction_row(mc: MonoidalCategory, f: int, subs) -> int:
    """The bitmask of the subunits among ``subs`` that f restricts to.

    On a thin category f: A -> B restricts to s exactly when hom(A,
    S (x) B) is nonempty, bit S (x) B of up[A]: its member h has
    (s (x) B) o h = f, as both sides are parallel."""
    if mc.is_thin():
        up_a, b, tensor = mc.cat.up[mc.dom(f)], mc.cod(f), mc.mon.tensor_obj
        return _mask(k for k, s in enumerate(subs) if up_a >> tensor[s.domain][b] & 1)
    return _mask(k for k, s in enumerate(subs) if restricts_to(mc, f, s) is not None)


@_per_category
def restriction_table(mc: MonoidalCategory) -> tuple[int, ...]:
    """Per morphism id, the bitmask of the subunits it restricts to (by
    ``restricts_to``), by position in ``enumerate_subunits(mc)``, which
    are the positions in ``subunit_semilattice(mc).subunits`` too."""
    subs = enumerate_subunits(mc)
    return tuple(_restriction_row(mc, f.mid, subs) for f in mc.morphisms)


def restriction_row(mc: MonoidalCategory, f: int) -> int:
    """The row of f in the restriction table, read from the table when
    the category has it and computed alone otherwise, so a single query
    costs one row."""
    table = mc.derived.get(restriction_table.__name__)
    return (table[f] if table is not None
            else _restriction_row(mc, f, enumerate_subunits(mc)))


def restricting_subunits(mc: MonoidalCategory, f: int) -> list[int]:
    """The positions of the subunits f restricts to: its
    ``restriction_row``."""
    return list(_bits(restriction_row(mc, f)))


def object_restriction_equivalences(mc: MonoidalCategory, a: int,
                                    s: Subunit) -> PropertyReport:
    """Four equivalent readings of 'object a lives on s', each computed
    independently; disagreement raises ConsistencyError."""
    cond_a = is_iso(mc, _tensor_right(mc, s.rep, a)) is not None
    cond_b = objects_isomorphic(mc, mc.tensor_obj(s.domain, a), a) is not None
    cond_c = any(objects_isomorphic(mc, mc.tensor_obj(s.domain, b), a) is not None
                 for b in range(len(mc.objects)))
    cond_d = restricts_to(mc, mc.identity(a), s) is not None
    values = (cond_a, cond_b, cond_c, cond_d)
    if len(set(values)) != 1:
        raise ConsistencyError("object restriction conditions disagree",
                               details={"object": a, "subunit": s.rep,
                                        "conditions": values})
    return PropertyReport("object_restriction", values[0],
                          witness=(a, s.rep), details={"conditions": values})


# ---------------------------------------------------------------------------
# the restriction subcategory and its coreflection


@dataclass(frozen=True, eq=False)
class RestrictionResult:
    subcategory: MonoidalCategory
    inclusion: CatFunctor             # subcategory -> ambient
    coreflector: CatFunctor           # ambient -> subcategory, A -> S (x) A
    counit: tuple[int, ...]           # ambient components S (x) A -> A


def restriction_category(mc: MonoidalCategory, s: Subunit) -> RestrictionResult:
    """The full subcategory of objects A with s (x) A invertible, as a
    strict monoidal category with unit S, together with the inclusion
    and the coreflector A -> S (x) A.

    At the top subunit, whose representative is id_I, that is ``mc``
    itself, and nothing is tabulated: S = I and s (x) A = id_A, so every
    object is kept, the tensor, braiding and unit are those of ``mc``,
    the inclusion and the coreflector A -> I (x) A = A, f -> id_I (x) f = f
    are identity functors, the counit is the identities, and the
    coreflection bijection is the identity as well.
    The test is on the representative, not on S = I: in z2 the top class
    also holds a non-identity automorphism of I.  Every other subunit is
    built by ``_tabulated_restriction``.
    """
    if s.rep == mc.identity(mc.unit):
        functor = identity_functor(mc)
        return RestrictionResult(mc, functor, functor, mc.cat.identity)
    return _tabulated_restriction(mc, s)


def _tabulated_restriction(mc: MonoidalCategory, s: Subunit) -> RestrictionResult:
    """The restriction to s, tabulated once its unit is known strict.

    The coreflection bijection C(A, B) = C|s(A, S (x) B) is verified
    hom-set by hom-set; the coreflector is strong monoidal by the laws
    of ``mc`` (module docstring).  Inputs whose restriction is not
    strictly unital are rejected.  That cannot happen when the ambient
    category has one object, but it is common on thin ones: the "all"
    completions of c3, q3, boolean2x2 and m3 refuse 3, 2, 5 and 9 of
    their subunits.  Unitality is read from the tables of ``mc`` before
    any table is built: on objects, S (x) A = A = A (x) S for every A of
    the restriction, and then on morphisms, f (x) id_S = f = id_S (x) f
    for every f of it, off thin categories, where typing forces it.  A
    refusal carries the violations ``validate`` would list on the
    restriction's tables, strict_unit_obj or else strict_unit_mor.

    Nothing else can fail.  The restriction is a full subcategory of
    ``mc``, closed under the tensor (checked below), that holds the
    braiding components between its objects.  So each other law
    ``validate`` checks, composition, tensor, braiding and hexagons
    alike, is a law of ``mc`` read on the kept objects and morphisms.
    Only the unit changes, from I to S.

    The inclusion and the coreflector are functors by construction, and
    neither is checked: the inclusion is the kept morphisms, composed
    as in ``mc``, and the coreflector is S (x) (-), a functor by
    ``interchange`` and ``tensor_identities``.
    """
    # each object A of the restriction, with the inverse of s (x) A
    inverses = {a: inv for a in range(len(mc.objects))
                if (inv := is_iso(mc, _tensor_right(mc, s.rep, a))) is not None}
    keep = list(inverses)
    obj_index = {a: k for k, a in enumerate(keep)}
    for a in keep:
        for b in keep:
            if mc.tensor_obj(a, b) not in obj_index:
                raise ConsistencyError(
                    "restriction subcategory is not closed under the tensor",
                    details={"a": a, "b": b})
    if s.domain not in obj_index:
        raise ConsistencyError("subunit domain is outside its own restriction",
                               details={"subunit": s.rep})
    not_unital = "restriction of this category is not strictly unital at " \
        f"{mc.obj_label(s.domain)}; only strict restrictions are supported"
    unit_violations = [
        Violation("strict_unit_obj", (k,), "unit is not strict on objects")
        for k, a in enumerate(keep)
        if mc.tensor_obj(s.domain, a) != a or mc.tensor_obj(a, s.domain) != a]
    mors = [m for m in mc.morphisms if m.dom in obj_index and m.cod in obj_index]
    if not unit_violations and not mc.is_thin():
        id_s = mc.identity(s.domain)
        unit_violations = [
            Violation("strict_unit_mor", (k,),
                      "tensoring with the unit identity is not strict")
            for k, m in enumerate(mors)
            if mc.tensor_mor(m.mid, id_s) != m.mid
            or mc.tensor_mor(id_s, m.mid) != m.mid]
    if unit_violations:
        raise BuildError(not_unital, ValidationReport(unit_violations))
    mor_index = {m.mid: k for k, m in enumerate(mors)}
    cat = _tabulate(
        [mc.obj_label(a) for a in keep],
        [(obj_index[m.dom], obj_index[m.cod], m.label) for m in mors],
        [mor_index[mc.identity(a)] for a in keep],
        None if mc.is_thin()
        else lambda g, f: mor_index[mc.compose(mors[g].mid, mors[f].mid)])
    t_obj = [[obj_index[mc.tensor_obj(a, b)] for b in keep] for a in keep]
    try:
        sub = _tabulate_monoidal(
            cat, obj_index[s.domain], t_obj,
            lambda f, g: mor_index[mc.tensor_mor(mors[f].mid, mors[g].mid)],
            lambda a, b: mor_index[mc.braiding(keep[a], keep[b])])
    except KeyError as exc:
        raise ConsistencyError("restriction subcategory tensor escapes it",
                               details={"missing": exc.args}) from exc

    # coreflector on ambient objects and morphisms
    cor_obj = tuple(obj_index[mc.tensor_obj(s.domain, a)]
                    for a in range(len(mc.objects)))
    cor_mor = tuple(mor_index[_tensor_left(mc, s.domain, f.mid)]
                    for f in mc.morphisms)
    inclusion = CatFunctor(sub, mc, tuple(keep), tuple(m.mid for m in mors))
    coreflector = CatFunctor(mc, sub, cor_obj, cor_mor)
    counit = tuple(_tensor_right(mc, s.rep, a) for a in range(len(mc.objects)))

    _verify_coreflection(mc, s, inverses)
    return RestrictionResult(sub, inclusion, coreflector, counit)


def _verify_coreflection(mc, s, inverses):
    """The bijection C(A, B) = C|s(A, S (x) B), f -> (S (x) f) o inv, for
    A in C|s: injective and onto, on each pair.  Its roundtrip through
    the counit and its naturality are instances of ``validate``'s laws
    (module docstring).  On a thin category it is one existence fact per
    pair, read from the up-set masks."""
    if mc.is_thin():
        up = mc.cat.up
        for a in inverses:
            for b in range(len(mc.objects)):
                if (up[a] >> b ^ up[a] >> mc.tensor_obj(s.domain, b)) & 1:
                    raise ConsistencyError(
                        "coreflection correspondence is not a bijection",
                        details={"a": a, "b": b})
        return
    for a, inv in inverses.items():
        for b in range(len(mc.objects)):
            hom = mc.hom(a, b)
            image = {mc.compose(_tensor_left(mc, s.domain, f), inv) for f in hom}
            if len(image) != len(hom) or \
                    image != set(mc.hom(a, mc.tensor_obj(s.domain, b))):
                raise ConsistencyError(
                    "coreflection correspondence is not a bijection",
                    details={"a": a, "b": b})


# ---------------------------------------------------------------------------
# the graded monad of restrictions


def _subunit_monos(mc: MonoidalCategory) -> list[int]:
    """All monomorphisms into the unit with invertible self-tensor,
    without identifying representatives of the same subunit: the members
    of the ``enumerate_subunits`` classes, sorted.  Members of one class
    are isomorphic over I, and if m = r o phi with phi: M -> R invertible
    then m (x) M = phi^-1 o (r (x) R) o (phi (x) phi), so one member has
    invertible self-tensor exactly when the others do."""
    return sorted(m for s in enumerate_subunits(mc) for m in s.cls.members)


def verify_graded_monad(mc: MonoidalCategory) -> PropertyReport:
    """Restriction as a monad graded by the category of subunit
    monomorphisms (objects: monos into I with invertible self-tensor;
    morphisms f: s -> t with s = t o f), where s acts by (-) (x) S and
    the unit and multiplication are identities in the strict model.

    Every law of the graded monad is an instance of a law ``validate``
    proved (module docstring), so what is checked is that the grading is
    closed under the tensor, on every category.
    """
    grading = _subunit_monos(mc)
    g_set = set(grading)
    for s in grading:
        for t in grading:
            st = mc.tensor_mor(s, t)
            if st not in g_set:
                return PropertyReport(
                    "graded_monad", False, witness=(s, t, st),
                    details={"reason": "tensor of subunit monos escapes the grading"})
    return PropertyReport("graded_monad", True,
                          details={"grading_objects": len(grading)})


# ---------------------------------------------------------------------------
# restriction comonads


@dataclass(frozen=True, eq=False)
class ComonadData:
    """A monoidal comonad presented by tables: the endofunctor on objects
    and morphisms, comultiplication and counit components, and the
    coherence components phi_{A,B}: A (x) F(B) -> F(A (x) B)."""

    mc: MonoidalCategory
    obj_map: tuple[int, ...]
    mor_map: tuple[int, ...]
    delta: tuple[int, ...]
    counit: tuple[int, ...]
    phi: dict[tuple[int, int], int]

    def table_key(self):
        return (self.obj_map, self.mor_map, self.delta, self.counit,
                tuple(sorted(self.phi.items())))


def restriction_comonad(mc: MonoidalCategory, s: Subunit) -> ComonadData:
    """The comonad S (x) (-) of a subunit: comultiplication inverts
    s (x) S (x) A, counit is s (x) A, coherence is the braiding.  Every
    comonad law holds by construction and none is checked (module
    docstring)."""
    n_obj = len(mc.objects)
    obj_map = tuple(mc.tensor_obj(s.domain, a) for a in range(n_obj))
    mor_map = tuple(_tensor_left(mc, s.domain, f.mid) for f in mc.morphisms)
    delta = []
    counit = []
    for a in range(n_obj):
        collapse = _tensor_right(mc, s.rep, obj_map[a])   # S.S.A -> S.A
        inv = is_iso(mc, collapse)
        if inv is None:
            raise ConsistencyError("comultiplication is not invertible",
                                   details={"object": a})
        delta.append(inv)
        counit.append(_tensor_right(mc, s.rep, a))
    phi = {}
    for a in range(n_obj):
        for b in range(n_obj):
            phi[(a, b)] = mc.tensor_mor(mc.braiding(a, s.domain),
                                        mc.identity(b))
    return ComonadData(mc, obj_map, mor_map, tuple(delta), tuple(counit), phi)


def check_restriction_comonad(data: ComonadData) -> None:
    """Reject the data unless it is a restriction comonad, naming the
    first failing law.  Every component is typed before any law
    composes it; on a thin category typing and the invertibility of the
    comultiplication are all that is checked (module docstring)."""
    mc = data.mc
    n_obj = len(mc.objects)

    def fail(law, **details):
        raise BuildError(f"comonad law {law} fails", details)

    CatFunctor(mc, mc, data.obj_map, data.mor_map).check_functor()
    thin = mc.is_thin()
    # every component is typed before any law composes it; delta goes
    # before the counit: a typed counit at FA, FFA -> FA, would already
    # make a typed delta invertible
    for a in range(n_obj):
        d = data.delta[a]
        fa = data.obj_map[a]
        if mc.dom(d) != fa or mc.cod(d) != data.obj_map[fa]:
            fail("comultiplication_typing", object=a)
        if thin and is_iso(mc, d) is None:
            fail("comultiplication_invertible", object=a)
    for a in range(n_obj):
        e = data.counit[a]
        if mc.dom(e) != data.obj_map[a] or mc.cod(e) != a:
            fail("counit_typing", object=a)
    for a in range(n_obj):
        for b in range(n_obj):
            p = data.phi[(a, b)]
            if mc.dom(p) != mc.tensor_obj(a, data.obj_map[b]) or \
                    mc.cod(p) != data.obj_map[mc.tensor_obj(a, b)]:
                fail("coherence_typing", pair=(a, b))
    if thin:
        return
    for f in mc.morphisms:
        fa, fb = data.mor_map[f.mid], f.mid
        if mc.compose(data.counit[f.cod], fa) != mc.compose(fb, data.counit[f.dom]):
            fail("counit_naturality", morphism=f.mid)
        lhs = mc.compose(data.delta[f.cod], data.mor_map[f.mid])
        rhs = mc.compose(data.mor_map[data.mor_map[f.mid]], data.delta[f.dom])
        if lhs != rhs:
            fail("comultiplication_naturality", morphism=f.mid)
    for a in range(n_obj):
        d = data.delta[a]
        fa = data.obj_map[a]
        if mc.compose(data.counit[fa], d) != mc.identity(fa):
            fail("left_counit_law", object=a)
        if mc.compose(data.mor_map[data.counit[a]], d) != mc.identity(fa):
            fail("right_counit_law", object=a)
        if mc.compose(data.delta[fa], d) != mc.compose(data.mor_map[d], d):
            fail("coassociativity", object=a)
        if is_iso(mc, d) is None:
            fail("comultiplication_invertible", object=a)
    if not is_mono(mc, data.counit[mc.unit]):
        fail("counit_at_unit_monic")
    # coherence components
    for a in range(n_obj):
        for b in range(n_obj):
            p = data.phi[(a, b)]
            lhs = mc.compose(data.counit[mc.tensor_obj(a, b)], p)
            rhs = mc.tensor_mor(mc.identity(a), data.counit[b])
            if lhs != rhs:
                fail("coherence_counit", pair=(a, b))
        if data.phi[(mc.unit, a)] != mc.identity(data.obj_map[a]):
            fail("coherence_unit", object=a)
    # F is a functor (checked first), so both sides are functorial in the
    # pair and one variable at a time suffices (``_one_variable_pairs``)
    for f, g in _one_variable_pairs(mc):
        lhs = mc.compose(data.phi[(mc.cod(f), mc.cod(g))],
                         mc.tensor_mor(f, data.mor_map[g]))
        rhs = mc.compose(data.mor_map[mc.tensor_mor(f, g)],
                         data.phi[(mc.dom(f), mc.dom(g))])
        if lhs != rhs:
            fail("coherence_naturality", pair=(f, g))
    for a in range(n_obj):
        for b in range(n_obj):
            ab = mc.tensor_obj(a, b)
            lhs = mc.compose(data.mor_map[data.phi[(a, b)]],
                             mc.compose(data.phi[(a, data.obj_map[b])],
                                        mc.tensor_mor(mc.identity(a),
                                                      data.delta[b])))
            rhs = mc.compose(data.delta[ab], data.phi[(a, b)])
            if lhs != rhs:
                fail("coherence_comultiplication", pair=(a, b))


def frobenius_law_holds(data: ComonadData) -> bool:
    """delta^-1 after F applied to delta agrees with F of delta^-1 after
    delta, componentwise."""
    mc = data.mc
    for a in range(len(mc.objects)):
        fa = data.obj_map[a]
        d_inv_fa = is_iso(mc, data.delta[fa])
        d_inv_a = is_iso(mc, data.delta[a])
        lhs = mc.compose(d_inv_fa, data.mor_map[data.delta[a]])
        rhs = mc.compose(data.mor_map[d_inv_a], data.delta[fa])
        if lhs != rhs:
            return False
    return True


def extract_subunit(mc: MonoidalCategory, data: ComonadData) -> Subunit:
    """The subunit of a restriction comonad: the counit component at the
    unit, whose self-tensor invertibility is verified directly."""
    check_restriction_comonad(data)
    return _comonad_subunit(mc, data)


def _comonad_subunit(mc: MonoidalCategory, data: ComonadData) -> Subunit:
    """``extract_subunit`` of data known to be a comonad: checked, or
    built by ``restriction_comonad``."""
    eps = data.counit[mc.unit]
    if is_iso(mc, mc.tensor_mor(mc.identity(mc.dom(eps)), eps)) is None:
        raise ConsistencyError(
            "counit at the unit does not have invertible right tensor",
            details={"eps": eps})
    if is_iso(mc, _tensor_right(mc, eps, mc.dom(eps))) is None:
        raise ConsistencyError(
            "counit at the unit is not a subunit", details={"eps": eps})
    for s in enumerate_subunits(mc):
        if eps in s.cls.members:
            return s
    raise ConsistencyError("counit class is not among the subunits",
                           details={"eps": eps})


def verify_comonad_bijection(mc: MonoidalCategory) -> PropertyReport:
    """Subunits and restriction comonads determine each other: the two
    constructions round-trip on canonical representatives, distinct
    subunits give distinct comonads, and every constructed comonad
    satisfies the Frobenius law.  The subunit read back is checked to be
    the one the comonad came from, so the comonad built from it is the
    same and is not built again."""
    subs = enumerate_subunits(mc)
    seen = {}
    for s in subs:
        data = restriction_comonad(mc, s)   # a comonad by construction
        back = _comonad_subunit(mc, data)
        if back.rep != s.rep:
            return PropertyReport("comonad_bijection", False,
                                  witness=(s.rep, back.rep),
                                  details={"reason": "roundtrip moved the subunit"})
        if not frobenius_law_holds(data):
            return PropertyReport("comonad_bijection", False, witness=(s.rep,),
                                  details={"reason": "Frobenius law fails"})
        key = data.table_key()
        if key in seen:
            return PropertyReport("comonad_bijection", False,
                                  witness=(s.rep, seen[key]),
                                  details={"reason": "two subunits, one comonad"})
        seen[key] = s.rep
    return PropertyReport("comonad_bijection", True,
                          details={"count": len(subs)})


# ---------------------------------------------------------------------------
# monocoreflective tensor ideals


@dataclass(frozen=True, eq=False)
class TensorIdeal:
    objects: frozenset[int]
    coreflector_obj: tuple[int, ...]
    counit: tuple[int, ...]


def _coreflection_into(mc: MonoidalCategory, subset: frozenset[int],
                       a: int) -> tuple[int, int] | None:
    """A pair (object, counit) universal among morphisms from the subset
    into a, or None."""
    for g_obj in sorted(subset):
        for eps in mc.hom(g_obj, a):
            good = True
            for b in subset:
                for f in mc.hom(b, a):
                    fillers = [g for g in mc.hom(b, g_obj)
                               if mc.compose(eps, g) == f]
                    if len(fillers) != 1:
                        good = False
                        break
                if not good:
                    break
            if good:
                return g_obj, eps
    return None


def _tensor_ideal_on(mc: MonoidalCategory,
                     subset: frozenset[int]) -> TensorIdeal | None:
    """The tensor ideal on a tensor-absorbing union of iso classes, or
    None when it is not monocoreflective."""
    pairs = []
    for a in range(len(mc.objects)):
        pairs.append(_coreflection_into(mc, subset, a))
        if pairs[-1] is None:
            return None
    coreflectors, counits = zip(*pairs)
    eps_unit = counits[mc.unit]
    if not is_mono(mc, eps_unit) or \
            any(is_iso(mc, _tensor_left(mc, b, eps_unit)) is None for b in subset):
        return None
    return TensorIdeal(subset, coreflectors, counits)


def tensor_ideals(mc: MonoidalCategory, caps: Caps = DEFAULT_CAPS) -> list[TensorIdeal]:
    """All monocoreflective tensor ideals: full replete subcategories
    closed under tensoring by arbitrary objects, whose inclusion has a
    right adjoint with monic counit at the unit and invertible
    B (x) counit_I for every member B; listed by their iso classes, read
    as binary numerals with class 0 as the leading digit."""
    subunit_semilattice(mc)  # raises BuildError unless the category is firm
    classes = mc.cat.iso_classes
    caps.check("max_ideal_base", len(classes))
    class_of = {a: k for k, cls in enumerate(classes) for a in cls}
    # the classes of the a (x) b with b in one class absorb the tensor, as
    # c (x) (a (x) b) = (c (x) a) (x) b and (x) preserves isos, and an
    # absorbing union of classes is the union of these for its classes
    principal = [_mask(class_of[mc.tensor_obj(a, b)]
                       for a in range(len(mc.objects)) for b in cls)
                 for cls in classes]
    found = []
    for m in sorted(_unions(principal)[1:],
                    key=lambda m: [m >> k & 1 for k in range(len(classes))]):
        ideal = _tensor_ideal_on(mc, frozenset(a for k in _bits(m) for a in classes[k]))
        if ideal is not None:
            found.append(ideal)
    return found


def verify_ideal_bijection(mc: MonoidalCategory,
                           caps: Caps = DEFAULT_CAPS) -> PropertyReport:
    """The ideals are exactly the restrictions: subunit -> objects of its
    restriction, ideal -> class of its counit at the unit, and the two
    maps invert each other."""
    subs = enumerate_subunits(mc)
    ideals = tensor_ideals(mc, caps=caps)
    if len(ideals) != len(subs):
        return PropertyReport("ideal_bijection", False,
                              witness=(len(ideals), len(subs)),
                              details={"reason": "counts differ"})
    by_objects = {}
    for s in subs:
        keep = frozenset(a for a in range(len(mc.objects))
                         if is_iso(mc, _tensor_right(mc, s.rep, a)) is not None)
        by_objects[keep] = s
    for ideal in ideals:
        if ideal.objects not in by_objects:
            return PropertyReport(
                "ideal_bijection", False, witness=tuple(sorted(ideal.objects)),
                details={"reason": "ideal is not a restriction subcategory"})
        s = by_objects[ideal.objects]
        eps = ideal.counit[mc.unit]
        if factors_through(mc, eps, s.rep) is None or \
                factors_through(mc, s.rep, eps) is None:
            return PropertyReport(
                "ideal_bijection", False, witness=(eps, s.rep),
                details={"reason": "counit class differs from the subunit"})
        # re-verify tensor absorption independently of the search
        for a in range(len(mc.objects)):
            for b in ideal.objects:
                if mc.tensor_obj(a, b) not in ideal.objects:
                    raise ConsistencyError("found ideal is not tensor absorbing",
                                           details={"a": a, "b": b})
    return PropertyReport("ideal_bijection", True, details={"count": len(subs)})


# ---------------------------------------------------------------------------
# composition and tensor laws for restriction


@_per_category
def restriction_meet_failure(mc: MonoidalCategory) -> tuple | None:
    """The first failure of the composite and tensor laws of restriction,
    as ``(f, g, i, j, "compose" | "tensor")`` with f restricting to i, g to
    j and f o g or f (x) g not restricting to i /\\ j; None when
    both laws hold for every pair.

    Only these are checked, and that is exact given the top subunit in
    every row (f = (id_I (x) B) o f, a ``ConsistencyError`` otherwise):

    - every composable pair (f, g), first: the row of f o g contains the
      meets of the rows of f and g, a mask tabulated once per pair of
      rows;
    - the pairs (f, id_b), the first half of
      ``fincat._one_variable_pairs``: the row of f (x) id_b contains the
      rows of f and of id_b.  That is the tensor law at j = top and at
      i = top, since s /\\ top = s.

    The other half follows.  For g: A -> B, braiding naturality gives
    id_a (x) g = sigma_{a,B}^-1 o (g (x) id_a) o sigma_{a,A}, the
    inverse existing by ``braiding_invertible``.  Both braidings restrict
    to the top, so by the composite law the row of id_a (x) g contains
    every top /\\ s /\\ top = s of the row of g (x) id_a, which contains
    the rows of g and of id_a.  The one-variable facts give the tensor
    law at any pair f: A -> B, g: C -> D, for f (x) g =
    (f (x) id_D) o (id_A (x) g) by interchange, and the composite law at
    that pair asks for the meets of two rows that contain those of f and
    of g.  The witness is the one the sweep of every one-variable pair
    finds: the (id_a, g) half came last there, and it holds whenever
    everything before it does.
    """
    lat, table = subunit_semilattice(mc), restriction_table(mc)
    top = lat.top
    for f, row in enumerate(table):
        if not row >> top & 1:
            raise ConsistencyError("morphism does not restrict to the top subunit",
                                   details={"morphism": f})
    meets: dict[tuple[int, int], int] = {}
    for f, g in _composable_pairs(mc.morphisms, len(mc.objects)):
        pair = table[f], table[g]
        need = meets.get(pair)
        if need is None:
            need = meets[pair] = _mask(lat.meet(i, j) for i in _bits(pair[0])
                                       for j in _bits(pair[1]))
        row = table[mc.compose(f, g)]
        if need & ~row:
            i, j = next((i, j) for i in _bits(pair[0]) for j in _bits(pair[1])
                        if not row >> lat.meet(i, j) & 1)
            return f, g, i, j, "compose"
    for f, row in enumerate(table):
        for g in mc.cat.identity:
            missing = (row | table[g]) & ~table[mc.tensor_mor(f, g)]
            if missing:
                s = (missing & -missing).bit_length() - 1
                return (f, g, s, top, "tensor") if row >> s & 1 else \
                    (f, g, top, s, "tensor")
    return None


def restriction_composition_law(mc: MonoidalCategory) -> PropertyReport:
    """Where f restricts to s and g to t: the composite restricts to the
    meet, the tensor restricts to the meet (``restriction_meet_failure``),
    and restriction transfers across retractions."""
    failure = restriction_meet_failure(mc)
    if failure is not None:
        return PropertyReport("restriction_composition", False, witness=failure)
    table = restriction_table(mc)
    for m, e in retract_pairs(mc):
        if table[m] != table[e]:
            return PropertyReport(
                "restriction_composition", False, witness=(m, e, "retract"),
                details={"m_restricts": restricting_subunits(mc, m),
                         "e_restricts": restricting_subunits(mc, e)})
    return PropertyReport("restriction_composition", True)
