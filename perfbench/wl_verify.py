"""Workload ``verify``: the property battery of the ``check`` commands and
``scripts/gallery_report.py``, on the gallery, B3, seeded random
meet-semilattices with top on 6-8 elements, and the non-thin "all"
completions of c3, q3 and boolean2x2 (built during set-up).

Per category: build, subunits, characterisation, locale based, graded
monad, comonads, ideals, simple quotient, restriction at each subunit,
support of each morphism and the support laws.  Support laws run on the
fixed inputs only, where B3 already shows their cap.  On boolean2x2 "all"
only build, subunits, characterisation, locale based, restriction and
supports run: its whole battery would take over half of a pass, and the
skipped checks run on the c3 and q3 completions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ttw import daycat, fincat, fractions, gallery, restriction, subunits, support

import common
import expect
import inputs
from harness import Case, Checked, Raised, canon, expect_equal, expect_holds, \
    expect_ok, unexpected

RANDOM_SIZES = (6, 6, 7, 7, 8, 8)
COMPLETIONS = ("c3", "q3", "boolean2x2")
HEAVY = ("graded-monad", "comonads", "ideals", "simple-quotient", "support-laws")


@dataclass
class Category:
    key: str
    build: object            # () -> MonoidalCategory
    n_objects: int
    subunits: tuple          # expected subunit domains; positions on completions
    ordered: bool            # whether their order is pinned too
    locale: bool
    completion: bool         # non-thin, built by daycat
    semilattice: bool
    skip: tuple = ()         # checks of the battery left out
    seeded: bool = False     # a seeded random semilattice


@dataclass
class State:
    categories: list
    inputs: dict


def setup(rng) -> State:
    cats = []
    for name in sorted(expect.GALLERY):
        n_obj, subs, locale = expect.GALLERY[name]
        cats.append(Category(name, lambda name=name: gallery.build(name), n_obj,
                             subs, True, locale, False,
                             name in expect.SEMILATTICES))
    docs = {"b3": inputs.semilattice_doc("b3", inputs.powerset_family(3))}
    families = {"b3": inputs.powerset_family(3)}
    for k, size in enumerate(RANDOM_SIZES):
        family = inputs.closure_family(rng, size, 4)
        docs[f"rand{k}"] = inputs.semilattice_doc(f"rand{k}", family)
        families[f"rand{k}"] = family
    for key, doc in docs.items():
        cats.append(Category(
            key, lambda doc=doc: common.semilattice_category(doc),
            len(doc["elements"]), tuple(sorted(doc["elements"])), False,
            inputs.closure_is_distributive(families[key]), False, True,
            () if key == "b3" else ("support-laws",), key != "b3"))
    for name in COMPLETIONS:
        completion = daycat.broad_category(gallery.build(name), "all")
        built = completion.category
        count = inputs.free_completion_size(expect.subunit_poset(name), "all")
        cats.append(Category(
            f"{name}_all", lambda built=built: common.clone(built),
            len(built.objects), tuple(str(k) for k in range(count)), False,
            True, True, False, HEAVY if name == "boolean2x2" else ()))
    return State(cats, {"semilattices": docs})


def _restrict_case(cat: Category, env: dict, k: int, label: str) -> Case:
    def subunit():
        lat = env[cat.key + "/lat"]
        # completions name their subunits by position
        return lat.subunits[k if cat.completion else lat.index_of_domain(label)]

    def run():
        return restriction.restriction_category(env[cat.key], subunit())

    def check(result):
        mc = env[cat.key]
        dom = subunit().domain
        if not cat.completion or dom == mc.unit:
            want = sorted(mc.obj_label(a) for a in range(len(mc.objects))
                          if mc.tensor_obj(dom, a) == a)
            return expect_equal(result, lambda r: sorted(r.subcategory.objects),
                                want)
        # a proper subunit of a non-thin completion needs non-trivial
        # unitors, which the library documents it rejects
        if isinstance(result, Raised) and result.kind == "BuildError" \
                and "strictly unital" in str(result.exc):
            return Checked(result.outcome())
        return Checked(canon(result.outcome() if isinstance(result, Raised)
                             else sorted(result.subcategory.objects)),
                       "expected the strict-unital rejection")
    return Case(f"verify/{cat.key}/restrict/{label}", run, check)


def _supports_case(cat: Category, env: dict) -> Case:
    def run():
        mc, lat = env[cat.key], env[cat.key + "/lat"]
        return [support.canonical_support(mc, f.mid, lat=lat).supp
                for f in mc.morphisms]

    def check(result):
        mc, lat = env[cat.key], env[cat.key + "/lat"]
        summary = lambda r: [mc.obj_label(lat.subunits[s].domain) for s in r]
        if cat.semilattice:
            # in a meet-semilattice, f: a <= b restricts to s iff a <= s,
            # so its support is its domain
            return expect_equal(result, summary,
                                [mc.obj_label(f.dom) for f in mc.morphisms])
        return expect_ok(result, summary)
    return Case(f"verify/{cat.key}/supports", run, check)


def _battery(cat: Category, env: dict) -> list[Case]:
    key = cat.key

    def build():
        env[key] = cat.build()
        return env[key]

    def lattice():
        env[key + "/lat"] = subunits.subunit_semilattice(env[key])
        return env[key + "/lat"]

    def check_subunits(result):
        if isinstance(result, Raised):
            return Checked(result.outcome(), unexpected(result))
        got = common.labels(env[key], result.subunits)
        if cat.ordered:
            return expect_equal(result, lambda r: got, list(cat.subunits))
        if cat.semilattice:
            return expect_equal(result, lambda r: sorted(got), list(cat.subunits))
        # completions: as many subunits as downsets of the source lattice
        return expect_equal(result, lambda r: [len(got), got],
                            [len(cat.subunits), got])

    def laws():
        datum, dl = support.canonical_support_datum(mc(), lat=env[key + "/lat"])
        return support.verify_support_laws(mc(), datum), dl

    def check_laws(result):
        if isinstance(result, Raised):
            return expect_holds(result)
        checked = expect_holds(result[0])
        checked.sizes = {"orderkit.downset_count": len(result[1].sets)}
        return checked

    mc = lambda: env[key]
    count = len(cat.subunits)
    cases = [
        Case(f"verify/{key}/build", build,
             lambda r: expect_equal(r, lambda m: len(m.objects), cat.n_objects)),
        Case(f"verify/{key}/subunits", lattice, check_subunits),
        Case(f"verify/{key}/characterisation",
             lambda: subunits.check_characterisation(mc()),
             lambda r: expect_holds(r, cat.locale)),
        Case(f"verify/{key}/locale-based",
             lambda: subunits.is_locale_based(mc()),
             lambda r: expect_holds(r, cat.locale)),
        Case(f"verify/{key}/graded-monad",
             lambda: restriction.verify_graded_monad(mc()), expect_holds),
        Case(f"verify/{key}/comonads",
             lambda: restriction.verify_comonad_bijection(mc()),
             lambda r: expect_holds(r, True, count=count)),
        Case(f"verify/{key}/ideals",
             lambda: restriction.verify_ideal_bijection(mc()),
             lambda r: expect_holds(r, True, count=count)),
        Case(f"verify/{key}/simple-quotient",
             lambda: fractions.simple_quotient(mc()),
             lambda r: expect_ok(r, lambda loc: [len(loc.category.objects),
                                                 len(loc.category.morphisms),
                                                 len(loc.sigma.members)])),
        Case(f"verify/{key}/support-laws", laws, check_laws),
    ]
    cases = [c for c in cases if c.cid.split("/")[2] not in cat.skip]
    cases += [_restrict_case(cat, env, k, label)
              for k, label in enumerate(cat.subunits)]
    cases.append(_supports_case(cat, env))
    return [replace(c, seeded=cat.seeded) for c in cases]


def _acceptance_cases(env: dict) -> list[Case]:
    def univ_finite():
        m3 = env["m3"]
        rep = subunits.has_universal_finite_joins(m3)
        replay = None
        if not rep.holds and len(rep.witness) == 7:
            _, _, _, left, top, bottom_leg, right_leg = rep.witness
            replay = fincat.is_pushout(m3, left, top, bottom_leg, right_leg)
        return rep, replay

    def check_univ(result):
        if isinstance(result, Raised):
            return Checked(result.outcome(), unexpected(result))
        rep, replay = result
        out = {"report": canon(rep), "pushout": replay}
        ok = not rep.holds and replay is False
        return Checked(out, None if ok else
                       "m3 should fail universal finite joins with a witness "
                       "square that is not a pushout")

    def support_eps():
        q3 = env["q3"]
        lat = env["q3/lat"]
        eps = next(m.mid for m in q3.morphisms if m.label == "eps->1")
        square = q3.tensor_mor(eps, eps)
        return [q3.obj_label(lat.subunits[support.canonical_support(
            q3, f, lat=lat).supp].domain) for f in (eps, square)]

    return [
        Case("verify/m3/univ-finite-witness", univ_finite, check_univ),
        Case("verify/q3/support-eps", support_eps,
             lambda r: expect_equal(r, lambda v: v, ["1", "0"])),
    ]


def cases(state: State) -> list[Case]:
    env: dict = {}
    out = []
    for cat in state.categories:
        out += _battery(cat, env)
    return out + _acceptance_cases(env)
