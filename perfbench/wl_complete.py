"""Workload ``complete``: the three broad-presheaf completions of the
gallery entries, plus m3 "all", B3 "finite" and B3 "directed", each
checked against its free completion; z2's completion checked for a
missing terminal object; then seeded Day tensors and unitors on
coproducts of representables over the gallery and its small completions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ttw import daycat, gallery, orderkit, subunits

import common
import expect
import inputs
from harness import Case, Checked, Raised, expect_equal, expect_ok, unexpected

LOCALE_CHECKED = ("b2", "c3", "q3", "boolean2x2")
DAY_GALLERY = ("b2", "boolean2x2", "c3", "ideal2", "monoid_idem", "q3", "z2")
DAY_COMPLETIONS = ("b2", "c3", "q3")
DAY_PAIRS = 3   # Day tensors per category
MAX_VALUES = 6  # the default max_presheaf_values cap


@dataclass
class State:
    completions: list   # (key, build function, flavour, own subunit count, locale)
    day_sources: dict   # key -> category built once during set-up
    day_cases: list     # (key, left tags, right tags) and (key, tags, None)
    tables: dict        # key -> (hom-set sizes, tensor on objects)
    inputs: dict


def setup(rng) -> State:
    completions = []
    for name in sorted(expect.GALLERY):
        flavours = ("all",) if name == "m3" else tuple(common.FREE_COMPLETION)
        for flavour in flavours:
            completions.append((name, lambda name=name: gallery.build(name), flavour,
                                inputs.free_completion_size(expect.subunit_poset(name), flavour),
                                flavour == "all" and name in LOCALE_CHECKED))
    b3 = inputs.semilattice_doc("b3", inputs.powerset_family(3))
    for flavour in ("finite", "directed"):
        completions.append(("b3", lambda: common.semilattice_category(b3), flavour,
                            inputs.free_completion_size(b3, flavour), False))

    sources = {name: gallery.build(name) for name in DAY_GALLERY}
    for name in DAY_COMPLETIONS:
        sources[f"{name}_all"] = daycat.broad_category(
            gallery.build(name), "all").category
    tables = {key: common.tables(mc) for key, mc in sources.items()}
    day_cases = []
    for key in sorted(sources):
        homs, tensor = tables[key]
        target = inputs.day_target(homs, tensor, MAX_VALUES)
        for _ in range(DAY_PAIRS):
            day_cases.append((key, *inputs.day_pair(rng, homs, tensor, MAX_VALUES,
                                                    target)))
        # the unitors tensor with the unit's representable on either side
        unit = [sources[key].unit]
        target = inputs.day_target(homs, tensor, MAX_VALUES, right=unit)
        tags, _ = inputs.day_pair(rng, homs, tensor, MAX_VALUES, target, right=unit)
        day_cases.append((key, tags, None))
    return State(completions, sources, day_cases, tables,
                 {"day": day_cases, "b3": b3})


def _completion_case(key, build, flavour, count, locale) -> Case:
    def run():
        mc = build()
        completion = daycat.broad_category(mc, flavour)
        lat2 = subunits.subunit_semilattice(completion.category)
        free = getattr(orderkit, common.FREE_COMPLETION[flavour])(
            subunits.subunit_semilattice(mc).lattice)
        iso = orderkit.poset_isomorphism(lat2.lattice.poset, free.poset)
        holds = subunits.is_locale_based(completion.category).holds \
            if locale else None
        return completion, len(lat2), iso, holds

    def check(result):
        if isinstance(result, Raised):
            return Checked(result.outcome(), unexpected(result))
        completion, n_sub, iso, holds = result
        cat = completion.category
        out = {"objects": len(cat.objects), "morphisms": len(cat.morphisms),
               "subunits": n_sub, "isomorphic": iso is not None,
               "locale_based": holds}
        want = dict(out, subunits=count, isomorphic=True,
                    locale_based=True if locale else None)
        sizes = {"daycat.completion_objects": len(cat.objects),
                 "daycat.completion_morphisms": len(cat.morphisms)}
        return Checked(out, None if out == want else f"got {out}, expected {want}",
                       sizes)
    return Case(f"complete/{key}/{flavour}", run, check)


def _day_cases(state: State) -> list[Case]:
    env = {}
    out = []
    for key in sorted(state.day_sources):
        def build(key=key):
            env[key] = common.clone(state.day_sources[key])
            return env[key]
        out.append(Case(f"complete/day/{key}/build", build,
                        lambda r, key=key: expect_equal(
                            r, lambda m: len(m.objects),
                            len(state.day_sources[key].objects))))
    for k, (key, left, right) in enumerate(state.day_cases):
        if right is None:
            def unitors(key=key, tags=left):
                mc = env[key]
                return daycat.day_unitors(
                    mc, daycat.coproduct_of_representables(mc, tags))
            out.append(Case(f"complete/day/{key}/unitors/{k}", unitors,
                            lambda r: expect_ok(r, lambda nts: [
                                list(nt.components) for nt in nts]), True))
            continue

        def tensor(key=key, left=left, right=right):
            mc = env[key]
            return daycat.day_tensor(
                mc, daycat.coproduct_of_representables(mc, left),
                daycat.coproduct_of_representables(mc, right))

        def check(result, key=key, left=left, right=right):
            want = inputs.day_class_counts(*state.tables[key], left, right)
            return expect_equal(
                result, lambda r: [r.class_count(a) for a in range(len(want))],
                want, lambda r: {"daycat.day_triples": sum(map(len, r.triples))})
        out.append(Case(f"complete/day/{key}/tensor/{k}", tensor, check, True))
    return out


def cases(state: State) -> list[Case]:
    out = [_completion_case(*spec) for spec in state.completions]
    out.append(Case(
        "complete/z2/no-terminal",
        lambda: daycat.completion_has_no_terminal(
            daycat.broad_category(gallery.build("z2"), "all")),
        lambda r: expect_equal(r, lambda v: v, True)))
    return out + _day_cases(state)
