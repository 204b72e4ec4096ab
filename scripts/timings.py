#!/usr/bin/env python3
"""Time the exhaustive checks of ttw, one table per family of checks:

    python scripts/timings.py TABLE [TABLE ...]

TABLE is ``hierarchy`` (``check_characterisation``,
``is_locale_based``, ``is_stiff`` and ``has_universal_finite_joins`` on
each gallery entry and its "all" completion),
``completion`` (``broad_category`` of each gallery entry in each
flavour, and of B3 "finite" and "directed", then ``validate`` on the
built completion), ``restriction`` (the
graded monad, the comonad bijection, ``restriction_category`` at every
subunit with how many are strict, the ideal bijection and the
composition law, on each gallery entry and its three completions),
``day`` (three Day tensors among the representables of the first
object, the last object and the unit, and the unitors of the first, as
``document_digests.py`` picks them, with the morphisms slid along and
the classes of the three tensors, on the b2, c3 and q3 "all"
completions and the simple quotient of m3 "directed") or ``localise``
(``simple_quotient`` with the morphisms of the quotient, and
``localise`` at every subunit with the morphisms of the localisations
summed, on each gallery entry, its "all" completion and m3
"directed", after the size of the class the simple quotient
inverts).  A row gives the
sizes, then the seconds and result of each call, run on a freshly built
category so that no derived fact is reused; the build is not timed.  A
call that raises prints its error (the cap for a refused completion,
else the error class) in place of its result, or of its seconds in the
restriction and day tables and the stiffness and finite-join columns;
a row whose category cannot be built prints that error alone.
"""

from __future__ import annotations

import argparse
import itertools
import time
from collections import Counter

from ttw import gallery
from ttw.daycat import (broad_category, coproduct_of_representables, day_tensor,
                        day_unitors)
from ttw.errors import BuildError, TtwError
from ttw.fincat import from_semilattice, validate
from ttw.fractions import localise, sigma, simple_quotient
from ttw.orderkit import FinPoset, Semilattice
from ttw.restriction import (restriction_category, restriction_composition_law,
                             verify_comonad_bijection, verify_graded_monad,
                             verify_ideal_bijection)
from ttw.subunits import (check_characterisation, enumerate_subunits,
                          has_universal_finite_joins, is_locale_based, is_stiff)


def b3():
    """The thin category of the Boolean lattice on three atoms."""
    subsets = [s for r in range(4) for s in itertools.combinations(range(3), r)]
    label = {s: "{" + ",".join(map(str, s)) + "}" for s in subsets}
    pairs = [(label[a], label[b]) for a in subsets for b in subsets if set(a) < set(b)]
    return from_semilattice(Semilattice.from_poset(
        FinPoset.from_pairs(list(label.values()), pairs)))


def sources(flavours, b3_flavours=()):
    """Per gallery entry, then B3: label, source builder, flavour or None."""
    for name in gallery.names():
        for flavour in flavours:
            yield (f"{name}/{flavour}" if flavour else name,
                   lambda name=name: gallery.build(name), flavour)
    for flavour in b3_flavours:
        yield f"b3/{flavour}", b3, flavour


def under_test(source, flavour):
    """A builder of the category a row checks: the source or its completion."""
    if flavour is None:
        return source
    return lambda: broad_category(source(), flavour).category


def error_name(exc: TtwError) -> str:
    return getattr(exc, "cap_name", type(exc).__name__)  # a cap, else the class


def timed(call, build, digits: int = 2) -> tuple[str, object, str | None]:
    """Seconds of ``call`` on a fresh ``build()``, its result, its error or None."""
    mc = build()
    start = time.perf_counter()
    try:
        result, error = call(mc), None
    except TtwError as exc:
        result, error = None, error_name(exc)
    return f"{time.perf_counter() - start:.{digits}f}", result, error


def hierarchy_row(source, flavour) -> list:
    build = under_test(source, flavour)
    mc = build()
    char_s, char, char_error = timed(check_characterisation, build)
    verdicts = ([char_error, "", ""] if char_error else
                [char.details["verdicts"][k] for k in ("all", "finite", "directed")])
    locale_s, locale, locale_error = timed(is_locale_based, build)
    stiff_s, _, stiff_error = timed(is_stiff, build)
    finite_s, _, finite_error = timed(has_universal_finite_joins, build)
    return [len(mc.objects), len(mc.morphisms), len(enumerate_subunits(mc)),
            char_s, *verdicts, locale_s, locale_error or locale.holds,
            stiff_error or stiff_s, finite_error or finite_s]


def composable_pairs(cat) -> int:
    """The pairs (g, f) with cod f = dom g: per object, incoming times
    outgoing morphisms."""
    into = Counter(m.cod for m in cat.morphisms)
    return sum(into[m.dom] for m in cat.morphisms)


def completion_row(source, flavour) -> list:
    seconds, cat, error = timed(lambda mc: broad_category(mc, flavour).category,
                                source, digits=3)
    if error:
        return [error, "", "", seconds]
    validate_s, _, _ = timed(lambda mc: validate(mc.cat, mc.mon), lambda: cat, digits=4)
    return [len(cat.objects), len(cat.morphisms), composable_pairs(cat), seconds,
            validate_s]


def restrict_all(mc) -> str:
    """``restriction_category`` at every subunit: "built/subunits"."""
    subs = enumerate_subunits(mc)
    built = 0
    for s in subs:
        try:
            restriction_category(mc, s)
            built += 1
        except BuildError:
            pass
    return f"{built}/{len(subs)}"


def restriction_row(source, flavour) -> list:
    build = under_test(source, flavour)
    mc = build()
    cells = [len(mc.objects), len(mc.morphisms)]
    for check in (verify_graded_monad, verify_comonad_bijection, restrict_all,
                  verify_ideal_bijection, restriction_composition_law):
        seconds, result, error = timed(check, build,
                                       digits=4 if check is restrict_all else 2)
        cells.append(error or seconds)
        if check is restrict_all:
            cells.append(error or result)
    return cells


def day_sources():
    """The b2, c3 and q3 "all" completions, then the simple quotient of
    m3 "directed": label, source builder, flavour or None."""
    for name in ("b2", "c3", "q3"):
        yield f"{name}/all", lambda name=name: gallery.build(name), "all"
    yield "m3/directed/quotient", lambda: simple_quotient(
        broad_category(gallery.build("m3"), "directed").category).category, None


def representables(build):
    """A builder of a fresh category and the representables of its first
    object, its last object and its unit."""
    def built():
        mc = build()
        return mc, [coproduct_of_representables(mc, [a])
                    for a in (0, len(mc.objects) - 1, mc.unit)]
    return built


def day_row(source, flavour) -> list:
    build = under_test(source, flavour)
    mc = build()
    prepared = representables(build)
    cells, classes = [], 0
    for left, right in ((0, 1), (1, 2), (2, 0)):
        seconds, day, error = timed(
            lambda built: day_tensor(built[0], built[1][left], built[1][right]),
            prepared, digits=3)
        cells.append(error or seconds)
        classes += sum(map(len, day.classes)) if day else 0
    seconds, _, error = timed(lambda built: day_unitors(built[0], built[1][0]),
                              prepared, digits=3)
    return [len(mc.objects), len(mc.morphisms), len(mc.cat.generators), classes,
            *cells, error or seconds]


def localise_sources():
    """Each gallery entry and its "all" completion, then m3 "directed"."""
    yield from sources((None, "all"))
    yield "m3/directed", lambda: gallery.build("m3"), "directed"


def localise_all(mc) -> int:
    """``localise`` at every subunit: the morphisms of the results, summed."""
    return sum(len(localise(mc, sigma(mc, [s])).category.morphisms)
               for s in enumerate_subunits(mc))


def localise_row(source, flavour) -> list:
    build = under_test(source, flavour)
    mc = build()
    cells = [len(mc.objects), len(mc.morphisms), len(enumerate_subunits(mc)),
             len(sigma(mc).members)]
    for call in (lambda mc: len(simple_quotient(mc).category.morphisms), localise_all):
        seconds, result, error = timed(call, build, digits=3)
        cells += [seconds, error or result]
    return cells


# per table: its columns, its row format, its sources and its row
TABLES = {
    "hierarchy": (
        ("category", "objects", "morphisms", "subunits", "char_s", "all",
         "finite", "directed", "locale_s", "locale", "stiff_s", "finite_s"),
        "{:<16}" + "{:>10}" * 11, lambda: sources((None, "all")), hierarchy_row),
    "completion": (
        ("completion", "objects", "morphisms", "pairs", "build_s", "validate_s"),
        "{:<20}" + "{:>14}" + "{:>10}" * 3 + "{:>11}",
        lambda: sources(("all", "finite", "directed"), ("finite", "directed")),
        completion_row),
    "restriction": (
        ("category", "objects", "morphisms", "graded_s", "comonads_s",
         "restrict_s", "restricted", "ideals_s", "composition_s"),
        "{:<20}" + "{:>14}" * 8,
        lambda: sources((None, "finite", "directed", "all")), restriction_row),
    "day": (
        ("category", "objects", "morphisms", "slid", "classes", "day01_s",
         "day12_s", "day20_s", "unitors_s"),
        "{:<22}" + "{:>10}" * 8, lambda: day_sources(), day_row),
    "localise": (
        ("category", "objects", "morphisms", "subunits", "inverted", "quotient_s",
         "quotient", "localise_s", "localised"),
        "{:<20}" + "{:>11}" * 8, lambda: localise_sources(), localise_row),
}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("table", nargs="+", choices=TABLES)
    for k, name in enumerate(parser.parse_args(argv).table):
        columns, row_format, table_sources, row = TABLES[name]
        if k:
            print()
        print(row_format.format(*columns))
        for label, source, flavour in table_sources():
            try:
                cells = row(source, flavour)
            except TtwError as exc:  # the category itself is refused
                cells = [error_name(exc)]
            cells += [""] * (len(columns) - 1 - len(cells))
            print(row_format.format(label, *map(str, cells)), flush=True)


if __name__ == "__main__":
    main()
