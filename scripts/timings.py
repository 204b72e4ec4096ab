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
subunit with how many are strict, the ideal bijection, the
composition law, and ``canonical_support_datum`` with
``verify_support_laws``, on each gallery entry and its three
completions),
``day`` (three Day tensors among the representables of the first
object, the last object and the unit, and the unitors of the first, as
``document_digests.py`` picks them, with the morphisms slid along and
the classes of the three tensors, on the b2, c3 and q3 "all"
completions and the simple quotient of m3 "directed"), ``localise``
(``simple_quotient`` with the morphisms of the quotient, and
``localise`` at every subunit with the morphisms of the localisations
summed, on each gallery entry, its "all" completion and m3
"directed", after the size of the class the simple quotient
inverts), ``oneshot`` (``ttw check characterisation``, ``ttw complete
--flavour all`` and ``ttw localise --simple`` on each gallery document,
then ``ttw day`` of the representables of b2's first and last object,
each in a fresh process as the console script runs it: its exit code,
its wall time and its own peak resident memory, VmHWM on Linux, which
the in-process benchmark cannot show) or ``order`` (``FinPoset.from_pairs``,
``downsets`` with the count of downsets, and ``is_frame`` of the downset
lattice, on antichains of 6, 8 and 9 elements, chains of 16 and 64 and
the Boolean lattices B3 and B4; ``max_downset_base`` refuses the
64-chain's downsets).  A row of the other tables gives the
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
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from collections import Counter

import ttw
from ttw import gallery
from ttw.daycat import (broad_category, coproduct_of_representables, day_tensor,
                        day_unitors)
from ttw.errors import BuildError, TtwError
from ttw.fincat import from_semilattice, validate
from ttw.fractions import localise, sigma, simple_quotient
from ttw.orderkit import FinPoset, Semilattice, downsets, is_frame
from ttw.restriction import (restriction_category, restriction_composition_law,
                             verify_comonad_bijection, verify_graded_monad,
                             verify_ideal_bijection)
from ttw.subunits import (check_characterisation, enumerate_subunits,
                          has_universal_finite_joins, is_locale_based, is_stiff)
from ttw.support import canonical_support_datum, verify_support_laws


def boolean_order(atoms: int) -> tuple[list[str], list[tuple[str, str]]]:
    """The subsets of ``atoms`` atoms and the pairs of their strict inclusions."""
    subsets = [s for r in range(atoms + 1)
               for s in itertools.combinations(range(atoms), r)]
    label = {s: "{" + ",".join(map(str, s)) + "}" for s in subsets}
    pairs = [(label[a], label[b]) for a in subsets for b in subsets if set(a) < set(b)]
    return list(label.values()), pairs


def b3():
    """The thin category of the Boolean lattice on three atoms."""
    return from_semilattice(Semilattice.from_poset(FinPoset.from_pairs(*boolean_order(3))))


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


def support_laws(mc):
    """``verify_support_laws`` of the canonical support datum."""
    return verify_support_laws(mc, canonical_support_datum(mc)[0])


def restriction_row(source, flavour) -> list:
    build = under_test(source, flavour)
    mc = build()
    cells = [len(mc.objects), len(mc.morphisms)]
    digits = {restrict_all: 4, restriction_composition_law: 3, support_laws: 3}
    for check in (verify_graded_monad, verify_comonad_bijection, restrict_all,
                  verify_ideal_bijection, restriction_composition_law, support_laws):
        seconds, result, error = timed(check, build, digits=digits.get(check, 2))
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


def order_sources():
    """Antichains of 6, 8 and 9 elements, chains of 16 and 64, then the
    Boolean lattices B3 and B4: label, a builder of (elements, pairs), None."""
    for n in (6, 8, 9):
        yield f"antichain{n}", lambda n=n: ([f"a{i}" for i in range(n)], []), None
    for n in (16, 64):
        labels = [f"c{i}" for i in range(n)]
        yield f"chain{n}", lambda labels=labels: (labels, list(zip(labels, labels[1:]))), None
    for atoms in (3, 4):
        yield f"b{atoms}", lambda atoms=atoms: boolean_order(atoms), None


def order_row(source, flavour) -> list:
    """``FinPoset.from_pairs`` on the pairs, ``downsets`` of the poset,
    then ``is_frame`` of the downset lattice, each on a fresh poset."""
    elements, pairs = source()
    pairs_s, poset, _ = timed(lambda args: FinPoset.from_pairs(*args),
                              lambda: (elements, pairs), digits=4)
    downsets_s, lattice, error = timed(
        downsets, lambda: FinPoset(poset.elements, poset.up), digits=4)
    if error:
        return [len(poset), error, pairs_s, downsets_s]
    frame_s, _, _ = timed(
        is_frame, lambda: FinPoset(lattice.poset.elements, lattice.poset.up), digits=4)
    return [len(poset), len(lattice.sets), pairs_s, downsets_s, frame_s]


def oneshot_sources():
    """Per ROADMAP command and gallery entry: label, argv with the
    document's path as ``{doc}``, gallery entry; then ``day`` on b2."""
    for name in gallery.names():
        for label, argv in (("characterisation", ["check", "characterisation"]),
                            ("complete", ["complete", "--flavour", "all"]),
                            ("localise", ["localise", "--simple"])):
            yield f"{label}/{name}", [*argv, "{doc}"], name
    yield "day/b2", ["day", "--left", "{left}", "--right", "{right}", "{doc}"], "b2"


def representable_document(mc, a: int) -> dict:
    """The presheaf hom(-, a) as a document, acting by precomposition."""
    label = mc.mor_label
    return {"name": f"y{a}",
            "values": {mc.obj_label(b): [label(m) for m in mc.hom(b, a)]
                       for b in range(len(mc.objects))},
            "action": {label(f.mid): {label(m): label(mc.compose(m, f.mid))
                                      for m in mc.hom(f.cod, a)}
                       for f in mc.morphisms}}


# the console script ``ttw`` runs ``sys.exit(main())``; the child also
# writes its peak resident set, VmHWM, to the file named by its first
# argument.  ``ru_maxrss`` would not do: on Linux a spawned child's
# starts from the peak of the process that spawned it.
CHILD = """import sys
from ttw.cli import main
peak = sys.argv.pop(1)
try:
    sys.exit(main())
finally:
    with open("/proc/self/status") as status, open(peak, "w") as out:
        out.writelines(line for line in status if line.startswith("VmHWM:"))
"""


def oneshot_row(argv, name) -> list:
    """One fresh ``ttw`` process: its exit code, wall seconds and peak
    resident megabytes."""
    mc = gallery.build(name)
    documents = {"doc": gallery.GALLERY[name].document,
                 "left": representable_document(mc, 0),
                 "right": representable_document(mc, len(mc.objects) - 1)}
    src = str(pathlib.Path(ttw.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as directory:
        paths = {key: os.path.join(directory, f"{key}.json") for key in documents}
        for key, document in documents.items():
            with open(paths[key], "w", encoding="utf-8") as handle:
                json.dump(document, handle)
        peak = os.path.join(directory, "peak")
        start = time.perf_counter()
        code = subprocess.run(
            [sys.executable, "-c", CHILD, peak, *(arg.format(**paths) for arg in argv)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        seconds = time.perf_counter() - start
        with open(peak, encoding="utf-8") as handle:
            kilobytes = int(handle.read().split()[1])
    return [code, f"{seconds:.3f}", f"{kilobytes / 1024:.1f}"]


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
         "restrict_s", "restricted", "ideals_s", "composition_s", "support_s"),
        "{:<20}" + "{:>14}" * 9,
        lambda: sources((None, "finite", "directed", "all")), restriction_row),
    "day": (
        ("category", "objects", "morphisms", "slid", "classes", "day01_s",
         "day12_s", "day20_s", "unitors_s"),
        "{:<22}" + "{:>10}" * 8, lambda: day_sources(), day_row),
    "localise": (
        ("category", "objects", "morphisms", "subunits", "inverted", "quotient_s",
         "quotient", "localise_s", "localised"),
        "{:<20}" + "{:>11}" * 8, lambda: localise_sources(), localise_row),
    "oneshot": (
        ("run", "exit", "wall_s", "peak_rss_mb"),
        "{:<28}" + "{:>12}" * 3, lambda: oneshot_sources(), oneshot_row),
    "order": (
        ("poset", "elements", "downsets", "from_pairs_s", "downsets_s", "is_frame_s"),
        "{:<12}" + "{:>18}" * 5, lambda: order_sources(), order_row),
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
