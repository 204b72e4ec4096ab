#!/usr/bin/env python3
"""Time the restriction checks on every gallery entry and on each of its
three broad completions:

    python scripts/restriction_timings.py

Each row gives the object and morphism counts, then the wall seconds of
``verify_graded_monad``, ``verify_comonad_bijection``,
``restriction_category`` at every subunit (one total, followed by how
many of the subunits give a restriction; the others raise
``BuildError``, since only strict restrictions are built),
``verify_ideal_bijection`` and ``restriction_composition_law``.  Each
check runs on a freshly built category, so no derived fact (subunits,
restriction table) is reused between them, and the build itself is not
timed.  A check that raises prints its error class in place of its
time, and a completion whose build is refused prints its error class
alone.
"""

from __future__ import annotations

import time

from ttw import gallery
from ttw.daycat import broad_category
from ttw.errors import BuildError, TtwError
from ttw.restriction import (restriction_category, restriction_composition_law,
                             verify_comonad_bijection, verify_graded_monad,
                             verify_ideal_bijection)
from ttw.subunits import enumerate_subunits

FLAVOURS = ("finite", "directed", "all")


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


CHECKS = (verify_graded_monad, verify_comonad_bijection, restrict_all,
          verify_ideal_bijection, restriction_composition_law)
COLUMNS = ("category", "objects", "morphisms", "graded_s", "comonads_s",
           "restrict_s", "restricted", "ideals_s", "composition_s")
ROW = "{:<20}" + "{:>14}" * (len(COLUMNS) - 1)


def timed(check, build) -> tuple[str, object]:
    """Wall seconds of ``check`` on a fresh ``build()`` and its result,
    or the name of the error it raised twice."""
    mc = build()
    start = time.perf_counter()
    try:
        result = check(mc)
    except TtwError as exc:
        return type(exc).__name__, type(exc).__name__
    return f"{time.perf_counter() - start:.2f}", result


def row(label: str, build) -> None:
    try:
        mc = build()
    except TtwError as exc:
        print(ROW.format(label, type(exc).__name__, *[""] * (len(COLUMNS) - 2)),
              flush=True)
        return
    graded, comonads, restrict, ideals, composition = (timed(check, build)
                                                       for check in CHECKS)
    print(ROW.format(label, len(mc.objects), len(mc.morphisms), graded[0],
                     comonads[0], *restrict, ideals[0], composition[0]), flush=True)


def main() -> None:
    print(ROW.format(*COLUMNS))
    for name in gallery.names():
        row(name, lambda: gallery.build(name))
        for flavour in FLAVOURS:
            row(f"{name}/{flavour}",
                lambda: broad_category(gallery.build(name), flavour).category)


if __name__ == "__main__":
    main()
