#!/usr/bin/env python3
"""Time the two exhaustive checks of the join hierarchy on every gallery
entry and on its "all" completion:

    python scripts/hierarchy_timings.py

Each row gives the object, morphism and subunit counts, then the wall
time and verdicts of ``check_characterisation`` (all / finite /
directed families) and of ``is_locale_based``.  Each check runs on a
freshly built category, so no derived fact is reused between them, and
the build itself is not timed.  A check that raises prints the error
class in place of its verdicts.
"""

from __future__ import annotations

import time

from ttw import gallery
from ttw.daycat import broad_category
from ttw.errors import TtwError
from ttw.subunits import (check_characterisation, enumerate_subunits,
                          is_locale_based)

COLUMNS = ("category", "objects", "morphisms", "subunits", "char_s",
           "all", "finite", "directed", "locale_s", "locale")
ROW = "{:<16}" + "{:>10}" * (len(COLUMNS) - 1)


def timed(check, build):
    """Wall seconds of ``check`` on a fresh ``build()``, and its report
    or the name of the error it raised."""
    mc = build()
    start = time.perf_counter()
    try:
        result = check(mc)
    except TtwError as exc:
        result = type(exc).__name__
    return f"{time.perf_counter() - start:.2f}", result


def row(label: str, build) -> None:
    mc = build()
    counts = [len(mc.objects), len(mc.morphisms), len(enumerate_subunits(mc))]
    char_s, char = timed(check_characterisation, build)
    verdicts = ([char.details["verdicts"][k] for k in ("all", "finite", "directed")]
                if not isinstance(char, str) else [char, "", ""])
    locale_s, locale = timed(is_locale_based, build)
    if not isinstance(locale, str):
        locale = locale.holds
    print(ROW.format(label, *counts, char_s, *map(str, verdicts), locale_s,
                     str(locale)), flush=True)


def main() -> None:
    print(ROW.format(*COLUMNS))
    for name in gallery.names():
        row(name, lambda: gallery.build(name))
        row(f"{name}/all",
            lambda: broad_category(gallery.build(name), "all").category)


if __name__ == "__main__":
    main()
