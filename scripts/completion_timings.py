#!/usr/bin/env python3
"""Time the broad completions of every gallery entry, in each flavour,
and of the Boolean lattice B3 in the "finite" and "directed" flavours:

    python scripts/completion_timings.py

Each row gives the object, morphism and composable-pair counts of the
completion and the wall time of one ``broad_category`` call on a freshly
built source category, so no derived fact is reused between rows.  A
completion refused by a cap prints the name of that cap in place of the
counts; one that raises another error prints the error class.
"""

from __future__ import annotations

import itertools
import time

from ttw import gallery
from ttw.daycat import broad_category
from ttw.errors import CapExceededError, TtwError
from ttw.fincat import from_semilattice
from ttw.orderkit import FinPoset, Semilattice

FLAVOURS = ("all", "finite", "directed")
COLUMNS = ("completion", "objects", "morphisms", "pairs", "build_s")
ROW = "{:<20}" + "{:>14}" + "{:>10}" * (len(COLUMNS) - 2)


def boolean(atoms: int):
    """The thin category of the Boolean lattice on ``atoms`` atoms."""
    subsets = [frozenset(s) for r in range(atoms + 1)
               for s in itertools.combinations(range(atoms), r)]
    labels = ["{" + ",".join(map(str, sorted(s))) + "}" for s in subsets]
    pairs = [(labels[i], labels[j]) for i, a in enumerate(subsets)
             for j, b in enumerate(subsets) if a < b]
    return from_semilattice(Semilattice.from_poset(FinPoset.from_pairs(labels, pairs)))


def composable_pairs(cat) -> int:
    """The pairs (g, f) with cod f = dom g: per object, incoming times
    outgoing morphisms."""
    into = [0] * len(cat.objects)
    out_of = [0] * len(cat.objects)
    for f in range(len(cat.morphisms)):
        into[cat.cod(f)] += 1
        out_of[cat.dom(f)] += 1
    return sum(i * o for i, o in zip(into, out_of))


def row(label: str, build, flavour: str) -> None:
    mc = build()
    start = time.perf_counter()
    try:
        cat = broad_category(mc, flavour).category
    except CapExceededError as exc:
        counts = [exc.cap_name, "", ""]
    except TtwError as exc:
        counts = [type(exc).__name__, "", ""]
    else:
        counts = [len(cat.objects), len(cat.morphisms), composable_pairs(cat)]
    seconds = f"{time.perf_counter() - start:.3f}"
    print(ROW.format(label, *map(str, counts), seconds), flush=True)


def main() -> None:
    print(ROW.format(*COLUMNS))
    for name in gallery.names():
        for flavour in FLAVOURS:
            row(f"{name}/{flavour}", lambda: gallery.build(name), flavour)
    for flavour in ("finite", "directed"):
        row(f"b3/{flavour}", lambda: boolean(3), flavour)


if __name__ == "__main__":
    main()
