"""Helpers shared by the workloads that build ttw values from inputs.

Workloads call ``ttw`` through module attributes (``daycat.day_tensor``,
never a name imported from it), so the traced run sees every call.
"""

from __future__ import annotations

from ttw import fincat
from ttw.orderkit import FinPoset, Semilattice

# orderkit's free completion of a finite poset for each flavour
FREE_COMPLETION = {"all": "downsets", "finite": "finitely_bounded_downsets",
                   "directed": "directed_downsets"}


def semilattice_category(doc: dict):
    """The thin category of a ``kind: semilattice`` document, through the
    library constructors the command line also uses."""
    poset = FinPoset.from_pairs(doc["elements"], doc["leq"])
    return fincat.from_semilattice(Semilattice.from_poset(poset))


def poset(doc: dict) -> FinPoset:
    return FinPoset.from_pairs(doc["elements"], doc["leq"])


def clone(mc):
    """A new category object over the same tables, so nothing a later
    version of the program attaches to a category object carries over
    from one pass to the next."""
    cat, mon = mc.cat, mc.mon
    return fincat.MonoidalCategory(
        fincat.FinCategory(cat.objects, cat.morphisms, cat.identity,
                           cat.compose_table),
        fincat.MonoidalData(mon.unit, mon.tensor_obj, mon.tensor_mor,
                            mon.braiding))


def labels(mc, subunit_list) -> list[str]:
    return [mc.obj_label(s.domain) for s in subunit_list]


def tables(mc) -> tuple[list, list]:
    """Hom-set sizes and the tensor on objects, as plain tables."""
    n = range(len(mc.objects))
    return ([[len(mc.hom(b, a)) for a in n] for b in n],
            [[mc.tensor_obj(b, c) for c in n] for b in n])
