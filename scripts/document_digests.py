#!/usr/bin/env python3
"""Print one sha256 digest of ``schema.category_to_document`` per derived
category, or the error text where its build fails, and after it one
digest each of the category's restriction relation and canonical
supports, of its Day tensors, of its join hierarchy and of its
restriction laws:

    python scripts/document_digests.py > digests.txt

The categories are the gallery, the three broad completions of each
entry, and the restriction to every subunit and the simple quotient of
each of those.  The documents, supports, Day tensors and derived
categories of the m3 "all" and "finite" completions are skipped: their
documents hold over two million tensor rows.  The second digest covers,
for every morphism, the subunits it restricts to (by ``restricts_to``),
its canonical downset and supp (by ``canonical_support``), or the error
that stops them.  The third covers the Day classes and quotient actions
of three pairs among the representables of the first object, the last
object and the unit, and the unitor components of the first, or the
error that stops them.  The fourth covers the default-argument reports
(verdict, witness and details) of ``has_universal_finite_joins``,
``has_universal_directed_joins``, ``is_locale_based`` and
``check_characterisation``, the reports of the last three with
``include_empty=False`` (directed families nonempty), and ``is_preframe``
of the subunit lattice, or the error that stops them; the m3 "all" and
"finite" completions get this line too.  The fifth covers the reports
of ``verify_graded_monad``, ``verify_comonad_bijection``,
``verify_ideal_bijection`` and ``restriction_composition_law``, each or
the error that stops it.  Two commits that print the same lines export
the same tables and decide the same restrictions, supports, Day
tensors, join hierarchies and restriction laws for every category
listed.  ``scripts/document_digests.txt`` holds the expected lines, and
CI diffs the output against it.
"""

from __future__ import annotations

import hashlib
import json

from ttw import gallery
from ttw.daycat import (broad_category, coproduct_of_representables, day_tensor,
                        day_unitors)
from ttw.errors import TtwError
from ttw.fractions import simple_quotient
from ttw.orderkit import is_preframe
from ttw.restriction import (restriction_category, restriction_composition_law,
                             restricts_to, verify_comonad_bijection,
                             verify_graded_monad, verify_ideal_bijection)
from ttw.schema import category_to_document
from ttw.subunits import (check_characterisation, enumerate_subunits,
                          has_universal_directed_joins,
                          has_universal_finite_joins, is_locale_based,
                          subunit_semilattice)
from ttw.support import canonical_support

FLAVOURS = ("finite", "directed", "all")
SKIPPED = {("m3", "finite"), ("m3", "all")}
HIERARCHY = (has_universal_finite_joins, has_universal_directed_joins,
             is_locale_based, check_characterisation)
NONEMPTY_DIRECTED = HIERARCHY[1:]  # the checks with an ``include_empty``
RESTRICTION_LAWS = (verify_graded_monad, verify_comonad_bijection,
                    verify_ideal_bijection, restriction_composition_law)


def sha256(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def digest(mc, name: str) -> str:
    return sha256(category_to_document(mc, name))


def support_digest(mc) -> str:
    """The digest of each morphism's restricting subunits, canonical
    downset and supp, or of the error text that stops them."""
    try:
        subs = enumerate_subunits(mc)
        rows = []
        for f in mc.morphisms:
            support = canonical_support(mc, f.mid)
            rows.append([[k for k, s in enumerate(subs)
                          if restricts_to(mc, f.mid, s) is not None],
                         sorted(support.canonical), support.supp])
    except TtwError as exc:
        return f"{type(exc).__name__}: {exc}"
    return sha256(rows)


def day_digest(mc) -> str:
    """The digest of the Day classes and quotient actions of three pairs
    of representables and of the unitors of the first, or of the error
    text that stops them."""
    ends = (0, len(mc.objects) - 1, mc.unit)
    try:
        reps = [coproduct_of_representables(mc, [a]) for a in ends]
        rows = []
        for left, right in ((0, 1), (1, 2), (2, 0)):
            day = day_tensor(mc, reps[left], reps[right])
            rows.append([day.classes, sorted(day.presheaf.action.items())])
        rows.append([nt.components for nt in day_unitors(mc, reps[0])])
    except TtwError as exc:
        return f"{type(exc).__name__}: {exc}"
    return sha256(rows)


def hierarchy_digest(mc) -> str:
    """The digest of the default-argument reports of the four
    join-hierarchy checks, of the three that take ``include_empty`` with
    it off, and of ``is_preframe`` on the subunit lattice, or of the
    error text that stops them."""
    try:
        reports = [check(mc) for check in HIERARCHY]
        reports += [check(mc, include_empty=False) for check in NONEMPTY_DIRECTED]
        rows = [[r.name, r.holds, r.witness, r.details] for r in reports]
        rows.append(is_preframe(subunit_semilattice(mc).lattice))
    except TtwError as exc:
        return f"{type(exc).__name__}: {exc}"
    return sha256(rows)


def restriction_laws_digest(mc) -> str:
    """The digest of the report of each restriction law check, or of the
    error text that stops it."""
    rows = []
    for check in RESTRICTION_LAWS:
        try:
            r = check(mc)
            rows.append([r.name, r.holds, r.witness, r.details])
        except TtwError as exc:
            rows.append(f"{type(exc).__name__}: {exc}")
    return sha256(rows)


def attempt(name: str, build) -> object | None:
    """Print the digest of ``build()``, or its error; return the category."""
    try:
        mc = build()
    except TtwError as exc:
        print(f"{name}\t{type(exc).__name__}: {exc}")
        return None
    print(f"{name}\t{digest(mc, name)}")
    print(f"{name}/support\t{support_digest(mc)}")
    print(f"{name}/day\t{day_digest(mc)}")
    print(f"{name}/hierarchy\t{hierarchy_digest(mc)}")
    print(f"{name}/restriction-laws\t{restriction_laws_digest(mc)}")
    return mc


def derived(name: str, mc) -> None:
    """Print the restriction of ``mc`` to each subunit and its simple quotient."""
    for s in enumerate_subunits(mc):
        attempt(f"{name}/restrict[{mc.obj_label(s.domain)}]",
                lambda: restriction_category(mc, s).subcategory)
    attempt(f"{name}/simple_quotient", lambda: simple_quotient(mc).category)


def main() -> None:
    for entry in gallery.names():
        mc = attempt(entry, lambda: gallery.build(entry))
        if mc is None:
            continue
        derived(entry, mc)
        for flavour in FLAVOURS:
            name = f"{entry}/{flavour}"
            if (entry, flavour) in SKIPPED:
                print(f"{name}\tskipped")
                completion = broad_category(mc, flavour).category
                print(f"{name}/hierarchy\t{hierarchy_digest(completion)}")
                continue
            completion = attempt(name, lambda: broad_category(mc, flavour).category)
            if completion is not None:
                derived(name, completion)


if __name__ == "__main__":
    main()
