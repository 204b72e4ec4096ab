#!/usr/bin/env python3
"""Print one sha256 digest of ``schema.category_to_document`` per derived
category, or the error text where its build fails:

    python scripts/document_digests.py > digests.txt

The categories are the gallery, the three broad completions of each
entry, and the restriction to every subunit and the simple quotient of
each of those.  The m3 "all" and "finite" completions are skipped: their
documents hold over two million tensor rows.  Two commits that print the
same lines export the same tables for every category listed.
"""

from __future__ import annotations

import hashlib
import json

from ttw import gallery
from ttw.daycat import broad_category
from ttw.errors import TtwError
from ttw.fractions import simple_quotient
from ttw.restriction import restriction_category
from ttw.schema import category_to_document
from ttw.subunits import enumerate_subunits

FLAVOURS = ("finite", "directed", "all")
SKIPPED = {("m3", "finite"), ("m3", "all")}


def digest(mc, name: str) -> str:
    text = json.dumps(category_to_document(mc, name), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def attempt(name: str, build) -> object | None:
    """Print the digest of ``build()``, or its error; return the category."""
    try:
        mc = build()
    except TtwError as exc:
        print(f"{name}\t{type(exc).__name__}: {exc}")
        return None
    print(f"{name}\t{digest(mc, name)}")
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
                continue
            completion = attempt(name, lambda: broad_category(mc, flavour).category)
            if completion is not None:
                derived(name, completion)


if __name__ == "__main__":
    main()
