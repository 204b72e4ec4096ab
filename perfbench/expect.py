"""Expected outcomes that do not come from the code under test.

The gallery facts are the documented expectations of each builtin
example; the exit codes are the ones the command line documents.  Facts
about generated inputs are computed by the oracles in ``inputs``.
"""

from __future__ import annotations

import inputs

# gallery name -> (object count, subunit domains bottom-up, locale based)
GALLERY = {
    "b2": (2, ("0", "1"), True),
    "c3": (3, ("0", "m", "1"), True),
    "boolean2x2": (4, ("0", "a", "b", "1"), True),
    "m3": (5, ("0", "a", "b", "c", "1"), False),
    "q3": (3, ("0", "1"), True),
    "monoid_idem": (1, ("*",), False),
    "z2": (1, ("*",), False),
    "ideal2": (3, ("{}", "{0}", "{0,1}"), True),
}

# gallery entries given as semilattices; their objects are the lattice
SEMILATTICES = ("b2", "c3", "boolean2x2", "m3")

# the order of the subunits where it is not the chain of GALLERY's list
SUBUNIT_ORDER = {
    "boolean2x2": (("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")),
    "m3": (("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")),
}

# documented exit codes of the command line
EXIT_OK, EXIT_SCHEMA, EXIT_BUILD, EXIT_NAME, EXIT_CAP = 0, 2, 3, 4, 5

# Cases whose expected outcome the program does not reach today.  They
# stay in the workloads and count as failures; a run is still correct
# when every failure is listed here and fails with the error named here
# (exception kind and cap name, or exit code).  A listed case that fails
# in another way is an unexpected failure.
# case id -> (error, what is expected and what happens instead)
KNOWN_DEFECTS = {
    "verify/b3/support-laws": (
        "CapExceededError:max_subunit_family_base",
        "support laws should hold; verify_support_laws raises "
        "CapExceededError max_subunit_family_base (20 downsets > 12)"),
    "complete/b3/finite": (
        "CapExceededError:max_morphisms",
        "the finite completion of B3 should build and match the free "
        "completion; raises CapExceededError max_morphisms"),
    "complete/b3/directed": (
        "CapExceededError:max_objects",
        "the directed completion of B3 should build and match the free "
        "completion; raises CapExceededError max_objects after the work"),
    "cli/cap-typo": (
        "exit 5",
        "an unknown cap name is a usage error (exit 2); "
        "`--cap max_objcts=3` exits 5"),
}


def subunit_poset(name: str) -> dict:
    """The documented subunit order of a gallery entry, as a poset."""
    subs = GALLERY[name][1]
    pairs = SUBUNIT_ORDER.get(name, tuple(zip(subs, subs[1:])))
    return inputs.poset_doc(name, subs, pairs)
