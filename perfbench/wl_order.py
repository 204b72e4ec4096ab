"""Workload ``order``: the orderkit ladder.

All, finitely bounded and directed downsets of antichains, chains, B3 and
seeded random posets (only "all" for the 5-antichain, about 4 s a call);
``is_frame`` and ``is_distributive`` on B4, the
non-distributive M3 and N5 and seeded closure lattices, with
``is_frame_exhaustive`` alongside where its cap allows; ideal quantales
of seeded small commutative monoids and their ``quantale_subunits``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ttw import orderkit
from ttw.orderkit import FinMonoid

import common
import inputs
from harness import Case, expect_equal

# (elements, downsets) of the seeded random posets; a fixed downset count
# keeps the cost of a pass independent of the seed
RANDOM_POSETS = ((5, 12), (6, 16))
RANDOM_LATTICES = ((8, 4), (9, 4), (10, 5))   # (size, ground set)
EXHAUSTIVE_LIMIT = 12  # the default max_subunit_family_base cap

M3 = [frozenset(), frozenset({0}), frozenset({1}), frozenset({2}),
      frozenset({0, 1, 2})]
N5 = [frozenset(), frozenset({0}), frozenset({2}), frozenset({0, 1}),
      frozenset({0, 1, 2})]


@dataclass
class State:
    posets: list      # poset documents for the downset ladder
    lattices: list    # (name, closure family) for the frame checks
    monoids: list     # monoid documents
    inputs: dict


def setup(rng) -> State:
    posets = [inputs.antichain(4), inputs.antichain(5), inputs.chain(4),
              inputs.chain(12),
              inputs.family_poset("b3", inputs.powerset_family(3))]
    posets += [inputs.random_poset(rng, n, count, f"random{k}")
               for k, (n, count) in enumerate(RANDOM_POSETS)]
    lattices = [("b4", inputs.powerset_family(4)), ("m3", M3), ("n5", N5)]
    lattices += [(f"closure{k}", inputs.closure_family(rng, size, ground))
                 for k, (size, ground) in enumerate(RANDOM_LATTICES)]
    monoids = inputs.random_monoids(rng)
    data = {"posets": posets,
            "lattices": [(name, [sorted(s) for s in fam]) for name, fam in lattices],
            "monoids": monoids}
    return State(posets, lattices, monoids, data)


def _downset_case(doc: dict, flavour: str, seeded: bool) -> Case:
    own = inputs.own_downsets(doc)
    if flavour == "directed":
        leq = inputs.leq_matrix(doc)
        principal = {frozenset(i for i in range(len(leq)) if leq[i][j])
                     for j in range(len(leq))}
        own = [s for s in own if not s or s in principal]
    want = sorted(sorted(s) for s in own)

    def run():
        return getattr(orderkit, common.FREE_COMPLETION[flavour])(common.poset(doc))
    return Case(f"order/{doc['name']}/{flavour}", run,
                lambda r: expect_equal(
                    r, lambda dl: sorted(sorted(s) for s in dl.sets), want,
                    lambda dl: {"orderkit.downset_count": len(dl.sets)}), seeded)


def _frame_case(name: str, family, seeded: bool) -> Case:
    doc = inputs.family_poset(name, family)
    want = inputs.closure_is_distributive(family)
    exhaustive = len(family) <= EXHAUSTIVE_LIMIT

    def run():
        p = common.poset(doc)
        out = [orderkit.is_frame(p), orderkit.is_distributive(p)]
        if exhaustive:
            out.append(orderkit.is_frame_exhaustive(p))
        return out
    return Case(f"order/{name}/frame", run,
                lambda r: expect_equal(r, lambda v: v,
                                       [want] * (3 if exhaustive else 2)), seeded)


def _monoid_case(doc: dict) -> Case:
    labels = doc["elements"]
    index = {x: i for i, x in enumerate(labels)}
    ideals = inputs.monoid_ideals(doc)
    want = [len(ideals), inputs.idempotent_ideal_labels(doc)]

    def run():
        monoid = FinMonoid(tuple(labels),
                           tuple(tuple(index[v] for v in row) for row in doc["mult"]),
                           index[doc["unit"]])
        quantale = orderkit.ideal_quantale(monoid)
        return quantale, orderkit.quantale_subunits(quantale)
    return Case(f"order/{doc['name']}/ideal-quantale", run,
                lambda r: expect_equal(
                    r, lambda v: [len(v[0]), sorted(v[1].elements)], want), True)


def cases(state: State) -> list[Case]:
    # the 5-antichain takes about 4 s per downsets call; its "all" row
    # carries it, and finite/directed repeat the same call
    out = [_downset_case(doc, flavour, doc["name"].startswith("random"))
           for doc in state.posets for flavour in common.FREE_COMPLETION
           if doc["name"] != "antichain5" or flavour == "all"]
    out += [_frame_case(name, family, name.startswith("closure"))
            for name, family in state.lattices]
    out += [_monoid_case(doc) for doc in state.monoids]
    return out
