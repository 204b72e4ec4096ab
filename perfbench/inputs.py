"""Seeded input generators and the benchmark's own order-theoretic oracles.

Every generator takes a ``random.Random`` and returns plain JSON-able
data (label lists, pair lists, tables), so the same seed gives
byte-identical inputs and ``digest`` can fingerprint them.  The oracles
work on sets and tables directly and never call ``ttw``: they supply the
expected outcomes that the program's answers are checked against.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random


def digest(data) -> str:
    """sha256 of the canonical JSON text of ``data``."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# closure systems: meet-semilattices with top


def set_label(members) -> str:
    return "s" + "".join(str(i) for i in sorted(members))


def closure_family(rng, size: int, ground: int) -> list[frozenset]:
    """An intersection-closed family of subsets of range(ground) that
    holds the whole ground set and has exactly ``size`` members."""
    top = frozenset(range(ground))
    while True:
        family = {top}
        while len(family) < size:
            new = frozenset(i for i in range(ground) if rng.random() < 0.5)
            grown = set(family)
            grown.add(new)
            changed = True
            while changed:
                changed = False
                for a, b in itertools.combinations(list(grown), 2):
                    if a & b not in grown:
                        grown.add(a & b)
                        changed = True
            if len(grown) <= size:
                family = grown
            elif rng.random() < 0.2:
                break
        if len(family) == size:
            return sorted(family, key=lambda s: (len(s), sorted(s)))


def powerset_family(ground: int) -> list[frozenset]:
    return sorted((frozenset(c) for k in range(ground + 1)
                   for c in itertools.combinations(range(ground), k)),
                  key=lambda s: (len(s), sorted(s)))


def semilattice_doc(name: str, family) -> dict:
    """A ``kind: semilattice`` document for a closure system ordered by
    inclusion; meets are intersections."""
    labels = [set_label(s) for s in family]
    pairs = [[set_label(a), set_label(b)] for a in family for b in family
             if a < b]
    top = max(family, key=len)
    return {"kind": "semilattice", "name": name, "elements": labels,
            "leq": pairs, "top": set_label(top)}


def closure_join(family, a: frozenset, b: frozenset) -> frozenset:
    return min((s for s in family if a | b <= s), key=len)


def closure_is_distributive(family) -> bool:
    """Distributivity of the closure lattice, which on a finite lattice
    is the same as being a frame."""
    for x, y, z in itertools.product(family, repeat=3):
        lhs = x & closure_join(family, y, z)
        rhs = closure_join(family, x & y, x & z)
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# posets


def poset_doc(name: str, labels, pairs) -> dict:
    return {"name": name, "elements": list(labels),
            "leq": [list(p) for p in pairs]}


def antichain(n: int) -> dict:
    return poset_doc(f"antichain{n}", [f"a{i}" for i in range(n)], [])


def chain(n: int) -> dict:
    labels = [f"c{i}" for i in range(n)]
    return poset_doc(f"chain{n}", labels,
                     [(labels[i], labels[i + 1]) for i in range(n - 1)])


def family_poset(name: str, family) -> dict:
    return poset_doc(name, [set_label(s) for s in family],
                     [(set_label(a), set_label(b))
                      for a in family for b in family if a < b])


def leq_matrix(doc: dict) -> list[list[bool]]:
    """Reflexive-transitive closure of the document's pairs."""
    index = {x: i for i, x in enumerate(doc["elements"])}
    n = len(index)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for x, y in doc["leq"]:
        leq[index[x]][index[y]] = True
    for k, i, j in itertools.product(range(n), repeat=3):
        if leq[i][k] and leq[k][j]:
            leq[i][j] = True
    return leq


def own_downsets(doc: dict) -> list[frozenset]:
    """Every downset, by a bitmask sweep over the carrier."""
    leq = leq_matrix(doc)
    n = len(leq)
    out = []
    for mask in range(1 << n):
        s = frozenset(i for i in range(n) if mask >> i & 1)
        if all(i in s for j in s for i in range(n) if leq[i][j]):
            out.append(s)
    return out


def free_completion_size(doc: dict, flavour: str) -> int:
    """Elements of the free completion of a finite poset: on a finite
    poset every downset is finitely generated, and the directed downsets
    are the principal ones plus the empty one."""
    if flavour == "directed":
        return len(doc["elements"]) + 1
    return len(own_downsets(doc))


def random_poset(rng, n: int, downset_count: int, name: str) -> dict:
    """A random order on n elements with exactly ``downset_count``
    downsets, so the cost of the downset ladder does not depend on the
    seed."""
    labels = [f"p{i}" for i in range(n)]
    while True:
        pairs = [(labels[i], labels[j]) for i in range(n)
                 for j in range(i + 1, n) if rng.random() < 0.35]
        perm = labels[:]
        rng.shuffle(perm)
        rename = dict(zip(labels, perm))
        doc = poset_doc(name, labels, [(rename[x], rename[y]) for x, y in pairs])
        if len(own_downsets(doc)) == downset_count:
            return doc


# ---------------------------------------------------------------------------
# small commutative monoids


def _monoid(name, labels, op, unit) -> dict:
    n = len(labels)
    return {"name": name, "elements": list(labels),
            "mult": [[labels[op(i, j)] for j in range(n)] for i in range(n)],
            "unit": labels[unit]}


def cyclic(n: int) -> dict:
    return _monoid(f"z{n}", [f"g{i}" for i in range(n)],
                   lambda i, j: (i + j) % n, 0)


def truncated(n: int) -> dict:
    """{0, ..., n} under addition capped at n."""
    return _monoid(f"t{n}", [f"t{i}" for i in range(n + 1)],
                   lambda i, j: min(i + j, n), 0)


def min_chain(n: int) -> dict:
    return _monoid(f"min{n}", [f"m{i}" for i in range(n + 1)], min, n)


def max_chain(n: int) -> dict:
    return _monoid(f"max{n}", [f"x{i}" for i in range(n + 1)], max, 0)


def product(left: dict, right: dict) -> dict:
    la, ra = left["elements"], right["elements"]
    li = {x: i for i, x in enumerate(la)}
    ri = {x: i for i, x in enumerate(ra)}
    labels = [f"{x}.{y}" for x in la for y in ra]

    def op(p, q):
        a, b = divmod(p, len(ra))
        c, d = divmod(q, len(ra))
        x = li[left["mult"][a][c]]
        y = ri[right["mult"][b][d]]
        return x * len(ra) + y
    unit = li[left["unit"]] * len(ra) + ri[right["unit"]]
    return _monoid(f"{left['name']}x{right['name']}", labels, op, unit)


def relabel(rng, monoid: dict) -> dict:
    """The same monoid with its elements listed in a seeded order."""
    order = list(range(len(monoid["elements"])))
    rng.shuffle(order)
    labels = [monoid["elements"][k] for k in order]
    pos = {x: i for i, x in enumerate(monoid["elements"])}
    mult = [[monoid["mult"][pos[x]][pos[y]] for y in labels] for x in labels]
    return {"name": monoid["name"], "elements": labels, "mult": mult,
            "unit": monoid["unit"]}


def random_monoids(rng) -> list[dict]:
    """One monoid of each family the ``order`` workload names, with its
    elements listed in a seeded order.  The sizes are fixed, so the cost
    of building their ideal quantales does not depend on the seed."""
    picks = [cyclic(4), truncated(4), min_chain(4), max_chain(4),
             product(cyclic(2), truncated(2)), product(min_chain(1), max_chain(2))]
    return [relabel(rng, m) for m in picks]


def monoid_ideals(monoid: dict) -> list[frozenset]:
    """Ideals by brute force: subsets closed under multiplication by
    every element, the empty one included."""
    labels = monoid["elements"]
    n = len(labels)
    index = {x: i for i, x in enumerate(labels)}
    mult = [[index[v] for v in row] for row in monoid["mult"]]
    out = []
    for mask in range(1 << n):
        s = frozenset(i for i in range(n) if mask >> i & 1)
        if all(mult[x][m] in s for x in s for m in range(n)):
            out.append(s)
    return out


def ideal_label(monoid: dict, ideal) -> str:
    labels = monoid["elements"]
    return "{" + ",".join(sorted(labels[i] for i in ideal)) + "}" if ideal else "{}"


def idempotent_ideal_labels(monoid: dict) -> list[str]:
    """Labels of the ideals I with I.I = I: the subunits of the ideal
    quantale, all of which lie below the unit (the whole monoid)."""
    labels = monoid["elements"]
    index = {x: i for i, x in enumerate(labels)}
    mult = [[index[v] for v in row] for row in monoid["mult"]]
    out = []
    for ideal in monoid_ideals(monoid):
        square = frozenset(mult[x][y] for x in ideal for y in ideal)
        if square == ideal:
            out.append(ideal_label(monoid, ideal))
    return sorted(out)


# ---------------------------------------------------------------------------
# presheaves: coproducts of representables


def representable_tags(rng, homs, max_values: int, max_tags: int = 3) -> list[int]:
    """Objects a_1..a_k whose coproduct of representables has at most
    ``max_values`` elements at every object; ``homs[b][a]`` counts the
    morphisms b -> a."""
    n = len(homs)
    while True:
        tags = [rng.randrange(n) for _ in range(rng.randint(1, max_tags))]
        if all(sum(row[a] for a in tags) <= max_values for row in homs):
            return sorted(tags)


def day_triples(homs, tensor, left, right) -> int:
    """Triples (h: x -> b (x) c, u, v) that the quotient presentation of
    the Day tensor of two coproducts of representables starts from;
    ``tensor[b][c]`` is the object b (x) c."""
    n = len(homs)
    into = [sum(homs[x][y] for x in range(n)) for y in range(n)]
    lsize = [sum(homs[b][a] for a in left) for b in range(n)]
    rsize = [sum(homs[c][a] for a in right) for c in range(n)]
    return sum(into[tensor[b][c]] * lsize[b] * rsize[c]
               for b in range(n) for c in range(n))


def day_target(homs, tensor, max_values: int, right=None) -> int:
    """A triple count that does not depend on the seed: the median over
    draws from a fixed generator."""
    reference = random.Random(0)
    counts = []
    for _ in range(31):
        left = representable_tags(reference, homs, max_values)
        other = right or representable_tags(reference, homs, max_values)
        counts.append(day_triples(homs, tensor, left, other))
    return sorted(counts)[15]


def day_pair(rng, homs, tensor, max_values: int, target: int,
             right=None) -> tuple[list[int], list[int]]:
    """Seeded tags for the two sides of a Day tensor (the right side is
    fixed when given) whose triple count equals ``target`` where a draw
    reaches it.  The cost of a Day tensor grows with its triples, so this
    keeps the cost of each case steady from seed to seed."""
    best = None
    for _ in range(500):
        left = representable_tags(rng, homs, max_values)
        other = right or representable_tags(rng, homs, max_values)
        count = day_triples(homs, tensor, left, other)
        if best is None or abs(count - target) < abs(best[2] - target):
            best = (left, other, count)
        if count == target:
            break
    return best[0], best[1]


def day_class_counts(homs, tensor, left, right) -> list[int]:
    """Day convolution preserves coproducts in each variable and sends
    representables to representables, so the tensor of two coproducts of
    representables has |C(x, a (x) b)| elements at x, summed over pairs."""
    return [sum(homs[x][tensor[a][b]] for a in left for b in right)
            for x in range(len(homs))]
