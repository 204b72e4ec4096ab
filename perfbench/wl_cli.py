"""Workload ``cli``: about 230 in-process ``ttw.cli.main(argv)`` requests
across every subcommand.

Inputs are the gallery documents written during set-up, plus generated
semilattice, quantale, monoid and monoid-ideal documents and presheaf
documents for ``day``.  Every request parses and builds a fresh category
and asks it one question; expected error exits are included.  Reports
are checked against the documented exit codes and the benchmark's own
expectations.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

from ttw import cli, gallery

import common
import expect
import inputs
from harness import Case, Checked, Raised, unexpected

NEEDS_DIR = True
CHECKS = ("firm", "stiff", "univ-finite", "univ-directed", "locale-based",
          "graded-monad", "comonads", "ideals", "characterisation")
ALWAYS_HOLD = ("firm", "stiff", "graded-monad", "comonads", "ideals")
NO_COMPLETE = ("m3",)   # its "all" completion belongs to ``complete``
DAY_ON = ("b2", "c3")
DAY_PAIRS = 2


@dataclass
class Request:
    cid: str
    argv: list
    code: int
    # (key of the report's results, expected value) pairs; a key ending
    # in "#" compares the length of the entry, one ending in "~" its
    # sorted form
    want: list | None = None
    seeded: bool = False


@dataclass
class State:
    requests: list
    directory: str
    inputs: dict


def _write(directory: str, name: str, data) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        if isinstance(data, str):
            handle.write(data)
        else:
            json.dump(data, handle, indent=1, sort_keys=True)
    return path


def _presheaf_doc(mc, name: str, tags) -> dict:
    """The coproduct of the representables at ``tags`` as a document:
    elements are (summand, morphism) pairs, acting by precomposition."""
    def elem(k, m):
        return f"{k}:{mc.mor_label(m)}"
    values = {mc.obj_label(b): [elem(k, m) for k, a in enumerate(tags)
                                for m in mc.hom(b, a)]
              for b in range(len(mc.objects))}
    action = {}
    for f in mc.morphisms:
        action[mc.mor_label(f.mid)] = {
            elem(k, m): elem(k, mc.compose(m, f.mid))
            for k, a in enumerate(tags) for m in mc.hom(f.cod, a)}
    return {"name": name, "values": values, "action": action}


def _quantale_doc(name: str, monoid: dict) -> dict:
    """The ideal quantale of a monoid, written out as a quantale."""
    labels = monoid["elements"]
    index = {x: i for i, x in enumerate(labels)}
    mult = [[index[v] for v in row] for row in monoid["mult"]]
    ideals = inputs.monoid_ideals(monoid)
    names = [inputs.ideal_label(monoid, s) for s in ideals]
    by_set = dict(zip(ideals, names))
    product = [[by_set[frozenset(mult[x][y] for x in a for y in b)]
                for b in ideals] for a in ideals]
    return {"kind": "quantale", "name": name, "elements": names,
            "leq": [[by_set[a], by_set[b]] for a in ideals for b in ideals
                    if a < b],
            "mult": product, "unit": by_set[frozenset(range(len(labels)))]}


def _gallery_requests(name: str, path: str, mc) -> list[Request]:
    _, subs, locale = expect.GALLERY[name]
    out = [Request(f"cli/{name}/subunits", ["--format", "json", "subunits", path],
                   expect.EXIT_OK, [("subunits", list(subs))])]
    for prop in CHECKS:
        want = None
        if prop in ALWAYS_HOLD:
            want = [("holds", True)]
        elif prop in ("locale-based", "characterisation"):
            want = [("holds", locale)]
        out.append(Request(f"cli/{name}/check/{prop}",
                           ["--format", "json", "check", prop, path],
                           expect.EXIT_OK, want))
    for s in subs:
        dom = mc.objects.index(s)
        kept = [mc.obj_label(a) for a in range(len(mc.objects))
                if mc.tensor_obj(dom, a) == a]
        out.append(Request(f"cli/{name}/restrict/{s}",
                           ["--format", "json", "restrict", "--subunit", s, path],
                           expect.EXIT_OK, [("objects", kept)]))
    out.append(Request(f"cli/{name}/restrict/unknown",
                       ["restrict", "--subunit", "nosuch", path], expect.EXIT_NAME))
    out.append(Request(f"cli/{name}/localise/simple",
                       ["--format", "json", "localise", "--simple", path],
                       expect.EXIT_OK))
    out.append(Request(f"cli/{name}/localise/{subs[0]}",
                       ["--format", "json", "localise", "--subunit", subs[0], path],
                       expect.EXIT_OK))
    for f in mc.morphisms:
        label = mc.mor_label(f.mid)
        want = [("supp", mc.obj_label(f.dom))] \
            if name in expect.SEMILATTICES else None
        out.append(Request(f"cli/{name}/support/{label}",
                           ["--format", "json", "support", "--morphism", label, path],
                           expect.EXIT_OK, want))
    if name not in NO_COMPLETE:
        for flavour in ("all", "finite", "directed"):
            count = inputs.free_completion_size(expect.subunit_poset(name),
                                                flavour)
            out.append(Request(
                f"cli/{name}/complete/{flavour}",
                ["--format", "json", "complete", "--flavour", flavour, path],
                expect.EXIT_OK, [("subunits#", count)]))
    return out


def setup(rng, directory: str) -> State:
    requests = []
    written = {}
    for name in sorted(expect.GALLERY):
        doc = gallery.GALLERY[name].document
        path = _write(directory, f"{name}.json", doc)
        written[name] = doc
        requests += _gallery_requests(name, path, gallery.build(name))
    requests.append(Request("cli/b2/subunits-text", ["subunits",
                                                     os.path.join(directory, "b2.json")],
                            expect.EXIT_OK))
    fixed = len(requests)

    for k, size in enumerate((5, 6, 7)):
        family = inputs.closure_family(rng, size, 4)
        doc = inputs.semilattice_doc(f"semi{k}", family)
        written[doc["name"]] = doc
        path = _write(directory, f"semi{k}.json", doc)
        locale = inputs.closure_is_distributive(family)
        bottom = inputs.set_label(family[0])
        requests += [
            Request(f"cli/semi{k}/subunits", ["--format", "json", "subunits", path],
                    expect.EXIT_OK, [("subunits~", sorted(doc["elements"]))]),
            Request(f"cli/semi{k}/check/locale-based",
                    ["--format", "json", "check", "locale-based", path],
                    expect.EXIT_OK, [("holds", locale)]),
            Request(f"cli/semi{k}/check/characterisation",
                    ["--format", "json", "check", "characterisation", path],
                    expect.EXIT_OK, [("holds", locale)]),
            Request(f"cli/semi{k}/localise/simple",
                    ["--format", "json", "localise", "--simple", path], expect.EXIT_OK),
            Request(f"cli/semi{k}/restrict/{bottom}",
                    ["--format", "json", "restrict", "--subunit", bottom, path],
                    expect.EXIT_OK, [("objects", [bottom])]),
        ]

    monoids = inputs.random_monoids(rng)
    for k, doc in enumerate(monoids[:2]):
        full = dict(doc, kind="monoid", name=f"mono{k}")
        written[full["name"]] = full
        path = _write(directory, f"{full['name']}.json", full)
        requests += [
            Request(f"cli/{full['name']}/subunits",
                    ["--format", "json", "subunits", path], expect.EXIT_OK,
                    [("subunits", ["*"])]),
            Request(f"cli/{full['name']}/check/comonads",
                    ["--format", "json", "check", "comonads", path], expect.EXIT_OK,
                    [("holds", True)]),
        ]
    for k, doc in enumerate(monoids[2:4]):
        full = dict(doc, kind="monoid_ideals", name=f"ideals{k}")
        written[full["name"]] = full
        path = _write(directory, f"{full['name']}.json", full)
        want = inputs.idempotent_ideal_labels(doc)
        requests += [
            Request(f"cli/{full['name']}/subunits",
                    ["--format", "json", "subunits", path], expect.EXIT_OK,
                    [("subunits~", want)]),
            Request(f"cli/{full['name']}/check/ideals",
                    ["--format", "json", "check", "ideals", path], expect.EXIT_OK,
                    [("holds", True)]),
        ]
    quantale = _quantale_doc("quantale", monoids[4])
    written[quantale["name"]] = quantale
    path = _write(directory, "quantale.json", quantale)
    requests += [
        Request("cli/quantale/subunits", ["--format", "json", "subunits", path],
                expect.EXIT_OK,
                [("subunits~", inputs.idempotent_ideal_labels(monoids[4]))]),
        Request("cli/quantale/check/graded-monad",
                ["--format", "json", "check", "graded-monad", path], expect.EXIT_OK,
                [("holds", True)]),
    ]

    for name in DAY_ON:
        mc = gallery.build(name)
        homs, tensor = common.tables(mc)
        n = len(mc.objects)
        for k in range(DAY_PAIRS):
            left = inputs.representable_tags(rng, homs, 6)
            right = inputs.representable_tags(rng, homs, 6)
            docs = [_presheaf_doc(mc, f"{name}-L{k}", left),
                    _presheaf_doc(mc, f"{name}-R{k}", right)]
            paths = [_write(directory, f"{d['name']}.json", d) for d in docs]
            written.update({d["name"]: d for d in docs})
            counts = inputs.day_class_counts(homs, tensor, left, right)
            requests.append(Request(
                f"cli/{name}/day/{k}",
                ["--format", "json", "day", "--left", paths[0], "--right", paths[1],
                 os.path.join(directory, f"{name}.json")], expect.EXIT_OK,
                [("class_counts", {mc.obj_label(a): counts[a] for a in range(n)})]))
    for req in requests[fixed:]:
        req.seeded = True

    bad = _write(directory, "bad.json", {"kind": "semilattice", "name": "bad",
                                         "elements": [], "leq": [], "top": "x"})
    broken = _write(directory, "broken.json", "{\"kind\": ")
    b2 = os.path.join(directory, "b2.json")
    c3 = os.path.join(directory, "c3.json")
    requests += [
        Request("cli/examples/list", ["examples", "list"], expect.EXIT_OK),
        Request("cli/examples/emit", ["examples", "emit", "q3"], expect.EXIT_OK),
        Request("cli/examples/unknown", ["examples", "emit", "nosuch"],
                expect.EXIT_NAME),
        Request("cli/malformed", ["subunits", bad], expect.EXIT_SCHEMA),
        Request("cli/not-json", ["subunits", broken], expect.EXIT_SCHEMA),
        Request("cli/cap-objects", ["--cap", "max_objects=1", "subunits", c3],
                expect.EXIT_CAP),
        Request("cli/cap-downsets", ["--cap", "max_downset_base=2", "complete",
                                     "--flavour", "all",
                                     os.path.join(directory, "boolean2x2.json")],
                expect.EXIT_CAP),
        Request("cli/cap-not-a-number", ["--cap", "max_objects=many", "subunits", b2],
                expect.EXIT_SCHEMA),
        Request("cli/cap-typo", ["--cap", "max_objcts=3", "subunits", b2],
                expect.EXIT_SCHEMA),
    ]
    argv = [[a.replace(directory, "<dir>") for a in r.argv] for r in requests]
    return State(requests, directory, {"documents": written, "argv": argv})


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _lookup(report: dict, key: str):
    results = report.get("results", {})
    if key.endswith("#"):
        return len(results.get(key[:-1], []))
    if key.endswith("~"):
        return sorted(results.get(key[:-1], []))
    return results.get(key)


def _case(req: Request, directory: str) -> Case:
    def check(result):
        if isinstance(result, Raised):
            return Checked(result.outcome(), unexpected(result))
        code, out, err = result
        outcome = [code, out.replace(directory, "<dir>"),
                   err.replace(directory, "<dir>")]
        sizes = {"caps.exceeded": 1} if code == expect.EXIT_CAP else {}
        if code != req.code:
            return Checked(outcome, f"exit {code}, expected {req.code}: "
                                    f"{err.strip()[:200]}", sizes, f"exit {code}")
        for key, want in req.want or ():
            got = _lookup(json.loads(out), key)
            if got != want:
                return Checked(outcome, f"{key} = {got!r}, expected {want!r}",
                               sizes)
        return Checked(outcome, None, sizes)
    return Case(req.cid, lambda: _call(req.argv), check, req.seeded)


def cases(state: State) -> list[Case]:
    return [_case(req, state.directory) for req in state.requests]
