"""Command-line front end.

    ttw subunits [--dot PATH] FILE
    ttw check {firm,stiff,univ-finite,univ-directed,locale-based,
               graded-monad,comonads,ideals,characterisation} FILE
    ttw restrict --subunit NAME FILE
    ttw localise [--simple | --subunit NAME] FILE
    ttw support --morphism NAME FILE
    ttw complete --flavour {finite,directed,all} FILE
    ttw day --left PRESHEAF --right PRESHEAF FILE
    ttw examples {list, emit NAME}

Common flags: --format json|text, --cap NAME=N (repeatable).  Exit
codes: 2 schema violation or a file that cannot be read or written, 3
law violation while building, 4 unknown subunit/morphism name, 5 cap
exceeded.

The argument parser is built on the first ``main`` call and reused for
the rest of the process.  ``main(argv)`` stays re-entrant: every call
parses into a fresh namespace and reads the caps (``TTW_MAX_*`` and
``--cap``) afresh, and nothing of a parsed document or category is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile
from functools import cache

from . import gallery
from .caps import DEFAULT_CAPS, Caps, apply_overrides, caps_from_env
from .dot import render_dot
from .errors import (BuildError, CapExceededError, MalformedTableError,
                     UnknownNameError)
from .fincat import MonoidalCategory
from .schema import (SCHEMA_VERSION, DocumentError, build_category,
                     parse_category_document, parse_presheaf_document)
from .subunits import SubunitSemilattice, subunit_semilattice

EXIT_SCHEMA = 2
EXIT_BUILD = 3
EXIT_NAME = 4
EXIT_CAP = 5


class Report:
    def __init__(self, command: str, source: str, results: dict,
                 text: str | None = None):
        self.payload = {"schema_version": SCHEMA_VERSION, "command": command,
                        "input": source, "results": results}
        self._text = text

    def to_json(self) -> str:
        return json.dumps(self.payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        if self._text is not None:
            return self._text
        lines = [f"# {self.payload['command']} {self.payload['input']}"]

        def walk(value, indent):
            pad = "  " * indent
            if isinstance(value, dict):
                for key in value:
                    inner = value[key]
                    if isinstance(inner, (dict, list)):
                        lines.append(f"{pad}{key}:")
                        walk(inner, indent + 1)
                    else:
                        lines.append(f"{pad}{key}: {inner}")
            elif isinstance(value, list):
                for inner in value:
                    if isinstance(inner, dict):
                        walk(inner, indent)
                    elif isinstance(inner, list):
                        lines.append(f"{pad}- {json.dumps(inner)}")
                    else:
                        lines.append(f"{pad}- {inner}")

        walk(self.payload["results"], 0)
        return "\n".join(lines) + "\n"


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` through a temporary file renamed over ``path``,
    with the mode ``open(path, "w")`` would leave: the existing file's,
    or else 0o666 less the umask (``mkstemp`` alone gives 0o600).  A
    symlink is followed, as ``open`` follows it, so the link stays and
    its target gets the text.  A failure to write, such as a missing
    directory or a path naming a directory, is a ``DocumentError`` and
    leaves no temporary file."""
    real = os.path.realpath(path)
    try:
        try:
            mode = stat.S_IMODE(os.stat(real).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(real), prefix=".ttw-")
        try:
            with os.fdopen(fd, "w") as handle:
                os.fchmod(handle.fileno(), mode)
                handle.write(text)
            os.replace(tmp, real)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _parse_caps(entries) -> Caps:
    try:
        return apply_overrides(caps_from_env(DEFAULT_CAPS),
                               [("cap override", entry) for entry in entries or ()])
    except (KeyError, ValueError) as exc:
        raise DocumentError(exc.args[0]) from exc


def _read_json(path: str):
    """The JSON value in the file at ``path``; a syntax error names its
    line and column."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _build(path: str, caps: Caps) -> tuple[MonoidalCategory, str]:
    doc = parse_category_document(_read_json(path))
    return build_category(doc, caps=caps), doc.name


def _resolve_subunit(lat: SubunitSemilattice, name: str) -> int:
    names = lat.lattice.elements
    if name in names:
        return names.index(name)
    if name.isdigit() and int(name) < len(lat):
        return int(name)
    raise UnknownNameError(f"unknown subunit {name!r}; have {list(names)}")


def _resolve_morphism(mc: MonoidalCategory, name: str) -> int:
    for m in mc.morphisms:
        if mc.mor_label(m.mid) == name:
            return m.mid
    for a in range(len(mc.objects)):
        if mc.obj_label(a) == name:
            into_unit = mc.hom(a, mc.unit)
            if len(into_unit) == 1:
                return into_unit[0]
    if name.isdigit() and int(name) < len(mc.morphisms):
        return int(name)
    raise UnknownNameError(f"unknown morphism {name!r}")


def _report_property(prop) -> dict:
    out = {"holds": prop.holds}
    if prop.witness:
        out["witness"] = list(map(str, prop.witness))
    if prop.details:
        out["details"] = {k: str(v) for k, v in prop.details.items()}
    return out


def cmd_subunits(args, caps: Caps) -> Report:
    mc, name = _build(args.file, caps)
    lat = subunit_semilattice(mc)
    names = lat.lattice.elements
    results = {
        "count": len(lat),
        "subunits": list(names),
        "top": names[lat.top],
        "order": [[names[i], names[j]]
                  for i in range(len(lat)) for j in range(len(lat))
                  if i != j and lat.leq(i, j)],
    }
    if args.dot:
        _write_atomic(args.dot, render_dot(lat.lattice.poset, name))
        results["dot"] = args.dot
    return Report("subunits", name, results)


CHECKS = ("firm", "stiff", "univ-finite", "univ-directed", "locale-based",
          "graded-monad", "comonads", "ideals", "characterisation")


def cmd_check(args, caps: Caps) -> Report:
    from .restriction import (verify_comonad_bijection, verify_graded_monad,
                              verify_ideal_bijection)
    from .subunits import (check_characterisation, has_universal_directed_joins,
                           has_universal_finite_joins, is_firm, is_locale_based,
                           is_stiff)
    mc, name = _build(args.file, caps)
    dispatch = {
        "firm": lambda: is_firm(mc),
        "stiff": lambda: is_stiff(mc),
        "univ-finite": lambda: has_universal_finite_joins(mc, caps=caps),
        "univ-directed": lambda: has_universal_directed_joins(mc, caps=caps),
        "locale-based": lambda: is_locale_based(mc, caps=caps),
        "graded-monad": lambda: verify_graded_monad(mc),
        "comonads": lambda: verify_comonad_bijection(mc),
        "ideals": lambda: verify_ideal_bijection(mc, caps=caps),
        "characterisation": lambda: check_characterisation(mc, caps=caps),
    }
    prop = dispatch[args.property]()
    return Report(f"check {args.property}", name, _report_property(prop))


def cmd_restrict(args, caps: Caps) -> Report:
    from .restriction import restriction_category
    mc, name = _build(args.file, caps)
    lat = subunit_semilattice(mc)
    k = _resolve_subunit(lat, args.subunit)
    result = restriction_category(mc, lat.subunits[k])
    sub = result.subcategory
    return Report("restrict", name, {
        "subunit": args.subunit,
        "objects": list(sub.objects),
        "morphisms": len(sub.morphisms),
        "unit": sub.obj_label(sub.unit),
        "coreflector": {mc.obj_label(a): sub.obj_label(result.coreflector.on_obj(a))
                        for a in range(len(mc.objects))},
    })


def cmd_localise(args, caps: Caps) -> Report:
    from .fractions import localise, sigma, simple_quotient
    mc, name = _build(args.file, caps)
    lat = subunit_semilattice(mc)
    if not args.subunit:
        loc = simple_quotient(mc, caps=caps)
        mode = "simple"
    else:
        k = _resolve_subunit(lat, args.subunit)
        loc = localise(mc, sigma(mc, [lat.subunits[k]]), caps=caps)
        mode = f"subunit {args.subunit}"
    cat = loc.category
    hom_sizes = {}
    for a in range(len(cat.objects)):
        for b in range(len(cat.objects)):
            hom_sizes[f"{cat.obj_label(a)}->{cat.obj_label(b)}"] = \
                len(cat.hom(a, b))
    return Report("localise", name, {
        "mode": mode,
        "inverted_class_size": len(loc.sigma.members),
        "objects": list(cat.objects),
        "morphisms": len(cat.morphisms),
        "hom_sizes": hom_sizes,
    })


def cmd_support(args, caps: Caps) -> Report:
    from .support import canonical_support
    mc, name = _build(args.file, caps)
    lat = subunit_semilattice(mc)
    f = _resolve_morphism(mc, args.morphism)
    result = canonical_support(mc, f, lat=lat)
    names = lat.lattice.elements
    return Report("support", name, {
        "morphism": mc.mor_label(f),
        "supp": names[result.supp],
        "canonical_downset": [names[i] for i in sorted(result.canonical)],
    })


def cmd_complete(args, caps: Caps) -> Report:
    from .daycat import broad_category
    mc, name = _build(args.file, caps)
    completion = broad_category(mc, args.flavour, caps=caps)
    lat2 = subunit_semilattice(completion.category)
    cat = completion.category
    results = {
        "flavour": args.flavour,
        "objects": len(cat.objects),
        "morphisms": len(cat.morphisms),
        "subunits": list(lat2.lattice.elements),
        "embedding": {mc.obj_label(a):
                      cat.obj_label(completion.embedding.on_obj(a))
                      for a in range(len(mc.objects))},
    }
    if args.dot:
        _write_atomic(args.dot,
                      render_dot(lat2.lattice.poset, f"{name}-{args.flavour}"))
        results["dot"] = args.dot
    return Report("complete", name, results)


def cmd_day(args, caps: Caps) -> Report:
    from .daycat import day_tensor
    mc, name = _build(args.file, caps)

    def load_presheaf(path):
        data = _read_json(path)
        return parse_presheaf_document(data, mc), data["name"]

    left, left_name = load_presheaf(args.left)
    right, right_name = load_presheaf(args.right)
    result = day_tensor(mc, left, right, caps=caps)
    return Report("day", name, {
        "left": left_name,
        "right": right_name,
        "class_counts": {mc.obj_label(a): result.class_count(a)
                         for a in range(len(mc.objects))},
    })


def cmd_examples(args, caps: Caps) -> Report:
    if args.action == "list":
        return Report("examples list", "builtin",
                      {"names": gallery.names()})
    name = args.name
    if name not in gallery.GALLERY:
        raise UnknownNameError(f"unknown example {name!r}; have {gallery.names()}")
    document = gallery.GALLERY[name].document
    return Report("examples emit", name, document,
                  text=json.dumps(document, indent=2) + "\n")


@cache
def make_parser() -> argparse.ArgumentParser:
    """The ``ttw`` parser, built on first use and shared by every call;
    callers parse with it and must not change it."""
    parser = argparse.ArgumentParser(
        prog="ttw", description="tensor topology workbench")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--cap", action="append", metavar="NAME=N",
                        help="override an enumeration cap")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("subunits", help="enumerate subunits and their order")
    p.add_argument("file")
    p.add_argument("--dot", metavar="PATH",
                   help="write a Hasse diagram of the subunit order")
    p.set_defaults(func=cmd_subunits)

    p = sub.add_parser("check", help="decide a property of the category")
    p.add_argument("property", choices=CHECKS)
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("restrict", help="restrict to a subunit")
    p.add_argument("--subunit", required=True)
    p.add_argument("file")
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("localise", help="localise at subunit inclusions")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--simple", action="store_true",
                      help="invert every subunit (the default)")
    mode.add_argument("--subunit")
    p.add_argument("file")
    p.set_defaults(func=cmd_localise)

    p = sub.add_parser("support", help="canonical support of a morphism")
    p.add_argument("--morphism", required=True)
    p.add_argument("file")
    p.set_defaults(func=cmd_support)

    p = sub.add_parser("complete", help="broad-presheaf completion")
    p.add_argument("--flavour", choices=("finite", "directed", "all"),
                   default="all")
    p.add_argument("--dot", metavar="PATH",
                   help="write a Hasse diagram of the completed subunit order")
    p.add_argument("file")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("day", help="Day tensor of two presheaves")
    p.add_argument("--left", required=True, metavar="PRESHEAF")
    p.add_argument("--right", required=True, metavar="PRESHEAF")
    p.add_argument("file")
    p.set_defaults(func=cmd_day)

    p = sub.add_parser("examples", help="builtin gallery")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_examples)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command == "examples" and args.action == "emit" and not args.name:
        parser.error("examples emit needs a name")
    try:
        caps = _parse_caps(args.cap)
        report = args.func(args, caps)
    except DocumentError as exc:
        print(f"ttw: schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except MalformedTableError as exc:
        print(f"ttw: malformed tables: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except BuildError as exc:
        print(f"ttw: law violation: {exc}", file=sys.stderr)
        return EXIT_BUILD
    except UnknownNameError as exc:
        print(f"ttw: {exc}", file=sys.stderr)
        return EXIT_NAME
    except CapExceededError as exc:
        print(f"ttw: cap exceeded: {exc.cap_name}", file=sys.stderr)
        return EXIT_CAP
    text = report.to_json() if args.format == "json" else report.to_text()
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
