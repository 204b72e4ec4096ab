"""JSON schemas and parsing for category and presheaf documents.

A category document carries a top-level ``kind`` discriminator; the
shorthand kinds (quantale, semilattice, monoid, monoid_ideals) expand
through the fincat constructors so every analysis runs on one code
path.  Multiplication and meet tables are full matrices of labels, row
element times column element.

Each schema is compiled once, at import, into a plain predicate equal to
jsonschema's verdict (``_compile``); a document it accepts is valid.
jsonschema is imported only to word the refusal of a document the
predicate refuses, through ``best_match`` over the full schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .caps import DEFAULT_CAPS, Caps
from .errors import MalformedTableError
from .fincat import (FinCategory, MonoidalCategory, MonoidalData, Morphism,
                     _composable_pairs, assert_valid, from_commutative_monoid,
                     from_quantale, from_semilattice)
from .orderkit import FinMonoid, FinPoset, Quantale, Semilattice

SCHEMA_VERSION = 1

_LABEL = {"type": "string", "minLength": 1}
_LABELS = {"type": "array", "items": _LABEL, "minItems": 1}
_PAIRS = {"type": "array",
          "items": {"type": "array", "items": _LABEL,
                    "minItems": 2, "maxItems": 2}}
_MATRIX = {"type": "array", "items": {"type": "array", "items": _LABEL}}

CATEGORY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["kind", "name"],
    "properties": {"kind": {"enum": ["explicit", "quantale", "semilattice",
                                     "monoid", "monoid_ideals"]},
                   "name": _LABEL},
    "oneOf": [
        {
            "properties": {"kind": {"const": "semilattice"},
                           "elements": _LABELS, "leq": _PAIRS, "top": _LABEL},
            "required": ["kind", "elements", "leq", "top"],
        },
        {
            "properties": {"kind": {"const": "quantale"},
                           "elements": _LABELS, "leq": _PAIRS,
                           "mult": _MATRIX, "unit": _LABEL},
            "required": ["kind", "elements", "leq", "mult", "unit"],
        },
        {
            "properties": {"kind": {"enum": ["monoid", "monoid_ideals"]},
                           "elements": _LABELS, "mult": _MATRIX,
                           "unit": _LABEL},
            "required": ["kind", "elements", "mult", "unit"],
        },
        {
            "properties": {
                "kind": {"const": "explicit"},
                "objects": _LABELS,
                "morphisms": {"type": "array",
                              "items": {"type": "object",
                                        "required": ["dom", "cod", "label"],
                                        "properties": {"dom": _LABEL,
                                                       "cod": _LABEL,
                                                       "label": _LABEL}}},
                "identity": {"type": "array", "items": _LABEL},
                "compose": {"type": "array",
                            "items": {"type": "array", "items": _LABEL,
                                      "minItems": 3, "maxItems": 3}},
                "unit": _LABEL,
                "tensor_obj": _MATRIX,
                "tensor_mor": {"type": "array",
                               "items": {"type": "array", "items": _LABEL,
                                         "minItems": 3, "maxItems": 3}},
                "braiding": _MATRIX,
            },
            "required": ["kind", "objects", "morphisms", "identity", "compose",
                         "unit", "tensor_obj", "tensor_mor", "braiding"],
        },
    ],
}

PRESHEAF_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["name", "values", "action"],
    "properties": {
        "name": _LABEL,
        "values": {"type": "object",
                   "additionalProperties": {"type": "array", "items": _LABEL}},
        "action": {"type": "object",
                   "additionalProperties": {"type": "object",
                                            "additionalProperties": _LABEL}},
    },
}


@dataclass(frozen=True)
class CategoryDocument:
    kind: str
    name: str
    payload: dict


class DocumentError(Exception):
    """Schema-level problem in an input document, with a location."""


_TYPES = {"object": dict, "array": list, "string": str}


def _check(key: str, value, schema: dict):
    """The predicate of one keyword of ``schema``.  As in the draft, a
    keyword about objects, arrays or strings holds of any other value."""
    if key == "type" and isinstance(value, str) and value in _TYPES:
        return lambda d, t=_TYPES[value]: isinstance(d, t)
    if key == "minLength":
        return lambda d: not isinstance(d, str) or len(d) >= value
    if key == "minItems":
        return lambda d: not isinstance(d, list) or len(d) >= value
    if key == "maxItems":
        return lambda d: not isinstance(d, list) or len(d) <= value
    if key == "items":
        item = _compile(value)
        return lambda d: not isinstance(d, list) or all(map(item, d))
    if key == "required":
        return lambda d: not isinstance(d, dict) or all(k in d for k in value)
    if key == "properties":
        props = [(k, _compile(v)) for k, v in value.items()]
        return lambda d: not isinstance(d, dict) or \
            all(p(d[k]) for k, p in props if k in d)
    if key == "additionalProperties":
        known, extra = set(schema.get("properties", ())), _compile(value)
        return lambda d: not isinstance(d, dict) or \
            all(extra(v) for k, v in d.items() if k not in known)
    if key in ("enum", "const"):
        allowed = value if key == "enum" else [value]
        if all(isinstance(v, str) for v in allowed):
            return lambda d: isinstance(d, str) and d in allowed
    if key == "oneOf":
        branches = [_compile(branch) for branch in value]
        return lambda d: sum(b(d) for b in branches) == 1
    raise ValueError(f"no predicate for schema keyword {key!r}: {value!r}")


def _compile(schema: dict):
    """One predicate equal to ``Draft202012Validator(schema).is_valid`` on
    JSON values (what ``json.load`` returns), for a schema built from the
    keywords ``_check`` knows: ``type`` (object, array or string),
    ``minLength``, ``minItems``, ``maxItems``, ``items``, ``required``,
    ``properties``, ``additionalProperties``, string-valued ``enum`` and
    ``const``, and ``oneOf`` (exactly one branch holds).

    The draft validates a value against a schema by applying each
    keyword to it and requiring that every one hold, and each of these
    keywords is a fixed condition on the value and the verdicts of its
    subschemas on its parts, which ``_check`` states.  A JSON value
    equals a string only if it is that string, so ``in`` is the draft's
    equality for ``enum`` and ``const``.  ``$schema`` only names the
    draft.  Any other keyword raises ValueError, so a schema cannot
    outgrow its predicate."""
    checks = [_check(key, value, schema) for key, value in schema.items()
              if key != "$schema"]

    def holds(data) -> bool:
        for check in checks:
            if not check(data):
                return False
        return True
    return holds


_SCHEMAS = {"category": CATEGORY_SCHEMA, "presheaf": PRESHEAF_SCHEMA}
_ACCEPTS = {name: _compile(schema) for name, schema in _SCHEMAS.items()}


@cache
def _validator(name: str):
    """The jsonschema validator of one schema, built on the first
    refusal; jsonschema is imported only then."""
    from jsonschema import Draft202012Validator
    return Draft202012Validator(_SCHEMAS[name])


def _validate(data: object, name: str) -> None:
    """Raise DocumentError for the error ``jsonschema.validate`` would raise.

    A document the schema's compiled predicate accepts is valid, and
    ``_validate`` returns at once.  A refused document goes through
    ``best_match`` over the full schema, so every refusal message is
    jsonschema's."""
    if _ACCEPTS[name](data):
        return
    from jsonschema.exceptions import best_match
    error = best_match(_validator(name).iter_errors(data))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "(root)"
        raise DocumentError(f"at {path}: {error.message}") from error


def parse_category_document(data: object) -> CategoryDocument:
    _validate(data, "category")
    payload = dict(data)
    return CategoryDocument(payload.pop("kind"), payload.pop("name"), payload)


def _index_table(labels: list[str], what: str) -> dict[str, int]:
    index = {}
    for i, label in enumerate(labels):
        if label in index:
            raise DocumentError(f"duplicate {what} label {label!r}")
        index[label] = i
    return index


def _matrix_to_indices(matrix, index, n, what) -> tuple[tuple[int, ...], ...]:
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise DocumentError(f"{what} must be a {n}x{n} matrix")
    out = []
    for row in matrix:
        try:
            out.append(tuple(index[x] for x in row))
        except KeyError as exc:
            raise DocumentError(f"unknown label {exc.args[0]!r} in {what}") from exc
    return tuple(out)


def build_category(doc: CategoryDocument, caps: Caps = DEFAULT_CAPS) -> MonoidalCategory:
    """Expand a document through the constructors; raises DocumentError
    for reference problems and BuildError for law violations."""
    payload = doc.payload
    if doc.kind == "semilattice":
        elements = payload["elements"]
        _index_table(elements, "element")
        try:
            poset = FinPoset.from_pairs(elements, payload["leq"])
        except MalformedTableError as exc:
            raise DocumentError(str(exc)) from exc
        if payload["top"] not in elements:
            raise DocumentError(f"unknown top {payload['top']!r}")
        lat = Semilattice.from_poset(poset)
        if lat.top != elements.index(payload["top"]):
            raise DocumentError("declared top is not the top of the order")
        return from_semilattice(lat, caps=caps)
    if doc.kind == "quantale":
        elements = payload["elements"]
        index = _index_table(elements, "element")
        try:
            poset = FinPoset.from_pairs(elements, payload["leq"])
        except MalformedTableError as exc:
            raise DocumentError(str(exc)) from exc
        mult = _matrix_to_indices(payload["mult"], index, len(elements), "mult")
        if payload["unit"] not in index:
            raise DocumentError(f"unknown unit {payload['unit']!r}")
        quantale = Quantale(poset, mult, index[payload["unit"]])
        return from_quantale(quantale, caps=caps)
    if doc.kind in ("monoid", "monoid_ideals"):
        elements = payload["elements"]
        index = _index_table(elements, "element")
        mult = _matrix_to_indices(payload["mult"], index, len(elements), "mult")
        if payload["unit"] not in index:
            raise DocumentError(f"unknown unit {payload['unit']!r}")
        monoid = FinMonoid(tuple(elements), mult, index[payload["unit"]])
        mode = "ideal_quantale" if doc.kind == "monoid_ideals" else "one_object"
        return from_commutative_monoid(monoid, mode=mode, caps=caps)
    return _build_explicit(doc, caps)


def _build_explicit(doc: CategoryDocument, caps: Caps) -> MonoidalCategory:
    payload = doc.payload
    objects = payload["objects"]
    obj_index = _index_table(objects, "object")
    mor_labels = [m["label"] for m in payload["morphisms"]]
    mor_index = _index_table(mor_labels, "morphism")
    morphisms = []
    for k, m in enumerate(payload["morphisms"]):
        if m["dom"] not in obj_index or m["cod"] not in obj_index:
            raise DocumentError(f"morphism {m['label']!r} has unknown endpoints")
        morphisms.append(Morphism(k, obj_index[m["dom"]], obj_index[m["cod"]],
                                  m["label"]))
    if len(payload["identity"]) != len(objects):
        raise DocumentError("identity list must match the objects")
    identity = []
    for label in payload["identity"]:
        if label not in mor_index:
            raise DocumentError(f"unknown identity morphism {label!r}")
        identity.append(mor_index[label])
    compose = {}
    for g, f, h in payload["compose"]:
        for x in (g, f, h):
            if x not in mor_index:
                raise DocumentError(f"unknown morphism {x!r} in compose")
        compose[(mor_index[g], mor_index[f])] = mor_index[h]
    if payload["unit"] not in obj_index:
        raise DocumentError(f"unknown unit object {payload['unit']!r}")
    n = len(objects)
    tensor_obj = []
    if len(payload["tensor_obj"]) != n:
        raise DocumentError("tensor_obj must be square in the objects")
    for row in payload["tensor_obj"]:
        if len(row) != n or any(x not in obj_index for x in row):
            raise DocumentError("tensor_obj row malformed")
        tensor_obj.append(tuple(obj_index[x] for x in row))
    tensor_mor = {}
    for f, g, h in payload["tensor_mor"]:
        for x in (f, g, h):
            if x not in mor_index:
                raise DocumentError(f"unknown morphism {x!r} in tensor_mor")
        tensor_mor[(mor_index[f], mor_index[g])] = mor_index[h]
    braiding = []
    if len(payload["braiding"]) != n:
        raise DocumentError("braiding must be square in the objects")
    for row in payload["braiding"]:
        if len(row) != n or any(x not in mor_index for x in row):
            raise DocumentError("braiding row malformed")
        braiding.append(tuple(mor_index[x] for x in row))
    try:
        cat = FinCategory(tuple(objects), tuple(morphisms), tuple(identity),
                          compose)
        mon = MonoidalData(obj_index[payload["unit"]], tuple(tensor_obj),
                           tensor_mor, tuple(braiding))
    except MalformedTableError as exc:
        raise DocumentError(str(exc)) from exc
    return assert_valid(MonoidalCategory(cat, mon), caps=caps)


def category_to_document(mc: MonoidalCategory, name: str) -> dict:
    """Explicit tables for any category; inverse of the explicit kind."""
    return {
        "kind": "explicit",
        "name": name,
        "objects": list(mc.objects),
        "morphisms": [{"dom": mc.obj_label(m.dom), "cod": mc.obj_label(m.cod),
                       "label": mc.mor_label(m.mid)} for m in mc.morphisms],
        "identity": [mc.mor_label(mc.identity(a))
                     for a in range(len(mc.objects))],
        "compose": [[mc.mor_label(g), mc.mor_label(f), mc.mor_label(mc.compose(g, f))]
                    for g, f in sorted(_composable_pairs(mc.morphisms, len(mc.objects)))],
        "unit": mc.obj_label(mc.unit),
        "tensor_obj": [[mc.obj_label(mc.tensor_obj(a, b))
                        for b in range(len(mc.objects))]
                       for a in range(len(mc.objects))],
        "tensor_mor": [[mc.mor_label(f), mc.mor_label(g),
                        mc.mor_label(mc.tensor_mor(f, g))]
                       for f in range(len(mc.morphisms))
                       for g in range(len(mc.morphisms))],
        "braiding": [[mc.mor_label(mc.braiding(a, b))
                      for b in range(len(mc.objects))]
                     for a in range(len(mc.objects))],
    }


def parse_presheaf_document(data: object, mc: MonoidalCategory):
    """A presheaf document against a built category: values per object
    label, action per morphism label mapping target elements back."""
    from .daycat import Presheaf, check_presheaf
    _validate(data, "presheaf")
    obj_index = {mc.obj_label(a): a for a in range(len(mc.objects))}
    values: list[tuple] = [()] * len(mc.objects)
    for label, elems in data["values"].items():
        if label not in obj_index:
            raise DocumentError(f"unknown object {label!r} in presheaf values")
        if len(set(elems)) != len(elems):
            raise DocumentError(f"duplicate elements at object {label!r}")
        values[obj_index[label]] = tuple(elems)
    mor_by_label = {}
    for m in mc.morphisms:
        mor_by_label.setdefault(mc.mor_label(m.mid), m.mid)
    action: dict[int, tuple[int, ...]] = {}
    for label, mapping in data["action"].items():
        if label not in mor_by_label:
            raise DocumentError(f"unknown morphism {label!r} in presheaf action")
        mid = mor_by_label[label]
        dom, cod = mc.dom(mid), mc.cod(mid)
        row = []
        for elem in values[cod]:
            if elem not in mapping:
                raise DocumentError(
                    f"action of {label!r} misses element {elem!r}")
            target = mapping[elem]
            if target not in values[dom]:
                raise DocumentError(
                    f"action of {label!r} sends {elem!r} to unknown {target!r}")
            row.append(values[dom].index(target))
        action[mid] = tuple(row)
    for a in range(len(mc.objects)):
        ident = mc.identity(a)
        action.setdefault(ident, tuple(range(len(values[a]))))
    missing = [m.mid for m in mc.morphisms if m.mid not in action]
    if missing:
        raise DocumentError(
            f"presheaf action missing morphism {mc.mor_label(missing[0])!r}")
    p = Presheaf(mc, tuple(values), action)
    check_presheaf(p)
    return p
