"""The compiled schema predicates against jsonschema.

``schema._validate`` accepts a document once the predicate compiled
from its schema holds, and otherwise reports ``best_match`` over the
full schema.  The oracles here are validators of ``CATEGORY_SCHEMA``
and ``PRESHEAF_SCHEMA`` built independently of ``ttw.schema``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from conftest import build_cached, completion_cached, explicit_compose, quotient_cached
from ttw import gallery
from ttw.errors import BuildError
from ttw.schema import (_ACCEPTS, CATEGORY_SCHEMA, PRESHEAF_SCHEMA, DocumentError,
                        _compile, build_category, category_to_document,
                        parse_category_document, parse_presheaf_document)

ORACLES = {"category": Draft202012Validator(CATEGORY_SCHEMA),
           "presheaf": Draft202012Validator(PRESHEAF_SCHEMA)}
KINDS = CATEGORY_SCHEMA["properties"]["kind"]["enum"]
KEYS = sorted({key for branch in CATEGORY_SCHEMA["oneOf"]
               for key in branch["properties"]} | {"name"})


# every gallery document, in its shorthand and its explicit form
DOCUMENTS = [gallery.GALLERY[name].document for name in gallery.names()] + \
    [category_to_document(gallery.build(name), name) for name in gallery.names()]


def presheaf_document(mc, tags: list[int]) -> dict:
    """The coproduct of the representables at ``tags`` as a document:
    elements are (summand, morphism) pairs, acting by precomposition."""
    def elem(k, m):
        return f"{k}:{mc.mor_label(m)}"
    return {
        "name": "+".join(mc.obj_label(a) for a in tags),
        "values": {mc.obj_label(b): [elem(k, m) for k, a in enumerate(tags)
                                     for m in mc.hom(b, a)]
                   for b in range(len(mc.objects))},
        "action": {mc.mor_label(f.mid): {elem(k, m): elem(k, mc.compose(m, f.mid))
                                         for k, a in enumerate(tags)
                                         for m in mc.hom(f.cod, a)}
                   for f in mc.morphisms},
    }


# per gallery entry, the representables of its first and last object and
# their coproduct, as documents against that entry
PRESHEAVES = [(name, presheaf_document(build_cached(name), tags))
              for name in gallery.names()
              for tags in ([0], [len(build_cached(name).objects) - 1],
                           [0, len(build_cached(name).objects) - 1])]


def _variants(doc: dict) -> list[dict]:
    """``doc`` with each top-level key dropped, retyped to 7, emptied,
    given a bad list item or object entry, or with its first item cut to
    one element or doubled, and with ``kind`` swapped to each kind."""
    out = [doc]
    for key, value in doc.items():
        out.append({k: v for k, v in doc.items() if k != key})
        out.append(dict(doc, **{key: 7}))
        if isinstance(value, list):
            out.append(dict(doc, **{key: []}))
            out.append(dict(doc, **{key: value + [7]}))
            if value and isinstance(value[0], list):
                out.append(dict(doc, **{key: [value[0][:1]] + value[1:]}))
                out.append(dict(doc, **{key: [value[0] * 2] + value[1:]}))
        if isinstance(value, dict):
            out.append(dict(doc, **{key: dict(value, bad=7)}))
    out += [dict(doc, kind=kind) for kind in KINDS]
    return out


CORPUS = [variant for doc in DOCUMENTS for variant in _variants(doc)]
PRESHEAF_CORPUS = [(name, variant) for name, doc in PRESHEAVES
                   for variant in _variants(doc)]


def _check_against_oracle(data: object, schema: str = "category",
                          category: str = "b2") -> None:
    """The compiled predicate gives the oracle's verdict, and parsing
    refuses exactly the refused documents with ``best_match``'s message;
    a presheaf is parsed against the gallery entry ``category``."""
    oracle = ORACLES[schema]
    verdict = oracle.is_valid(data)
    assert _ACCEPTS[schema](data) == verdict
    try:
        if schema == "category":
            parse_category_document(data)
        elif not verdict:
            parse_presheaf_document(data, build_cached(category))
    except DocumentError as exc:
        error = best_match(oracle.iter_errors(data))
        path = "/".join(str(p) for p in error.absolute_path) or "(root)"
        assert str(exc) == f"at {path}: {error.message}"
    else:
        assert verdict


def test_both_schemas_are_valid_under_their_metaschema():
    for schema in (CATEGORY_SCHEMA, PRESHEAF_SCHEMA):
        Draft202012Validator.check_schema(schema)


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"}, {"type": "integer"},
    {"type": ["string", "null"]}, {"enum": ["a", 1]}, {"const": 0},
    {"items": {"minimum": 1}}])
def test_compile_refuses_a_keyword_it_does_not_know(schema):
    with pytest.raises(ValueError, match="no predicate for schema keyword"):
        _compile(schema)


@pytest.mark.parametrize("schema", [
    {"oneOf": [{"type": "string"}, {"minLength": 2}]},
    {"oneOf": [{"required": ["a"]}, {"required": ["b"]}]},
    {"properties": {"a": {"type": "array", "minItems": 1}},
     "additionalProperties": {"const": "x"}},
    {"type": "array", "items": {"enum": ["x", "y"]}, "maxItems": 2}])
def test_compiled_predicate_matches_jsonschema_where_keywords_overlap(schema):
    # oneOf branches that overlap, and keywords met by values of other types
    values = [None, True, 0, 7, "", "a", "ab", "x", [], ["x"], ["x", "y", "x"],
              [7], {}, {"a": []}, {"a": ["x"]}, {"a": 1}, {"b": "x"},
              {"a": [1], "b": "x"}, {"a": 1, "b": "y"}]
    oracle = Draft202012Validator(schema)
    assert [_compile(schema)(v) for v in values] == list(map(oracle.is_valid, values))


def test_corpus_reaches_both_verdicts_of_every_kind():
    seen = {(doc.get("kind"), ORACLES["category"].is_valid(doc)) for doc in CORPUS
            if isinstance(doc.get("kind"), str)}
    for kind in KINDS:
        assert (kind, False) in seen
    assert {kind for kind, valid in seen if valid} == set(KINDS)


def test_compiled_predicate_matches_the_full_schema():
    for doc in CORPUS:
        _check_against_oracle(doc)


def test_presheaf_corpus_reaches_both_verdicts():
    verdicts = [ORACLES["presheaf"].is_valid(doc) for _, doc in PRESHEAF_CORPUS]
    assert True in verdicts and False in verdicts


def test_compiled_presheaf_predicate_matches_the_full_schema():
    for name, doc in PRESHEAF_CORPUS:
        _check_against_oracle(doc, "presheaf", name)


_LABEL = st.sampled_from(["0", "1", "a", "eps", ""])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 7) | _LABEL,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_LABEL | st.sampled_from(["dom", "cod", "label"]),
                      inner, max_size=3),
    max_leaves=8)


@st.composite
def _near_documents(draw):
    """A gallery document with one key set to a generated value, or a
    generated object over the schema's keys."""
    if draw(st.booleans()):
        doc = dict(draw(st.sampled_from(DOCUMENTS)))
    else:
        doc = draw(st.dictionaries(st.sampled_from(KEYS), _JSON, max_size=5))
    key = draw(st.sampled_from(KEYS))
    doc[key] = draw(st.sampled_from(KINDS) | _JSON) if key == "kind" \
        else draw(_JSON)
    return doc


@settings(max_examples=300, deadline=None)
@given(st.one_of(_JSON, _near_documents()))
def test_compiled_predicate_matches_the_full_schema_on_generated_values(data):
    _check_against_oracle(data)


@st.composite
def _near_presheaves(draw):
    """A gallery presheaf document with one key, or one entry of its
    values or action, set to a generated value; or a generated object
    over the schema's keys."""
    keys = st.sampled_from(["name", "values", "action"])
    if draw(st.booleans()):
        name, doc = draw(st.sampled_from(PRESHEAVES))
        doc = dict(doc)
    else:
        name, doc = "b2", draw(st.dictionaries(keys, _JSON, max_size=3))
    key = draw(keys)
    if isinstance(doc.get(key), dict) and doc[key] and draw(st.booleans()):
        entry = draw(st.sampled_from(sorted(doc[key])))
        doc[key] = dict(doc[key], **{entry: draw(_JSON)})
    else:
        doc[key] = draw(_JSON)
    return name, doc


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(st.just("b2"), _JSON), _near_presheaves()))
def test_compiled_presheaf_predicate_matches_the_full_schema_on_generated_values(case):
    name, data = case
    _check_against_oracle(data, "presheaf", name)


# ---------------------------------------------------------------------------
# documents of categories that keep no composition table


def test_a_table_less_category_exports_its_forced_composition():
    for mc in (build_cached("b2"), completion_cached("c3", "all").category,
               quotient_cached("q3", "directed")):
        assert mc.cat.compose_table is None
        rebuilt = build_category(parse_category_document(category_to_document(mc, "x")))
        assert rebuilt.cat.compose_table == explicit_compose(mc)


def test_a_thin_document_with_a_redirected_compose_row_is_refused():
    # (0->1) o (0->0) redirected to 0->0: well formed, but mistyped
    doc = category_to_document(build_cached("b2"), "b2")
    row = doc["compose"].index(["0->1", "0->0", "0->1"])
    doc["compose"][row] = ["0->1", "0->0", "0->0"]
    with pytest.raises(BuildError) as exc:
        build_category(parse_category_document(doc))
    assert exc.value.report.violations[0].law == "compose_typing"
