"""The kind-first category validation against the full ``oneOf`` schema.

``schema._validate`` accepts a category document once it passes the
validator of the one branch its ``kind`` names, and otherwise reports
``best_match`` over the full schema.  The oracle here is a validator of
the full ``CATEGORY_SCHEMA`` built independently of ``ttw.schema``.
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
from ttw.schema import (CATEGORY_SCHEMA, DocumentError, _kind_validators,
                        build_category, category_to_document, parse_category_document)

ORACLE = Draft202012Validator(CATEGORY_SCHEMA)
KINDS = CATEGORY_SCHEMA["properties"]["kind"]["enum"]
KEYS = sorted({key for branch in CATEGORY_SCHEMA["oneOf"]
               for key in branch["properties"]} | {"name"})


# every gallery document, in its shorthand and its explicit form
DOCUMENTS = [gallery.GALLERY[name].document for name in gallery.names()] + \
    [category_to_document(gallery.build(name), name) for name in gallery.names()]


def _variants(doc: dict) -> list[dict]:
    """``doc`` with each top-level key dropped, retyped to 7 or given a
    bad list item, and with ``kind`` swapped to each kind."""
    out = [doc]
    for key, value in doc.items():
        out.append({k: v for k, v in doc.items() if k != key})
        out.append(dict(doc, **{key: 7}))
        if isinstance(value, list):
            out.append(dict(doc, **{key: value + [7]}))
    out += [dict(doc, kind=kind) for kind in KINDS]
    return out


CORPUS = [variant for doc in DOCUMENTS for variant in _variants(doc)]


def _check_against_oracle(data: object) -> None:
    verdict = ORACLE.is_valid(data)
    if isinstance(data, dict) and data.get("kind") in KINDS:
        assert _kind_validators()[data["kind"]].is_valid(data) == verdict
    try:
        parse_category_document(data)
    except DocumentError as exc:
        error = best_match(ORACLE.iter_errors(data))
        path = "/".join(str(p) for p in error.absolute_path) or "(root)"
        assert str(exc) == f"at {path}: {error.message}"
    else:
        assert verdict


def test_every_kind_has_its_own_validator():
    assert sorted(_kind_validators()) == sorted(KINDS)


def test_corpus_reaches_both_verdicts_of_every_kind():
    seen = {(doc.get("kind"), ORACLE.is_valid(doc)) for doc in CORPUS
            if isinstance(doc.get("kind"), str)}
    for kind in KINDS:
        assert (kind, False) in seen
    assert {kind for kind, valid in seen if valid} == set(KINDS)


def test_kind_first_validation_matches_the_full_schema():
    for doc in CORPUS:
        _check_against_oracle(doc)


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
def test_kind_first_validation_matches_the_full_schema_on_generated_values(data):
    _check_against_oracle(data)


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
