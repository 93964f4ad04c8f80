"""certs.canonical_dump against the standard library's encoder, and the
verifier's single whole-document compare."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import canonical_json
from tamerep import certs, sweep
from test_cli import PINNED_CERTS


def test_canonical_dump_vs_json_oracle_on_certificates():
    for n, p, t, ell in sweep.sweep_tuples():
        for sign in (1, -1):
            doc = certs.build_certificate(n, p, t, sign, ell)
            assert certs.canonical_dump(doc) == canonical_json(doc), (n, p, t, sign, ell)
    for params in PINNED_CERTS:
        doc = certs.build_certificate(*params)
        assert certs.canonical_dump(doc) == canonical_json(doc), params


_TEXT = st.text(max_size=6) | st.sampled_from(
    ['"', "\\\\", 'a"b\\\\c', "\x00\x1f\x7f", "\n\t\r\b\f", "é", "☃ 𝄞", "퟿", ""]
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1]),
    st.integers(),
    st.sampled_from([2**63, -(2**63) - 1, 10**40, -(10**40)]),
    _TEXT,
)
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.integers(-3, 3) | st.booleans(), max_size=5)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS)
def test_canonical_dump_vs_json_oracle_on_drawn_documents(doc):
    assert certs.canonical_dump(doc) == canonical_json(doc)


@settings(max_examples=100, deadline=None)
@given(doc=_DOCS)
def test_canonical_chunks_join_to_dump(doc):
    # a list streams item by item, and an iterator reads as the list of its
    # items; either way the pieces join to canonical_dump's text
    assert "".join(certs.canonical_chunks(doc)) == certs.canonical_dump(doc)
    if isinstance(doc, list):
        chunks = list(certs.canonical_chunks(iter(doc)))
        assert "".join(chunks) == canonical_json(doc)
        # one piece per item, the closer and the final newline
        assert len(chunks) == len(doc) + 2


@pytest.mark.parametrize(
    "doc",
    [1.0, (1, 2), {"a": [0, 2.5]}, {"a": {"b": (1,)}}, [[0, 1], (0, 1)], {1: 2}, {"a": {None: 1}}],
)
def test_canonical_dump_rejects_other_types(doc):
    with pytest.raises(TypeError):
        certs.canonical_dump(doc)


def test_verify_diffs_name_each_changed_field():
    doc = certs.build_certificate(4, 7, 5, 1, 3)
    assert certs.verify_certificate(doc) == []
    bad = json.loads(certs.canonical_dump(doc))
    bad["image_order"] = 137
    bad["checks"][0]["pass"] = 1
    diffs = certs.verify_certificate(bad)
    assert [d.split(":")[0] for d in diffs] == ["checks", "image_order"]
    assert diffs[1] == "image_order: certificate has 137, recomputed 20"
