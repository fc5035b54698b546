"""The sort-based index builder equals its per-posting reference
(tests/reference_index.py) in every saved byte, and the one-pass tokenizer
equals the `[a-z0-9]+` regex on the lowercased text."""

import re

import pytest
from hypothesis import given, settings, strategies as st

import reference_index
from qexp.collection import Document, build_index, tokenize

# a few ASCII terms, a non-ASCII one and an empty string, so terms repeat
# within and across documents
TERMS = st.sampled_from(["a", "b", "zz", "0", "é", "日本", "", "ab", "b1"]) | st.text(max_size=3)


@st.composite
def collections(draw):
    """Documents with unique ids: none, empty ones, one, repeated terms,
    non-ASCII terms, and sometimes one term in every document."""
    n = draw(st.integers(0, 6))
    everywhere = draw(st.none() | TERMS)
    docs = []
    for i in range(n):
        terms = draw(st.lists(TERMS, max_size=12))
        if everywhere is not None:
            terms.insert(draw(st.integers(0, len(terms))), everywhere)
        docs.append(Document(draw(st.sampled_from(["d", "D", "é"])) + str(i), terms))
    return draw(st.permutations(docs))


def _saved(idx, path):
    idx.save(path)
    return path.read_bytes()


@settings(max_examples=400)
@given(collections())
def test_build_index_saves_the_reference_bytes(tmp_path_factory, docs):
    path = tmp_path_factory.getbasetemp() / "index.qxix"
    assert _saved(build_index(docs), path) == _saved(reference_index.build_index(docs), path)


@pytest.mark.parametrize("docs", [
    [],
    [Document("d1", [])],
    [Document("d1", []), Document("d2", [])],
    [Document("d1", ["x"])],
    [Document("d1", ["x", "x", "x"]), Document("d2", []), Document("d3", ["x"])],
    [Document(f"d{i}", ["t", "é"] * i) for i in range(1, 5)],
])
def test_build_index_edge_collections(tmp_path, docs):
    path = tmp_path / "index.qxix"
    assert _saved(build_index(docs), path) == _saved(reference_index.build_index(docs), path)


def test_build_index_over_256_and_65536_terms(tmp_path):
    # the rank type widens from 8 to 16 to 32 bits with the vocabulary
    for size in (255, 256, 257, 65536, 65537):
        docs = [Document("a", [str(i) for i in range(size)]),
                Document("b", [str(i) for i in range(0, size, 7)] * 2)]
        path = tmp_path / "index.qxix"
        assert (_saved(build_index(docs), path)
                == _saved(reference_index.build_index(docs), path)), size


def test_build_index_rejects_a_duplicate_doc_id():
    docs = [Document("d1", ["a"]), Document("dup", ["b"]), Document("d2", []),
            Document("dup", ["a"])]
    with pytest.raises(ValueError, match="duplicate doc_id 'dup'"):
        build_index(docs)


TOKEN_RE = re.compile(r"[a-z0-9]+")
# characters whose lowercase is, or holds, ASCII (U+212A KELVIN SIGN, U+0130),
# and separators that str.split would treat as whitespace
TRICKY = "\u212a\u0130\xa0\x85\x1c aZ9_-. \t\n"


@settings(max_examples=600)
@given(st.text(st.sampled_from(TRICKY) | st.characters(), max_size=40),
       st.sets(st.sampled_from(["a", "z9", "k", "i", "ab"])))
def test_tokenize_matches_the_regex(text, stopwords):
    assert tokenize(text, stopwords) == [
        t for t in TOKEN_RE.findall(text.lower()) if t not in stopwords]


def test_tokenize_non_ascii_letters_separate_tokens():
    assert tokenize("Café NAÏVE \u212aelvin \u0130stanbul", ()) == [
        "caf", "na", "ve", "kelvin", "i", "stanbul"]
