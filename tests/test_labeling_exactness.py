"""label_terms equals one full retrieval per candidate (tests/reference_labeling.py)
bit for bit: the baseline AP, every label and every ap_delta."""

import pytest
from hypothesis import given, settings, strategies as st

import reference_labeling
from qexp.collection import Document, InvertedIndex, Qrels, Topic, build_index
from qexp.labeling import label_terms, scored_candidate_pool
from synthworld import mismatch_world

# Title terms c and f; candidates a, b sort before both, d, e between, g after.
# h occurs only in documents that hold nothing else, so its postings never meet
# a title document; zz and zq occur in no document at all.
BODY = list("abcdefg")
TITLE = ["c", "f", "zz"]
CANDIDATES = BODY + ["h", "zq", "zz"]


def _assert_matches_reference(topic, terms, idx, qrels, mu, eps, depth):
    base, labels = label_terms(topic, terms, idx, qrels, mu, eps, depth)
    assert repr(base) == repr(reference_labeling.baseline_ap(topic, idx, qrels, mu, depth))
    assert repr(labels) == repr([
        reference_labeling.label_term(topic, term, idx, qrels, mu, eps, depth)
        for term in terms])


@st.composite
def labeling_cases(draw):
    """Documents repeated under shuffled ids, so equal scores tie and break by
    doc id, of several lengths; a title that may repeat a term or hold one
    absent from the index; candidates on every side of the title terms."""
    texts = draw(st.lists(st.lists(st.sampled_from(BODY), min_size=1, max_size=8),
                          min_size=1, max_size=8))
    texts += draw(st.lists(st.lists(st.just("h"), min_size=1, max_size=3), max_size=3))
    copies = [t for t in texts for _ in range(draw(st.integers(1, 3)))]
    ids = draw(st.permutations(range(len(copies))))
    docs = {f"d{i:02d}": terms for i, terms in zip(ids, copies)}
    title = draw(st.lists(st.sampled_from(TITLE), min_size=1, max_size=3))
    terms = draw(st.lists(st.sampled_from(CANDIDATES), min_size=0, max_size=6,
                          unique=True))
    qrels = Qrels()
    for doc_id in draw(st.sets(st.sampled_from(sorted(docs) + ["unretrieved"]),
                               min_size=1)):
        qrels.add("q", doc_id, 1)
    mu = draw(st.sampled_from([1.0, 1000.0, 2500.0]))
    eps = draw(st.sampled_from([0.0, 0.0005, 0.1]))
    return docs, Topic("q", title), terms, qrels, mu, eps, draw(st.integers(1, 25))


@settings(max_examples=200)
@given(labeling_cases())
def test_label_terms_equals_one_retrieval_per_candidate(tmp_path_factory, case):
    docs, topic, terms, qrels, mu, eps, depth = case
    built = build_index([Document(d, t) for d, t in sorted(docs.items())])
    path = tmp_path_factory.getbasetemp() / "label_terms_property.qxix"
    built.save(path)
    for idx in (built, InvertedIndex.load(path)):
        _assert_matches_reference(topic, terms, idx, qrels, mu, eps, depth)


def test_label_terms_named_cases():
    # d2/d3 and d5/d6 hold the same text under ids out of ingest order, so
    # their scores tie and break by doc id; depth 3 is below the 7 documents
    # holding a title term; h's one document holds no title term.
    docs = {
        "d1": ["c", "a", "x"],
        "d3": ["c", "f", "e"],
        "d2": ["c", "f", "e"],
        "d4": ["f", "g", "g", "x", "x"],
        "d6": ["c", "b"],
        "d5": ["c", "b"],
        "d7": ["f", "d", "x", "x"],
        "d8": ["h", "h"],
    }
    idx = build_index([Document(d, t) for d, t in docs.items()])
    qrels = Qrels()
    for doc_id in ("d2", "d5", "d8", "unretrieved"):
        qrels.add("q", doc_id, 1)
    terms = ["a", "b", "d", "e", "g", "h", "zq", "c"]
    for title in (["c", "f"], ["f", "c", "c"], ["c", "zz", "f"], ["zz"]):
        for depth in (1, 3, 1000):
            _assert_matches_reference(Topic("q", title), terms, idx, qrels, 1000.0,
                                      0.0005, depth)


@pytest.mark.parametrize("seed", [0, 1])
def test_label_terms_equals_reference_on_mismatch_world(seed):
    topics, idx, qrels, table = mismatch_world(seed=seed)
    for topic in topics:
        terms = [t for t, _ in scored_candidate_pool(topic, table, idx, 12)]
        _assert_matches_reference(topic, terms, idx, qrels, 1000.0, 0.0005, 1000)
