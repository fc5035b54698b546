"""Tokenization, TREC parsing, and index construction/serialization."""

import pytest

from qexp.collection import (
    InvertedIndex,
    ParseError,
    Qrels,
    build_index,
    ingest_trec_docs,
    load_qrels,
    load_stopwords,
    load_topics,
    tokenize,
)

# hand-derived from tests/fixtures/mini_corpus.sgml: lowercase, [a-z0-9]+ runs,
# INQUERY stopwords removed, no stemming
EXPECTED_TOKENS = {
    "D01": ["solar", "panel", "cuts", "energy", "cost"],
    "D02": ["solar", "panels", "desert", "outputs", "cheap", "power"],
    "D03": ["wind", "farm", "sea", "offshore", "turbine", "blades", "spin"],
    "D04": ["coal", "plant", "burns", "fuel", "price", "rises"],
    "D05": ["battery", "storage", "feeds", "grid", "night", "2030"],
    "D06": ["winter", "sun", "heats", "desert", "homes"],
    "D07": ["city", "lights", "glow", "cheap", "power", "grid", "steady"],
    "D08": ["electric", "current", "flows", "city", "solar", "energy", "cheap",
            "energy"],
}
EXPECTED_TOTAL_TOKENS = 50
EXPECTED_VOCAB_SIZE = 40


def test_stopword_list_size(stopwords):
    assert len(stopwords) == 418
    for w in ("the", "a", "of", "and", "is", "it", "at", "on", "to", "in"):
        assert w in stopwords
    for w in ("solar", "energy", "wind", "2030"):
        assert w not in stopwords


def test_tokenize_rules(stopwords):
    assert tokenize("The U.S.-based S-300 system!", stopwords) == \
        ["u", "s", "based", "s", "300", "system"]
    assert tokenize("", stopwords) == []
    assert tokenize("THE OF AND", stopwords) == []
    assert tokenize("solar2030 costs 42", stopwords) == ["solar2030", "costs", "42"]


def test_ingest_documents(mini_docs):
    assert [d.doc_id for d in mini_docs] == sorted(EXPECTED_TOKENS)
    for doc in mini_docs:
        assert doc.terms == EXPECTED_TOKENS[doc.doc_id], doc.doc_id
        assert doc.length == len(EXPECTED_TOKENS[doc.doc_id])


def test_ingest_errors(tmp_path, stopwords):
    bad = tmp_path / "bad.sgml"
    bad.write_text("<DOC>\n<DOCNO>X</DOCNO>\n<TEXT>no close</TEXT>\n")
    with pytest.raises(ParseError, match="unclosed"):
        ingest_trec_docs(bad, stopwords)

    bad.write_text("<DOC><DOCNO>A</DOCNO><DOC><DOCNO>B</DOCNO></DOC></DOC>")
    with pytest.raises(ParseError, match="nested"):
        ingest_trec_docs(bad, stopwords)

    bad.write_text("<DOC><DOCNO>A</DOCNO><TEXT>x</TEXT></DOC>"
                   "<DOC><DOCNO>A</DOCNO><TEXT>y</TEXT></DOC>")
    with pytest.raises(ParseError, match="duplicate DOCNO"):
        ingest_trec_docs(bad, stopwords)

    bad.write_text("<DOC><TEXT>x</TEXT></DOC>")
    with pytest.raises(ParseError, match="missing <DOCNO>"):
        ingest_trec_docs(bad, stopwords)


def test_index_statistics(mini_index):
    assert mini_index.num_docs == 8
    assert mini_index.total_tokens == EXPECTED_TOTAL_TOKENS
    assert len(mini_index.vocabulary()) == EXPECTED_VOCAB_SIZE
    assert mini_index.doc_length("D08") == 8
    assert mini_index.collection_freq["energy"] == 3
    assert mini_index.collection_freq["solar"] == 3
    assert mini_index.collection_freq["2030"] == 1
    assert mini_index.collection_prob("energy") == 3 / 50
    assert mini_index.collection_prob("zz") == 0.0
    assert "solar" in mini_index and "zz" not in mini_index
    assert mini_index.postings["energy"] == [("D01", 1), ("D08", 2)]
    assert list(mini_index.postings) == sorted(mini_index.postings)


def test_index_roundtrip(mini_index, tmp_path):
    p1 = tmp_path / "a.qxix"
    p2 = tmp_path / "b.qxix"
    mini_index.save(p1)
    loaded = InvertedIndex.load(p1)
    assert loaded.postings == mini_index.postings
    assert loaded.doc_lengths == mini_index.doc_lengths
    assert loaded.doc_order == mini_index.doc_order
    assert loaded.total_tokens == mini_index.total_tokens
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_index_load_errors(mini_index, tmp_path):
    p = tmp_path / "x.qxix"
    mini_index.save(p)
    data = bytearray(p.read_bytes())

    bad = tmp_path / "bad.qxix"
    bad.write_bytes(b"NOPE" + bytes(data[4:]))
    with pytest.raises(ValueError, match="magic"):
        InvertedIndex.load(bad)

    wrong_ver = bytearray(data)
    wrong_ver[4] = 99
    bad.write_bytes(bytes(wrong_ver))
    with pytest.raises(ValueError, match="version"):
        InvertedIndex.load(bad)

    bad.write_bytes(bytes(data[:-3]))
    with pytest.raises(ValueError, match="truncated"):
        InvertedIndex.load(bad)


def _framed(sections):
    out = bytearray(b"QXIX\x01")
    for section in sections:
        out += len(section).to_bytes(8, "little") + section
    return bytes(out)


def _sections(data):
    sections, off = [], 5
    for _ in range(3):
        length = int.from_bytes(data[off:off + 8], "little")
        sections.append(data[off + 8:off + 8 + length])
        off += 8 + length
    return sections


def test_index_load_malformed_raises_parse_error(mini_index, tmp_path):
    p = tmp_path / "x.qxix"
    mini_index.save(p)
    data = p.read_bytes()
    bad = tmp_path / "bad.qxix"
    for cut in range(len(data)):
        bad.write_bytes(data[:cut])
        with pytest.raises(ParseError, match="bad.qxix"):
            InvertedIndex.load(bad)

    vocab, postings, table = _sections(data)
    # each section correctly framed but shorter than its counts
    for broken in ([vocab[:-3], postings, table], [vocab, postings[:-4], table],
                   [vocab, postings, table[:-3]]):
        bad.write_bytes(_framed(broken))
        with pytest.raises(ParseError, match="bad.qxix"):
            InvertedIndex.load(bad)

    # the first posting's doc index points past the doc table
    n_docs = int.from_bytes(table[:4], "little")
    postings = postings[:4] + n_docs.to_bytes(4, "little") + postings[8:]
    bad.write_bytes(_framed([vocab, postings, table]))
    with pytest.raises(ParseError, match="bad.qxix"):
        InvertedIndex.load(bad)


def test_load_topics(mini_topics, caplog):
    assert [t.query_id for t in mini_topics] == ["701", "702"]
    assert mini_topics[0].title_terms == ["solar", "energy", "cost"]
    assert mini_topics[1].title_terms == ["wind", "power"]


def test_load_topics_skips_stopword_only(tmp_path, stopwords, caplog):
    p = tmp_path / "t.txt"
    p.write_text("<top>\n<num> Number: 9\n<title> the and of\n</top>\n")
    with caplog.at_level("WARNING"):
        topics = load_topics(p, stopwords)
    assert topics == []
    assert "empty after stopping" in caplog.text


def test_load_topics_errors(tmp_path, stopwords):
    p = tmp_path / "t.txt"
    p.write_text("<top>\n<title> solar\n</top>\n")
    with pytest.raises(ParseError, match="missing <num> or <title>"):
        load_topics(p, stopwords)
    p.write_text("<top><num> 5\n<title> solar\n</top>"
                 "<top><num> 5\n<title> wind\n</top>")
    with pytest.raises(ParseError, match="duplicate topic number"):
        load_topics(p, stopwords)


def test_load_qrels(mini_qrels):
    assert mini_qrels.relevant_docs("701") == {"D01", "D02", "D08"}
    assert mini_qrels.num_relevant("701") == 3
    assert mini_qrels.relevant_docs("702") == {"D03", "D07"}
    assert mini_qrels.is_relevant("701", "D01")
    assert mini_qrels.is_relevant("701", "D08")  # grade 2
    assert not mini_qrels.is_relevant("701", "D03")  # judged, grade 0
    assert not mini_qrels.is_relevant("701", "NOPE")


def test_qrels_pair_judged_twice_is_relevant_if_any_row_is():
    for grades in ((1, 0), (0, 1)):
        qrels = Qrels()
        for grade in grades:
            qrels.add("1", "d1", grade)
        assert qrels.is_relevant("1", "d1")
        assert qrels.num_relevant("1") == 1


def test_load_qrels_errors(tmp_path):
    p = tmp_path / "q.txt"
    p.write_text("701 0 D01\n")
    with pytest.raises(ParseError, match="q.txt:1"):
        load_qrels(p)
    p.write_text("701 0 D01 x\n")
    with pytest.raises(ParseError, match="non-integer grade"):
        load_qrels(p)
    p.write_text("701 0 D01 -1\n")
    with pytest.raises(ParseError, match="negative grade"):
        load_qrels(p)


def test_load_stopwords_custom_path(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("alpha\nbeta\n")
    assert load_stopwords(p) == {"alpha", "beta"}


def test_build_index_empty():
    idx = build_index([])
    assert idx.num_docs == 0
    assert idx.total_tokens == 0
