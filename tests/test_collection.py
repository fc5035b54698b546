"""Tokenization, TREC parsing, and index construction/serialization."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("docno, shown", [
    ("", "''"), ("  ", "''"), (" AP 88 ", "'AP 88'"), ("AP\t88", "'AP\\t88'"),
    ("AP\n88", "'AP\\n88'")])
def test_ingest_rejects_docno_that_is_no_run_file_column(tmp_path, stopwords, docno, shown):
    bad = tmp_path / "bad.sgml"
    bad.write_text("<DOC><DOCNO>A</DOCNO><TEXT>x</TEXT></DOC>\n"
                   f"<DOC><DOCNO>{docno}</DOCNO><TEXT>y</TEXT></DOC>")
    with pytest.raises(ParseError, match=re.escape(
            f"{bad}: DOCNO {shown} is empty or holds whitespace, in <DOC> at byte offset 42")):
        ingest_trec_docs(bad, stopwords)


def test_index_statistics(mini_index):
    assert mini_index.num_docs == 8
    assert mini_index.total_tokens == EXPECTED_TOTAL_TOKENS
    assert len(mini_index.vocabulary()) == EXPECTED_VOCAB_SIZE
    assert mini_index.terms == sorted(mini_index.terms)
    assert mini_index.doc_ids == sorted(EXPECTED_TOKENS)
    assert mini_index.doc_len.tolist() == [len(EXPECTED_TOKENS[d]) for d in mini_index.doc_ids]
    assert mini_index.doc_length("D08") == 8
    assert mini_index.collection_prob("energy") == 3 / 50
    assert mini_index.collection_prob("solar") == 3 / 50
    assert mini_index.collection_prob("2030") == 1 / 50
    assert mini_index.collection_prob("zz") == 0.0
    assert "solar" in mini_index and "zz" not in mini_index
    doc_index, tf = mini_index.postings("energy")
    assert [mini_index.doc_ids[i] for i in doc_index] == ["D01", "D08"]
    assert tf.tolist() == [1, 2]


def _arrays(idx):
    return (idx.terms, idx.offsets.tolist(), idx.doc_index.tolist(), idx.tf.tolist(),
            idx.doc_ids, idx.doc_len.tolist(), idx.total_tokens)


def test_index_roundtrip(mini_index, tmp_path):
    p1 = tmp_path / "a.qxix"
    p2 = tmp_path / "b.qxix"
    mini_index.save(p1)
    loaded = InvertedIndex.load(p1)
    assert _arrays(loaded) == _arrays(mini_index)
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_index_with_empty_posting_lists_saves_what_it_loads(tmp_path):
    # terms a, c and e have no postings, so their counts sit beside their neighbours'
    idx = InvertedIndex(["a", "b", "c", "d", "e"], np.array([0, 0, 2, 2, 3, 3]),
                        np.array([0, 1, 1], np.uint32), np.array([2, 1, 3], np.uint32),
                        ["d1", "d2"], np.array([2, 4], np.uint64))
    p1, p2 = tmp_path / "a.qxix", tmp_path / "b.qxix"
    idx.save(p1)
    data = p1.read_bytes()
    vocab_len = struct.unpack_from("<Q", data, 5)[0]
    postings_at = 5 + 8 + vocab_len
    assert data[postings_at:postings_at + 8 + 44] == struct.pack(
        "<Q11I", 44, 0, 2, 0, 2, 1, 1, 0, 1, 1, 3, 0)
    loaded = InvertedIndex.load(p1)
    assert _arrays(loaded) == _arrays(idx)
    assert loaded.postings("c")[0].tolist() == []
    loaded.save(p2)
    assert p2.read_bytes() == data


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
    past = postings[:4] + n_docs.to_bytes(4, "little") + postings[8:]
    bad.write_bytes(_framed([vocab, past, table]))
    with pytest.raises(ParseError, match="bad.qxix"):
        InvertedIndex.load(bad)

    # energy's two postings swapped, so its doc indexes descend
    row = mini_index.terms.index("energy")
    at = 4 * (row + 1 + 2 * int(mini_index.offsets[row]))
    swapped = postings[:at] + postings[at + 8:at + 16] + postings[at:at + 8] + postings[at + 16:]
    repeated_term = vocab.replace(b"\x05\x00power", b"\x05\x00solar")
    repeated_doc = table.replace(b"D02", b"D01")
    for sections, message in (
            ([vocab, swapped, table], "'energy' are not strictly ascending"),
            ([repeated_term, postings, table], "repeated vocabulary entry 'solar'"),
            ([vocab, postings, repeated_doc], "repeated doc table entry 'D01'"),
            ([vocab + b"x", postings, table], "1 bytes left over in the vocabulary"),
            ([vocab, postings + bytes(4), table], "its counts imply"),
            ([vocab, postings, table + b"x"], "1 bytes left over in the doc table")):
        bad.write_bytes(_framed(sections))
        with pytest.raises(ParseError, match=f"bad.qxix: .*{message}"):
            InvertedIndex.load(bad)
    bad.write_bytes(data + b"junk")
    with pytest.raises(ParseError, match="bad.qxix: 4 bytes after the last section"):
        InvertedIndex.load(bad)


@settings(max_examples=300)
@given(st.data())
def test_index_mutation_loads_identically_or_raises_parse_error(
        mini_index, tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated.qxix"
    mini_index.save(path)
    raw = bytearray(path.read_bytes())
    kind = data.draw(st.sampled_from(["truncate", "flip", "append"]))
    if kind == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif kind == "flip":
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
    else:
        raw += data.draw(st.binary(min_size=1, max_size=16))
    path.write_bytes(raw)
    try:
        idx = InvertedIndex.load(path)
    except ParseError:
        return
    idx.save(path)
    assert path.read_bytes() == raw


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
    assert all(mini_qrels.is_relevant("701", d) for d in ("D01", "D02", "D08"))
    assert mini_qrels.num_relevant("701") == 3
    assert all(mini_qrels.is_relevant("702", d) for d in ("D03", "D07"))
    assert mini_qrels.num_relevant("702") == 2
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
