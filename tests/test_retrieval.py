"""Dirichlet QLM scoring and ranking against a brute-force reference."""

import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qexp
from qexp.collection import Document, InvertedIndex, build_index
from qexp.retrieval import QueryModel, doc_union, retrieve, term_scores, write_run

from oracles import qlm_rank_reference, random_corpus


def test_query_model_validation():
    with pytest.raises(ValueError, match="negative"):
        QueryModel("q", {"a": -0.1})
    with pytest.raises(ValueError, match="positive"):
        QueryModel("q", {"a": 0.0})
    with pytest.raises(ValueError, match="positive"):
        QueryModel("q", {})


def test_query_model_from_terms():
    qm = QueryModel.from_terms("q", ["b", "a", "b"])
    assert qm.weights == {"a": 1.0, "b": 2.0}


def test_qlm_score_hand_computed(mini_index):
    # query 701 over D01: tf(solar)=1 cf=3, tf(energy)=1 cf=3, tf(cost)=1 cf=1,
    # |D01|=5, collection has 50 tokens, mu=1000
    qm = QueryModel.from_terms("701", ["solar", "energy", "cost"])
    expected = (
        math.log((1 + 1000.0 * (1 / 50)) / (5 + 1000.0))
        + math.log((1 + 1000.0 * (3 / 50)) / (5 + 1000.0))
        + math.log((1 + 1000.0 * (3 / 50)) / (5 + 1000.0))
    )
    scores = dict(retrieve(qm, mini_index, 1000.0, 1000).entries)
    assert scores["D01"] == pytest.approx(expected, abs=1e-13)


def test_qlm_score_skips_unseen_terms(mini_index):
    base = QueryModel.from_terms("q", ["solar"])
    extended = QueryModel("q", {"solar": 1.0, "unseenword": 5.0})
    assert retrieve(base, mini_index, 1000.0, 1000).entries == \
        retrieve(extended, mini_index, 1000.0, 1000).entries


def test_qlm_score_mu_validation(mini_index):
    # checked before any term is looked up, so a query that matches nothing fails too
    qm = QueryModel.from_terms("q", ["unseenword"])
    for mu in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="mu"):
            retrieve(qm, mini_index, mu)


def _string_table(entries):
    out = struct.pack("<I", len(entries))
    for name, value in entries:
        out += struct.pack("<H", len(name)) + name.encode() + struct.pack("<Q", value)
    return out


def test_retrieve_ignores_index_term_without_collection_frequency(tmp_path):
    # a loaded index may hold a term whose postings all carry tf 0: here "z"
    vocab = _string_table([("a", 1), ("z", 0)])
    postings = struct.pack("<8I", 1, 0, 1, 2, 0, 0, 1, 0)
    table = _string_table([("d1", 1), ("d2", 1)])
    path = tmp_path / "tf0.qxix"
    path.write_bytes(b"QXIX\x01" + b"".join(
        struct.pack("<Q", len(section)) + section for section in (vocab, postings, table)))
    idx = InvertedIndex.load(path)
    assert idx.postings("z")[1].tolist() == [0, 0]
    got = retrieve(QueryModel("q", {"a": 1.0, "z": 1.0}), idx, 1000.0, 10)
    assert got.entries == retrieve(QueryModel("q", {"a": 1.0}), idx, 1000.0, 10).entries


def test_scores_use_math_log_bit_for_bit():
    # T = 21 tokens: "x" once in a 12-token document and four times in a 9-token
    # one (cf 5). At mu 1000 the 12-token document's ratio is one where NumPy's
    # vectorised log (array, 1-element array and scalar alike) gives
    # -0x1.715cc68619bc6p+0 on x86-64, one ulp from math.log.
    idx = build_index([Document("long", ["x", *(f"a{i}" for i in range(11))]),
                       Document("short", ["x"] * 4 + [f"b{i}" for i in range(5)])])
    r = (1 + 1000.0 * (5 / 21)) / (12 + 1000.0)
    assert r == 0.23626011669489927
    assert math.log(r).hex() == "-0x1.715cc68619bc7p+0"
    score = dict(retrieve(QueryModel.from_terms("q", ["x"]), idx, 1000.0, 10).entries)
    assert score["long"].hex() == math.log(r).hex()
    union = doc_union(idx, ["x"], 1000.0)
    assert union[0].tolist() == [0, 1]
    assert term_scores(idx, "x", 1.0, 1000.0, union)[0].hex() == math.log(r).hex()


def test_retrieve_does_not_import_numpy_ma():
    # np.unique without return_inverse imports numpy.ma on first use, 13-19 ms
    # of every expand and eval process; the doc union is built without it
    code = ("import sys\n"
            "from qexp.collection import Document, build_index\n"
            "from qexp.retrieval import QueryModel, retrieve\n"
            "idx = build_index([Document('d1', ['a', 'b']), Document('d2', ['b'])])\n"
            "retrieve(QueryModel.from_terms('q', ['a', 'b']), idx)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(qexp.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n"


def test_retrieve_candidates_and_order(mini_index):
    qm = QueryModel.from_terms("701", ["solar", "energy", "cost"])
    ranked = retrieve(qm, mini_index, 1000.0, 1000)
    # only documents containing solar, energy, or cost are candidates
    assert set(ranked.doc_ids) == {"D01", "D02", "D08"}
    scores = [s for _, s in ranked.entries]
    assert scores == sorted(scores, reverse=True)


def test_retrieve_depth_and_validation(mini_index):
    qm = QueryModel.from_terms("q", ["cheap"])
    assert len(retrieve(qm, mini_index, 1000.0, 2)) == 2
    assert len(retrieve(qm, mini_index, 1000.0, 1000)) == 3
    with pytest.raises(ValueError, match="depth"):
        retrieve(qm, mini_index, 1000.0, 0)


def test_retrieve_tie_break_ascending_doc_id():
    docs = [Document(f"d{i}", ["x", "y"]) for i in (3, 1, 2)]
    idx = build_index(docs)
    ranked = retrieve(QueryModel.from_terms("q", ["x"]), idx)
    assert ranked.doc_ids == ["d1", "d2", "d3"]


def test_retrieve_matches_brute_force_reference():
    rng = np.random.default_rng(7)
    for trial in range(150):
        docs, weights = random_corpus(rng)
        idx = build_index([Document(d, t) for d, t in sorted(docs.items())])
        depth = int(rng.integers(1, 60))
        got = retrieve(QueryModel("q", weights), idx, 1000.0, depth)
        want = qlm_rank_reference(docs, weights, 1000.0, depth)
        assert got.entries == want, f"trial {trial}"


_VOCAB = ["a", "b", "c", "d"]
_ABSENT = ["zz1", "zz2"]


@st.composite
def _corpus_and_query(draw):
    """Documents repeated under shuffled ids, so equal scores tie, and a query
    mixing zero weights, terms absent from every document and positive weights."""
    texts = draw(st.lists(st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=8),
                          min_size=1, max_size=6))
    copies = [t for t in texts for _ in range(draw(st.integers(1, 3)))]
    ids = draw(st.permutations(range(len(copies))))
    docs = {f"d{i:02d}": terms for i, terms in zip(ids, copies)}
    weight = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.01, 3.0))
    weights = draw(st.dictionaries(st.sampled_from(_VOCAB + _ABSENT), weight,
                                   min_size=1, max_size=6))
    assume(any(w > 0.0 for w in weights.values()))
    mu = draw(st.sampled_from([1.0, 1000.0, 2500.0]))
    return docs, weights, mu, draw(st.integers(1, 25))


@settings(max_examples=200)
@given(_corpus_and_query())
def test_retrieve_matches_reference_on_zero_weights_absent_terms_and_ties(
        tmp_path_factory, case):
    docs, weights, mu, depth = case
    built = build_index([Document(d, t) for d, t in sorted(docs.items())])
    path = tmp_path_factory.getbasetemp() / "retrieve_property.qxix"
    built.save(path)
    want = qlm_rank_reference(docs, weights, mu, depth)
    for idx in (built, InvertedIndex.load(path)):
        assert retrieve(QueryModel("q", weights), idx, mu, depth).entries == want


def test_run_file_format(tmp_path, mini_index):
    qm = QueryModel.from_terms("701", ["solar", "energy", "cost"])
    ranked = retrieve(qm, mini_index)
    path = tmp_path / "run.txt"
    write_run([ranked], path, tag="test1")
    lines = path.read_text().splitlines()
    assert len(lines) == len(ranked)
    first = lines[0].split()
    assert first[0] == "701" and first[1] == "Q0" and first[3] == "1"
    assert first[5] == "test1"
    # score printed with exactly 6 decimals
    assert len(first[4].split(".")[1]) == 6

    rows = [line.split() for line in lines]
    assert {row[0] for row in rows} == {"701"}
    assert [row[2] for row in rows] == ranked.doc_ids
    assert [row[3] for row in rows] == [str(r) for r in range(1, len(ranked) + 1)]
