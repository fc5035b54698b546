"""Dirichlet QLM scoring and ranking against a brute-force reference."""

import math

import numpy as np
import pytest

from qexp.collection import Document, build_index
from qexp.retrieval import ParseError, QueryModel, qlm_score, read_run, retrieve, write_run

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
        math.log((1 + 1000.0 * (3 / 50)) / (5 + 1000.0))
        + math.log((1 + 1000.0 * (1 / 50)) / (5 + 1000.0))
        + math.log((1 + 1000.0 * (3 / 50)) / (5 + 1000.0))
    )
    assert qlm_score(qm, "D01", mini_index, 1000.0) == pytest.approx(expected, abs=1e-13)


def test_qlm_score_skips_unseen_terms(mini_index):
    base = QueryModel.from_terms("q", ["solar"])
    extended = QueryModel("q", {"solar": 1.0, "unseenword": 5.0})
    assert qlm_score(base, "D01", mini_index, 1000.0) == \
        qlm_score(extended, "D01", mini_index, 1000.0)


def test_qlm_score_mu_validation(mini_index):
    qm = QueryModel.from_terms("q", ["solar"])
    with pytest.raises(ValueError, match="mu"):
        qlm_score(qm, "D01", mini_index, 0.0)


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

    back = read_run(path)
    assert len(back) == 1
    assert back[0].query_id == "701"
    assert back[0].doc_ids == ranked.doc_ids


def test_read_run_errors(tmp_path):
    p = tmp_path / "r.txt"
    p.write_text("q1 Q0 d1 1 0.5\n")
    with pytest.raises(ParseError, match="6 columns"):
        read_run(p)
    p.write_text("q1 Q0 d1 2 0.5 tag\n")
    with pytest.raises(ParseError, match="disagrees with position"):
        read_run(p)
    p.write_text("q1 Q0 d1 one 0.5 tag\n")
    with pytest.raises(ParseError, match="bad rank or score"):
        read_run(p)
