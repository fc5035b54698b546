"""Batched classifier scoring and the stacked multiplicative selection against
their per-term and per-pair references (tests/reference_scoring.py and
tests/reference_pool.py)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_pool
import reference_scoring
from qexp.classifier.inference import ReferenceSet, encode_reference_set, p_good_batch
from qexp.classifier.network import SiameseModel
from qexp.collection import Topic
from qexp.embeddings import EmbeddingTable
from qexp.expansion import (ExpansionConfig, _centroid_selection,
                            _multiplicative_selection, _normalize,
                            build_query_model, interpolate)
from qexp.labeling import Label, scored_candidate_pool
from synthworld import mismatch_world

# the encode_batch contract, fixed before measuring: a batch of two or more
# sequences runs matrix-matrix products where encode runs matrix-vector ones
RTOL = 1e-12


# --- eqe1 -------------------------------------------------------------------

MAGNITUDES = (1e-160, 1e-100, 1.0, 1e154, 1e200)


@settings(max_examples=60)
@given(st.data())
def test_multiplicative_selection_equals_the_per_pair_reference(data):
    # rows scaled to a max-abs component between 1e-160 (the squared norm is
    # subnormal) and 1e200 (it overflows)
    n = data.draw(st.integers(1, 1000))
    dim = data.draw(st.integers(1, 300))
    spread = data.draw(st.sampled_from(["unit", "range", "extremes"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_query = data.draw(st.integers(1, 4))
    u = rng.standard_normal((n + n_query, dim))
    if spread == "unit":
        mags = np.ones(n + n_query)
    elif spread == "range":
        mags = 10.0 ** rng.uniform(-160, 200, n + n_query)
    else:
        mags = rng.choice(MAGNITUDES, n + n_query)
    matrix = u / np.abs(u).max(axis=1, keepdims=True) * mags[:, None]
    zero_queries = data.draw(st.integers(0, n_query))
    matrix[n:n + zero_queries] = 0.0
    terms = [f"p{i}" for i in range(n)] + [f"q{i}" for i in range(n_query)]
    table = EmbeddingTable(terms, matrix)
    title = data.draw(st.lists(st.sampled_from(terms[n:] + ["absent", "p0"]),
                               min_size=1, max_size=5))
    pool = [(terms[i], 0.0) for i in rng.permutation(n)]
    m = data.draw(st.integers(1, n + 1))
    got = _multiplicative_selection(Topic("q", title), pool, table, m)
    want = reference_pool.multiplicative_selection(Topic("q", title), pool, table, m)
    assert [(t, s.hex()) for t, s in got] == [(t, s.hex()) for t, s in want]


def test_multiplicative_selection_of_an_empty_pool_is_empty(tiny_table):
    assert _multiplicative_selection(Topic("q", ["solar"]), [], tiny_table, 3) == []


# --- encode_batch -----------------------------------------------------------


@pytest.mark.parametrize("dim,hidden,rep", [(5, 4, 6), (300, 200, 400)])
@pytest.mark.parametrize("pooling", ["last", "mean"])
def test_encode_batch_keeps_input_order_within_tolerance(dim, hidden, rep, pooling):
    rng = np.random.default_rng(dim + len(pooling))
    model = SiameseModel(dim, hidden, rep, rng, pooling=pooling)
    lengths = [3, 1, 5, 3, 2, 3, 5, 1, 4, 2, 3]
    seqs = [rng.standard_normal((t, dim)) for t in lengths]
    reps = model.encode_batch(seqs)
    assert reps.shape == (len(seqs), rep)
    for seq, got in zip(seqs, reps):
        want = model.encode(seq)
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)
    assert model.encode_batch(seqs).tobytes() == reps.tobytes()
    assert model.encode_batch(seqs[:1])[0].tobytes() == model.encode(seqs[0]).tobytes()
    assert model.encode_batch([]).shape == (0, rep)
    with pytest.raises(ValueError, match="model dim"):
        model.encode_batch([seqs[0], np.zeros((2, dim + 1))])


# --- dec --------------------------------------------------------------------


def _world(request, name):
    if name == "fixtures":
        return (request.getfixturevalue("mini_topics"), request.getfixturevalue("mini_index"),
                request.getfixturevalue("tiny_table"), request.getfixturevalue("stopwords"))
    topics, idx, _, table = mismatch_world()
    return topics, idx, table, frozenset()


def _random_refset(topics, table, size, rng):
    """size/2 good and size/2 bad encodable items on random (title, term) pairs."""
    titles = [t.title_terms for t in topics if any(w in table for w in t.title_terms)]
    picks = rng.choice(len(table), size=size, replace=False)
    return ReferenceSet([
        (titles[rng.integers(len(titles))], table.terms[j],
         Label.GOOD if k % 2 else Label.BAD) for k, j in enumerate(picks)])


@pytest.mark.parametrize("name", ["fixtures", "mismatch"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dec_weights_equal_the_per_term_route(request, name, seed):
    topics, idx, table, stop = _world(request, name)
    rng = np.random.default_rng(seed)
    model = SiameseModel(table.dim, 3 + seed, 4 + seed, rng,
                         pooling=("last", "mean")[seed % 2])
    refset = _random_refset(topics, table, 6, rng)
    cfg = ExpansionConfig(m=5, alpha=0.7, pool_size=12)
    ref_reps = encode_reference_set(model, refset, table)
    expanded = 0
    for topic in topics:
        pool = scored_candidate_pool(topic, table, idx, cfg.pool_size, stop)
        selection = _centroid_selection(topic, pool, cfg.m)
        if not selection:
            continue
        want = reference_scoring.dec_selection(topic, selection, model, refset, table,
                                               cfg.alpha)
        terms = [t for t, _ in selection]
        assert p_good_batch(topic.title_terms, terms, model, refset, table) == [
            reference_scoring.p_good(topic.title_terms, t, model, refset, table,
                                     reference_scoring.encode_reference_set(
                                         model, refset, table)) for t in terms]
        want_model = interpolate(topic, _normalize(want), cfg.beta)
        for reps in (None, ref_reps):
            got = build_query_model("dec", topic, pool, table, cfg, model, refset, reps)
            assert got.weights == want_model.weights  # exact float equality
        expanded += 1
    assert expanded >= 2


def test_dec_encodes_each_selection_in_one_batch(mini_topics, mini_index, tiny_table,
                                                stopwords):
    table = tiny_table
    model = SiameseModel(table.dim, 3, 4, np.random.default_rng(0))
    refset = _random_refset(mini_topics, table, 4, np.random.default_rng(1))
    ref_reps = encode_reference_set(model, refset, table)
    cfg = ExpansionConfig(m=4, pool_size=12)
    calls = []
    batch = model._encode_batch_cached

    def counting(seqs):
        calls.append(len(seqs))
        return batch(seqs)

    def per_term(sequence):
        raise AssertionError("dec encoded one sequence on its own")

    model._encode_batch_cached = counting
    model.encode = per_term
    scored = 0
    for topic in mini_topics:
        pool = scored_candidate_pool(topic, table, mini_index, cfg.pool_size, stopwords)
        selection = _centroid_selection(topic, pool, cfg.m)
        calls.clear()
        build_query_model("dec", topic, pool, table, cfg, model, refset, ref_reps)
        assert calls == ([len(selection)] if selection else [])
        scored += len(selection) >= 2
        calls.clear()
        build_query_model("dec", topic, pool, table, cfg, model, refset)
        assert calls == ([len(refset.items), len(selection)] if selection else [])
    assert scored >= 2
