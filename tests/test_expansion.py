"""Expansion weighting: interpolation, centroid selection, multiplicative
scoring, and classifier reweighting."""

import math
import warnings

import numpy as np
import pytest

from qexp import expansion
from qexp.classifier import inference
from qexp.classifier.inference import build_reference_set, encode_reference_set
from qexp.classifier.network import SiameseModel
from qexp.collection import Document, Topic, build_index
from qexp.embeddings import EmbeddingTable
from qexp.expansion import (
    ExpansionConfig,
    awe_expand,
    build_query_model,
    dec_expand,
    eqe1_expand,
    interpolate,
    qlm_model,
)
from qexp.labeling import Label, LabeledDataset, LabeledExample, scored_candidate_pool
from qexp.retrieval import retrieve, write_run

from reference_pool import cosine
from synthworld import mismatch_world


@pytest.fixture()
def world():
    table = EmbeddingTable(
        ["q", "a", "b", "c", "d", "neg"],
        np.array([
            [1.0, 0.0],
            [0.9, 0.1],
            [0.8, 0.2],
            [0.6, 0.4],
            [0.0, 1.0],
            [-1.0, 0.0],
        ]))
    idx = build_index([
        Document("d1", ["q", "a", "b"]),
        Document("d2", ["c", "d", "neg"]),
        Document("d3", ["q", "c"]),
    ])
    topic = Topic("t1", ["q"])
    return topic, table, idx


def test_config_validation():
    with pytest.raises(ValueError, match="m must"):
        ExpansionConfig(m=0)
    with pytest.raises(ValueError, match="alpha"):
        ExpansionConfig(alpha=-0.5)
    with pytest.raises(ValueError, match="beta"):
        ExpansionConfig(beta=1.5)
    with pytest.raises(ValueError, match="pool_size must"):
        ExpansionConfig(pool_size=0)
    with pytest.raises(ValueError, match="pool_size must"):
        ExpansionConfig(pool_size=-1)


def test_interpolate_hand_math():
    topic = Topic("q", ["x", "y", "x"])
    qm = interpolate(topic, {"z": 0.6, "y": 0.4}, beta=0.5)
    assert qm.weights["x"] == pytest.approx(0.5 * (2 / 3))
    assert qm.weights["y"] == pytest.approx(0.5 * (1 / 3) + 0.5 * 0.4)
    assert qm.weights["z"] == pytest.approx(0.5 * 0.6)
    assert sum(qm.weights.values()) == pytest.approx(1.0)


def test_interpolate_beta_edges():
    topic = Topic("q", ["x", "y", "x"])
    at_one = interpolate(topic, {"z": 0.6}, beta=1.0)
    assert at_one.weights == {"x": 2 / 3, "y": 1 / 3}
    at_zero = interpolate(topic, {"z": 0.6, "y": 0.4}, beta=0.0)
    assert at_zero.weights == {"z": 0.6, "y": 0.4}


def test_qlm_model_is_normalized_counts():
    qm = qlm_model(Topic("q", ["x", "y", "x"]))
    assert qm.weights == {"x": 2 / 3, "y": 1 / 3}


def test_awe_selection_and_weights(world):
    topic, table, idx = world
    cfg = ExpansionConfig(m=3, pool_size=10, beta=0.5)
    pool = scored_candidate_pool(topic, table, idx, cfg.pool_size)
    assert [t for t, _ in pool][:3] == ["a", "b", "c"]
    qv = table.vector("q")
    for term, sim in pool:
        assert sim == pytest.approx(cosine(qv, table.vector(term)), abs=1e-12)

    qm = build_query_model("awe", topic, pool, table, cfg)
    assert set(qm.weights) == {"q", "a", "b", "c"}
    sims = {t: cosine(qv, table.vector(t)) for t in ("a", "b", "c")}
    total = sum(sims.values())
    assert qm.weights["q"] == pytest.approx(0.5)
    for t in ("a", "b", "c"):
        assert qm.weights[t] == pytest.approx(0.5 * sims[t] / total, abs=1e-12)
    assert sum(qm.weights.values()) == pytest.approx(1.0)


def test_awe_drops_non_positive_cosines(world, caplog):
    topic, table, idx = world
    cfg = ExpansionConfig(m=5, pool_size=10)
    pool = scored_candidate_pool(topic, table, idx, cfg.pool_size)
    assert [t for t, _ in pool] == ["a", "b", "c", "d", "neg"]
    with caplog.at_level("WARNING"):
        qm = build_query_model("awe", topic, pool, table, cfg)
    assert set(qm.weights) == {"q", "a", "b", "c"}
    assert "dropped 2 expansion terms with non-positive cosine" in caplog.text


def _run_bytes(qm, idx, path):
    write_run([retrieve(qm, idx)], path)
    return path.read_bytes()


@pytest.mark.parametrize("beta", [0.5, 0.0])
@pytest.mark.parametrize("method", ["awe", "dec"])
def test_awe_empty_selection_keeps_original(tmp_path, caplog, method, beta):
    # the only pool term has a negative cosine, so nothing is selected
    table = EmbeddingTable(["q", "neg"], np.array([[1.0, 0.0], [-1.0, 0.0]]))
    idx = build_index([Document("d1", ["q", "neg"]), Document("d2", ["q", "q", "x"])])
    topic = Topic("t1", ["q"])
    cfg = ExpansionConfig(beta=beta)
    with caplog.at_level("WARNING"):
        if method == "awe":
            qm = awe_expand(topic, table, idx, cfg)
        else:
            ds = LabeledDataset([LabeledExample("t1", ["q"], "neg", Label.GOOD, 0.1),
                                 LabeledExample("t1", ["q"], "q", Label.BAD, -0.1)])
            refset = build_reference_set(ds, table, 2, np.random.default_rng(1))
            model = SiameseModel(table.dim, 3, 4, np.random.default_rng(0))
            qm = dec_expand(topic, table, idx, model, refset, cfg)
    assert "empty expansion selection" in caplog.text
    assert _run_bytes(qm, idx, tmp_path / f"{method}.txt") == \
        _run_bytes(qlm_model(topic), idx, tmp_path / "qlm.txt")


def test_eqe1_matches_independent_recompute(world):
    topic, table, idx = world
    cfg = ExpansionConfig(m=2, pool_size=10, beta=0.5)
    qm = eqe1_expand(topic, table, idx, cfg)

    # independent: per query term, softmax over pool of exp(cosine), multiplied
    pool = ["a", "b", "c", "d", "neg"]
    qv = table.vector("q")
    exps = {t: math.exp(cosine(table.vector(t), qv)) for t in pool}
    denom = sum(exps[t] for t in pool)
    score = {t: exps[t] / denom for t in pool}
    top2 = sorted(score.items(), key=lambda e: (-e[1], e[0]))[:2]
    total = sum(s for _, s in top2)
    assert set(qm.weights) == {"q"} | {t for t, _ in top2}
    for t, s in top2:
        assert qm.weights[t] == pytest.approx(0.5 * s / total, rel=1e-12)


def test_eqe1_multiplies_across_query_terms():
    table = EmbeddingTable(
        ["u", "v", "x", "y"],
        np.array([[1.0, 0.0], [0.0, 1.0], [0.9, 0.1], [0.1, 0.9]]))
    idx = build_index([Document("d1", ["u", "v", "x", "y"])])
    topic = Topic("t1", ["u", "v"])
    qm = eqe1_expand(topic, table, idx, ExpansionConfig(m=2, beta=0.5))

    score = {}
    for t in ("x", "y"):
        s = 1.0
        for w in ("u", "v"):
            sims = {p: math.exp(cosine(table.vector(p), table.vector(w)))
                    for p in ("x", "y")}
            s *= sims[t] / sum(sims.values())
        score[t] = s
    total = sum(score.values())
    for t in ("x", "y"):
        assert qm.weights[t] == pytest.approx(0.5 * score[t] / total, rel=1e-12)


@pytest.mark.parametrize("beta", [0.5, 0.0])
def test_eqe1_empty_pool_keeps_original_query(tmp_path, beta):
    table = EmbeddingTable(["q"], np.array([[1.0, 0.0]]))
    idx = build_index([Document("d1", ["q"]), Document("d2", ["q", "q", "x"])])
    topic = Topic("t1", ["q"])
    cfg = ExpansionConfig(beta=beta)
    assert _run_bytes(eqe1_expand(topic, table, idx, cfg), idx, tmp_path / "eqe1.txt") == \
        _run_bytes(qlm_model(topic), idx, tmp_path / "qlm.txt")


@pytest.fixture()
def dec_setup(world):
    topic, table, idx = world
    rng = np.random.default_rng(0)
    model = SiameseModel(table.dim, 3, 4, rng)
    ds = LabeledDataset([
        LabeledExample("t1", ["q"], "a", Label.GOOD, 0.1),
        LabeledExample("t1", ["q"], "b", Label.BAD, -0.1),
        LabeledExample("t1", ["q"], "c", Label.GOOD, 0.1),
        LabeledExample("t1", ["q"], "d", Label.BAD, -0.1),
    ])
    refset = build_reference_set(ds, table, 4, np.random.default_rng(1))
    return topic, table, idx, model, refset


def test_dec_keeps_awe_selection(dec_setup):
    topic, table, idx, model, refset = dec_setup
    cfg = ExpansionConfig(m=3, pool_size=10, alpha=1.0, beta=0.5)
    dec = dec_expand(topic, table, idx, model, refset, cfg)
    awe = awe_expand(topic, table, idx, cfg)
    assert set(dec.weights) == set(awe.weights)
    assert sum(dec.weights.values()) == pytest.approx(1.0)


def test_dec_alpha_zero_is_awe_bitwise(dec_setup):
    topic, table, idx, model, refset = dec_setup
    cfg = ExpansionConfig(m=3, pool_size=10, alpha=0.0, beta=0.5)
    dec = dec_expand(topic, table, idx, model, refset, cfg)
    awe = awe_expand(topic, table, idx, cfg)
    assert dec.weights == awe.weights  # exact float equality


@pytest.fixture()
def zed_setup(dec_setup):
    """dec_setup's world plus the term "zed", whose vector is all zeros."""
    _, table, idx, model, refset = dec_setup
    zed_table = EmbeddingTable([*table.terms, "zed"],
                               np.vstack([table.matrix, np.zeros(table.dim)]))
    return zed_table, idx, model, refset


@pytest.mark.parametrize("method", ["qlm", "awe", "eqe1", "dec"])
def test_zero_vector_title_term_counts_as_unembedded(zed_setup, method):
    table, idx, model, refset = zed_setup
    cfg = ExpansionConfig(m=3, pool_size=10)

    def expand(title):
        topic = Topic("t1", title)
        pool = scored_candidate_pool(topic, table, idx, cfg.pool_size)
        return build_query_model(method, topic, pool, table, cfg, model, refset)

    with_zed, alone = expand(["q", "zed"]), expand(["q"])
    assert set(with_zed.weights) == set(alone.weights) | {"zed"}
    if method in ("awe", "eqe1"):
        for term in set(alone.weights) - {"q"}:
            assert with_zed.weights[term] == alone.weights[term]
    assert expand(["zed"]).weights == qlm_model(Topic("t1", ["zed"])).weights


def test_dec_without_ref_reps_encodes_the_reference_set_once(request, monkeypatch):
    topics, idx, table, _, ds = _world_with_refset(request, "mismatch")
    model = SiameseModel(table.dim, 3, 4, np.random.default_rng(0))
    refset = build_reference_set(ds, table, 2, np.random.default_rng(1))
    cfg = ExpansionConfig(m=10, pool_size=12)
    cached = dec_expand(topics[0], table, idx, model, refset, cfg,
                        ref_reps=encode_reference_set(model, refset, table))
    calls = []

    def counting(*args):
        calls.append(args)
        return encode_reference_set(*args)

    monkeypatch.setattr(expansion, "encode_reference_set", counting, raising=False)
    monkeypatch.setattr(inference, "encode_reference_set", counting)
    fresh = dec_expand(topics[0], table, idx, model, refset, cfg)
    assert len(calls) == 1
    assert len(fresh.weights) == len(topics[0].title_terms) + cfg.m
    assert fresh.weights == cached.weights
    dec_expand(topics[-1], table, idx, model, refset, cfg)  # no embedding: empty pool
    assert len(calls) == 1


def _world_with_refset(request, name):
    """(topics, idx, table, stopwords, dataset) on the bundled fixtures or on
    the mismatch world, the latter with a topic no embedding covers."""
    if name == "fixtures":
        topics = request.getfixturevalue("mini_topics")
        idx = request.getfixturevalue("mini_index")
        table = request.getfixturevalue("tiny_table")
        stop = request.getfixturevalue("stopwords")
        qid, qterms, good, bad = "701", ["solar", "energy", "cost"], "panel", "coal"
    else:
        topics, idx, _, table = mismatch_world()
        topics.append(Topic("zz", ["bgt1", "bgt2"]))
        stop = frozenset()
        qid, qterms, good, bad = "m00", ["m00qa", "m00qb"], "m00g0", "m00b0"
    ds = LabeledDataset([LabeledExample(qid, qterms, good, Label.GOOD, 0.1),
                         LabeledExample(qid, qterms, bad, Label.BAD, -0.1)])
    return topics, idx, table, stop, ds


@pytest.mark.parametrize("name", ["fixtures", "mismatch"])
@pytest.mark.parametrize("method", ["awe", "eqe1", "dec"])
def test_wrappers_equal_the_shared_pool_path(request, name, method):
    topics, idx, table, stop, ds = _world_with_refset(request, name)
    model = SiameseModel(table.dim, 3, 4, np.random.default_rng(0))
    refset = build_reference_set(ds, table, 2, np.random.default_rng(1))
    cfg = ExpansionConfig(m=3, pool_size=12)
    expanded = 0
    for topic in topics:
        pool = scored_candidate_pool(topic, table, idx, cfg.pool_size, stop)
        shared = build_query_model(method, topic, pool, table, cfg, model, refset)
        if method == "awe":
            wrapped = awe_expand(topic, table, idx, cfg, stop)
        elif method == "eqe1":
            wrapped = eqe1_expand(topic, table, idx, cfg, stop)
        else:
            wrapped = dec_expand(topic, table, idx, model, refset, cfg, stop)
        assert wrapped.query_id == shared.query_id
        assert wrapped.weights == shared.weights  # exact float equality
        expanded += len(shared.weights) > len(set(topic.title_terms))
    assert expanded >= 2


@pytest.mark.parametrize("rows", [
    [[1.0, 0.0], [1e-170, 1e-170], [0.0, 1.0]],   # a's squared norm underflows to 0
    [[1.0, 0.0], [1e-160, 1e-160], [0.0, 1.0]],   # ... or is subnormal
    [[1.0, 0.0], [1e200, 1e200], [0.0, 1.0]],     # ... or overflows
    [[1e-170, 0.0], [1.0, 1.0], [0.0, 1.0]],      # the query term's does
    [[1e300, 0.0], [1.0, 1.0], [0.0, 0.5]],
], ids=["row-underflow", "row-subnormal", "row-overflow", "query-underflow",
        "query-overflow"])
def test_eqe1_cosine_survives_norms_outside_the_normal_range(rows):
    """cos(a, q) = 1/sqrt(2) and cos(b, q) = 0 at every scale, with no warning."""
    table = EmbeddingTable(["q", "a", "b"], np.array(rows))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expansion._multiplicative_selection(
            Topic("x", ["q"]), [("a", 1.0), ("b", 0.0)], table, 2)
    e = math.exp(1.0 / math.sqrt(2.0))
    assert [t for t, _ in got] == ["a", "b"]
    assert got[0][1] == pytest.approx(e / (e + 1.0), rel=1e-15)
    assert got[1][1] == pytest.approx(1.0 / (e + 1.0), rel=1e-15)
