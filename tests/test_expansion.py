"""Expansion weighting: interpolation, centroid selection, multiplicative
scoring, and classifier reweighting."""

import math

import numpy as np
import pytest

from qexp.classifier.inference import build_reference_set
from qexp.classifier.network import SiameseModel
from qexp.collection import Document, Topic, build_index
from qexp.embeddings import EmbeddingTable, cosine
from qexp.expansion import (
    ExpansionConfig,
    awe_expand,
    awe_selection,
    dec_expand,
    eqe1_expand,
    interpolate,
    qlm_model,
)
from qexp.labeling import Label, LabeledDataset, LabeledExample
from qexp.retrieval import retrieve, write_run


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
    selection = awe_selection(topic, table, idx, cfg)
    assert [t for t, _ in selection] == ["a", "b", "c"]
    qv = table.vector("q")
    for term, sim in selection:
        assert sim == pytest.approx(cosine(qv, table.vector(term)), abs=1e-12)

    qm = awe_expand(topic, table, idx, cfg)
    sims = {t: cosine(qv, table.vector(t)) for t in ("a", "b", "c")}
    total = sum(sims.values())
    assert qm.weights["q"] == pytest.approx(0.5)
    for t in ("a", "b", "c"):
        assert qm.weights[t] == pytest.approx(0.5 * sims[t] / total, abs=1e-12)
    assert sum(qm.weights.values()) == pytest.approx(1.0)


def test_awe_drops_non_positive_cosines(world, caplog):
    topic, table, idx = world
    cfg = ExpansionConfig(m=5, pool_size=10)
    with caplog.at_level("WARNING"):
        selection = awe_selection(topic, table, idx, cfg)
    assert [t for t, _ in selection] == ["a", "b", "c"]
    assert "non-positive cosine" in caplog.text


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


def test_dec_symmetric_mode_runs(dec_setup):
    topic, table, idx, model, refset = dec_setup
    cfg = ExpansionConfig(m=3, pool_size=10)
    qm = dec_expand(topic, table, idx, model, refset, cfg, symmetric=True)
    assert sum(qm.weights.values()) == pytest.approx(1.0)
