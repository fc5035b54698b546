"""Oracle labeling of expansion candidates on planted corpora."""

import re

import numpy as np
import pytest

from qexp.collection import Document, ParseError, Qrels, Topic, build_index
from qexp.embeddings import EmbeddingTable
from qexp.labeling import (
    Label,
    LabeledDataset,
    LabeledExample,
    baseline_ap,
    build_dataset,
    dataset_statistics,
    label_for_delta,
    label_term,
    oracle_run,
    scored_candidate_pool,
)

EPS = 0.0005


@pytest.fixture()
def planted():
    """Ranking-sensitive corpus: "boost" lives in all-and-only relevant docs,
    "trap" in all-and-only non-relevant judged docs, "ghost" nowhere."""
    docs = [
        Document("m1", ["base", "base", "boost"]),
        Document("m2", ["base", "boost", "pad"]),
        Document("a1", ["base", "trap", "pad"]),
        Document("a2", ["base", "trap"]),
        Document("bg", ["pad", "pad", "pad"]),
    ]
    idx = build_index(docs)
    qrels = Qrels()
    qrels.add("q1", "m1", 1)
    qrels.add("q1", "m2", 1)
    qrels.add("q1", "a1", 0)
    qrels.add("q1", "a2", 0)
    topic = Topic("q1", ["base"])
    return topic, idx, qrels


@pytest.fixture()
def planted_table():
    return EmbeddingTable(
        ["base", "boost", "trap", "pad", "phantom"],
        np.array([
            [1.0, 0.0],
            [0.9, 0.1],
            [0.8, 0.2],
            [0.0, 1.0],
            [0.99, 0.01],
        ]))


def test_label_for_delta_boundaries():
    assert label_for_delta(0.0, EPS) is Label.NEUTRAL
    assert label_for_delta(EPS, EPS) is Label.NEUTRAL
    assert label_for_delta(-EPS, EPS) is Label.NEUTRAL
    assert label_for_delta(EPS + 1e-12, EPS) is Label.GOOD
    assert label_for_delta(-EPS - 1e-12, EPS) is Label.BAD
    assert label_for_delta(0.3, EPS) is Label.GOOD
    assert label_for_delta(-0.3, EPS) is Label.BAD


def test_planted_baseline(planted):
    topic, idx, qrels = planted
    # baseline order: m1 (tf 2), a2 (shorter doc), a1, m2 -> AP (1/1 + 2/4)/2
    assert baseline_ap(topic, idx, qrels) == pytest.approx(0.75, abs=1e-12)


def test_planted_good_bad_neutral(planted):
    topic, idx, qrels = planted

    label, delta = label_term(topic, "boost", idx, qrels)
    assert label is Label.GOOD
    assert delta == pytest.approx(0.25, abs=1e-9)

    label, delta = label_term(topic, "trap", idx, qrels)
    assert label is Label.BAD
    assert delta == pytest.approx(5.0 / 12.0 - 0.75, abs=1e-9)

    label, delta = label_term(topic, "ghost", idx, qrels)
    assert label is Label.NEUTRAL
    assert delta == 0.0


def test_candidate_pool_filters(planted, planted_table):
    topic, idx, _ = planted
    pool = scored_candidate_pool(topic, planted_table, idx)
    names = [t for t, _ in pool]
    # query term and non-index terms excluded; cosine-descending order
    assert names == ["boost", "trap", "pad"]
    sims = [s for _, s in pool]
    assert sims == sorted(sims, reverse=True)

    def terms(**kwargs):
        return [t for t, _ in scored_candidate_pool(topic, planted_table, idx, **kwargs)]

    assert terms(pool_size=2) == ["boost", "trap"]
    assert terms(stopwords={"pad"}) == ["boost", "trap"]


@pytest.mark.parametrize("pool_size", [0, -1])
def test_pool_size_below_one_is_rejected(planted, planted_table, pool_size):
    topic, idx, qrels = planted
    with pytest.raises(ValueError, match="pool_size must be >= 1"):
        scored_candidate_pool(topic, planted_table, idx, pool_size)
    with pytest.raises(ValueError, match="pool_size must be >= 1"):
        build_dataset([topic], idx, qrels, planted_table, pool_size=pool_size)


def test_build_dataset(planted, planted_table):
    topic, idx, qrels = planted
    ds = build_dataset([topic], idx, qrels, planted_table)
    by_term = {ex.candidate_term: ex for ex in ds.examples}
    assert by_term["boost"].label is Label.GOOD
    assert by_term["trap"].label is Label.BAD
    assert ds.metadata["num_queries"] == 1
    assert all(ex.query_terms == ["base"] for ex in ds.examples)


def test_build_dataset_workers_match(planted, planted_table):
    topic, idx, qrels = planted
    serial = build_dataset([topic], idx, qrels, planted_table, workers=1)
    parallel = build_dataset([topic], idx, qrels, planted_table, workers=2)
    assert serial.examples == parallel.examples


def test_build_dataset_skips_unjudged_query(planted, planted_table, caplog):
    topic, idx, qrels = planted
    orphan = Topic("q9", ["base"])
    with caplog.at_level("WARNING"):
        ds = build_dataset([topic, orphan], idx, qrels, planted_table)
    assert {ex.query_id for ex in ds.examples} == {"q1"}
    assert "no relevant documents" in caplog.text


def test_build_dataset_zero_vector_title_term(planted, planted_table):
    topic, idx, qrels = planted
    table = EmbeddingTable([*planted_table.terms, "zed"],
                           np.vstack([planted_table.matrix, np.zeros(2)]))
    assert len(build_dataset([Topic("q1", ["zed"])], idx, qrels, table)) == 0
    with_zed = build_dataset([Topic("q1", ["base", "zed"])], idx, qrels, table)
    alone = build_dataset([topic], idx, qrels, table)
    assert ([ex.candidate_term for ex in with_zed.examples]
            == [ex.candidate_term for ex in alone.examples])


def test_oracle_run_beats_baseline(planted, planted_table):
    topic, idx, qrels = planted
    ds = build_dataset([topic], idx, qrels, planted_table)
    per_query, oracle_map = oracle_run(ds, [topic], idx, qrels)
    assert per_query["q1"] == pytest.approx(1.0)
    assert oracle_map > baseline_ap(topic, idx, qrels)

    stats = dataset_statistics(ds, [topic], idx, qrels)
    assert stats["num_queries"] == 1
    assert stats["oracle_map"] == pytest.approx(1.0)
    assert stats["qlm_map"] == pytest.approx(0.75, abs=1e-12)
    assert stats["good_pct"] + stats["neutral_pct"] + stats["bad_pct"] == \
        pytest.approx(100.0)


def test_dataset_duplicate_rejected():
    ex = LabeledExample("q1", ["a"], "t", Label.GOOD, 0.1)
    with pytest.raises(ValueError, match="duplicate"):
        LabeledDataset([ex, LabeledExample("q1", ["a"], "t", Label.BAD, -0.1)])


def test_dataset_helpers():
    exs = [
        LabeledExample("q1", ["a"], "t1", Label.GOOD, 0.1),
        LabeledExample("q1", ["a"], "t2", Label.BAD, -0.1),
        LabeledExample("q2", ["b"], "t1", Label.GOOD, 0.2),
    ]
    ds = LabeledDataset(exs)
    assert ds.class_counts() == {Label.GOOD: 2, Label.NEUTRAL: 0, Label.BAD: 1}
    assert ds.good_terms("q1") == ["t1"]
    sub = ds.for_queries(["q2"])
    assert len(sub) == 1 and sub.examples[0].query_id == "q2"


def test_tsv_roundtrip(tmp_path, planted, planted_table):
    topic, idx, qrels = planted
    ds = build_dataset([topic], idx, qrels, planted_table)
    p = tmp_path / "d.tsv"
    ds.save_tsv(p)
    back = LabeledDataset.load_tsv(p)
    assert back.examples == ds.examples
    assert back.metadata["eps"] == ds.metadata["eps"]
    # saving the loaded copy reproduces the file byte for byte
    p2 = tmp_path / "d2.tsv"
    back.save_tsv(p2)
    assert p.read_bytes() == p2.read_bytes()


_TSV_HEADER = '# {"eps": 0.0005, "queries": {"q1": ["a"]}}\n'


@pytest.mark.parametrize("text, line, message", [
    ("q1\tt1\tgood\t0.1\n", 1, "missing metadata header"),
    ("", 1, "missing metadata header"),
    ('# {"eps": 0.0005,\n', 1, "bad JSON"),
    ("# [1, 2]\n", 1, "metadata header is not a JSON object"),
    ('# {"eps": "small", "queries": {}}\n', 1, "eps 'small' is not a number"),
    ('# {"eps": -1, "queries": {}}\n', 1, "eps must be >= 0, got -1"),
    ('# {"eps": NaN, "queries": {}}\n', 1, "eps must be >= 0, got nan"),
    ('# {"eps": 0.0005, "queries": ["q1"]}\n', 1, "queries must map"),
    (_TSV_HEADER + "q1\tt1\tgood\n", 2, "expected 4 columns, got 3"),
    (_TSV_HEADER + "q1\tt1\tgreat\t0.1\n", 2, "unknown label 'great'"),
    (_TSV_HEADER + "q1\tt1\tgood\tlots\n", 2, "ap_delta 'lots' is not a number"),
    (_TSV_HEADER + "q1\tt1\tgood\t-0.2\n", 2, "label good inconsistent with"),
    (_TSV_HEADER + "q1\tt1\tneutral\tnan\n", 2, "ap_delta 'nan' is outside [-1, 1]"),
    (_TSV_HEADER + "q1\tt1\tgood\tinf\n", 2, "ap_delta 'inf' is outside [-1, 1]"),
    (_TSV_HEADER + "q1\tt1\tbad\t-7.5\n", 2, "ap_delta '-7.5' is outside [-1, 1]"),
    (_TSV_HEADER + "q1\tt1\tgood\t1.0000000000000002\n", 2,
     "ap_delta '1.0000000000000002' is outside [-1, 1]"),
    (_TSV_HEADER + "q9\tt1\tgood\t0.2\n", 2, "query q9 missing from header"),
    (_TSV_HEADER + "q1\tt1\tgood\t0.2\n\nq1\tt1\tbad\t-0.2\n", 4,
     "duplicate row for query q1 term 't1'"),
], ids=["missing-header", "empty-file", "bad-json", "header-not-object", "eps-not-number",
        "eps-negative", "eps-nan", "queries-not-object", "column-count", "unknown-label", "delta-not-number",
        "label-disagrees", "delta-nan", "delta-inf", "delta-below-minus-one",
        "delta-above-one", "query-not-in-header", "duplicate-row"])
def test_tsv_validation(tmp_path, text, line, message):
    p = tmp_path / "d.tsv"
    p.write_text(text)
    with pytest.raises(ParseError, match=re.escape(f"{p}:{line}: {message}")):
        LabeledDataset.load_tsv(p)


def test_tsv_accepts_ap_delta_of_plus_and_minus_one(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text(_TSV_HEADER + "q1\tt1\tgood\t1.0\nq1\tt2\tbad\t-1.0\n")
    assert [ex.ap_delta for ex in LabeledDataset.load_tsv(p).examples] == [1.0, -1.0]
