"""Cross-validated method comparison and report rendering."""

import numpy as np
import pytest

from qexp.classifier.training import TrainConfig
from qexp.collection import Topic
from qexp.evaluation import Comparison, EvalResult, evaluate_rankings
from qexp import labeling
from qexp.experiment import (ExperimentResult, _sig_markers, cross_validate,
                             format_report, partition_folds, per_query_csv,
                             report_tsv)
from qexp.expansion import (ExpansionConfig, awe_expand, build_query_model,
                            eqe1_expand, qlm_model)
from qexp.labeling import (Label, LabeledDataset, LabeledExample, build_dataset,
                           scored_candidate_pool)
from qexp.retrieval import retrieve

from synthworld import mismatch_world


def test_partition_folds_covers_each_query_once():
    qids = [f"q{i:02d}" for i in range(11)]
    rng = np.random.default_rng(0)
    folds = partition_folds(qids, 3, rng)
    assert sorted(len(f) for f in folds) == [3, 4, 4]
    assert sorted(q for f in folds for q in f) == sorted(qids)
    assert all(f == sorted(f) for f in folds)
    again = partition_folds(qids, 3, np.random.default_rng(0))
    assert again == folds
    other = partition_folds(qids, 3, np.random.default_rng(1))
    assert other != folds


def test_partition_folds_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="k must be >= 2"):
        partition_folds(["a", "b"], 1, rng)
    with pytest.raises(ValueError, match="at least k=4"):
        partition_folds(["a", "b", "c"], 4, rng)


def test_cv_static_methods_match_direct_evaluation(
        mini_topics, mini_index, mini_qrels, tiny_table, stopwords):
    methods = ("qlm", "awe", "eqe1")
    result = cross_validate(mini_topics, mini_index, mini_qrels, tiny_table,
                            None, methods=methods, folds=2, seed=0,
                            stopwords=stopwords)
    assert result.folds == 2
    eligible = [t for t in mini_topics if mini_qrels.num_relevant(t.query_id) > 0]
    assert {t.query_id for t in eligible} == {"701", "702"}
    cfg = ExpansionConfig()
    public = {"qlm": lambda t: qlm_model(t),
              "awe": lambda t: awe_expand(t, tiny_table, mini_index, cfg, stopwords),
              "eqe1": lambda t: eqe1_expand(t, tiny_table, mini_index, cfg, stopwords)}
    for method in methods:
        rankings = [retrieve(public[method](t), mini_index) for t in eligible]
        direct = evaluate_rankings(rankings, mini_qrels)
        assert result.results[method].per_query_ap == direct.per_query_ap
        assert result.results[method].per_query_p10 == direct.per_query_p10
        assert result.results[method].map == direct.map
    assert ("qlm", "awe") in result.comparisons
    assert ("awe", "qlm") in result.comparisons
    assert ("qlm", "qlm") not in result.comparisons


def _mini_dataset():
    exs = []
    for qid, qterms, good, bad in [
        ("701", ["solar", "energy", "cost"], ["panel", "cheap"], ["coal", "wind"]),
        ("702", ["wind", "power"], ["turbine", "cheap"], ["coal", "solar"]),
    ]:
        for t in good:
            exs.append(LabeledExample(qid, qterms, t, Label.GOOD, 0.1))
        for t in bad:
            exs.append(LabeledExample(qid, qterms, t, Label.BAD, -0.1))
    return LabeledDataset(exs)


DEC_KWARGS = dict(train_cfg=TrainConfig(epochs=1, batch_size=4, pair_budget=8),
                  refset_size=4, hidden=3, rep=4)


def test_cv_classifier_method_runs_and_is_seeded(
        mini_topics, mini_index, mini_qrels, tiny_table, stopwords):
    ds = _mini_dataset()
    kwargs = dict(methods=("qlm", "dec"), folds=2, seed=3, stopwords=stopwords,
                  **DEC_KWARGS)
    r1 = cross_validate(mini_topics, mini_index, mini_qrels, tiny_table, ds, **kwargs)
    assert set(r1.results) == {"qlm", "dec"}
    assert r1.results["dec"].num_queries == 2
    assert 0.0 <= r1.results["dec"].map <= 1.0
    assert ("qlm", "dec") in r1.comparisons
    r2 = cross_validate(mini_topics, mini_index, mini_qrels, tiny_table, ds, **kwargs)
    assert r1.results["dec"].per_query_ap == r2.results["dec"].per_query_ap


def test_cv_validation_errors(mini_topics, mini_index, mini_qrels, tiny_table,
                              stopwords):
    with pytest.raises(ValueError, match="unknown methods"):
        cross_validate(mini_topics, mini_index, mini_qrels, tiny_table, None,
                       methods=("qlm", "bm25"), folds=2)
    with pytest.raises(ValueError, match=r"named more than once: \['qlm'\]"):
        cross_validate(mini_topics, mini_index, mini_qrels, tiny_table, None,
                       methods=("qlm", "awe", "qlm"), folds=2)
    with pytest.raises(ValueError, match="needs a labeled dataset"):
        cross_validate(mini_topics, mini_index, mini_qrels, tiny_table, None,
                       methods=("dec",), folds=2)
    with pytest.raises(ValueError, match="no eligible queries"):
        cross_validate([], mini_index, mini_qrels, tiny_table, None,
                       methods=("qlm",), folds=2)
    # labels for only one query shrink the eligible set below k
    one_query = LabeledDataset(
        [LabeledExample("701", ["solar"], "panel", Label.GOOD, 0.1),
         LabeledExample("701", ["solar"], "coal", Label.BAD, -0.1)])
    with pytest.raises(ValueError, match="at least k=2"):
        cross_validate(mini_topics, mini_index, mini_qrels, tiny_table,
                       one_query, methods=("qlm", "dec"), folds=2,
                       stopwords=stopwords)


def _count_neighbor_scans(monkeypatch):
    calls = []
    scan = labeling.top_k_neighbors

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(labeling, "top_k_neighbors", counted)
    return calls


def test_cv_scans_one_candidate_pool_per_topic(
        monkeypatch, mini_topics, mini_index, mini_qrels, tiny_table, stopwords):
    calls = _count_neighbor_scans(monkeypatch)
    cross_validate(mini_topics, mini_index, mini_qrels, tiny_table, _mini_dataset(),
                   methods=("qlm", "awe", "eqe1", "dec"), folds=2, seed=3,
                   stopwords=stopwords, workers=1, **DEC_KWARGS)
    assert len(calls) == 2  # one per eligible topic, 701 and 702
    calls.clear()
    cross_validate(mini_topics, mini_index, mini_qrels, tiny_table, None,
                   methods=("qlm",), folds=2, stopwords=stopwords, workers=1)
    assert calls == []


def test_topic_without_embedded_title_term_is_kept_unexpanded(caplog):
    topics, idx, qrels, table = mismatch_world()
    topics.append(Topic("zz", ["bgt1", "bgt2"]))  # in the index, not in the table
    qrels.add("zz", "bg00", 1)
    dataset = build_dataset(topics, idx, qrels, table)
    assert "zz" not in {ex.query_id for ex in dataset.examples}
    caplog.clear()
    with caplog.at_level("WARNING"):
        result = cross_validate(topics, idx, qrels, table, None,
                                methods=("qlm", "awe", "eqe1"), folds=2, workers=1,
                                expansion_cfg=ExpansionConfig(pool_size=12))
    aps = {m: result.results[m].per_query_ap["zz"] for m in ("qlm", "awe", "eqe1")}
    assert aps["awe"] == aps["eqe1"] == aps["qlm"]
    assert caplog.text.count("query zz: no title term in the embedding vocabulary") == 1


def test_build_query_model_dispatch(mini_topics, mini_index, tiny_table,
                                    stopwords):
    topic = mini_topics[0]
    cfg = ExpansionConfig()
    pool = scored_candidate_pool(topic, tiny_table, mini_index, cfg.pool_size,
                                 stopwords)
    assert pool
    qm = build_query_model("qlm", topic, pool, tiny_table, cfg)
    assert qm.weights == qlm_model(topic).weights
    with pytest.raises(ValueError, match="unknown method 'bm25'"):
        build_query_model("bm25", topic, pool, tiny_table, cfg)


def _handmade_result():
    qlm_ap = {"q1": 0.1, "q2": 0.2, "q3": 0.3, "q4": 0.4, "q5": 0.5}
    dec_diffs = {"q1": 0.2, "q2": 0.25, "q3": 0.3, "q4": 0.22, "q5": 0.28}
    awe_noise = {"q1": -0.05, "q2": 0.05, "q3": -0.04, "q4": 0.04, "q5": 0.0}
    dec_ap = {q: qlm_ap[q] + dec_diffs[q] for q in qlm_ap}
    awe_ap = {q: dec_ap[q] + awe_noise[q] for q in qlm_ap}
    p10 = {q: 0.5 for q in qlm_ap}
    results = {"qlm": EvalResult(qlm_ap, p10), "awe": EvalResult(awe_ap, p10),
               "dec": EvalResult(dec_ap, p10)}
    comparisons = {}
    for treatment in results:
        for baseline in ("qlm", "awe"):
            if baseline != treatment:
                comparisons[(baseline, treatment)] = Comparison(
                    results[baseline], results[treatment])
    return ExperimentResult(results, comparisons, folds=2)


def test_sig_markers_require_significance_and_direction():
    result = _handmade_result()
    # premises: big uniform gains are significant, balanced noise is not
    assert result.comparisons[("qlm", "dec")].significant
    assert result.comparisons[("qlm", "awe")].significant
    assert not result.comparisons[("awe", "dec")].significant
    assert _sig_markers(result, "dec") == "1"
    assert _sig_markers(result, "awe") == "1"
    # qlm trails both others: significant comparisons in the wrong direction
    assert _sig_markers(result, "qlm") == "-"


def test_format_report_layout():
    text = format_report(_handmade_result())
    lines = text.splitlines()
    assert lines[0].split() == ["method", "MAP", "sig", "P@10", "RI"]
    assert set(lines[1]) == {"-"}
    rows = {ln.split()[0]: ln.split() for ln in lines[2:5]}
    assert rows["qlm"] == ["qlm", "0.3000", "-", "0.5000", "-"]
    assert rows["dec"] == ["dec", "0.5500", "1", "0.5000", "1.00"]
    assert lines[6] == "folds: 2, queries: 5"
    assert lines[7].startswith("sig: baselines (1=qlm 2=awe 3=eqe1)")


def test_report_tsv_round_trips_floats():
    result = _handmade_result()
    lines = report_tsv(result).splitlines()
    assert lines[0] == "method\tmap\tp10\tri\tsig"
    by_method = {ln.split("\t")[0]: ln.split("\t") for ln in lines[1:]}
    assert float(by_method["qlm"][1]) == result.results["qlm"].map
    assert by_method["qlm"][3] == ""          # no qlm-vs-qlm robustness index
    assert by_method["qlm"][4] == "-"
    assert float(by_method["dec"][3]) == result.comparisons[("qlm", "dec")].ri
    assert by_method["dec"][4] == "1"


def test_per_query_csv_sorted_and_exact():
    result = _handmade_result()
    lines = per_query_csv(result).splitlines()
    assert lines[0] == "query_id,qlm,awe,dec"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["q1", "q2", "q3", "q4", "q5"]
    first = lines[1].split(",")
    assert float(first[1]) == 0.1
    assert float(first[3]) == result.results["dec"].per_query_ap["q1"]
