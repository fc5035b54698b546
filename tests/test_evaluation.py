"""Metrics and significance testing against hand values and scipy."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from qexp.collection import Qrels
from qexp.evaluation import (
    Comparison,
    EvalResult,
    average_precision,
    evaluate_rankings,
    paired_t_test,
    precision_at,
    robustness_index,
    student_t_two_tailed_p,
)
from qexp.retrieval import RankedList

from oracles import ap_reference, p_at_reference, ri_reference


def _ranked(qid, doc_ids):
    return RankedList(qid, [(d, -float(i)) for i, d in enumerate(doc_ids)])


def _qrels(qid, relevant):
    qrels = Qrels()
    for d in relevant:
        qrels.add(qid, d, 1)
    return qrels


def test_ap_hand_values():
    qrels = _qrels("q", ["d1", "d3"])
    assert average_precision(_ranked("q", ["d1", "d2", "d3", "d4"]), qrels) == \
        pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=0)
    # judged-relevant but never retrieved still counts in R
    qrels4 = _qrels("q", ["d1", "d3", "dx", "dy"])
    assert average_precision(_ranked("q", ["d1", "d2", "d3", "d4"]), qrels4) == \
        pytest.approx((1.0 + 2.0 / 3.0) / 4.0, abs=0)
    assert average_precision(_ranked("q", ["d2", "d4"]), qrels) == 0.0


def test_ap_depth_cut():
    qrels = _qrels("q", ["d9"])
    ranked = _ranked("q", ["d1", "d9"])
    assert average_precision(ranked, qrels, depth=1) == 0.0
    assert average_precision(ranked, qrels, depth=2) == 0.5


def test_ap_requires_relevant():
    with pytest.raises(ValueError, match="no relevant"):
        average_precision(_ranked("q", ["d1"]), _qrels("other", ["d1"]))


def test_ap_matches_reference_randomized():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n_docs = int(rng.integers(1, 40))
        doc_ids = [f"d{i}" for i in range(n_docs)]
        order = list(rng.permutation(n_docs))
        ranked = _ranked("q", [doc_ids[i] for i in order])
        relevant = {d for d in doc_ids if rng.random() < 0.3} or {doc_ids[0]}
        depth = int(rng.integers(1, 50))
        got = average_precision(ranked, _qrels("q", relevant), depth)
        assert got == ap_reference(ranked.doc_ids, relevant, depth)


def test_p10_divides_by_cutoff():
    qrels = _qrels("q", ["d1", "d2"])
    ranked = _ranked("q", ["d1", "d2", "d3"])
    assert precision_at(ranked, qrels, 10) == 0.2
    assert precision_at(ranked, qrels, 2) == 1.0
    assert precision_at(ranked, qrels, 3) == pytest.approx(2 / 3)
    assert precision_at(_ranked("q", []), qrels, 10) == 0.0
    assert precision_at(ranked, qrels, 10) == \
        p_at_reference(ranked.doc_ids, {"d1", "d2"}, 10)


@pytest.mark.parametrize("depth", [0, -1])
def test_a_depth_below_one_is_rejected(depth):
    # a negative slice would drop documents from the end, a zero cutoff divide by zero
    qrels = _qrels("q", ["d1", "d2"])
    ranked = _ranked("q", ["d1", "d2"])
    with pytest.raises(ValueError, match="depth must be >= 1"):
        average_precision(ranked, qrels, depth)
    with pytest.raises(ValueError, match="depth must be >= 1"):
        evaluate_rankings([ranked], qrels, depth)
    with pytest.raises(ValueError, match="cutoff must be >= 1"):
        precision_at(ranked, qrels, depth)


def test_robustness_index():
    base = {"a": 0.2, "b": 0.2, "c": 0.2, "d": 0.2}
    treat = {"a": 0.3, "b": 0.1, "c": 0.2, "d": 0.4}
    assert robustness_index(base, treat) == pytest.approx(0.25)
    assert robustness_index(base, base) == 0.0
    with pytest.raises(ValueError, match="identical query sets"):
        robustness_index(base, {"a": 0.1})
    with pytest.raises(ValueError, match="empty"):
        robustness_index({}, {})


def test_t_test_matches_scipy():
    rng = np.random.default_rng(9)
    for n in (2, 3, 5, 12, 40):
        for _ in range(20):
            base = {f"q{i}": float(rng.uniform(0, 1)) for i in range(n)}
            treat = {q: v + float(rng.normal(0.05, 0.1)) for q, v in base.items()}
            diffs = [treat[q] - base[q] for q in base]
            if np.var(diffs, ddof=1) == 0.0:
                continue
            t, p = paired_t_test(base, treat)
            qids = sorted(base)
            ref = scipy.stats.ttest_rel([treat[q] for q in qids],
                                        [base[q] for q in qids])
            assert t == pytest.approx(ref.statistic, rel=1e-10, abs=1e-12)
            assert p == pytest.approx(ref.pvalue, rel=1e-8, abs=1e-10)


def test_t_test_errors():
    with pytest.raises(ValueError, match="at least 2"):
        paired_t_test({"a": 0.1}, {"a": 0.2})
    base = {"a": 0.5, "b": 1.5}
    with pytest.raises(ValueError, match="all differences are zero"):
        paired_t_test(base, dict(base))
    with pytest.raises(ValueError, match="zero variance"):
        paired_t_test(base, {q: v + 0.25 for q, v in base.items()})
    with pytest.raises(ValueError, match="identical query sets"):
        paired_t_test(base, {"a": 0.1, "c": 0.3})


@pytest.mark.parametrize("n", range(2, 11))
def test_t_test_equal_differences_have_zero_variance(n):
    # the rounded mean of equal differences need not equal them, which would
    # leave a variance of rounding error and a huge t
    for base in (0.2, 0.1, 0.35, 0.7):
        for delta in (0.1, 0.05, 1 / 3, 1e-9, -0.15, -1 / 7):
            before = {f"q{i}": base for i in range(n)}
            after = {q: v + delta for q, v in before.items()}
            with pytest.raises(ValueError, match="zero variance"):
                paired_t_test(before, after)
            comp = Comparison(EvalResult(before, before), EvalResult(after, after))
            assert math.isnan(comp.t_statistic) and math.isnan(comp.p_value)
            assert not comp.significant
            assert comp.ri == (1.0 if after["q0"] > base else -1.0)


def test_student_t_cdf_matches_scipy():
    # every dof to 40 covers both parity branches of the finite sum
    for dof in [*range(1, 41), 250, 5000]:
        for t in (0.0, 1e-9, 0.3, 1.0, 1.96, 2.5, 5.0, 12.0, 15.0, math.inf):
            want = 2.0 * scipy.stats.t.sf(t, dof)
            for signed in (t, -t):
                got = student_t_two_tailed_p(signed, dof)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (signed, dof)
    assert student_t_two_tailed_p(0.0, 5) == pytest.approx(1.0)
    assert student_t_two_tailed_p(math.inf, 7) == 0.0
    with pytest.raises(ValueError, match="degrees of freedom"):
        student_t_two_tailed_p(1.0, 0)
    with pytest.raises(ValueError, match="NaN"):
        student_t_two_tailed_p(math.nan, 5)


def test_student_t_significance_decision_matches_scipy():
    rng = np.random.default_rng(23)
    for _ in range(2000):
        t = float(rng.normal(0.0, 3.0))
        dof = int(rng.integers(1, 301))
        want = 2.0 * scipy.stats.t.sf(abs(t), dof) < 0.05
        assert (student_t_two_tailed_p(t, dof) < 0.05) == want, (t, dof)


def test_evaluate_rankings():
    qrels = Qrels()
    qrels.add("q1", "d1", 1)
    qrels.add("q2", "d2", 2)
    res = evaluate_rankings(
        [_ranked("q1", ["d1", "d2"]), _ranked("q2", ["d1", "d2"])], qrels)
    assert res.per_query_ap == {"q1": 1.0, "q2": 0.5}
    assert res.map == 0.75
    assert res.p10 == pytest.approx(0.1)
    assert res.num_queries == 2
    with pytest.raises(ValueError, match="no rankings"):
        evaluate_rankings([], qrels)


def test_evaluate_rankings_rejects_a_repeated_query():
    qrels = _qrels("q1", ["d1"])
    qrels.add("q2", "d2", 1)
    rankings = [_ranked("q1", ["d1"]), _ranked("q2", ["d2"]), _ranked("q1", ["d2"])]
    with pytest.raises(ValueError, match="query q1: more than one ranking"):
        evaluate_rankings(rankings, qrels)


def test_a_repeated_document_is_rejected_within_the_depth():
    qrels = _qrels("q", ["d1"])
    ranked = _ranked("q", ["d1", "d2", "d1"])
    # counted twice, d1 would give AP (1/1 + 2/3) / 1 > 1
    with pytest.raises(ValueError, match="document 'd1' appears twice"):
        average_precision(ranked, qrels)
    with pytest.raises(ValueError, match="document 'd1' appears twice"):
        precision_at(ranked, qrels, 10)
    assert average_precision(ranked, qrels, depth=2) == 1.0
    assert precision_at(ranked, qrels, 2) == 0.5


def _repeats(doc_ids) -> bool:
    return len(set(doc_ids)) < len(doc_ids)


@st.composite
def _judged_rankings(draw):
    """Ranked lists over a small document pool (repeats and unjudged
    documents included) with qrels rows of grades -2..3, and a depth."""
    pool = [f"d{i}" for i in range(draw(st.integers(1, 12)))]
    qids = draw(st.lists(st.sampled_from([f"q{i}" for i in range(6)]),
                         min_size=1, max_size=6, unique=True))
    rows = [(q, doc_id, grade) for q in qids for doc_id, grade in draw(st.lists(
        st.tuples(st.sampled_from(pool), st.integers(-2, 3)), max_size=8))]
    # half the lists may repeat a document
    lists = {q: draw(st.lists(st.sampled_from(pool), max_size=15,
                              unique=draw(st.booleans()))) for q in qids}
    depth = draw(st.integers(1, 20))
    return lists, rows, depth


@settings(max_examples=300)
@given(_judged_rankings())
def test_metrics_match_the_oracles(case):
    lists, rows, depth = case
    qrels = Qrels()
    relevant = {q: set() for q in lists}
    for qid, doc_id, grade in rows:
        qrels.add(qid, doc_id, grade)
        if grade > 0:
            relevant[qid].add(doc_id)
    rankings = [_ranked(q, docs) for q, docs in lists.items()]
    aps = {}
    for ranked in rankings:
        q, top = ranked.query_id, ranked.doc_ids
        if _repeats(top[:depth]):
            with pytest.raises(ValueError, match="appears twice"):
                average_precision(ranked, qrels, depth)
        elif not relevant[q]:
            with pytest.raises(ValueError, match="no relevant"):
                average_precision(ranked, qrels, depth)
        else:
            aps[q] = average_precision(ranked, qrels, depth)
            assert aps[q] == ap_reference(top, relevant[q], depth)
            assert 0.0 <= aps[q] <= 1.0
        for cutoff in (depth, 10):
            if not _repeats(top[:cutoff]):
                p = precision_at(ranked, qrels, cutoff)
                assert p == p_at_reference(top, relevant[q], cutoff)
                assert 0.0 <= p <= 1.0
    if len(aps) < len(rankings) or any(_repeats(r.doc_ids[:10]) for r in rankings):
        with pytest.raises(ValueError):
            evaluate_rankings(rankings, qrels, depth)
    else:
        res = evaluate_rankings(rankings, qrels, depth)
        assert res.per_query_ap == aps
        assert res.map == sum(aps[r.query_id] for r in rankings) / len(rankings)
        assert 0.0 <= res.map <= 1.0 and 0.0 <= res.p10 <= 1.0
        assert res.num_queries == len(rankings)


@settings(max_examples=300)
@given(st.dictionaries(st.sampled_from([f"q{i}" for i in range(20)]),
                       st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                       min_size=1))
def test_robustness_index_matches_the_oracle(pairs):
    base = {q: b for q, (b, _) in pairs.items()}
    treat = {q: t for q, (_, t) in pairs.items()}
    ri = robustness_index(base, treat)
    assert ri == ri_reference([treat[q] - base[q] for q in pairs])
    assert -1.0 <= ri <= 1.0
    assert robustness_index(treat, base) == -ri


def test_comparison_significance():
    n = 12
    base = EvalResult({f"q{i}": 0.2 for i in range(n)},
                      {f"q{i}": 0.1 for i in range(n)})
    jitter = [0.09, 0.11, 0.10, 0.12, 0.08, 0.10, 0.11, 0.09, 0.10, 0.12, 0.11, 0.10]
    treat = EvalResult({f"q{i}": 0.2 + jitter[i] for i in range(n)},
                       {f"q{i}": 0.2 for i in range(n)})
    comp = Comparison(base, treat)
    assert comp.ri == 1.0
    assert comp.p_value < 1e-6
    assert comp.significant


def test_comparison_degenerate_is_nan():
    base = EvalResult({"a": 0.1, "b": 0.2}, {"a": 0.0, "b": 0.0})
    comp = Comparison(base, base)
    assert math.isnan(comp.t_statistic) and math.isnan(comp.p_value)
    assert not comp.significant
    assert comp.ri == 0.0
