"""Metrics and significance testing against hand values and scipy."""

import math

import numpy as np
import pytest
import scipy.stats

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

from oracles import ap_reference, p_at_reference


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
