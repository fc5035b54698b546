"""Rank metrics (AP, MAP, P@10), robustness index, and the paired t-test."""

import math
from dataclasses import dataclass, field

from qexp.collection import Qrels
from qexp.config import Config, check
from qexp.retrieval import RankedList


def _judged_top(ranked: RankedList, qrels: Qrels, depth: int) -> list[bool]:
    """Relevance of the top depth documents, which must all differ: a
    repeated document would count twice, and AP could pass 1."""
    top = [doc_id for doc_id, _ in ranked.entries[:depth]]
    if len(set(top)) < len(top):
        twice = next(d for i, d in enumerate(top) if d in top[:i])
        raise ValueError(f"query {ranked.query_id}: document {twice!r} "
                         f"appears twice in the ranking")
    return [qrels.is_relevant(ranked.query_id, doc_id) for doc_id in top]


def average_precision(ranked: RankedList, qrels: Qrels, depth: int = Config.depth) -> float:
    """AP of the ranked list's top depth entries; see ap_from_ranks."""
    check("depth", depth)
    return ap_from_ranks(ranked.query_id, [
        i for i, rel in enumerate(_judged_top(ranked, qrels, depth), start=1) if rel], qrels)


def ap_from_ranks(query_id: str, ranks, qrels: Qrels) -> float:
    """AP = (1/R) * sum over relevant retrieved ranks i of (hits at i / i).

    ranks are the ascending 1-based ranks of the relevant retrieved documents.
    R counts all judged-relevant documents for the query, retrieved or not.
    """
    r_total = qrels.num_relevant(query_id)
    if r_total == 0:
        raise ValueError(f"query {query_id}: no relevant documents, AP undefined")
    ap_sum = 0.0
    for hits, i in enumerate(ranks, start=1):
        ap_sum += hits / i
    return ap_sum / r_total


def precision_at(ranked: RankedList, qrels: Qrels, cutoff: int = 10) -> float:
    """Relevant count in the top cutoff, divided by cutoff even if fewer retrieved."""
    check("cutoff", cutoff, "depth")
    return sum(_judged_top(ranked, qrels, cutoff)) / cutoff


def robustness_index(baseline_aps: dict, treatment_aps: dict) -> float:
    """(N+ - N-) / |Q| over per-query AP differences; exact ties count in neither."""
    if set(baseline_aps) != set(treatment_aps):
        raise ValueError("robustness index needs identical query sets")
    if not baseline_aps:
        raise ValueError("robustness index of an empty query set is undefined")
    n_up = sum(1 for q in baseline_aps if treatment_aps[q] > baseline_aps[q])
    n_down = sum(1 for q in baseline_aps if treatment_aps[q] < baseline_aps[q])
    return (n_up - n_down) / len(baseline_aps)


def paired_t_test(baseline_aps: dict, treatment_aps: dict) -> tuple[float, float]:
    """Two-tailed paired t-test over per-query scores.

    Returns (t, p) with t = mean(d) / (s_d / sqrt(n)) for d = treatment - baseline
    and p from the Student-t distribution with n-1 degrees of freedom.
    """
    if set(baseline_aps) != set(treatment_aps):
        raise ValueError("paired t-test needs identical query sets")
    qids = sorted(baseline_aps)
    if len(qids) < 2:
        raise ValueError("paired t-test needs at least 2 queries")
    diffs = [treatment_aps[q] - baseline_aps[q] for q in qids]
    n = len(diffs)
    mean = sum(diffs) / n
    # Equal differences have zero variance; their rounded mean need not
    # equal them, and would give a variance of rounding error and a huge t.
    var = 0.0 if min(diffs) == max(diffs) else sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        if mean == 0.0:
            raise ValueError("all differences are zero, t undefined")
        raise ValueError("zero variance with nonzero mean difference, t undefined")
    t = mean / math.sqrt(var / n)
    p = student_t_two_tailed_p(t, n - 1)
    return t, p


def student_t_two_tailed_p(t: float, dof: int) -> float:
    """P(|T| >= |t|) for Student's t with an integer dof, as a finite sum.

    Abramowitz & Stegun 26.7.3 (odd dof) and 26.7.4 (even dof) give
    A = P(|T| < |t|) in theta = atan(|t| / sqrt(dof)) with dof // 2 terms;
    p = 1 - A, so a p-value below about 1e-15 keeps only its absolute accuracy.
    """
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    if math.isnan(t):
        raise ValueError("t is NaN, p undefined")
    odd = dof % 2
    theta = math.atan2(abs(t), math.sqrt(dof))
    c, s = math.cos(theta), math.sin(theta)
    # Even dof sums s * a_k * c^2k, odd dof s * b_k * c^(2k+1); in both, each
    # term is the last times c^2 * (2k - 1 + odd) / (2k + odd).
    term = s * c if odd else s
    total = 0.0
    for k in range(1, dof // 2 + 1):
        total += term
        term *= c * c * (2 * k - 1 + odd) / (2 * k + odd)
    a = 2.0 / math.pi * (theta + total) if odd else total
    return min(1.0, max(0.0, 1.0 - a))


@dataclass
class EvalResult:
    """Aggregated retrieval effectiveness for one method over a query set."""

    per_query_ap: dict[str, float]
    per_query_p10: dict[str, float]

    @property
    def map(self) -> float:
        return sum(self.per_query_ap.values()) / len(self.per_query_ap)

    @property
    def p10(self) -> float:
        return sum(self.per_query_p10.values()) / len(self.per_query_p10)

    @property
    def num_queries(self) -> int:
        return len(self.per_query_ap)


def evaluate_rankings(rankings, qrels: Qrels, depth: int = Config.depth) -> EvalResult:
    """Per-query AP and P@10 for a batch of ranked lists, one per query."""
    ap = {}
    p10 = {}
    for ranked in rankings:
        if ranked.query_id in ap:
            raise ValueError(f"query {ranked.query_id}: more than one ranking")
        ap[ranked.query_id] = average_precision(ranked, qrels, depth)
        p10[ranked.query_id] = precision_at(ranked, qrels, 10)
    if not ap:
        raise ValueError("no rankings to evaluate")
    return EvalResult(ap, p10)


@dataclass
class Comparison:
    """Treatment vs baseline: robustness index and paired-t significance."""

    baseline: EvalResult
    treatment: EvalResult
    ri: float = field(init=False)
    t_statistic: float = field(init=False)
    p_value: float = field(init=False)

    def __post_init__(self):
        self.ri = robustness_index(self.baseline.per_query_ap, self.treatment.per_query_ap)
        try:
            self.t_statistic, self.p_value = paired_t_test(
                self.baseline.per_query_ap, self.treatment.per_query_ap)
        except ValueError:
            # Degenerate difference vector: report no significance evidence.
            self.t_statistic = math.nan
            self.p_value = math.nan

    @property
    def significant(self) -> bool:
        return self.p_value == self.p_value and self.p_value < 0.05
