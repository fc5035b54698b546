"""Query likelihood retrieval with Dirichlet smoothing and TREC run files."""

import math
from dataclasses import dataclass, field

import numpy as np

from qexp.collection import InvertedIndex, write_file
from qexp.config import Config, check


@dataclass
class QueryModel:
    """Weighted term distribution; the output of every expansion method.

    Weights are non-negative and need not sum to one.
    """

    query_id: str
    weights: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for term, w in self.weights.items():
            if w < 0:
                raise ValueError(f"query {self.query_id}: negative weight for {term!r}")
        if not any(w > 0 for w in self.weights.values()):
            raise ValueError(f"query {self.query_id}: no positive term weight")

    @classmethod
    def from_terms(cls, query_id: str, terms) -> "QueryModel":
        """Build from a token list; weights are term counts."""
        weights: dict[str, float] = {}
        for t in terms:
            weights[t] = weights.get(t, 0.0) + 1.0
        return cls(query_id, weights)


@dataclass
class RankedList:
    """Documents ordered by descending score, ties broken by ascending doc_id."""

    query_id: str
    entries: list[tuple[str, float]] = field(default_factory=list)

    @property
    def doc_ids(self) -> list[str]:
        return [doc_id for doc_id, _ in self.entries]

    def __len__(self):
        return len(self.entries)


def retrieve(q: QueryModel, idx: InvertedIndex, mu: float = Config.mu,
             depth: int = Config.depth) -> RankedList:
    """Rank every document sharing a query term by Dirichlet-smoothed query likelihood.

    score(d) = sum_w weight(w) * log((tf(w,d) + mu*p(w|C)) / (|d| + mu)),
    added term at a time in sorted term order, each term's summand from
    term_scores. Terms with zero collection probability contribute nothing.
    Documents without any query term tie below all matching documents at the
    depths used, so they are never candidates.
    """
    check("mu", mu)
    check("depth", depth)
    terms = sorted(t for t, w in q.weights.items()
                   if w > 0.0 and idx.collection_prob(t) > 0.0)
    if not terms:
        return RankedList(q.query_id)
    docs = np.unique(np.concatenate([idx.postings(t)[0] for t in terms]))
    lengths, length_of = np.unique(idx.doc_len[docs] + mu, return_inverse=True)
    scores = np.zeros(len(docs))
    for term in terms:
        scores += term_scores(idx, term, q.weights[term], mu, docs, lengths, length_of)
    top = np.lexsort((idx.doc_rank[docs], -scores))[:depth]
    return RankedList(q.query_id, list(zip([idx.doc_ids[i] for i in docs[top].tolist()],
                                           scores[top].tolist())))


def term_scores(idx: InvertedIndex, term: str, weight: float, mu: float,
                docs: np.ndarray, lengths: np.ndarray, length_of: np.ndarray) -> np.ndarray:
    """weight * log((tf(term,d) + mu*p(term|C)) / (|d| + mu)) for each d of docs
    (ascending, holding every posting of the term; |d| + mu is lengths[length_of]).

    One posting list plus one ratio per distinct length; math.log runs once per
    distinct ratio, as np.log may differ from it in the last bit.
    """
    doc_index, term_tf = idx.postings(term)
    at = np.searchsorted(docs, doc_index)
    smoothed = mu * idx.collection_prob(term)
    ratios = np.concatenate((smoothed / lengths,
                             (term_tf + smoothed) / lengths[length_of[at]])).tolist()
    log_of = {r: math.log(r) for r in set(ratios)}
    logs = weight * np.array([log_of[r] for r in ratios])
    scores = logs[:len(lengths)][length_of]
    scores[at] = logs[len(lengths):]
    return scores


def write_run(ranked_lists, path, tag: str = "qexp"):
    """Write ranked lists in the 6-column TREC run format.

    Scores are written with 6 decimal places; query order is preserved.
    """
    write_file(path, "".join(
        f"{ranked.query_id} Q0 {doc_id} {rank} {score:.6f} {tag}\n"
        for ranked in ranked_lists
        for rank, (doc_id, score) in enumerate(ranked.entries, start=1)))
