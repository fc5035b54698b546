"""Query likelihood retrieval with Dirichlet smoothing and TREC run files."""

import math
from dataclasses import dataclass, field

from qexp.collection import InvertedIndex, ParseError
from qexp.config import Config


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
    accumulated term at a time in sorted term order, reading each term's
    posting list once. Terms with zero collection probability contribute
    nothing. Documents without any query term tie below all matching
    documents at the depths used, so they are never candidates.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    terms = sorted(t for t, w in q.weights.items()
                   if w > 0.0 and idx.collection_prob(t) > 0.0)
    tfs = [dict(idx.postings[t]) for t in terms]
    scores = dict.fromkeys(set().union(*tfs), 0.0)
    for term, term_tfs in zip(terms, tfs):
        w = q.weights[term]
        smoothing = mu * idx.collection_prob(term)
        for doc_id in scores:
            scores[doc_id] += w * math.log(
                (term_tfs.get(doc_id, 0) + smoothing) / (idx.doc_lengths[doc_id] + mu))
    ranked = sorted(scores.items(), key=lambda e: (-e[1], e[0]))
    return RankedList(q.query_id, ranked[:depth])


def write_run(ranked_lists, path, tag: str = "qexp"):
    """Write ranked lists in the 6-column TREC run format.

    Scores are written with 6 decimal places; query order is preserved.
    """
    with open(path, "w") as f:
        for ranked in ranked_lists:
            for rank, (doc_id, score) in enumerate(ranked.entries, start=1):
                f.write(f"{ranked.query_id} Q0 {doc_id} {rank} {score:.6f} {tag}\n")


def read_run(path) -> list[RankedList]:
    """Read a TREC run file back into ranked lists.

    The rank column must agree with line order within each query.
    """
    lists: dict[str, RankedList] = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 6:
                raise ParseError(f"{path}:{lineno}: expected 6 columns, got {len(parts)}")
            qid, _, doc_id, rank_s, score_s, _ = parts
            try:
                rank = int(rank_s)
                score = float(score_s)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad rank or score") from None
            ranked = lists.setdefault(qid, RankedList(qid))
            if rank != len(ranked.entries) + 1:
                raise ParseError(
                    f"{path}:{lineno}: rank {rank} disagrees with position "
                    f"{len(ranked.entries) + 1}")
            ranked.entries.append((doc_id, score))
    return list(lists.values())
