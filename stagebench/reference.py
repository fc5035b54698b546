"""Reference computations the benchmark checks the program's outputs against.

They work from the generator's raw token lists with plain formulas and share
no code with the package under test.
"""

import math
from collections import Counter


class Corpus:
    """Term and document counts of raw token lists."""

    def __init__(self, docs: dict):
        self.tf = {doc_id: Counter(toks) for doc_id, toks in docs.items()}
        self.length = {doc_id: len(toks) for doc_id, toks in docs.items()}
        self.cf = Counter()
        self.docs_of: dict[str, set] = {}
        for doc_id, counts in self.tf.items():
            self.cf.update(counts)
            for term in counts:
                self.docs_of.setdefault(term, set()).add(doc_id)
        self.total = sum(self.length.values())

    @property
    def postings(self) -> int:
        return sum(len(c) for c in self.tf.values())

    def matching_docs(self, weights: dict) -> set:
        """Documents holding at least one positive-weight query term."""
        out = set()
        for term, w in weights.items():
            if w > 0.0:
                out |= self.docs_of.get(term, set())
        return out

    def rank(self, weights: dict, mu: float, depth: int) -> list:
        """Brute-force Dirichlet query likelihood over every matching document.

        Terms are summed in sorted order with math.log, ties broken by
        ascending doc id.
        """
        terms = [t for t in sorted(weights) if weights[t] != 0.0 and self.cf[t] > 0]
        scored = []
        for doc_id in self.matching_docs(weights):
            counts = self.tf[doc_id]
            dlen = self.length[doc_id]
            score = 0.0
            for t in terms:
                p_c = self.cf[t] / self.total
                score += weights[t] * math.log((counts[t] + mu * p_c) / (dlen + mu))
            scored.append((doc_id, score))
        scored.sort(key=lambda e: (-e[1], e[0]))
        return scored[:depth]


def average_precision(ranked_ids, relevant: set, depth: int) -> float:
    """Sum of precision at each relevant rank within depth, over all relevant."""
    hits = 0
    total = 0.0
    for i, doc_id in enumerate(ranked_ids[:depth], start=1):
        if doc_id in relevant:
            hits += 1
            total += hits / i
    return total / len(relevant)


def precision_at_10(ranked_ids, relevant: set) -> float:
    return sum(1 for d in ranked_ids[:10] if d in relevant) / 10


def label_of(delta: float, eps: float) -> str:
    if delta > eps:
        return "good"
    if delta < -eps:
        return "bad"
    return "neutral"
