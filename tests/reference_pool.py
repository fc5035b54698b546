"""The sort-based candidate pool and the per-pair multiplicative selection,
kept as the bit-exact references.

`qexp.embeddings.top_k_neighbors` orders the table with one array sort and
walks it only until k entries are out; `qexp.expansion._multiplicative_selection`
takes each query term's dot products with the pool as one stacked matmul.
Everything here is the straightforward version those must match bit for bit:
a Python tuple per table term sorted by (-cosine, term), the pool filtered to
index terms after the full scan, and one `np.dot` of two `unit` vectors per
(candidate, query term) pair. `unit` is a copy of the table's direction rule,
written apart from `qexp.embeddings._unit_rows`.
"""

import math

import numpy as np

from qexp.embeddings import centroid

_NORMAL_NORM = math.sqrt(np.finfo(np.float64).smallest_normal)


def unit(v):
    """v over sqrt(np.add.reduce(v * v)); a zero v stays zero. When that norm
    overflowed or is subnormal, v is first divided by its max-abs component."""
    v = np.asarray(v, dtype=np.float64)
    if not v.any():
        return v.copy()
    with np.errstate(over="ignore"):
        norm = math.sqrt(np.add.reduce(v * v))
    if math.isinf(norm) or norm < _NORMAL_NORM:
        v = v / np.abs(v).max()
        norm = math.sqrt(np.add.reduce(v * v))
    return v / norm


def cosine(a, b) -> float:
    """Cosine similarity, clipped to [-1, 1]; zero vectors are an error."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"vector lengths differ: {a.shape} vs {b.shape}")
    if not (a.any() and b.any()):
        raise ValueError("cosine of a zero vector is undefined")
    return min(1.0, max(-1.0, float(np.dot(unit(a), unit(b)))))


def top_k_neighbors(v, k, table, exclude=frozenset()):
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    v = np.asarray(v, dtype=np.float64)
    if not v.any():
        raise ValueError("cannot search neighbors of a zero vector")
    sims = table._unit @ unit(v)
    np.clip(sims, -1.0, 1.0, out=sims)
    scored = [
        (term, float(sims[i]))
        for i, term in enumerate(table.terms)
        if term not in exclude and not table._zero_rows[i]
    ]
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:k]


def scored_candidate_pool(topic, table, idx, pool_size, stopwords=frozenset()):
    if not any(table.has_direction(t) for t in topic.title_terms):
        return []
    center = centroid(topic.title_terms, table)
    exclude = set(topic.title_terms) | set(stopwords)
    neighbors = top_k_neighbors(center, len(table), table, exclude=exclude)
    pool = [(term, sim) for term, sim in neighbors if term in idx]
    return pool[:pool_size]


def multiplicative_selection(topic, pool, table, m):
    pool_terms = [t for t, _ in pool]
    query_terms = [t for t in topic.title_terms if table.has_direction(t)]
    scores = {t: 1.0 for t in pool_terms}
    for w in query_terms:
        uw = unit(table.vector(w))
        sims = [math.exp(min(1.0, max(-1.0, float(np.dot(unit(table.vector(t)), uw)))))
                for t in pool_terms]
        denom = sum(sims)
        for t, s in zip(pool_terms, sims):
            scores[t] *= s / denom
    ranked = sorted(scores.items(), key=lambda e: (-e[1], e[0]))
    return ranked[:m]
