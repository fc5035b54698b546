"""The sort-based candidate pool and multiplicative selection, kept as the
bit-exact reference.

`qexp.embeddings.top_k_neighbors` orders the table with one array sort and
walks it only until k entries are out; `qexp.expansion._multiplicative_selection`
takes each vector's norm once. Everything here is the straightforward version
those must match bit for bit: a Python tuple per table term sorted by
(-cosine, term), the pool filtered to index terms after the full scan, and
`cosine` for every (candidate, query term) pair.
"""

import math

import numpy as np

from qexp.embeddings import centroid


def cosine(a, b) -> float:
    """Cosine similarity, clipped to [-1, 1]; zero vectors are an error."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"vector lengths differ: {a.shape} vs {b.shape}")
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine of a zero vector is undefined")
    return min(1.0, max(-1.0, float(np.dot(a, b)) / (na * nb)))


def top_k_neighbors(v, k, table, exclude=frozenset()):
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    v = np.asarray(v, dtype=np.float64)
    nv = math.sqrt(float(np.dot(v, v)))
    if nv == 0.0:
        raise ValueError("cannot search neighbors of a zero vector")
    sims = table._unit @ (v / nv)
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
        wv = table.vector(w)
        sims = [math.exp(cosine(table.vector(t), wv)) for t in pool_terms]
        denom = sum(sims)
        for t, s in zip(pool_terms, sims):
            scores[t] *= s / denom
    ranked = sorted(scores.items(), key=lambda e: (-e[1], e[0]))
    return ranked[:m]
