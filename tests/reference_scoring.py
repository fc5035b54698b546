"""The per-term dec weighting and the per-pair multiplicative selection, kept
as references.

`qexp.expansion.build_query_model` encodes a topic's dec selection in one
`encode_batch` call and judges all of its comparisons in one `compare_probs`
call; `_multiplicative_selection` takes each query term's dot products as one
stacked matmul. Everything here is the straightforward version: one `encode`
per reference item and per selected term, one `compare_probs` per term, and
one `np.dot` per (candidate, query term) pair, or of the table's unit rows
when either norm overflowed or is subnormal. The multiplicative selection
must match it bit for bit. dec's representations may differ from it in the
last bits (rtol 1e-12), so its judgments, thresholded at 0.5, must match.
"""

import math

import numpy as np

from qexp.classifier.inference import p_good_from_outcomes
from qexp.classifier.network import judged_same
from qexp.classifier.training import example_sequence


def encode_reference_set(model, refset, table):
    return np.stack([model.encode(example_sequence(table, q_terms, cand))
                     for q_terms, cand, _ in refset.items])


def p_good(query_terms, candidate, model, refset, table, ref_reps):
    if candidate not in table:
        return 0.0
    rep = model.encode(example_sequence(table, query_terms, candidate))
    tiled = np.tile(rep, (len(refset), 1))
    same_flags = judged_same(model.compare_probs(tiled, ref_reps))
    return p_good_from_outcomes(same_flags, refset.labels())


def dec_selection(topic, selection, model, refset, table, alpha, ref_reps=None):
    """awe's selection [(term, cosine)] reweighted by (1 + alpha * P(good)) one
    term at a time; without ref_reps the reference set is encoded once."""
    if selection and ref_reps is None:
        ref_reps = encode_reference_set(model, refset, table)
    out = []
    for term, sim in selection:
        prob = p_good(topic.title_terms, term, model, refset, table, ref_reps)
        out.append((term, (1.0 + alpha * prob) * sim))
    return out


def _abnormal(norm):
    """A norm whose square overflowed or is subnormal: the table's rule."""
    return math.isinf(norm) or norm < math.sqrt(np.finfo(np.float64).smallest_normal)


def multiplicative_selection(topic, pool, table, m):
    pool_terms = [t for t, _ in pool]
    vectors = [table.vector(t) for t in pool_terms]
    norms = [math.sqrt(float(np.dot(a, a))) for a in vectors]
    query_terms = [t for t in topic.title_terms if table.has_direction(t)]
    scores = [1.0] * len(pool_terms)
    for w in query_terms:
        wv = table.vector(w)
        nw = math.sqrt(float(np.dot(wv, wv)))
        sims = []
        for t, a, na in zip(pool_terms, vectors, norms):
            if table.has_direction(t) and (_abnormal(na) or _abnormal(nw)):
                cosine = float(np.dot(table._unit[table._row[t]], table._unit[table._row[w]]))
            else:
                cosine = float(np.dot(a, wv)) / (na * nw)
            sims.append(math.exp(min(1.0, max(-1.0, cosine))))
        denom = sum(sims)
        scores = [score * (s / denom) for score, s in zip(scores, sims)]
    ranked = sorted(zip(pool_terms, scores), key=lambda e: (-e[1], e[0]))
    return ranked[:m]
