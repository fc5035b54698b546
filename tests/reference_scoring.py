"""The per-term dec weighting, kept as the reference.

`qexp.expansion.build_query_model` encodes a topic's dec selection in one
`encode_batch` call and judges all of its comparisons in one `compare_probs`
call. Everything here is the straightforward version: one `encode` per
reference item and per selected term, and one `compare_probs` per term. dec's
representations may differ from it in the last bits (rtol 1e-12), so its
judgments, thresholded at 0.5, must match.
"""

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
