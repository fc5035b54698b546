"""Per-candidate oracle labeling, kept as the bit-exact reference.

`qexp.labeling.label_terms` computes the title's share of every expanded
query once per topic and ranks only the title's and the candidate's
documents. Everything here is the straightforward version it must match bit
for bit: one full `retrieve` of the title and one of each expanded query, and
AP read back from the ranked list's doc ids.
"""

from qexp.labeling import label_for_delta
from qexp.retrieval import QueryModel, retrieve


def average_precision(ranked, qrels, depth):
    r_total = qrels.num_relevant(ranked.query_id)
    if r_total == 0:
        raise ValueError(f"query {ranked.query_id}: no relevant documents, AP undefined")
    hits = 0
    ap_sum = 0.0
    for i, (doc_id, _) in enumerate(ranked.entries[:depth], start=1):
        if qrels.is_relevant(ranked.query_id, doc_id):
            hits += 1
            ap_sum += hits / i
    return ap_sum / r_total


def baseline_ap(topic, idx, qrels, mu, depth):
    ranked = retrieve(QueryModel.from_terms(topic.query_id, topic.title_terms),
                      idx, mu, depth)
    return average_precision(ranked, qrels, depth)


def label_term(topic, term, idx, qrels, mu, eps, depth):
    base_ap = baseline_ap(topic, idx, qrels, mu, depth)
    expanded = QueryModel.from_terms(topic.query_id, [*topic.title_terms, term])
    ap = average_precision(retrieve(expanded, idx, mu, depth), qrels, depth)
    delta = ap - base_ap
    return label_for_delta(delta, eps), delta
