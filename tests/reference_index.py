"""The per-posting index builder, kept as the byte-exact reference.

`qexp.collection.build_index` maps every token to its term's rank in the
sorted vocabulary, sorts those ids once and reads each posting off a run of
equal (term, doc) neighbours. Everything here is the straightforward version
it must match, index file byte for byte: a `Counter` per document and one
`dict.setdefault` per posting.
"""

from collections import Counter

import numpy as np

from qexp.collection import Document, InvertedIndex


def build_index(docs: list[Document]) -> InvertedIndex:
    doc_ids = [doc.doc_id for doc in docs]
    if len(set(doc_ids)) < len(doc_ids):
        raise ValueError(f"duplicate doc_id {Counter(doc_ids).most_common(1)[0][0]!r}")
    accum: dict[str, list[int]] = {}
    for i, doc in enumerate(docs):
        for term, tf in Counter(doc.terms).items():
            accum.setdefault(term, []).extend((i, tf))
    terms = sorted(accum)
    offsets = np.concatenate(([0], np.cumsum([len(accum[t]) // 2 for t in terms],
                                             dtype=np.int64)))
    pairs = np.array([x for t in terms for x in accum[t]], np.uint32).reshape(-1, 2)
    return InvertedIndex(terms, offsets, pairs[:, 0], pairs[:, 1], doc_ids,
                         np.array([doc.length for doc in docs], np.uint64))
