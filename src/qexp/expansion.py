"""Expanded query models: centroid-similarity, multiplicative, and classifier
reweighted expansion, interpolated with the original query."""

import logging
import math
from dataclasses import dataclass

import numpy as np

from qexp.classifier.inference import ReferenceSet, p_good_batch
from qexp.classifier.network import SiameseModel
from qexp.collection import InvertedIndex, Topic
from qexp.config import Config, check
from qexp.embeddings import EmbeddingTable
from qexp.labeling import scored_candidate_pool
from qexp.retrieval import QueryModel

log = logging.getLogger(__name__)


@dataclass
class ExpansionConfig:
    m: int = Config.m
    alpha: float = Config.alpha
    beta: float = Config.beta
    pool_size: int = Config.pool_size

    def __post_init__(self):
        for key in ("m", "alpha", "beta", "pool_size"):
            check(key, getattr(self, key))


def interpolate(topic: Topic, expansion_weights: dict[str, float],
                beta: float) -> QueryModel:
    """beta * normalized original counts + (1 - beta) * expansion distribution.

    Exact zero weights are dropped so degenerate beta values reduce cleanly
    to one side.
    """
    counts = QueryModel.from_terms(topic.query_id, topic.title_terms).weights
    total = sum(counts.values())
    weights: dict[str, float] = {}
    for t in sorted(counts):
        w = beta * (counts[t] / total)
        if w != 0.0:
            weights[t] = w
    for t in sorted(expansion_weights):
        w = (1.0 - beta) * expansion_weights[t]
        if w != 0.0:
            weights[t] = weights.get(t, 0.0) + w
    return QueryModel(topic.query_id, weights)


def qlm_model(topic: Topic) -> QueryModel:
    """The unexpanded query: normalized title term counts."""
    return interpolate(topic, {}, beta=1.0)


def _centroid_selection(topic: Topic, pool, m: int) -> list[tuple[str, float]]:
    """Top-m pool terms by cosine to the query centroid.

    Non-positive cosines cannot serve as expansion weights and are dropped
    with a warning.
    """
    selected = pool[:m]
    kept = [(t, sim) for t, sim in selected if sim > 0.0]
    if len(kept) < len(selected):
        log.warning("query %s: dropped %d expansion terms with non-positive cosine",
                    topic.query_id, len(selected) - len(kept))
    return kept


def _multiplicative_selection(topic: Topic, pool, table: EmbeddingTable,
                              m: int) -> list[tuple[str, float]]:
    """Top-m pool terms by multiplicative similarity to the query terms.

    score(x) = prod over query terms w of softmax-normalized exp(cos(x, w)),
    the normalization running over the candidate pool for each query term.
    cos(x, w) is the dot of the table's unit rows, clipped to [-1, 1]. A
    query term with a zero vector has no direction and is skipped. A pool
    term with one has cosine 0 to every query term; scored_candidate_pool
    never returns such a term, but a hand-made pool may hold one.
    """
    pool_terms = [t for t, _ in pool]
    units = table._unit[[table._row[t] for t in pool_terms]]
    query_terms = [t for t in topic.title_terms if table.has_direction(t)]
    scores = [1.0] * len(pool_terms)
    for w in query_terms:
        # one dot per row, each np.dot's value bit for bit
        cosines = np.matmul(units[:, None, :], table._unit[table._row[w]]).ravel()
        sims = [math.exp(min(1.0, max(-1.0, c))) for c in cosines.tolist()]
        denom = sum(sims)
        scores = [score * (s / denom) for score, s in zip(scores, sims)]
    ranked = sorted(zip(pool_terms, scores), key=lambda e: (-e[1], e[0]))
    return ranked[:m]


def _normalize(weighted: list[tuple[str, float]]) -> dict[str, float]:
    total = sum(w for _, w in weighted)
    return {t: w / total for t, w in weighted}


def build_query_model(method: str, topic: Topic, pool, table: EmbeddingTable,
                      cfg: ExpansionConfig, model: SiameseModel | None = None,
                      refset: ReferenceSet | None = None, ref_reps=None) -> QueryModel:
    """The weighted query one method retrieves with, built from the topic's
    scored candidate pool.

    dec keeps awe's selection and weights each of its terms by
    (1 + alpha * P(good | query, term)) * cosine; without ref_reps it encodes
    the reference set once. An empty selection leaves the unexpanded query.
    """
    if method == "qlm":
        return qlm_model(topic)
    if method == "awe":
        selection = _centroid_selection(topic, pool, cfg.m)
    elif method == "eqe1":
        selection = _multiplicative_selection(topic, pool, table, cfg.m)
    elif method == "dec":
        selection = _centroid_selection(topic, pool, cfg.m)
        if selection:
            probs = p_good_batch(topic.title_terms, [t for t, _ in selection], model,
                                 refset, table, ref_reps)
            selection = [(term, (1.0 + cfg.alpha * prob) * sim)
                         for (term, sim), prob in zip(selection, probs)]
    else:
        raise ValueError(f"unknown method {method!r}")
    if not selection:
        log.warning("query %s: empty expansion selection, original query kept",
                    topic.query_id)
        return qlm_model(topic)
    return interpolate(topic, _normalize(selection), cfg.beta)


def awe_expand(topic: Topic, table: EmbeddingTable, idx: InvertedIndex,
               cfg: ExpansionConfig, stopwords=frozenset()) -> QueryModel:
    """Expansion terms weighted by their cosine to the query embedding centroid."""
    pool = scored_candidate_pool(topic, table, idx, cfg.pool_size, stopwords)
    return build_query_model("awe", topic, pool, table, cfg)


def eqe1_expand(topic: Topic, table: EmbeddingTable, idx: InvertedIndex,
                cfg: ExpansionConfig, stopwords=frozenset()) -> QueryModel:
    """Expansion terms scored by their multiplicative similarity to query terms."""
    pool = scored_candidate_pool(topic, table, idx, cfg.pool_size, stopwords)
    return build_query_model("eqe1", topic, pool, table, cfg)


def dec_expand(topic: Topic, table: EmbeddingTable, idx: InvertedIndex,
               model: SiameseModel, refset: ReferenceSet, cfg: ExpansionConfig,
               stopwords=frozenset(), ref_reps=None) -> QueryModel:
    """The centroid method's selection, reweighted by predicted term goodness."""
    pool = scored_candidate_pool(topic, table, idx, cfg.pool_size, stopwords)
    return build_query_model("dec", topic, pool, table, cfg, model, refset, ref_reps)
