"""Oracle labeling of candidate expansion terms by their effect on AP.

A candidate is good for a query when adding it (weight 1, alongside the
original title terms) raises the query's average precision, bad when it
lowers it, and neutral when the change stays within the threshold eps.
"""

import bisect
import enum
import itertools
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qexp.collection import InvertedIndex, ParseError, Qrels, Topic, text_lines, write_file
from qexp.config import Config, check
from qexp.embeddings import EmbeddingTable, centroid, top_k_neighbors
from qexp.evaluation import ap_from_ranks, average_precision
from qexp.parallel import fan_out
from qexp.retrieval import QueryModel, doc_union, retrieve, term_scores

log = logging.getLogger(__name__)


class Label(enum.Enum):
    GOOD = "good"
    NEUTRAL = "neutral"
    BAD = "bad"


def label_for_delta(ap_delta: float, eps: float) -> Label:
    if ap_delta > eps:
        return Label.GOOD
    if ap_delta < -eps:
        return Label.BAD
    return Label.NEUTRAL


@dataclass
class LabeledExample:
    query_id: str
    query_terms: list[str]
    candidate_term: str
    label: Label
    ap_delta: float


@dataclass
class LabeledDataset:
    examples: list[LabeledExample]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for ex in self.examples:
            key = (ex.query_id, ex.candidate_term)
            if key in seen:
                raise ValueError(f"duplicate labeled example {key}")
            seen.add(key)

    def __len__(self):
        return len(self.examples)

    def class_counts(self) -> dict[Label, int]:
        counts = {label: 0 for label in Label}
        for ex in self.examples:
            counts[ex.label] += 1
        return counts

    def good_terms(self, query_id: str) -> list[str]:
        return [ex.candidate_term for ex in self.examples
                if ex.query_id == query_id and ex.label is Label.GOOD]

    def for_queries(self, query_ids) -> "LabeledDataset":
        keep = set(query_ids)
        return LabeledDataset(
            [ex for ex in self.examples if ex.query_id in keep], dict(self.metadata))

    def save_tsv(self, path):
        """One header line of JSON metadata, then query_id/term/label/ap_delta rows."""
        meta = dict(self.metadata)
        meta["queries"] = {
            qid: terms for qid, terms in sorted(
                {ex.query_id: ex.query_terms for ex in self.examples}.items())
        }
        write_file(path, "# " + json.dumps(meta, sort_keys=True) + "\n" + "".join(
            f"{ex.query_id}\t{ex.candidate_term}\t{ex.label.value}\t{ex.ap_delta!r}\n"
            for ex in self.examples))

    @classmethod
    def load_tsv(cls, path) -> "LabeledDataset":
        """Read what save_tsv writes; a malformed line raises ParseError naming it."""
        path = Path(path)
        lines = text_lines(path)
        _, header = next(lines, (1, ""))
        if not header.startswith("#"):
            raise ParseError(f"{path}:1: missing metadata header line")
        try:
            meta = json.loads(header[1:])
        except (ValueError, RecursionError) as exc:  # a decode error, or too deeply nested
            raise ParseError(f"{path}:1: bad JSON in metadata header ({exc})") from None
        if not isinstance(meta, dict):
            raise ParseError(f"{path}:1: metadata header is not a JSON object")
        queries = meta.pop("queries", {})
        eps = meta.get("eps", Config.eps)
        if type(eps) not in (int, float):
            raise ParseError(f"{path}:1: eps {eps!r} is not a number")
        check(f"{path}:1: eps", eps, "eps", ParseError)
        if not isinstance(queries, dict):
            raise ParseError(f"{path}:1: queries must map query ids to term lists")
        for qid, terms in queries.items():
            if not (isinstance(terms, list) and terms
                    and all(isinstance(t, str) and t for t in terms)):
                raise ParseError(f"{path}:1: query {qid} needs a non-empty list of "
                                 f"non-empty term strings")
        examples = []
        seen = set()
        for lineno, line in lines:
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 4:
                raise ParseError(f"{where}: expected 4 columns, got {len(parts)}")
            qid, term, label_s, delta_s = parts
            if not term:
                raise ParseError(f"{where}: empty candidate term")
            try:
                label = Label(label_s)
            except ValueError:
                raise ParseError(f"{where}: unknown label {label_s!r}") from None
            try:
                delta = float(delta_s)
            except ValueError:
                raise ParseError(f"{where}: ap_delta {delta_s!r} is not a number") from None
            if not -1.0 <= delta <= 1.0:  # an AP change; also rejects nan
                raise ParseError(f"{where}: ap_delta {delta_s!r} is outside [-1, 1]")
            if label is not label_for_delta(delta, eps):
                raise ParseError(f"{where}: label {label_s} inconsistent with "
                                 f"ap_delta {delta} at eps {eps}")
            if qid not in queries:
                raise ParseError(f"{where}: query {qid} missing from header")
            if (qid, term) in seen:
                raise ParseError(f"{where}: duplicate row for query {qid} term {term!r}")
            seen.add((qid, term))
            examples.append(LabeledExample(qid, list(queries[qid]), term, label, delta))
        return cls(examples, meta)


def scored_candidate_pool(topic: Topic, table: EmbeddingTable, idx: InvertedIndex,
                          pool_size: int = Config.pool_size,
                          stopwords=frozenset()) -> list[tuple[str, float]]:
    """Nearest index terms to the query centroid with their cosines, descending.

    Query terms and stopwords are excluded; terms absent from the index
    cannot change any ranking, so they are filtered out as well. A query
    with no title term in the embedding vocabulary, or only zero vectors for
    its title terms, has no centroid direction and an empty pool.
    """
    check("pool_size", pool_size)
    if not any(table.has_direction(t) for t in topic.title_terms):
        log.warning("query %s: no title term in the embedding vocabulary, "
                    "empty candidate pool", topic.query_id)
        return []
    center = centroid(topic.title_terms, table)
    exclude = set(topic.title_terms) | set(stopwords)
    return top_k_neighbors(center, pool_size, table, exclude=exclude, within=idx)


def label_terms(topic: Topic, terms, idx: InvertedIndex, qrels: Qrels,
                mu: float = Config.mu, eps: float = Config.eps,
                depth: int = Config.depth) -> tuple[float, list[tuple[Label, float]]]:
    """The title's AP, and each candidate's label and AP change when it is
    added to the title with weight 1, bit-identical to retrieve and
    average_precision per query. Title summands over the documents of the title
    and all candidates, their running sums in sorted term order and the
    relevance mask are computed once; a candidate adds its summand at its
    sorted slot and ranks only the title's and its own documents.
    """
    check("mu", mu)
    check("depth", depth)
    weights = QueryModel.from_terms(topic.query_id, topic.title_terms).weights
    title = sorted(t for t in weights if idx.collection_prob(t) > 0.0)
    union = doc_union(idx, [*title, *terms], mu)
    docs = union[0]
    in_title = np.zeros(len(docs), dtype=bool)
    for t in title:
        in_title[np.searchsorted(docs, idx.postings(t)[0])] = True
    summands = [term_scores(idx, t, weights[t], mu, union) for t in title]
    prefix = list(itertools.accumulate(summands, initial=np.zeros(len(docs))))
    relevant = np.array([qrels.is_relevant(topic.query_id, idx.doc_ids[d])
                         for d in docs.tolist()], dtype=bool)
    # positions in docs by doc id, so a stable sort on score breaks ties as retrieve
    by_rank = np.argsort(idx.doc_rank[docs])
    aps = []
    for term in [None, *terms]:  # None: the title alone
        slot = len(title) if term is None else bisect.bisect_left(title, term)
        in_query = in_title.copy()
        added = []
        if term is not None and idx.collection_prob(term) > 0.0:
            in_query[np.searchsorted(docs, idx.postings(term)[0])] = True
            added = [term_scores(idx, term, weights.get(term, 0.0) + 1.0, mu, union)]
        rows = by_rank[in_query[by_rank]]
        scores = prefix[slot][rows]
        for summand in added + summands[slot + (title[slot:slot + 1] == [term]):]:
            scores += summand[rows]
        top = rows[np.argsort(-scores, kind="stable")[:depth]]
        aps.append(ap_from_ranks(topic.query_id,
                                 (np.flatnonzero(relevant[top]) + 1).tolist(), qrels))
    deltas = [ap - aps[0] for ap in aps[1:]]
    return aps[0], [(label_for_delta(delta, eps), delta) for delta in deltas]


def baseline_ap(topic: Topic, idx: InvertedIndex, qrels: Qrels,
                mu: float = Config.mu, depth: int = Config.depth) -> float:
    return label_terms(topic, [], idx, qrels, mu, depth=depth)[0]


def label_term(topic: Topic, term: str, idx: InvertedIndex, qrels: Qrels,
               mu: float = Config.mu, eps: float = Config.eps,
               depth: int = Config.depth) -> tuple[Label, float]:
    """Label one candidate by the AP change of the expanded query."""
    return label_terms(topic, [term], idx, qrels, mu, eps, depth)[1][0]


def build_dataset(topics, idx: InvertedIndex, qrels: Qrels, table: EmbeddingTable,
                  pool_size: int = Config.pool_size, eps: float = Config.eps,
                  mu: float = Config.mu, depth: int = Config.depth,
                  stopwords=frozenset(), workers: int = Config.workers) -> LabeledDataset:
    """Label every (query, pool candidate) pair; deterministic order.

    Queries without relevant documents are skipped with a warning. Queries
    are independent, so labeling fans out across workers (0: one per usable
    CPU); results merge in topic order regardless of worker count.
    """
    check("eps", eps)
    usable = []
    for topic in topics:
        if qrels.num_relevant(topic.query_id) == 0:
            log.warning("query %s: no relevant documents in qrels, skipped",
                        topic.query_id)
            continue
        usable.append(topic)

    stopwords = frozenset(stopwords)

    def label_topic(topic: Topic) -> list[LabeledExample]:
        terms = [t for t, _ in scored_candidate_pool(topic, table, idx, pool_size, stopwords)]
        _, labels = label_terms(topic, terms, idx, qrels, mu, eps, depth)
        return [LabeledExample(topic.query_id, topic.title_terms, term, label, delta)
                for term, (label, delta) in zip(terms, labels)]

    per_query = fan_out(label_topic, usable, workers)
    examples = [ex for batch in per_query for ex in batch]
    metadata = {
        "eps": eps,
        "mu": mu,
        "depth": depth,
        "pool_size": pool_size,
        "num_queries": len(usable),
    }
    return LabeledDataset(examples, metadata)


def oracle_run(dataset: LabeledDataset, topics, idx: InvertedIndex, qrels: Qrels,
               mu: float = Config.mu, depth: int = Config.depth) -> tuple[dict, float]:
    """Expand each query with all its good-labeled terms and evaluate AP.

    Returns (per-query AP map, MAP) over the dataset's queries.
    """
    labeled_qids = {ex.query_id for ex in dataset.examples}
    per_query = {}
    for topic in topics:
        if topic.query_id not in labeled_qids:
            continue
        model = QueryModel.from_terms(
            topic.query_id, [*topic.title_terms, *dataset.good_terms(topic.query_id)])
        ranked = retrieve(model, idx, mu, depth)
        per_query[topic.query_id] = average_precision(ranked, qrels, depth)
    if not per_query:
        raise ValueError("oracle run: dataset covers none of the given topics")
    return per_query, sum(per_query.values()) / len(per_query)


def dataset_statistics(dataset: LabeledDataset, topics, idx: InvertedIndex,
                       qrels: Qrels, mu: float = Config.mu,
                       depth: int = Config.depth) -> dict:
    """Class ratio and oracle-vs-baseline summary for a labeled dataset."""
    counts = dataset.class_counts()
    total = len(dataset)
    labeled_qids = {ex.query_id for ex in dataset.examples}
    base_aps = {
        t.query_id: baseline_ap(t, idx, qrels, mu, depth)
        for t in topics if t.query_id in labeled_qids
    }
    oracle_map = (oracle_run(dataset, topics, idx, qrels, mu, depth)[1]
                  if labeled_qids else 0.0)
    return {
        "num_examples": total,
        "num_queries": len(labeled_qids),
        "good_pct": 100.0 * counts[Label.GOOD] / total if total else 0.0,
        "neutral_pct": 100.0 * counts[Label.NEUTRAL] / total if total else 0.0,
        "bad_pct": 100.0 * counts[Label.BAD] / total if total else 0.0,
        "qlm_map": sum(base_aps.values()) / len(base_aps) if base_aps else 0.0,
        "oracle_map": oracle_map,
    }


def format_statistics(stats: dict) -> str:
    return (
        f"examples: {stats['num_examples']} over {stats['num_queries']} queries\n"
        f"good:    {stats['good_pct']:6.1f} %\n"
        f"neutral: {stats['neutral_pct']:6.1f} %\n"
        f"bad:     {stats['bad_pct']:6.1f} %\n"
        f"QLM MAP:    {stats['qlm_map']:.4f}\n"
        f"oracle MAP: {stats['oracle_map']:.4f}\n"
    )
