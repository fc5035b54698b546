"""Oracle labeling of candidate expansion terms by their effect on AP.

A candidate is good for a query when adding it (weight 1, alongside the
original title terms) raises the query's average precision, bad when it
lowers it, and neutral when the change stays within the threshold eps.
"""

import enum
import json
import logging
import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path

from qexp.collection import InvertedIndex, ParseError, Qrels, Topic, text_lines, write_file
from qexp.config import Config, check
from qexp.embeddings import EmbeddingTable, centroid, top_k_neighbors
from qexp.evaluation import average_precision
from qexp.retrieval import QueryModel, retrieve

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
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:1: bad JSON in metadata header ({exc})") from None
        if not isinstance(meta, dict):
            raise ParseError(f"{path}:1: metadata header is not a JSON object")
        queries = meta.pop("queries", {})
        eps = meta.get("eps", Config.eps)
        if type(eps) not in (int, float):
            raise ParseError(f"{path}:1: eps {eps!r} is not a number")
        check(f"{path}:1: eps", eps, "eps", ParseError)
        if not isinstance(queries, dict) or not all(
                isinstance(terms, list) for terms in queries.values()):
            raise ParseError(f"{path}:1: queries must map query ids to term lists")
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
            try:
                label = Label(label_s)
            except ValueError:
                raise ParseError(f"{where}: unknown label {label_s!r}") from None
            try:
                delta = float(delta_s)
            except ValueError:
                raise ParseError(f"{where}: ap_delta {delta_s!r} is not a number") from None
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


def baseline_ap(topic: Topic, idx: InvertedIndex, qrels: Qrels,
                mu: float = Config.mu, depth: int = Config.depth) -> float:
    ranked = retrieve(QueryModel.from_terms(topic.query_id, topic.title_terms),
                      idx, mu, depth)
    return average_precision(ranked, qrels, depth)


def label_term(topic: Topic, term: str, idx: InvertedIndex, qrels: Qrels,
               mu: float = Config.mu, eps: float = Config.eps,
               base_ap: float | None = None,
               depth: int = Config.depth) -> tuple[Label, float]:
    """Label one candidate by the AP change of the expanded query."""
    if base_ap is None:
        base_ap = baseline_ap(topic, idx, qrels, mu, depth)
    expanded = QueryModel.from_terms(topic.query_id, [*topic.title_terms, term])
    ranked = retrieve(expanded, idx, mu, depth)
    ap = average_precision(ranked, qrels, depth)
    delta = ap - base_ap
    return label_for_delta(delta, eps), delta


_WORKER_CTX = None


def _init_worker(ctx):
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _label_query(topic: Topic) -> list[LabeledExample]:
    idx, qrels, table, pool_size, eps, mu, depth, stopwords = _WORKER_CTX
    base = baseline_ap(topic, idx, qrels, mu, depth)
    examples = []
    for term, _ in scored_candidate_pool(topic, table, idx, pool_size, stopwords):
        label, delta = label_term(topic, term, idx, qrels, mu, eps, base, depth)
        examples.append(LabeledExample(topic.query_id, topic.title_terms, term,
                                       label, delta))
    return examples


def build_dataset(topics, idx: InvertedIndex, qrels: Qrels, table: EmbeddingTable,
                  pool_size: int = Config.pool_size, eps: float = Config.eps,
                  mu: float = Config.mu, depth: int = Config.depth,
                  stopwords=frozenset(), workers: int = 1) -> LabeledDataset:
    """Label every (query, pool candidate) pair; deterministic order.

    Queries without relevant documents are skipped with a warning. Queries
    are independent, so labeling fans out across workers; results merge in
    topic order regardless of worker count.
    """
    check("eps", eps)
    usable = []
    for topic in topics:
        if qrels.num_relevant(topic.query_id) == 0:
            log.warning("query %s: no relevant documents in qrels, skipped",
                        topic.query_id)
            continue
        usable.append(topic)

    ctx = (idx, qrels, table, pool_size, eps, mu, depth, frozenset(stopwords))
    if workers > 1 and len(usable) > 1:
        with multiprocessing.Pool(workers, initializer=_init_worker,
                                  initargs=(ctx,)) as pool:
            per_query = pool.map(_label_query, usable)
    else:
        _init_worker(ctx)
        per_query = [_label_query(t) for t in usable]

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
