"""k-fold cross-validation comparing retrieval methods, with a summary report."""

import dataclasses
import logging
from dataclasses import dataclass, field

import numpy as np

from qexp import labeling
from qexp.classifier.inference import build_reference_set, encode_reference_set
from qexp.classifier.training import TrainConfig, train
from qexp.collection import InvertedIndex, Qrels
from qexp.config import Config, check
from qexp.embeddings import EmbeddingTable
from qexp.evaluation import Comparison, EvalResult, evaluate_rankings
from qexp.expansion import ExpansionConfig, build_query_model
from qexp.retrieval import RankedList, retrieve

log = logging.getLogger(__name__)

METHODS = ("qlm", "awe", "eqe1", "dec")
BASELINE_METHODS = ("qlm", "awe", "eqe1")


@dataclass
class ExperimentResult:
    """Pooled cross-validated metrics plus pairwise significance comparisons."""

    results: dict[str, EvalResult]
    comparisons: dict[tuple[str, str], Comparison] = field(default_factory=dict)
    folds: int = 1


def partition_folds(query_ids, k: int, rng: np.random.Generator) -> list[list[str]]:
    """Split query ids into k seeded folds; every query lands in exactly one."""
    qids = sorted(query_ids)
    check("k", k, "folds")
    if len(qids) < k:
        raise ValueError(f"need at least k={k} queries, have {len(qids)}")
    order = rng.permutation(len(qids))
    folds: list[list[str]] = [[] for _ in range(k)]
    for pos, qi in enumerate(order):
        folds[pos % k].append(qids[qi])
    return [sorted(f) for f in folds]


def rank_topics(topics, idx: InvertedIndex, table: EmbeddingTable, methods,
                expansion_cfg: ExpansionConfig, stopwords, mu: float, depth: int,
                model=None, refset=None) -> dict[str, list[RankedList]]:
    """Each method's ranked lists of the topics, in topic order. dec's
    reference set is encoded once, and each topic's candidate pool is scanned
    once and shared by the expansion methods; qlm alone scans nothing."""
    ref_reps = None if refset is None else encode_reference_set(model, refset, table)
    expands = any(m != "qlm" for m in methods)
    rankings: dict[str, list[RankedList]] = {m: [] for m in methods}
    for topic in topics:
        pool = labeling.scored_candidate_pool(
            topic, table, idx, expansion_cfg.pool_size, stopwords) if expands else []
        for method in methods:
            qm = build_query_model(method, topic, pool, table, expansion_cfg,
                                   model, refset, ref_reps)
            rankings[method].append(retrieve(qm, idx, mu, depth))
    return rankings


def cross_validate(topics, idx: InvertedIndex, qrels: Qrels, table: EmbeddingTable,
                   dataset: labeling.LabeledDataset | None, methods=METHODS,
                   folds: int = Config.folds, seed: int = Config.seed,
                   expansion_cfg: ExpansionConfig | None = None,
                   train_cfg: TrainConfig | None = None,
                   refset_size: int = Config.refset_size, hidden: int = Config.hidden,
                   rep: int = Config.rep, pooling: str = Config.pooling,
                   stopwords=frozenset(), mu: float = Config.mu,
                   depth: int = Config.depth) -> ExperimentResult:
    """Evaluate methods on seeded k-fold splits; pool per-query metrics.

    The classifier method trains one model per fold on the other folds'
    labeled examples and builds its reference set from the same training
    split; every other method ignores the training data entirely. Each
    fold's test topics are ranked by rank_topics.
    """
    methods = list(methods)
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; valid: {list(METHODS)}")
    repeated = [m for i, m in enumerate(methods) if m in methods[:i]]
    if repeated:
        raise ValueError(f"methods named more than once: {repeated}")
    expansion_cfg = expansion_cfg or ExpansionConfig()
    if "dec" in methods and dataset is None:
        raise ValueError("the classifier method needs a labeled dataset")

    eligible = [t for t in topics if qrels.num_relevant(t.query_id) > 0]
    if dataset is not None:
        labeled_qids = {ex.query_id for ex in dataset.examples}
        eligible = [t for t in eligible if t.query_id in labeled_qids]
    if not eligible:
        raise ValueError("no eligible queries (need relevant docs and labels)")
    topic_of = {t.query_id: t for t in eligible}

    seed_seq = np.random.SeedSequence(seed)
    fold_rng = np.random.default_rng(seed_seq.spawn(1)[0])
    fold_ids = partition_folds(topic_of.keys(), folds, fold_rng)
    fold_seeds = seed_seq.spawn(folds)

    rankings: dict[str, list] = {m: [] for m in methods}
    for f, test_qids in enumerate(fold_ids):
        model = refset = None
        if "dec" in methods:
            train_qids = [q for ids in fold_ids if ids is not test_qids for q in ids]
            train_data = dataset.for_queries(train_qids)
            if not len(train_data):
                raise ValueError(f"fold {f}: no labeled training examples")
            t_seed, r_seed = fold_seeds[f].spawn(2)
            cfg = train_cfg if train_cfg is not None else TrainConfig()
            cfg = dataclasses.replace(cfg, seed=int(t_seed.generate_state(1)[0]))
            log.info("fold %d/%d: training classifier on %d examples",
                     f + 1, folds, len(train_data))
            model, _ = train(train_data, table, cfg,
                             hidden=hidden, rep=rep, pooling=pooling)
            refset = build_reference_set(train_data, table, refset_size,
                                         np.random.default_rng(r_seed))
        ranked = rank_topics([topic_of[q] for q in test_qids], idx, table, methods,
                             expansion_cfg, stopwords, mu, depth, model, refset)
        for m in methods:
            rankings[m].extend(ranked[m])

    results = {m: evaluate_rankings(rankings[m], qrels, depth) for m in methods}
    comparisons = {}
    for treatment in methods:
        for baseline in BASELINE_METHODS:
            if baseline == treatment or baseline not in methods:
                continue
            comparisons[(baseline, treatment)] = Comparison(
                results[baseline], results[treatment])
    return ExperimentResult(results, comparisons, folds)


def format_report(result: ExperimentResult) -> str:
    """Aligned text table: method x (MAP, significance markers, P@10, RI vs qlm)."""
    lines = []
    header = f"{'method':<8} {'MAP':>8} {'sig':>6} {'P@10':>8} {'RI':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    for method in result.results:
        res = result.results[method]
        markers = _sig_markers(result, method)
        ri = result.comparisons.get(("qlm", method))
        ri_s = f"{ri.ri:7.2f}" if ri is not None else f"{'-':>7}"
        lines.append(f"{method:<8} {res.map:8.4f} {markers:>6} {res.p10:8.4f} {ri_s}")
    lines.append("")
    lines.append(f"folds: {result.folds}, "
                 f"queries: {next(iter(result.results.values())).num_queries}")
    legend = " ".join(f"{digit}={m}" for digit, m in enumerate(BASELINE_METHODS, 1))
    lines.append(f"sig: baselines ({legend}) whose MAP this method beats at p < 0.05")
    return "\n".join(lines) + "\n"


def report_tsv(result: ExperimentResult) -> str:
    rows = ["method\tmap\tp10\tri\tsig"]
    for method in result.results:
        res = result.results[method]
        ri = result.comparisons.get(("qlm", method))
        ri_s = f"{ri.ri!r}" if ri is not None else ""
        rows.append(f"{method}\t{res.map!r}\t{res.p10!r}\t{ri_s}\t"
                    f"{_sig_markers(result, method)}")
    return "\n".join(rows) + "\n"


def per_query_csv(result: ExperimentResult) -> str:
    methods = list(result.results)
    rows = ["query_id," + ",".join(methods)]
    qids = sorted(next(iter(result.results.values())).per_query_ap)
    for qid in qids:
        vals = ",".join(f"{result.results[m].per_query_ap[qid]!r}" for m in methods)
        rows.append(f"{qid},{vals}")
    return "\n".join(rows) + "\n"


def _sig_markers(result: ExperimentResult, method: str) -> str:
    marks = ""
    for digit, baseline in enumerate(BASELINE_METHODS, 1):
        comp = result.comparisons.get((baseline, method))
        if comp is None:
            continue
        if comp.significant and result.results[method].map > result.results[baseline].map:
            marks += str(digit)
    return marks or "-"
