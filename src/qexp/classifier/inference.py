"""Goodness probability of a candidate via comparisons against labeled references."""

from dataclasses import dataclass

import numpy as np

from qexp.classifier.network import SAME_CLASS, SiameseModel
from qexp.classifier.training import example_sequence
from qexp.config import Config
from qexp.embeddings import EmbeddingTable
from qexp.labeling import Label, LabeledDataset


@dataclass
class ReferenceSet:
    """Previously classified (query terms, candidate, label) items, half good half bad."""

    items: list[tuple[list[str], str, Label]]

    def __post_init__(self):
        n = len(self.items)
        if n == 0 or n % 2 != 0:
            raise ValueError(f"reference set size must be even and positive, got {n}")
        good = sum(1 for _, _, label in self.items if label is Label.GOOD)
        bad = sum(1 for _, _, label in self.items if label is Label.BAD)
        if good != bad or good + bad != n:
            raise ValueError(
                f"reference set must be exactly half good and half bad, "
                f"got {good} good / {bad} bad of {n}")

    def __len__(self):
        return len(self.items)

    def labels(self) -> list[Label]:
        return [label for _, _, label in self.items]


def build_reference_set(dataset: LabeledDataset, table: EmbeddingTable,
                        size: int = Config.refset_size,
                        rng: np.random.Generator | None = None) -> ReferenceSet:
    """Sample size/2 good and size/2 bad encodable examples from training data.

    Neutral examples never enter the reference set.
    """
    if size % 2 != 0 or size < 2:
        raise ValueError(f"reference set size must be even and >= 2, got {size}")
    if rng is None:
        rng = np.random.default_rng(Config.seed)
    pools = {Label.GOOD: [], Label.BAD: []}
    for ex in dataset.examples:
        if ex.label not in pools:
            continue
        if ex.candidate_term not in table:
            continue
        if not any(t in table for t in ex.query_terms):
            continue
        pools[ex.label].append(ex)
    half = size // 2
    items = []
    for label in (Label.GOOD, Label.BAD):
        pool = pools[label]
        if len(pool) < half:
            raise ValueError(
                f"not enough {label.value} examples for the reference set: "
                f"need {half}, have {len(pool)}")
        picks = rng.choice(len(pool), size=half, replace=False)
        for i in sorted(picks):
            ex = pool[i]
            items.append((list(ex.query_terms), ex.candidate_term, ex.label))
    return ReferenceSet(items)


def encode_reference_set(model: SiameseModel, refset: ReferenceSet,
                         table: EmbeddingTable) -> np.ndarray:
    """Representations of all reference items, reusable across candidates."""
    return np.stack([
        model.encode(example_sequence(table, q_terms, cand))
        for q_terms, cand, _ in refset.items
    ])


def p_good_from_outcomes(same_flags, labels) -> float:
    """(N_g + N_nb) / N from discrete same/different outcomes.

    N_g counts references judged same-class that are good; N_nb counts
    references judged different-class that are bad.
    """
    if len(same_flags) != len(labels) or not labels:
        raise ValueError("outcomes and labels must be non-empty and equally long")
    n_g = sum(1 for same, label in zip(same_flags, labels)
              if same and label is Label.GOOD)
    n_nb = sum(1 for same, label in zip(same_flags, labels)
               if not same and label is Label.BAD)
    return (n_g + n_nb) / len(labels)


def p_good(query_terms, candidate: str, model: SiameseModel, refset: ReferenceSet,
           table: EmbeddingTable, ref_reps: np.ndarray | None = None) -> float:
    """Probability the candidate is a good expansion term for the query.

    The (query, candidate) input is compared against every reference item;
    each comparison is thresholded at 0.5 into same/different. Candidates
    outside the embedding vocabulary get probability 0. Without ref_reps the
    reference set is encoded on this call.
    """
    if candidate not in table:
        return 0.0
    rep = model.encode(example_sequence(table, query_terms, candidate))
    if ref_reps is None:
        ref_reps = encode_reference_set(model, refset, table)
    tiled = np.tile(rep, (len(refset), 1))
    probs = model.compare_probs(tiled, ref_reps)[:, SAME_CLASS]
    same_flags = [bool(p >= 0.5) for p in probs]
    return p_good_from_outcomes(same_flags, refset.labels())
