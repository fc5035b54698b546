"""Mini-batch training of the siamese classifier with a hand-rolled Adam."""

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from qexp.classifier.network import SiameseModel, judged_same
from qexp.classifier.pairs import generate_pairs
from qexp.config import Config, check
from qexp.embeddings import EmbeddingTable
from qexp.labeling import LabeledDataset, LabeledExample

log = logging.getLogger(__name__)

# Elements per block of the Adam update: the six arrays a block touches
# (768 KB) stay in a core's L2 cache across all ten passes over it.
ADAM_BLOCK = 16384


@dataclass
class TrainConfig:
    learning_rate: float = Config.lr
    batch_size: int = Config.batch
    epochs: int = Config.epochs
    seed: int = Config.seed
    pair_budget: int = Config.pair_budget

    def __post_init__(self):
        check("learning_rate", self.learning_rate, "lr")
        check("batch_size", self.batch_size, "batch")
        for key in ("epochs", "seed", "pair_budget"):
            check(key, getattr(self, key))


class Adam:
    """Adaptive-moment gradient descent over a named parameter dict.

    ``m`` and ``v`` hold the moments pre-scaled, m / (1 - beta1) and
    v / (1 - beta2), so they accumulate ``beta * m + g`` and
    ``beta * v + g * g``. Both bias corrections fold into two scalars per
    step (Kingma & Ba's reordered form), and a parameter takes
    ``p -= (step_size * m) / (sqrt(v) + eps_t)``: one divide and one square
    root. In exact arithmetic this is the textbook update; only the
    rounding differs. Moments are updated in place, block by block, and the
    update's temporaries live in one scratch buffer of two blocks, so a step
    allocates nothing.
    """

    def __init__(self, params: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        for name, value, ok, requirement in (
                ("lr", lr, 0 < lr < math.inf, "finite and > 0"),
                ("beta1", beta1, 0 <= beta1 < 1, "in [0, 1)"),
                ("beta2", beta2, 0 <= beta2 < 1, "in [0, 1)"),
                ("eps", eps, 0 < eps < math.inf, "finite and > 0")):
            if not ok:
                raise ValueError(f"{name} must be {requirement}, got {value!r}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros(v.shape) for k, v in params.items()}
        self.v = {k: np.zeros(v.shape) for k, v in params.items()}
        self._scratch = np.empty(2 * ADAM_BLOCK)  # denominator, then numerator

    def step(self, params: dict, grads: dict):
        """One update of params in place; grads are only read."""
        self.t += 1
        # sqrt(v_hat) = sqrt(v) / root, so lr * m_hat / (sqrt(v_hat) + eps)
        # = step_size * m / (sqrt(v) + eps * root) in the scaled moments.
        root = math.sqrt((1.0 - self.beta2 ** self.t) / (1.0 - self.beta2))
        step_size = self.lr * (1.0 - self.beta1) / (1.0 - self.beta1 ** self.t) * root
        eps_t = self.eps * root
        block = ADAM_BLOCK
        for name, param in params.items():
            if not param.flags.c_contiguous:
                raise ValueError(f"parameter {name} must be C-contiguous")
            flat = [a.reshape(-1) for a in (param, grads[name], self.m[name], self.v[name])]
            for lo in range(0, param.size, block):
                p, g, m, v = (a[lo:lo + block] for a in flat)
                den = self._scratch[:g.size]
                num = self._scratch[block:block + g.size]
                m *= self.beta1
                m += g                                           # beta1 * m + g
                v *= self.beta2
                v += np.multiply(g, g, out=den)                  # beta2 * v + g * g
                np.sqrt(v, out=den)
                den += eps_t                                     # sqrt(v) + eps_t
                np.multiply(m, step_size, out=num)
                p -= np.divide(num, den, out=num)                # (step_size * m) / den


def example_sequence(table: EmbeddingTable, query_terms, candidate: str) -> np.ndarray:
    """Embedding sequence for one input: in-vocabulary query terms, then the candidate.

    Out-of-vocabulary query terms are dropped; the candidate must be in
    vocabulary and at least one query term must survive.
    """
    if candidate not in table:
        raise KeyError(f"candidate term {candidate!r} not in embedding vocabulary")
    rows = [table.vector(t) for t in query_terms if t in table]
    if not rows:
        raise ValueError(f"no query term of {list(query_terms)!r} is in vocabulary")
    rows.append(table.vector(candidate))
    return np.array(rows, dtype=np.float64)


def encodable(table: EmbeddingTable, ex: LabeledExample) -> bool:
    """Whether the candidate and at least one query term are in the table."""
    return ex.candidate_term in table and any(t in table for t in ex.query_terms)


def encodable_examples(dataset: LabeledDataset, table: EmbeddingTable):
    """Examples the network can consume, with their precomputed sequences."""
    kept = [ex for ex in dataset.examples if encodable(table, ex)]
    seqs = [example_sequence(table, ex.query_terms, ex.candidate_term) for ex in kept]
    dropped = len(dataset) - len(kept)
    if dropped:
        log.warning("training data: %d of %d examples dropped (out of vocabulary)",
                    dropped, len(dataset))
    return kept, seqs


def train(dataset: LabeledDataset, table: EmbeddingTable, cfg: TrainConfig,
          model: SiameseModel | None = None,
          hidden: int = Config.hidden, rep: int = Config.rep,
          pooling: str = Config.pooling):
    """Train on balanced same/different pairs; returns (model, loss history).

    All randomness (init, pair sampling, batch order) flows from cfg.seed,
    so identical inputs reproduce bit-identical parameters. Loss history
    rows are (epoch, batch, loss).
    """
    rng = np.random.default_rng(cfg.seed)
    if model is None:
        model = SiameseModel(table.dim, hidden, rep, rng, pooling)
    examples, seqs = encodable_examples(dataset, table)
    if len(examples) < 2:
        raise ValueError("training needs at least 2 encodable labeled examples")
    seq_of = {id(ex): seq for ex, seq in zip(examples, seqs)}

    adam = Adam(model.params, cfg.learning_rate)
    history = []
    started = time.perf_counter()
    for epoch in range(cfg.epochs):
        first = len(history)
        pairs = generate_pairs(examples, balance=True, rng=rng, budget=cfg.pair_budget)
        for batch_no, start in enumerate(range(0, len(pairs), cfg.batch_size)):
            batch = pairs[start:start + cfg.batch_size]
            loss, grads = model.pair_loss_and_grads(
                [seq_of[id(p.left)] for p in batch],
                [seq_of[id(p.right)] for p in batch],
                [p.same_class for p in batch])
            if not math.isfinite(loss):
                raise ArithmeticError(
                    f"non-finite loss {loss} at epoch {epoch} batch {batch_no}")
            adam.step(model.params, grads)
            history.append((epoch, batch_no, loss))
        losses = [row[2] for row in history[first:]]
        done, elapsed = epoch + 1, time.perf_counter() - started
        log.info("epoch %d/%d: mean loss %.6f, %.1f s elapsed, ETA %.1f s",
                 done, cfg.epochs, sum(losses) / len(losses), elapsed,
                 elapsed / done * (cfg.epochs - done))
    return model, history


def pair_accuracy(model: SiameseModel, table: EmbeddingTable, pairs) -> float:
    """Fraction of pairs whose same/different call (threshold 0.5) is right."""
    if not pairs:
        raise ValueError("no pairs to score")
    reps, correct = {}, 0
    for pair in pairs:
        for ex in (pair.left, pair.right):
            if id(ex) not in reps:  # each distinct example is encoded once
                reps[id(ex)] = model.encode(
                    example_sequence(table, ex.query_terms, ex.candidate_term))[None]
        probs = model.compare_probs(reps[id(pair.left)], reps[id(pair.right)])
        correct += bool(judged_same(probs)[0]) == pair.same_class
    return correct / len(pairs)
