"""Training-pair generation: n labeled examples yield n(n-1) ordered pairs."""

from dataclasses import dataclass

import numpy as np

from qexp.config import check
from qexp.labeling import LabeledExample


@dataclass
class PairExample:
    left: LabeledExample
    right: LabeledExample
    same_class: bool

    def __post_init__(self):
        if self.same_class != (self.left.label == self.right.label):
            raise ValueError("same_class flag disagrees with the example labels")


def all_ordered_pairs(examples) -> list[PairExample]:
    """Every ordered pair of distinct examples, exhaustively: n(n-1) of them."""
    pairs = []
    for i, left in enumerate(examples):
        for j, right in enumerate(examples):
            if i == j:
                continue
            pairs.append(PairExample(left, right, left.label == right.label))
    return pairs


def generate_pairs(examples, balance: bool, rng: np.random.Generator,
                   budget: int | None = None) -> list[PairExample]:
    """Pairs for one training epoch.

    Without balance this is the exhaustive ordered enumeration, which takes
    no budget. With balance=True, budget pairs are sampled with exactly equal
    counts of same-class and different-class pairs (budget must be even);
    same-class pairs are uniform over the ordered same-class population,
    different-class pairs uniform over unordered class pairs and fed in a
    fixed class order.
    """
    examples = list(examples)
    if len(examples) < 2:
        raise ValueError("pair generation needs at least 2 examples")
    if not balance:
        if budget is not None:
            raise ValueError("a pair budget needs balance=True")
        return all_ordered_pairs(examples)

    if budget is None:
        raise ValueError("balanced sampling needs a pair budget")
    check("budget", budget, "pair_budget")

    by_class: dict = {}
    for i, ex in enumerate(examples):
        by_class.setdefault(ex.label, []).append(i)
    classes = sorted(by_class, key=lambda l: l.value)
    same_counts = np.array(
        [len(by_class[c]) * (len(by_class[c]) - 1) for c in classes], dtype=np.float64)
    if same_counts.sum() == 0:
        raise ValueError("no same-class pair exists (all classes are singletons)")
    if len(classes) < 2:
        raise ValueError("balanced pairs need at least two label classes")

    half = budget // 2
    pairs = []
    # Same-class side: class chosen proportional to its ordered-pair count.
    class_probs = same_counts / same_counts.sum()
    picks = rng.choice(len(classes), size=half, p=class_probs)
    for c_idx in picks:
        members = by_class[classes[c_idx]]
        i, j = _distinct_pair(rng, len(members))
        pairs.append(PairExample(examples[members[i]], examples[members[j]], True))
    # Different-class side: each class pair is always fed in the same
    # direction (sorted class order). The comparison head subtracts the two
    # representations, so mirrored orders of one class pair carry opposite
    # inputs with the same target and their gradients cancel; one fixed
    # direction per class pair keeps the learning signal.
    sizes = np.array([len(by_class[c]) for c in classes], dtype=np.float64)
    cross = np.triu(sizes[:, None] * sizes[None, :], k=1)
    flat = cross.ravel() / cross.sum()
    picks = rng.choice(len(flat), size=half, p=flat)
    k = len(classes)
    for pick in picks:
        ca, cb = by_class[classes[pick // k]], by_class[classes[pick % k]]
        pairs.append(PairExample(
            examples[ca[rng.integers(len(ca))]],
            examples[cb[rng.integers(len(cb))]],
            False))
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


def _distinct_pair(rng, n):
    i = int(rng.integers(n))
    j = int(rng.integers(n - 1))
    if j >= i:
        j += 1
    return i, j
