"""Ordered-pair amplification and balanced epoch sampling."""

import numpy as np
import pytest

from qexp.classifier.pairs import PairExample, all_ordered_pairs, generate_pairs
from qexp.labeling import Label, LabeledExample


def _examples(spec):
    """spec: list of labels; examples get distinct candidate terms."""
    return [
        LabeledExample("q1", ["a"], f"t{i}", label,
                       0.1 if label is Label.GOOD else
                       (-0.1 if label is Label.BAD else 0.0))
        for i, label in enumerate(spec)
    ]


def test_pair_example_flag_checked():
    g, b = _examples([Label.GOOD, Label.BAD])
    PairExample(g, b, False)
    with pytest.raises(ValueError, match="disagrees"):
        PairExample(g, b, True)


def test_all_ordered_pairs_count():
    for n in (2, 3, 5, 8):
        exs = _examples([Label.GOOD] * (n // 2) + [Label.BAD] * (n - n // 2))
        pairs = all_ordered_pairs(exs)
        assert len(pairs) == n * (n - 1)
        # ordered: both directions present, no self-pairs
        keys = {(id(p.left), id(p.right)) for p in pairs}
        assert len(keys) == n * (n - 1)
        assert all(p.left is not p.right for p in pairs)
        for p in pairs:
            assert p.same_class == (p.left.label == p.right.label)


def test_unbalanced_pairs_take_no_budget():
    exs = _examples([Label.GOOD, Label.GOOD, Label.BAD, Label.BAD])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="budget"):
        generate_pairs(exs, balance=False, rng=rng, budget=6)
    full = generate_pairs(exs, balance=False, rng=rng, budget=None)
    assert len(full) == 12


def test_balanced_exact_half_split():
    exs = _examples([Label.GOOD] * 4 + [Label.BAD] * 3 + [Label.NEUTRAL] * 2)
    rng = np.random.default_rng(1)
    pairs = generate_pairs(exs, balance=True, rng=rng, budget=200)
    assert len(pairs) == 200
    same = sum(1 for p in pairs if p.same_class)
    assert same == 100
    for p in pairs:
        assert p.same_class == (p.left.label == p.right.label)
        assert p.left is not p.right


def test_balanced_is_seed_deterministic():
    exs = _examples([Label.GOOD] * 3 + [Label.BAD] * 3)
    p1 = generate_pairs(exs, balance=True, rng=np.random.default_rng(7), budget=50)
    p2 = generate_pairs(exs, balance=True, rng=np.random.default_rng(7), budget=50)
    assert [(p.left.candidate_term, p.right.candidate_term, p.same_class)
            for p in p1] == \
        [(p.left.candidate_term, p.right.candidate_term, p.same_class) for p in p2]


def test_balanced_feeds_each_class_pair_one_way():
    exs = _examples([Label.GOOD] * 2 + [Label.BAD] * 2 + [Label.NEUTRAL] * 2)
    pairs = generate_pairs(exs, balance=True, rng=np.random.default_rng(3),
                           budget=600)
    diff_dirs = {(p.left.label.value, p.right.label.value)
                 for p in pairs if not p.same_class}
    # every class pair occurs, always with the lower-sorted label on the left
    assert diff_dirs == {("bad", "good"), ("bad", "neutral"), ("good", "neutral")}
    # exhaustive enumeration still covers both orders
    both = {(p.left.label, p.right.label)
            for p in all_ordered_pairs(exs) if not p.same_class}
    assert (Label.GOOD, Label.BAD) in both and (Label.BAD, Label.GOOD) in both


def test_generate_pairs_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="at least 2"):
        generate_pairs(_examples([Label.GOOD]), balance=False, rng=rng)
    exs = _examples([Label.GOOD, Label.GOOD, Label.BAD])
    with pytest.raises(ValueError, match="needs a pair budget"):
        generate_pairs(exs, balance=True, rng=rng, budget=None)
    with pytest.raises(ValueError, match="even"):
        generate_pairs(exs, balance=True, rng=rng, budget=7)
    with pytest.raises(ValueError, match="two label classes"):
        generate_pairs(_examples([Label.GOOD, Label.GOOD]), balance=True,
                       rng=rng, budget=4)
    with pytest.raises(ValueError, match="singleton"):
        generate_pairs(_examples([Label.GOOD, Label.BAD]), balance=True,
                       rng=rng, budget=4)
