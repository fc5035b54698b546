"""Reference-set construction and comparison-vote goodness probability."""

import numpy as np
import pytest

from qexp.classifier.inference import (ReferenceSet, build_reference_set,
                                       encode_reference_set, p_good,
                                       p_good_from_outcomes)
from qexp.classifier.network import DIFF_CLASS, SAME_CLASS, SiameseModel
from qexp.embeddings import EmbeddingTable
from qexp.labeling import Label, LabeledDataset, LabeledExample

from test_training import _cluster_dataset, _cluster_table


def _refset4():
    return ReferenceSet([
        (["q"], "g1", Label.GOOD),
        (["q"], "g2", Label.GOOD),
        (["q"], "b1", Label.BAD),
        (["q"], "b2", Label.BAD),
    ])


def test_reference_set_invariants():
    rs = _refset4()
    assert len(rs) == 4
    assert rs.labels() == [Label.GOOD, Label.GOOD, Label.BAD, Label.BAD]
    with pytest.raises(ValueError, match="even"):
        ReferenceSet([(["q"], "g1", Label.GOOD)])
    with pytest.raises(ValueError, match="even"):
        ReferenceSet([])
    with pytest.raises(ValueError, match="half good"):
        ReferenceSet([(["q"], "g1", Label.GOOD), (["q"], "g2", Label.GOOD)])
    with pytest.raises(ValueError, match="half good"):
        ReferenceSet([(["q"], "g1", Label.GOOD), (["q"], "n1", Label.NEUTRAL)])


def test_build_reference_set_balanced_and_deterministic():
    table = _cluster_table()
    ds = _cluster_dataset()
    rs1 = build_reference_set(ds, table, size=4, rng=np.random.default_rng(3))
    rs2 = build_reference_set(ds, table, size=4, rng=np.random.default_rng(3))
    assert rs1.items == rs2.items
    labels = rs1.labels()
    assert labels.count(Label.GOOD) == 2 and labels.count(Label.BAD) == 2


def test_build_reference_set_skips_neutral_and_oov():
    table = _cluster_table()
    exs = list(_cluster_dataset().examples)
    exs.append(LabeledExample("q1", ["q"], "mystery", Label.GOOD, 0.2))
    exs.append(LabeledExample("q1", ["q"], "oov_free", Label.NEUTRAL, 0.0))
    ds = LabeledDataset(exs)
    rs = build_reference_set(ds, table, size=6, rng=np.random.default_rng(0))
    cands = [cand for _, cand, _ in rs.items]
    assert "mystery" not in cands and "oov_free" not in cands
    assert Label.NEUTRAL not in rs.labels()


def test_build_reference_set_errors():
    table = _cluster_table()
    ds = _cluster_dataset()
    with pytest.raises(ValueError, match="even"):
        build_reference_set(ds, table, size=5)
    with pytest.raises(ValueError, match="not enough good"):
        build_reference_set(ds, table, size=8)
    only_good = LabeledDataset([
        LabeledExample("q1", ["q"], "g1", Label.GOOD, 0.1),
        LabeledExample("q1", ["q"], "g2", Label.GOOD, 0.1)])
    with pytest.raises(ValueError, match="not enough bad"):
        build_reference_set(only_good, table, size=2)


def test_p_good_from_outcomes_hand_enumerated():
    labels = [Label.GOOD, Label.GOOD, Label.BAD, Label.BAD]
    assert p_good_from_outcomes([True, True, False, False], labels) == 1.0
    assert p_good_from_outcomes([False, False, True, True], labels) == 0.0
    assert p_good_from_outcomes([True, False, True, False], labels) == 0.5
    assert p_good_from_outcomes([True, True, True, False], labels) == 0.75
    with pytest.raises(ValueError, match="equally long"):
        p_good_from_outcomes([True], labels)
    with pytest.raises(ValueError, match="equally long"):
        p_good_from_outcomes([], [])


def test_p_good_forced_outcomes():
    table = _cluster_table()
    model = SiameseModel(4, 3, 4, np.random.default_rng(0))
    rs = _refset4()

    def forced(rows):
        probs = np.zeros((len(rows), 2))
        probs[:, SAME_CLASS] = rows
        probs[:, DIFF_CLASS] = 1.0 - np.asarray(rows)
        return probs

    # refs judged same,same,diff,diff -> every vote favors good
    model.compare_probs = lambda a, b: forced([0.9, 0.5, 0.2, 0.49])
    assert p_good(["q"], "g3", model, rs, table) == 1.0
    # one good ref judged different, one bad judged same -> 2/4
    model.compare_probs = lambda a, b: forced([0.8, 0.1, 0.7, 0.3])
    assert p_good(["q"], "g3", model, rs, table) == 0.5


def test_p_good_real_model_paths_agree():
    table = _cluster_table()
    model = SiameseModel(4, 3, 4, np.random.default_rng(2))
    ds = _cluster_dataset()
    rs = build_reference_set(ds, table, size=4, rng=np.random.default_rng(1))
    ref_reps = encode_reference_set(model, rs, table)
    assert ref_reps.shape == (4, 4)
    p_fresh = p_good(["q"], "g3", model, rs, table)
    p_cached = p_good(["q"], "g3", model, rs, table, ref_reps=ref_reps)
    assert p_fresh == p_cached
    assert 0.0 <= p_fresh <= 1.0
    assert p_good(["q"], "unknownterm", model, rs, table) == 0.0
