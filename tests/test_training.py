"""Adam optimizer, input assembly, and end-to-end pair training."""

import hashlib
import logging
import math
import tracemalloc

import numpy as np
import pytest
from reference_network import ReferenceAdam, ReferenceModel

from qexp.classifier.network import DIFF_CLASS, PARAM_ORDER, SAME_CLASS, SiameseModel
from qexp.classifier.pairs import generate_pairs
from qexp.classifier.training import (ADAM_BLOCK, Adam, TrainConfig,
                                      encodable_examples, example_sequence,
                                      pair_accuracy, train)
from qexp.config import Config
from qexp.embeddings import EmbeddingTable
from qexp.labeling import Label, LabeledDataset, LabeledExample


def _cluster_table():
    """d=4 embeddings: one query axis, one good axis, one bad axis."""
    terms = ["q", "g1", "g2", "g3", "b1", "b2", "b3", "oov_free"]
    vecs = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.125],
        [0.0, 1.0, 0.0, -0.125],
        [0.0, 1.0, 0.125, 0.0],
        [0.0, 0.0, 1.0, 0.125],
        [0.0, 0.0, 1.0, -0.125],
        [0.0, 0.125, 1.0, 0.0],
        [0.5, 0.5, 0.5, 0.5],
    ])
    return EmbeddingTable(terms, vecs)


def _cluster_dataset():
    exs = []
    for term in ("g1", "g2", "g3"):
        exs.append(LabeledExample("q1", ["q"], term, Label.GOOD, 0.1))
    for term in ("b1", "b2", "b3"):
        exs.append(LabeledExample("q1", ["q"], term, Label.BAD, -0.1))
    return LabeledDataset(exs)


def test_train_config_validation():
    TrainConfig()
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="pair_budget"):
        TrainConfig(pair_budget=1)


def test_adam_matches_update_formula():
    """Bit for bit the scaled-moment update, and within a few ulp per step of
    the textbook bias-corrected one."""
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    rng = np.random.default_rng(3)
    # "u" spans three of the update's blocks, the last one partly.
    shapes = {"w": (3,), "u": (2, ADAM_BLOCK + 7), "b": (17,), "s": ()}
    params = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    adam = Adam(params, lr, b1, b2, eps)
    steps = [{name: rng.standard_normal(shape) for name, shape in shapes.items()}
             for _ in range(4)]
    steps[1]["w"] = np.array([0.0, -0.0, 1e-300])

    # shadows: the scaled moments m / (1 - b1) and v / (1 - b2) with the bias
    # corrections folded into two scalars, and the textbook update
    scaled = {name: [p.copy(), np.zeros(shapes[name]), np.zeros(shapes[name])]
              for name, p in params.items()}
    textbook = {name: [p.copy(), np.zeros(shapes[name]), np.zeros(shapes[name])]
                for name, p in params.items()}
    for t, grads in enumerate(steps, start=1):
        root = math.sqrt((1.0 - b2 ** t) / (1.0 - b2))
        step_size = lr * (1.0 - b1) / (1.0 - b1 ** t) * root
        for name, g in grads.items():
            w, m, v = scaled[name]
            m = b1 * m + g
            v = b2 * v + g * g
            scaled[name] = [w - (step_size * m) / (np.sqrt(v) + eps * root), m, v]
            w, m, v = textbook[name]
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            textbook[name] = [w - lr * m_hat / (np.sqrt(v_hat) + eps), m, v]

        before = {name: g.copy() for name, g in grads.items()}
        adam.step(params, grads)
        for name, g in grads.items():  # the caller's gradients are only read
            assert g.tobytes() == before[name].tobytes(), name
        for name, p in params.items():
            assert p.tobytes() == scaled[name][0].tobytes(), (t, name)
            assert adam.m[name].tobytes() == scaled[name][1].tobytes(), (t, name)
            assert adam.v[name].tobytes() == scaled[name][2].tobytes(), (t, name)
            want = textbook[name][0]
            bound = 8 * t * np.spacing(np.maximum(np.abs(want), lr))
            assert np.all(np.abs(p - want) <= bound), (t, name)
    assert adam.t == len(steps)

    one = {"w": np.array([1.0, -2.0, 0.5])}
    Adam(one, lr).step(one, {"w": np.array([0.5, -1.0, 0.0])})
    # first component moved down (positive gradient), second moved up
    assert one["w"][0] < 1.0 and one["w"][1] > -2.0


@pytest.mark.parametrize("name, value", [
    ("lr", 0.0), ("lr", -0.1), ("lr", math.inf), ("lr", math.nan),
    ("beta1", 1.0), ("beta1", -0.1), ("beta1", math.nan), ("beta2", 1.0), ("beta2", 1.5),
    ("eps", 0.0), ("eps", -1e-8), ("eps", math.inf), ("eps", math.nan),
])
def test_adam_rejects_bad_arguments(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        Adam({"w": np.ones(3)}, **{"lr": 0.1, name: value})


def test_adam_accepts_boundary_betas():
    params = {"w": np.array([1.0, -1.0])}
    Adam(params, 0.1, beta1=0.0, beta2=0.0).step(params, {"w": np.array([1.0, -1.0])})
    assert np.all(np.isfinite(params["w"]))
    assert params["w"][0] < 1.0 and params["w"][1] > -1.0


def test_adam_rejects_non_contiguous_parameter():
    params = {"w": np.zeros((4, 4))[:, ::2]}
    with pytest.raises(ValueError, match="w must be C-contiguous"):
        Adam(params, 0.1).step(params, {"w": np.ones((4, 2))})


@pytest.mark.parametrize("pooling", ["last", "mean"])
def test_training_steps_match_allocating_reference(pooling):
    """A few batches through the workspace model and in-place Adam against the
    allocating reference: at equal parameters the loss and the representations
    keep every bit and each gradient tensor is within 1e-11 of its largest
    entry; after the run the parameters are within 1e-12."""
    d, h, r = 7, 5, 6
    rng = np.random.default_rng(12)
    model = SiameseModel(d, h, r, np.random.default_rng(13), pooling)
    ref = ReferenceModel(d, h, r, np.random.default_rng(13), pooling)
    lockstep = ReferenceModel(d, h, r, np.random.default_rng(13), pooling)
    adam, ref_adam = Adam(model.params, 0.01), ReferenceAdam(ref.params, 0.01)
    batches = [
        [(1, 1, True), (1, 1, False)],                  # t = 0 only
        [(1, 2, True), (3, 4, False), (2, 2, True), (4, 1, False), (3, 3, True)],
        [(4, 4, False), (2, 3, True), (1, 4, True)],
        [(2, 1, False), (3, 2, True), (4, 3, False), (1, 1, True)],
        [(5, 3, True), (2, 5, False), (1, 4, True), (3, 2, False)],  # to 5, one length 1
    ]
    for batch in batches:
        lefts = [rng.standard_normal((tl, d)) for tl, _, _ in batch]
        rights = [rng.standard_normal((tr, d)) for _, tr, _ in batch]
        same = [flag for _, _, flag in batch]
        for name in PARAM_ORDER:
            lockstep.params[name][...] = model.params[name]
        loss, grads = model.pair_loss_and_grads(lefts, rights, same)
        want_loss, want_grads = lockstep.pair_loss_and_grads(lefts, rights, same)
        assert loss == want_loss
        for name in PARAM_ORDER:
            bound = 1e-11 * np.max(np.abs(want_grads[name]))
            assert np.max(np.abs(grads[name] - want_grads[name])) <= bound, name
        adam.step(model.params, grads)
        ref_adam.step(ref.params, ref.pair_loss_and_grads(lefts, rights, same)[1])
    for name in PARAM_ORDER:
        assert np.max(np.abs(model.params[name] - ref.params[name])) <= 1e-12, name
    seq = rng.standard_normal((3, d))
    for name in PARAM_ORDER:
        lockstep.params[name][...] = model.params[name]
    assert model.encode(seq).tobytes() == lockstep.encode(seq).tobytes()


# sha256 of the parameters after the steps below. The losses and gradients
# are those of a batch run as one group per sequence length, so a batch of
# equal-length sequences must still give these bits; the update is Adam's
# scaled-moment form. Like test_output_digests.py, they hold for one
# NumPy/BLAS build.
EQUAL_LENGTH_DIGESTS = {
    "last": "f10fe62bf54f5c979bc11cba4430a4ae443ec487d19bcc27cdf247e5caf7220c",
    "mean": "07464f3eef930cb37fefe52c0a9cecab1e6fe093953517085492503b26750346",
}


@pytest.mark.parametrize("pooling", ["last", "mean"])
def test_equal_length_training_keeps_recorded_bits(pooling):
    """Three Adam steps on batches whose sequences all have length 3."""
    d, h, r, n = 6, 5, 4, 4
    rng = np.random.default_rng(21)
    model = SiameseModel(d, h, r, np.random.default_rng(22), pooling)
    adam = Adam(model.params, 0.01)
    for _ in range(3):
        lefts = [rng.standard_normal((3, d)) for _ in range(n)]
        rights = [rng.standard_normal((3, d)) for _ in range(n)]
        adam.step(model.params, model.pair_loss_and_grads(
            lefts, rights, [k % 2 == 0 for k in range(n)])[1])
    digest = hashlib.sha256(b"".join(model.params[name].tobytes()
                                     for name in PARAM_ORDER)).hexdigest()
    assert digest == EQUAL_LENGTH_DIGESTS[pooling]


@pytest.mark.parametrize("pooling", ["last", "mean"])
def test_a_warm_training_step_allocates_no_block(pooling):
    """After two warm-up batches, a step (the loss, its gradients and Adam)
    at the default sizes allocates less than one (B, h) block in all: the
    LSTM's intermediates, the gradients and the update live in reused
    buffers. (NumPy's own iteration buffers hold at most 8,192 elements, less
    than a block at these sizes.)"""
    d, h, r, n = 300, Config.hidden, Config.rep, Config.batch
    rng = np.random.default_rng(3)
    model = SiameseModel(d, h, r, np.random.default_rng(4), pooling)
    adam = Adam(model.params, 0.01)
    batches = [([rng.standard_normal((3, d)) for _ in range(n)],
                [rng.standard_normal((3, d)) for _ in range(n)],
                [k % 2 == 0 for k in range(n)]) for _ in range(3)]
    for batch in batches[:2]:
        adam.step(model.params, model.pair_loss_and_grads(*batch)[1])
    block = 2 * n * h * 8  # bytes of one (B, h) float block, B = 2n sequences
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        adam.step(model.params, model.pair_loss_and_grads(*batches[2])[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < block, (peak - before, block)


@pytest.mark.parametrize("pooling", ["last", "mean"])
def test_twenty_warm_training_steps_each_allocate_no_block(pooling):
    """The largest allocation peak over 20 warm steps stays below one (B, h)
    block: the two threads of a step may each hold NumPy iteration buffers at
    once, which one step catches only sometimes."""
    d, h, r, n = 300, Config.hidden, Config.rep, Config.batch
    rng = np.random.default_rng(5)
    model = SiameseModel(d, h, r, np.random.default_rng(6), pooling)
    adam = Adam(model.params, 0.01)
    batch = ([rng.standard_normal((3, d)) for _ in range(n)],
             [rng.standard_normal((3, d)) for _ in range(n)],
             [k % 2 == 0 for k in range(n)])
    for _ in range(2):
        adam.step(model.params, model.pair_loss_and_grads(*batch)[1])
    peaks = []
    for _ in range(20):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            adam.step(model.params, model.pair_loss_and_grads(*batch)[1])
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert max(peaks) < 2 * n * h * 8, peaks


def test_example_sequence_rows_and_errors():
    table = _cluster_table()
    seq = example_sequence(table, ["q", "missing", "g1"], "b1")
    assert seq.shape == (3, 4)
    np.testing.assert_array_equal(seq[0], table.vector("q"))
    np.testing.assert_array_equal(seq[1], table.vector("g1"))
    np.testing.assert_array_equal(seq[2], table.vector("b1"))
    with pytest.raises(KeyError, match="ghost"):
        example_sequence(table, ["q"], "ghost")
    with pytest.raises(ValueError, match="no query term"):
        example_sequence(table, ["missing", "alsomissing"], "g1")


def test_encodable_examples_drops_oov(caplog):
    table = _cluster_table()
    ds = LabeledDataset([
        LabeledExample("q1", ["q"], "g1", Label.GOOD, 0.1),
        LabeledExample("q1", ["q"], "notinvocab", Label.BAD, -0.1),
        LabeledExample("q2", ["absent"], "g2", Label.GOOD, 0.1),
    ])
    with caplog.at_level(logging.WARNING):
        kept, seqs = encodable_examples(ds, table)
    assert [ex.candidate_term for ex in kept] == ["g1"]
    assert len(seqs) == 1 and seqs[0].shape == (2, 4)
    assert "2 of 3 examples dropped" in caplog.text


def test_train_is_bit_reproducible_and_freezes_embeddings():
    table = _cluster_table()
    before = table.matrix.copy()
    cfg = TrainConfig(learning_rate=0.01, batch_size=8, epochs=3, seed=5,
                      pair_budget=32)
    m1, h1 = train(_cluster_dataset(), table, cfg, hidden=3, rep=4)
    m2, h2 = train(_cluster_dataset(), table, cfg, hidden=3, rep=4)
    assert h1 == h2
    for name in PARAM_ORDER:
        assert np.array_equal(m1.params[name], m2.params[name]), name
    np.testing.assert_array_equal(table.matrix, before)
    # a different seed must actually change the outcome
    m3, _ = train(_cluster_dataset(), table,
                  TrainConfig(learning_rate=0.01, batch_size=8, epochs=3,
                              seed=6, pair_budget=32), hidden=3, rep=4)
    assert any(not np.array_equal(m1.params[n], m3.params[n])
               for n in PARAM_ORDER)


def test_train_loss_decreases_on_separable_data():
    table = _cluster_table()
    cfg = TrainConfig(learning_rate=0.01, batch_size=16, epochs=12, seed=0,
                      pair_budget=64)
    _, history = train(_cluster_dataset(), table, cfg, hidden=6, rep=6)
    assert history[0][:2] == (0, 0)
    first_epoch = [loss for ep, _, loss in history if ep == 0]
    last_epoch = [loss for ep, _, loss in history if ep == cfg.epochs - 1]
    assert sum(last_epoch) / len(last_epoch) < sum(first_epoch) / len(first_epoch)


def test_train_logs_one_progress_line_per_epoch(caplog):
    cfg = TrainConfig(learning_rate=0.01, batch_size=16, epochs=3, seed=0,
                      pair_budget=64)
    with caplog.at_level(logging.INFO, logger="qexp.classifier.training"):
        _, history = train(_cluster_dataset(), _cluster_table(), cfg, hidden=4, rep=4)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "qexp.classifier.training"]
    assert len(lines) == cfg.epochs
    for epoch, line in enumerate(lines):
        losses = [loss for ep, _, loss in history if ep == epoch]
        head = f"epoch {epoch + 1}/{cfg.epochs}: mean loss {sum(losses) / len(losses):.6f}, "
        assert line.startswith(head), line
        assert line.endswith(" s") and " s elapsed, ETA " in line, line
    assert lines[-1].endswith("ETA 0.0 s")


def test_train_raises_on_nonfinite_loss():
    table = _cluster_table()
    model = SiameseModel(4, 3, 4, np.random.default_rng(0))
    model.pair_loss_and_grads = lambda lefts, rights, flags: (
        float("nan"), {k: np.zeros_like(v) for k, v in model.params.items()})
    with pytest.raises(ArithmeticError, match="non-finite loss"):
        train(_cluster_dataset(), table, TrainConfig(epochs=1, pair_budget=4),
              model=model)


def test_train_needs_encodable_examples():
    table = _cluster_table()
    ds = LabeledDataset([
        LabeledExample("q1", ["nope"], "g1", Label.GOOD, 0.1),
        LabeledExample("q1", ["nope"], "b1", Label.BAD, -0.1),
    ])
    with pytest.raises(ValueError, match="at least 2 encodable"):
        train(ds, table, TrainConfig(epochs=1, pair_budget=4))


def test_pair_accuracy_counts_threshold_calls():
    table = _cluster_table()
    model = SiameseModel(4, 3, 4, np.random.default_rng(0))
    pairs = generate_pairs(_cluster_dataset().examples, balance=True,
                           rng=np.random.default_rng(1), budget=20)

    def forced(p_same):
        probs = np.empty((1, 2))
        probs[0, SAME_CLASS], probs[0, DIFF_CLASS] = p_same, 1.0 - p_same
        return lambda a, b: probs

    model.compare_probs = forced(0.9)  # always predicts same-class
    expected = sum(1 for p in pairs if p.same_class) / len(pairs)
    assert pair_accuracy(model, table, pairs) == expected
    model.compare_probs = forced(0.1)  # always predicts different
    assert pair_accuracy(model, table, pairs) == 1.0 - expected
    with pytest.raises(ValueError, match="no pairs"):
        pair_accuracy(model, table, [])


def test_pair_accuracy_encodes_each_example_once():
    table = _cluster_table()
    model = SiameseModel(4, 3, 4, np.random.default_rng(0))
    pairs = generate_pairs(_cluster_dataset().examples, balance=True,
                           rng=np.random.default_rng(1), budget=40)
    expected = pair_accuracy(model, table, pairs)
    encode, encoded = model.encode, []
    model.encode = lambda seq: encoded.append(1) or encode(seq)
    assert pair_accuracy(model, table, pairs) == expected
    assert len(encoded) == len({id(ex) for p in pairs for ex in (p.left, p.right)})
