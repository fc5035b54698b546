"""Forward math, backward gradients, and numeric checks for the siamese net."""

import math

import numpy as np
import pytest
import reference_network

from qexp.classifier.network import (
    DIFF_CLASS,
    INIT_SCALE,
    PARAM_ORDER,
    SAME_CLASS,
    SiameseModel,
    _sigmoid,
    _softmax,
    gradient_check,
)


def sig(x):
    return 1.0 / (1.0 + math.exp(-x))


def sigmoid_of(z):
    out = np.array(z, dtype=np.float64)
    return _sigmoid(out, np.empty_like(out))


def test_sigmoid_stable_and_correct():
    z = np.array([-1000.0, -5.0, 0.0, 5.0, 1000.0])
    out = sigmoid_of(z)
    assert out[0] == 0.0 and out[4] == 1.0
    assert out[2] == 0.5
    assert out[1] == pytest.approx(sig(-5.0), rel=1e-14)
    assert out[3] == pytest.approx(sig(5.0), rel=1e-14)

    # Bit for bit the two-branch masked form, on edge values and on widths
    # that leave a remainder after every SIMD lane width.
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = np.array([0.0, -0.0, 1000.0, -1000.0, tiny, -tiny, 1e-310, -1e-310,
                      np.nan, -np.nan, np.inf, -np.inf, 36.8, -36.8, 745.2, -745.2])
    rng = np.random.default_rng(11)
    for width in (1, 3, 7, 9, 15, 17, 31, 33, 401):
        z = rng.permutation(np.concatenate([edges, rng.standard_normal(width) * 10.0]))[:width]
        for arr in (z, z.reshape(1, -1), np.stack([z, -z])[:, ::2]):
            want = reference_network.sigmoid(arr)
            assert sigmoid_of(arr).tobytes() == want.tobytes(), (width, arr)
            strided = np.empty(arr.shape + (2,))[..., 0]
            strided[...] = arr
            _sigmoid(strided, np.empty_like(arr))
            assert np.ascontiguousarray(strided).tobytes() == want.tobytes(), (width, arr)
    assert sigmoid_of(edges).tobytes() == reference_network.sigmoid(edges).tobytes()


def test_softmax_rows_sum_to_one():
    a = np.array([[1e4, 1e4 - 2.0], [-3.0, 5.0]])
    p = _softmax(a)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert p[0, 0] == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), rel=1e-12)
    assert np.all(p > 0)


def test_init_shapes_and_forget_bias():
    rng = np.random.default_rng(0)
    m = SiameseModel(5, 3, 4, rng)
    assert set(m.params) == set(PARAM_ORDER)
    assert m.params["fwd.W"].shape == (5, 12)
    assert m.params["fwd.U"].shape == (3, 12)
    assert m.params["repr.W"].shape == (6, 4)
    assert m.params["cmp.W"].shape == (4, 2)
    for direction in ("fwd", "bwd"):
        b = m.params[f"{direction}.b"]
        assert np.all(b[3:6] == 1.0)
        rest = np.concatenate([b[:3], b[6:]])
        assert np.all(np.abs(rest) <= INIT_SCALE)
    with pytest.raises(ValueError, match="pooling"):
        SiameseModel(2, 2, 2, rng, pooling="max")


def test_seeded_init_is_reproducible():
    m1 = SiameseModel(4, 3, 5, np.random.default_rng(42))
    m2 = SiameseModel(4, 3, 5, np.random.default_rng(42))
    for name in PARAM_ORDER:
        assert np.array_equal(m1.params[name], m2.params[name])


def _scalar_model():
    """d = h = 1 with hand-set parameters so every gate is hand-computable."""
    m = SiameseModel(1, 1, 2, np.random.default_rng(0))
    m.params["fwd.W"] = np.array([[0.5, -0.3, 0.8, 0.2]])
    m.params["fwd.U"] = np.array([[0.1, 0.2, -0.1, 0.3]])
    m.params["fwd.b"] = np.array([0.05, 1.0, -0.05, 0.1])
    return m


def scalar_lstm_step(x, h_prev, c_prev):
    """The same cell arithmetic written out longhand with floats."""
    zi = 0.5 * x + 0.1 * h_prev + 0.05
    zf = -0.3 * x + 0.2 * h_prev + 1.0
    zg = 0.8 * x + -0.1 * h_prev + -0.05
    zo = 0.2 * x + 0.3 * h_prev + 0.1
    i, f, g, o = sig(zi), sig(zf), math.tanh(zg), sig(zo)
    c = f * c_prev + i * g
    h = o * math.tanh(c)
    return h, c


def test_lstm_single_step_hand_computed():
    m = _scalar_model()
    x = np.array([[[0.7]]])
    states, _ = m._lstm_forward(x, "fwd")
    h1, _ = scalar_lstm_step(0.7, 0.0, 0.0)
    assert states[0, 0, 0] == pytest.approx(h1, abs=1e-14)


def test_lstm_two_steps_recurrence():
    m = _scalar_model()
    x = np.array([[[0.7], [-0.4]]])
    states, _ = m._lstm_forward(x, "fwd")
    h1, c1 = scalar_lstm_step(0.7, 0.0, 0.0)
    h2, _ = scalar_lstm_step(-0.4, h1, c1)
    assert states[0, 0, 0] == pytest.approx(h1, abs=1e-14)
    assert states[0, 1, 0] == pytest.approx(h2, abs=1e-14)


def test_encode_concatenates_directions():
    rng = np.random.default_rng(1)
    m = SiameseModel(2, 3, 4, rng)
    seq = rng.standard_normal((5, 2))
    fwd_states, _ = m._lstm_forward(seq[None], "fwd")
    bwd_states, _ = m._lstm_forward(seq[None, ::-1], "bwd")
    pooled = np.concatenate([fwd_states[0, -1], bwd_states[0, -1]])
    a = pooled @ m.params["repr.W"] + m.params["repr.b"]
    want = np.exp(a - a.max())
    want /= want.sum()
    got = m.encode(seq)
    assert got == pytest.approx(want, abs=1e-12)
    assert got.shape == (4,)
    assert got.sum() == pytest.approx(1.0)


def test_mean_pooling_ignores_scan_direction_alignment():
    rng = np.random.default_rng(2)
    m = SiameseModel(2, 3, 4, rng, pooling="mean")
    seq = rng.standard_normal((6, 2))
    fwd_states, _ = m._lstm_forward(seq[None], "fwd")
    bwd_states_rev, _ = m._lstm_forward(seq[None, ::-1], "bwd")
    realigned = bwd_states_rev[:, ::-1]
    pooled = np.concatenate(
        [fwd_states.mean(axis=1), realigned.mean(axis=1)], axis=1)[0]
    a = pooled @ m.params["repr.W"] + m.params["repr.b"]
    want = np.exp(a - a.max())
    want /= want.sum()
    assert m.encode(seq) == pytest.approx(want, abs=1e-12)


def test_encode_validation():
    m = SiameseModel(3, 2, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="non-empty"):
        m.encode(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="dim 2 != model dim 3"):
        m.encode(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="non-empty"):
        m.encode(np.zeros(3))


def test_compare_head_hand_computed():
    m = SiameseModel(1, 1, 2, np.random.default_rng(0))
    m.params["cmp.W"] = np.array([[1.0, -1.0], [2.0, 0.5]])
    m.params["cmp.b"] = np.array([0.3, -0.2])
    rep_l = np.array([0.7, 0.3])
    rep_r = np.array([0.4, 0.6])
    diff = rep_l - rep_r
    logits = [
        diff[0] * 1.0 + diff[1] * 2.0 + 0.3,
        diff[0] * -1.0 + diff[1] * 0.5 - 0.2,
    ]
    e = [math.exp(v - max(logits)) for v in logits]
    p_same = e[SAME_CLASS] / sum(e)
    probs = m.compare_probs(rep_l[None], rep_r[None])
    assert probs[0, SAME_CLASS] == pytest.approx(p_same, abs=1e-14)
    assert probs.shape == (1, 2)
    assert probs.sum() == pytest.approx(1.0)


def test_pair_loss_identical_inputs_uses_bias_only():
    m = SiameseModel(2, 2, 3, np.random.default_rng(3))
    m.params["cmp.b"] = np.array([0.3, -0.2])
    seq = np.random.default_rng(4).standard_normal((3, 2))
    loss_same, _ = m.pair_loss_and_grads([seq], [seq.copy()], [True])
    e0, e1 = math.exp(0.3), math.exp(-0.2)
    assert loss_same == pytest.approx(-math.log(e1 / (e0 + e1)), abs=1e-12)
    loss_diff, _ = m.pair_loss_and_grads([seq], [seq.copy()], [False])
    assert loss_diff == pytest.approx(-math.log(e0 / (e0 + e1)), abs=1e-12)


def test_pair_loss_is_mean_over_pairs():
    rng = np.random.default_rng(5)
    m = SiameseModel(2, 3, 4, rng)
    a, b = rng.standard_normal((3, 2)), rng.standard_normal((4, 2))
    c, d = rng.standard_normal((2, 2)), rng.standard_normal((3, 2))
    l1, _ = m.pair_loss_and_grads([a], [b], [True])
    l2, _ = m.pair_loss_and_grads([c], [d], [False])
    both, _ = m.pair_loss_and_grads([a, c], [b, d], [True, False])
    assert both == pytest.approx((l1 + l2) / 2.0, abs=1e-12)


def test_pair_loss_validation():
    m = SiameseModel(2, 2, 2, np.random.default_rng(0))
    seq = np.zeros((2, 2))
    with pytest.raises(ValueError, match="non-empty"):
        m.pair_loss_and_grads([], [], [])
    with pytest.raises(ValueError, match="equally long"):
        m.pair_loss_and_grads([seq], [seq, seq], [True])


@pytest.mark.parametrize("bad, message", [
    (np.zeros((0, 2)), "non-empty"),
    (np.zeros((2, 3)), "dim 3 != model dim 2"),
    (np.zeros(2), "non-empty"),
], ids=["empty", "wrong-dim", "one-dimensional"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_pair_loss_checks_sequences_like_encode_batch(bad, message, side):
    m = SiameseModel(2, 2, 2, np.random.default_rng(0))
    seq = np.ones((2, 2))
    with pytest.raises(ValueError, match=message):
        m.encode_batch([seq, bad])
    lefts, rights = ([seq, bad], [seq, seq]) if side == "left" else ([seq, seq], [seq, bad])
    with pytest.raises(ValueError, match=message):
        m.pair_loss_and_grads(lefts, rights, [True, False])


def _same_parameters(model):
    twin = SiameseModel(model.dim, model.hidden, model.rep, np.random.default_rng(0),
                        model.pooling)
    for name in PARAM_ORDER:
        twin.params[name][...] = model.params[name]
    return twin


@pytest.mark.parametrize("pooling", ["last", "mean"])
def test_a_grown_workspace_leaves_no_stale_values(pooling):
    """A model whose workspace grew on a long mixed-length batch gives, on
    smaller batches, the bits of a fresh model at the same parameters."""
    d = 4
    rng = np.random.default_rng(9)
    grown = SiameseModel(d, 3, 5, np.random.default_rng(10), pooling)
    big = [rng.standard_normal((t, d)) for t in (5, 1, 4, 2, 3, 5, 4, 3, 2, 1)]
    grown.pair_loss_and_grads(big[:5], big[5:], [True, False, True, False, True])
    for lengths in ([(1, 1)], [(2, 3), (3, 2)], [(3, 3), (3, 3), (3, 3)]):
        lefts = [rng.standard_normal((tl, d)) for tl, _ in lengths]
        rights = [rng.standard_normal((tr, d)) for _, tr in lengths]
        same = [k % 2 == 0 for k in range(len(lengths))]
        fresh = _same_parameters(grown)
        want_loss, want = fresh.pair_loss_and_grads(lefts, rights, same)
        loss, grads = grown.pair_loss_and_grads(lefts, rights, same)
        assert loss == want_loss
        for name in PARAM_ORDER:
            assert grads[name].tobytes() == want[name].tobytes(), (lengths, name)
        seqs = lefts + rights
        assert grown.encode_batch(seqs).tobytes() == fresh.encode_batch(seqs).tobytes()


@pytest.mark.parametrize("pooling", ["last", "mean"])
@pytest.mark.parametrize("length", [1, 2, 3])
def test_padding_leaves_a_row_bit_identical(pooling, length):
    """A row's representation keeps its bits when its batch partner is 2 or 3
    steps longer, so the row runs pad steps, as when the partner has its own
    length."""
    d = 6
    rng = np.random.default_rng(30 + length)
    m = SiameseModel(d, 5, 4, rng, pooling)
    row = rng.standard_normal((length, d))
    for k in (0, 1):  # the row's place in the batch

        def rep_beside(partner):
            pair = [partner, partner]
            pair[k] = row
            return m.encode_batch(pair)[k]

        want = rep_beside(rng.standard_normal((length, d)))
        for extra in (2, 3):
            got = rep_beside(rng.standard_normal((length + extra, d)))
            assert got.tobytes() == want.tobytes(), (k, extra)


@pytest.mark.parametrize("pooling,same", [("last", True), ("mean", False)])
def test_gradient_check_small_models(pooling, same):
    rng = np.random.default_rng(6)
    m = SiameseModel(3, 2, 3, rng, pooling=pooling)
    left = rng.standard_normal((2, 3))
    right = rng.standard_normal((3, 3))
    errors = gradient_check(m, left, right, same)
    assert set(errors) == set(PARAM_ORDER)
    assert max(errors.values()) < 1e-4


def test_gradients_flow_to_every_tensor():
    rng = np.random.default_rng(7)
    m = SiameseModel(3, 2, 3, rng)
    left = rng.standard_normal((2, 3))
    right = rng.standard_normal((2, 3))
    _, grads = m.pair_loss_and_grads([left], [right], [True])
    for name in PARAM_ORDER:
        assert np.any(grads[name] != 0.0), name


def test_gradient_check_snapshots_analytic_gradients():
    """The perturbed evaluations reuse the model's gradient buffers; the
    analytic gradients must be a copy taken before them."""
    rng = np.random.default_rng(8)
    m = SiameseModel(3, 2, 3, rng)
    left, right = rng.standard_normal((2, 3)), rng.standard_normal((3, 3))
    real = m.pair_loss_and_grads
    returned = []

    def scribbling(*args):
        loss, grads = real(*args)
        returned.append(grads)
        if len(returned) > 1:  # a perturbed evaluation: its gradients are unused
            for g in grads.values():
                g.fill(np.nan)
        return loss, grads

    m.pair_loss_and_grads = scribbling
    errors = gradient_check(m, left, right, True)
    assert all(g is returned[0] for g in returned)  # the buffers are shared
    assert max(errors.values()) < 1e-4, errors

