"""Siamese BiLSTM network over frozen word embeddings, implemented in numpy.

One input is a (query terms, candidate term) pair rendered as the embedding
sequence (e_1, ..., e_k, e_x). Both inputs of a pair run through the same
parameters: a forward and a backward LSTM whose states are concatenated,
a dense layer with softmax giving the pair's representation vector, and a
two-way softmax head over the elementwise difference of two representations
deciding whether the two inputs carry the same label.

Shapes: d = embedding dim, h = LSTM hidden size per direction,
r = representation size, B = batch, T = sequence length. Gate blocks inside
the (.,4h) matrices are ordered input, forget, cell-candidate, output.
"""

import numpy as np

from qexp.config import Config


def param_shapes(d: int, h: int, r: int) -> dict[str, tuple[int, ...]]:
    """Shape of every trainable tensor, in the network's declared parameter order."""
    return {
        "fwd.W": (d, 4 * h), "fwd.U": (h, 4 * h), "fwd.b": (4 * h,),
        "bwd.W": (d, 4 * h), "bwd.U": (h, 4 * h), "bwd.b": (4 * h,),
        "repr.W": (2 * h, r), "repr.b": (r,),
        "cmp.W": (r, 2), "cmp.b": (2,),
    }


PARAM_ORDER = tuple(param_shapes(0, 0, 0))

INIT_SCALE = 0.08
# Probability column conventions of the comparison head.
SAME_CLASS = 1
DIFF_CLASS = 0


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax(a):
    shifted = a - np.max(a, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


class SiameseModel:
    """All trainable parameters plus the forward/backward machinery.

    Embedding vectors are inputs, never parameters: they stay frozen.
    """

    def __init__(self, dim: int, hidden: int, rep: int, rng: np.random.Generator,
                 pooling: str = Config.pooling):
        if pooling not in ("last", "mean"):
            raise ValueError(f"unknown pooling mode {pooling!r}")
        self.dim = dim
        self.hidden = hidden
        self.rep = rep
        self.pooling = pooling
        self.params = {name: rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)
                       for name, shape in param_shapes(dim, hidden, rep).items()}
        for direction in ("fwd", "bwd"):  # forget-gate bias starts open
            self.params[f"{direction}.b"][hidden:2 * hidden] = 1.0

    def zero_grads(self) -> dict:
        return {name: np.zeros_like(p) for name, p in self.params.items()}

    # --- one LSTM direction over a batch of equal-length sequences ---

    def _lstm_forward(self, x, direction):
        """x: (B, T, d) in scan order. Returns per-step states and caches."""
        W = self.params[f"{direction}.W"]
        U = self.params[f"{direction}.U"]
        b = self.params[f"{direction}.b"]
        B, T, _ = x.shape
        h = self.hidden
        h_t = np.zeros((B, h))
        c_t = np.zeros((B, h))
        steps = []
        states = np.empty((B, T, h))
        for t in range(T):
            z = x[:, t] @ W + h_t @ U + b
            i = _sigmoid(z[:, :h])
            f = _sigmoid(z[:, h:2 * h])
            g = np.tanh(z[:, 2 * h:3 * h])
            o = _sigmoid(z[:, 3 * h:])
            c_new = f * c_t + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            steps.append((i, f, g, o, c_t, tanh_c, h_t))
            h_t, c_t = h_new, c_new
            states[:, t] = h_new
        return states, (x, steps)

    def _lstm_backward(self, d_states, cache, direction, grads):
        """d_states: (B, T, h) gradient on every per-step hidden state."""
        x, steps = cache
        W = self.params[f"{direction}.W"]
        U = self.params[f"{direction}.U"]
        B, T, _ = x.shape
        h = self.hidden
        dW = grads[f"{direction}.W"]
        dU = grads[f"{direction}.U"]
        db = grads[f"{direction}.b"]
        dh_next = np.zeros((B, h))
        dc_next = np.zeros((B, h))
        for t in range(T - 1, -1, -1):
            i, f, g, o, c_prev, tanh_c, h_prev = steps[t]
            dh = d_states[:, t] + dh_next
            do = dh * tanh_c
            dc = dh * o * (1.0 - tanh_c ** 2) + dc_next
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f
            dz = np.concatenate([
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g ** 2),
                do * o * (1.0 - o),
            ], axis=1)
            dW += x[:, t].T @ dz
            dU += h_prev.T @ dz
            db += dz.sum(axis=0)
            dh_next = dz @ U.T

    # --- encoder: BiLSTM + dense softmax representation ---

    def encode_batch(self, x):
        """Encode equal-length sequences x (B, T, d) into representations (B, r)."""
        reps, _ = self._encode_batch_cached(x)
        return reps

    def _encode_batch_cached(self, x):
        B, T, _ = x.shape
        fwd_states, fwd_cache = self._lstm_forward(x, "fwd")
        bwd_states_rev, bwd_cache = self._lstm_forward(x[:, ::-1], "bwd")
        if self.pooling == "last":
            pooled = np.concatenate([fwd_states[:, -1], bwd_states_rev[:, -1]], axis=1)
        else:
            # Mean over steps is position-invariant, so no realignment needed.
            pooled = np.concatenate(
                [fwd_states.mean(axis=1), bwd_states_rev.mean(axis=1)], axis=1)
        a = pooled @ self.params["repr.W"] + self.params["repr.b"]
        reps = _softmax(a)
        return reps, (x.shape, fwd_cache, bwd_cache, pooled, reps)

    def _encode_backward(self, d_reps, cache, grads):
        (B, T, _), fwd_cache, bwd_cache, pooled, reps = cache
        # Softmax jacobian: da = rep * (drep - sum(drep * rep)).
        inner = np.sum(d_reps * reps, axis=1, keepdims=True)
        da = reps * (d_reps - inner)
        grads["repr.W"] += pooled.T @ da
        grads["repr.b"] += da.sum(axis=0)
        d_pooled = da @ self.params["repr.W"].T
        h = self.hidden
        d_fwd = np.zeros((B, T, h))
        d_bwd_rev = np.zeros((B, T, h))
        if self.pooling == "last":
            d_fwd[:, -1] = d_pooled[:, :h]
            d_bwd_rev[:, -1] = d_pooled[:, h:]
        else:
            d_fwd += d_pooled[:, None, :h] / T
            d_bwd_rev += d_pooled[:, None, h:] / T
        self._lstm_backward(d_fwd, fwd_cache, "fwd", grads)
        self._lstm_backward(d_bwd_rev, bwd_cache, "bwd", grads)

    def encode(self, sequence) -> np.ndarray:
        """Encode one sequence (T, d) into its representation (r,)."""
        seq = np.asarray(sequence, dtype=np.float64)
        if seq.ndim != 2 or seq.shape[0] < 1:
            raise ValueError("sequence must be a non-empty (T, d) array")
        if seq.shape[1] != self.dim:
            raise ValueError(f"sequence dim {seq.shape[1]} != model dim {self.dim}")
        return self.encode_batch(seq[None])[0]

    # --- comparison head ---

    def compare_probs(self, rep_left, rep_right) -> np.ndarray:
        """Class probabilities (B, 2) for representation pairs; column 1 is 'same'."""
        diff = rep_left - rep_right
        logits = diff @ self.params["cmp.W"] + self.params["cmp.b"]
        return _softmax(logits)

    def compare(self, rep_left, rep_right) -> float:
        """Probability that the two encoded inputs carry the same label."""
        probs = self.compare_probs(np.atleast_2d(rep_left), np.atleast_2d(rep_right))
        return float(probs[0, SAME_CLASS])

    # --- training objective ---

    def pair_loss_and_grads(self, seqs_left, seqs_right, same_class):
        """Mean cross-entropy over a batch of pairs, with parameter gradients.

        seqs_left/seqs_right are lists of (T_i, d) arrays; lengths may differ
        between pairs (equal-length groups run vectorized internally).
        """
        n = len(seqs_left)
        if n == 0 or n != len(seqs_right) or n != len(same_class):
            raise ValueError("batch inputs must be non-empty and equally long")
        reps = np.empty((2 * n, self.rep))
        caches = []
        all_seqs = list(seqs_left) + list(seqs_right)
        for idxs, stacked in _length_groups(all_seqs):
            group_reps, cache = self._encode_batch_cached(stacked)
            reps[idxs] = group_reps
            caches.append((idxs, cache))

        rep_l, rep_r = reps[:n], reps[n:]
        diff = rep_l - rep_r
        logits = diff @ self.params["cmp.W"] + self.params["cmp.b"]
        probs = _softmax(logits)
        y = np.where(np.asarray(same_class, dtype=bool), SAME_CLASS, DIFF_CLASS)
        picked = probs[np.arange(n), y]
        loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))

        grads = self.zero_grads()
        d_logits = probs.copy()
        d_logits[np.arange(n), y] -= 1.0
        d_logits /= n
        grads["cmp.W"] += diff.T @ d_logits
        grads["cmp.b"] += d_logits.sum(axis=0)
        d_diff = d_logits @ self.params["cmp.W"].T
        d_reps = np.concatenate([d_diff, -d_diff], axis=0)
        for idxs, cache in caches:
            self._encode_backward(d_reps[idxs], cache, grads)
        return loss, grads


def _length_groups(seqs):
    """Group sequences by length; yields (original indexes, stacked (B,T,d))."""
    by_len: dict[int, list[int]] = {}
    for i, s in enumerate(seqs):
        by_len.setdefault(s.shape[0], []).append(i)
    for length in sorted(by_len):
        idxs = np.array(by_len[length])
        yield idxs, np.stack([seqs[i] for i in idxs])


def gradient_check(model: SiameseModel, seq_left, seq_right, same_class: bool,
                   step: float = 1e-5) -> dict[str, float]:
    """Relative error between analytic and central-difference gradients.

    Every parameter tensor is perturbed elementwise; the reported error per
    tensor is ||g_a - g_n|| / max(||g_a|| + ||g_n||, 1e-12).
    """
    seqs_l = [np.asarray(seq_left, dtype=np.float64)]
    seqs_r = [np.asarray(seq_right, dtype=np.float64)]
    y = [same_class]
    _, analytic = model.pair_loss_and_grads(seqs_l, seqs_r, y)

    errors = {}
    for name in PARAM_ORDER:
        param = model.params[name]
        numeric = np.zeros_like(param)
        flat_p = param.ravel()
        flat_n = numeric.ravel()
        for k in range(flat_p.size):
            orig = flat_p[k]
            flat_p[k] = orig + step
            loss_plus, _ = model.pair_loss_and_grads(seqs_l, seqs_r, y)
            flat_p[k] = orig - step
            loss_minus, _ = model.pair_loss_and_grads(seqs_l, seqs_r, y)
            flat_p[k] = orig
            flat_n[k] = (loss_plus - loss_minus) / (2.0 * step)
        ga = analytic[name]
        denom = max(float(np.linalg.norm(ga)) + float(np.linalg.norm(numeric)), 1e-12)
        errors[name] = float(np.linalg.norm(ga - numeric)) / denom
    return errors
