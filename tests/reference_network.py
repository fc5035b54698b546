"""The allocating training step, kept as the reference.

`qexp.classifier.network` and `qexp.classifier.training` compute the same
arithmetic in a reused step workspace, with one `exp` per sigmoid, no
matmuls against the zero state at t = 0, and one product per gradient tensor
over all steps of one batch zero-padded to its longest sequence. Everything
here is the straightforward version: one group per sequence length, the
boolean-mask sigmoid, one LSTM direction forward and backward
with a fresh array for every intermediate and one gradient product per step,
fresh gradient tensors per batch, and Adam rebuilding its moments every
step. The forward pass must match it bit for bit; the gradients within a
tolerance, since a product over all steps sums in another order.
"""

import numpy as np

from qexp.classifier.network import DIFF_CLASS, SAME_CLASS, SiameseModel


def sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(a):
    shifted = a - np.max(a, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def length_groups(seqs):
    """Yields (original indexes, stacked (B, T, d)) per length, shortest first."""
    by_len = {}
    for i, s in enumerate(seqs):
        by_len.setdefault(s.shape[0], []).append(i)
    for length in sorted(by_len):
        idxs = np.array(by_len[length])
        yield idxs, np.stack([seqs[i] for i in idxs])


class ReferenceModel:
    """The parameters of a `SiameseModel` built with the same arguments, and
    the allocating per-step arithmetic over them."""

    def __init__(self, dim, hidden, rep, rng, pooling="last"):
        self.params = SiameseModel(dim, hidden, rep, rng, pooling).params
        self.hidden = hidden
        self.rep = rep
        self.pooling = pooling

    def lstm_forward(self, x, direction):
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
            i = sigmoid(z[:, :h])
            f = sigmoid(z[:, h:2 * h])
            g = np.tanh(z[:, 2 * h:3 * h])
            o = sigmoid(z[:, 3 * h:])
            c_new = f * c_t + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            steps.append((i, f, g, o, c_t, tanh_c, h_t))
            h_t, c_t = h_new, c_new
            states[:, t] = h_new
        return states, (x, steps)

    def lstm_backward(self, d_states, cache, direction, grads):
        x, steps = cache
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

    def encode_group(self, x):
        fwd_states, fwd_cache = self.lstm_forward(x, "fwd")
        bwd_states_rev, bwd_cache = self.lstm_forward(x[:, ::-1], "bwd")
        if self.pooling == "last":
            pooled = np.concatenate([fwd_states[:, -1], bwd_states_rev[:, -1]], axis=1)
        else:
            pooled = np.concatenate(
                [fwd_states.mean(axis=1), bwd_states_rev.mean(axis=1)], axis=1)
        reps = softmax(pooled @ self.params["repr.W"] + self.params["repr.b"])
        return reps, (x.shape, fwd_cache, bwd_cache, pooled, reps)

    def encode_backward(self, d_reps, cache, grads):
        (B, T, _), fwd_cache, bwd_cache, pooled, reps = cache
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
        self.lstm_backward(d_fwd, fwd_cache, "fwd", grads)
        self.lstm_backward(d_bwd_rev, bwd_cache, "bwd", grads)

    def encode(self, sequence):
        return self.encode_group(np.asarray(sequence, dtype=np.float64)[None])[0][0]

    def pair_loss_and_grads(self, seqs_left, seqs_right, same_class):
        n = len(seqs_left)
        reps = np.empty((2 * n, self.rep))
        caches = []
        for idxs, stacked in length_groups(list(seqs_left) + list(seqs_right)):
            group_reps, cache = self.encode_group(stacked)
            reps[idxs] = group_reps
            caches.append((idxs, cache))
        diff = reps[:n] - reps[n:]
        probs = softmax(diff @ self.params["cmp.W"] + self.params["cmp.b"])
        y = np.where(np.asarray(same_class, dtype=bool), SAME_CLASS, DIFF_CLASS)
        picked = probs[np.arange(n), y]
        loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))

        grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        d_logits = probs.copy()
        d_logits[np.arange(n), y] -= 1.0
        d_logits /= n
        grads["cmp.W"] += diff.T @ d_logits
        grads["cmp.b"] += d_logits.sum(axis=0)
        d_diff = d_logits @ self.params["cmp.W"].T
        d_reps = np.concatenate([d_diff, -d_diff], axis=0)
        for idxs, cache in caches:
            self.encode_backward(d_reps[idxs], cache, grads)
        return loss, grads


class ReferenceAdam:
    """Adam that allocates new moments and temporaries on every step."""

    def __init__(self, params: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict, grads: dict):
        self.t += 1
        for name in params:
            g = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / (1.0 - self.beta1 ** self.t)
            v_hat = self.v[name] / (1.0 - self.beta2 ** self.t)
            params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
