"""The allocating training step, kept as the bit-exact reference.

`qexp.classifier.network` and `qexp.classifier.training` compute the same
arithmetic with reused buffers, one `exp` per sigmoid and no matmuls against
the zero state at t = 0. Everything here is the straightforward version
those must match bit for bit: the boolean-mask sigmoid, one LSTM direction
forward and backward with a fresh array for every intermediate, fresh
gradient tensors per batch, and Adam rebuilding its moments every step.
"""

import numpy as np

from qexp.classifier.network import SiameseModel


def sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class ReferenceModel(SiameseModel):
    """A `SiameseModel` whose LSTM, gradient buffers and products are the allocating originals."""

    def zero_grads(self) -> dict:
        return {name: np.zeros_like(p) for name, p in self.params.items()}

    def _add_product(self, grad, a, b):
        grad += a @ b

    def _lstm_forward(self, x, direction):
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

    def _lstm_backward(self, d_states, cache, direction, grads):
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
