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

import functools
import math
import os

import numpy as np

from qexp.config import Config, check


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


def _sigmoid(z, scratch):
    """Overwrite z with its stable logistic and return it; scratch is an array of z's shape.

    One exp: 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below. min(z, -z)
    is -|z|, but passes a NaN through with its sign, as the two-branch form
    does. max(e, copysign(1, z)) is 1 from z = -0 up and e below: no mask to cast.
    """
    e = np.minimum(z, np.negative(z, out=scratch), out=scratch)
    np.exp(e, out=e)
    num = np.maximum(e, np.copysign(1.0, z, out=z), out=z)
    e += 1.0
    return np.divide(num, e, out=z)


def _softmax(a):
    """Overwrite a with its softmax over the last axis and return it."""
    a -= np.max(a, axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= np.sum(a, axis=-1, keepdims=True)
    return a


class SiameseModel:
    """All trainable parameters plus the forward/backward machinery.

    Embedding vectors are inputs, never parameters: they stay frozen.
    """

    def __init__(self, dim: int, hidden: int, rep: int, rng: np.random.Generator,
                 pooling: str = Config.pooling):
        for key, value in (("hidden", hidden), ("rep", rep), ("pooling", pooling)):
            check(key, value)
        self.dim = dim
        self.hidden = hidden
        self.rep = rep
        self.pooling = pooling
        self.params = {name: rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)
                       for name, shape in param_shapes(dim, hidden, rep).items()}
        for direction in ("fwd", "bwd"):  # forget-gate bias starts open
            self.params[f"{direction}.b"][hidden:2 * hidden] = 1.0
        self._grads = {name: np.zeros(shape)
                       for name, shape in param_shapes(dim, hidden, rep).items()}
        self._workspace = {}

    def _buffer(self, key, shape):
        """The workspace array under key as shape: grown to fit, else reused, values stale."""
        size = math.prod(shape)
        buf = self._workspace.get(key)
        if buf is None or buf.size < size:
            buf = self._workspace[key] = np.empty(size)
        return buf[:size].reshape(shape)

    # --- one LSTM direction over a batch of sequences padded to one length ---

    def _lstm_forward(self, x, direction):
        """x: (B, T, d) in scan order. Returns the per-step states (B, T, h) and
        the cache: workspace views, step-major in the memory order of x's steps.
        A row's pad steps come after its true ones, so no true state reads them."""
        W, U, b = (self.params[f"{direction}.{p}"] for p in "WUb")
        B, T, _ = x.shape
        h = self.hidden
        order = slice(None, None, -1 if x.strides[1] < 0 else 1)
        # Every step's activated gates, gate-major: i, f, g and o are each a
        # contiguous (B, h) block, so the elementwise work reads no strides.
        gates, c, tanh_c, states = (
            self._buffer((name, direction), (T, *shape))[order]
            for name, shape in (("gates", (4, B, h)), ("c", (B, h)),
                                ("tanh_c", (B, h)), ("h", (B, h))))
        z, bias = (self._buffer((key, direction), (B, 4 * h)) for key in ("z", "bias"))
        scratch = self._buffer(("scratch", direction), (3, B, h))  # by direction: scans overlap
        bias[...] = b  # a (B, 4h) tile, so adding it broadcasts nothing
        for t in range(T):
            np.matmul(x[:, t], W, out=z)
            if t:  # no h @ U against the zero state at t = 0; gates[t] is unused until the copy
                z += np.matmul(states[t - 1], U, out=gates[t].reshape(B, 4 * h))
            z += bias
            np.copyto(gates[t], z.reshape(B, 4, h).transpose(1, 0, 2))
            i, f, g, o = gates[t]
            _sigmoid(gates[t, :2], scratch[:2])
            np.tanh(g, out=g)
            _sigmoid(o, scratch[0])
            np.multiply(f, c[t - 1] if t else 0.0, out=c[t])
            c[t] += np.multiply(i, g, out=scratch[0])
            np.tanh(c[t], out=tanh_c[t])
            np.multiply(o, tanh_c[t], out=states[t])
        return states.transpose(1, 0, 2), (x, gates, c, tanh_c, states)

    def _lstm_backward(self, d_states, cache, direction):
        """d_states: (T, B, h) gradient on every per-step hidden state, in scan order.
        Each step's dz replaces its spent gate block, read as (B, 4h), so dW, dU
        and db are one product or sum each over all steps. d_states is zero at
        the pad steps, which the scan meets first, so their dz is zero too."""
        x, gates, c, tanh_c, states = cache
        U = self.params[f"{direction}.U"]
        B, T, _ = x.shape
        h = self.hidden
        dh, dc, tmp = self._buffer(("scratch", direction), (3, B, h))
        dz = self._buffer(("z", direction), (4, B, h))  # gate-major, like the gate block
        dh[...], dc[...] = 0.0, 0.0
        for t in range(T - 1, -1, -1):
            i, f, g, o = gates[t]
            dh += d_states[t]
            # dc = dh * o * (1 - tanh_c^2) + dc of step t + 1
            np.subtract(1.0, np.square(tanh_c[t], out=tmp), out=tmp)
            dc += np.multiply(np.multiply(dh, o, out=dz[0]), tmp, out=dz[0])
            np.multiply(dh, tanh_c[t], out=dz[3])   # do
            np.multiply(dc, g, out=dz[0])           # di
            np.multiply(dc, c[t - 1] if t else 0.0, out=dz[1])  # df
            np.multiply(dc, i, out=dz[2])           # dg
            dc *= f                                 # dc for step t - 1
            for k, gate in ((0, i), (1, f), (3, o)):  # d * s * (1 - s)
                dz[k] *= gate
                dz[k] *= np.subtract(1.0, gate, out=tmp)
            dz[2] *= np.subtract(1.0, np.square(g, out=tmp), out=tmp)
            np.copyto(gates[t].reshape(B, 4, h), dz.transpose(1, 0, 2))
            if t:  # the zero state at t = 0 passes nothing back
                np.matmul(gates[t].reshape(B, 4 * h), U.T, out=dh)
        dz_rows = _step_rows(gates, 4 * h)
        grads = [self._grads[f"{direction}.{p}"] for p in "WUb"]
        np.matmul(_step_rows(x.transpose(1, 0, 2), x.shape[2]).T, dz_rows, out=grads[0])
        np.matmul(_step_rows(states[:-1], h).T, _step_rows(gates[1:], 4 * h), out=grads[1])
        np.add.reduce(dz_rows, out=grads[2])

    # --- encoder: BiLSTM + dense softmax representation ---

    def _encode_batch_cached(self, seqs):
        """Representations (B, r) of checked sequences, one padded batch, and
        the cache, in the workspace."""
        x_fwd, x_bwd, lengths = self._stack(seqs)
        B, T, _ = x_fwd.shape
        h = self.hidden
        caches = [cache for _, cache in _both(self._lstm_forward, (x_fwd, "fwd"), (x_bwd, "bwd"))]
        # The steps each row pools, (T, B, 1) in scan order: its last true
        # step, or all of them. Both scans meet a row's true steps first, so
        # one mask serves both, and both poolings sum the kept states.
        steps = np.arange(T)[:, None, None]
        keep = (steps == lengths[:, None] - 1 if self.pooling == "last"
                else steps < lengths[:, None])
        pooled = self._buffer("pooled", (B, 2 * h))
        for half, (*_, states) in zip((pooled[:, :h], pooled[:, h:]), caches):
            # a contiguous target, so NumPy buffers nothing
            half[...] = np.add.reduce(states, axis=0, where=keep,
                                      out=self._buffer(("scratch", "fwd"), (B, h)))
        # Each row's length along its row, so dividing by it broadcasts nothing.
        counts = self._buffer("counts", (B, 2 * h))
        counts[...] = lengths[:, None]
        if self.pooling == "mean":
            pooled /= counts
        a = np.matmul(pooled, self.params["repr.W"], out=self._buffer("reps", (B, self.rep)))
        a += self.params["repr.b"]
        reps = _softmax(a)
        return reps, (caches, pooled, reps, keep, counts)

    def _encode_backward(self, d_reps, cache):
        """d_reps: (B, r), overwritten. Writes every gradient but the head's."""
        caches, pooled, reps, keep, counts = cache
        B, T, _ = caches[0][0].shape
        # Softmax jacobian: da = rep * (drep - sum(drep * rep)).
        products = np.multiply(d_reps, reps, out=self._buffer("d_reps_reps", d_reps.shape))
        inner = np.sum(products, axis=1, keepdims=True)
        da = np.multiply(reps, np.subtract(d_reps, inner, out=d_reps), out=d_reps)
        np.matmul(pooled.T, da, out=self._grads["repr.W"])
        np.add.reduce(da, out=self._grads["repr.b"])
        d_pooled = np.matmul(da, self.params["repr.W"].T,
                             out=self._buffer("d_pooled", pooled.shape))
        if self.pooling == "mean":
            d_pooled /= counts
        h = self.hidden

        def backward(direction, cache_dir, d_half):
            d_states = self._buffer(("d_states", direction), (T, B, h))
            d_states[...] = 0.0  # and stays zero at the steps no row pools
            np.copyto(d_states, d_half, where=keep)
            self._lstm_backward(d_states, cache_dir, direction)
        _both(backward, ("fwd", caches[0], d_pooled[:, :h]), ("bwd", caches[1], d_pooled[:, h:]))

    def _sequences(self, sequences) -> list:
        """sequences as float64 (T, d) arrays, checked against the model."""
        seqs = [np.asarray(s, dtype=np.float64) for s in sequences]
        for seq in seqs:
            if seq.ndim != 2 or seq.shape[0] < 1:
                raise ValueError("sequence must be a non-empty (T, d) array")
            if seq.shape[1] != self.dim:
                raise ValueError(f"sequence dim {seq.shape[1]} != model dim {self.dim}")
        return seqs

    def _stack(self, seqs):
        """The sequences zero-padded to the longest, T, in two step-major copies
        viewed as (B, T, d) in scan order, and their lengths (B,). The forward
        copy is right-padded; the backward one is left-padded and read from its
        last step. So both scans start at a true step and run their pads last,
        and with no pads both copies run in input order."""
        lengths = np.array([len(s) for s in seqs], dtype=np.intp)
        T = int(lengths.max(initial=0))
        x_fwd, x_bwd = (self._buffer(key, (T, len(seqs), self.dim))
                        for key in ("x_fwd", "x_bwd"))
        x_fwd[...], x_bwd[...] = 0.0, 0.0  # a stale NaN pad would reach dW as 0 * NaN
        for b, seq in enumerate(seqs):
            x_fwd[:len(seq), b] = seq
            x_bwd[T - len(seq):, b] = seq
        return x_fwd.transpose(1, 0, 2), x_bwd[::-1].transpose(1, 0, 2), lengths

    def encode(self, sequence) -> np.ndarray:
        """Encode one sequence (T, d) into its representation (r,)."""
        return self.encode_batch([sequence])[0]

    def encode_batch(self, sequences) -> np.ndarray:
        """Encode sequences (T_i, d) into representations (n, r), in input order,
        as one batch padded to the longest. From two rows up it runs
        matrix-matrix products where encode runs matrix-vector ones, moving the
        last bits."""
        return self._encode_batch_cached(self._sequences(sequences))[0].copy()

    # --- comparison head ---

    def _compare_head(self, rep_left, rep_right, diff=None):
        """The head's feature rep_left - rep_right (into diff) and its probabilities (B, 2)."""
        diff = np.subtract(rep_left, rep_right, out=diff)
        return diff, _softmax(diff @ self.params["cmp.W"] + self.params["cmp.b"])

    def compare_probs(self, rep_left, rep_right) -> np.ndarray:
        """Class probabilities (B, 2) for representation pairs; column 1 is 'same'."""
        return self._compare_head(rep_left, rep_right)[1]

    # --- training objective ---

    def pair_loss_and_grads(self, seqs_left, seqs_right, same_class):
        """Mean cross-entropy over a batch of pairs, with parameter gradients.

        seqs_left/seqs_right are lists of (T_i, d) arrays; lengths may differ,
        and all 2n sequences run as one batch padded to the longest. The
        gradients are the model's own buffers, which the next call overwrites.
        """
        n = len(seqs_left)
        if n == 0 or n != len(seqs_right) or n != len(same_class):
            raise ValueError("batch inputs must be non-empty and equally long")
        reps, cache = self._encode_batch_cached(self._sequences([*seqs_left, *seqs_right]))

        diff, probs = self._compare_head(reps[:n], reps[n:],
                                         self._buffer("diff", (n, self.rep)))
        y = np.where(np.asarray(same_class, dtype=bool), SAME_CLASS, DIFF_CLASS)
        picked = probs[np.arange(n), y]
        loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))

        d_logits = probs.copy()
        d_logits[np.arange(n), y] -= 1.0
        d_logits /= n
        np.matmul(diff.T, d_logits, out=self._grads["cmp.W"])
        np.add.reduce(d_logits, out=self._grads["cmp.b"])
        # the head's feature is rep_l - rep_r: +d_diff to the left, -d_diff to the right
        d_reps = self._buffer("d_reps", (2 * n, self.rep))
        np.matmul(d_logits, self.params["cmp.W"].T, out=d_reps[:n])
        np.negative(d_reps[:n], out=d_reps[n:])
        self._encode_backward(d_reps, cache)
        return loss, self._grads


@functools.cache  # started on first use, so importing qexp starts no thread
def _helper():
    from concurrent.futures import ThreadPoolExecutor  # not at import: the CLI starts fast
    return ThreadPoolExecutor(1)


if hasattr(os, "register_at_fork"):  # not on Windows, which cannot fork
    os.register_at_fork(after_in_child=_helper.cache_clear)  # a forked child starts its own


def _cpus() -> int:
    """The CPUs this process may use; the machine's where the OS cannot say (macOS)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _both(fn, args_a, args_b):
    """(fn(*args_a), fn(*args_b)): the second on the helper thread while the first
    runs here if this process may use two CPUs, else in order. Errors reach here."""
    if _cpus() < 2:
        return fn(*args_a), fn(*args_b)
    second = _helper().submit(fn, *args_b)
    try:
        return fn(*args_a), second.result()
    finally:
        second.exception()  # a first call's exception leaves once the second has ended


def judged_same(probs) -> np.ndarray:
    """The same/different call on compare-head probabilities (B, 2): P(same) >= 0.5."""
    return probs[:, SAME_CLASS] >= 0.5


def _step_rows(a, width):
    """A step-major (T, ...) workspace view as (T*B, width) rows in memory order:
    a view, also when the steps run backwards."""
    return (a[::-1] if a.strides[0] < 0 else a).reshape(-1, width)


def gradient_check(model: SiameseModel, seq_left, seq_right, same_class: bool,
                   step: float = 1e-5) -> dict[str, float]:
    """Relative error between analytic and central-difference gradients.

    Every parameter tensor is perturbed elementwise; the reported error per
    tensor is ||g_a - g_n|| / max(||g_a|| + ||g_n||, 1e-12).
    """
    seqs_l = [np.asarray(seq_left, dtype=np.float64)]
    seqs_r = [np.asarray(seq_right, dtype=np.float64)]
    y = [same_class]
    _, grads = model.pair_loss_and_grads(seqs_l, seqs_r, y)
    analytic = {name: g.copy() for name, g in grads.items()}

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
