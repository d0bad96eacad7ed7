"""Minimal trainable neural toolkit: tape-based autodiff over sentence matrices.

Everything is float64. The unit of work is one sentence as an (n, d) matrix,
one row per token; layers and losses take the whole matrix at once. Each op
returns `_record(value, inputs, bw)`, where `bw(grad)` turns the result's
gradient into its inputs' gradients; `_record` alone decides whether the op
goes on the tape (grad enabled and some input needing grad). One `backward()`
call on a scalar loss accumulates gradients into every reachable `Parameter`.
A bidirectional LSTM is a single tape node per sequence whose backward is
hand-written backpropagation through time. Inference code should run under
`no_grad()` to skip tape construction entirely.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np
from scipy.special import expit

from .errors import (
    ConfigurationError,
    InvalidInputError,
    NonFiniteError,
    UsageError,
)

_grad_enabled = True


class no_grad:
    """Context manager that disables tape recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """A float64 array plus, when recorded, its inputs and backward closure.

    `backward` calls `node._bw(node.grad)` once the node's gradient is whole;
    the closure adds into the `grad` of the `_parents` that need grad.
    """

    __slots__ = ("data", "grad", "needs_grad", "_parents", "_bw", "_released")

    def __init__(self, data, parents=(), bw=None, needs_grad=False):
        if isinstance(data, np.ndarray):
            if data.dtype != np.float64:
                data = data.astype(np.float64)
        else:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.grad = None
        self.needs_grad = needs_grad
        self._parents = parents
        self._bw = bw
        self._released = False

    @property
    def shape(self):
        return self.data.shape

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, key) -> "Tensor":
        """numpy indexing (rows, slices, index arrays) recorded on the tape."""
        def bw(g):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            np.add.at(self.grad, key, g)

        return _record(self.data[key], (self,), bw)

    def backward(self) -> None:
        """Propagate d(self)/d(param) into every reachable Parameter's grad.

        The loss must be a scalar produced by a recorded forward pass. The
        tape is released afterwards (closures dropped, graph edges cut), so a
        second backward on the same graph raises.
        """
        if self.data.size != 1:
            raise UsageError(f"backward() expects a scalar loss, got shape {self.shape}")
        if self._released:
            raise UsageError("backward() called again on an already released graph")
        if not self.needs_grad:
            raise UsageError("backward() without a recorded forward pass")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
            elif id(node) not in visited:
                visited.add(id(node))
                stack.append((node, True))
                stack.extend((p, False) for p in node._parents
                             if p.needs_grad and id(p) not in visited)

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._bw is not None:
                node._bw(node.grad)
        for node in topo:
            if node._bw is not None:
                node._bw = None
                node._parents = ()
                if node is not self:
                    node.grad = None
        self._released = True

    def __repr__(self):
        return f"Tensor(shape={self.shape}, needs_grad={self.needs_grad})"


class Parameter(Tensor):
    """Trainable tensor carrying its gradient and Adam accumulators.

    `grad` may be handed in as a view into a larger gradient array, so that
    a fused layer can accumulate into several parameters with one product.
    """

    __slots__ = ("adam_m", "adam_v", "step_count")

    def __init__(self, data, grad: np.ndarray | None = None):
        super().__init__(data, needs_grad=True)
        self.grad = np.zeros_like(self.data) if grad is None else grad
        self.adam_m = np.zeros_like(self.data)
        self.adam_v = np.zeros_like(self.data)
        self.step_count = 0


def _record(data, parents: tuple, bw) -> Tensor:
    """The op's result, on the tape if grad is on and some parent needs grad."""
    if _grad_enabled and any(p.needs_grad for p in parents):
        return Tensor(data, parents, bw, True)
    return Tensor(data)


def _acc(t: Tensor, g: np.ndarray, own: bool = False) -> None:
    # own=True means g is a fresh array the closure built and may hand over.
    if t.grad is None:
        t.grad = g if own else g.copy()
    else:
        t.grad += g


def constant(data) -> Tensor:
    return Tensor(data)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ConfigurationError(f"add: shape mismatch {a.shape} vs {b.shape}")

    def bw(g):
        if a.needs_grad:
            _acc(a, g)
        if b.needs_grad:
            _acc(b, g)

    return _record(a.data + b.data, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b for x of shape (in,) or (n, in) and w of shape (out, in)."""
    def bw(g):
        rows = g.reshape(-1, g.shape[-1])
        if w.needs_grad:
            _acc(w, rows.T @ x.data.reshape(rows.shape[0], -1), own=True)
        if b.needs_grad:
            _acc(b, rows.sum(axis=0), own=True)
        if x.needs_grad:
            _acc(x, g @ w.data, own=True)

    return _record(x.data @ w.data.T + b.data, (x, w, b), bw)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join along the last axis: vectors end to end, matrices side by side."""
    if not parts:
        raise InvalidInputError("concat of an empty sequence")

    def bw(g):
        off = 0
        for p in parts:
            n = p.data.shape[-1]
            if p.needs_grad:
                _acc(p, g[..., off:off + n])
            off += n

    return _record(np.concatenate([p.data for p in parts], axis=-1), tuple(parts), bw)


def stack_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack matrices on top of each other; a vector counts as one row."""
    if not parts:
        raise InvalidInputError("stack_rows of an empty sequence")

    def bw(g):
        off = 0
        for p in parts:
            n = 1 if p.data.ndim == 1 else p.data.shape[0]
            if p.needs_grad:
                _acc(p, g[off:off + n].reshape(p.data.shape))
            off += n

    return _record(np.vstack([p.data for p in parts]), tuple(parts), bw)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def bw(g):
        _acc(x, g * (1.0 - t * t), own=True)

    return _record(t, (x,), bw)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis (each row of a matrix separately)."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        _acc(x, p * (g - (g * p).sum(axis=-1, keepdims=True)), own=True)

    return _record(p, (x,), bw)


def scale(x: Tensor, factor: float) -> Tensor:
    def bw(g):
        _acc(x, g * factor, own=True)

    return _record(x.data * factor, (x,), bw)


def _mean_distance(pred: Tensor, target, name: str, total, slope) -> Tensor:
    tdata = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=np.float64)
    if pred.data.shape != tdata.shape:
        raise InvalidInputError(f"{name}: length mismatch {pred.shape} vs {tdata.shape}")
    d = pred.data - tdata
    n = d.size
    target_tracked = isinstance(target, Tensor) and target.needs_grad

    def bw(out_grad):
        g = slope(d) * (out_grad / n)
        if pred.needs_grad:
            _acc(pred, g, own=True)
        if target_tracked:
            _acc(target, -g, own=True)

    parents = (pred, target) if target_tracked else (pred,)
    return _record(np.asarray(total(d) / n), parents, bw)


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared componentwise difference.

    `target` may be a plain array or a detached tensor, in which case it is a
    constant; a live tensor target also receives gradient.
    """
    return _mean_distance(pred, target, "mse_loss", lambda d: np.vdot(d, d), lambda d: 2.0 * d)


def mae_loss(pred: Tensor, target) -> Tensor:
    """Mean absolute componentwise difference (subgradient 0 at ties)."""
    return _mean_distance(pred, target, "mae_loss", lambda d: np.abs(d).sum(), np.sign)


def _gold_rows(t: Tensor, gold, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Scores as an (n, k) matrix and the gold column of each row."""
    if t.data.ndim not in (1, 2):
        raise InvalidInputError(f"{what} expects a score vector or matrix")
    m = t.data.reshape(-1, t.data.shape[-1])
    gold = np.asarray(gold, dtype=np.intp).reshape(-1)
    if gold.shape != (m.shape[0],):
        raise InvalidInputError(f"{what}: {gold.shape[0]} gold indices for {m.shape[0]} rows")
    if np.any((gold < 0) | (gold >= m.shape[1])):
        raise InvalidInputError(f"gold index out of range for {m.shape[1]} classes")
    return m, gold


def margin_loss(scores: Tensor, gold) -> Tensor:
    """Hinge loss max(0, 1 - score[gold] + best competitor score), row mean.

    `scores` is a score vector with one gold index, or an (n, k) matrix with
    one gold index per row. A row is zero (with zero gradient) once its gold
    score leads by at least 1. With a single class there is no competitor
    and the loss is 0.
    """
    s, gold = _gold_rows(scores, gold, "margin_loss")
    n, k = s.shape
    rows = np.arange(n)
    masked = s.copy()
    masked[rows, gold] = -np.inf
    best_other = np.argmax(masked, axis=1)
    margins = 1.0 - s[rows, gold] + s[rows, best_other]
    active = (margins > 0.0) & (k > 1)

    def bw(out_grad):
        c = out_grad / n
        g = np.zeros_like(s)
        g[rows[active], gold[active]] = -c
        g[rows[active], best_other[active]] = c
        _acc(scores, g.reshape(scores.data.shape), own=True)

    return _record(np.asarray(margins[active].sum() / n), (scores,), bw)


def nll_loss(probs: Tensor, gold) -> Tensor:
    """Negative log of the gold probability, row mean (pair with a softmax).

    `probs` is one distribution with one gold index, or an (n, k) matrix with
    one gold index per row.
    """
    p, gold = _gold_rows(probs, gold, "nll_loss")
    n = p.shape[0]
    rows = np.arange(n)
    pg = np.maximum(p[rows, gold], 1e-30)

    def bw(out_grad):
        g = np.zeros_like(p)
        g[rows, gold] = -out_grad / (n * pg)
        _acc(probs, g.reshape(probs.data.shape), own=True)

    return _record(np.asarray(-np.log(pg).sum() / n), (probs,), bw)


def glorot_uniform(rng: np.random.Generator, out_size: int, in_size: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (in_size + out_size))
    return rng.uniform(-limit, limit, size=(out_size, in_size))


_ACTIVATIONS = ("tanh", "softmax", "identity")


class DenseLayer:
    """Fully connected layer: activation(W x + b) for a vector or each matrix row."""

    def __init__(self, in_size: int, out_size: int, activation: str,
                 rng: np.random.Generator):
        if in_size < 1 or out_size < 1:
            raise ConfigurationError("DenseLayer sizes must be positive")
        if activation not in _ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {activation!r}")
        self.in_size = in_size
        self.out_size = out_size
        self.activation = activation
        self.weights = Parameter(glorot_uniform(rng, out_size, in_size))
        self.bias = Parameter(np.zeros(out_size))

    def forward(self, x: Tensor) -> Tensor:
        if x.data.shape[-1:] != (self.in_size,):
            raise ConfigurationError(
                f"DenseLayer expects rows of length {self.in_size}, got {x.shape}")
        z = linear(x, self.weights, self.bias)
        if self.activation == "tanh":
            return tanh(z)
        if self.activation == "softmax":
            return softmax(z)
        return z

    __call__ = forward

    def named_parameters(self, prefix: str = ""):
        yield prefix + "weights", self.weights
        yield prefix + "bias", self.bias


class LstmCell:
    """One LSTM direction with its four gates stacked as one [4H, X+H] map.

    Row blocks of `weight` and `bias` are the gates in GATES order, each an
    affine map over [x; h_prev]. Every gate's weight and bias is also a
    Parameter whose data and grad are views of its block, so Adam and the
    checkpoint see one named array per gate. Forget-gate bias starts at 1.0
    so early training does not wipe the cell state.
    """

    GATES = ("input", "forget", "output", "candidate")

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        if input_size < 1 or hidden_size < 1:
            raise ConfigurationError("LstmCell sizes must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        h, z = hidden_size, input_size + hidden_size
        self.weight = np.empty((4 * h, z))
        self.bias = np.zeros(4 * h)
        self.weight_grad = np.zeros_like(self.weight)
        self.bias_grad = np.zeros_like(self.bias)
        for k, gate in enumerate(self.GATES):
            block = slice(k * h, (k + 1) * h)
            # one Glorot draw per gate, in GATES order, as separate gate
            # matrices would draw them: seeded checkpoints keep their bytes
            self.weight[block] = glorot_uniform(rng, h, z)
            setattr(self, f"w_{gate}", Parameter(self.weight[block], self.weight_grad[block]))
            setattr(self, f"b_{gate}", Parameter(self.bias[block], self.bias_grad[block]))
        self.b_forget.data[...] = 1.0

    def run(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Hidden states for the rows of x (n, X), plus what `backprop` needs."""
        h_size, n = self.hidden_size, x.shape[0]
        w_h = self.weight[:, self.input_size:]
        # all input projections in one product; row t becomes step t's gates
        gates = x @ self.weight[:, :self.input_size].T + self.bias
        hs = np.empty((n, h_size))
        cs = np.empty((n, h_size))
        h = np.zeros(h_size)
        c = np.zeros(h_size)
        sig = slice(0, 3 * h_size)
        for t in range(n):
            z = gates[t]
            z += w_h @ h
            expit(z[sig], out=z[sig])
            np.tanh(z[3 * h_size:], out=z[3 * h_size:])
            c = z[h_size:2 * h_size] * c + z[:h_size] * z[3 * h_size:]
            h = z[2 * h_size:3 * h_size] * np.tanh(c)
            hs[t] = h
            cs[t] = c
        return hs, (x, gates, cs, hs)

    def backprop(self, cache: tuple, d_hs: np.ndarray, need_dx: bool) -> np.ndarray | None:
        """Backpropagation through time for one `run`.

        Adds the weight and bias gradients of the whole sequence into the
        stacked gradient arrays and returns the gradient for x, if asked.
        """
        x, gates, cs, hs = cache
        n, h_size = hs.shape
        i, f, o, g = (gates[:, k * h_size:(k + 1) * h_size] for k in range(4))
        tc = np.tanh(cs)
        c_prev = np.vstack((np.zeros(h_size), cs[:-1]))
        h_prev = np.vstack((np.zeros(h_size), hs[:-1]))
        # d(gate pre-activation) / d(gate output), and d h / d c through tanh
        slope = np.hstack((i * (1.0 - i), f * (1.0 - f), o * (1.0 - o), 1.0 - g * g))
        dc_from_h = o * (1.0 - tc * tc)
        w_h = self.weight[:, self.input_size:]
        dz = np.empty_like(gates)
        dh = np.zeros(h_size)
        dc = np.zeros(h_size)
        for t in range(n - 1, -1, -1):
            dh = dh + d_hs[t]
            dc = dc + dh * dc_from_h[t]
            row = dz[t]
            row[:h_size] = dc * g[t]
            row[h_size:2 * h_size] = dc * c_prev[t]
            row[2 * h_size:3 * h_size] = dh * tc[t]
            row[3 * h_size:] = dc * i[t]
            row *= slope[t]
            dc = dc * f[t]
            dh = row @ w_h
        self.weight_grad += dz.T @ np.hstack((x, h_prev))
        self.bias_grad += dz.sum(axis=0)
        return dz @ self.weight[:, :self.input_size] if need_dx else None

    def named_parameters(self, prefix: str = ""):
        for gate_name in self.GATES:
            yield f"{prefix}w_{gate_name}", getattr(self, f"w_{gate_name}")
            yield f"{prefix}b_{gate_name}", getattr(self, f"b_{gate_name}")


class BiEncoder:
    """Two LSTMs reading a sequence in opposite directions, outputs side by side."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.forward_cell = LstmCell(input_size, hidden_size, rng)
        self.reverse_cell = LstmCell(input_size, hidden_size, rng)
        self._params = tuple(p for _, p in self.named_parameters())

    @property
    def output_size(self) -> int:
        return 2 * self.hidden_size

    def encode(self, x: Tensor) -> Tensor:
        """Row t of the (n, 2H) result is [forward state t; reverse state t].

        The forward direction's final state is the last row's first half,
        the reverse direction's is the first row's second half. Under grad
        the whole encoder is one tape node.
        """
        if x.data.ndim != 2 or x.data.shape[1] != self.input_size:
            raise ConfigurationError(
                f"BiEncoder expects an (n, {self.input_size}) matrix, got {x.shape}")
        if x.data.shape[0] == 0:
            raise InvalidInputError("BiEncoder.encode on an empty sequence")
        fwd, fwd_cache = self.forward_cell.run(x.data)
        rev, rev_cache = self.reverse_cell.run(x.data[::-1])
        h = self.hidden_size

        def bw(g):
            dx = self.forward_cell.backprop(fwd_cache, g[:, :h], x.needs_grad)
            dx_rev = self.reverse_cell.backprop(rev_cache, g[::-1, h:], x.needs_grad)
            if x.needs_grad:
                _acc(x, dx + dx_rev[::-1], own=True)

        return _record(np.hstack((fwd, rev[::-1])), (x,) + self._params, bw)

    def named_parameters(self, prefix: str = ""):
        yield from self.forward_cell.named_parameters(prefix + "forward.")
        yield from self.reverse_cell.named_parameters(prefix + "reverse.")


def adam_step(params: Iterable, lr: float = 0.001, beta1: float = 0.9,
              beta2: float = 0.999, epsilon: float = 1e-8) -> None:
    """One Adam update with bias correction; gradients are reset to zero.

    `params` yields (name, Parameter) pairs. Any non-finite gradient fails
    the whole step before any value changes.
    """
    items = list(params)
    for name, p in items:
        if not np.all(np.isfinite(p.grad)):
            raise NonFiniteError(f"non-finite gradient in parameter {name!r}")
    for _, p in items:
        p.step_count += 1
        t = p.step_count
        p.adam_m *= beta1
        p.adam_m += (1.0 - beta1) * p.grad
        p.adam_v *= beta2
        p.adam_v += (1.0 - beta2) * (p.grad * p.grad)
        m_hat = p.adam_m / (1.0 - beta1 ** t)
        v_hat = p.adam_v / (1.0 - beta2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + epsilon)
        p.grad[...] = 0.0
