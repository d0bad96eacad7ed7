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
import weakref
from typing import Iterator, Sequence

import numpy as np

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
        self.data = np.asarray(data, dtype=np.float64)
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

        The loss must be a scalar produced by a recorded forward pass. Each
        node leaves the walk and is released as soon as its closure has run
        (closure, graph edges and gradient dropped, so its data and a BiLSTM's
        caches go with it), and a second backward on the same graph raises.
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
        while topo:  # popped: once its consumers have run, nothing reads the node again
            node = topo.pop()
            if node._bw is not None:
                node._bw(node.grad)
                node._bw, node._parents = None, ()
                if node is not self:
                    node.grad = None
        self._released = True

    def __repr__(self):
        return f"Tensor(shape={self.shape}, needs_grad={self.needs_grad})"


class Parameter(Tensor):
    """Trainable tensor of one `Parameters` set; its `grad` is made by the set's arena.

    The first read of `grad` builds the arena (see `Parameters.ensure_arena`),
    which makes `data` and `grad` views of it. A member refers to its set
    weakly, so that a model's weights are freed as soon as the model is; the
    modules that declare parameters keep their set. A Parameter made on its
    own is the only member of a set of its own, which it keeps.
    """

    __slots__ = ("_grad", "_owner", "_own_set")

    def __init__(self, data, owner: Parameters | None = None):
        super().__init__(data, needs_grad=True)
        self._own_set = None
        if owner is None:
            owner = self._own_set = Parameters(None)
            owner.named.append(("", self))
        self._owner = weakref.ref(owner)

    @property
    def owner(self) -> Parameters:
        owner = self._owner()
        if owner is None:
            raise UsageError("this parameter's Parameters set was freed; keep the set "
                             "or a module declared with it while training")
        return owner

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self.owner.ensure_arena()
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        self._grad = value


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
    """x @ w.T + b for x of shape (n, in) and w of shape (out, in)."""
    if x.data.ndim != 2:
        raise InvalidInputError(f"linear expects an (n, in) matrix, got {x.shape}")

    def bw(g):
        if w.needs_grad:
            _acc(w, g.T @ x.data, own=True)
        if b.needs_grad:
            _acc(b, g.sum(axis=0), own=True)
        if x.needs_grad:
            _acc(x, g @ w.data, own=True)

    return _record(x.data @ w.data.T + b.data, (x, w, b), bw)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Join matrices along `axis`: side by side (-1) or on top of each other (0)."""
    if not parts or any(p.data.ndim != 2 for p in parts):
        raise InvalidInputError("concat expects a non-empty sequence of matrices")

    def bw(g):
        ends = np.cumsum([p.data.shape[axis] for p in parts[:-1]])
        for p, piece in zip(parts, np.split(g, ends, axis=axis)):
            if p.needs_grad:
                _acc(p, piece)

    return _record(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bw)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def bw(g):
        _acc(x, g * (1.0 - t * t), own=True)

    return _record(t, (x,), bw)


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
    """The (n, k) score matrix and the gold column of each row."""
    gold = np.asarray(gold, dtype=np.intp)
    if t.data.ndim != 2 or gold.shape != t.data.shape[:1]:
        raise InvalidInputError(f"{what} expects an (n, k) score matrix and n gold indices, "
                                f"got shapes {t.shape} and {gold.shape}")
    if np.any((gold < 0) | (gold >= t.data.shape[1])):
        raise InvalidInputError(f"gold index out of range for {t.data.shape[1]} classes")
    return t.data, gold


def margin_loss(scores: Tensor, gold) -> Tensor:
    """Hinge loss max(0, 1 - score[gold] + best competitor score), row mean.

    `scores` is an (n, k) matrix with one gold index per row. A row is zero
    (with zero gradient) once its gold score leads by at least 1. With a
    single class there is no competitor and the loss is 0.
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
        _acc(scores, g, own=True)

    return _record(np.asarray(margins[active].sum() / n), (scores,), bw)


def cross_entropy_loss(scores: Tensor, gold) -> Tensor:
    """Negative log-softmax of the gold score, row mean.

    `scores` is an (n, k) matrix of raw scores with one gold index per row.
    The log-softmax is taken of the row-max-shifted scores, so the loss keeps
    growing linearly however far the gold score trails; a row's gradient is
    its softmax minus the gold one-hot.
    """
    s, gold = _gold_rows(scores, gold, "cross_entropy_loss")
    n = s.shape[0]
    rows = np.arange(n)
    shifted = s - s.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1)

    def bw(out_grad):
        g = e / z[:, None]
        g[rows, gold] -= 1.0
        g *= out_grad / n
        _acc(scores, g, own=True)

    return _record(np.asarray((np.log(z) - shifted[rows, gold]).sum() / n), (scores,), bw)


class Stack:
    """Parameters laid out as the row blocks of one array, as an LSTM's four gates are.

    Each member's `data` is a view of its rows of `data`. `grad` is the
    matching view of the arena's gradient, None until the arena is built.
    """

    __slots__ = ("data", "grad", "members")

    def __init__(self, data: np.ndarray):
        self.data, self.grad = data, None
        self.members: list[tuple[Parameter, slice]] = []


class Parameters:
    """A model's weights, each declared once by name; creation order is checkpoint order.

    Iterating the set yields its (name, Parameter) pairs in that order. `array`
    is the only place a weight is drawn: "glorot" for an (out, in) matrix,
    "uniform" in +-0.05, "zeros" or "ones". A loader overrides it.

    Training state lives in `arena`, a (4, size) array whose rows hold the
    weights, their gradients and Adam's two moments. The first gradient read
    builds it, so loading and parsing never do. Each of `stacks`, and each
    parameter outside one, gets a stretch of every row, in declaration order
    and in its own memory layout; every weight and gradient is then a view of
    rows 0 and 1. `steps` counts the Adam updates.
    """

    def __init__(self, rng: np.random.Generator | None):
        self.rng = rng
        self.named: list[tuple[str, Parameter]] = []
        self.stacks: list[Stack] = []
        self.arena: np.ndarray | None = None
        self.steps = 0

    def __iter__(self) -> Iterator[tuple[str, Parameter]]:
        return iter(self.named)

    def array(self, name: str, shape: tuple, init: str) -> np.ndarray:
        if init in ("glorot", "uniform"):
            limit = math.sqrt(6.0 / sum(shape)) if init == "glorot" else 0.05
            return self.rng.uniform(-limit, limit, size=shape)
        return {"zeros": np.zeros, "ones": np.ones}[init](shape)

    def new(self, name: str, shape: tuple, init: str) -> Parameter:
        if self.arena is not None:
            raise UsageError(f"parameter {name!r} declared after training built the arena")
        p = Parameter(self.array(name, shape, init), self)
        self.named.append((name, p))
        return p

    def stack(self, members: Sequence[Parameter]) -> Stack:
        """Copy `members` into the row blocks of one new column-major array, each `data`
        a view of its rows."""
        rows = sum(len(p.data) for p in members)
        stack = Stack(np.empty((rows,) + members[0].data.shape[1:], order="F"))
        start = 0
        for p in members:
            block = slice(start, start + len(p.data))
            stack.data[block] = p.data
            p.data = stack.data[block]
            stack.members.append((p, block))
            start = block.stop
        self.stacks.append(stack)
        return stack

    def ensure_arena(self) -> np.ndarray:
        """The arena, built on the first call from the weights where they are."""
        if self.arena is None:
            stack_of = {id(p): stack for stack in self.stacks for p, _ in stack.members}
            units = list(dict.fromkeys(stack_of.get(id(p), p) for _, p in self.named))
            self.arena = np.zeros((4, sum(u.data.size for u in units)))
            start = 0
            for u in units:
                stop = start + u.data.size
                order = "C" if u.data.flags.c_contiguous else "F"
                data, grad = (row[start:stop].reshape(u.data.shape, order=order)
                              for row in self.arena[:2])
                data[...] = u.data
                u.data, u.grad = data, grad
                for p, block in u.members if isinstance(u, Stack) else ():
                    p.data, p.grad = data[block], grad[block]
                start = stop
        return self.arena


_ACTIVATIONS = ("tanh", "identity")


class DenseLayer:
    """Fully connected layer: activation(W x + b) for each row of an (n, in) matrix."""

    def __init__(self, in_size: int, out_size: int, activation: str,
                 params: Parameters, prefix: str = ""):
        if in_size < 1 or out_size < 1:
            raise ConfigurationError("DenseLayer sizes must be positive")
        if activation not in _ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {activation!r}")
        self.in_size = in_size
        self.activation = activation
        self.params = params
        self.weights = params.new(prefix + "weights", (out_size, in_size), "glorot")
        self.bias = params.new(prefix + "bias", (out_size,), "zeros")

    def forward(self, x: Tensor) -> Tensor:
        if x.data.ndim != 2 or x.data.shape[1] != self.in_size:
            raise ConfigurationError(
                f"DenseLayer expects an (n, {self.in_size}) matrix, got {x.shape}")
        z = linear(x, self.weights, self.bias)
        return tanh(z) if self.activation == "tanh" else z

    __call__ = forward


class LstmCell:
    """One LSTM direction with its four gates stacked as one [4H, X+H] map.

    Row blocks of `weight` and `bias` are the gates in GATES order, each an
    affine map over [x; h_prev]. Every gate's weight and bias is declared as
    a Parameter and is a row view of its `Stack`, so Adam and the checkpoint
    see one named array per gate. `weight` is column-major, so its recurrent
    block `weight[:, X:]`, read once per step, and the input block's
    transpose are contiguous. Forget-gate bias starts at 1.0 so early
    training does not wipe the cell state.
    """

    GATES = ("input", "forget", "output", "candidate")

    def __init__(self, input_size: int, hidden_size: int, params: Parameters, prefix: str = ""):
        if input_size < 1 or hidden_size < 1:
            raise ConfigurationError("LstmCell sizes must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        h, z = hidden_size, input_size + hidden_size
        self.params = params
        gates = [(params.new(f"{prefix}w_{gate}", (h, z), "glorot"),
                  params.new(f"{prefix}b_{gate}", (h,), "ones" if gate == "forget" else "zeros"))
                 for gate in self.GATES]
        self.gates = gates
        self.stacks = (params.stack([w for w, _ in gates]),
                       params.stack([b for _, b in gates]))
        self._written = -1  # the Adam step whose gradient backprop last wrote
        for gate, (w, b) in zip(self.GATES, gates):
            setattr(self, f"w_{gate}", w)
            setattr(self, f"b_{gate}", b)

    @property
    def weight(self) -> np.ndarray:
        return self.stacks[0].data

    @property
    def bias(self) -> np.ndarray:
        return self.stacks[1].data

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
        # below s = -709.78, exp(-s) overflows to inf, and 1 / inf = 0 is the limit
        with np.errstate(over="ignore"):
            for t in range(n):
                z = gates[t]
                z += w_h @ h
                sig = z[:3 * h_size]  # 1 / (1 + exp(-s)), in place
                np.exp(np.negative(sig, out=sig), out=sig)
                sig += 1.0
                np.reciprocal(sig, out=sig)
                g = z[3 * h_size:]  # backprop reads the candidate, so c and h go to cs, hs
                np.tanh(g, out=g)
                c = np.multiply(z[h_size:2 * h_size], c, out=cs[t])
                c += z[:h_size] * g
                h = np.tanh(c, out=hs[t])
                h *= z[2 * h_size:3 * h_size]
        return hs, (x, gates, cs, hs)

    def backprop(self, cache: tuple, d_hs: np.ndarray, need_dx: bool) -> np.ndarray | None:
        """Backpropagation through time for one `run`.

        Writes the weight and bias gradients of the whole sequence into the
        stacks' gradients, adding to what an earlier call of this Adam step
        left there, and returns the gradient for x, if asked.
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
        self.params.ensure_arena()
        xh = np.hstack((x, h_prev))
        dw, db = self.stacks[0].grad.T, self.stacks[1].grad  # dw is C-order: [X+H, 4H]
        if self._written == self.params.steps:
            dw += xh.T @ dz
            db += dz.sum(axis=0)
        else:  # this step's first write: the stack's gradient is still zero
            np.matmul(xh.T, dz, out=dw)
            np.sum(dz, axis=0, out=db)
            self._written = self.params.steps
        return dz @ self.weight[:, :self.input_size] if need_dx else None


class BiEncoder:
    """Two LSTMs reading a sequence in opposite directions, outputs side by side."""

    def __init__(self, input_size: int, hidden_size: int, params: Parameters, prefix: str = ""):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.forward_cell = LstmCell(input_size, hidden_size, params, prefix + "forward.")
        self.reverse_cell = LstmCell(input_size, hidden_size, params, prefix + "reverse.")
        self._params = tuple(p for cell in (self.forward_cell, self.reverse_cell)
                             for gate in cell.gates for p in gate)

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


ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8
_PIECE = 1 << 14  # elements per Adam piece: a piece of each arena row stays in cache
_GRAD_LIMIT = math.sqrt(np.finfo(np.float64).max)  # about 1.34e154


def adam_step(params: Parameters, lr: float = 0.001) -> None:
    """One Adam update of the set `params`, with bias correction; gradients are reset to zero.

    A non-finite gradient, or a finite entry whose square overflows (above
    _GRAD_LIMIT), fails the whole step, naming the first parameter that holds
    one, before any value changes. The arena is then updated in pieces of
    _PIECE elements, so a piece of each of its four rows stays in cache.
    Kingma & Ba's folded form (arXiv:1412.6980, after Algorithm 1) puts both
    bias corrections in `step` and `eps`: one division.
    """
    arena = params.ensure_arena()
    with np.errstate(over="ignore", invalid="ignore"):  # one BLAS pass, no bool array
        finite = math.isfinite(arena[1] @ arena[1])
    for name, p in () if finite else params:  # a finite g @ g bounds every entry's square
        if not np.all(np.abs(p.grad) <= _GRAD_LIMIT):  # NaN fails the comparison too
            if not np.all(np.isfinite(p.grad)):
                raise NonFiniteError(f"non-finite gradient in parameter {name!r}")
            raise NonFiniteError(f"gradient entry too large in parameter {name!r}: "
                                 f"above {_GRAD_LIMIT:.4g} its square overflows")
    t = params.steps = params.steps + 1
    v_root = math.sqrt(1.0 - ADAM_BETA2 ** t)
    step, eps = lr * v_root / (1.0 - ADAM_BETA1 ** t), ADAM_EPSILON * v_root
    for start in range(0, arena.shape[1], _PIECE):
        data, grad, m, v = arena[:, start:start + _PIECE]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (grad * grad)
        data -= step * m / (np.sqrt(v) + eps)
        grad[...] = 0.0
