"""The per-vector tape path the package used before its sentence-matrix core.

Test-only reference. Every op works on single vectors, each LSTM step is
built from about 18 tape nodes, and the losses loop over tokens. `RefModel`
copies a `LhrModel`'s parameter arrays by name and keeps its own gradients,
so the two paths can be compared value for value and gradient for gradient.
It reuses only the tape machinery (`Tensor`, `Parameter`, `backward`) of
`latentheads.nn`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

from latentheads.nn import Parameter, Tensor
from latentheads.tokens import drop_probability


def _acc(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def _node(data, parents, bw_fn) -> Tensor:
    """A recorded node whose backward calls bw_fn(out_grad)."""
    return Tensor(data, tuple(parents), bw_fn, True)


def add(a, b):
    def bw(g):
        for t in (a, b):
            if t.needs_grad:
                _acc(t, g)
    return _node(a.data + b.data, (a, b), bw)


def mul(a, b):
    def bw(g):
        if a.needs_grad:
            _acc(a, g * b.data)
        if b.needs_grad:
            _acc(b, g * a.data)
    return _node(a.data * b.data, (a, b), bw)


def matvec(w, x):
    def bw(g):
        if w.needs_grad:
            _acc(w, np.outer(g, x.data))
        if x.needs_grad:
            _acc(x, w.data.T @ g)
    return _node(w.data @ x.data, (w, x), bw)


def concat(parts):
    sizes = [p.data.shape[0] for p in parts]

    def bw(g):
        off = 0
        for p, n in zip(parts, sizes):
            if p.needs_grad:
                _acc(p, g[off:off + n])
            off += n
    return _node(np.concatenate([p.data for p in parts]), parts, bw)


def tanh(x):
    t = np.tanh(x.data)
    return _node(t, (x,), lambda g: _acc(x, g * (1.0 - t * t)))


def sigmoid(x):
    s = expit(x.data)
    return _node(s, (x,), lambda g: _acc(x, g * s * (1.0 - s)))


def softmax(x):
    e = np.exp(x.data - x.data.max())
    p = e / e.sum()
    return _node(p, (x,), lambda g: _acc(x, p * (g - np.dot(g, p))))


def row(table, index):
    def bw(g):
        table.grad[index] += g
    return _node(table.data[index].copy(), (table,), bw)


def scale(x, factor):
    return _node(x.data * factor, (x,), lambda g: _acc(x, g * factor))


def mean_of(terms):
    tracked = [t for t in terms if t.needs_grad]
    value = math.fsum(float(t.data) for t in terms) / len(terms)
    if not tracked:
        return Tensor(value)
    inv = 1.0 / len(terms)

    def bw(g):
        for t in tracked:
            _acc(t, g * inv)
    return _node(np.asarray(value), tracked, bw)


def _distance(pred, target, value_fn, slope_fn):
    tdata = target.data if isinstance(target, Tensor) else np.asarray(target)
    d = pred.data - tdata
    n = d.size
    live = isinstance(target, Tensor) and target.needs_grad

    def bw(g):
        grad = slope_fn(d) * (g / n)
        _acc(pred, grad)
        if live:
            _acc(target, -grad)
    return _node(np.asarray(value_fn(d) / n), (pred, target) if live else (pred,), bw)


def mse_loss(pred, target):
    return _distance(pred, target, lambda d: np.vdot(d, d), lambda d: 2.0 * d)


def mae_loss(pred, target):
    return _distance(pred, target, lambda d: np.abs(d).sum(), np.sign)


def margin_loss(scores, gold):
    s = scores.data
    if s.shape[0] == 1:
        return Tensor(0.0)
    masked = s.copy()
    masked[gold] = -np.inf
    best = int(np.argmax(masked))
    value = 1.0 - s[gold] + s[best]
    if value <= 0.0:
        return Tensor(0.0)

    def bw(g):
        vec = np.zeros_like(s)
        vec[gold] = -g
        vec[best] = g
        _acc(scores, vec)
    return _node(np.asarray(value), (scores,), bw)


def nll_loss(probs, gold):
    pg = max(float(probs.data[gold]), 1e-30)

    def bw(g):
        vec = np.zeros_like(probs.data)
        vec[gold] = -float(g) / pg
        _acc(probs, vec)
    return _node(np.asarray(-math.log(pg)), (probs,), bw)


class RefModel:
    """A model's parameters as copies, driven through the per-vector path."""

    def __init__(self, model):
        self.model = model
        self.params = {name: Parameter(p.data.copy()) for name, p in model.named_parameters()}

    # ------------------------------------------------------------- layers

    def dense(self, prefix, x, activation):
        z = add(matvec(self.params[prefix + "weights"], x), self.params[prefix + "bias"])
        if activation == "tanh":
            return tanh(z)
        if activation == "softmax":
            return softmax(z)
        return z

    def lstm_step(self, prefix, x, h_prev, c_prev):
        p = self.params
        xh = concat((x, h_prev))

        def gate(name, act):
            return act(add(matvec(p[f"{prefix}w_{name}"], xh), p[f"{prefix}b_{name}"]))

        i = gate("input", sigmoid)
        f = gate("forget", sigmoid)
        o = gate("output", sigmoid)
        cand = gate("candidate", tanh)
        c = add(mul(f, c_prev), mul(i, cand))
        return mul(o, tanh(c)), c

    def run(self, prefix, xs):
        size = self.params[prefix + "b_input"].data.shape[0]
        h, c = Tensor(np.zeros(size)), Tensor(np.zeros(size))
        states = []
        for x in xs:
            h, c = self.lstm_step(prefix, x, h, c)
            states.append(h)
        return states

    def bi_encode(self, prefix, xs):
        fwd = self.run(prefix + "forward.", xs)
        rev = self.run(prefix + "reverse.", list(reversed(xs)))
        outputs = [concat((f, r)) for f, r in zip(fwd, reversed(rev))]
        return outputs, fwd[-1], rev[-1]

    # ------------------------------------------------------------ encoder

    def token_vectors(self, sentence, training, rng):
        te = self.model.token_encoder
        words = self.params["token_encoder.words.vectors"]
        out = []
        for tok in sentence.tokens:
            key = tok.form.lower()
            index = te.word_vocab.index_of(key)
            if training:
                p = drop_probability(te.word_vocab.count(key), te.config.alpha_word_dropout)
                if p > 0.0 and rng.random() < p:
                    index = te.word_vocab.unknown_index
            word_vec = row(words, index)
            if te.pos_table is not None:
                other = row(self.params["token_encoder.pos.vectors"],
                            te.pos_vocab.index_of(tok.predicted_pos))
            else:
                other = self.char_vector(tok.form)
            out.append(concat((word_vec, other)))
        return out

    def char_vector(self, word):
        ce = self.model.token_encoder.char_encoder
        if not word:
            return Tensor(np.zeros(ce.out_dim))
        table = self.params["token_encoder.char.chars.vectors"]
        chars = [row(table, ce.char_table.vocab.index_of(ch)) for ch in word]
        _, final_fwd, final_rev = self.bi_encode("token_encoder.char.birnn.", chars)
        return self.dense("token_encoder.char.projection.", concat((final_fwd, final_rev)),
                          "identity")

    def encode_sentence(self, sentence, training=False, rng=None):
        embeddings = self.token_vectors(sentence, training, rng)
        context, _, _ = self.bi_encode("context_encoder.", embeddings)
        raw, _, _ = self.bi_encode("heads_encoder.", context)
        heads = [self.dense("head_reducer.", r, "tanh") for r in raw]
        return context, heads

    # ------------------------------------------------------------- losses

    def reconstruction_loss(self, sentence, context, heads, cfg):
        term_loss = mse_loss if cfg.loss == "mse" else mae_loss
        terms = []
        for i, tok in enumerate(sentence.tokens):
            if cfg.skip_punct_heads and tok.is_punct:
                continue
            g = tok.gold_head
            if g == 0:
                target = context[i].data if cfg.root_target == "self" \
                    else self.params["root_vector"].data
            elif cfg.rebalance_targets:
                target = context[g - 1]
            else:
                target = context[g - 1].data
            terms.append(term_loss(heads[i], target))
        return mean_of(terms) if terms else Tensor(0.0)

    def labeler_loss(self, sentence, context):
        m = self.model
        out_act = "softmax" if m.config.labeler_softmax else "identity"
        term_loss = nll_loss if m.config.labeler_softmax else margin_loss
        terms = []
        for i, tok in enumerate(sentence.tokens):
            g = tok.gold_head
            governor = self.params["root_vector"] if g == 0 else context[g - 1]
            hidden = self.dense("labeler.shared.", concat((context[i], governor)), "tanh")
            label_scores = self.dense("labeler.label.", hidden, out_act)
            pos_scores = self.dense("labeler.pos.", hidden, out_act)
            terms.append(add(term_loss(label_scores, m.label_vocab.strict_index(tok.gold_label)),
                             term_loss(pos_scores, m.pos_vocab.index_of(tok.gold_pos))))
        return mean_of(terms)

    def sentence_loss(self, sentence, cfg, training=False, rng=None):
        context, heads = self.encode_sentence(sentence, training, rng)
        total = self.reconstruction_loss(sentence, context, heads, cfg)
        parts = {"reconstruction": float(total.data)}
        if cfg.use_labeler and cfg.labeler_weight > 0:
            lab = self.labeler_loss(sentence, context)
            parts["labeler"] = float(lab.data)
            if cfg.labeler_weight != 1.0:
                lab = scale(lab, cfg.labeler_weight)
            total = add(total, lab)
        parts["total"] = float(total.data)
        return total, parts
