"""Per-sentence training loop for the latent-heads model.

Each sentence contributes a reconstruction loss (latent head vs the gold
governor's context vector) and, optionally, the arc classifier's label and
POS losses over the gold arcs. Updates are unbatched: one Adam step per
sentence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import decoder, nn
from .conll import Sentence, Treebank
from .errors import ConfigurationError, InvalidInputError
from .evaluation import evaluate
from .model import EncodedSentence, LhrModel

LOSSES = ("mse", "mae")
ROOT_TARGETS = ("root_vector", "self")


@dataclass
class TrainConfig:
    epochs: int = 20
    lr: float = 0.001
    loss: str = "mse"
    use_labeler: bool = True
    labeler_weight: float = 1.0
    root_target: str = "root_vector"
    rebalance_targets: bool = False
    skip_punct_heads: bool = False
    shuffle: bool = True
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be positive, got {self.epochs}")
        if self.lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {self.lr}")
        if self.loss not in LOSSES:
            raise ConfigurationError(f"unknown loss {self.loss!r}, expected one of {LOSSES}")
        if self.root_target not in ROOT_TARGETS:
            raise ConfigurationError(
                f"unknown root target {self.root_target!r}, expected one of {ROOT_TARGETS}")
        if self.labeler_weight < 0:
            raise ConfigurationError("labeler weight must be non-negative")


def _gold_head(tok) -> int:
    if tok.gold_head is None:
        raise InvalidInputError(
            f"token {tok.index} ({tok.form!r}) has no gold head; training needs "
            "fully annotated trees")
    return tok.gold_head


def _reconstruction_targets(model: LhrModel, sentence: Sentence, enc: EncodedSentence,
                            cfg: TrainConfig, overrides) -> list[tuple]:
    """(token row, target, live governor row or None) per token the loss keeps.

    Punctuation drops out under skip_punct_heads. A root-governed token
    targets the root vector, or with root_target "self" its own context
    vector; any other token targets its gold governor's context vector, whose
    gradient stays live under rebalance_targets. `overrides` (by token
    position) replaces a target with a constant.
    """
    context = enc.context_vectors.data
    out = []
    for i, tok in enumerate(sentence.tokens):
        if cfg.skip_punct_heads and tok.is_punct:
            continue
        g = _gold_head(tok)
        if i in overrides:
            out.append((i, overrides[i], None))
        elif g == 0:
            out.append((i, context[i] if cfg.root_target == "self" else model.root_vector.data,
                        None))
        else:
            out.append((i, context[g - 1], g - 1 if cfg.rebalance_targets else None))
    return out


def reconstruction_loss(model: LhrModel, sentence: Sentence, enc: EncodedSentence,
                        cfg: TrainConfig, target_overrides=None) -> nn.Tensor:
    """Mean distance between each latent head and its gold governor.

    Targets are detached by default so each token only moves its own latent
    head toward the governor; rebalance_targets lets the gradient also pull
    the governor's context vector toward the prediction. Tokens governed by
    the root reconstruct either the root vector or their own context vector,
    always as a constant: the root vector learns from the labeler alone.

    `target_overrides` replaces individual targets with fixed arrays (by
    token position); derivative checks use it to hold the detached targets
    constant while parameters are perturbed.
    """
    term_loss = nn.mse_loss if cfg.loss == "mse" else nn.mae_loss
    plan = _reconstruction_targets(model, sentence, enc, cfg, target_overrides or {})
    if not plan:
        return nn.constant(0.0)
    rows, targets, governors = zip(*plan)
    target = np.array(targets)
    live = [k for k, g in enumerate(governors) if g is not None]
    if live:
        # rows past len(plan) of the table are the live context vectors
        index = np.arange(len(plan))
        index[live] = len(plan) + np.array([governors[k] for k in live])
        target = nn.stack_rows((nn.constant(target), enc.context_vectors))[index]
    return term_loss(enc.latent_heads[np.array(rows)], target)


def capture_targets(model: LhrModel, sentence: Sentence, enc: EncodedSentence,
                    cfg: TrainConfig) -> dict[int, np.ndarray]:
    """Constant copies of every reconstruction target the loss detaches.

    Keyed by token position. Feeding the result back through
    `target_overrides` makes the loss, as a function of the parameters,
    exactly the one the backward pass differentiates, which is the right
    point of comparison for finite differences.
    """
    return {i: target.copy()
            for i, target, governor in _reconstruction_targets(model, sentence, enc, cfg, {})
            if governor is None}


def labeler_loss(model: LhrModel, sentence: Sentence, enc: EncodedSentence) -> nn.Tensor:
    """Mean per-token classification loss over the gold arcs.

    Hinge loss on raw scores, or negative log likelihood when the model was
    built with softmax outputs. Governor context vectors stay live here, so
    this loss reaches the context encoder and the root vector.
    """
    heads, label_gold, pos_gold = [], [], []
    for tok in sentence.tokens:
        heads.append(_gold_head(tok))
        if tok.gold_label is None:
            raise InvalidInputError(
                f"token {tok.index} ({tok.form!r}) has no arc label; disable the "
                "labeler or train on labeled trees")
        li = model.label_vocab.strict_index(tok.gold_label)
        if li is None:
            raise InvalidInputError(
                f"label {tok.gold_label!r} is not in the model's label inventory")
        label_gold.append(li)
        pos_gold.append(model.pos_vocab.index_of(tok.gold_pos))
    context = enc.context_vectors
    label_scores, pos_scores = model.score_label_pos(
        context, model.governor_vectors(context, heads))
    term_loss = nn.nll_loss if model.config.labeler_softmax else nn.margin_loss
    return nn.add(term_loss(label_scores, label_gold), term_loss(pos_scores, pos_gold))


def sentence_loss(model: LhrModel, sentence: Sentence, cfg: TrainConfig,
                  training: bool = False, rng: np.random.Generator | None = None,
                  target_overrides=None) -> tuple[nn.Tensor, dict]:
    """Scalar loss for one sentence plus a float breakdown by component."""
    enc = model.encode_sentence(sentence, training=training, rng=rng)
    recon = reconstruction_loss(model, sentence, enc, cfg, target_overrides)
    parts = {"reconstruction": float(recon.data)}
    total = recon
    if cfg.use_labeler and cfg.labeler_weight > 0:
        lab = labeler_loss(model, sentence, enc)
        parts["labeler"] = float(lab.data)
        if cfg.labeler_weight != 1.0:
            lab = nn.scale(lab, cfg.labeler_weight)
        total = nn.add(total, lab)
    parts["total"] = float(total.data)
    return total, parts


def train_sentence(model: LhrModel, sentence: Sentence, cfg: TrainConfig,
                   rng: np.random.Generator, params) -> dict:
    """One gradient step on one sentence; returns the loss breakdown.

    `params` is the model's named_parameters(), taken once per run.
    """
    total, parts = sentence_loss(model, sentence, cfg, training=True, rng=rng)
    if total.needs_grad:
        total.backward()
        nn.adam_step(params, lr=cfg.lr)
    return parts


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_uas: float | None = None
    dev_las: float | None = None


@dataclass
class TrainReport:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int | None = None
    best_uas: float | None = None

    def save_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch\ttrain_loss\tdev_uas\tdev_las\n")
            for r in self.records:
                uas = "" if r.dev_uas is None else f"{r.dev_uas:.6f}"
                las = "" if r.dev_las is None else f"{r.dev_las:.6f}"
                fh.write(f"{r.epoch}\t{r.train_loss:.6f}\t{uas}\t{las}\n")


def train(model: LhrModel, train_tb: Treebank, cfg: TrainConfig,
          dev_tb: Treebank | None = None,
          log: Callable[[str], None] | None = None) -> TrainReport:
    """Run the full loop; with a dev set, finish on the best-UAS weights.

    Shuffling and word dropout draw from one generator seeded by cfg.seed, so
    a rerun with the same data and seed reproduces the same model.
    """
    cfg.validate()
    if not train_tb.sentences:
        raise InvalidInputError("training treebank is empty")
    rng = np.random.default_rng(cfg.seed)
    params = model.named_parameters()
    report = TrainReport()
    best_weights = None
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_tb.sentences)) if cfg.shuffle \
            else np.arange(len(train_tb.sentences))
        epoch_loss = 0.0
        for idx in order:
            parts = train_sentence(model, train_tb.sentences[idx], cfg, rng, params)
            epoch_loss += parts["total"]
        record = EpochRecord(epoch=epoch, train_loss=epoch_loss / len(order))
        if dev_tb is not None:
            trees = [decoder.parse(model, s) for s in dev_tb.sentences]
            result = evaluate(dev_tb, trees)
            record.dev_uas = result.uas
            record.dev_las = result.las
            if report.best_uas is None or result.uas > report.best_uas:
                report.best_uas = result.uas
                report.best_epoch = epoch
                best_weights = {name: p.data.copy() for name, p in params}
        report.records.append(record)
        if log is not None:
            msg = f"epoch {epoch}: loss {record.train_loss:.4f}"
            if record.dev_uas is not None:
                msg += f"  dev UAS {record.dev_uas:.4f}  LAS {record.dev_las:.4f}"
            log(msg)
    if best_weights is not None:
        for name, p in params:
            p.data[...] = best_weights[name]
    return report
