"""Per-sentence training loop for the latent-heads model.

Each sentence contributes a reconstruction loss (latent head vs the gold
governor's context vector) and, optionally, the arc classifier's label and
POS losses over the gold arcs. Updates are unbatched: one Adam step per
sentence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import decoder, nn
from .conll import Sentence, Treebank, output_file, tree_problem
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
    labeler_weight: float = 1.0
    root_target: str = "root_vector"
    rebalance_targets: bool = False
    skip_punct_heads: bool = False
    shuffle: bool = True
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be positive, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigurationError(f"lr must be finite and positive, got {self.lr}")
        if self.loss not in LOSSES:
            raise ConfigurationError(f"unknown loss {self.loss!r}, expected one of {LOSSES}")
        if self.root_target not in ROOT_TARGETS:
            raise ConfigurationError(
                f"unknown root target {self.root_target!r}, expected one of {ROOT_TARGETS}")
        if not (math.isfinite(self.labeler_weight) and self.labeler_weight >= 0):
            raise ConfigurationError(
                f"labeler_weight must be finite and non-negative, got {self.labeler_weight}")


def _gold_heads(sentence: Sentence) -> np.ndarray:
    """Every token's gold head; InvalidInputError unless they form one tree."""
    heads = [tok.gold_head for tok in sentence.tokens]
    missing = [tok for tok in sentence.tokens if tok.gold_head is None]
    problem = f"token {missing[0].index} ({missing[0].form!r}) has no gold head" if missing \
        else tree_problem(heads)
    if problem:
        raise InvalidInputError(f"{sentence.origin + ': ' if sentence.origin else ''}{problem}; "
                                "training needs one gold tree per sentence")
    return np.array(heads, dtype=np.intp)


def _reconstruction_targets(model: LhrModel, sentence: Sentence, enc: EncodedSentence,
                            cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(kept token rows, constant targets, live governor row or -1) of the loss.

    Punctuation drops out under skip_punct_heads. A root-governed token
    targets the root vector, or with root_target "self" its own context
    vector; any other token targets its gold governor's context vector, whose
    gradient stays live under rebalance_targets.
    """
    heads = _gold_heads(sentence)
    rows = np.flatnonzero([not (cfg.skip_punct_heads and tok.is_punct) for tok in sentence.tokens])
    kept = heads[rows]
    index = np.where(kept == 0, rows + 1, kept) if cfg.root_target == "self" else kept
    with nn.no_grad():
        target = model.governor_vectors(enc.context_vectors, index).data
    return rows, target, kept - 1 if cfg.rebalance_targets else np.full_like(rows, -1)


def reconstruction_loss(model: LhrModel, sentence: Sentence, enc: EncodedSentence,
                        cfg: TrainConfig, target_overrides=None) -> nn.Tensor:
    """Mean distance between each latent head and its gold governor.

    Targets are detached by default so each token only moves its own latent
    head toward the governor; rebalance_targets lets the gradient also pull
    the governor's context vector toward the prediction. Tokens governed by
    the root reconstruct either the root vector or their own context vector,
    always as a constant: the root vector learns from the labeler alone.

    `target_overrides`, a matrix from `capture_targets`, replaces the
    constant targets; derivative checks use it to hold them fixed while
    parameters are perturbed.
    """
    term_loss = nn.mse_loss if cfg.loss == "mse" else nn.mae_loss
    rows, target, live = _reconstruction_targets(model, sentence, enc, cfg)
    if not rows.size:
        return nn.Tensor(0.0)
    target = target if target_overrides is None else target_overrides
    if np.any(live >= 0):
        # rows past len(rows) of the table are the live context vectors
        index = np.where(live >= 0, len(rows) + live, np.arange(len(rows)))
        target = nn.concat((nn.Tensor(target), enc.context_vectors), axis=0)[index]
    return term_loss(enc.latent_heads[rows], target)


def capture_targets(model: LhrModel, sentence: Sentence, enc: EncodedSentence,
                    cfg: TrainConfig) -> np.ndarray:
    """A copy of the constant reconstruction target matrix.

    Fed back through `target_overrides`, it makes the loss, as a function of
    the parameters, exactly the one the backward pass differentiates: the
    right point of comparison for finite differences.
    """
    return _reconstruction_targets(model, sentence, enc, cfg)[1].copy()


def _gold_label_pos(model: LhrModel, sentence: Sentence) -> tuple[list[int], list[int]]:
    """Every token's gold label and POS row; InvalidInputError for a missing or unknown label."""
    where = f"{sentence.origin}: " if sentence.origin else ""
    label_gold, pos_gold = [], []
    for tok in sentence.tokens:
        if tok.gold_label is None:
            raise InvalidInputError(
                f"{where}token {tok.index} ({tok.form!r}) has no arc label; set the labeler "
                "weight to 0 or train on labeled trees")
        li = model.label_vocab.strict_index(tok.gold_label)
        if li is None:
            raise InvalidInputError(
                f"{where}token {tok.index} ({tok.form!r}): label {tok.gold_label!r} is not "
                "in the model's label inventory")
        label_gold.append(li)
        pos_gold.append(model.pos_vocab.index_of(tok.gold_pos))
    return label_gold, pos_gold


def labeler_loss(model: LhrModel, sentence: Sentence, enc: EncodedSentence) -> nn.Tensor:
    """Mean per-token classification loss over the gold arcs.

    Hinge loss on the raw label and POS scores, or cross-entropy on the same
    scores when the model's config sets labeler_softmax; this is the one
    reader of that field. Governor context vectors stay live here, so this
    loss reaches the context encoder and the root vector.
    """
    heads = _gold_heads(sentence)
    label_gold, pos_gold = _gold_label_pos(model, sentence)
    context = enc.context_vectors
    label_scores, pos_scores = model.score_label_pos(
        context, model.governor_vectors(context, heads))
    term_loss = nn.cross_entropy_loss if model.config.labeler_softmax else nn.margin_loss
    return nn.add(term_loss(label_scores, label_gold), term_loss(pos_scores, pos_gold))


def sentence_loss(model: LhrModel, sentence: Sentence, cfg: TrainConfig,
                  rng: np.random.Generator | None = None,
                  target_overrides=None) -> tuple[nn.Tensor, dict]:
    """Scalar loss for one sentence plus a float breakdown; `rng` drives word dropout."""
    enc = model.encode_sentence(sentence, rng)
    recon = reconstruction_loss(model, sentence, enc, cfg, target_overrides)
    parts = {"reconstruction": float(recon.data)}
    total = recon
    if cfg.labeler_weight > 0:
        lab = labeler_loss(model, sentence, enc)
        parts["labeler"] = float(lab.data)
        total = nn.add(total, nn.scale(lab, cfg.labeler_weight))
    parts["total"] = float(total.data)
    return total, parts


def train_sentence(model: LhrModel, sentence: Sentence, cfg: TrainConfig,
                   rng: np.random.Generator, params: nn.Parameters) -> dict:
    """One gradient step on one sentence; returns the loss breakdown.

    `params` is the model's parameter set, named_parameters().
    """
    total, parts = sentence_loss(model, sentence, cfg, rng)
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
        with output_file(path) as fh:
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
    for sentence in train_tb.sentences:  # a bad sentence stops the run before its first step
        _gold_heads(sentence)
        if cfg.labeler_weight > 0:
            _gold_label_pos(model, sentence)
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
                best_weights = model.params.ensure_arena()[0].copy()
        report.records.append(record)
        if log is not None:
            msg = f"epoch {epoch}: loss {record.train_loss:.4f}"
            if record.dev_uas is not None:
                msg += f"  dev UAS {record.dev_uas:.4f}  LAS {record.dev_las:.4f}"
            log(msg)
    if best_weights is not None:
        model.params.arena[0] = best_weights
    return report
