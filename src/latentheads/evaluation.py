"""Attachment and tagging accuracy for predicted trees."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .conll import Treebank
from .decoder import DependencyTree
from .errors import InvalidInputError


@dataclass
class EvalResult:
    uas: float
    las: float
    pos_accuracy: float
    root_accuracy: float
    cycle_free_rate: float
    scored_tokens: int
    sentences: int

    def summary(self) -> str:
        return (f"UAS {self.uas:.4f}  LAS {self.las:.4f}  POS {self.pos_accuracy:.4f}  "
                f"root {self.root_accuracy:.4f}  cycle-free {self.cycle_free_rate:.4f}  "
                f"({self.scored_tokens} tokens, {self.sentences} sentences)")


def _ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def evaluate(treebank: Treebank, trees: Sequence[DependencyTree],
             skip_punct: bool = True) -> EvalResult:
    """Score predicted trees against the treebank's gold annotation.

    With skip_punct (the default), punctuation tokens count toward none of the
    token-level denominators. Root accuracy is per sentence and compares the
    choice of root token; cycle-free counts trees that decoded acyclic before
    any repair.
    """
    if len(trees) != len(treebank.sentences):
        raise InvalidInputError(
            f"{len(trees)} trees for {len(treebank.sentences)} sentences")
    head_hits = label_hits = pos_hits = scored = 0
    root_hits = root_total = 0
    clean = 0
    for k, (sent, tree) in enumerate(zip(treebank.sentences, trees)):
        if len(tree) != len(sent.tokens):
            raise InvalidInputError(f"{sent.origin or f'sentence {k}'}: tree has "
                                    f"{len(tree)} tokens, sentence has {len(sent.tokens)}")
        if not tree.needed_repair:
            clean += 1
        gold_roots = [t.index for t in sent.tokens if t.gold_head == 0]
        if len(gold_roots) == 1:
            root_total += 1
            pred_roots = [i + 1 for i, h in enumerate(tree.heads) if h == 0]
            if pred_roots == gold_roots:
                root_hits += 1
        for tok, head, label, pos in zip(sent.tokens, tree.heads, tree.labels, tree.pos):
            if tok.gold_head is None:
                continue
            if skip_punct and tok.is_punct:
                continue
            scored += 1
            if head == tok.gold_head:
                head_hits += 1
                if label is not None and label == tok.gold_label:
                    label_hits += 1
            if pos is not None and pos == tok.gold_pos:
                pos_hits += 1
    return EvalResult(
        uas=_ratio(head_hits, scored),
        las=_ratio(label_hits, scored),
        pos_accuracy=_ratio(pos_hits, scored),
        root_accuracy=_ratio(root_hits, root_total),
        cycle_free_rate=_ratio(clean, len(trees)),
        scored_tokens=scored,
        sentences=len(trees),
    )
