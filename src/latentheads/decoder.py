"""Turn latent heads into a well-formed dependency tree.

Decoding order: pick the root token (latent head most similar to the root
vector), then give every other token the head whose context vector its latent
head is closest to, repair any cycles, and finally assign the best seen
(label, POS) pair per arc. All argmax ties break toward the lowest index so
decoding is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .conll import Sentence, find_cycles, tree_problem
from .errors import ConfigurationError, InvalidInputError
from .model import EncodedSentence, LhrModel


@dataclass
class DependencyTree:
    heads: list[int]                 # heads[i] governs token i+1; 0 is the root
    labels: list[str | None]
    pos: list[str | None]
    arc_scores: list[float]
    needed_repair: bool | None = None

    def __len__(self) -> int:
        return len(self.heads)

    def validate(self) -> None:
        problem = tree_problem(self.heads)
        if problem is not None:
            raise InvalidInputError(f"not a dependency tree: {problem}")


@dataclass
class ScoreMatrix:
    """sim[i][j]: cosine of latent head i+1 vs context vector j+1 (i != j)."""

    sim: np.ndarray
    root_sim: np.ndarray

    @property
    def n(self) -> int:
        return self.root_sim.shape[0]


def _normalized_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    safe = np.where(norms < 1e-12, 1.0, norms)
    out = m / safe
    out[norms[:, 0] < 1e-12] = 0.0  # zero vectors score 0 against everything
    return out


def build_scores(enc: EncodedSentence, root_vector) -> ScoreMatrix:
    """All pairwise latent-head/context similarities plus root similarities."""
    if len(enc) < 1:
        raise InvalidInputError("cannot score an empty sentence")
    h = _normalized_rows(enc.latent_heads.data)
    c = _normalized_rows(enc.context_vectors.data)
    root = root_vector.data if isinstance(root_vector, nn.Tensor) else np.asarray(root_vector)
    root_norm = np.linalg.norm(root)
    root_unit = root / root_norm if root_norm >= 1e-12 else np.zeros_like(root)
    sim = np.clip(h @ c.T, -1.0, 1.0)
    root_sim = np.clip(h @ root_unit, -1.0, 1.0)
    return ScoreMatrix(sim=sim, root_sim=root_sim)


def select_root(scores: ScoreMatrix) -> int:
    """1-based index of the token whose latent head best matches the root vector."""
    return int(np.argmax(scores.root_sim)) + 1


def assign_heads(scores: ScoreMatrix, root_token: int) -> DependencyTree:
    """Greedy per-token head choice; may contain cycles until repaired.

    Only the chosen root token takes head 0; every other token picks the
    highest-similarity context vector other than its own.
    """
    n = scores.n
    if not 1 <= root_token <= n:
        raise InvalidInputError(f"root token {root_token} out of range")
    masked = scores.sim.copy()
    np.fill_diagonal(masked, -np.inf)
    best = np.argmax(masked, axis=1)  # first maximum: ties go to the lowest index
    heads = (best + 1).tolist()
    arc_scores = masked[np.arange(n), best].tolist()
    heads[root_token - 1] = 0
    arc_scores[root_token - 1] = float(scores.root_sim[root_token - 1])
    return DependencyTree(heads=heads, labels=[None] * n, pos=[None] * n,
                          arc_scores=arc_scores)


def _creates_cycle(heads: list[int], dependent: int, candidate: int) -> bool:
    # attaching dependent -> candidate loops iff dependent is an ancestor of candidate
    cur = candidate
    steps = 0
    while cur != 0 and steps <= len(heads):
        if cur == dependent:
            return True
        cur = heads[cur - 1]
        steps += 1
    return False


def repair_cycles(tree: DependencyTree, scores: ScoreMatrix) -> DependencyTree:
    """Break every cycle by rewiring its weakest arc, never touching the root.

    Per cycle (smallest-member first): drop the arc with the lowest score
    (ties: lowest dependent index) and reattach that dependent to the most
    similar context vector that does not reintroduce a cycle. If every
    candidate loops, fall back to the root token, which is always safe.
    Each pass removes one cycle and adds none, so this terminates.
    """
    heads = list(tree.heads)
    arc_scores = list(tree.arc_scores)
    n = len(heads)
    repaired = False
    while True:
        cycles = find_cycles(heads)
        if not cycles:
            break
        repaired = True
        cycle = cycles[0]
        dep = min(cycle, key=lambda d: (arc_scores[d - 1], d))
        row = scores.sim[dep - 1]
        order = sorted((j for j in range(1, n + 1) if j != dep),
                       key=lambda j: (-row[j - 1], j))
        new_head = next((j for j in order if not _creates_cycle(heads, dep, j)), None)
        if new_head is None:
            new_head = tree.heads.index(0) + 1
        heads[dep - 1] = new_head
        arc_scores[dep - 1] = float(row[new_head - 1])
    return DependencyTree(heads=heads, labels=list(tree.labels), pos=list(tree.pos),
                          arc_scores=arc_scores, needed_repair=repaired)


def assign_labels_pos(model: LhrModel, enc: EncodedSentence, tree: DependencyTree,
                      sentence: Sentence | None = None,
                      pos_correction: bool = True) -> DependencyTree:
    """Pick, per token, the (label, POS) pair seen in training that maximizes
    the summed classifier scores for its (dependent, governor) arc.

    With pos_correction off, the externally predicted tag is kept in the
    output instead of the labeler's choice.
    """
    if not model.seen_pairs:
        raise ConfigurationError("no (label, POS) pairs to choose from")
    with nn.no_grad():
        context = enc.context_vectors
        label_scores, pos_scores = model.score_label_pos(
            context, model.governor_vectors(context, tree.heads))
    combined = (label_scores.data[:, model._pair_label_idx]
                + pos_scores.data[:, model._pair_pos_idx])
    labels: list[str | None] = []
    pos_tags: list[str | None] = []
    for i, best in enumerate(np.argmax(combined, axis=1)):
        label, pos = model.seen_pairs[best]
        labels.append(label)
        if pos_correction:
            pos_tags.append(pos)
        else:
            external = sentence.tokens[i].predicted_pos if sentence is not None else None
            pos_tags.append(external if external is not None else pos)
    return DependencyTree(heads=list(tree.heads), labels=labels, pos=pos_tags,
                          arc_scores=list(tree.arc_scores),
                          needed_repair=tree.needed_repair)


def parse(model: LhrModel, sentence: Sentence, pos_correction: bool = True) -> DependencyTree:
    """Full pipeline: encode, score, pick root, assign heads, repair, label."""
    with nn.no_grad():
        enc = model.encode_sentence(sentence, training=False)
        scores = build_scores(enc, model.root_vector)
        root_token = select_root(scores)
        tree = assign_heads(scores, root_token)
        tree = repair_cycles(tree, scores)
        tree = assign_labels_pos(model, enc, tree, sentence=sentence,
                                 pos_correction=pos_correction)
    return tree
