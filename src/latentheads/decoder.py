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
from .conll import Sentence, chain_ends, tree_problem
from .errors import InvalidInputError
from .model import EncodedSentence, LhrModel


@dataclass
class DependencyTree:
    heads: list[int]                 # heads[i] governs token i+1; 0 is the root
    labels: list[str | None]
    pos: list[str | None]
    arc_scores: list[float]
    needed_repair: bool = False

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
    sim, root_sim = h @ c.T, h @ root_unit
    np.clip(sim, -1.0, 1.0, out=sim)  # in place: one n x n matrix, not two
    np.clip(root_sim, -1.0, 1.0, out=root_sim)
    return ScoreMatrix(sim=sim, root_sim=root_sim)


def select_root(scores: ScoreMatrix) -> int:
    """1-based index of the token whose latent head best matches the root vector."""
    return int(np.argmax(scores.root_sim)) + 1


def assign_heads(scores: ScoreMatrix, root_token: int) -> DependencyTree:
    """Greedy per-token head choice; may contain cycles until repaired.

    Only the chosen root token takes head 0; every other token picks the
    highest-similarity context vector other than its own. The diagonal of
    `scores.sim` is masked in place and restored before this returns.
    """
    n = scores.n
    if not 1 <= root_token <= n:
        raise InvalidInputError(f"root token {root_token} out of range")
    sim, own = scores.sim, scores.sim.diagonal().copy()
    np.fill_diagonal(sim, -np.inf)  # masked in place, not in an n x n copy
    try:
        best = np.argmax(sim, axis=1)  # first maximum: ties go to the lowest index
        arc_scores = sim[np.arange(n), best].tolist()
    finally:
        np.fill_diagonal(sim, own)
    heads = (best + 1).tolist()
    heads[root_token - 1] = 0
    arc_scores[root_token - 1] = float(scores.root_sim[root_token - 1])
    return DependencyTree(heads=heads, labels=[None] * n, pos=[None] * n,
                          arc_scores=arc_scores)


def repair_cycles(tree: DependencyTree, scores: ScoreMatrix) -> DependencyTree:
    """Break every cycle by rewiring its weakest arc, never touching the root.

    Per cycle, smallest member first: the arc with the lowest score (ties:
    lowest dependent) moves to the dependent's most similar token outside its
    own subtree (ties: lowest index). One pass is exact: cycles are disjoint,
    because each token has one head. The dependent's subtree is every token
    whose head chain ends in its cycle. Moving the dependent to a head outside
    it breaks that cycle, creates no new cycle and changes no arc of any other
    cycle; the subtree's chains now end where the new head's chain ends. The
    root token's chain ends at 0 at once, so it is never inside the subtree,
    and a candidate always exists.
    """
    problem = tree_problem(tree.heads, whole=False)
    if problem or 0 not in tree.heads:
        raise InvalidInputError(f"cannot repair a head list: {problem or 'no root token'}")
    heads = list(tree.heads)
    arc_scores = list(tree.arc_scores)
    cycles, ends = chain_ends(heads)
    ends = np.array(ends)
    for cycle in cycles:
        dep = min(cycle, key=lambda d: (arc_scores[d - 1], d))
        inside = ends == ends[dep - 1]
        row = np.where(inside, -np.inf, scores.sim[dep - 1])
        best = int(np.argmax(row))  # first maximum: ties go to the lowest index
        heads[dep - 1] = best + 1
        arc_scores[dep - 1] = float(row[best])
        ends[inside] = ends[best]
    return DependencyTree(heads=heads, labels=list(tree.labels), pos=list(tree.pos),
                          arc_scores=arc_scores, needed_repair=bool(cycles))


def assign_labels_pos(model: LhrModel, enc: EncodedSentence, tree: DependencyTree,
                      sentence: Sentence | None = None,
                      pos_correction: bool = True) -> DependencyTree:
    """Pick, per token, the (label, POS) pair seen in training that maximizes
    the summed classifier scores for its (dependent, governor) arc.

    With pos_correction off, the externally predicted tag is kept in the
    output instead of the labeler's choice.
    """
    pairs = model.best_pairs(enc.context_vectors, tree.heads)
    pos_tags = [pos for _, pos in pairs]
    if not pos_correction and sentence is not None:
        pos_tags = [pos if tok.predicted_pos is None else tok.predicted_pos
                    for tok, pos in zip(sentence.tokens, pos_tags, strict=True)]
    return DependencyTree(heads=list(tree.heads), labels=[label for label, _ in pairs],
                          pos=pos_tags, arc_scores=list(tree.arc_scores),
                          needed_repair=tree.needed_repair)


def parse(model: LhrModel, sentence: Sentence, pos_correction: bool = True) -> DependencyTree:
    """Full pipeline: encode, score, pick root, assign heads, repair, label."""
    with nn.no_grad():
        enc = model.encode_sentence(sentence, training=False)
        scores = build_scores(enc, model.root_vector)
        tree = assign_heads(scores, select_root(scores))
        tree = repair_cycles(tree, scores)
        tree = assign_labels_pos(model, enc, tree, sentence=sentence,
                                 pos_correction=pos_correction)
    return tree
