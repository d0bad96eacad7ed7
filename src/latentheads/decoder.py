"""Turn latent heads into a well-formed dependency tree.

Decoding order: pick the root token (latent head most similar to the root
vector), then give every other token the head whose context vector its latent
head is closest to, repair any cycles, and finally assign the best seen
(label, POS) pair per arc. All argmax ties break toward the lowest index so
decoding is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .conll import Sentence
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
        n = len(self.heads)
        roots = [i for i, h in enumerate(self.heads) if h == 0]
        if len(roots) != 1:
            raise InvalidInputError(f"tree must have exactly one root, found {len(roots)}")
        for i, h in enumerate(self.heads):
            if not 0 <= h <= n:
                raise InvalidInputError(f"head {h} out of range")
            if h == i + 1:
                raise InvalidInputError(f"token {i + 1} is its own head")
        if find_cycles(self.heads):
            raise InvalidInputError("tree contains a cycle")


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
    heads = [0] * n
    arc_scores = [0.0] * n
    arc_scores[root_token - 1] = float(scores.root_sim[root_token - 1])
    for i in range(n):
        if i == root_token - 1:
            continue
        row = scores.sim[i].copy()
        row[i] = -np.inf
        j = int(np.argmax(row))
        heads[i] = j + 1
        arc_scores[i] = float(row[j])
    return DependencyTree(heads=heads, labels=[None] * n, pos=[None] * n,
                          arc_scores=arc_scores)


def find_cycles(heads: list[int]) -> list[list[int]]:
    """Cycles of the head graph as 1-based token lists, by smallest member.

    Following head links from any token either reaches the root (0) or loops;
    each token has one outgoing arc, so cycles are disjoint.
    """
    n = len(heads)
    state = [0] * (n + 1)  # 0 unvisited, 1 on current walk, 2 done
    cycles = []
    for start in range(1, n + 1):
        if state[start]:
            continue
        path = []
        cur = start
        while cur != 0 and state[cur] == 0:
            state[cur] = 1
            path.append(cur)
            cur = heads[cur - 1]
        if cur != 0 and state[cur] == 1:
            cycle = path[path.index(cur):]
            cycles.append(cycle)
        for node in path:
            state[node] = 2
    cycles.sort(key=min)
    return cycles


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
        new_head = None
        for j in order:
            if not _creates_cycle(heads, dep, j):
                new_head = j
                break
        if new_head is None:
            new_head = tree.heads.index(0) + 1
        heads[dep - 1] = new_head
        arc_scores[dep - 1] = float(row[new_head - 1])
    return DependencyTree(heads=heads, labels=list(tree.labels), pos=list(tree.pos),
                          arc_scores=arc_scores, needed_repair=repaired)


def assign_labels_pos(model: LhrModel, enc: EncodedSentence, tree: DependencyTree,
                      seen_pairs=None, sentence: Sentence | None = None,
                      pos_correction: bool = True) -> DependencyTree:
    """Pick, per token, the (label, POS) pair seen in training that maximizes
    the summed classifier scores for its (dependent, governor) arc.

    With pos_correction off, the externally predicted tag is kept in the
    output instead of the labeler's choice.
    """
    if seen_pairs is None:
        seen_pairs = model.seen_pairs
        pair_l = model._pair_label_idx
        pair_p = model._pair_pos_idx
    else:
        seen_pairs = [tuple(p) for p in seen_pairs]
        pair_l = np.array([model.label_vocab.index_of(l) for l, _ in seen_pairs], dtype=int)
        pair_p = np.array([model.pos_vocab.index_of(p) for _, p in seen_pairs], dtype=int)
    if len(seen_pairs) == 0:
        raise ConfigurationError("no (label, POS) pairs to choose from")
    with nn.no_grad():
        context = enc.context_vectors
        label_scores, pos_scores = model.score_label_pos(
            context, model.governor_vectors(context, tree.heads))
    combined = label_scores.data[:, pair_l] + pos_scores.data[:, pair_p]
    labels: list[str | None] = []
    pos_tags: list[str | None] = []
    for i, best in enumerate(np.argmax(combined, axis=1)):
        label, pos = seen_pairs[best]
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
