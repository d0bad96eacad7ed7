"""Plain helpers shared by the test modules: builders, fixture paths, finite differences."""

from __future__ import annotations

import os

import numpy as np

from latentheads import nn
from latentheads.conll import Sentence, Token, Treebank, build_vocabularies
from latentheads.model import LhrModel, ModelConfig
from latentheads.tokens import EncoderConfig

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

WORD_POOL = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
             "golf", "hotel", "india", "juliet"]
POS_POOL = ["N", "V", "D", "J"]
LABEL_POOL = ["mod", "arg", "root"]


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def random_tree(n: int, rng: np.random.Generator) -> list[int]:
    """Random single-rooted acyclic head assignment (1-based heads, 0 = root).

    Nodes are attached in a random order, each to a node placed earlier, so
    no cycle can form.
    """
    order = [int(v) + 1 for v in rng.permutation(n)]
    heads = [0] * n
    for k in range(1, n):
        parent = order[int(rng.integers(k))]
        heads[order[k] - 1] = parent
    return heads


def make_sentence(n: int, rng: np.random.Generator, treed: bool = True) -> Sentence:
    heads = random_tree(n, rng) if treed else [0] + [1] * (n - 1)
    tokens = []
    for i in range(n):
        pos = POS_POOL[int(rng.integers(len(POS_POOL)))]
        label = "root" if heads[i] == 0 else LABEL_POOL[int(rng.integers(2))]
        tokens.append(Token(
            index=i + 1,
            form=WORD_POOL[int(rng.integers(len(WORD_POOL)))],
            gold_pos=pos,
            predicted_pos=pos,
            gold_head=heads[i],
            gold_label=label,
        ))
    return Sentence(tokens=tokens)


def make_treebank(n_sentences: int, rng: np.random.Generator,
                  max_len: int = 6) -> Treebank:
    sents = [make_sentence(int(rng.integers(1, max_len + 1)), rng)
             for _ in range(n_sentences)]
    return Treebank(sents)


def tiny_config(**overrides) -> ModelConfig:
    enc = EncoderConfig(word_dim=overrides.pop("word_dim", 6),
                        pos_dim=overrides.pop("pos_dim", 3),
                        alpha_word_dropout=overrides.pop("alpha", 0.25),
                        mode=overrides.pop("mode", "word+pos"),
                        char_dim=overrides.pop("char_dim", 4),
                        char_hidden=overrides.pop("char_hidden", 3))
    cfg = ModelConfig(encoder=enc,
                      context_hidden=overrides.pop("context_hidden", 4),
                      heads_hidden=overrides.pop("heads_hidden", 4),
                      labeler_hidden=overrides.pop("labeler_hidden", 5),
                      labeler_softmax=overrides.pop("labeler_softmax", False))
    assert not overrides, f"unused config overrides: {overrides}"
    return cfg


def tiny_model(tb: Treebank, seed: int = 0, **overrides) -> LhrModel:
    wv, pv, lv, pairs = build_vocabularies(tb)
    return LhrModel(wv, pv, lv, pairs, tiny_config(**overrides), seed=seed)


def fd_gradient(loss_fn, param: nn.Parameter, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn with respect to every entry."""
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    with nn.no_grad():
        for k in range(flat.shape[0]):
            keep = flat[k]
            flat[k] = keep + eps
            up = loss_fn()
            flat[k] = keep - eps
            down = loss_fn()
            flat[k] = keep
            gflat[k] = (up - down) / (2.0 * eps)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray,
                       floor: float = 1e-5) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))
