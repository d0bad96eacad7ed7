"""The sentence-matrix core against the per-vector tape path it replaced.

Values, loss parts and every parameter gradient must match the reference in
`reference_lhr.py` to 1e-10 on random sentences of 1 to 40 tokens, with
word dropout on and unknown words present, across encoder modes, labeler
variants and the reconstruction options.
"""

from __future__ import annotations

import numpy as np
import pytest

from latentheads.conll import Treebank
from latentheads.trainer import TrainConfig, sentence_loss

from lhr_testutil import make_sentence, tiny_model
from reference_lhr import RefModel

TOL = 1e-10


def random_sentences(rng: np.random.Generator, count: int = 20):
    lengths = [1, 40] + [int(n) for n in rng.integers(1, 41, size=count - 2)]
    sentences = [make_sentence(n, rng) for n in lengths]
    for s in sentences:
        for tok in s.tokens:
            tok.is_punct = bool(rng.random() < 0.2)
    return sentences


def with_unknown_words(sentences, rng: np.random.Generator):
    for s in sentences:
        for tok in s.tokens:
            if rng.random() < 0.15:
                tok.form = f"unseen{int(rng.integers(100))}"
    return sentences


def assert_close(new: np.ndarray, ref: np.ndarray, what: str) -> None:
    err = np.max(np.abs(new - ref) / np.maximum(np.abs(ref), 1.0))
    assert new.shape == ref.shape and err <= TOL, f"{what}: relative error {err:.2e}"


CASES = {
    "pos-hinge-default": ("word+pos", False, TrainConfig()),
    "pos-softmax-mae-skip": ("word+pos", True,
                             TrainConfig(loss="mae", skip_punct_heads=True)),
    "pos-hinge-rebalance-self": ("word+pos", False,
                                 TrainConfig(rebalance_targets=True, root_target="self",
                                             labeler_weight=0.5)),
    "char-hinge-rebalance-skip": ("word+char", False,
                                  TrainConfig(rebalance_targets=True, skip_punct_heads=True)),
    "char-softmax-mae-self": ("word+char", True,
                              TrainConfig(loss="mae", root_target="self")),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_matrix_core_matches_per_vector_reference(case):
    mode, softmax, cfg = CASES[case]
    rng = np.random.default_rng(sorted(CASES).index(case))
    sentences = random_sentences(rng)
    model = tiny_model(Treebank(sentences), seed=3, mode=mode, labeler_softmax=softmax)
    with_unknown_words(sentences, rng)
    for k, sent in enumerate(sentences):
        ref = RefModel(model)
        enc = model.encode_sentence(sent, np.random.default_rng(k))
        context, heads = ref.encode_sentence(sent, training=True, rng=np.random.default_rng(k))
        assert_close(enc.context_vectors.data, np.stack([c.data for c in context]),
                     f"sentence {k} context vectors")
        assert_close(enc.latent_heads.data, np.stack([h.data for h in heads]),
                     f"sentence {k} latent heads")

        total, parts = sentence_loss(model, sent, cfg, np.random.default_rng(k))
        ref_total, ref_parts = ref.sentence_loss(sent, cfg, training=True,
                                                 rng=np.random.default_rng(k))
        assert parts.keys() == ref_parts.keys()
        for name in parts:
            assert_close(np.asarray(parts[name]), np.asarray(ref_parts[name]),
                         f"sentence {k} {name} loss")
        total.backward()
        ref_total.backward()
        for name, p in model.named_parameters():
            want = ref.params[name].grad
            bound = TOL * max(1.0, float(np.max(np.abs(want))))
            err = float(np.max(np.abs(p.grad - want)))
            assert err <= bound, f"sentence {k} gradient of {name}: {err:.2e} > {bound:.2e}"
            p.grad[...] = 0.0
