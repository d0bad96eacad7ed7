from __future__ import annotations

import numpy as np
import pytest

from latentheads import nn
from latentheads.conll import Sentence, Token, Treebank
from latentheads.errors import ConfigurationError, InvalidInputError
from latentheads.model import LhrModel, ModelConfig

from lhr_testutil import make_sentence, make_treebank, tiny_config, tiny_model


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    return tiny_model(make_treebank(8, rng))


def test_encode_shapes(model):
    s = make_sentence(4, np.random.default_rng(1))
    enc = model.encode_sentence(s)
    assert len(enc.context_vectors) == 4
    assert len(enc.latent_heads) == 4
    csize = model.config.context_size
    assert all(c.data.shape == (csize,) for c in enc.context_vectors)
    assert all(h.data.shape == (csize,) for h in enc.latent_heads)


def test_encode_empty_sentence_rejected(model):
    with pytest.raises(InvalidInputError):
        model.encode_sentence(Sentence(tokens=[]))


def test_inference_encoding_deterministic(model):
    s = make_sentence(3, np.random.default_rng(2))
    a = model.encode_sentence(s)
    b = model.encode_sentence(s)
    for x, y in zip(a.latent_heads, b.latent_heads):
        assert np.array_equal(x.data, y.data)


def test_repeated_word_gets_distinct_context_vectors(model):
    # "the dog saw the cat": the two "the" tokens sit in different contexts
    forms = ["alpha", "bravo", "charlie", "alpha", "delta"]
    toks = [Token(index=i + 1, form=f, gold_pos="N", predicted_pos="N",
                  gold_head=0 if i == 0 else 1, gold_label="root" if i == 0 else "mod")
            for i, f in enumerate(forms)]
    enc = model.encode_sentence(Sentence(tokens=toks))
    assert not np.allclose(enc.context_vectors[0].data, enc.context_vectors[3].data)


def test_labeler_zero_weights_scores_uniformly(model):
    for p in [p for name, p in model.named_parameters() if name.startswith("labeler.")]:
        saved = p.data.copy()
        p.data[...] = 0.0
    rng = np.random.default_rng(3)
    dep = nn.Tensor(rng.normal(size=(1, model.context_size)))
    gov = nn.Tensor(rng.normal(size=(1, model.context_size)))
    label_scores, pos_scores = model.score_label_pos(dep, gov)
    assert np.allclose(label_scores.data, label_scores.data[0, 0])
    assert np.allclose(pos_scores.data, pos_scores.data[0, 0])


def test_root_vector_can_stand_in_for_governor():
    rng = np.random.default_rng(0)
    m = tiny_model(make_treebank(8, rng), seed=4)
    dep = nn.Tensor(rng.normal(size=(1, m.context_size)))
    with_root = m.score_label_pos(dep, m.root_vector[None])
    with_other = m.score_label_pos(dep, nn.Tensor(rng.normal(size=(1, m.context_size))))
    assert not np.allclose(with_root[0].data, with_other[0].data)


def test_labeler_is_argument_order_sensitive():
    rng = np.random.default_rng(5)
    m = tiny_model(make_treebank(8, rng), seed=5)
    a = nn.Tensor(rng.normal(size=(1, m.context_size)))
    b = nn.Tensor(rng.normal(size=(1, m.context_size)))
    ab = m.score_label_pos(a, b)
    ba = m.score_label_pos(b, a)
    assert not np.allclose(ab[0].data, ba[0].data)


def test_softmax_labeler_picks_the_pair_of_highest_joint_log_probability():
    # (arg, N) has the larger summed probability, 0.9 + 0.01 against 0.1 + 0.5,
    # but (root, V) the larger joint one, 0.05 against 0.009
    tokens = [Token(index=1, form="alpha", gold_pos="N", predicted_pos="N",
                    gold_head=2, gold_label="arg"),
              Token(index=2, form="bravo", gold_pos="V", predicted_pos="V",
                    gold_head=0, gold_label="root")]
    m = tiny_model(Treebank([Sentence(tokens=tokens)]), labeler_softmax=True)
    assert m.seen_pairs == [("arg", "N"), ("root", "V")]
    for layer, vocab, probs in ((m.labeler_label, m.label_vocab, {"arg": 0.9, "root": 0.1}),
                                (m.labeler_pos, m.pos_vocab, {"N": 0.01, "V": 0.5})):
        layer.weights.data[...] = 0.0
        layer.bias.data[...] = np.log(0.49)  # the POS vocabulary's unknown symbol
        for tag, p in probs.items():
            layer.bias.data[vocab.index_of(tag)] = np.log(p)
    context = nn.Tensor(np.random.default_rng(6).normal(size=(2, m.context_size)))
    assert m.best_pairs(context, [2, 0]) == [("root", "V"), ("root", "V")]


def test_score_rejects_wrong_dimension(model):
    with pytest.raises(ConfigurationError):
        model.score_label_pos(nn.Tensor(np.zeros(3)), model.root_vector)


def test_latent_structure_single_token(model):
    s = make_sentence(1, np.random.default_rng(6))
    enc = model.encode_sentence(s)
    rows = model.latent_structure(enc)
    assert len(rows) == 1
    assert rows[0].shape == (2 * model.context_size,)


def test_latent_structure_prefix_is_context_vector(model):
    s = make_sentence(3, np.random.default_rng(7))
    enc = model.encode_sentence(s)
    rows = model.latent_structure(enc)
    csize = model.context_size
    for row, c, h in zip(rows, enc.context_vectors, enc.latent_heads):
        assert np.array_equal(row[:csize], c.data)
        assert np.array_equal(row[csize:], h.data)


def test_named_parameters_are_unique_and_complete(model):
    names = [n for n, _ in model.named_parameters()]
    assert len(names) == len(set(names))
    assert "root_vector" in names
    assert any(n.startswith("context_encoder.") for n in names)
    assert any(n.startswith("heads_encoder.") for n in names)
    assert any(n.startswith("labeler.") for n in names)


def test_word_char_mode_has_char_parameters():
    rng = np.random.default_rng(8)
    m = tiny_model(make_treebank(8, rng), mode="word+char")
    names = [n for n, _ in m.named_parameters()]
    assert any("char" in n for n in names)
    s = make_sentence(3, np.random.default_rng(9))
    enc = m.encode_sentence(s)
    assert len(enc.latent_heads) == 3


def test_config_validation():
    cfg = tiny_config()
    cfg.context_hidden = 0
    with pytest.raises(ConfigurationError):
        cfg.validate()
    assert tiny_config().context_size == 8


def test_seed_controls_initialization():
    rng = np.random.default_rng(10)
    tb = make_treebank(8, rng)
    a = tiny_model(tb, seed=1)
    b = tiny_model(tb, seed=1)
    c = tiny_model(tb, seed=2)
    pa, pb, pc = (dict(m.named_parameters()) for m in (a, b, c))
    assert all(np.array_equal(pa[n].data, pb[n].data) for n in pa)
    assert any(not np.array_equal(pa[n].data, pc[n].data) for n in pa)
