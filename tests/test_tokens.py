from __future__ import annotations

import copy
import re

import numpy as np
import pytest

from latentheads import decoder, nn, trainer
from latentheads.conll import Sentence, Token, Vocabulary, read_conll
from latentheads.errors import ConfigurationError, InvalidInputError
from latentheads.tokens import (CharEncoder, EncoderConfig, TokenEncoder,
                                char_vocab_from_words, drop_probability)

from lhr_testutil import fixture_path, tiny_model


def small_vocabs():
    words = Vocabulary(["the", "dog", "barks"],
                       counts={"the": 10, "dog": 3, "barks": 1})
    pos = Vocabulary(["DET", "NOUN", "VERB"])
    return words, pos


def sent(forms_pos):
    toks = [Token(index=i + 1, form=f, gold_pos=p, predicted_pos=p,
                  gold_head=0 if i == 0 else 1, gold_label="root" if i == 0 else "dep")
            for i, (f, p) in enumerate(forms_pos)]
    return Sentence(tokens=toks)


def encoder(mode="word+pos", alpha=0.25):
    words, pos = small_vocabs()
    cfg = EncoderConfig(word_dim=5, pos_dim=3, alpha_word_dropout=alpha,
                        mode=mode, char_dim=4, char_hidden=3)
    return TokenEncoder(words, pos, cfg, nn.Parameters(np.random.default_rng(0)))


# ----------------------------------------------------------- drop probability

def test_drop_probability_unseen_word_is_certain():
    assert drop_probability(0, 0.25) == 1.0


def test_drop_probability_count_one():
    assert abs(drop_probability(1, 0.25) - 0.2) < 1e-15


def test_drop_probability_vanishes_for_frequent_words():
    assert drop_probability(10_000_000, 0.25) < 1e-7


def test_drop_probability_zero_alpha_disables_dropout():
    assert drop_probability(3, 0.0) == 0.0


def test_drop_probability_rejects_negative_count():
    with pytest.raises(InvalidInputError):
        drop_probability(-1, 0.25)


# ---------------------------------------------------------------- word+pos

def test_inference_encoding_is_deterministic():
    enc = encoder()
    s = sent([("the", "DET"), ("dog", "NOUN")])
    a = enc.encode(s)
    b = enc.encode(s)
    for va, vb in zip(a, b):
        assert np.array_equal(va.data, vb.data)


def test_unknown_word_uses_unknown_row():
    enc = encoder()
    s = sent([("zyzzyva", "NOUN")])
    out = enc.encode(s)[0]
    unk = enc.word_table.vectors[enc.word_table.unknown_index]
    assert np.array_equal(out.data[:5], unk.data)


def test_lookup_is_case_insensitive():
    enc = encoder()
    a = enc.encode(sent([("The", "DET")]))[0]
    b = enc.encode(sent([("the", "DET")]))[0]
    assert np.array_equal(a.data, b.data)


def test_pos_feature_comes_from_predicted_tag():
    enc = encoder()
    s1 = sent([("dog", "NOUN")])
    s1.tokens[0].predicted_pos = "VERB"
    s1.tokens[0].gold_pos = "NOUN"
    s2 = sent([("dog", "VERB")])
    a = enc.encode(s1)[0]
    b = enc.encode(s2)[0]
    assert np.array_equal(a.data, b.data)


def test_missing_predicted_tag_uses_unknown_pos_row():
    enc = encoder()
    s = sent([("dog", "NOUN")])
    s.tokens[0].predicted_pos = None
    out = enc.encode(s)[0]
    unk_pos = enc.pos_table.vectors[enc.pos_table.unknown_index]
    assert np.array_equal(out.data[5:], unk_pos.data)


def test_output_size_and_shape():
    enc = encoder()
    assert enc.output_size == 8
    out = enc.encode(sent([("the", "DET"), ("dog", "NOUN")]))
    assert len(out) == 2 and all(v.data.shape == (8,) for v in out)


def test_empty_sentence_rejected():
    enc = encoder()
    with pytest.raises(InvalidInputError):
        enc.encode(Sentence(tokens=[]))


def test_word_dropout_replaces_rare_words_sometimes():
    enc = encoder()
    s = sent([("barks", "VERB")])  # count 1 -> drop probability 0.2
    unk = enc.word_table.vectors[enc.word_table.unknown_index].data
    rng = np.random.default_rng(123)
    dropped = 0
    for _ in range(400):
        out = enc.encode(s, rng=rng)[0]
        if np.array_equal(out.data[:5], unk):
            dropped += 1
    assert 40 < dropped < 160  # expectation 80, generous bounds


def test_word_dropout_never_fires_at_inference():
    enc = encoder()
    s = sent([("barks", "VERB")])
    unk = enc.word_table.vectors[enc.word_table.unknown_index].data
    out = enc.encode(s)[0]
    assert not np.array_equal(out.data[:5], unk)


def test_word_dropout_leaves_pos_part_alone():
    enc = encoder()
    s = sent([("barks", "VERB")])
    pos_row = enc.pos_table.lookup(["VERB"]).data[0]
    rng = np.random.default_rng(1)
    for _ in range(50):
        out = enc.encode(s, rng=rng)[0]
        assert np.array_equal(out.data[5:], pos_row)


def test_seeded_dropout_is_reproducible():
    enc = encoder()
    s = sent([("barks", "VERB"), ("dog", "NOUN"), ("barks", "VERB")])
    a = [v.data.copy() for v in enc.encode(s, rng=np.random.default_rng(7))]
    b = [v.data.copy() for v in enc.encode(s, rng=np.random.default_rng(7))]
    for va, vb in zip(a, b):
        assert np.array_equal(va, vb)


# ---------------------------------------------------------------- word+char

def test_config_validation():
    with pytest.raises(ConfigurationError):
        EncoderConfig(word_dim=0).validate()
    with pytest.raises(ConfigurationError):
        EncoderConfig(mode="word+morph").validate()
    with pytest.raises(ConfigurationError):
        EncoderConfig(alpha_word_dropout=-0.1).validate()
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigurationError, match="^alpha_word_dropout must be finite"):
            EncoderConfig(alpha_word_dropout=value).validate()
    EncoderConfig().validate()


def test_char_encoder_single_character_word():
    words, _ = small_vocabs()
    cfg = EncoderConfig(char_dim=4, char_hidden=3, pos_dim=6)
    ce = CharEncoder(char_vocab_from_words(words), cfg,
                     params=nn.Parameters(np.random.default_rng(2)))
    out = ce.encode(["a"])
    assert out.data.shape == (1, 6)


def test_char_encoder_deterministic():
    words, _ = small_vocabs()
    cfg = EncoderConfig(char_dim=4, char_hidden=3, pos_dim=5)
    ce = CharEncoder(char_vocab_from_words(words), cfg,
                     params=nn.Parameters(np.random.default_rng(2)))
    assert np.array_equal(ce.encode(["dog"]).data, ce.encode(["dog"]).data)


def test_char_encoder_is_order_sensitive():
    words = Vocabulary(["cat", "act"], counts={"cat": 2, "act": 2})
    cfg = EncoderConfig(char_dim=4, char_hidden=3, pos_dim=5)
    ce = CharEncoder(char_vocab_from_words(words), cfg,
                     params=nn.Parameters(np.random.default_rng(3)))
    assert not np.allclose(ce.encode(["cat"]).data, ce.encode(["act"]).data)


def test_word_char_mode_output_size_matches_word_pos():
    enc = encoder(mode="word+char")
    assert enc.output_size == 8  # word 5 + char projection 3 (pos_dim)
    out = enc.encode(sent([("dog", "NOUN")]))[0]
    assert out.data.shape == (8,)


def test_char_encoder_projects_a_sentence_in_one_call():
    ce = encoder(mode="word+char").char_encoder
    projection, calls = ce.projection, []
    ce.projection = lambda x: calls.append(x.shape) or projection(x)
    out = ce.encode(["the", "dog", "barks"])
    assert calls == [(3, 6)]  # three words, both final states of 3
    assert out.shape == (3, 3)


def test_char_mode_rejects_an_empty_form():
    sentence = sent([("dog", "NOUN"), ("", "X")])
    sentence.origin = "corpus.conllu:7"
    with pytest.raises(InvalidInputError,
                       match="^corpus.conllu:7: token 2 has an empty form, which the word"):
        encoder(mode="word+char").encode(sentence)


@pytest.mark.parametrize("call", ["parse", "train_sentence"])
def test_char_mode_names_the_origin_and_token_of_an_empty_form(call):
    tb = read_conll(fixture_path("toy_train.conllu"))
    model = tiny_model(tb, seed=1, mode="word+char")
    sentence = copy.deepcopy(tb.sentences[2])
    sentence.tokens[3].form = ""
    assert sentence.origin.endswith("toy_train.conllu:16")
    run = {"parse": lambda: decoder.parse(model, sentence),
           "train_sentence": lambda: trainer.train_sentence(
               model, sentence, trainer.TrainConfig(), np.random.default_rng(0),
               model.named_parameters())}[call]
    with pytest.raises(InvalidInputError,
                       match=f"^{re.escape(sentence.origin)}: token 4 has an empty form"):
        run()


def test_word_char_mode_reads_capitals_through_their_lowercase_letters():
    # the char table is built from the lowercased word keys
    enc = encoder(mode="word+char")
    upper = enc.encode(sent([("The", "DET"), ("dog", "NOUN")])).data
    lower = enc.encode(sent([("the", "DET"), ("dog", "NOUN")])).data
    assert np.array_equal(upper, lower)


def test_char_vocab_covers_training_characters():
    words, _ = small_vocabs()
    cv = char_vocab_from_words(words)
    for ch in "thedogbarks":
        assert ch in cv
