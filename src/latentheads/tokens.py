"""Dense token representations fed to the context encoder.

Baseline mode concatenates word and POS-tag embeddings; the alternative
replaces the POS part with a character-level summary of the word. During
training, word vectors are swapped for the unknown vector with probability
alpha / (count + alpha), so rare words train the unknown representation;
that word dropout runs iff the encoder is given a random generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .conll import Sentence, Vocabulary
from .errors import ConfigurationError, InvalidInputError

MODES = ("word+pos", "word+char")


@dataclass
class EncoderConfig:
    word_dim: int = 150
    pos_dim: int = 50
    alpha_word_dropout: float = 0.25
    mode: str = "word+pos"
    char_dim: int = 25          # per-character embedding size
    char_hidden: int = 50       # per direction; both finals are projected down

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown encoder mode {self.mode!r}")
        for name in ("word_dim", "pos_dim", "char_dim", "char_hidden"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        if not (math.isfinite(self.alpha_word_dropout) and self.alpha_word_dropout >= 0):
            raise ConfigurationError("alpha_word_dropout must be finite and non-negative, "
                                     f"got {self.alpha_word_dropout}")


def drop_probability(word_count: int, alpha: float) -> float:
    """Chance of replacing a word by the unknown vector: alpha / (count + alpha)."""
    if word_count < 0:
        raise InvalidInputError("word_count must be non-negative")
    if alpha == 0:
        return 0.0
    return alpha / (word_count + alpha)


class EmbeddingTable:
    """Vocabulary-indexed rows of a trainable matrix."""

    def __init__(self, vocab: Vocabulary, dim: int, params: nn.Parameters, prefix: str = ""):
        self.vocab = vocab
        self.params = params
        self.vectors = params.new(prefix + "vectors", (len(vocab), dim), "uniform")
        self.unknown_index = vocab.unknown_index

    def lookup(self, symbols) -> nn.Tensor:
        """One row per symbol, as an (n, dim) matrix; a string looks up its characters."""
        return self.vectors[np.array([self.vocab.index_of(s) for s in symbols], dtype=np.intp)]


class CharEncoder:
    """Fixed-size word summary from a character-level bidirectional pass."""

    def __init__(self, char_vocab: Vocabulary, cfg: EncoderConfig, params: nn.Parameters,
                 prefix: str = ""):
        self.char_table = EmbeddingTable(char_vocab, cfg.char_dim, params, prefix + "chars.")
        self.char_birnn = nn.BiEncoder(cfg.char_dim, cfg.char_hidden, params, prefix + "birnn.")
        self.projection = nn.DenseLayer(2 * cfg.char_hidden, cfg.pos_dim, "identity", params,
                                        prefix + "projection.")

    def encode(self, words) -> nn.Tensor:
        """(n, pos_dim): the final states of each word's pass, projected in one call."""
        h = self.char_birnn.hidden_size
        states = [self.char_birnn.encode(self.char_table.lookup(word)) for word in words]
        finals = [nn.concat((s[-1:, :h], s[:1, h:])) for s in states]
        return self.projection(nn.concat(finals, axis=0))


def char_vocab_from_words(word_vocab: Vocabulary) -> Vocabulary:
    chars = sorted({ch for w in word_vocab.symbols if w != word_vocab.unknown for ch in w})
    return Vocabulary(chars)


class TokenEncoder:
    """Turns a sentence into its embedding matrix, row i holding e_i.

    Input POS features come strictly from the externally predicted tag; a
    token without one uses the unknown POS vector. Gold tags are training
    targets elsewhere, never input features.
    """

    def __init__(self, word_vocab: Vocabulary, pos_vocab: Vocabulary,
                 config: EncoderConfig, params: nn.Parameters, prefix: str = ""):
        config.validate()
        self.config = config
        self.word_vocab = word_vocab
        self.pos_vocab = pos_vocab
        self.word_table = EmbeddingTable(word_vocab, config.word_dim, params, prefix + "words.")
        self.pos_table = None
        self.char_encoder = None
        if config.mode == "word+pos":
            self.pos_table = EmbeddingTable(pos_vocab, config.pos_dim, params, prefix + "pos.")
        else:
            self.char_encoder = CharEncoder(char_vocab_from_words(word_vocab), config, params,
                                            prefix + "char.")

    @property
    def output_size(self) -> int:
        return self.config.word_dim + self.config.pos_dim

    def _word_indices(self, sentence: Sentence, rng: np.random.Generator | None) -> list[int]:
        indices = []
        for tok in sentence.tokens:
            key = tok.form.lower()
            index = self.word_vocab.index_of(key)
            if rng is not None:
                p = drop_probability(self.word_vocab.count(key), self.config.alpha_word_dropout)
                if p > 0.0 and rng.random() < p:
                    index = self.word_vocab.unknown_index
            indices.append(index)
        return indices

    def encode(self, sentence: Sentence, rng: np.random.Generator | None = None) -> nn.Tensor:
        """The (n, output_size) embedding matrix, one row per token; `rng` drives word dropout."""
        if not sentence.tokens:
            raise InvalidInputError("cannot encode an empty sentence")
        empty = [tok for tok in sentence.tokens if not tok.form] if self.char_encoder else ()
        if empty:
            where = f"{sentence.origin}: " if sentence.origin else ""
            raise InvalidInputError(f"{where}token {empty[0].index} has an empty form, "
                                    "which the word+char encoder cannot read")
        words = self.word_table.vectors[np.array(self._word_indices(sentence, rng))]
        if self.pos_table is not None:
            other = self.pos_table.lookup([tok.predicted_pos for tok in sentence.tokens])
        else:
            other = self.char_encoder.encode([tok.form.lower() for tok in sentence.tokens])
        return nn.concat((words, other))
