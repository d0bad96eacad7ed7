"""The parser network: context encoder, heads encoder, root vector, labeler.

The context encoder turns token embeddings into context vectors c_i. The
heads encoder reads the c sequence and, through a size-reducing feedforward,
emits one latent head h_i per token, trained to approximate the context
vector of token i's governor. A shared-hidden classifier scores arc labels
and POS tags for (dependent, governor) context-vector pairs, with the root
vector standing in for governors attached to the virtual root.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .conll import Sentence, Vocabulary
from .errors import ConfigurationError
from .tokens import EncoderConfig, TokenEncoder


@dataclass
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    context_hidden: int = 200    # per direction; |c| is twice this
    heads_hidden: int = 200      # per direction, reduced back to |c|
    labeler_hidden: int = 100
    labeler_softmax: bool = False  # train the labeler by cross-entropy, not hinge, on its scores

    def validate(self) -> None:
        self.encoder.validate()
        for name in ("context_hidden", "heads_hidden", "labeler_hidden"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")

    @property
    def context_size(self) -> int:
        return 2 * self.context_hidden


@dataclass
class EncodedSentence:
    """One sentence's matrices, one row per token."""

    context_vectors: nn.Tensor   # (n, |c|)
    latent_heads: nn.Tensor      # (n, |c|)

    def __len__(self) -> int:
        return len(self.context_vectors)


class LhrModel:
    """All trainable state of the parser, plus its vocabularies.

    Fresh weights are drawn from `seed`; a `source` hands out saved ones instead.
    """

    def __init__(self, word_vocab: Vocabulary, pos_vocab: Vocabulary,
                 label_vocab: Vocabulary, seen_pairs, config: ModelConfig,
                 seed: int = 0, source: nn.Parameters | None = None):
        config.validate()
        params = self.params = source or nn.Parameters(np.random.default_rng(seed))
        self.config = config
        self.word_vocab = word_vocab
        self.pos_vocab = pos_vocab
        self.label_vocab = label_vocab
        self.seen_pairs = [tuple(p) for p in seen_pairs]

        self.token_encoder = TokenEncoder(word_vocab, pos_vocab, config.encoder, params,
                                          "token_encoder.")
        self.context_encoder = nn.BiEncoder(
            self.token_encoder.output_size, config.context_hidden, params, "context_encoder.")
        self.heads_encoder = nn.BiEncoder(
            self.context_encoder.output_size, config.heads_hidden, params, "heads_encoder.")
        # reduce the heads encoder's output back to |c| so h and c are comparable
        self.head_reducer = nn.DenseLayer(
            self.heads_encoder.output_size, config.context_size, "tanh", params, "head_reducer.")
        self.root_vector = params.new("root_vector", (config.context_size,), "uniform")
        # the labeler: two raw-score outputs sharing one hidden layer
        self.labeler_shared = nn.DenseLayer(
            2 * config.context_size, config.labeler_hidden, "tanh", params, "labeler.shared.")
        self.labeler_label = nn.DenseLayer(
            config.labeler_hidden, len(label_vocab), "identity", params, "labeler.label.")
        self.labeler_pos = nn.DenseLayer(
            config.labeler_hidden, len(pos_vocab), "identity", params, "labeler.pos.")
        # label and POS row of each seen pair, for the joint argmax of best_pairs
        self._pair_rows = np.array([(label_vocab.index_of(l), pos_vocab.index_of(p))
                                    for l, p in self.seen_pairs], dtype=int).reshape(-1, 2)

    @property
    def context_size(self) -> int:
        return self.config.context_size

    def encode_sentence(self, sentence: Sentence,
                        rng: np.random.Generator | None = None) -> EncodedSentence:
        embeddings = self.token_encoder.encode(sentence, rng)
        context_vectors = self.context_encoder.encode(embeddings)
        latent_heads = self.head_reducer(self.heads_encoder.encode(context_vectors))
        return EncodedSentence(context_vectors, latent_heads)

    def governor_vectors(self, context_vectors: nn.Tensor, heads) -> nn.Tensor:
        """Row i: the context vector of head heads[i] (1-based), the root vector for 0."""
        table = nn.concat((self.root_vector[None], context_vectors), axis=0)
        return table[np.asarray(heads, dtype=np.intp)]

    def score_label_pos(self, dependent_c: nn.Tensor,
                        governor_c_or_root: nn.Tensor) -> tuple[nn.Tensor, nn.Tensor]:
        """Label and POS scores for one arc per row of the two (n, |c|) matrices."""
        if dependent_c.data.shape[-1:] != (self.context_size,) or \
                governor_c_or_root.data.shape != dependent_c.data.shape:
            raise ConfigurationError(
                f"labeler inputs must have rows of length {self.context_size}")
        hidden = self.labeler_shared(nn.concat((dependent_c, governor_c_or_root)))
        return self.labeler_label(hidden), self.labeler_pos(hidden)

    def best_pairs(self, context_vectors: nn.Tensor, heads) -> list[tuple[str, str]]:
        """Per arc heads[i] -> token i+1, the seen (label, POS) pair scoring highest.

        A pair scores its label score plus its POS score. For a labeler trained
        by cross-entropy that ranks pairs by joint log-probability: an arc's two
        softmax normalisers are the same for all its pairs.
        """
        if not self.seen_pairs:
            raise ConfigurationError("no (label, POS) pairs to choose from")
        with nn.no_grad():
            label_scores, pos_scores = self.score_label_pos(
                context_vectors, self.governor_vectors(context_vectors, heads))
        label_rows, pos_rows = self._pair_rows.T
        combined = label_scores.data[:, label_rows] + pos_scores.data[:, pos_rows]
        return [self.seen_pairs[k] for k in np.argmax(combined, axis=1)]  # ties: first pair

    def latent_structure(self, enc: EncodedSentence) -> np.ndarray:
        """Row i is [c_i; h_i], for downstream consumers."""
        return np.hstack((enc.context_vectors.data, enc.latent_heads.data))

    def named_parameters(self) -> nn.Parameters:
        """The model's one parameter set; iterating it yields (name, Parameter) pairs."""
        return self.params
