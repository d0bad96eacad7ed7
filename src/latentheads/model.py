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
    labeler_softmax: bool = False  # True for the cross-entropy variant

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


class LabelerHead:
    """Two classifier outputs sharing one hidden layer."""

    def __init__(self, context_size: int, hidden: int, n_labels: int, n_pos: int,
                 softmax_outputs: bool, rng: np.random.Generator):
        out_act = "softmax" if softmax_outputs else "identity"
        self.shared_hidden = nn.DenseLayer(2 * context_size, hidden, "tanh", rng)
        self.label_output = nn.DenseLayer(hidden, n_labels, out_act, rng)
        self.pos_output = nn.DenseLayer(hidden, n_pos, out_act, rng)

    def score(self, dependent_c: nn.Tensor, governor_c: nn.Tensor) -> tuple[nn.Tensor, nn.Tensor]:
        """Label and POS scores for one arc (vectors) or one arc per row (matrices)."""
        hidden = self.shared_hidden(nn.concat((dependent_c, governor_c)))
        return self.label_output(hidden), self.pos_output(hidden)

    def named_parameters(self, prefix: str = ""):
        yield from self.shared_hidden.named_parameters(prefix + "shared.")
        yield from self.label_output.named_parameters(prefix + "label.")
        yield from self.pos_output.named_parameters(prefix + "pos.")


class LhrModel:
    """All trainable state of the parser, plus its vocabularies."""

    def __init__(self, word_vocab: Vocabulary, pos_vocab: Vocabulary,
                 label_vocab: Vocabulary, seen_pairs, config: ModelConfig,
                 seed: int = 0):
        config.validate()
        rng = np.random.default_rng(seed)
        self.config = config
        self.word_vocab = word_vocab
        self.pos_vocab = pos_vocab
        self.label_vocab = label_vocab
        self.seen_pairs = [tuple(p) for p in seen_pairs]

        self.token_encoder = TokenEncoder(word_vocab, pos_vocab, config.encoder, rng)
        self.context_encoder = nn.BiEncoder(
            self.token_encoder.output_size, config.context_hidden, rng)
        self.heads_encoder = nn.BiEncoder(
            self.context_encoder.output_size, config.heads_hidden, rng)
        # reduce the heads encoder's output back to |c| so h and c are comparable
        self.head_reducer = nn.DenseLayer(
            self.heads_encoder.output_size, config.context_size, "tanh", rng)
        self.root_vector = nn.Parameter(
            rng.uniform(-0.05, 0.05, size=config.context_size))
        self.labeler = LabelerHead(config.context_size, config.labeler_hidden,
                                   len(label_vocab), len(pos_vocab),
                                   config.labeler_softmax, rng)
        # precomputed index arrays for the joint label/POS argmax over seen pairs
        self._pair_label_idx = np.array(
            [label_vocab.index_of(l) for l, _ in self.seen_pairs], dtype=int)
        self._pair_pos_idx = np.array(
            [pos_vocab.index_of(p) for _, p in self.seen_pairs], dtype=int)

    @property
    def context_size(self) -> int:
        return self.config.context_size

    def encode_sentence(self, sentence: Sentence, training: bool = False,
                        rng: np.random.Generator | None = None) -> EncodedSentence:
        embeddings = self.token_encoder.encode(sentence, training, rng)
        context_vectors = self.context_encoder.encode(embeddings)
        latent_heads = self.head_reducer(self.heads_encoder.encode(context_vectors))
        return EncodedSentence(context_vectors, latent_heads)

    def governor_vectors(self, context_vectors: nn.Tensor, heads) -> nn.Tensor:
        """Row i: the context vector of head heads[i] (1-based), the root vector for 0."""
        return nn.stack_rows((self.root_vector, context_vectors))[np.asarray(heads, dtype=np.intp)]

    def score_label_pos(self, dependent_c: nn.Tensor,
                        governor_c_or_root: nn.Tensor) -> tuple[nn.Tensor, nn.Tensor]:
        if dependent_c.data.shape[-1:] != (self.context_size,) or \
                governor_c_or_root.data.shape != dependent_c.data.shape:
            raise ConfigurationError(
                f"labeler inputs must have rows of length {self.context_size}")
        return self.labeler.score(dependent_c, governor_c_or_root)

    def latent_structure(self, enc: EncodedSentence) -> np.ndarray:
        """Row i is [c_i; h_i], for downstream consumers."""
        return np.hstack((enc.context_vectors.data, enc.latent_heads.data))

    def named_parameters(self) -> list[tuple[str, nn.Parameter]]:
        params = list(self.token_encoder.named_parameters("token_encoder."))
        params += list(self.context_encoder.named_parameters("context_encoder."))
        params += list(self.heads_encoder.named_parameters("heads_encoder."))
        params += list(self.head_reducer.named_parameters("head_reducer."))
        params.append(("root_vector", self.root_vector))
        params += list(self.labeler.named_parameters("labeler."))
        return params
