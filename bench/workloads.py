"""The benchmark's four workloads and the spans its traced run records.

Each workload is a closed loop over single sentences: one op handles one
sentence and the next op starts when it returns. `prepare` writes the inputs
(untimed and outside set-up), `setup` is what a user pays before the first op
and is what `setup_s` measures, `run_op` is the timed op, and `check_op` and
`finish` check the outputs outside the timed region.

Why these workloads:
- train-paper: the only one with backward and Adam, and the only one that
  writes parameters (paper dims, about 2.07M parameter elements).
- parse-paper: load, parse and write at paper dims; the no-grad encoder does
  nearly all the work, so Adam and backward changes should not move it.
- export-paper: LSS text export at paper dims; the only one that runs the
  export layer, and it writes large output.
- parse-tiny: the parse pipeline at the test dims, where per-op Python cost
  dominates and the decoder does a real share of the work. It is not listed
  in BENCHMARK.json: on a shared two-core machine its throughput swung by up
  to 2.4x between 5-second windows, so its run-to-run spread exceeded the
  largest bound a metric may have. It stays runnable for decoder studies.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from latentheads import conll, decoder, export, model, nn, serialize, tokens, trainer
from latentheads.conll import Treebank
from latentheads.model import LhrModel, ModelConfig
from latentheads.tokens import EncoderConfig

import treebank
from tracing import Hook

PAPER_DIMS = dict(word_dim=150, pos_dim=50, context_hidden=200, heads_hidden=200,
                  labeler_hidden=100)
TEST_DIMS = dict(word_dim=32, pos_dim=8, context_hidden=16, heads_hidden=16,
                 labeler_hidden=16)
QUALITY_SENTENCES = 32  # sentences behind `loss` and the output digest of every workload
LSS_CHECK_EVERY = 8     # export ops whose file is read back and compared bit for bit


def model_config(dims: dict) -> ModelConfig:
    return ModelConfig(
        encoder=EncoderConfig(word_dim=dims["word_dim"], pos_dim=dims["pos_dim"]),
        context_hidden=dims["context_hidden"], heads_hidden=dims["heads_hidden"],
        labeler_hidden=dims["labeler_hidden"])


def new_model(train_path: str, dims: dict, seed: int) -> LhrModel:
    tb = conll.read_conll(train_path)
    word_vocab, pos_vocab, label_vocab, seen_pairs = conll.build_vocabularies(tb)
    return LhrModel(word_vocab, pos_vocab, label_vocab, seen_pairs, model_config(dims),
                    seed=seed)


def mean_loss(m: LhrModel, sentences) -> float:
    """Mean per-sentence training loss, forward only, no dropout."""
    cfg = trainer.TrainConfig()
    with nn.no_grad():
        return math.fsum(trainer.sentence_loss(m, s, cfg)[1]["total"]
                         for s in sentences) / len(sentences)


class Workload:
    name = ""
    dims: dict = PAPER_DIMS

    def __init__(self, rundir: str, seed: int):
        self.rundir = rundir
        self.seed = seed
        self.train_path = os.path.join(rundir, "train.conllu")
        self.test_path = os.path.join(rundir, "test.conllu")
        self.model_path = os.path.join(rundir, "model.npz")
        self.digest = hashlib.sha256()

    def prepare(self) -> dict:
        stats = treebank.write_corpus(self.rundir, self.seed)
        serialize.save_model(new_model(self.train_path, self.dims, self.seed),
                             self.model_path)
        return stats

    def setup(self) -> None:
        self.model = serialize.load_model(self.model_path)
        self.sentences = conll.read_conll(self.test_path).sentences
        self.singles = [Treebank([s]) for s in self.sentences]

    def run_op(self, i: int):
        raise NotImplementedError

    def check_op(self, k: int, i: int, out) -> None:
        """Raise if op `k` (on sentence `i`) produced a wrong output."""

    def finish(self) -> tuple[int, float]:
        """Failed checks over the whole run, and the quality guard `loss`."""
        return 0, mean_loss(self.model, self.sentences[:QUALITY_SENTENCES])


class TrainPaper(Workload):
    name = "train-paper"

    def prepare(self) -> dict:
        return treebank.write_corpus(self.rundir, self.seed)

    def setup(self) -> None:
        self.model = new_model(self.train_path, self.dims, self.seed)
        self.sentences = conll.read_conll(self.train_path).sentences
        self.params = self.model.named_parameters()
        self.cfg = trainer.TrainConfig(seed=self.seed)
        self.rng = np.random.default_rng(self.seed)
        self.losses: list[float] = []

    def run_op(self, i: int):
        return trainer.train_sentence(self.model, self.sentences[i], self.cfg, self.rng,
                                      self.params)

    def check_op(self, k: int, i: int, parts) -> None:
        if not math.isfinite(parts["total"]):
            raise ValueError(f"step {k}: non-finite loss {parts['total']}")
        if k < QUALITY_SENTENCES:
            self.losses.append(parts["total"])
        if k == QUALITY_SENTENCES - 1:
            for _, p in self.params:
                self.digest.update(p.data.tobytes())

    def finish(self) -> tuple[int, float]:
        return 0, math.fsum(self.losses) / len(self.losses)


class Parse(Workload):
    def setup(self) -> None:
        super().setup()
        self.out_path = os.path.join(self.rundir, "parsed.conllu")
        self.out = open(self.out_path, "w", encoding="utf-8")
        self.written: list[tuple[tuple, tuple]] = []

    def run_op(self, i: int):
        tree = decoder.parse(self.model, self.sentences[i])
        conll.write_conll(self.singles[i], [tree], self.out)
        return tree

    def check_op(self, k: int, i: int, tree) -> None:
        self.written.append((tuple(tree.heads), tuple(tree.labels)))
        if k == QUALITY_SENTENCES - 1:
            self.out.flush()
            self.digest_bytes = self.out.tell()
        tree.validate()

    def finish(self) -> tuple[int, float]:
        self.out.close()
        back = conll.read_conll(self.out_path).sentences
        failed = abs(len(back) - len(self.written))
        for sent, (heads, labels) in zip(back, self.written):
            if tuple(t.gold_head for t in sent.tokens) != heads or \
                    tuple(t.gold_label for t in sent.tokens) != labels:
                failed += 1
        with open(self.out_path, "rb") as fh:
            self.digest.update(fh.read(self.digest_bytes))
        return failed, super().finish()[1]


class ParsePaper(Parse):
    name = "parse-paper"


class ParseTiny(Parse):
    name = "parse-tiny"
    dims = TEST_DIMS


class ExportPaper(Workload):
    name = "export-paper"

    def setup(self) -> None:
        super().setup()
        self.out_path = os.path.join(self.rundir, "export.lss")

    def run_op(self, i: int):
        export.export_lss(self.model, self.singles[i], self.out_path, "text")

    def check_op(self, k: int, i: int, _) -> None:
        if k < QUALITY_SENTENCES:
            with open(self.out_path, "rb") as fh:
                self.digest.update(fh.read())
        if k % LSS_CHECK_EVERY:
            return
        (rows,) = export.read_lss_text(self.out_path)
        expected = export.sentence_vectors(self.model, self.sentences[i])
        if len(rows) != len(expected):
            raise ValueError(f"op {k}: {len(rows)} exported rows, expected {len(expected)}")
        for (form, vec), (want_form, want) in zip(rows, expected):
            if form != want_form or vec.shape != want.shape or \
                    not np.array_equal(vec.view(np.uint64), want.view(np.uint64)):
                raise ValueError(f"op {k}: exported vector for {form!r} differs from "
                                 "sentence_vectors")


WORKLOADS = {w.name: w for w in (TrainPaper, ParsePaper, ParseTiny, ExportPaper)}


def _count_tape(tracer, args, kwargs) -> None:
    with tracer.span("trace.tape_walk"):
        seen: set[int] = set()
        stack = [args[0]]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(p for p in node._parents if p.needs_grad)
    tracer.counts["tape_nodes"] += len(seen)


def _count_adam(tracer, args, kwargs) -> None:
    params = args[0] if args else kwargs["params"]
    tracer.counts["adam_steps"] += 1
    tracer.counts["adam_elems"] += sum(
        (p if isinstance(p, nn.Parameter) else p[1]).data.size for p in params)


def _count_repair(tracer, args, kwargs, repaired) -> None:
    tracer.counts["parsed"] += 1
    tracer.counts["repaired"] += bool(repaired.needed_repair)
    tracer.counts["rewired"] += sum(a != b for a, b in zip(args[0].heads, repaired.heads))


# (owner, attribute, span name, hooks). Span names are the per-layer metric
# names without their unit suffix.
TRACE_TARGETS = [
    (tokens.TokenEncoder, "encode", "tokens.encode", ()),
    (nn.BiEncoder, "encode", "nn.bilstm", ()),
    (model.LhrModel, "encode_sentence", "model.encode", ()),
    (model.LhrModel, "__init__", "model.init", ()),
    (nn.Tensor, "backward", "nn.backward", (Hook("before", _count_tape),)),
    (nn, "adam_step", "nn.adam", (Hook("before", _count_adam),)),
    (trainer, "reconstruction_loss", "trainer.loss", ()),
    (trainer, "labeler_loss", "trainer.loss", ()),
    (decoder, "build_scores", "decoder.scores", ()),
    (decoder, "select_root", "decoder.heads", ()),
    (decoder, "assign_heads", "decoder.heads", ()),
    (decoder, "repair_cycles", "decoder.repair", (Hook("after", _count_repair),)),
    (decoder, "assign_labels_pos", "decoder.label", ()),
    (conll, "write_conll", "conll.write", ()),
    (conll, "read_conll", "conll.read", ()),
    (export, "write_lss_text", "export.write", ()),
    (export, "sentence_vectors", "export.vectors", ()),
    (serialize, "load_model", "serialize.load", ()),
]
SETUP_LAYERS = ["conll.read", "serialize.load", "model.init"]
OP_LAYERS = list(dict.fromkeys(name for _, _, name, _ in TRACE_TARGETS
                               if name not in SETUP_LAYERS)) + ["trace.tape_walk"]
