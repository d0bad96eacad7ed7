from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from latentheads import decoder, nn, serialize, trainer
from latentheads.conll import Sentence, Token, Treebank
from latentheads.errors import ConfigurationError, InvalidInputError, NonFiniteError
from latentheads.evaluation import evaluate
from latentheads.model import EncodedSentence
from latentheads.trainer import (TrainConfig, labeler_loss, reconstruction_loss,
                                 sentence_loss, train, train_sentence)

from lhr_testutil import (fd_gradient, make_sentence, make_treebank,
                      max_relative_error, tiny_model)
from test_serialize import _cells


def three_token_sentence():
    toks = [
        Token(index=1, form="alpha", gold_pos="N", predicted_pos="N",
              gold_head=2, gold_label="arg"),
        Token(index=2, form="bravo", gold_pos="V", predicted_pos="V",
              gold_head=0, gold_label="root"),
        Token(index=3, form="charlie", gold_pos="N", predicted_pos="N",
              gold_head=2, gold_label="mod"),
    ]
    return Sentence(tokens=toks)


def punct_sentence():
    """three_token_sentence plus a comma under token 3."""
    s = three_token_sentence()
    s.tokens.append(Token(index=4, form=",", gold_pos="PUNCT", predicted_pos="PUNCT",
                          gold_head=3, gold_label="mod", is_punct=True))
    return s


def all_punct_sentence():
    # labels drawn from the toy inventory; is_punct set directly
    toks = [
        Token(index=1, form=",", gold_pos="PUNCT", predicted_pos="PUNCT",
              gold_head=2, gold_label="mod", is_punct=True),
        Token(index=2, form=".", gold_pos="PUNCT", predicted_pos="PUNCT",
              gold_head=0, gold_label="root", is_punct=True),
    ]
    return Sentence(tokens=toks)


@pytest.fixture(scope="module")
def toy():
    rng = np.random.default_rng(0)
    sents = [three_token_sentence()] + [make_sentence(4, rng) for _ in range(5)]
    return Treebank(sents)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigurationError):
        TrainConfig(epochs=0).validate()
    with pytest.raises(ConfigurationError):
        TrainConfig(lr=0.0).validate()
    with pytest.raises(ConfigurationError):
        TrainConfig(loss="huber").validate()
    with pytest.raises(ConfigurationError):
        TrainConfig(root_target="none").validate()
    with pytest.raises(ConfigurationError):
        TrainConfig(labeler_weight=-1.0).validate()
    for field in ("lr", "labeler_weight"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigurationError, match=f"^{field} must be finite"):
                TrainConfig(**{field: value}).validate()
    TrainConfig().validate()


def test_exact_reconstruction_gives_zero_loss(toy):
    model = tiny_model(toy)
    s = three_token_sentence()
    enc = model.encode_sentence(s)
    # hand the gold targets back as the latent heads
    rigged = EncodedSentence(
        context_vectors=enc.context_vectors,
        latent_heads=nn.Tensor(np.stack([
            enc.context_vectors.data[1],
            model.root_vector.data,
            enc.context_vectors.data[1],
        ])))
    loss = reconstruction_loss(model, s, rigged, TrainConfig())
    assert float(loss.data) == 0.0


def test_skip_punct_drops_reconstruction_terms_only(toy):
    model = tiny_model(toy)
    s = all_punct_sentence()
    enc = model.encode_sentence(s)
    recon = reconstruction_loss(model, s, enc, TrainConfig(skip_punct_heads=True))
    assert float(recon.data) == 0.0 and not recon.needs_grad
    label = labeler_loss(model, s, enc)
    assert float(label.data) > 0.0


def test_missing_gold_heads_rejected(toy):
    model = tiny_model(toy)
    s = three_token_sentence()
    s.tokens[1].gold_head = None
    enc = model.encode_sentence(s)
    with pytest.raises(InvalidInputError):
        reconstruction_loss(model, s, enc, TrainConfig())


@pytest.mark.parametrize("heads, problem", [
    ([2, 0, -1], "head -1 out of range"),
    ([2, 0, 4], "head 4 out of range"),
    ([2, 0, 0], "expected exactly one root token, found 2"),
    ([3, 0, 1], "cycle through token 1"),
], ids=["negative", "past-the-end", "two-roots", "cycle"])
@pytest.mark.parametrize("loss", ["reconstruction", "labeler"])
def test_gold_heads_that_are_not_a_tree_rejected(toy, heads, problem, loss):
    model = tiny_model(toy)
    s = three_token_sentence()
    s.origin = "train.conllu:7"
    for tok, head in zip(s.tokens, heads):
        tok.gold_head = head
    enc = model.encode_sentence(s)
    with pytest.raises(InvalidInputError, match=f"^train.conllu:7: {problem}"):
        if loss == "reconstruction":
            reconstruction_loss(model, s, enc, TrainConfig())
        else:
            labeler_loss(model, s, enc)


def test_unknown_label_names_sentence_and_token(toy):
    model = tiny_model(toy)
    s = three_token_sentence()
    s.origin = "train.conllu:7"
    s.tokens[2].gold_label = "nonexistent"
    with pytest.raises(InvalidInputError, match=r"^train.conllu:7: token 3 \('charlie'\): "
                                                "label 'nonexistent' is not in"):
        labeler_loss(model, s, model.encode_sentence(s))


def test_single_sentence_overfits_reconstruction(toy):
    model = tiny_model(toy)
    cfg = TrainConfig(labeler_weight=0.0, lr=0.01)
    s = three_token_sentence()
    rng = np.random.default_rng(0)
    params = model.named_parameters()
    last = None
    for step in range(500):
        parts = train_sentence(model, s, cfg, rng, params)
        last = parts["reconstruction"]
        if last < 1e-3:
            break
    assert last < 1e-3


def test_sentence_loss_breakdown(toy):
    model = tiny_model(toy)
    total, parts = sentence_loss(model, three_token_sentence(), TrainConfig())
    assert parts["total"] == pytest.approx(parts["reconstruction"] + parts["labeler"])
    assert float(total.data) == pytest.approx(parts["total"])


def test_labeler_weight_scales_contribution(toy):
    model = tiny_model(toy)
    s = three_token_sentence()
    _, parts1 = sentence_loss(model, s, TrainConfig(labeler_weight=1.0))
    _, parts2 = sentence_loss(model, s, TrainConfig(labeler_weight=0.5))
    assert parts2["total"] == pytest.approx(
        parts2["reconstruction"] + 0.5 * parts2["labeler"])
    assert parts1["labeler"] == pytest.approx(parts2["labeler"])


def test_root_vector_learns_only_from_labeler(toy):
    model = tiny_model(toy)
    s = three_token_sentence()

    total, _ = sentence_loss(model, s, TrainConfig(labeler_weight=0.0))
    total.backward()
    assert np.all(model.root_vector.grad == 0.0)

    total, _ = sentence_loss(model, s, TrainConfig())
    total.backward()
    assert np.any(model.root_vector.grad != 0.0)
    for _, p in model.named_parameters():
        p.grad[...] = 0.0


def test_rebalanced_targets_change_gradients(toy):
    model = tiny_model(toy)
    s = three_token_sentence()
    probe = dict(model.named_parameters())["context_encoder.forward.w_input"]

    total, _ = sentence_loss(model, s, TrainConfig(labeler_weight=0.0))
    total.backward()
    plain = probe.grad.copy()
    for _, p in model.named_parameters():
        p.grad[...] = 0.0

    total, _ = sentence_loss(model, s, TrainConfig(labeler_weight=0.0,
                                                   rebalance_targets=True))
    total.backward()
    rebalanced = probe.grad.copy()
    for _, p in model.named_parameters():
        p.grad[...] = 0.0

    assert not np.allclose(plain, rebalanced)


@pytest.mark.parametrize("cfg, s", [
    (TrainConfig(), three_token_sentence()),
    (TrainConfig(loss="mae"), three_token_sentence()),
    (TrainConfig(rebalance_targets=True), three_token_sentence()),
    (TrainConfig(root_target="self"), three_token_sentence()),
    (TrainConfig(labeler_weight=0.0), three_token_sentence()),
    (TrainConfig(skip_punct_heads=True, rebalance_targets=True, root_target="self"),
     punct_sentence()),
], ids=["default", "mae", "rebalance", "self-root", "recon-only", "skip-punct"])
def test_gradients_match_finite_differences(toy, cfg, s):
    model = tiny_model(toy, seed=3)
    # the detached targets must stay fixed while parameters are perturbed,
    # otherwise finite differences measure a different function
    frozen = trainer.capture_targets(model, s, model.encode_sentence(s), cfg)

    def loss_fn():
        t, _ = sentence_loss(model, s, cfg, target_overrides=frozen)
        return float(t.data)

    total, _ = sentence_loss(model, s, cfg)
    total.backward()
    named = dict(model.named_parameters())
    for name in ("root_vector", "head_reducer.weights",
                 "context_encoder.forward.w_forget", "labeler.shared.weights",
                 "token_encoder.words.vectors"):
        p = named[name]
        fd = fd_gradient(loss_fn, p)
        err = max_relative_error(p.grad, fd)
        assert err < 1e-4, f"{name}: relative error {err}"
    for _, p in named.items():
        p.grad[...] = 0.0


def test_softmax_labeler_gradients_match_finite_differences(toy):
    model = tiny_model(toy, seed=4, labeler_softmax=True)
    s = three_token_sentence()
    cfg = TrainConfig()
    frozen = trainer.capture_targets(model, s, model.encode_sentence(s), cfg)

    def loss_fn():
        t, _ = sentence_loss(model, s, cfg, target_overrides=frozen)
        return float(t.data)

    total, _ = sentence_loss(model, s, cfg)
    total.backward()
    named = dict(model.named_parameters())
    for name in ("labeler.label.weights", "labeler.pos.bias", "root_vector"):
        p = named[name]
        fd = fd_gradient(loss_fn, p)
        assert max_relative_error(p.grad, fd) < 1e-4
    for _, p in named.items():
        p.grad[...] = 0.0


def test_char_mode_gradients_match_finite_differences(toy):
    model = tiny_model(toy, seed=5, mode="word+char")
    s = three_token_sentence()
    cfg = TrainConfig()
    frozen = trainer.capture_targets(model, s, model.encode_sentence(s), cfg)

    def loss_fn():
        t, _ = sentence_loss(model, s, cfg, target_overrides=frozen)
        return float(t.data)

    total, _ = sentence_loss(model, s, cfg)
    total.backward()
    named = dict(model.named_parameters())
    for name in ("token_encoder.char.chars.vectors",
                 "token_encoder.char.birnn.forward.w_input",
                 "token_encoder.char.projection.weights"):
        p = named[name]
        fd = fd_gradient(loss_fn, p)
        assert max_relative_error(p.grad, fd) < 1e-4
    for _, p in named.items():
        p.grad[...] = 0.0


def tape_nodes(loss) -> int:
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(p for p in node._parents if p.needs_grad)
    return len(seen)


@pytest.mark.parametrize("cfg", [TrainConfig(), TrainConfig(rebalance_targets=True)],
                         ids=["default", "rebalance"])
def test_tape_size_does_not_grow_with_sentence_length(toy, cfg):
    model = tiny_model(toy)
    rng = np.random.default_rng(12)
    sizes = [tape_nodes(sentence_loss(model, make_sentence(n, rng), cfg)[0]) for n in (3, 30)]
    assert sizes[0] == sizes[1]
    assert sizes[0] < 2 * len(list(model.named_parameters()))


def test_training_reduces_average_loss(toy):
    model = tiny_model(toy)
    report = train(model, toy, TrainConfig(epochs=8, seed=0))
    assert report.records[-1].train_loss < report.records[0].train_loss


def test_two_runs_same_seed_identical(toy):
    reports = []
    weights = []
    for _ in range(2):
        model = tiny_model(toy, seed=7)
        reports.append(train(model, toy, TrainConfig(epochs=3, seed=11)))
        weights.append({n: p.data.copy() for n, p in model.named_parameters()})
    r1, r2 = reports
    assert [(r.epoch, r.train_loss) for r in r1.records] == \
           [(r.epoch, r.train_loss) for r in r2.records]
    for name in weights[0]:
        assert np.array_equal(weights[0][name], weights[1][name])


def test_different_seed_changes_the_run(toy):
    m1 = tiny_model(toy, seed=7)
    m2 = tiny_model(toy, seed=7)
    r1 = train(m1, toy, TrainConfig(epochs=2, seed=1))
    r2 = train(m2, toy, TrainConfig(epochs=2, seed=2))
    assert r1.records[-1].train_loss != r2.records[-1].train_loss


def test_best_dev_weights_are_restored(toy):
    model = tiny_model(toy)
    dev = Treebank(toy.sentences[:3])
    report = train(model, toy, TrainConfig(epochs=4, seed=0), dev_tb=dev)
    assert report.best_epoch is not None
    trees = [decoder.parse(model, s) for s in dev.sentences]
    assert evaluate(dev, trees).uas == pytest.approx(report.best_uas)


def test_empty_treebank_rejected(toy):
    model = tiny_model(toy)
    with pytest.raises(InvalidInputError):
        train(model, Treebank([]), TrainConfig(epochs=1))


@pytest.mark.parametrize("column, problem", [("gold_label", "has no arc label"),
                                             ("gold_head", "has no gold head")],
                         ids=["unlabeled", "headless"])
def test_train_checks_every_sentence_before_its_first_step(toy, monkeypatch, column, problem):
    bad = three_token_sentence()
    bad.origin = "train.conllu:40"
    setattr(bad.tokens[2], column, None)
    tb = Treebank(toy.sentences + [bad])
    model = tiny_model(tb)
    before = [p.data.copy() for _, p in model.named_parameters()]
    steps, adam_step = [], nn.adam_step
    monkeypatch.setattr(nn, "adam_step", lambda *a, **k: steps.append(1) or adam_step(*a, **k))
    with pytest.raises(InvalidInputError,
                       match=rf"^train.conllu:40: token 3 \('charlie'\) {problem}"):
        train(model, tb, TrainConfig(epochs=1, shuffle=False))
    assert steps == []
    assert all(np.array_equal(b, p.data) for b, (_, p) in zip(before, model.named_parameters()))
    if column == "gold_label":  # only the labeler reads labels
        train(model, tb, TrainConfig(epochs=1, labeler_weight=0.0, shuffle=False))
        assert len(steps) == len(tb.sentences)


def test_non_finite_gradient_fails_loudly(toy):
    model = tiny_model(toy)
    s = three_token_sentence()
    total, _ = sentence_loss(model, s, TrainConfig())
    total.backward()
    model.root_vector.grad[0] = np.inf
    with pytest.raises(NonFiniteError):
        nn.adam_step(model.named_parameters())
    for _, p in model.named_parameters():
        p.grad[...] = 0.0


def test_report_tsv_has_one_row_per_epoch(toy, tmp_path):
    model = tiny_model(toy)
    dev = Treebank(toy.sentences[:2])
    report = train(model, toy, TrainConfig(epochs=3, seed=0), dev_tb=dev)
    out = tmp_path / "curve.tsv"
    report.save_tsv(str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0].split("\t") == ["epoch", "train_loss", "dev_uas", "dev_las"]
    assert len(lines) == 4
    assert lines[1].split("\t")[0] == "1"


# ---------------------------------------------------------------------- arena

@pytest.mark.parametrize("mode", ["word+pos", "word+char"])
def test_first_training_step_moves_every_weight_into_the_arena(toy, mode):
    model = tiny_model(toy, seed=3, mode=mode)
    named = model.named_parameters()
    assert model.params.arena is None
    train_sentence(model, toy.sentences[0], TrainConfig(), np.random.default_rng(0), named)
    arena = model.params.arena
    assert arena.shape == (4, sum(p.data.size for _, p in named))
    for name, p in named:
        assert np.shares_memory(p.data, arena[0]) and np.shares_memory(p.grad, arena[1]), name
    for cell in _cells(model):
        assert np.shares_memory(cell.weight, arena[0]) and np.shares_memory(cell.bias, arena[0])
        assert cell.weight[:, cell.input_size:].flags.f_contiguous
        h = cell.hidden_size
        for k, (w, b) in enumerate(cell.gates):
            for gate, stack in ((w.data, cell.weight), (b.data, cell.bias)):
                rows = stack[k * h:(k + 1) * h]
                assert gate.__array_interface__ == rows.__array_interface__


def test_building_the_arena_keeps_every_weight(toy):
    model = tiny_model(toy, seed=3, mode="word+char")
    before = [p.data.copy() for _, p in model.named_parameters()]
    model.params.ensure_arena()
    assert all(np.array_equal(p.data, b) for (_, p), b in zip(model.named_parameters(), before))


@pytest.mark.parametrize("mode", ["word+pos", "word+char"])
def test_writing_into_the_arena_changes_the_next_forward_pass(toy, mode, tmp_path):
    model = tiny_model(toy, seed=3, mode=mode)
    train_sentence(model, toy.sentences[0], TrainConfig(), np.random.default_rng(0),
                   model.named_parameters())
    sentence = toy.sentences[1]
    with nn.no_grad():
        trained = model.latent_structure(model.encode_sentence(sentence))
    arena = model.params.arena
    arena[0] = np.random.default_rng(1).uniform(-0.5, 0.5, arena.shape[1])
    # a checkpoint saved now holds the arena's values; a model loaded from it
    # reads only those, so any module still reading an old copy would differ
    path = str(tmp_path / "m.npz")
    serialize.save_model(model, path)
    loaded = serialize.load_model(path)
    with nn.no_grad():
        written = model.latent_structure(model.encode_sentence(sentence))
        expected = loaded.latent_structure(loaded.encode_sentence(sentence))
    assert not np.array_equal(written, trained)
    assert np.array_equal(written, expected)
    assert decoder.parse(model, sentence) == decoder.parse(loaded, sentence)


def test_two_backward_calls_before_one_adam_step_sum_their_gradients(toy):
    first, second = toy.sentences[0], toy.sentences[1]
    grads = []
    for sentences in ([first], [second], [first, second]):
        model = tiny_model(toy, seed=3)
        for s in sentences:
            sentence_loss(model, s, TrainConfig())[0].backward()
        grads.append(model.params.arena[1].copy())
    assert np.any(grads[0]) and np.any(grads[1])
    assert np.allclose(grads[2], grads[0] + grads[1], rtol=1e-12, atol=1e-15)


def test_a_loaded_model_that_only_parses_never_builds_the_arena(toy, tmp_path):
    path = str(tmp_path / "m.npz")
    serialize.save_model(tiny_model(toy, seed=3, mode="word+char"), path)
    loaded = serialize.load_model(path)
    for s in toy.sentences:
        decoder.parse(loaded, s)
    assert loaded.params.arena is None
    assert all(p._grad is None for _, p in loaded.named_parameters())


def test_a_trained_model_is_freed_without_the_cycle_collector(toy):
    gc.disable()
    try:
        model = tiny_model(toy, seed=3, mode="word+char")
        train_sentence(model, toy.sentences[0], TrainConfig(), np.random.default_rng(0),
                       model.named_parameters())
        params = weakref.ref(model.params)
        del model
        assert params() is None
    finally:
        gc.enable()
