from __future__ import annotations

import math
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentheads import decoder, nn, trainer
from latentheads.errors import (ConfigurationError, InvalidInputError, LatentHeadsError,
                                NonFiniteError, UsageError)

from latentheads.model import EncodedSentence

from lhr_testutil import fd_gradient, make_treebank, max_relative_error, tiny_model
import reference_adam
from test_reference import assert_close


def tensor(values):
    return nn.Tensor(np.asarray(values, dtype=np.float64))


# ---------------------------------------------------------------- dense layer

def test_dense_zero_weights_tanh_gives_zero():
    layer = nn.DenseLayer(2, 3, "tanh", nn.Parameters(np.random.default_rng(0)))
    layer.weights.data[...] = 0.0
    layer.bias.data[...] = 0.0
    out = layer(tensor([[1.5, -2.0]]))
    assert np.array_equal(out.data, np.zeros((1, 3)))


def test_dense_identity_passthrough():
    layer = nn.DenseLayer(2, 2, "identity", nn.Parameters(np.random.default_rng(0)))
    layer.weights.data[...] = np.eye(2)
    layer.bias.data[...] = 0.0
    out = layer(tensor([[0.3, -0.7]]))
    assert np.allclose(out.data, [[0.3, -0.7]])


def test_dense_single_row_tanh():
    layer = nn.DenseLayer(2, 1, "tanh", nn.Parameters(np.random.default_rng(0)))
    layer.weights.data[...] = np.array([[1.0, 1.0]])
    layer.bias.data[...] = 0.0
    out = layer(tensor([[0.5, 0.5]]))
    assert np.allclose(out.data, [[math.tanh(1.0)]])


# each op that takes row matrices, called with a 3-vector
VECTOR_CALLS = [
    ("linear", lambda v: nn.linear(v, tensor(np.ones((2, 3))), tensor(np.zeros(2)))),
    ("DenseLayer", lambda v: nn.DenseLayer(3, 2, "identity",
                                           nn.Parameters(np.random.default_rng(0)))(v)),
    ("concat", lambda v: nn.concat([v, tensor(np.ones((1, 2)))])),
    ("concat_axis0", lambda v: nn.concat([v, tensor(np.ones((2, 3)))], axis=0)),
    ("margin_loss", lambda v: nn.margin_loss(v, 0)),
    ("cross_entropy_loss", lambda v: nn.cross_entropy_loss(v, 0)),
]


@pytest.mark.parametrize("call", [case[1] for case in VECTOR_CALLS],
                         ids=[case[0] for case in VECTOR_CALLS])
def test_row_matrix_ops_reject_a_vector(call):
    with pytest.raises(LatentHeadsError):
        call(nn.Parameter(np.array([0.2, 0.5, 0.3])))


def test_dense_rejects_bad_activation_and_size():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        nn.DenseLayer(2, 2, "relu", nn.Parameters(rng))
    with pytest.raises(ConfigurationError):
        nn.DenseLayer(0, 2, "identity", nn.Parameters(rng))
    layer = nn.DenseLayer(3, 2, "identity", nn.Parameters(rng))
    with pytest.raises(ConfigurationError):
        layer(tensor([1.0, 2.0]))


# ------------------------------------------------------------------ lstm cell

def _zeroed_cell(input_size=2, hidden=3):
    params = nn.Parameters(np.random.default_rng(1))
    cell = nn.LstmCell(input_size, hidden, params)
    for _, p in params.named:
        p.data[...] = 0.0
    return cell


def test_lstm_all_zero_weights_gives_zero_state():
    cell = _zeroed_cell()
    hs, (_, _, cs, _) = cell.run(np.array([[0.4, -1.2]]))
    assert np.array_equal(hs, np.zeros((1, 3)))
    assert np.array_equal(cs, np.zeros((1, 3)))


def test_lstm_saturated_gates_carry_cell_state():
    # forget gate wide open; the input gate opens on the first step only, so
    # the second step must carry the first step's cell state unchanged
    cell = _zeroed_cell()
    cell.b_forget.data[...] = 50.0
    cell.w_input.data[:, 0] = 50.0
    cell.w_candidate.data[:, 1] = 1.0
    _, (_, _, cs, _) = cell.run(np.array([[2.0, 0.7], [-2.0, -0.5]]))
    assert np.allclose(cs[0], np.tanh(0.7), atol=1e-12)
    assert np.allclose(cs[1], cs[0], atol=1e-12)


def test_lstm_matches_scalar_reimplementation():
    rng = np.random.default_rng(42)
    cell = nn.LstmCell(2, 3, nn.Parameters(rng))
    xs = rng.normal(size=(2, 2))
    hs, (_, _, cs, _) = cell.run(xs)

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h_prev, c_prev = [0.0] * 3, [0.0] * 3
    for t in range(2):
        xh = list(xs[t]) + h_prev
        h_new, c_new = [], []
        for j in range(3):
            def affine(w, b):
                return sum(w.data[j][k] * xh[k] for k in range(5)) + b.data[j]
            i_j = sig(affine(cell.w_input, cell.b_input))
            f_j = sig(affine(cell.w_forget, cell.b_forget))
            o_j = sig(affine(cell.w_output, cell.b_output))
            g_j = math.tanh(affine(cell.w_candidate, cell.b_candidate))
            c_new.append(f_j * c_prev[j] + i_j * g_j)
            h_new.append(o_j * math.tanh(c_new[j]))
        for j in range(3):
            assert abs(cs[t][j] - c_new[j]) < 1e-12
            assert abs(hs[t][j] - h_new[j]) < 1e-12
        h_prev, c_prev = h_new, c_new


def _gates_for_bias(bias):
    """The cached gate outputs of one step whose pre-activations are `bias`."""
    cell = _zeroed_cell(hidden=len(bias) // 4)
    cell.bias[...] = bias
    _, (_, gates, _, _) = cell.run(np.zeros((1, 2)))
    return gates[0]


def test_lstm_sigmoid_gates_match_expit():
    from scipy.special import expit
    bias = np.linspace(-700.0, 700.0, 4 * 1001)
    sig = slice(0, 3 * 1001)
    assert np.allclose(_gates_for_bias(bias)[sig], expit(bias[sig]), rtol=1e-15, atol=0.0)


def test_lstm_saturated_gate_is_exactly_zero_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gates = _gates_for_bias(np.full(8, -1000.0))
    assert np.array_equal(gates[:6], np.zeros(6))


def test_lstm_forget_bias_initialized_to_one():
    cell = nn.LstmCell(4, 4, nn.Parameters(np.random.default_rng(0)))
    assert np.all(cell.b_forget.data == 1.0)
    assert np.all(cell.b_input.data == 0.0)


def test_lstm_gate_parameters_are_views_of_the_stacked_arrays():
    cell = nn.LstmCell(2, 3, nn.Parameters(np.random.default_rng(0)))
    cell.w_output.data[...] = 7.0
    cell.b_candidate.data[...] = 2.0
    assert np.all(cell.weight[6:9] == 7.0)
    assert np.all(cell.bias[9:12] == 2.0)


# ----------------------------------------------------------------- bi-encoder

def test_biencoder_single_token_is_two_single_steps():
    enc = nn.BiEncoder(2, 3, nn.Parameters(np.random.default_rng(5)))
    x = np.array([[0.7, -0.2]])
    out = enc.encode(tensor(x))
    hf, _ = enc.forward_cell.run(x)
    hr, _ = enc.reverse_cell.run(x)
    assert np.allclose(out.data[0], np.concatenate([hf[0], hr[0]]))


def test_biencoder_palindrome_with_shared_cell():
    enc = nn.BiEncoder(2, 3, nn.Parameters(np.random.default_rng(9)))
    enc.reverse_cell.weight[...] = enc.forward_cell.weight
    enc.reverse_cell.bias[...] = enc.forward_cell.bias
    xs = np.array([[0.1, 0.4], [-0.9, 0.2], [0.1, 0.4]])
    out = enc.encode(tensor(xs)).data
    h = enc.hidden_size
    # with one shared cell on a palindrome, position k reversed equals
    # position n-1-k with forward/reverse halves swapped
    for k in range(len(xs)):
        mirrored = out[len(xs) - 1 - k]
        swapped = np.concatenate([mirrored[h:], mirrored[:h]])
        assert np.allclose(out[k], swapped, atol=1e-12)


def test_biencoder_shapes():
    enc = nn.BiEncoder(3, 4, nn.Parameters(np.random.default_rng(0)))
    outs = enc.encode(tensor(np.ones((5, 3))))
    assert outs.shape == (5, 8)
    assert enc.output_size == 8
    with pytest.raises(ConfigurationError):
        enc.encode(tensor(np.ones(3)))


def test_biencoder_rejects_empty_sequence():
    enc = nn.BiEncoder(2, 2, nn.Parameters(np.random.default_rng(0)))
    with pytest.raises(InvalidInputError):
        enc.encode(tensor(np.zeros((0, 2))))


def test_biencoder_finals_are_sequence_ends():
    enc = nn.BiEncoder(2, 3, nn.Parameters(np.random.default_rng(3)))
    xs = np.array([[0.2, 0.1], [1.0, -1.0], [0.5, 0.5]])
    outs = enc.encode(tensor(xs)).data
    final_fwd = enc.forward_cell.run(xs)[0][-1]
    final_rev = enc.reverse_cell.run(xs[::-1])[0][-1]
    assert np.array_equal(final_fwd, outs[-1, :3])
    assert np.array_equal(final_rev, outs[0, 3:])


def test_biencoder_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    enc = nn.BiEncoder(3, 4, nn.Parameters(rng))
    x = nn.Parameter(rng.normal(size=(5, 3)))
    target = rng.normal(size=(5, 8))

    def loss_fn():
        return float(nn.mse_loss(enc.encode(x), target).data)

    nn.mse_loss(enc.encode(x), target).backward()
    for p in (x, enc.forward_cell.w_input, enc.forward_cell.b_forget,
              enc.reverse_cell.w_candidate, enc.reverse_cell.b_output):
        fd = fd_gradient(loss_fn, p)
        assert max_relative_error(p.grad, fd) < 1e-6


def test_biencoder_records_its_input_and_its_own_gate_parameters():
    params = nn.Parameters(np.random.default_rng(0))
    nn.DenseLayer(2, 2, "identity", params, "before.")
    enc = nn.BiEncoder(3, 2, params, "enc.")
    own = [p for name, p in params.named if name.startswith("enc.")]
    x = nn.Parameter(np.ones((4, 3)))
    out = enc.encode(x)
    assert len(own) == 16
    assert len(out._parents) == 17 and all(a is b for a, b in zip(out._parents, [x, *own]))


def _encode(x):
    params = nn.Parameters(np.random.default_rng(0))
    enc = nn.BiEncoder(3, 2, params)
    for _, p in params.named:
        p.needs_grad = x.needs_grad  # the weights are inputs too: frozen with x
    return enc.encode(x)


# (name, op, input shapes); the first input is the one that may be tracked
RECORDING_OPS = [
    ("Tensor.__getitem__", lambda x: x[[2, 0, 2]], [(3, 2)]),
    ("add", nn.add, [(2, 3), (2, 3)]),
    ("linear", nn.linear, [(2, 3), (4, 3), (4,)]),
    ("concat", lambda a, b: nn.concat([a, b]), [(2, 3), (2, 1)]),
    ("concat_axis0", lambda a, b: nn.concat([a, b], axis=0), [(1, 3), (2, 3)]),
    ("tanh", nn.tanh, [(2, 3)]),
    ("scale", lambda x: nn.scale(x, 0.5), [(2, 3)]),
    ("mse_loss", nn.mse_loss, [(2, 3), (2, 3)]),
    ("mae_loss", nn.mae_loss, [(2, 3), (2, 3)]),
    ("margin_loss", lambda s: nn.margin_loss(s, [0, 2]), [(2, 3)]),
    ("cross_entropy_loss", lambda s: nn.cross_entropy_loss(s, [1, 2]), [(2, 3)]),
    ("BiEncoder.encode", _encode, [(4, 3)]),
]


@pytest.mark.parametrize("mode", ["no_grad", "untracked", "tracked"])
@pytest.mark.parametrize("op,shapes", [case[1:] for case in RECORDING_OPS],
                         ids=[case[0] for case in RECORDING_OPS])
def test_op_records_only_with_grad_on_and_a_tracked_input(op, shapes, mode):
    rng = np.random.default_rng(0)
    inputs = [nn.Tensor(rng.uniform(0.1, 1.0, size=shape)) for shape in shapes]
    if mode != "untracked":
        inputs[0] = nn.Parameter(inputs[0].data)
    if mode == "no_grad":
        with nn.no_grad():
            out = op(*inputs)
    else:
        out = op(*inputs)
    if mode == "tracked":
        assert out.needs_grad and out._bw is not None
        assert any(p is inputs[0] for p in out._parents)
    else:
        assert not out.needs_grad and out._bw is None and out._parents == ()


# ------------------------------------------------------------------- backward

def test_backward_zero_loss_zero_gradients():
    w = nn.Parameter(np.array([0.3, -0.4]))
    loss = nn.mse_loss(nn.tanh(w), np.tanh(w.data))
    assert float(loss.data) == 0.0
    if loss.needs_grad:
        loss.backward()
    assert np.array_equal(w.grad, np.zeros(2))


def test_backward_tanh_chain_at_zero():
    # d tanh(w*x)/dw at w=0, x=1 is sech^2(0) = 1
    w = nn.Parameter(np.array([[0.0]]))
    x = tensor([[1.0]])
    loss = nn.tanh(nn.linear(x, w, tensor([0.0])))
    loss.backward()
    assert np.allclose(w.grad, [[1.0]])


def test_backward_requires_scalar():
    w = nn.Parameter(np.array([1.0, 2.0]))
    y = nn.tanh(w)
    with pytest.raises(UsageError):
        y.backward()


def test_backward_twice_is_an_error():
    w = nn.Parameter(np.array([1.0]))
    loss = nn.mse_loss(nn.tanh(w), np.zeros(1))
    loss.backward()
    with pytest.raises(UsageError):
        loss.backward()


def test_backward_frees_each_node_once_its_closure_has_run():
    class Cache:  # stands for the arrays a BiLSTM node's closure keeps for its BPTT
        pass

    def consumer_of(x):
        cache = Cache()

        def bw(g, cache=cache):  # the node's closure is all that holds the cache
            nn._acc(x, np.full(2, 3.0 * g), own=True)

        return nn._record(np.asarray((x.data * 3.0).sum()), (x,), bw), weakref.ref(cache)

    def middle_bw(g):
        seen.append((cache_alive(), consumer._bw))
        nn._acc(w, 2.0 * g, own=True)

    w = nn.Parameter(np.array([0.5, -1.5]))
    seen = []
    middle = nn._record(w.data * 2.0, (w,), middle_bw)
    consumer, cache_alive = consumer_of(middle)
    nn.scale(consumer, 0.5).backward()
    assert seen == [(None, None)]
    assert middle.grad is None and consumer.grad is None and middle._parents == ()
    assert np.array_equal(w.grad, [3.0, 3.0])


def test_backward_frees_each_node_and_its_data_once_its_closure_has_run():
    def first_bw(g):  # runs last, after the closure of the node built on it
        seen.append(middle_data() is None)
        nn._acc(w, g, own=True)

    w = nn.Parameter(np.array([[0.5, -1.5]]))
    seen = []
    first = nn._record(w.data.copy(), (w,), first_bw)
    middle = nn.scale(first, 2.0)  # its closure keeps `first`, not its own data
    middle_data = weakref.ref(middle.data)
    loss = nn.mse_loss(nn.scale(middle, 3.0), np.zeros((1, 2)))
    del middle
    loss.backward()
    assert seen == [True]
    assert np.allclose(w.grad, 36.0 * w.data)


def test_no_grad_builds_no_tape():
    w = nn.Parameter(np.array([1.0, -1.0]))
    with nn.no_grad():
        out = nn.tanh(w)
    assert not out.needs_grad


def test_gradient_accumulates_across_uses():
    w = nn.Parameter(np.array([0.5]))
    y = nn.add(nn.scale(w, 2.0), nn.scale(w, 3.0))
    loss = nn.mse_loss(y, np.zeros(1))
    loss.backward()
    # d/dw (5w)^2 = 50w = 25
    assert np.allclose(w.grad, [2 * 5 * 0.5 * 5])


def test_dense_chain_matches_finite_differences():
    rng = np.random.default_rng(11)
    layer = nn.DenseLayer(3, 2, "tanh", nn.Parameters(rng))
    x = rng.normal(size=(1, 3))
    target = rng.normal(size=(1, 2))

    def loss_fn():
        return float(nn.mse_loss(layer(tensor(x)), target).data)

    loss = nn.mse_loss(layer(tensor(x)), target)
    loss.backward()
    for p in (layer.weights, layer.bias):
        fd = fd_gradient(loss_fn, p)
        assert max_relative_error(p.grad, fd) < 1e-6


def test_finite_differences_perturb_a_strided_parameter_where_it_is_read():
    stack = np.asfortranarray(np.random.default_rng(0).standard_normal((6, 4)))
    p = nn.Parameter(np.zeros(1))
    p.data = stack[2:4]  # a row block of a column-major array, as an LSTM gate is
    coef = np.arange(24.0).reshape(6, 4)
    numeric = fd_gradient(lambda: float((coef * stack).sum()), p)
    assert np.allclose(numeric, coef[2:4], rtol=0.0, atol=1e-6)


# ----------------------------------------------------------------------- adam

def test_adam_zero_gradient_leaves_values():
    p = nn.Parameter(np.array([1.0, -2.0]))
    before = p.data.copy()
    nn.adam_step(p.owner)
    assert np.array_equal(p.data, before)


def test_adam_first_step_size_is_learning_rate():
    p = nn.Parameter(np.array([5.0]))
    p.grad[...] = 1.0
    nn.adam_step(p.owner, lr=0.001)
    assert abs((5.0 - p.data[0]) - 0.001) < 1e-6
    assert p.owner.steps == 1
    assert np.array_equal(p.grad, np.zeros(1))


def test_parameter_makes_its_grad_on_first_read_and_keeps_it():
    p = nn.Parameter(np.array([1.0, -2.0]))
    grad = p.grad
    assert np.array_equal(grad, np.zeros(2))
    assert p.grad is grad


def test_adam_moments_are_zero_until_the_first_step():
    p = nn.Parameter(np.array([5.0]))
    p.grad[...] = 2.0
    _, _, m, v = p.owner.arena
    assert not m.any() and not v.any()
    nn.adam_step(p.owner)
    assert np.allclose(m, [0.2]) and np.allclose(v, [0.004])


def test_adam_descends_on_quadratic():
    p = nn.Parameter(np.array([1.0]))
    values = [1.0]
    for _ in range(10):
        p.grad[...] = 2.0 * p.data
        nn.adam_step(p.owner, lr=0.05)
        values.append(float(p.data[0]))
    assert all(b < a for a, b in zip(values, values[1:]))
    assert 0.0 < values[-1] < 1.0


def _adam_params(seed: int) -> nn.Parameters:
    """Parameters of every layout a model has, at sizes around one Adam piece."""
    params = nn.Parameters(np.random.default_rng(seed))
    params.new("matrix", (130, 150), "glorot")       # C-order, 19,500 elements
    params.new("wide", (3, 20000), "glorot")         # each row longer than a piece
    params.new("vector", (40000,), "uniform")
    params.new("short", (5,), "uniform")
    nn.LstmCell(150, 100, params, "big.")            # column-major gates of 25,000
    nn.LstmCell(3, 4, params, "small.")
    return params


def _arena_row(p: nn.Parameter, row: int) -> np.ndarray:
    """The view of arena row `row` that lies where `p.data` lies in row 0."""
    arena = p.owner.arena
    offset = p.data.__array_interface__["data"][0] - arena.__array_interface__["data"][0]
    return np.ndarray(p.data.shape, arena.dtype, arena, offset + row * arena.strides[0],
                      p.data.strides)


def _char_model_steps(seed: int):
    """Named parameters of a word+char model, then a gradient for each of its steps.

    Each step's char encoder runs once per word, so every char-LSTM stack
    takes several `backprop` calls before one Adam update.
    """
    bank = make_treebank(6, np.random.default_rng(3))
    model = tiny_model(bank, seed=4, mode="word+char")
    yield model.named_parameters()
    cfg, rng = trainer.TrainConfig(), np.random.default_rng(seed)
    for step in range(30):
        sentence = bank.sentences[step % len(bank.sentences)]
        trainer.sentence_loss(model, sentence, cfg, rng)[0].backward()
        yield


def _random_grads(seed: int):
    params = _adam_params(0)
    yield params
    rng = np.random.default_rng(seed)
    for step in range(30):
        for _, p in params:
            p.grad[...] = rng.standard_normal(p.data.shape) * (step % 3)
        yield


def test_folded_adam_in_pieces_matches_the_textbook_update_within_1e_10():
    sizes = []
    for steps in (_random_grads, _char_model_steps):
        ref_steps, new_steps = steps(1), steps(1)
        ref, new = next(ref_steps), next(new_steps)
        sizes.append(new.ensure_arena().shape[1])
        moments = {}
        for _ in zip(ref_steps, new_steps):
            reference_adam.adam_step(ref, 0.01, moments)
            nn.adam_step(new, lr=0.01)
        for (name, a), (_, b) in zip(ref, new):
            m, v, t = moments[a]
            assert_close(b.data, a.data, name)
            for x, y in ((m, _arena_row(b, 2)), (v, _arena_row(b, 3))):
                if steps is _random_grads:  # the same gradients on both sides
                    assert x.tobytes() == y.tobytes(), name
                else:  # the char model's gradients follow its weights
                    assert_close(y, x, name)
            assert t == 30 and not b.grad.any()
        assert new.steps == 30
    assert any(size > nn._PIECE and size % nn._PIECE for size in sizes)  # a last short piece


def test_adam_in_pieces_names_the_first_non_finite_gradient_and_changes_nothing():
    arena_set = _adam_params(0)
    params = dict(arena_set)
    rng = np.random.default_rng(2)
    for _, p in arena_set:
        p.grad[...] = rng.standard_normal(p.data.shape)
    nn.adam_step(arena_set)
    for _, p in arena_set:
        p.grad[...] = rng.standard_normal(p.data.shape)
    params["big.w_forget"].grad[-1, -1] = np.inf  # in the last column of a column-major stack
    params["small.w_candidate"].grad[0, 0] = np.nan
    before = arena_set.arena.tobytes()
    with pytest.raises(NonFiniteError, match="parameter 'big.w_forget'"):
        nn.adam_step(arena_set)
    assert arena_set.arena.tobytes() == before
    assert arena_set.steps == 1


@pytest.mark.parametrize("big", [1e154, 1e200])
def test_adam_steps_on_finite_gradients_whose_squared_sum_overflows(big):
    # the finite check's g @ g overflows on both; at 1e200 so would each update's
    # own grad * grad, leaving that entry's second moment inf, so the step is refused
    ref_set, new_set = _adam_params(0), _adam_params(0)
    ref, new = ref_set.named, new_set.named
    rng = np.random.default_rng(5)
    for (_, a), (_, b) in zip(ref, new):
        a.grad[...] = rng.standard_normal(a.data.shape)
        a.grad[..., ::7] = big
        b.grad[...] = a.grad
    if big > 1e154:
        before = new_set.ensure_arena().tobytes()
        with pytest.raises(NonFiniteError, match="^gradient entry too large in parameter "
                                                 f"'{new[0][0]}': above 1.341e\\+154"):
            nn.adam_step(new_set, lr=0.01)
        assert new_set.arena.tobytes() == before and new_set.steps == 0
        return
    moments = {}
    with np.errstate(over="ignore"):
        reference_adam.adam_step(ref, 0.01, moments)
        nn.adam_step(new_set, lr=0.01)
    for (name, a), (_, b) in zip(ref, new):
        m, v, _ = moments[a]
        assert_close(b.data, a.data, name)
        for x, y in ((m, _arena_row(b, 2)), (v, _arena_row(b, 3))):
            assert x.tobytes() == y.tobytes(), name
    assert new_set.steps == 1
    for _, p in new:
        p.grad[..., ::7] = big
    dict(new)["small.w_output"].grad[1, 1] = np.nan
    before = new_set.arena.tobytes()
    with pytest.raises(NonFiniteError, match="^non-finite gradient in parameter 'small.w_output'$"):
        nn.adam_step(new_set)
    assert new_set.arena.tobytes() == before and new_set.steps == 1


@pytest.mark.parametrize("start", [0, 355, 37411, 10**6])
def test_folded_adam_at_step_counts_where_the_bias_corrections_are_edge_cases(start):
    # 1 - 0.9**t rounds to 1.0 from t = 356 and 1 - 0.999**t from t = 37,412, where
    # the folded scalars are exactly lr and epsilon; entries run down to 1e-11, where
    # sqrt(v) is near epsilon, so an unscaled epsilon moves the weights at t = 1
    ref_set, new_set = _adam_params(0), _adam_params(0)
    ref, new = ref_set.named, new_set.named
    new_set.ensure_arena()
    new_set.steps = start
    rng = np.random.default_rng(6)

    def draw(shape):
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-11.0, 0.0, shape)

    moments = {}
    for (_, a), (_, b) in zip(ref, new):
        m, v = draw(a.data.shape), draw(a.data.shape) ** 2
        moments[a] = [m, v, start]
        _arena_row(b, 2)[...] = m
        _arena_row(b, 3)[...] = v
    for _ in range(3):
        for (_, a), (_, b) in zip(ref, new):
            a.grad[...] = b.grad[...] = draw(a.data.shape)
        reference_adam.adam_step(ref, 0.01, moments)
        nn.adam_step(new_set, lr=0.01)
        for (name, a), (_, b) in zip(ref, new):
            m, v, _ = moments[a]
            for x, y in ((m, _arena_row(b, 2)), (v, _arena_row(b, 3))):
                assert x.tobytes() == y.tobytes(), name
            if start >= 37411:
                assert a.data.tobytes() == b.data.tobytes(), name
            else:
                assert_close(b.data, a.data, name)
    assert new_set.steps == start + 3


def test_adam_takes_whole_sets_and_the_arena_takes_no_late_declaration():
    params = nn.Parameters(np.random.default_rng(0))
    params.new("a", (2,), "uniform")
    params.new("b", (3,), "uniform")
    nn.adam_step(params)
    with pytest.raises(UsageError, match="'c' declared after training built the arena"):
        params.new("c", (1,), "zeros")


def test_a_parameter_whose_set_was_freed_says_so():
    p = nn.DenseLayer(2, 2, "identity", nn.Parameters(np.random.default_rng(0))).weights
    with pytest.raises(UsageError, match="Parameters set was freed"):
        p.grad


def test_adam_rejects_non_finite_gradient_without_mutating():
    params = nn.Parameters(None)
    p = params.new("p", (2,), "ones")
    q = params.new("q", (1,), "zeros")
    p.grad[...] = [1.0, np.nan]
    q.grad[...] = 1.0
    with pytest.raises(NonFiniteError, match="parameter 'p'"):
        nn.adam_step(params)
    assert np.array_equal(p.data, [1.0, 1.0])
    assert np.array_equal(q.data, [0.0])
    assert params.steps == 0


# --------------------------------------------------------------------- losses

def test_mse_identical_is_zero():
    assert float(nn.mse_loss(tensor([1.0, 2.0]), np.array([1.0, 2.0])).data) == 0.0


def test_mse_direct_values():
    assert float(nn.mse_loss(tensor([1.0, 0.0]), np.zeros(2)).data) == 0.5
    got = float(nn.mse_loss(tensor([1.0, 2.0, 3.0]), np.ones(3)).data)
    assert abs(got - 5.0 / 3.0) < 1e-15


def test_mae_direct_value_and_gradient_sign():
    pred = nn.Parameter(np.array([1.0, -2.0, 0.5]))
    loss = nn.mae_loss(pred, np.array([0.0, 0.0, 0.5]))
    assert abs(float(loss.data) - 1.0) < 1e-15
    loss.backward()
    assert np.allclose(pred.grad, [1 / 3, -1 / 3, 0.0])


def test_margin_satisfied_is_zero():
    assert float(nn.margin_loss(tensor([[5.0, 0.0, 0.0]]), [0]).data) == 0.0


def test_margin_tie_is_one():
    assert float(nn.margin_loss(tensor([[0.0, 0.0]]), [0]).data) == 1.0


def test_margin_direct_value():
    got = float(nn.margin_loss(tensor([[0.2, 0.9, 0.1]]), [0]).data)
    assert abs(got - 1.7) < 1e-15


def test_margin_single_class_is_zero():
    assert float(nn.margin_loss(tensor([[3.0]]), [0]).data) == 0.0


def test_margin_gradient_moves_gold_up_competitor_down():
    s = nn.Parameter(np.array([[0.2, 0.9, 0.1]]))
    nn.margin_loss(s, [0]).backward()
    assert np.allclose(s.grad, [[-1.0, 1.0, 0.0]])


def test_nll_matches_log():
    scores = np.array([1.0, 2.0, 0.5])
    loss = nn.cross_entropy_loss(tensor([scores]), [1])
    probability = math.exp(2.0) / np.exp(scores).sum()
    assert abs(float(loss.data) + math.log(probability)) < 1e-12


def test_nll_gradient_matches_finite_differences():
    w = nn.Parameter(np.array([[1.0, -0.5, 0.2]]))

    def loss_fn():
        return float(nn.cross_entropy_loss(nn.tanh(w), [2]).data)

    nn.cross_entropy_loss(nn.tanh(w), [2]).backward()
    fd = fd_gradient(loss_fn, w)
    assert max_relative_error(w.grad, fd) < 1e-6


def test_cross_entropy_keeps_its_slope_when_the_gold_score_trails_far():
    # the log of a softmax probability would saturate here: e**-100 is far
    # below any floor a probability can be clamped at
    s = nn.Parameter(np.array([[100.0, 0.0, 0.0]]))
    loss = nn.cross_entropy_loss(s, [2])
    loss.backward()
    assert abs(float(loss.data) - 100.0) < 1e-12
    assert np.allclose(s.grad, [[1.0, 0.0, -1.0]], rtol=0.0, atol=1e-12)


# --------------------------------------------------------------------- cosine
# The decoder's normalized score matrix is the package's one cosine.

def cosine(a, b) -> float:
    enc = EncodedSentence(context_vectors=tensor([b]), latent_heads=tensor([a]))
    return float(decoder.build_scores(enc, np.ones(len(a))).sim[0, 0])


def test_cosine_identical_unit_vectors():
    assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0


def test_cosine_orthogonal():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_collinear():
    assert cosine(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.0, abs=1e-15)


def test_cosine_zero_vector_scores_zero():
    assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0


# ------------------------------------------------------------ matrix ops

def test_matrix_chain_matches_finite_differences():
    rng = np.random.default_rng(21)
    table = nn.Parameter(rng.normal(size=(4, 3)))
    root = nn.Parameter(rng.normal(size=3))
    layer = nn.DenseLayer(6, 5, "identity", nn.Parameters(rng))
    index = np.array([2, 0, 2, 3, 1])  # repeated rows accumulate

    def forward():
        rows = table[index]
        governors = nn.concat((root[None], rows), axis=0)[np.array([0, 1, 1, 4, 2])]
        scores = layer(nn.concat((rows, governors)))
        return nn.add(nn.cross_entropy_loss(scores, [0, 4, 2, 2, 1]),
                      nn.margin_loss(scores, [1, 1, 0, 3, 4]))

    forward().backward()
    for p in (table, root, layer.weights, layer.bias):
        fd = fd_gradient(lambda: float(forward().data), p)
        assert max_relative_error(p.grad, fd) < 1e-6


def test_row_losses_are_means_of_one_row_losses():
    rng = np.random.default_rng(22)
    scores = rng.normal(size=(4, 3))
    gold = [0, 2, 1, 1]
    for loss in (nn.margin_loss, nn.cross_entropy_loss):
        rows = [float(loss(tensor([s]), [g]).data) for s, g in zip(scores, gold)]
        whole = float(loss(tensor(scores), gold).data)
        assert whole == pytest.approx(sum(rows) / 4, rel=1e-14)


# ------------------------------------------------------------------- guards

def _best_pairs_without_seen_pairs():
    model = tiny_model(make_treebank(1, np.random.default_rng(0)))
    model.seen_pairs = []
    model.best_pairs(tensor(np.zeros((1, model.context_size))), [0])


@pytest.mark.parametrize("call, error, message", [
    (lambda: tensor(1.0).backward(), UsageError, "backward() without a recorded forward pass"),
    (lambda: nn.add(tensor([1.0, 2.0]), tensor([1.0])), ConfigurationError,
     "add: shape mismatch (2,) vs (1,)"),
    (lambda: nn.mse_loss(tensor([1.0, 2.0]), [1.0]), InvalidInputError,
     "mse_loss: length mismatch (2,) vs (1,)"),
    (lambda: nn.margin_loss(tensor([[0.0, 1.0, 2.0]]), [3]), InvalidInputError,
     "gold index out of range for 3 classes"),
    (lambda: nn.LstmCell(2, 0, nn.Parameters(None)), ConfigurationError,
     "LstmCell sizes must be positive"),
    (_best_pairs_without_seen_pairs, ConfigurationError, "no (label, POS) pairs to choose from"),
], ids=["backward-unrecorded", "add-shapes", "loss-lengths", "gold-range", "lstm-size",
        "no-seen-pairs"])
def test_each_guard_raises_its_error_with_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# ----------------------------------------------------------------- properties

finite_vec = st.lists(st.floats(min_value=-100, max_value=100,
                                allow_nan=False, allow_infinity=False),
                      min_size=1, max_size=50)


@given(finite_vec, st.randoms())
@settings(max_examples=60, deadline=None)
def test_cosine_always_in_unit_interval(values, pyrandom):
    a = np.array(values)
    b = np.array([pyrandom.uniform(-100, 100) for _ in values])
    c = cosine(a, b)
    assert -1.0 <= c <= 1.0
    if np.linalg.norm(a) > 1e-9:
        assert cosine(a, a) == pytest.approx(1.0, abs=1e-15)


@given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                min_size=1, max_size=12),
       st.integers(min_value=0, max_value=11))
@settings(max_examples=60, deadline=None)
def test_margin_is_non_negative(scores, gold):
    gold = gold % len(scores)
    assert float(nn.margin_loss(tensor([scores]), [gold]).data) >= 0.0


@given(st.integers(min_value=1, max_value=50))
@settings(max_examples=25, deadline=None)
def test_elementwise_ops_preserve_shape(n):
    x = tensor(np.linspace(-2, 2, n))
    assert nn.tanh(x).data.shape == (n,)
    rows = nn.tanh(tensor(np.linspace(-2, 2, 3 * n).reshape(3, n))).data
    assert rows.shape == (3, n)
