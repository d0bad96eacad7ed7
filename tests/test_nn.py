from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentheads import decoder, nn
from latentheads.errors import ConfigurationError, InvalidInputError, NonFiniteError, UsageError

from latentheads.model import EncodedSentence

from lhr_testutil import fd_gradient, max_relative_error


def tensor(values):
    return nn.Tensor(np.asarray(values, dtype=np.float64))


# ---------------------------------------------------------------- dense layer

def test_dense_zero_weights_tanh_gives_zero():
    layer = nn.DenseLayer(2, 3, "tanh", np.random.default_rng(0))
    layer.weights.data[...] = 0.0
    layer.bias.data[...] = 0.0
    out = layer(tensor([1.5, -2.0]))
    assert np.array_equal(out.data, np.zeros(3))


def test_dense_identity_passthrough():
    layer = nn.DenseLayer(2, 2, "identity", np.random.default_rng(0))
    layer.weights.data[...] = np.eye(2)
    layer.bias.data[...] = 0.0
    out = layer(tensor([0.3, -0.7]))
    assert np.allclose(out.data, [0.3, -0.7])


def test_dense_single_row_tanh():
    layer = nn.DenseLayer(2, 1, "tanh", np.random.default_rng(0))
    layer.weights.data[...] = np.array([[1.0, 1.0]])
    layer.bias.data[...] = 0.0
    out = layer(tensor([0.5, 0.5]))
    assert np.allclose(out.data, [math.tanh(1.0)])


def test_dense_rejects_bad_activation_and_size():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        nn.DenseLayer(2, 2, "relu", rng)
    with pytest.raises(ConfigurationError):
        nn.DenseLayer(0, 2, "identity", rng)
    layer = nn.DenseLayer(3, 2, "identity", rng)
    with pytest.raises(ConfigurationError):
        layer(tensor([1.0, 2.0]))


# ------------------------------------------------------------------ lstm cell

def _zeroed_cell(input_size=2, hidden=3):
    cell = nn.LstmCell(input_size, hidden, np.random.default_rng(1))
    for _, p in cell.named_parameters():
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
    cell = nn.LstmCell(2, 3, rng)
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


def test_lstm_forget_bias_initialized_to_one():
    cell = nn.LstmCell(4, 4, np.random.default_rng(0))
    assert np.all(cell.b_forget.data == 1.0)
    assert np.all(cell.b_input.data == 0.0)


def test_lstm_gate_parameters_are_views_of_the_stacked_arrays():
    cell = nn.LstmCell(2, 3, np.random.default_rng(0))
    cell.w_output.data[...] = 7.0
    cell.b_candidate.grad[...] = 2.0
    assert np.all(cell.weight[6:9] == 7.0)
    assert np.all(cell.bias_grad[9:12] == 2.0)
    assert np.all(cell.bias_grad[:9] == 0.0)


# ----------------------------------------------------------------- bi-encoder

def test_biencoder_single_token_is_two_single_steps():
    enc = nn.BiEncoder(2, 3, np.random.default_rng(5))
    x = np.array([[0.7, -0.2]])
    out = enc.encode(tensor(x))
    hf, _ = enc.forward_cell.run(x)
    hr, _ = enc.reverse_cell.run(x)
    assert np.allclose(out.data[0], np.concatenate([hf[0], hr[0]]))


def test_biencoder_palindrome_with_shared_cell():
    enc = nn.BiEncoder(2, 3, np.random.default_rng(9))
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
    enc = nn.BiEncoder(3, 4, np.random.default_rng(0))
    outs = enc.encode(tensor(np.ones((5, 3))))
    assert outs.shape == (5, 8)
    assert enc.output_size == 8
    with pytest.raises(ConfigurationError):
        enc.encode(tensor(np.ones(3)))


def test_biencoder_rejects_empty_sequence():
    enc = nn.BiEncoder(2, 2, np.random.default_rng(0))
    with pytest.raises(InvalidInputError):
        enc.encode(tensor(np.zeros((0, 2))))


def test_biencoder_finals_are_sequence_ends():
    enc = nn.BiEncoder(2, 3, np.random.default_rng(3))
    xs = np.array([[0.2, 0.1], [1.0, -1.0], [0.5, 0.5]])
    outs = enc.encode(tensor(xs)).data
    final_fwd = enc.forward_cell.run(xs)[0][-1]
    final_rev = enc.reverse_cell.run(xs[::-1])[0][-1]
    assert np.array_equal(final_fwd, outs[-1, :3])
    assert np.array_equal(final_rev, outs[0, 3:])


def test_biencoder_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    enc = nn.BiEncoder(3, 4, rng)
    x = nn.Parameter(rng.normal(size=(5, 3)))
    target = rng.normal(size=(5, 8))

    def loss_fn():
        return float(nn.mse_loss(enc.encode(x), target).data)

    nn.mse_loss(enc.encode(x), target).backward()
    for p in (x, enc.forward_cell.w_input, enc.forward_cell.b_forget,
              enc.reverse_cell.w_candidate, enc.reverse_cell.b_output):
        fd = fd_gradient(loss_fn, p)
        assert max_relative_error(p.grad, fd) < 1e-6


def _encode(x):
    enc = nn.BiEncoder(3, 2, np.random.default_rng(0))
    for _, p in enc.named_parameters():
        p.needs_grad = x.needs_grad  # the weights are inputs too: frozen with x
    return enc.encode(x)


# (name, op, input shapes); the first input is the one that may be tracked
RECORDING_OPS = [
    ("Tensor.__getitem__", lambda x: x[[2, 0, 2]], [(3, 2)]),
    ("add", nn.add, [(2, 3), (2, 3)]),
    ("linear", nn.linear, [(2, 3), (4, 3), (4,)]),
    ("concat", lambda a, b: nn.concat([a, b]), [(2, 3), (2, 1)]),
    ("stack_rows", lambda a, b: nn.stack_rows([a, b]), [(3,), (2, 3)]),
    ("tanh", nn.tanh, [(2, 3)]),
    ("softmax", nn.softmax, [(2, 3)]),
    ("scale", lambda x: nn.scale(x, 0.5), [(2, 3)]),
    ("mse_loss", nn.mse_loss, [(2, 3), (2, 3)]),
    ("mae_loss", nn.mae_loss, [(2, 3), (2, 3)]),
    ("margin_loss", lambda s: nn.margin_loss(s, [0, 2]), [(2, 3)]),
    ("nll_loss", lambda p: nn.nll_loss(p, [1, 2]), [(2, 3)]),
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
    x = tensor([1.0])
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
    layer = nn.DenseLayer(3, 2, "tanh", rng)
    x = rng.normal(size=3)
    target = rng.normal(size=2)

    def loss_fn():
        return float(nn.mse_loss(layer(tensor(x)), target).data)

    loss = nn.mse_loss(layer(tensor(x)), target)
    loss.backward()
    for p in (layer.weights, layer.bias):
        fd = fd_gradient(loss_fn, p)
        assert max_relative_error(p.grad, fd) < 1e-6


# ----------------------------------------------------------------------- adam

def test_adam_zero_gradient_leaves_values():
    p = nn.Parameter(np.array([1.0, -2.0]))
    before = p.data.copy()
    nn.adam_step([("p", p)])
    assert np.array_equal(p.data, before)


def test_adam_first_step_size_is_learning_rate():
    p = nn.Parameter(np.array([5.0]))
    p.grad[...] = 1.0
    nn.adam_step([("p", p)], lr=0.001)
    assert abs((5.0 - p.data[0]) - 0.001) < 1e-6
    assert p.step_count == 1
    assert np.array_equal(p.grad, np.zeros(1))


def test_adam_descends_on_quadratic():
    p = nn.Parameter(np.array([1.0]))
    values = [1.0]
    for _ in range(10):
        p.grad[...] = 2.0 * p.data
        nn.adam_step([("p", p)], lr=0.05)
        values.append(float(p.data[0]))
    assert all(b < a for a, b in zip(values, values[1:]))
    assert 0.0 < values[-1] < 1.0


def test_adam_rejects_non_finite_gradient_without_mutating():
    p = nn.Parameter(np.array([1.0, 2.0]))
    q = nn.Parameter(np.array([3.0]))
    p.grad[...] = [1.0, np.nan]
    q.grad[...] = 1.0
    with pytest.raises(NonFiniteError):
        nn.adam_step([("p", p), ("q", q)])
    assert np.array_equal(p.data, [1.0, 2.0])
    assert np.array_equal(q.data, [3.0])
    assert q.step_count == 0


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
    assert float(nn.margin_loss(tensor([5.0, 0.0, 0.0]), 0).data) == 0.0


def test_margin_tie_is_one():
    assert float(nn.margin_loss(tensor([0.0, 0.0]), 0).data) == 1.0


def test_margin_direct_value():
    got = float(nn.margin_loss(tensor([0.2, 0.9, 0.1]), 0).data)
    assert abs(got - 1.7) < 1e-15


def test_margin_single_class_is_zero():
    assert float(nn.margin_loss(tensor([3.0]), 0).data) == 0.0


def test_margin_gradient_moves_gold_up_competitor_down():
    s = nn.Parameter(np.array([0.2, 0.9, 0.1]))
    nn.margin_loss(s, 0).backward()
    assert np.allclose(s.grad, [-1.0, 1.0, 0.0])


def test_nll_matches_log():
    probs = nn.softmax(nn.Parameter(np.array([1.0, 2.0, 0.5])))
    loss = nn.nll_loss(probs, 1)
    assert abs(float(loss.data) + math.log(probs.data[1])) < 1e-12


def test_nll_gradient_matches_finite_differences():
    w = nn.Parameter(np.array([1.0, -0.5, 0.2]))

    def loss_fn():
        return float(nn.nll_loss(nn.softmax(nn.tanh(w)), 2).data)

    nn.nll_loss(nn.softmax(nn.tanh(w)), 2).backward()
    fd = fd_gradient(loss_fn, w)
    assert max_relative_error(w.grad, fd) < 1e-6


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
    layer = nn.DenseLayer(6, 5, "softmax", rng)
    index = np.array([2, 0, 2, 3, 1])  # repeated rows accumulate

    def forward():
        rows = table[index]
        governors = nn.stack_rows((root, rows))[np.array([0, 1, 1, 4, 2])]
        probs = layer(nn.concat((rows, governors)))
        return nn.add(nn.nll_loss(probs, [0, 4, 2, 2, 1]),
                      nn.margin_loss(probs, [1, 1, 0, 3, 4]))

    forward().backward()
    for p in (table, root, layer.weights, layer.bias):
        fd = fd_gradient(lambda: float(forward().data), p)
        assert max_relative_error(p.grad, fd) < 1e-6


def test_row_losses_are_means_of_vector_losses():
    rng = np.random.default_rng(22)
    scores = rng.normal(size=(4, 3))
    gold = [0, 2, 1, 1]
    for loss in (nn.margin_loss, nn.nll_loss):
        rows = [float(loss(tensor(s), g).data) for s, g in zip(scores, gold)]
        whole = float(loss(tensor(scores), gold).data)
        assert whole == pytest.approx(sum(rows) / 4, rel=1e-14)


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
    assert float(nn.margin_loss(tensor(scores), gold).data) >= 0.0


@given(finite_vec)
@settings(max_examples=60, deadline=None)
def test_softmax_is_a_distribution(values):
    out = nn.softmax(tensor(values))
    assert np.all(out.data > 0)
    assert abs(out.data.sum() - 1.0) < 1e-9


@given(st.integers(min_value=1, max_value=50))
@settings(max_examples=25, deadline=None)
def test_elementwise_ops_preserve_shape(n):
    x = tensor(np.linspace(-2, 2, n))
    assert nn.tanh(x).data.shape == (n,)
    assert nn.softmax(x).data.shape == (n,)
    rows = nn.softmax(tensor(np.linspace(-2, 2, 3 * n).reshape(3, n))).data
    assert rows.shape == (3, n) and np.allclose(rows.sum(axis=1), 1.0)
