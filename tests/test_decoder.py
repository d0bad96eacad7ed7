from __future__ import annotations

import numpy as np
import pytest

from latentheads import decoder, nn
from latentheads.decoder import (DependencyTree, ScoreMatrix, assign_heads,
                                 assign_labels_pos, build_scores, find_cycles,
                                 parse, repair_cycles, select_root)
from latentheads.errors import InvalidInputError
from latentheads.conll import build_vocabularies
from latentheads.model import EncodedSentence, LhrModel

from lhr_testutil import make_sentence, make_treebank, tiny_config, tiny_model


def scores_from(sim, root_sim):
    return ScoreMatrix(sim=np.asarray(sim, dtype=float),
                       root_sim=np.asarray(root_sim, dtype=float))


def enc_from_rows(context_rows, latent_rows):
    return EncodedSentence(
        context_vectors=nn.Tensor(np.asarray(context_rows, dtype=float)),
        latent_heads=nn.Tensor(np.asarray(latent_rows, dtype=float)),
    )


# --------------------------------------------------------------- build_scores

def test_single_token_has_only_root_similarity():
    enc = enc_from_rows([[1.0, 0.0]], [[0.5, 0.5]])
    sm = build_scores(enc, np.array([1.0, 1.0]))
    assert sm.n == 1
    assert sm.root_sim.shape == (1,)
    assert sm.sim.shape == (1, 1)


def test_equal_vectors_score_one():
    v = [0.3, -0.7, 0.2]
    enc = enc_from_rows([[1, 0, 0], v], [v, [0, 1, 0]])
    sm = build_scores(enc, np.ones(3))
    assert sm.sim[0][1] == pytest.approx(1.0, abs=1e-12)


def test_score_matrix_is_not_symmetric():
    enc = enc_from_rows([[1.0, 0.0], [0.6, 0.8]], [[0.0, 1.0], [1.0, 0.0]])
    sm = build_scores(enc, np.ones(2))
    assert sm.sim[0][1] != sm.sim[1][0]


def test_zero_latent_head_scores_zero_everywhere():
    enc = enc_from_rows([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 1.0]])
    sm = build_scores(enc, np.ones(2))
    assert np.all(sm.sim[0] == 0.0)
    assert sm.root_sim[0] == 0.0


def test_empty_sentence_rejected():
    with pytest.raises(InvalidInputError):
        build_scores(enc_from_rows([], []), np.ones(2))


# ---------------------------------------------------------------- select_root

def test_select_root_argmax():
    assert select_root(scores_from(np.zeros((3, 3)), [0.1, 0.9, 0.3])) == 2


def test_select_root_single_token():
    assert select_root(scores_from(np.zeros((1, 1)), [0.0])) == 1


def test_select_root_tie_takes_lowest_index():
    assert select_root(scores_from(np.zeros((2, 2)), [0.5, 0.5])) == 1


# --------------------------------------------------------------- assign_heads

def test_two_tokens_root_first_forces_the_other():
    sm = scores_from([[0.0, 0.9], [0.4, 0.0]], [0.8, 0.1])
    tree = assign_heads(sm, 1)
    assert tree.heads == [0, 1]


def test_everyone_prefers_token_one():
    sim = [[0.0, 0.1, 0.1],
           [0.9, 0.0, 0.1],
           [0.8, 0.1, 0.0]]
    tree = assign_heads(scores_from(sim, [0.9, 0.0, 0.0]), 1)
    assert tree.heads == [0, 1, 1]
    assert not find_cycles(tree.heads)


def test_mutual_preference_creates_cycle():
    sim = [[0.0, 0.1, 0.1],
           [0.2, 0.0, 0.9],
           [0.2, 0.8, 0.0]]
    tree = assign_heads(scores_from(sim, [0.9, 0.0, 0.0]), 1)
    assert tree.heads == [0, 3, 2]
    assert find_cycles(tree.heads) == [[2, 3]] or find_cycles(tree.heads) == [[3, 2]]


def test_assign_heads_tie_breaks_to_lowest_index():
    sim = [[0.0, 0.5, 0.5],
           [0.5, 0.0, 0.5],
           [0.5, 0.5, 0.0]]
    tree = assign_heads(scores_from(sim, [0.9, 0.0, 0.0]), 1)
    assert tree.heads == [0, 1, 1]


def test_assign_heads_never_picks_own_context_vector():
    sim = [[0.9, 0.1, 0.2],
           [0.3, 1.0, 0.3],
           [0.5, 0.4, 1.0]]
    tree = assign_heads(scores_from(sim, [0.1, 0.9, 0.0]), 2)
    assert tree.heads == [3, 0, 1]
    assert tree.arc_scores == [0.2, 0.9, 0.5]


def test_root_token_out_of_range_rejected():
    with pytest.raises(InvalidInputError):
        assign_heads(scores_from(np.zeros((2, 2)), [0.1, 0.2]), 3)


# -------------------------------------------------------------- find_cycles

def test_find_cycles_none_on_tree():
    assert find_cycles([0, 1, 2]) == []


def test_find_cycles_reports_members():
    # 2 -> 3 -> 2 is a cycle; 1 is root, 4 hangs off the cycle
    cycles = find_cycles([0, 3, 2, 2])
    assert len(cycles) == 1
    assert sorted(cycles[0]) == [2, 3]


def test_find_cycles_orders_by_smallest_member():
    heads = [2, 1, 4, 3]  # cycles {1,2} and {3,4}, no root anywhere
    cycles = find_cycles(heads)
    assert [sorted(c) for c in cycles] == [[1, 2], [3, 4]]


# ------------------------------------------------------------- repair_cycles

def test_repair_leaves_trees_alone():
    sm = scores_from(np.zeros((3, 3)), [1.0, 0.0, 0.0])
    tree = DependencyTree(heads=[0, 1, 2], labels=[None] * 3, pos=[None] * 3,
                          arc_scores=[0.9, 0.5, 0.5])
    out = repair_cycles(tree, sm)
    assert out.heads == [0, 1, 2]
    assert out.needed_repair is False


def test_repair_hand_traced_two_three_cycle():
    # token 2 and 3 point at each other; arc 3->2 is the weaker one, so token 3
    # must be reattached to its best non-cycle-forming candidate, token 1
    sim = [[0.0, 0.1, 0.1],
           [0.2, 0.0, 0.9],
           [0.3, 0.8, 0.0]]
    sm = scores_from(sim, [0.9, 0.0, 0.0])
    tree = assign_heads(sm, 1)
    assert tree.heads == [0, 3, 2]
    out = repair_cycles(tree, sm)
    assert out.heads == [0, 3, 1]
    assert out.needed_repair is True
    assert out.arc_scores[2] == pytest.approx(0.3)


def test_repair_tie_removes_lowest_indexed_dependent():
    sim = [[0.0, 0.1, 0.1],
           [0.2, 0.0, 0.5],
           [0.2, 0.5, 0.0]]
    sm = scores_from(sim, [0.9, 0.0, 0.0])
    tree = assign_heads(sm, 1)  # 2<->3 cycle, equal arc scores
    out = repair_cycles(tree, sm)
    # token 2's arc is removed first; best non-cycle candidate is token 1
    assert out.heads == [0, 1, 2]


def test_repair_random_matrices_always_yield_trees():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        sim = rng.uniform(-1, 1, size=(n, n))
        root_sim = rng.uniform(-1, 1, size=n)
        sm = scores_from(sim, root_sim)
        tree = repair_cycles(assign_heads(sm, select_root(sm)), sm)
        tree.validate()


def test_tree_validate_rejects_bad_trees():
    with pytest.raises(InvalidInputError):
        DependencyTree([0, 0], [None] * 2, [None] * 2, [0.0, 0.0]).validate()
    with pytest.raises(InvalidInputError):
        DependencyTree([2, 1], [None] * 2, [None] * 2, [0.0, 0.0]).validate()
    with pytest.raises(InvalidInputError):
        DependencyTree([0, 5], [None] * 2, [None] * 2, [0.0, 0.0]).validate()


# ---------------------------------------------------------- assign_labels_pos

def model_with_pairs(tb, seen_pairs):
    """A tiny model of `tb` whose labeler may choose only `seen_pairs`."""
    wv, pv, lv, _ = build_vocabularies(tb)
    return LhrModel(wv, pv, lv, seen_pairs, tiny_config())


def fixed_score_model(model, label_scores, pos_scores):
    def stub(dep, gov):
        rows = (len(dep), 1)
        return nn.Tensor(np.tile(np.asarray(label_scores, float), rows)), \
               nn.Tensor(np.tile(np.asarray(pos_scores, float), rows))
    model.score_label_pos = stub
    return model


def test_singleton_pair_labels_everything():
    rng = np.random.default_rng(1)
    m = model_with_pairs(make_treebank(6, rng), [("root", "V")])
    s = make_sentence(3, rng)
    enc = m.encode_sentence(s)
    tree = DependencyTree([0, 1, 1], [None] * 3, [None] * 3, [0.0] * 3)
    out = assign_labels_pos(m, enc, tree)
    assert out.labels == ["root"] * 3
    assert out.pos == ["V"] * 3


def test_joint_score_sums_label_and_pos():
    rng = np.random.default_rng(2)
    tb = make_treebank(6, rng)
    _, pos_vocab, label_vocab, _ = build_vocabularies(tb)
    labels = list(label_vocab.symbols)
    pos = list(pos_vocab.symbols)
    a, b = labels[0], labels[1]
    x, y = pos[0], pos[1]
    m = model_with_pairs(tb, [(a, x), (b, y)])
    label_scores = np.zeros(len(labels))
    pos_scores = np.zeros(len(pos))
    label_scores[0], pos_scores[0] = 0.9, 0.1   # pair (a, x) sums to 1.0
    label_scores[1], pos_scores[1] = 0.6, 0.5   # pair (b, y) sums to 1.1
    m = fixed_score_model(m, label_scores, pos_scores)
    s = make_sentence(2, rng)
    rows = np.eye(2, m.context_size)
    enc = enc_from_rows(rows, rows)
    tree = DependencyTree([0, 1], [None] * 2, [None] * 2, [0.0] * 2)
    out = assign_labels_pos(m, enc, tree)
    assert out.labels == [b, b]
    assert out.pos == [y, y]


def test_unseen_argmax_pair_is_never_chosen():
    rng = np.random.default_rng(3)
    tb = make_treebank(6, rng)
    _, pos_vocab, label_vocab, _ = build_vocabularies(tb)
    labels = list(label_vocab.symbols)
    pos = list(pos_vocab.symbols)
    seen = [(labels[0], pos[0]), (labels[1], pos[1])]
    m = model_with_pairs(tb, seen)
    label_scores = np.zeros(len(labels))
    pos_scores = np.zeros(len(pos))
    label_scores[0] = 5.0   # unconstrained best label
    pos_scores[1] = 5.0     # unconstrained best pos; pair (0,1) is NOT seen
    m = fixed_score_model(m, label_scores, pos_scores)
    rows = np.eye(1, m.context_size)
    enc = enc_from_rows(rows, rows)
    tree = DependencyTree([0], [None], [None], [0.0])
    out = assign_labels_pos(m, enc, tree)
    assert (out.labels[0], out.pos[0]) in seen
    assert (out.labels[0], out.pos[0]) == (labels[0], pos[0])  # 5.0 beats 5.0 via sort order


# ----------------------------------------------------------------------- parse

def test_parse_output_is_always_valid():
    rng = np.random.default_rng(4)
    m = tiny_model(make_treebank(10, rng))
    for n in (1, 2, 5, 9):
        tree = parse(m, make_sentence(n, rng))
        tree.validate()
        assert len(tree) == n
        assert all(l is not None for l in tree.labels)
        assert all(p is not None for p in tree.pos)


def test_parse_single_token_attaches_to_root():
    rng = np.random.default_rng(5)
    m = tiny_model(make_treebank(10, rng))
    tree = parse(m, make_sentence(1, rng))
    assert tree.heads == [0]


def test_parse_without_pos_correction_keeps_input_tags():
    rng = np.random.default_rng(6)
    m = tiny_model(make_treebank(10, rng))
    s = make_sentence(3, rng)
    for tok in s.tokens:
        tok.predicted_pos = "J"
    tree = parse(m, s, pos_correction=False)
    assert tree.pos == ["J", "J", "J"]


def test_parse_builds_no_tape():
    rng = np.random.default_rng(7)
    m = tiny_model(make_treebank(10, rng))
    parse(m, make_sentence(4, rng))
    for _, p in m.named_parameters():
        assert np.all(p.grad == 0.0)
