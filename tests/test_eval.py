"""Scoring predicted trees against gold annotation."""

import pytest

from latentheads.conll import Sentence, Token, Treebank
from latentheads.decoder import DependencyTree
from latentheads.errors import InvalidInputError
from latentheads.evaluation import evaluate


def make_sentence(heads, labels, pos, punct_flags=None):
    punct_flags = punct_flags or [False] * len(heads)
    tokens = [
        Token(index=i + 1, form=f"w{i}", gold_pos=pos[i], predicted_pos=pos[i],
              gold_head=heads[i], gold_label=labels[i], is_punct=punct_flags[i])
        for i in range(len(heads))
    ]
    return Sentence(tokens=tokens)


def tree_from(heads, labels=None, pos=None, needed_repair=False):
    n = len(heads)
    return DependencyTree(
        heads=list(heads),
        labels=list(labels) if labels else [None] * n,
        pos=list(pos) if pos else [None] * n,
        arc_scores=[0.0] * n,
        needed_repair=needed_repair,
    )


@pytest.fixture
def ten_token_bank():
    heads = [2, 0, 2, 3, 2, 5, 5, 2, 8, 2]
    labels = ["a", "root", "b", "c", "d", "e", "f", "g", "h", "i"]
    pos = ["N", "V", "N", "D", "N", "N", "J", "N", "D", "N"]
    return Treebank([make_sentence(heads, labels, pos)])


def test_gold_against_itself_is_perfect(ten_token_bank):
    sent = ten_token_bank.sentences[0]
    tree = tree_from([t.gold_head for t in sent.tokens],
                     [t.gold_label for t in sent.tokens],
                     [t.gold_pos for t in sent.tokens])
    res = evaluate(ten_token_bank, [tree])
    assert res.uas == 1.0
    assert res.las == 1.0
    assert res.pos_accuracy == 1.0
    assert res.root_accuracy == 1.0
    assert res.cycle_free_rate == 1.0
    assert res.scored_tokens == 10


def test_one_wrong_head_out_of_ten(ten_token_bank):
    sent = ten_token_bank.sentences[0]
    heads = [t.gold_head for t in sent.tokens]
    heads[3] = 5  # gold is 3
    tree = tree_from(heads, [t.gold_label for t in sent.tokens],
                     [t.gold_pos for t in sent.tokens])
    res = evaluate(ten_token_bank, [tree])
    assert res.uas == pytest.approx(0.9)
    assert res.las == pytest.approx(0.9)


def test_wrong_label_lowers_las_not_uas(ten_token_bank):
    sent = ten_token_bank.sentences[0]
    labels = [t.gold_label for t in sent.tokens]
    labels[0] = "zzz"
    labels[4] = "zzz"
    tree = tree_from([t.gold_head for t in sent.tokens], labels,
                     [t.gold_pos for t in sent.tokens])
    res = evaluate(ten_token_bank, [tree])
    assert res.uas == 1.0
    assert res.las == pytest.approx(0.8)


def test_label_only_counts_when_head_is_right():
    # wrong head but matching label: must not contribute to LAS
    bank = Treebank([make_sentence([2, 0], ["x", "root"], ["N", "V"])])
    tree = tree_from([0, 0], ["x", "root"], ["N", "V"])
    res = evaluate(bank, [tree])
    assert res.uas == pytest.approx(0.5)
    assert res.las == pytest.approx(0.5)


def test_punct_excluded_by_default():
    heads = [2, 0, 2]
    labels = ["a", "root", "punct"]
    pos = ["N", "V", "PUNCT"]
    bank = Treebank([make_sentence(heads, labels, pos, [False, False, True])])
    # get the punctuation head wrong; excluded scoring should not notice
    tree = tree_from([2, 0, 1], labels, pos)
    res = evaluate(bank, [tree])
    assert res.scored_tokens == 2
    assert res.uas == 1.0

    included = evaluate(bank, [tree], skip_punct=False)
    assert included.scored_tokens == 3
    assert included.uas == pytest.approx(2 / 3)


def test_pos_accuracy_over_same_denominator():
    heads = [2, 0, 2]
    labels = ["a", "root", "punct"]
    pos = ["N", "V", "PUNCT"]
    bank = Treebank([make_sentence(heads, labels, pos, [False, False, True])])
    tree = tree_from(heads, labels, ["N", "X", "WRONG"])
    res = evaluate(bank, [tree])
    # punct POS error is invisible; one of two remaining tags wrong
    assert res.pos_accuracy == pytest.approx(0.5)


def test_root_accuracy_counts_sentences():
    bank = Treebank([
        make_sentence([2, 0], ["a", "root"], ["N", "V"]),
        make_sentence([0, 1], ["root", "b"], ["V", "N"]),
    ])
    trees = [
        tree_from([2, 0]),  # right root
        tree_from([2, 0]),  # wrong root (gold root is token 1)
    ]
    res = evaluate(bank, trees)
    assert res.root_accuracy == pytest.approx(0.5)


def test_cycle_free_rate_reflects_repair_flag():
    bank = Treebank([
        make_sentence([2, 0], ["a", "root"], ["N", "V"]),
        make_sentence([2, 0], ["a", "root"], ["N", "V"]),
        make_sentence([2, 0], ["a", "root"], ["N", "V"]),
    ])
    trees = [
        tree_from([2, 0], needed_repair=False),
        tree_from([2, 0], needed_repair=True),
        DependencyTree([2, 0], [None] * 2, [None] * 2, [0.0] * 2),  # default: False
    ]
    res = evaluate(bank, trees)
    assert res.cycle_free_rate == pytest.approx(2 / 3)


def test_tokens_without_gold_heads_are_skipped():
    tokens = [
        Token(index=1, form="a", gold_pos="N", predicted_pos="N",
              gold_head=2, gold_label="x"),
        Token(index=2, form="b", gold_pos="V", predicted_pos="V",
              gold_head=None, gold_label=None),
    ]
    bank = Treebank([Sentence(tokens=tokens)])
    tree = tree_from([2, 0], ["x", "root"], ["N", "V"])
    res = evaluate(bank, [tree])
    assert res.scored_tokens == 1
    assert res.uas == 1.0


def test_all_punct_sentence_scores_empty():
    bank = Treebank([make_sentence(
        [2, 0], ["punct", "root"], ["PUNCT", "PUNCT"], [True, True])])
    tree = tree_from([2, 0])
    res = evaluate(bank, [tree])
    assert res.scored_tokens == 0
    assert res.uas == 0.0
    assert res.las == 0.0


def test_tree_count_mismatch_rejected(ten_token_bank):
    with pytest.raises(InvalidInputError):
        evaluate(ten_token_bank, [])


def test_tree_length_mismatch_rejected(ten_token_bank):
    with pytest.raises(InvalidInputError):
        evaluate(ten_token_bank, [tree_from([0])])


def test_summary_mentions_all_scores(ten_token_bank):
    sent = ten_token_bank.sentences[0]
    tree = tree_from([t.gold_head for t in sent.tokens],
                     [t.gold_label for t in sent.tokens],
                     [t.gold_pos for t in sent.tokens])
    text = evaluate(ten_token_bank, [tree]).summary()
    assert "UAS 1.0000" in text
    assert "LAS 1.0000" in text
    assert "10 tokens" in text
    assert "1 sentences" in text
