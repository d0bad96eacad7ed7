from __future__ import annotations

import gc
import itertools
import os
import re
import stat
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from latentheads import conll
from latentheads.conll import (PunctuationRule, Sentence, Token, Treebank, Vocabulary,
                               build_vocabularies, chain_ends, find_cycles, read_conll,
                               write_conll)
from latentheads.decoder import DependencyTree
from latentheads.errors import DataFormatError, InvalidInputError

from lhr_testutil import fixture_path


def write_file(tmp_path, text, name="sample.conllu"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


TWO_TOKENS = (
    "1\tdog\t_\tNOUN\tNOUN\t_\t2\tnsubj\t_\t_\n"
    "2\tbarks\t_\tVERB\tVERB\t_\t0\troot\t_\t_\n"
)


def test_two_line_block_field_mapping(tmp_path):
    tb = read_conll(write_file(tmp_path, TWO_TOKENS))
    assert len(tb) == 1
    toks = tb.sentences[0].tokens
    assert [t.form for t in toks] == ["dog", "barks"]
    assert [t.gold_head for t in toks] == [2, 0]
    assert [t.gold_label for t in toks] == ["nsubj", "root"]
    assert [t.gold_pos for t in toks] == ["NOUN", "VERB"]


def test_read_sentence_records_where_its_first_token_line_is(tmp_path):
    path = write_file(tmp_path, "# c\n" + TWO_TOKENS + "\n# d\n" + TWO_TOKENS)
    tb = read_conll(path)
    assert [s.origin for s in tb.sentences] == [f"{path}:2", f"{path}:6"]
    built = Sentence(tokens=tb.sentences[0].tokens, comments=["# c"])
    assert built.origin == "" and built == tb.sentences[0]


def test_empty_file_is_empty_treebank(tmp_path):
    tb = read_conll(write_file(tmp_path, ""))
    assert len(tb.sentences) == 0


def test_ten_sentence_round_trip(tmp_path, toy_train):
    sub = Treebank(toy_train.sentences[:10])
    out = tmp_path / "rt.conllu"
    write_conll(sub, None, str(out))
    back = read_conll(str(out))
    assert len(back) == 10
    for s1, s2 in zip(sub.sentences, back.sentences):
        assert s1.comments == s2.comments
        for t1, t2 in zip(s1.tokens, s2.tokens):
            assert (t1.form, t1.gold_pos, t1.predicted_pos, t1.gold_head,
                    t1.gold_label, t1.is_punct) == \
                   (t2.form, t2.gold_pos, t2.predicted_pos, t2.gold_head,
                    t2.gold_label, t2.is_punct)


def test_identity_copy_preserves_bytes(tmp_path, toy_train):
    src = fixture_path("toy_train.conllu")
    out = tmp_path / "copy.conllu"
    write_conll(toy_train, None, str(out))
    assert out.read_text(encoding="utf-8") == Path(src).read_text(encoding="utf-8")


def test_write_predictions_round_trip_heads(tmp_path):
    tb = read_conll(write_file(tmp_path, TWO_TOKENS))

    class Stub:
        heads = [0, 1]
        labels = ["root", "dep"]
        pos = ["NOUN", "VERB"]

    out = tmp_path / "pred.conllu"
    write_conll(tb, [Stub()], str(out))
    back = read_conll(str(out), strict=False)
    assert [t.gold_head for t in back.sentences[0].tokens] == [0, 1]
    assert [t.gold_label for t in back.sentences[0].tokens] == ["root", "dep"]


def test_tokens_built_in_code_are_written_from_their_fields(tmp_path):
    tb = Treebank([Sentence(tokens=[
        Token(index=1, form="dog", gold_pos="NOUN", predicted_pos="NN",
              gold_head=2, gold_label="nsubj"),
        Token(index=2, form="barks", gold_pos="VERB", predicted_pos=None,
              gold_head=None, gold_label=None),
    ])])
    out = tmp_path / "built.conllu"
    write_conll(tb, None, str(out))
    assert out.read_text(encoding="utf-8") == ("1\tdog\t_\tNOUN\tNN\t_\t2\tnsubj\t_\t_\n"
                                               "2\tbarks\t_\tVERB\t_\t_\t_\t_\t_\t_\n\n")
    back = read_conll(str(out), strict=False).sentences[0].tokens
    assert [(t.form, t.gold_pos, t.predicted_pos, t.gold_head, t.gold_label) for t in back] == \
        [("dog", "NOUN", "NN", 2, "nsubj"), ("barks", "VERB", None, None, None)]


def test_write_empty_treebank(tmp_path):
    out = tmp_path / "empty.conllu"
    write_conll(Treebank([]), None, str(out))
    assert out.read_text(encoding="utf-8") == ""


def test_a_new_output_gets_the_mode_open_gives_and_a_replaced_one_keeps_its_own(tmp_path,
                                                                                  toy_dev):
    opened, written = tmp_path / "opened", tmp_path / "written"
    with open(opened, "w"):
        pass
    write_conll(toy_dev, None, str(written))
    assert stat.S_IMODE(written.stat().st_mode) == stat.S_IMODE(opened.stat().st_mode)
    written.chmod(0o640)
    write_conll(toy_dev, None, str(written))
    assert stat.S_IMODE(written.stat().st_mode) == 0o640


def test_writing_through_a_symlink_replaces_its_target_and_keeps_the_link(tmp_path, toy_dev):
    target, link = tmp_path / "real.conllu", tmp_path / "link.conllu"
    target.write_text("earlier output\n", encoding="utf-8")
    link.symlink_to(target)
    write_conll(toy_dev, None, str(link))
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == Path(fixture_path("toy_dev.conllu")).read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.conllu", "real.conllu"]


def test_a_name_ending_in_a_slash_is_refused_as_open_refuses_it(tmp_path, toy_dev):
    with pytest.raises(IsADirectoryError, match=re.escape(f"Is a directory: '{tmp_path}/out/'")):
        write_conll(toy_dev, None, f"{tmp_path}/out/")
    assert list(tmp_path.iterdir()) == []


def test_a_path_that_is_not_a_regular_file_is_written_in_place(tmp_path, toy_dev):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_conll(toy_dev, None, str(fifo))
    reader.join(timeout=60)
    assert read == [Path(fixture_path("toy_dev.conllu")).read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode) and list(tmp_path.iterdir()) == [fifo]


@pytest.mark.parametrize("refusal", ["read-only-file", "folder-access", "folder-create"])
def test_an_output_that_cannot_be_written_is_refused_naming_the_path(tmp_path, toy_dev,
                                                                     monkeypatch, refusal):
    # chmod a-w protects a file even from root, whom open() would let through. The
    # temporary file goes beside the target, so a read-only directory refuses a
    # writable file too; its up-front check and the temporary's creation are faked
    # here, since a directory's mode does not stop root.
    kept = tmp_path / "kept.conllu"
    kept.write_bytes(b"earlier output\n")
    if refusal == "read-only-file":
        kept.chmod(0o444)
    elif refusal == "folder-access":
        access = os.access
        monkeypatch.setattr(os, "access", lambda p, mode: p != str(tmp_path) and access(p, mode))
    else:
        def create(path, *args):
            raise PermissionError(13, "Permission denied", path)
        monkeypatch.setattr(os, "open", create)
    with pytest.raises(PermissionError, match=re.escape(f"[Errno 13] Permission denied: '{kept}'")):
        write_conll(toy_dev, None, str(kept))
    assert kept.read_bytes() == b"earlier output\n" and list(tmp_path.iterdir()) == [kept]


def test_write_rejects_misaligned_trees(tmp_path):
    tb = read_conll(write_file(tmp_path, TWO_TOKENS))
    with pytest.raises(InvalidInputError):
        write_conll(tb, [], str(tmp_path / "x.conllu"))


@pytest.mark.parametrize("heads, labels, pos", [
    ([0], ["root", "dep"], ["NOUN", "VERB"]),
    ([0, 1], ["root"], ["NOUN", "VERB"]),
    ([0, 1], ["root", "dep"], ["NOUN", "VERB", "X"]),
], ids=["short-heads", "short-labels", "long-pos"])
def test_write_rejects_a_tree_whose_columns_do_not_match_the_sentence(tmp_path, heads,
                                                                      labels, pos):
    tb = read_conll(write_file(tmp_path, TWO_TOKENS))
    tree = SimpleNamespace(heads=heads, labels=labels, pos=pos)
    with pytest.raises(InvalidInputError, match=f"^sentence 0: {len(heads)} heads, "
                       f"{len(labels)} labels and {len(pos)} POS tags for 2 tokens$"):
        write_conll(tb, [tree], str(tmp_path / "x.conllu"))


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "permissive"])
@pytest.mark.parametrize("fmt", ["conllu", "conllx"])
@pytest.mark.parametrize("column", [2, 10])
def test_an_empty_field_is_rejected_with_its_line(tmp_path, fmt, strict, column):
    first, second = TWO_TOKENS.splitlines()
    cols = second.split("\t")
    cols[column - 1] = ""
    path = write_file(tmp_path, f"{first}\n" + "\t".join(cols) + "\n")
    with pytest.raises(DataFormatError, match=f"^{re.escape(path)}:2: column {column} is empty$"):
        read_conll(path, fmt=fmt, strict=strict)


def test_multiword_and_empty_ids_skipped_in_conllu(tmp_path):
    text = (
        "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tdo\t_\tAUX\tAUX\t_\t0\troot\t_\t_\n"
        "2\tnot\t_\tPART\tPART\t_\t1\tadvmod\t_\t_\n"
        "2.1\tghost\t_\tX\tX\t_\t_\t_\t_\t_\n"
    )
    tb = read_conll(write_file(tmp_path, text))
    assert [t.form for t in tb.sentences[0].tokens] == ["do", "not"]


def test_multiword_ranges_and_empty_nodes_are_written_back_in_place(tmp_path):
    words = Path(fixture_path("toy_dev.conllu")).read_text(encoding="utf-8").split("\n\n")[0]
    words = words.splitlines()
    multiword = "1-2\tvamonos\t_\t_\t_\t_\t_\t_\t_\t_"
    empty = "2.1\tnos\t_\tPRON\tPRON\t_\t_\t_\t_\t_"
    last = "6.1\tya\t_\tADV\tADV\t_\t_\t_\t_\t_"
    text = "\n".join(["# text = vamonos", multiword, *words[:2], empty, *words[2:], last]) + "\n\n"
    tb = read_conll(write_file(tmp_path, text))
    assert [t.index for t in tb.sentences[0].tokens] == [1, 2, 3, 4, 5, 6]
    out = tmp_path / "out.conllu"
    write_conll(tb, None, str(out))
    assert out.read_text(encoding="utf-8") == text

    tree = SimpleNamespace(heads=[0, 1, 1, 3, 3, 1], labels=["root"] + ["dep"] * 5, pos=["X"] * 6)

    def predicted(line, head, label, pos):
        cols = line.split("\t")
        cols[3], cols[6], cols[7] = pos, str(head), label
        return "\t".join(cols)

    rows = list(map(predicted, words, tree.heads, tree.labels, tree.pos))
    write_conll(tb, [tree], str(out))
    assert out.read_text(encoding="utf-8").splitlines() == \
        ["# text = vamonos", multiword, *rows[:2], empty, *rows[2:], last, ""]


def test_a_read_token_keeps_at_most_320_bytes(tmp_path):
    """What a read treebank holds, per token, by tracemalloc's count."""
    rng = np.random.default_rng(29)
    forms = ["".join(rng.choice(list("bdgklmnprstaeiou"), int(rng.integers(2, 9))))
             for _ in range(800)]
    tags = ["NOUN", "VERB", "ADJ", "ADV", "DET", "ADP", "PRON", "PUNCT"]
    labels = ["nsubj", "obj", "obl", "amod", "advmod", "det", "case", "punct"]
    blocks, n_tokens = [], 0
    while n_tokens < 5000:
        n = int(rng.integers(5, 61))
        rows = []
        for i in range(1, n + 1):
            head = 0 if i == 1 else int(rng.integers(1, i))
            tag = tags[int(rng.integers(len(tags)))]
            label = "root" if i == 1 else labels[int(rng.integers(len(labels)))]
            rows.append(f"{i}\t{forms[int(rng.integers(len(forms)))]}\t_\t{tag}\t{tag}\t_"
                        f"\t{head}\t{label}\t_\t_")
        blocks.append("\n".join(rows) + "\n")
        n_tokens += n
    path = write_file(tmp_path, "\n".join(blocks))
    gc.collect()
    tracemalloc.start()
    try:
        tb = read_conll(path)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(map(len, tb.sentences)) == n_tokens
    assert retained / n_tokens <= 320


def test_block_of_only_multiword_ranges_reports_its_line(tmp_path):
    text = "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n\n" + TWO_TOKENS
    path = write_file(tmp_path, text)
    for strict in (True, False):
        with pytest.raises(DataFormatError, match=f"^{path}: sentence ending at line 1: "):
            read_conll(path, strict=strict)


def test_conllx_does_not_skip_dashed_ids(tmp_path):
    text = "1-2\tx\t_\tN\tN\t_\t0\troot\t_\t_\n"
    with pytest.raises(DataFormatError):
        read_conll(write_file(tmp_path, text), fmt="conllx")


def test_conllx_fixture_reads_and_round_trips(tmp_path):
    src = fixture_path("toy_sample.conllx")
    tb = read_conll(src, fmt="conllx")
    assert len(tb) >= 3
    tok = tb.sentences[0].tokens[0]
    assert tok.predicted_pos is not None
    out = tmp_path / "rt.conllx"
    write_conll(tb, None, str(out))
    back = read_conll(str(out), fmt="conllx")
    for s1, s2 in zip(tb.sentences, back.sentences):
        for t1, t2 in zip(s1.tokens, s2.tokens):
            assert t1 == t2


def test_comments_are_preserved(tmp_path):
    text = "# sent_id = 1\n# text = dog barks\n" + TWO_TOKENS + "\n"
    path = write_file(tmp_path, text)
    tb = read_conll(path)
    assert tb.sentences[0].comments == ["# sent_id = 1", "# text = dog barks"]
    out = tmp_path / "c.conllu"
    write_conll(tb, None, str(out))
    assert out.read_text(encoding="utf-8") == text


def non_utf8_copy(tmp_path, name="toy_dev.conllu", line=8):
    """A copy of a fixture with a 0xff byte at the end of the form on `line`."""
    lines = Path(fixture_path(name)).read_bytes().split(b"\n")
    cols = lines[line - 1].split(b"\t")
    cols[1] += b"\xff"
    lines[line - 1] = b"\t".join(cols)
    path = tmp_path / name
    path.write_bytes(b"\n".join(lines))
    return str(path)


def test_non_utf8_treebank_reports_file_and_line(tmp_path):
    path = non_utf8_copy(tmp_path)
    with pytest.raises(DataFormatError, match=f"^{path}:8: not valid UTF-8"):
        read_conll(path)


def test_a_bad_byte_after_a_byte_order_mark_names_its_own_line(tmp_path):
    # the bad byte opens line 8, so an offset that left out the mark would name line 7
    lines = Path(fixture_path("toy_dev.conllu")).read_bytes().split(b"\n")
    lines[7] = b"\xff" + lines[7]
    path = tmp_path / "bom.conllu"
    path.write_bytes(b"\xef\xbb\xbf" + b"\n".join(lines))
    with pytest.raises(DataFormatError, match=f"^{path}:8: not valid UTF-8"):
        read_conll(str(path))


def test_windows_and_old_mac_line_ends_read_alike(tmp_path):
    unix = read_conll(write_file(tmp_path, TWO_TOKENS + "\n" + TWO_TOKENS))
    for ending in ("\r\n", "\r"):
        p = tmp_path / "crlf.conllu"
        p.write_bytes((TWO_TOKENS + "\n" + TWO_TOKENS).replace("\n", ending).encode("utf-8"))
        other = read_conll(str(p))
        assert [s.tokens for s in other.sentences] == [s.tokens for s in unix.sentences]


def test_wrong_column_count_reports_line(tmp_path):
    path = write_file(tmp_path, "1\tdog\tNOUN\n")
    with pytest.raises(DataFormatError) as err:
        read_conll(path)
    assert ":1:" in str(err.value)


def test_strict_rejects_multiple_roots(tmp_path):
    text = (
        "1\ta\t_\tX\tX\t_\t0\troot\t_\t_\n"
        "2\tb\t_\tX\tX\t_\t0\troot\t_\t_\n"
    )
    path = write_file(tmp_path, text)
    with pytest.raises(DataFormatError):
        read_conll(path)
    tb = read_conll(path, strict=False)
    assert [t.gold_head for t in tb.sentences[0].tokens] == [0, 0]


def test_strict_rejects_cycles(tmp_path):
    text = (
        "1\ta\t_\tX\tX\t_\t2\tdep\t_\t_\n"
        "2\tb\t_\tX\tX\t_\t1\tdep\t_\t_\n"
        "3\tc\t_\tX\tX\t_\t0\troot\t_\t_\n"
    )
    with pytest.raises(DataFormatError):
        read_conll(write_file(tmp_path, text))


def test_missing_head_needs_permissive_mode(tmp_path):
    text = "1\tdog\t_\tNOUN\tNOUN\t_\t_\t_\t_\t_\n"
    path = write_file(tmp_path, text)
    with pytest.raises(DataFormatError):
        read_conll(path)
    tb = read_conll(path, strict=False)
    assert tb.sentences[0].tokens[0].gold_head is None
    assert tb.sentences[0].tokens[0].gold_label is None


def test_self_head_and_out_of_range_rejected(tmp_path):
    with pytest.raises(DataFormatError):
        read_conll(write_file(tmp_path, "1\ta\t_\tX\tX\t_\t1\tdep\t_\t_\n"))
    with pytest.raises(DataFormatError):
        read_conll(write_file(tmp_path, "1\ta\t_\tX\tX\t_\t5\tdep\t_\t_\n"))


def test_strict_reader_and_tree_validate_accept_the_same_head_lists(tmp_path):
    """Every head list of up to 4 tokens, heads from -1 to n+1: one tree rule."""
    path = tmp_path / "heads.conllu"
    for n in range(1, 5):
        for heads in itertools.product(range(-1, n + 2), repeat=n):
            path.write_text("".join(f"{i}\tw\t_\tX\tX\t_\t{h}\tdep\t_\t_\n"
                                    for i, h in enumerate(heads, start=1)))
            try:
                read_conll(str(path))
                read_ok = True
            except DataFormatError:
                read_ok = False
            try:
                DependencyTree(list(heads), [None] * n, [None] * n, [0.0] * n).validate()
                tree_ok = True
            except InvalidInputError:
                tree_ok = False
            assert read_ok == tree_ok, heads


def reference_cycles(heads):
    """The cycle walk as it was before it also recorded chain ends."""
    n = len(heads)
    state = [0] * (n + 1)  # 0 unvisited, 1 on current walk, 2 done
    cycles = []
    for start in range(1, n + 1):
        if state[start]:
            continue
        path = []
        cur = start
        while cur != 0 and state[cur] == 0:
            state[cur] = 1
            path.append(cur)
            cur = heads[cur - 1]
        if cur != 0 and state[cur] == 1:
            cycles.append(path[path.index(cur):])
        for node in path:
            state[node] = 2
    cycles.sort(key=min)
    return cycles


def chain_end_by_stepping(heads, token):
    """Follow heads n times, which lands on 0 or inside a cycle; name that."""
    up = [0] + list(heads)
    cur = token
    for _ in heads:
        cur = up[cur]
    cycle, nxt = [cur], up[cur]
    while nxt != cur:
        cycle.append(nxt)
        nxt = up[nxt]
    return min(cycle)


def test_chain_ends_on_seeded_head_lists_with_cycles():
    """Each chain end equals n steps of the head chain; the cycles are the old walk's."""
    rng = np.random.default_rng(16)
    with_cycles = 0
    for _ in range(2000):
        n = int(rng.integers(1, 41))
        heads = rng.integers(0, n + 1, size=n).tolist()
        cycles, ends = chain_ends(heads)
        with_cycles += bool(cycles)
        assert ends == [chain_end_by_stepping(heads, j) for j in range(1, n + 1)]
        assert cycles == find_cycles(heads) == reference_cycles(heads)
    assert with_cycles > 1000


def test_non_contiguous_ids_rejected(tmp_path):
    text = (
        "1\ta\t_\tX\tX\t_\t0\troot\t_\t_\n"
        "3\tb\t_\tX\tX\t_\t1\tdep\t_\t_\n"
    )
    with pytest.raises(DataFormatError):
        read_conll(write_file(tmp_path, text))


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(InvalidInputError):
        read_conll(write_file(tmp_path, TWO_TOKENS), fmt="conll2009")


# -------------------------------------------------------------- punctuation

def test_default_punctuation_rule(tmp_path):
    text = (
        "1\tdog\t_\tNOUN\tNOUN\t_\t2\tnsubj\t_\t_\n"
        "2\tbarks\t_\tVERB\tVERB\t_\t0\troot\t_\t_\n"
        "3\t.\t_\tPUNCT\t.\t_\t2\tpunct\t_\t_\n"
    )
    tb = read_conll(write_file(tmp_path, text))
    assert [t.is_punct for t in tb.sentences[0].tokens] == [False, False, True]


def test_punctuation_by_pos_alone(tmp_path):
    # tagged as punctuation but labeled something else: still punctuation
    text = "1\t,\t_\t,\t,\t_\t0\troot\t_\t_\n"
    tb = read_conll(write_file(tmp_path, text))
    assert tb.sentences[0].tokens[0].is_punct


def test_custom_punctuation_rule(tmp_path):
    rule = PunctuationRule(labels=frozenset(), pos_tags=frozenset({"SYM"}))
    text = (
        "1\t$\t_\tSYM\tSYM\t_\t2\tdep\t_\t_\n"
        "2\tx\t_\tPUNCT\tPUNCT\t_\t0\troot\t_\t_\n"
    )
    tb = read_conll(write_file(tmp_path, text), punct=rule)
    assert [t.is_punct for t in tb.sentences[0].tokens] == [True, False]


# -------------------------------------------------------------- vocabularies

def test_word_vocab_contents(tmp_path):
    text = (
        "1\tthe\t_\tDET\tDET\t_\t2\tdet\t_\t_\n"
        "2\tdog\t_\tNOUN\tNOUN\t_\t0\troot\t_\t_\n"
    )
    tb = read_conll(write_file(tmp_path, text))
    wv, pv, lv, pairs = build_vocabularies(tb)
    assert set(wv.symbols) == {conll.UNKNOWN, "the", "dog"}
    assert wv.symbols[0] == conll.UNKNOWN
    assert ("det", "DET") in pairs and ("root", "NOUN") in pairs


def test_seen_pairs_from_single_occurrence(toy_train):
    _, _, _, pairs = build_vocabularies(toy_train)
    assert ("nsubj", "NOUN") in pairs
    assert all(isinstance(p, tuple) and len(p) == 2 for p in pairs)
    assert pairs == sorted(pairs)


def test_min_count_maps_rare_words_to_unknown():
    vocab = Vocabulary(["common", "rare"], counts={"common": 5, "rare": 1},
                       min_count=2)
    assert "rare" not in vocab
    assert vocab.index_of("rare") == vocab.unknown_index
    assert vocab.index_of("common") != vocab.unknown_index
    assert vocab.count("rare") == 1  # counts survive for dropout


def test_vocab_without_unknown_raises_on_unseen():
    vocab = Vocabulary(["a", "b"], unknown=None)
    with pytest.raises(InvalidInputError):
        vocab.index_of("c")
    assert vocab.strict_index("c") is None
    assert vocab.strict_index("b") == 1


def test_pos_vocab_covers_predicted_tags(tmp_path):
    # gold says NOUN but the external tagger produced XTAG; both must embed
    text = "1\tdog\t_\tNOUN\tXTAG\t_\t0\troot\t_\t_\n"
    tb = read_conll(write_file(tmp_path, text))
    _, pv, _, _ = build_vocabularies(tb)
    assert "XTAG" in pv and "NOUN" in pv
