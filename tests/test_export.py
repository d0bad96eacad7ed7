"""Latent-structure export: text and binary containers for the same payload."""

import copy
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from latentheads import export, serialize
from latentheads.conll import Sentence, Treebank, read_conll, write_conll
from latentheads.errors import DataFormatError, InvalidInputError

from lhr_testutil import fixture_path, make_treebank, tiny_model


@pytest.fixture(scope="module")
def bank():
    rng = np.random.default_rng(11)
    return make_treebank(5, rng)


@pytest.fixture(scope="module")
def model(bank):
    return tiny_model(bank, seed=2)


def flatten(payload):
    return [(form, vec) for sent in payload for form, vec in sent]


def test_text_round_trip_is_bitwise(model, bank, tmp_path):
    path = tmp_path / "vectors.lss"
    export.export_lss(model, bank, str(path), fmt="text")
    payload = export.read_lss_text(str(path))
    assert len(payload) == len(bank.sentences)
    for sent, rows in zip(bank.sentences, payload):
        assert len(rows) == len(sent.tokens)
        fresh = export.sentence_vectors(model, sent)
        for (form, vec), (form2, vec2) in zip(rows, fresh):
            assert form == form2
            assert np.array_equal(vec, vec2)


def test_binary_round_trip_is_bitwise(model, bank, tmp_path):
    path = tmp_path / "vectors.bin"
    export.export_lss(model, bank, str(path), fmt="binary")
    payload = export.read_lss_binary(str(path))
    assert len(payload) == len(bank.sentences)
    for sent, rows in zip(bank.sentences, payload):
        fresh = export.sentence_vectors(model, sent)
        for (form, vec), (form2, vec2) in zip(rows, fresh):
            assert form == form2
            assert np.array_equal(vec, vec2)


def test_both_formats_carry_the_same_payload(model, bank, tmp_path):
    t = tmp_path / "v.lss"
    b = tmp_path / "v.bin"
    export.export_lss(model, bank, str(t), fmt="text")
    export.export_lss(model, bank, str(b), fmt="binary")
    for (f1, v1), (f2, v2) in zip(flatten(export.read_lss_text(str(t))),
                                  flatten(export.read_lss_binary(str(b)))):
        assert f1 == f2
        assert np.array_equal(v1, v2)


def test_both_formats_write_the_bytes_of_a_per_field_reference(tmp_path):
    # the reference formats each float and packs each field on its own, so it
    # shares no formatting code with the writers
    model = serialize.load_model(fixture_path("toy_model_v1.npz"))
    tb = read_conll(fixture_path("toy_dev.conllu"), strict=False)
    text = [f"lss 1 sentences {len(tb.sentences)}\n"]
    binary = [b"LSS1", struct.pack("<I", len(tb.sentences))]
    for k, sent in enumerate(tb.sentences):
        rows = export.sentence_vectors(model, sent)
        text.append(f"sentence {k} tokens {len(rows)} dim {len(rows[0][1])}\n")
        binary.append(struct.pack("<II", len(rows), len(rows[0][1])))
        for form, vec in rows:
            text.append(form + "\t" + " ".join("%.17g" % v for v in vec) + "\n")
            raw = form.encode("utf-8")
            binary += [struct.pack("<H", len(raw)), raw, *(struct.pack("<d", v) for v in vec)]
    export.export_lss(model, tb, str(tmp_path / "dev.lss"), fmt="text")
    export.export_lss(model, tb, str(tmp_path / "dev.bin"), fmt="binary")
    assert (tmp_path / "dev.lss").read_bytes() == "".join(text).encode("utf-8")
    assert (tmp_path / "dev.bin").read_bytes() == b"".join(binary)


def test_vector_length_is_twice_context_size(model, bank, tmp_path):
    path = tmp_path / "v.lss"
    export.export_lss(model, bank, str(path), fmt="text")
    payload = export.read_lss_text(str(path))
    expected = 2 * model.config.context_size
    for form, vec in flatten(payload):
        assert vec.shape[0] == expected


def test_record_count_matches_token_count(model, bank, tmp_path):
    path = tmp_path / "v.bin"
    export.export_lss(model, bank, str(path), fmt="binary")
    payload = export.read_lss_binary(str(path))
    total = sum(len(s.tokens) for s in bank.sentences)
    assert len(flatten(payload)) == total


def test_forms_survive_non_ascii(model, bank, tmp_path):
    sent = bank.sentences[0]
    saved = [tok.form for tok in sent.tokens]
    try:
        sent.tokens[0].form = "naïve"
        for fmt, reader in (("text", export.read_lss_text),
                            ("binary", export.read_lss_binary)):
            path = tmp_path / f"u.{fmt}"
            export.export_lss(model, bank, str(path), fmt=fmt)
            payload = reader(str(path))
            assert payload[0][0][0] == "naïve"
    finally:
        for tok, form in zip(sent.tokens, saved):
            tok.form = form


def test_binary_writer_rejects_form_over_65535_bytes(model, bank, tmp_path):
    k = len(bank.sentences) - 1
    tok = bank.sentences[k].tokens[-1]
    j = len(bank.sentences[k].tokens) - 1
    saved = tok.form
    try:
        tok.form = "é" * 40000  # 80000 UTF-8 bytes
        with pytest.raises(InvalidInputError,
                           match=f"^sentence {k} token {j}: form is 80000 UTF-8 bytes"):
            export.export_lss(model, bank, str(tmp_path / "long.bin"), fmt="binary")
        tok.form = "x" * 65535  # the longest form the record layout holds
        export.export_lss(model, bank, str(tmp_path / "edge.bin"), fmt="binary")
        assert export.read_lss_binary(str(tmp_path / "edge.bin"))[k][j][0] == tok.form
    finally:
        tok.form = saved


def test_binary_writer_failure_leaves_no_partial_file(model, bank, tmp_path):
    tb = Treebank(copy.deepcopy(bank.sentences[:3]))
    tb.sentences[2].tokens[0].form = "x" * 70000
    fresh = tmp_path / "fresh.bin"
    kept = tmp_path / "kept.bin"
    kept.write_bytes(b"earlier output")
    for path in (fresh, kept):
        with pytest.raises(InvalidInputError, match="^sentence 2 token 0: form is 70000"):
            export.export_lss(model, tb, str(path), fmt="binary")
    assert not fresh.exists()
    assert kept.read_bytes() == b"earlier output"


def _rejected_write(kind, model, bank):
    """A write call whose input fails past the first sentence, and its message."""
    if kind == "write_conll":
        tb = read_conll(fixture_path("toy_dev.conllu"))
        trees = [SimpleNamespace(heads=[0] * len(s), labels=["x"] * len(s), pos=["X"] * len(s))
                 for s in tb.sentences]
        trees[5] = SimpleNamespace(heads=[0], labels=["root"], pos=["X"])
        return (lambda path: write_conll(tb, trees, path)), "^sentence 5: 1 heads"
    if kind.endswith("empty-form"):  # a char-mode model has no characters to encode
        tb = Treebank(copy.deepcopy(bank.sentences))
        tb.sentences[3].tokens[1].form = ""
        tb.sentences[3].origin = "corpus.conllu:12"
        char_model = tiny_model(bank, seed=2, mode="word+char")
        return ((lambda path: export.export_lss(char_model, tb, path, fmt=kind.split("-")[0])),
                "^corpus.conllu:12: sentence 3 token 1: empty form$")
    tb = Treebank([*bank.sentences[:3], Sentence(tokens=[]), bank.sentences[4]])
    return ((lambda path: export.export_lss(model, tb, path, fmt=kind)),
            "^sentence 3: cannot encode an empty sentence$")


@pytest.mark.parametrize("kind", ["write_conll", "text", "binary",
                                  "text-empty-form", "binary-empty-form"])
def test_a_rejected_input_leaves_no_file_and_an_existing_file_unchanged(kind, model, bank,
                                                                        tmp_path):
    write, message = _rejected_write(kind, model, bank)
    fresh = tmp_path / "fresh"
    kept = tmp_path / "kept"
    kept.write_bytes(b"earlier output\n")
    for path in (fresh, kept):
        with pytest.raises(InvalidInputError, match=message):
            write(str(path))
    assert not fresh.exists()
    assert kept.read_bytes() == b"earlier output\n"


def test_empty_treebank_rejected(model, tmp_path):
    with pytest.raises(InvalidInputError, match="empty"):
        export.export_lss(model, Treebank([]), str(tmp_path / "x"), fmt="text")


def test_unknown_format_rejected(model, bank, tmp_path):
    with pytest.raises(InvalidInputError, match="unknown"):
        export.export_lss(model, bank, str(tmp_path / "x"), fmt="json")


def test_text_reader_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.lss"
    path.write_text("something else entirely\n")
    with pytest.raises(DataFormatError, match="not a text"):
        export.read_lss_text(str(path))


def test_text_reader_rejects_malformed_sentence_header(tmp_path):
    path = tmp_path / "bad.lss"
    path.write_text("lss 1 sentences 1\nnot a sentence header\n")
    with pytest.raises(DataFormatError, match="malformed"):
        export.read_lss_text(str(path))


def test_text_reader_rejects_bad_count_with_line(tmp_path):
    path = tmp_path / "bad.lss"
    path.write_text("lss 1 sentences x\n")
    with pytest.raises(DataFormatError, match=f"^{path}:1: "):
        export.read_lss_text(str(path))


def test_text_reader_rejects_bad_float_with_line(tmp_path):
    path = tmp_path / "bad.lss"
    path.write_text("lss 1 sentences 1\n"
                    "sentence 0 tokens 2 dim 2\n"
                    "word\t1.0 2.0\n"
                    "word\t1.0 two\n")
    with pytest.raises(DataFormatError, match=f"^{path}:4: "):
        export.read_lss_text(str(path))


def test_text_reader_rejects_non_utf8_with_line(tmp_path):
    path = tmp_path / "bad.lss"
    path.write_bytes(b"lss 1 sentences 1\n"
                     b"sentence 0 tokens 1 dim 1\n"
                     b"w\xffrd\t1.0\n")
    with pytest.raises(DataFormatError, match=f"^{path}:3: not valid UTF-8"):
        export.read_lss_text(str(path))


def test_text_reader_rejects_wrong_vector_width(tmp_path):
    path = tmp_path / "bad.lss"
    path.write_text("lss 1 sentences 1\n"
                    "sentence 0 tokens 1 dim 3\n"
                    "word\t1.0 2.0\n")
    with pytest.raises(DataFormatError, match="2 values, expected 3"):
        export.read_lss_text(str(path))


def test_binary_reader_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + struct.pack("<I", 0))
    with pytest.raises(DataFormatError, match="not a binary"):
        export.read_lss_binary(str(path))


def test_binary_reader_rejects_truncation(model, bank, tmp_path):
    path = tmp_path / "v.bin"
    export.export_lss(model, bank, str(path), fmt="binary")
    raw = path.read_bytes()
    cut = tmp_path / "cut.bin"
    cut.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(DataFormatError, match="truncated"):
        export.read_lss_binary(str(cut))


def test_binary_reader_rejects_a_record_longer_than_the_file(tmp_path):
    path = tmp_path / "huge.bin"
    path.write_bytes(b"LSS1" + struct.pack("<I", 1) + struct.pack("<II", 1, 0xFFFFFFFF)
                     + struct.pack("<H", 1) + b"a" + struct.pack("<d", 0.5))
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match="truncated"):
            export.read_lss_binary(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the declared 32 GiB record is never read


def test_binary_reader_rejects_non_utf8_form(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"LSS1" + struct.pack("<I", 1) + struct.pack("<II", 1, 1)
                     + struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<d", 0.5))
    with pytest.raises(DataFormatError,
                       match=f"^{path}: sentence 0 token 0: form is not valid UTF-8"):
        export.read_lss_binary(str(path))


@pytest.mark.parametrize("text, where", [
    ("lss 1 sentences 1\nsentence 0 tokens 1 dim 1\nword\t1.0\n"
     "sentence 1 tokens 1 dim 1\nword\t2.0\n", "4: text after the last of the 1 "),
    ("lss 1 sentences -1\n", "1: negative count -1"),
    ("lss 1 sentences 1\nsentence 0 tokens -3 dim 1\n", "2: negative count -3"),
], ids=["undeclared-sentence", "negative-sentences", "negative-tokens"])
def test_text_reader_accepts_only_what_the_header_declares(tmp_path, text, where):
    path = tmp_path / "bad.lss"
    path.write_text(text)
    with pytest.raises(DataFormatError, match=f"^{path}:{where}"):
        export.read_lss_text(str(path))


@pytest.mark.parametrize("text, where", [
    ("lss 1 sentencez 1\nsentence 0 tokens 1 dim 2\nword\t1.0 2.0\n",
     "1: not a text latent-structure file header"),
    ("lss 1 sentences 1\nsentence 0 tokenz 1 dim 2\nword\t1.0 2.0\n", "2: malformed"),
    ("lss 1 sentences 1\nsentence 0 tokens 1 dimm 2\nword\t1.0 2.0\n", "2: malformed"),
    ("lss 1 sentences 1\nsentence 7 tokens 1 dim 2\nword\t1.0 2.0\n",
     "2: malformed sentence header .*, expected 'sentence 0 tokens N dim D'"),
    ("lss 1 sentences 2\nsentence 0 tokens 1 dim 2\nword\t1.0 2.0\n"
     "sentence 1 tokens 1 dim 1\nword\t1.0\n", "4: dim 1, but sentence 0 has 2"),
], ids=["file-header-word", "tokens-word", "dim-word", "sentence-index", "width"])
def test_text_reader_checks_every_header_word_and_width(tmp_path, text, where):
    path = tmp_path / "bad.lss"
    path.write_text(text)
    with pytest.raises(DataFormatError, match=f"^{path}:{where}"):
        export.read_lss_text(str(path))


def test_binary_reader_rejects_a_sentence_of_another_width(tmp_path):
    path = tmp_path / "bad.bin"
    record = struct.pack("<H", 1) + b"a" + struct.pack("<d", 0.5)
    path.write_bytes(b"LSS1" + struct.pack("<I", 2) + struct.pack("<II", 1, 1) + record
                     + struct.pack("<II", 1, 2) + record + struct.pack("<d", 1.5))
    with pytest.raises(DataFormatError,
                       match=f"^{path}: sentence 1 has dim 2, but sentence 0 has 1"):
        export.read_lss_binary(str(path))


def test_binary_reader_rejects_bytes_after_the_last_sentence(model, bank, tmp_path):
    path = tmp_path / "v.bin"
    export.export_lss(model, bank, str(path), fmt="binary")
    longer = tmp_path / "longer.bin"
    longer.write_bytes(path.read_bytes() + b"\x00\x00\x00")
    with pytest.raises(DataFormatError, match=f"^{longer}: 3 bytes after the last of the "):
        export.read_lss_binary(str(longer))
