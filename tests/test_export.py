"""Latent-structure export: text and binary containers for the same payload."""

import struct

import numpy as np
import pytest

from latentheads import export
from latentheads.errors import DataFormatError, InvalidInputError

from lhr_testutil import make_treebank, tiny_model


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


def test_empty_treebank_rejected(model, tmp_path):
    from latentheads.conll import Treebank
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


def test_binary_reader_rejects_non_utf8_form(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"LSS1" + struct.pack("<I", 1) + struct.pack("<II", 1, 1)
                     + struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<d", 0.5))
    with pytest.raises(DataFormatError,
                       match=f"^{path}: sentence 0 token 0: form is not valid UTF-8"):
        export.read_lss_binary(str(path))
