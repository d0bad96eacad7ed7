"""Latent-structure export: text and binary containers for the same payload."""

import copy
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentheads import decoder, export, nn, serialize
from latentheads.conll import Sentence, Treebank, read_conll, write_conll
from latentheads.errors import DataFormatError, InvalidInputError
from latentheads.model import EncodedSentence
from latentheads.trainer import EpochRecord, TrainReport

from lhr_testutil import fixture_path, make_sentence, make_treebank, tiny_model


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


def percent_lines(m):
    """The reference for the text writer's numbers: one % call per value."""
    return [b" ".join(b"%.17g" % v for v in row).decode("ascii") for row in m]


def assert_formats_like_percent(values, width=64):
    values = np.asarray(values, dtype=np.float64).ravel()
    m = np.resize(values, (-(-values.size // width), width))  # the tail repeats the head
    assert export._text_lines(m) == percent_lines(m)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_formatter_writes_the_bytes_of_percent_for_any_float(values):
    # st.floats() draws nan, inf, subnormals and -0.0 as well
    assert_formats_like_percent(values, width=len(values))


def test_formatter_writes_the_bytes_of_percent_on_random_bit_patterns():
    rng = np.random.default_rng(23)
    assert_formats_like_percent(rng.integers(0, 2**64, 60000, dtype=np.uint64).view(np.float64))
    assert_formats_like_percent(rng.uniform(-1, 1, 60000) * 10.0 ** rng.integers(-6, 2, 60000))


def test_formatter_writes_the_bytes_of_percent_next_to_powers_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-6, 18)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    # log10 of the float below 0.1 is exactly -1, one decade too high for its digits
    assert np.log10(np.nextafter(0.1, 0)) == -1.0
    edges = [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 1.0, np.nextafter(1.0, 0)]
    assert_formats_like_percent(np.concatenate([values, edges, -values, np.negative(edges)]))


def test_formatter_rounds_exact_ties_to_even_as_percent_does():
    # odd j over 2**(18 + d) has 18 + d decimals, the last a 5; in the decade
    # [10**-(d + 1), 10**-d) that 5 is the 18th significant digit, an exact tie
    rng = np.random.default_rng(5)
    ties = []
    for d in range(4):
        first, last = 2**(18 + d) // 10**(d + 1) // 2, 2**(18 + d) // 10**d // 2
        ties.append((2 * rng.integers(first, last, 5000) + 1) / 2.0**(18 + d))
    assert all(("%.18e" % v)[18:20] == "50" for v in ties[0])  # 18th digit 5, 19th 0
    assert_formats_like_percent(np.concatenate(ties + [-t for t in ties]))


def test_text_writer_sends_values_outside_the_fast_range_through_percent(model, tmp_path,
                                                                         monkeypatch):
    special = np.array([0.0, -0.0, 1.0, -1.0, 5e-5, 1e-300, 3.0, 0.25, -0.123456789])
    latent_structure = model.latent_structure

    def with_specials(enc):
        rows = latent_structure(enc)
        rows[:, :special.size] = special
        rows[:, -1] = np.resize(special, rows.shape[0])  # a fallback ends each line
        return rows
    monkeypatch.setattr(model, "latent_structure", with_specials)
    tb = Treebank([make_sentence(2 * export._BLOCK + 3, np.random.default_rng(4))])
    rows = export.sentence_vectors(model, tb.sentences[0])
    text = f"lss 1 sentences 1\nsentence 0 tokens {len(rows)} dim {len(rows[0][1])}\n"
    text += "".join(form + "\t" + " ".join("%.17g" % v for v in vec) + "\n" for form, vec in rows)
    path = tmp_path / "special.lss"
    export.export_lss(model, tb, str(path), fmt="text")
    assert path.read_bytes() == text.encode("utf-8")
    for (form, vec), (form2, vec2) in zip(export.read_lss_text(str(path))[0], rows):
        assert form == form2
        assert vec.view(np.uint64).tolist() == vec2.view(np.uint64).tolist()


@pytest.mark.parametrize("fmt", export.LSS_FORMATS)
def test_the_exported_structure_decodes_to_the_parse(fmt, tmp_path):
    # the exported [c; h] rows and the checkpoint's root vector are all a
    # consumer needs to rebuild the parser's heads and arc scores
    model = serialize.load_model(fixture_path("toy_model_v1.npz"))
    tb = read_conll(fixture_path("toy_dev.conllu"), strict=False)
    path = str(tmp_path / "dev.lss")
    export.export_lss(model, tb, path, fmt=fmt)
    payload = (export.read_lss_text if fmt == "text" else export.read_lss_binary)(path)
    size = model.config.context_size
    assert len(payload) == len(tb.sentences) == 10
    for sentence, rows in zip(tb.sentences, payload):
        lhr = np.stack([vec for _, vec in rows])
        enc = EncodedSentence(nn.Tensor(lhr[:, :size]), nn.Tensor(lhr[:, size:]))
        scores = decoder.build_scores(enc, model.root_vector.data)
        tree = decoder.decode(scores)
        parsed = decoder.parse(model, sentence)
        assert tree.heads == parsed.heads
        assert np.array(tree.arc_scores).tobytes() == np.array(parsed.arc_scores).tobytes()


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
                           match=f"^sentence {k}: token {j + 1}: form is 80000 UTF-8 bytes"):
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
        with pytest.raises(InvalidInputError, match="^sentence 2: token 1: form is 70000"):
            export.export_lss(model, tb, str(path), fmt="binary")
    assert not fresh.exists()
    assert kept.read_bytes() == b"earlier output"


def _write_conll_with(tree5):
    """A write of toy_dev.conllu whose sixth tree is `tree5`."""
    tb = read_conll(fixture_path("toy_dev.conllu"))
    trees = [SimpleNamespace(heads=[0] * len(s), labels=["x"] * len(s), pos=["X"] * len(s))
             for s in tb.sentences]
    trees[5] = tree5
    return lambda path: write_conll(tb, trees, path)


WRITERS = ["write_conll", "text", "binary", "save_model", "save_tsv"]
FAULTS = {"OSError": (lambda: OSError(28, "No space left on device"),
                      r"^\[Errno 28\] No space left on device$"),
          "interrupt": (KeyboardInterrupt, "^$")}


def _failing_write(writer, fault, model, bank, monkeypatch):
    """A call of `writer` that raises `fault()` after writing part of its output."""
    def fail(*args):
        raise fault()

    class Failing:  # fails where a writer takes its length or formats it
        __len__ = __format__ = fail

    if writer == "write_conll":
        return _write_conll_with(SimpleNamespace(heads=Failing(), labels=[], pos=[]))
    if writer in ("text", "binary"):
        vectors = export.sentence_vectors

        def fourth_fails(m, sentence):
            return fail() if sentence is bank.sentences[3] else vectors(m, sentence)
        monkeypatch.setattr(export, "sentence_vectors", fourth_fails)
        return lambda path: export.export_lss(model, bank, path, fmt=writer)
    if writer == "save_model":
        def savez(fh, **arrays):
            fh.write(b"PK\x03\x04 the first bytes of an archive")
            fail()
        monkeypatch.setattr(np, "savez", savez)
        return lambda path: serialize.save_model(model, path)
    return TrainReport([EpochRecord(1, 0.5), EpochRecord(2, Failing())]).save_tsv


def _rejected_write(kind, model, bank, monkeypatch):
    """A write call whose input or output fails past the first sentence, and the
    exception type and message it raises."""
    writer, _, fault = kind.partition("-")
    if fault in FAULTS:
        make, message = FAULTS[fault]
        return (_failing_write(writer, make, model, bank, monkeypatch), type(make()), message)
    if kind == "write_conll":
        return (_write_conll_with(SimpleNamespace(heads=[0], labels=["root"], pos=["X"])),
                InvalidInputError, "^sentence 5: 1 heads")
    if kind.endswith("empty-form"):  # a char-mode model has no characters to encode
        tb = Treebank(copy.deepcopy(bank.sentences))
        tb.sentences[3].tokens[1].form = ""
        tb.sentences[3].origin = "corpus.conllu:12"
        char_model = tiny_model(bank, seed=2, mode="word+char")
        return ((lambda path: export.export_lss(char_model, tb, path, fmt=writer)),
                InvalidInputError, "^corpus.conllu:12: token 2 has an empty form, "
                                   "which the word\\+char encoder cannot read$")
    tb = Treebank([*bank.sentences[:3], Sentence(tokens=[]), bank.sentences[4]])
    return ((lambda path: export.export_lss(model, tb, path, fmt=writer)), InvalidInputError,
            "^cannot encode an empty sentence$")


@pytest.mark.parametrize("kind", ["write_conll", "text", "binary",
                                  "text-empty-form", "binary-empty-form",
                                  *(f"{w}-{f}" for w in WRITERS for f in FAULTS)])
def test_a_rejected_input_leaves_no_file_and_an_existing_file_unchanged(kind, model, bank,
                                                                        tmp_path, monkeypatch):
    write, error, message = _rejected_write(kind, model, bank, monkeypatch)
    fresh = tmp_path / "fresh"
    kept = tmp_path / "kept"
    kept.write_bytes(b"earlier output\n")
    for path in (fresh, kept):
        with pytest.raises(error, match=message):
            write(str(path))
    assert not fresh.exists()
    assert kept.read_bytes() == b"earlier output\n"
    assert [p.name for p in tmp_path.iterdir()] == ["kept"]  # no temporary file is left


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


@pytest.mark.parametrize("keep", [0, -1], ids=["empty", "last-line-cut"])
def test_text_reader_rejects_truncation(model, bank, tmp_path, keep):
    path = tmp_path / "v.lss"
    export.export_lss(model, bank, str(path), fmt="text")
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cut = tmp_path / "cut.lss"
    cut.write_text("".join(lines[:keep]), encoding="utf-8")
    with pytest.raises(DataFormatError, match=f"^{cut}: truncated latent-structure file$"):
        export.read_lss_text(str(cut))


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
