"""Checkpoint save/load: determinism, fidelity, and corruption handling."""

import hashlib
import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

from latentheads import conll, decoder, serialize
from latentheads.errors import CheckpointError
from latentheads.model import LhrModel, ModelConfig
from latentheads.tokens import EncoderConfig

from lhr_testutil import fixture_path, make_treebank, tiny_model


@pytest.fixture(scope="module")
def bank():
    rng = np.random.default_rng(7)
    return make_treebank(8, rng)


@pytest.fixture(scope="module")
def model(bank):
    return tiny_model(bank, seed=3)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def test_saving_twice_gives_identical_bytes(model, tmp_path):
    a = tmp_path / "a.npz"
    b = tmp_path / "b.npz"
    serialize.save_model(model, str(a))
    serialize.save_model(model, str(b))
    assert sha256(a) == sha256(b)


def test_round_trip_preserves_every_weight(model, tmp_path):
    path = tmp_path / "m.npz"
    serialize.save_model(model, str(path))
    loaded = serialize.load_model(str(path))
    original = dict(model.named_parameters())
    restored = dict(loaded.named_parameters())
    assert set(original) == set(restored)
    for name, p in original.items():
        assert np.array_equal(p.data, restored[name].data), name


def test_round_trip_preserves_vocabularies_and_pairs(model, tmp_path):
    path = tmp_path / "m.npz"
    serialize.save_model(model, str(path))
    loaded = serialize.load_model(str(path))
    assert loaded.word_vocab.symbols == model.word_vocab.symbols
    assert loaded.pos_vocab.symbols == model.pos_vocab.symbols
    assert loaded.label_vocab.symbols == model.label_vocab.symbols
    assert loaded.word_vocab.counts == model.word_vocab.counts
    assert loaded.seen_pairs == model.seen_pairs
    assert loaded.config == model.config


def test_loaded_model_parses_identically(model, bank, tmp_path):
    path = tmp_path / "m.npz"
    serialize.save_model(model, str(path))
    loaded = serialize.load_model(str(path))
    for sent in bank.sentences:
        t1 = decoder.parse(model, sent)
        t2 = decoder.parse(loaded, sent)
        assert t1.heads == t2.heads
        assert t1.labels == t2.labels
        assert t1.pos == t2.pos


def test_missing_file_raises(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        serialize.load_model(str(tmp_path / "nope.npz"))


def test_garbage_file_raises(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"this is not a zip archive at all")
    with pytest.raises(CheckpointError):
        serialize.load_model(str(path))


def test_archive_without_meta_raises(tmp_path):
    path = tmp_path / "nometa.npz"
    np.savez(str(path), something=np.zeros(3))
    with pytest.raises(CheckpointError, match="no meta"):
        serialize.load_model(str(path))


def test_corrupt_meta_raises(tmp_path):
    path = tmp_path / "badmeta.npz"
    bad = np.frombuffer(b"{not json", dtype=np.uint8)
    np.savez(str(path), meta=bad)
    with pytest.raises(CheckpointError, match="corrupt meta"):
        serialize.load_model(str(path))


def rewrite_meta(src, dst, mutate):
    """Copy a checkpoint with its JSON header passed through mutate()."""
    with np.load(str(src), allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    mutate(meta)
    raw = json.dumps(meta, sort_keys=True).encode("utf-8")
    arrays["meta"] = np.frombuffer(raw, dtype=np.uint8)
    np.savez(str(dst), **arrays)


def test_version_mismatch_raises(model, tmp_path):
    src = tmp_path / "m.npz"
    dst = tmp_path / "future.npz"
    serialize.save_model(model, str(src))

    def bump(meta):
        meta["format_version"] = 99

    rewrite_meta(src, dst, bump)
    with pytest.raises(CheckpointError, match="format version 99"):
        serialize.load_model(str(dst))


def test_meta_missing_fields_raises(model, tmp_path):
    src = tmp_path / "m.npz"
    dst = tmp_path / "partial.npz"
    serialize.save_model(model, str(src))

    def strip(meta):
        del meta["word_vocab"]

    rewrite_meta(src, dst, strip)
    with pytest.raises(CheckpointError, match="missing fields"):
        serialize.load_model(str(dst))


@pytest.mark.parametrize("where, key", [
    ("top", "dropout"),         # unknown model field
    ("encoder", "dropout"),     # unknown encoder field
    ("encoder", "-char_dim"),   # missing encoder field: no default fills it in
    ("top", "-heads_hidden"),   # missing model field
])
def test_meta_config_must_name_exactly_the_config_fields(model, tmp_path, where, key):
    src = tmp_path / "m.npz"
    dst = tmp_path / "odd.npz"
    serialize.save_model(model, str(src))

    def change(meta):
        cfg = meta["config"] if where == "top" else meta["config"]["encoder"]
        if key.startswith("-"):
            del cfg[key[1:]]
        else:
            cfg[key] = 0.5

    rewrite_meta(src, dst, change)
    with pytest.raises(CheckpointError, match=f"{key.lstrip('-')}"):
        serialize.load_model(str(dst))


def test_dropped_parameter_raises(model, tmp_path):
    src = tmp_path / "m.npz"
    dst = tmp_path / "short.npz"
    serialize.save_model(model, str(src))
    with np.load(str(src), allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    del arrays["param/root_vector"]
    np.savez(str(dst), **arrays)
    with pytest.raises(CheckpointError, match="do not match"):
        serialize.load_model(str(dst))


def test_shape_mismatch_raises(model, tmp_path):
    src = tmp_path / "m.npz"
    dst = tmp_path / "reshaped.npz"
    serialize.save_model(model, str(src))
    with np.load(str(src), allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays["param/root_vector"] = np.zeros(arrays["param/root_vector"].size + 1)
    np.savez(str(dst), **arrays)
    with pytest.raises(CheckpointError, match="shape"):
        serialize.load_model(str(dst))


def test_checkpoint_is_a_plain_zip(model, tmp_path):
    path = tmp_path / "m.npz"
    serialize.save_model(model, str(path))
    with zipfile.ZipFile(path) as z:
        names = z.namelist()
    assert "meta.npy" in names
    assert any(n.startswith("param/") for n in names)


def saved_arrays(model, tmp_path):
    src = tmp_path / "m.npz"
    serialize.save_model(model, str(src))
    with np.load(str(src), allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def test_truncated_file_raises(model, tmp_path):
    path = tmp_path / "m.npz"
    serialize.save_model(model, str(path))
    raw = path.read_bytes()
    for keep in (len(raw) // 2, len(raw) - 10):
        cut = tmp_path / f"cut{keep}.npz"
        cut.write_bytes(raw[:keep])
        with pytest.raises(CheckpointError, match=f"cannot read checkpoint {cut}"):
            serialize.load_model(str(cut))


def test_plain_npy_file_raises(tmp_path):
    path = tmp_path / "array.npy"
    np.save(str(path), np.zeros(3))
    with pytest.raises(CheckpointError, match="not an .npz archive"):
        serialize.load_model(str(path))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_parameter_raises(model, tmp_path, value):
    arrays = saved_arrays(model, tmp_path)
    arrays["param/context_encoder.reverse.w_output"][1, 2] = value
    dst = tmp_path / "nonfinite.npz"
    np.savez(str(dst), **arrays)
    with pytest.raises(CheckpointError, match="'context_encoder.reverse.w_output' has non-finite"):
        serialize.load_model(str(dst))


def test_non_float64_parameter_raises(model, tmp_path):
    arrays = saved_arrays(model, tmp_path)
    arrays["param/root_vector"] = arrays["param/root_vector"].astype(np.float32)
    dst = tmp_path / "single.npz"
    np.savez(str(dst), **arrays)
    with pytest.raises(CheckpointError, match="'root_vector' has dtype float32"):
        serialize.load_model(str(dst))


def test_checkpoint_from_earlier_build_parses_unchanged(tmp_path):
    # written and parsed by the per-vector build (format version 1), whose
    # toy_dev output is stored next to it
    model = serialize.load_model(fixture_path("toy_model_v1.npz"))
    dev = conll.read_conll(fixture_path("toy_dev.conllu"), strict=False)
    out = tmp_path / "parsed.conllu"
    conll.write_conll(dev, [decoder.parse(model, s) for s in dev.sentences], str(out))
    assert out.read_bytes() == Path(fixture_path("toy_dev_parsed_v1.conllu")).read_bytes()


# sha256 of fresh seed-11 checkpoints on the toy_train vocabularies, as the
# per-vector build wrote them: stacked gates must initialise gate by gate
@pytest.mark.parametrize("dims, digest", [
    ((6, 3, 4, 4, 5), "35dafa51e1f4a21ef95539a3eef2d36d85072c268982b29061644948c41a4a1d"),
    ((150, 50, 200, 200, 100),
     "08aaf3ad7e4df0f83d2f576bcebd2f38d8ed31ae2fd5cd07e1c1ef9b139a25cf"),
], ids=["test-dims", "paper-dims"])
def test_fresh_seeded_checkpoint_bytes_are_unchanged(tmp_path, dims, digest):
    tb = conll.read_conll(fixture_path("toy_train.conllu"))
    cfg = ModelConfig(encoder=EncoderConfig(word_dim=dims[0], pos_dim=dims[1]),
                      context_hidden=dims[2], heads_hidden=dims[3], labeler_hidden=dims[4])
    model = LhrModel(*conll.build_vocabularies(tb), cfg, seed=11)
    path = tmp_path / "fresh.npz"
    serialize.save_model(model, str(path))
    assert sha256(path) == digest
