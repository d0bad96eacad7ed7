"""Model checkpoints: one .npz holding every weight plus a JSON header.

Saving the same model twice produces identical bytes (sorted JSON keys,
fixed zip metadata), which the determinism tests rely on. Checkpoints carry
weights and vocabularies only, not optimizer state, so training resumes are
out of scope: load for parsing, evaluation, and export.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile

import numpy as np

from .conll import Vocabulary
from .errors import CheckpointError
from .model import LhrModel, ModelConfig
from .tokens import EncoderConfig

FORMAT_VERSION = 1


def _vocab_meta(vocab: Vocabulary) -> dict:
    return {
        "symbols": list(vocab.symbols),
        "counts": vocab.counts,
        "min_count": vocab.min_count,
        "unknown": vocab.unknown,
    }


def _vocab_from_meta(meta: dict) -> Vocabulary:
    return Vocabulary(meta["symbols"], counts=meta["counts"],
                      min_count=meta["min_count"], unknown=meta["unknown"])


def _config_from_meta(cls, values, path: str, **nested):
    """The config dataclass `cls` rebuilt from a dict naming exactly its fields.

    A missing or unknown field raises: no dataclass default may stand in
    for a value the checkpoint should carry. `nested` maps each field that
    is itself a config to its class.
    """
    fields = {f.name for f in dataclasses.fields(cls)}
    given = set(values) if isinstance(values, dict) else set()
    if given != fields:
        raise CheckpointError(
            f"{path} meta config does not match {cls.__name__}: missing "
            f"{sorted(fields - given)}, unknown {sorted(given - fields)}")
    return cls(**{name: _config_from_meta(nested[name], value, path) if name in nested
                  else value for name, value in values.items()})


def save_model(model: LhrModel, path: str) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "config": dataclasses.asdict(model.config),
        "word_vocab": _vocab_meta(model.word_vocab),
        "pos_vocab": _vocab_meta(model.pos_vocab),
        "label_vocab": _vocab_meta(model.label_vocab),
        "seen_pairs": [list(p) for p in model.seen_pairs],
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    arrays = {"meta": np.frombuffer(meta_bytes, dtype=np.uint8)}
    for name, p in model.named_parameters():
        arrays[f"param/{name}"] = p.data
    np.savez(path, **arrays)


def load_model(path: str) -> LhrModel:
    try:
        with open(path, "rb") as fh:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise CheckpointError(f"cannot read checkpoint {path}: not an .npz archive")
            with archive:
                arrays = {name: archive[name] for name in archive.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if "meta" not in arrays:
        raise CheckpointError(f"{path} has no meta entry; not a model checkpoint")
    try:
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path} has a corrupt meta entry: {exc}") from exc
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path} is format version {version!r}, this build reads {FORMAT_VERSION}")
    try:
        cfg = _config_from_meta(ModelConfig, meta["config"], path, encoder=EncoderConfig)
        word_vocab = _vocab_from_meta(meta["word_vocab"])
        pos_vocab = _vocab_from_meta(meta["pos_vocab"])
        label_vocab = _vocab_from_meta(meta["label_vocab"])
        seen_pairs = [tuple(p) for p in meta["seen_pairs"]]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{path} meta is missing fields: {exc}") from exc
    model = LhrModel(word_vocab, pos_vocab, label_vocab, seen_pairs, cfg)
    saved = {name[len("param/"):]: value
             for name, value in arrays.items() if name.startswith("param/")}
    current = dict(model.named_parameters())
    if set(saved) != set(current):
        missing = sorted(set(current) - set(saved))
        extra = sorted(set(saved) - set(current))
        raise CheckpointError(
            f"{path} parameters do not match the configuration "
            f"(missing {missing[:3]}, unexpected {extra[:3]})")
    for name, p in current.items():
        value = saved[name]
        if value.shape != p.data.shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {value.shape}, "
                f"expected {p.data.shape}")
        if value.dtype != np.float64:
            raise CheckpointError(
                f"{path}: parameter {name!r} has dtype {value.dtype}, expected float64")
        if not np.all(np.isfinite(value)):
            raise CheckpointError(f"{path}: parameter {name!r} has non-finite values")
        p.data[...] = value
    return model
