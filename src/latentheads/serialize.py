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

from . import nn
from .conll import Vocabulary
from .errors import CheckpointError, ConfigurationError, InvalidInputError
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


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _vocab_from_meta(meta: dict, path: str, name: str) -> Vocabulary:
    if not _is_str_list(meta["symbols"]):
        raise CheckpointError(f"{path} meta field '{name}.symbols' is not a list of strings")
    return Vocabulary(meta["symbols"], counts=meta["counts"],
                      min_count=meta["min_count"], unknown=meta["unknown"])


def _config_from_meta(cls, values, path: str, **nested):
    """The config dataclass `cls` rebuilt from a dict naming exactly its fields.

    A missing or unknown field, or a value not of its default's type, raises:
    no default may stand in for a value the checkpoint should carry. `nested`
    maps each field that is itself a config to its class.
    """
    fields = {f.name for f in dataclasses.fields(cls)}
    given = set(values) if isinstance(values, dict) else set()
    if given != fields:
        raise CheckpointError(
            f"{path} meta config does not match {cls.__name__}: missing "
            f"{sorted(fields - given)}, unknown {sorted(given - fields)}")
    for f in dataclasses.fields(cls):
        value, kind = values[f.name], type(f.default)
        # bool is an int subclass, so it fits a bool field only; a float field takes an int
        fits = (type(value) is kind if bool in (kind, type(value))
                else isinstance(value, (int, float) if kind is float else kind))
        if f.name not in nested and not fits:
            raise CheckpointError(f"{path} meta config field {f.name!r} is {value!r}, "
                                  f"expected {kind.__name__}")
    return cls(**{name: _config_from_meta(nested[name], value, path) if name in nested
                  else value for name, value in values.items()})


class _Archive(nn.Parameters):
    """Hands each module the saved array for the name it declares, checked first.

    A configuration the archive does not fit fails at its first parameter, before
    anything of its size is allocated; names left in `saved` were never declared.
    """

    def __init__(self, path: str, saved: dict):
        super().__init__(None)
        self.path, self.saved = path, saved

    def array(self, name: str, shape: tuple, init: str) -> np.ndarray:
        path, value = self.path, self.saved.pop(name, None)
        if value is None:
            raise CheckpointError(f"{path} parameters do not match the configuration "
                                  f"(missing {name!r})")
        if value.shape != shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {value.shape}, expected {shape}")
        if value.dtype != np.float64:
            raise CheckpointError(
                f"{path}: parameter {name!r} has dtype {value.dtype}, expected float64")
        if not np.all(np.isfinite(value)):
            raise CheckpointError(f"{path}: parameter {name!r} has non-finite values")
        return value


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
    with open(path, "wb") as fh:  # given a path, np.savez would append ".npz"
        np.savez(fh, **arrays)


def load_model(path: str) -> LhrModel:
    try:
        with open(path, "rb") as fh:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise CheckpointError(f"cannot read checkpoint {path}: not an .npz archive")
            with archive:
                arrays = {name: archive[name] for name in archive.files}
    except (OSError, ValueError, EOFError, MemoryError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if "meta" not in arrays:
        raise CheckpointError(f"{path} has no meta entry; not a model checkpoint")
    try:
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path} has a corrupt meta entry: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path} meta is not a JSON object")
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path} is format version {version!r}, this build reads {FORMAT_VERSION}")
    try:
        cfg = _config_from_meta(ModelConfig, meta["config"], path, encoder=EncoderConfig)
        vocabs = [_vocab_from_meta(meta[name], path, name)
                  for name in ("word_vocab", "pos_vocab", "label_vocab")]
        seen_pairs = meta["seen_pairs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path} meta is missing fields or malformed: {exc}") from exc
    if not (isinstance(seen_pairs, list)
            and all(_is_str_list(p) and len(p) == 2 for p in seen_pairs)):
        raise CheckpointError(f"{path} meta field 'seen_pairs' is not a list of "
                              "[label, pos] string pairs")
    # handed over, not shared: each array is freed once its module has taken it
    source = _Archive(path, {name[len("param/"):]: arrays.pop(name)
                             for name in list(arrays) if name.startswith("param/")})
    try:
        model = LhrModel(*vocabs, seen_pairs, cfg, source=source)
    except (ConfigurationError, InvalidInputError) as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    if source.saved:
        raise CheckpointError(f"{path} parameters do not match the configuration "
                              f"(unexpected {sorted(source.saved)[:3]})")
    return model
