"""Export per-token latent structure (context vector + latent head).

Two container formats for the same payload. The text format prints every
float with %.17g so parsing it back reproduces the exact float64 bits; the
binary format is raw little-endian float64 behind a short magic. Both carry
the token forms so exported files are inspectable on their own.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from . import nn
from .conll import Treebank, read_lines
from .errors import DataFormatError, InvalidInputError
from .model import LhrModel

LSS_FORMATS = ("text", "binary")
_MAGIC = b"LSS1"


def sentence_vectors(model: LhrModel, sentence) -> list[tuple[str, np.ndarray]]:
    with nn.no_grad():
        enc = model.encode_sentence(sentence)
        rows = model.latent_structure(enc)
    return [(tok.form, row) for tok, row in zip(sentence.tokens, rows)]


def _check(model: LhrModel, tb: Treebank, binary: bool) -> None:
    """Reject what would fail mid-write before the output opens: no partial file."""
    chars = model.config.encoder.mode == "word+char"  # each form's characters are encoded
    for k, sent in enumerate(tb.sentences):
        if not sent.tokens:
            raise InvalidInputError(f"sentence {k}: cannot encode an empty sentence")
        for j, tok in enumerate(sent.tokens if binary or chars else ()):
            if chars and not tok.form:
                where = f"{sent.origin}: " if sent.origin else ""
                raise InvalidInputError(f"{where}sentence {k} token {j}: empty form")
            size = len(tok.form.encode("utf-8"))
            if binary and size > 0xFFFF:
                raise InvalidInputError(
                    f"sentence {k} token {j}: form is {size} UTF-8 bytes, "
                    "the binary latent-structure format holds at most 65535")


def write_lss_text(model: LhrModel, tb: Treebank, path: str) -> None:
    _check(model, tb, binary=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"lss 1 sentences {len(tb.sentences)}\n")
        for k, sent in enumerate(tb.sentences):
            rows = sentence_vectors(model, sent)
            dim = rows[0][1].shape[0]
            fh.write(f"sentence {k} tokens {len(rows)} dim {dim}\n")
            line = "%s\t" + " ".join(["%.17g"] * dim) + "\n"
            fh.writelines(line % (form, *vec.tolist()) for form, vec in rows)


def read_lss_text(path: str) -> list[list[tuple[str, np.ndarray]]]:
    def count(text: str) -> int:
        n = int(text)
        if n < 0:
            raise DataFormatError(f"{path}:{lineno}: negative count {n}")
        return n

    lines = read_lines(path)
    lineno = 1  # of the line being read
    try:
        header = lines[0].split()
        if len(header) != 4 or header[:3] != ["lss", "1", "sentences"]:
            raise DataFormatError(f"{path}:1: not a text latent-structure file header")
        out = []
        for k in range(count(header[3])):
            lineno += 1
            parts = lines[lineno - 1].split()
            if len(parts) != 6 or parts[:3] + parts[4:5] != ["sentence", str(k), "tokens", "dim"]:
                raise DataFormatError(f"{path}:{lineno}: malformed sentence header {parts!r}, "
                                      f"expected 'sentence {k} tokens N dim D'")
            n_tokens, dim = count(parts[3]), count(parts[5])
            if k and dim != width:
                raise DataFormatError(f"{path}:{lineno}: dim {dim}, but sentence 0 has {width}")
            width = dim
            rows = []
            for _ in range(n_tokens):
                lineno += 1
                form, _, floats = lines[lineno - 1].partition("\t")
                vec = np.array(floats.split(), dtype=np.float64)
                if vec.shape[0] != dim:
                    raise DataFormatError(f"{path}:{lineno}: token {form!r} has "
                                          f"{vec.shape[0]} values, expected {dim}")
                rows.append((form, vec))
            out.append(rows)
    except IndexError:
        raise DataFormatError(f"{path}: truncated latent-structure file") from None
    except ValueError as exc:  # a count or a value that is not a number
        raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    if len(lines) > lineno:
        raise DataFormatError(f"{path}:{lineno + 1}: text after the last of the "
                              f"{len(out)} sentences the header declares")
    return out


def write_lss_binary(model: LhrModel, tb: Treebank, path: str) -> None:
    _check(model, tb, binary=True)
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<I", len(tb.sentences)))
        for k, sent in enumerate(tb.sentences):
            rows = sentence_vectors(model, sent)
            fh.write(struct.pack("<II", len(rows), rows[0][1].shape[0]))
            for form, vec in rows:
                raw = form.encode("utf-8")
                fh.write(struct.pack("<H", len(raw)) + raw + vec.astype("<f8", copy=False).tobytes())


def read_lss_binary(path: str) -> list[list[tuple[str, np.ndarray]]]:
    def take(fh, n: int) -> bytes:  # a size past the end of the file is never allocated
        raw = fh.read(n) if n <= size - fh.tell() else b""
        if len(raw) != n:
            raise DataFormatError(f"{path}: truncated latent-structure file")
        return raw

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if take(fh, 4) != _MAGIC:
            raise DataFormatError(f"{path} is not a binary latent-structure file")
        (n_sentences,) = struct.unpack("<I", take(fh, 4))
        out = []
        for k in range(n_sentences):
            n_tokens, dim = struct.unpack("<II", take(fh, 8))
            if k and dim != width:
                raise DataFormatError(f"{path}: sentence {k} has dim {dim}, "
                                      f"but sentence 0 has {width}")
            width = dim
            rows = []
            for j in range(n_tokens):
                (form_len,) = struct.unpack("<H", take(fh, 2))
                try:
                    form = take(fh, form_len).decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataFormatError(f"{path}: sentence {k} token {j}: form is not "
                                          f"valid UTF-8 ({exc.reason})") from None
                vec = np.frombuffer(take(fh, 8 * dim), dtype="<f8").astype(np.float64)
                rows.append((form, vec))
            out.append(rows)
        if fh.tell() != size:
            raise DataFormatError(f"{path}: {size - fh.tell()} bytes after the last of the "
                                  f"{n_sentences} sentences the header declares")
    return out


def export_lss(model: LhrModel, tb: Treebank, path: str, fmt: str = "text") -> None:
    if not tb.sentences:
        raise InvalidInputError("nothing to export: treebank is empty")
    if fmt == "text":
        write_lss_text(model, tb, path)
    elif fmt == "binary":
        write_lss_binary(model, tb, path)
    else:
        raise InvalidInputError(f"unknown latent-structure format {fmt!r}, "
                                f"expected one of {LSS_FORMATS}")
