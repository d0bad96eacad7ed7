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
from .conll import Treebank, output_file, read_lines
from .errors import DataFormatError, InvalidInputError
from .model import LhrModel

LSS_FORMATS = ("text", "binary")
_MAGIC = b"LSS1"
_BLOCK = 8  # token rows formatted at once, which bounds the formatter's temporaries
_POW10 = 10.0 ** np.arange(23)  # every power up to 1e22 is exact in float64
# A value's grid row holds its text in columns 0-23 and its separator at 24.
# _HEADS[10 * zeros + lead]: columns 0-7 of a value with `zeros` zeros after "0."
# and first digit `lead`; _QUADS[k]: "%04d" % k; _KEEP[start, end]: the columns
# kept of a value whose text spans columns start to end - 1
_COLS = np.arange(32)
_HEADS = np.frombuffer(b"".join((b"-0." + b"0" * z + b"%d" % d).rjust(8) for z in range(4)
                                for d in range(10)), dtype=np.uint64)
_PAIRS = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), dtype=np.uint16)
_QUADS = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS), axis=2).view(np.uint32).ravel()
_KEEP = ((_COLS[:, None, None] <= _COLS) & (_COLS < _COLS[:, None]) | (_COLS == 24))


def _split(x):
    """Veltkamp's split: hi + lo == x, each half with at most 26 significant bits."""
    c = x * 134217729.0  # 2**27 + 1
    return c - (c - x), x - (c - (c - x))


def _scaled(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a * 10**p rounded to an int64, ties to even, for products of 2**53 to 2**62:
    Dekker's exact product gives hi + lo == a * 10**p, and hi is an even integer."""
    hi = a * _POW10[p]
    (ah, al), (bh, bl) = _split(a), _split(_POW10[p])
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _text_lines(m: np.ndarray) -> list[str]:
    """The rows of `m` as "%.17g" values joined by spaces, byte for byte. 1e-4 <= |x| < 1
    prints as "0.", up to three zeros and 17 digits less trailing zeros, built here from the
    17-digit integer; any other value (0, 1, 5e-05, inf, nan) goes through % itself."""
    x = m.ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1.0)
    a[~fast] = 0.5  # a stand-in the fast path can format; its text is replaced below
    p = 16 - np.floor(np.log10(a)).astype(np.intp)
    n = _scaled(a, p)
    off = (n >= 10**17).astype(np.intp) - (n < 10**16)
    if off.any():  # log10 was one off, or the rounding carried into an 18th digit
        p -= off
        n = _scaled(a, p)
    grid = np.full((x.size, 32), ord(" "), dtype=np.uint8)
    zeros = p - 17
    grid.view(np.uint64)[:, 0] = np.take(_HEADS, 10 * zeros + n // 10**16)
    for col, unit in zip(range(2, 6), (10**12, 10**8, 10**4, 1)):
        grid.view(np.uint32)[:, col] = np.take(_QUADS, n // unit % 10**4)
    start = 5 - zeros - np.signbit(x)
    end = np.full(x.size, 24)
    tail = np.flatnonzero(grid[:, 23] == ord("0"))  # trailing zeros are cut
    end[tail] = 24 - np.argmax(grid[tail, 23:6:-1] != ord("0"), axis=1)
    for i in np.flatnonzero(~fast):
        text = np.frombuffer(b"%.17g" % x[i], dtype=np.uint8)
        grid[i, :text.size], start[i], end[i] = text, 0, text.size
    grid[m.shape[1] - 1::m.shape[1], 24] = ord("\n")
    keep = np.take(_KEEP.reshape(-1, 32), 32 * start + end, axis=0)
    return grid[keep].tobytes().decode("ascii").split("\n")[:-1]


def sentence_vectors(model: LhrModel, sentence) -> list[tuple[str, np.ndarray]]:
    with nn.no_grad():
        enc = model.encode_sentence(sentence)
        rows = model.latent_structure(enc)
    return [(tok.form, row) for tok, row in zip(sentence.tokens, rows)]


def write_lss_text(model: LhrModel, tb: Treebank, path) -> None:
    with output_file(path) as fh:
        fh.write(f"lss 1 sentences {len(tb.sentences)}\n")
        for k, sent in enumerate(tb.sentences):
            rows = sentence_vectors(model, sent)
            fh.write(f"sentence {k} tokens {len(rows)} dim {rows[0][1].shape[0]}\n")
            for b in range(0, len(rows), _BLOCK):
                lines = _text_lines(np.stack([vec for _, vec in rows[b:b + _BLOCK]]))
                fh.writelines(f"{form}\t{line}\n" for (form, _), line in zip(rows[b:], lines))


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


def write_lss_binary(model: LhrModel, tb: Treebank, path) -> None:
    with output_file(path, binary=True) as fh:
        fh.write(_MAGIC + struct.pack("<I", len(tb.sentences)))
        for k, sent in enumerate(tb.sentences):
            rows = sentence_vectors(model, sent)
            fh.write(struct.pack("<II", len(rows), rows[0][1].shape[0]))
            for tok, (form, vec) in zip(sent.tokens, rows):
                raw = form.encode("utf-8")
                if len(raw) > 0xFFFF:
                    raise InvalidInputError(
                        f"{sent.origin or f'sentence {k}'}: token {tok.index}: form is "
                        f"{len(raw)} UTF-8 bytes, "
                        "the binary latent-structure format holds at most 65535")
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


def export_lss(model: LhrModel, tb: Treebank, path, fmt: str = "text") -> None:
    if not tb.sentences:
        raise InvalidInputError("nothing to export: treebank is empty")
    if fmt == "text":
        write_lss_text(model, tb, path)
    elif fmt == "binary":
        write_lss_binary(model, tb, path)
    else:
        raise InvalidInputError(f"unknown latent-structure format {fmt!r}, "
                                f"expected one of {LSS_FORMATS}")
