"""Byte-level fuzzing of every reader and of the command line.

Each input starts from a valid file, a bundled fixture or one written from
the toy model, and has a few bytes replaced, inserted or deleted. A reader may
reject the result only with a LatentHeadsError; the command line may only
exit 0, 1 or 2. Examples are derandomized, so every run tries the same inputs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from latentheads import cli, conll, export, serialize
from latentheads.errors import LatentHeadsError

from lhr_testutil import fixture_path

MODEL = fixture_path("toy_model_v1.npz")
DEV = fixture_path("toy_dev.conllu")
CONFIG = b"# eval settings\nformat = conllu\ninclude-punct = false\npunct-pos = PUNCT,SYM\n"

fuzz = settings(derandomize=True, database=None, deadline=None, max_examples=50,
                suppress_health_check=[HealthCheck.too_slow])

# any byte, or one of those that carry structure in the text formats
BYTES = st.integers(0, 255) | st.sampled_from(list(b"\t\n #=-.0123456789_e"))


def edits():
    """Up to four single-byte edits, each (kind, position as a fraction, byte)."""
    return st.lists(st.tuples(st.sampled_from(("replace", "insert", "delete")),
                              st.floats(0.0, 1.0, exclude_max=True), BYTES),
                    min_size=1, max_size=4)


def mutate(data: bytes, steps) -> bytes:
    buf = bytearray(data)
    for kind, where, byte in steps:
        at = int(where * len(buf)) if buf else 0
        if kind == "insert" or not buf:
            buf.insert(at, byte)
        elif kind == "replace":
            buf[at] = byte
        else:
            del buf[at]
    return bytes(buf)


def rejects_only_on_purpose(read, path) -> None:
    try:
        read(path)
    except LatentHeadsError:
        pass


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A scratch directory and the valid LSS files of the toy model on toy_dev."""
    root = tmp_path_factory.mktemp("fuzz")
    model = serialize.load_model(MODEL)
    dev = conll.read_conll(DEV, strict=False)
    for fmt in export.LSS_FORMATS:
        export.export_lss(model, dev, str(root / f"valid.{fmt}"), fmt=fmt)
    return root


def parse_exit_code(model: str, treebank: str, out) -> int:
    return cli.main(["parse", "--model", model, "--input", treebank, "--output", str(out)])


@pytest.mark.parametrize("name, fmt", [("toy_train.conllu", "conllu"),
                                       ("toy_dev.conllu", "conllu"),
                                       ("toy_sample.conllx", "conllx")])
def test_mutated_treebank(work, name, fmt):
    with open(fixture_path(name), "rb") as fh:
        valid = fh.read()
    path = work / f"mutant.{fmt}"

    @fuzz
    @given(edits())
    def check(steps):
        path.write_bytes(mutate(valid, steps))
        for strict in (True, False):
            rejects_only_on_purpose(lambda p: conll.read_conll(p, fmt=fmt, strict=strict),
                                    str(path))
        if fmt == "conllu":
            assert parse_exit_code(MODEL, str(path), work / "parsed.conllu") in (0, 1, 2)

    check()


@pytest.mark.parametrize("fmt", export.LSS_FORMATS)
def test_mutated_latent_structure_file(work, fmt):
    valid = (work / f"valid.{fmt}").read_bytes()
    path = work / f"mutant-lss.{fmt}"
    read = export.read_lss_text if fmt == "text" else export.read_lss_binary

    @fuzz
    @given(edits())
    def check(steps):
        path.write_bytes(mutate(valid, steps))
        rejects_only_on_purpose(read, str(path))

    check()


def test_mutated_checkpoint_meta(work):
    with np.load(MODEL, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    valid = arrays["meta"].tobytes()
    path = work / "mutant.npz"

    @fuzz
    @given(edits())
    def check(steps):
        meta = np.frombuffer(mutate(valid, steps), dtype=np.uint8)
        np.savez(str(path), **{**arrays, "meta": meta})
        rejects_only_on_purpose(serialize.load_model, str(path))
        assert parse_exit_code(str(path), DEV, work / "parsed.conllu") in (0, 1, 2)

    check()


def test_mutated_config_file(work):
    path = work / "mutant.cfg"

    @fuzz
    @given(edits())
    def check(steps):
        path.write_bytes(mutate(CONFIG, steps))
        rejects_only_on_purpose(cli.read_config_file, str(path))
        code = cli.main(["eval", "--gold", DEV, "--pred", DEV, "--config", str(path)])
        assert code in (0, 1, 2)

    check()
