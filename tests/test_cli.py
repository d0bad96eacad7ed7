"""End-to-end command line behaviour: exit codes, artifacts, determinism."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from latentheads import conll, export, serialize
from latentheads.cli import main

from lhr_testutil import fixture_path

TRAIN = fixture_path("toy_train.conllu")
DEV = fixture_path("toy_dev.conllu")

# small dims keep each CLI training run around a second
FAST = ["--epochs", "2", "--word-dim", "8", "--pos-dim", "4",
        "--context-hidden", "6", "--heads-hidden", "6",
        "--labeler-hidden", "6", "--quiet"]


def train_args(model_path, *extra):
    return ["train", "--train", TRAIN, "--dev", DEV,
            "--model", str(model_path), *FAST, *extra]


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One shared fast checkpoint for the read-only subcommand tests."""
    path = tmp_path_factory.mktemp("cli") / "model.npz"
    assert main(train_args(path)) == 0
    return str(path)


def test_missing_required_flag_exits_2(capsys):
    code = main(["train", "--model", "x.npz"])
    assert code == 2
    assert "--train" in capsys.readouterr().err


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_no_command_prints_help_and_exits_2(capsys):
    assert main([]) == 2
    assert "train" in capsys.readouterr().err


def test_train_reports_best_dev_score(tmp_path, capsys):
    path = tmp_path / "m.npz"
    assert main(train_args(path)) == 0
    out = capsys.readouterr().out
    assert "best dev UAS" in out
    assert path.exists()


def test_train_without_dev_reports_loss(tmp_path, capsys):
    path = tmp_path / "m.npz"
    code = main(["train", "--train", TRAIN, "--model", str(path), *FAST])
    assert code == 0
    assert "final training loss" in capsys.readouterr().out


def test_same_seed_trains_identical_checkpoints(tmp_path):
    a = tmp_path / "a.npz"
    b = tmp_path / "b.npz"
    assert main(train_args(a, "--seed", "5")) == 0
    assert main(train_args(b, "--seed", "5")) == 0
    assert sha256(a) == sha256(b)


def test_different_seed_changes_the_checkpoint(tmp_path):
    a = tmp_path / "a.npz"
    b = tmp_path / "b.npz"
    assert main(train_args(a, "--seed", "5")) == 0
    assert main(train_args(b, "--seed", "6")) == 0
    assert sha256(a) != sha256(b)


def test_curve_has_one_row_per_epoch(tmp_path):
    model = tmp_path / "m.npz"
    curve = tmp_path / "curve.tsv"
    assert main(train_args(model, "--curve", str(curve))) == 0
    lines = curve.read_text().strip().split("\n")
    assert lines[0] == "epoch\ttrain_loss\tdev_uas\tdev_las"
    assert len(lines) == 1 + 2  # header + two epochs


def test_parse_writes_aligned_output(trained, tmp_path):
    out = tmp_path / "parsed.conllu"
    code = main(["parse", "--model", trained, "--input", DEV,
                 "--output", str(out)])
    assert code == 0
    gold = conll.read_conll(DEV)
    parsed = conll.read_conll(str(out))
    assert len(parsed.sentences) == len(gold.sentences)
    for g, p in zip(gold.sentences, parsed.sentences):
        assert [t.form for t in p.tokens] == [t.form for t in g.tokens]
        heads = [t.gold_head for t in p.tokens]
        assert heads.count(0) == 1
        assert all(0 <= h <= len(heads) for h in heads)


def test_parse_defaults_to_stdout(trained, capsys):
    assert main(["parse", "--model", trained, "--input", DEV]) == 0
    out = capsys.readouterr().out
    assert out.count("\n\n") >= 10  # one blank separator per sentence
    assert "\t" in out


def test_eval_gold_against_itself(capsys):
    assert main(["eval", "--gold", DEV, "--pred", DEV]) == 0
    out = capsys.readouterr().out
    assert "UAS 1.0000" in out
    assert "LAS 1.0000" in out


def test_eval_scores_parser_output(trained, tmp_path, capsys):
    out = tmp_path / "parsed.conllu"
    main(["parse", "--model", trained, "--input", DEV, "--output", str(out)])
    capsys.readouterr()
    assert main(["eval", "--gold", DEV, "--pred", str(out)]) == 0
    summary = capsys.readouterr().out
    uas = float(summary.split("UAS", 1)[1].split()[0])
    assert 0.0 <= uas <= 1.0


def test_eval_sentence_count_mismatch_exits_2(trained, tmp_path, capsys):
    short = tmp_path / "short.conllu"
    tb = conll.read_conll(DEV)
    tb.sentences = tb.sentences[:3]
    conll.write_conll(tb, None, str(short))
    assert main(["eval", "--gold", DEV, "--pred", str(short)]) == 2


def test_export_lss_round_trips(trained, tmp_path):
    out = tmp_path / "dev.lss"
    code = main(["export-lss", "--model", trained, "--input", DEV,
                 "--output", str(out), "--lss-format", "binary"])
    assert code == 0
    payload = export.read_lss_binary(str(out))
    tb = conll.read_conll(DEV)
    assert len(payload) == len(tb.sentences)
    model = serialize.load_model(trained)
    dim = 2 * model.config.context_size
    assert all(vec.shape[0] == dim for sent in payload for _, vec in sent)


def test_export_lss_binary_rejects_overlong_form(trained, tmp_path, capsys):
    lines = Path(DEV).read_text(encoding="utf-8").split("\n")
    first = next(i for i, line in enumerate(lines) if line.startswith("1\t"))
    cols = lines[first].split("\t")
    cols[1] = "x" * 70000
    lines[first] = "\t".join(cols)
    src = tmp_path / "long.conllu"
    src.write_text("\n".join(lines), encoding="utf-8")
    code = main(["export-lss", "--model", trained, "--input", str(src),
                 "--output", str(tmp_path / "out.bin"), "--lss-format", "binary"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sentence 0 token 0: form is 70000 UTF-8 bytes")
    assert "Traceback" not in err


def test_config_file_sets_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# fast settings\nepochs = 1\nword-dim = 8\npos-dim = 4\n"
                   "context-hidden = 6\nheads-hidden = 6\nlabeler-hidden = 6\n"
                   "quiet = yes\n")
    model = tmp_path / "m.npz"
    code = main(["train", "--train", TRAIN, "--model", str(model),
                 "--config", str(cfg)])
    assert code == 0
    loaded = serialize.load_model(str(model))
    assert loaded.config.encoder.word_dim == 8


def test_explicit_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 1\nword-dim = 8\npos-dim = 4\ncontext-hidden = 6\n"
                   "heads-hidden = 6\nlabeler-hidden = 6\nquiet = yes\n")
    model = tmp_path / "m.npz"
    code = main(["train", "--train", TRAIN, "--model", str(model),
                 "--config", str(cfg), "--word-dim", "10"])
    assert code == 0
    loaded = serialize.load_model(str(model))
    assert loaded.config.encoder.word_dim == 10


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wibble = 3\n")
    code = main(["train", "--train", TRAIN, "--model", "x.npz",
                 "--config", str(cfg)])
    assert code == 2
    assert "wibble" in capsys.readouterr().err


def test_config_bad_boolean_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("quiet = maybe\n")
    code = main(["train", "--train", TRAIN, "--model", "x.npz",
                 "--config", str(cfg)])
    assert code == 2
    assert "boolean" in capsys.readouterr().err


def test_config_bad_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = soon\n")
    code = main(["train", "--train", TRAIN, "--model", "x.npz",
                 "--config", str(cfg)])
    assert code == 2


def test_config_non_utf8_exits_2_with_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"# fast settings\nepochs = 1\xff\n")
    code = main(["train", "--train", TRAIN, "--model", "x.npz",
                 "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{cfg}:2: not valid UTF-8" in err and "Traceback" not in err


def test_missing_treebank_exits_1(tmp_path, capsys):
    code = main(["train", "--train", str(tmp_path / "absent.conllu"),
                 "--model", "x.npz", *FAST])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"nope")
    code = main(["parse", "--model", str(bad), "--input", DEV])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_truncated_checkpoint_exits_1(trained, tmp_path, capsys):
    cut = tmp_path / "cut.npz"
    raw = Path(trained).read_bytes()
    cut.write_bytes(raw[:len(raw) // 2])
    code = main(["parse", "--model", str(cut), "--input", DEV])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read checkpoint") and str(cut) in err
    assert "Traceback" not in err


def test_non_finite_checkpoint_exits_1(trained, tmp_path, capsys):
    import numpy as np
    with np.load(trained, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays["param/head_reducer.bias"] = arrays["param/head_reducer.bias"].copy()
    arrays["param/head_reducer.bias"][0] = np.nan
    bad = tmp_path / "nan.npz"
    np.savez(str(bad), **arrays)
    code = main(["export-lss", "--model", str(bad), "--input", DEV,
                 "--output", str(tmp_path / "out.lss")])
    assert code == 1
    assert "head_reducer.bias" in capsys.readouterr().err


def test_non_utf8_treebank_exits_1(trained, tmp_path, capsys):
    raw = Path(DEV).read_bytes().replace(b"\t", b"\xff\t", 1)
    bad = tmp_path / "latin1.conllu"
    bad.write_bytes(raw)
    code = main(["parse", "--model", trained, "--input", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{bad}:" in err and "UTF-8" in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "latentheads.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "export-lss" in proc.stdout
