"""End-to-end command line behaviour: exit codes, artifacts, determinism."""

import dataclasses
import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

import latentheads
from latentheads import cli, conll, decoder, export, serialize
from latentheads.cli import main
from latentheads.model import ModelConfig
from latentheads.tokens import EncoderConfig
from latentheads.trainer import TrainConfig

from lhr_testutil import copy_with_huge_header, fixture_path

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


@pytest.mark.parametrize("pred_heads, rate", [
    ([(2, 1)], "0.0000"),
    ([(2, 1), ("_", 1)], "0.5000"),  # a `_` head ends its chain: no cycle
], ids=["cycle", "cycle-and-unknown-head"])
def test_eval_reports_the_cycles_of_the_predicted_file(tmp_path, capsys, pred_heads, rate):
    def sentences(heads):
        return "".join(f"1\tA\t_\tNOUN\t_\t_\t{h1}\tdep\t_\t_\n"
                       f"2\tB\t_\tVERB\t_\t_\t{h2}\tdep\t_\t_\n\n" for h1, h2 in heads)
    gold, pred = tmp_path / "gold.conllu", tmp_path / "pred.conllu"
    gold.write_text(sentences([(0, 1)] * len(pred_heads)), encoding="utf-8")
    pred.write_text(sentences(pred_heads), encoding="utf-8")
    assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 0
    assert f"cycle-free {rate}" in capsys.readouterr().out


def test_eval_sentence_count_mismatch_exits_2(trained, tmp_path, capsys):
    short = tmp_path / "short.conllu"
    tb = conll.read_conll(DEV)
    tb.sentences = tb.sentences[:3]
    conll.write_conll(tb, None, str(short))
    assert main(["eval", "--gold", DEV, "--pred", str(short)]) == 2


def test_eval_tree_length_mismatch_names_the_gold_sentence(tmp_path, capsys):
    lines = Path(DEV).read_text(encoding="utf-8").splitlines(keepends=True)
    short = tmp_path / "short.conllu"
    short.write_text("".join(lines[:5] + lines[6:]), encoding="utf-8")  # drops token 6
    assert main(["eval", "--gold", DEV, "--pred", str(short)]) == 1
    assert f"error: {DEV}:1: tree has 5 tokens, sentence has 6" in capsys.readouterr().err


def test_train_on_an_unlabeled_token_names_its_sentence(tmp_path, capsys):
    bad = tmp_path / "unlabeled.conllu"
    bad.write_text(Path(DEV).read_text(encoding="utf-8").replace("\tnsubj\t", "\t_\t", 1),
                   encoding="utf-8")
    assert main(["train", "--train", str(bad), "--model", str(tmp_path / "m.npz"), *FAST]) == 1
    assert f"error: {bad}:1: token 2 ('car') has no arc label" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [(), ("--no-labeler",)], ids=["labeler", "no-labeler"])
def test_train_on_a_treebank_without_labels_names_it(tmp_path, capsys, extra):
    lines = Path(TRAIN).read_text(encoding="utf-8").splitlines(keepends=True)
    bare = tmp_path / "bare.conllu"
    bare.write_text("".join("\t".join(c[:7] + ["_"] + c[8:]) if len(c) == 10 else line
                            for line in lines for c in [line.split("\t")]),
                    encoding="utf-8")
    assert main(["train", "--train", str(bare), "--model", str(tmp_path / "m.npz"),
                 *FAST, *extra]) == 1
    assert capsys.readouterr().err == (f"error: {bare}: no token has an arc label "
                                       "(column 8); the labeler needs labeled trees\n")


def test_model_is_written_at_exactly_the_path_given(tmp_path, capsys):
    path = tmp_path / "x.bin"
    assert main(["train", "--train", TRAIN, "--model", str(path), *FAST]) == 0
    assert f"saved {path}" in capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]
    out = tmp_path / "parsed.conllu"
    assert main(["parse", "--model", str(path), "--input", DEV, "--output", str(out)]) == 0
    assert len(conll.read_conll(str(out))) == len(conll.read_conll(DEV))


@pytest.mark.parametrize("flag", ["--model", "--curve"])
def test_train_checks_its_output_paths_before_training(tmp_path, capsys, flag):
    missing = tmp_path / "absent" / "out"
    kept = tmp_path / "kept.npz"
    kept.write_bytes(b"an earlier checkpoint")
    outputs = {"--model": str(kept), flag: str(missing)}
    loud = [arg for arg in FAST if arg != "--quiet"]  # each epoch would be logged
    args = ["train", "--train", TRAIN, *loud, *(x for pair in outputs.items() for x in pair)]
    assert main(args) == 1
    assert capsys.readouterr().err == (f"error: cannot write {missing}: "
                                       f"no directory {missing.parent}\n")
    assert not missing.parent.exists()
    assert kept.read_bytes() == b"an earlier checkpoint"


@pytest.mark.parametrize("exc, expected", [
    (MemoryError("Unable to allocate 1.00 TiB for an array with shape (524288, 262144) "
                 "and data type float64"),
     "error: out of memory: Unable to allocate 1.00 TiB for an array with shape "
     "(524288, 262144) and data type float64\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy-message", "no-message"])
def test_running_out_of_memory_exits_1(monkeypatch, capsys, exc, expected):
    def parse(*args, **kwargs):
        raise exc
    monkeypatch.setattr(decoder, "parse", parse)
    code = main(["parse", "--model", fixture_path("toy_model_v1.npz"), "--input", DEV])
    assert code == 1
    assert capsys.readouterr().err == expected


def test_export_lss_round_trips(trained, tmp_path, capsys):
    out = tmp_path / "dev.lss"
    code = main(["export-lss", "--model", trained, "--input", DEV,
                 "--output", str(out), "--lss-format", "binary"])
    assert code == 0
    captured = capsys.readouterr()  # standard output stays free for the data
    assert captured.out == ""
    assert captured.err == f"wrote binary latent structure for 10 sentences to {out}\n"
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


def test_abbreviated_config_flag_applies_the_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 1\nword-dim = 8\npos-dim = 4\ncontext-hidden = 6\n"
                   "heads-hidden = 6\nlabeler-hidden = 6\nquiet = yes\n")
    model = tmp_path / "m.npz"
    assert main(["train", "--train", TRAIN, "--model", str(model), "--conf", str(cfg)]) == 0
    assert serialize.load_model(str(model)).config.encoder.word_dim == 8


@pytest.mark.parametrize("keys", [("alpha", "no-labeler", "no-shuffle"),
                                  ("alpha", "no_labeler", "no_shuffle")])
def test_config_keys_of_renamed_dests_reach_the_configs(tmp_path, monkeypatch, keys):
    seen, real_train = [], cli.train

    def spy(model, train_tb, tcfg, **kwargs):
        seen.append(tcfg)
        return real_train(model, train_tb, tcfg, **kwargs)

    monkeypatch.setattr(cli, "train", spy)
    cfg = tmp_path / "run.cfg"
    alpha, labeler, shuffle = keys
    cfg.write_text(f"{alpha} = 0.5\n{labeler} = yes\n{shuffle} = on\n")
    model = tmp_path / "m.npz"
    assert main(["train", "--train", TRAIN, "--model", str(model), *FAST,
                 "--config", str(cfg)]) == 0
    assert serialize.load_model(str(model)).config.encoder.alpha_word_dropout == 0.5
    assert [(t.use_labeler, t.shuffle) for t in seen] == [(False, False)]


def test_every_config_field_is_the_dest_of_one_train_flag():
    _, commands = cli.build_parser()
    dests = [a.dest for a in commands["train"]._actions]
    fields = [f.name for cls in (EncoderConfig, ModelConfig, TrainConfig)
              for f in dataclasses.fields(cls) if f.name != "encoder"]
    assert {name: dests.count(name) for name in fields} == {name: 1 for name in fields}


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


@pytest.mark.parametrize("flag, value, field", [
    ("--labeler-weight", "nan", "labeler_weight"),
    ("--alpha", "nan", "alpha_word_dropout"),
    ("--alpha", "inf", "alpha_word_dropout"),
    ("--lr", "inf", "lr"),
    ("--lr", "nan", "lr"),
])
def test_non_finite_setting_exits_1_naming_the_field(tmp_path, capsys, flag, value, field):
    path = tmp_path / "model.npz"
    assert main(train_args(path, flag, value)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be finite") and "Traceback" not in err
    assert not path.exists()


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


def test_checkpoint_member_declaring_an_enormous_shape_exits_1(trained, tmp_path, capsys):
    bad = tmp_path / "enormous.npz"
    copy_with_huge_header(trained, bad)
    code = main(["parse", "--model", str(bad), "--input", DEV])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read checkpoint") and str(bad) in err
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


def test_empty_field_exits_1_naming_the_line(trained, tmp_path, capsys):
    lines = Path(DEV).read_text(encoding="utf-8").split("\n")
    k = next(i for i, line in enumerate(lines) if line and not line.startswith("#"))
    cols = lines[k].split("\t")
    cols[1] = ""
    lines[k] = "\t".join(cols)
    bad = tmp_path / "empty_form.conllu"
    bad.write_text("\n".join(lines), encoding="utf-8")
    code = main(["parse", "--model", trained, "--input", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{bad}:{k + 1}: column 2 is empty" in err and "Traceback" not in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "latentheads.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "export-lss" in proc.stdout


def test_importing_the_cli_loads_only_the_stdlib_and_numpy():
    # modules present before the import (site hooks) do not count
    src = str(Path(latentheads.__file__).parent.parent)
    code = ("import sys; before = set(sys.modules); "
            f"sys.path.insert(0, {src!r}); import latentheads.cli; "
            "print(*{m.partition('.')[0] for m in set(sys.modules) - before})")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert set(proc.stdout.split()) - set(sys.stdlib_module_names) <= {"latentheads", "numpy"}
