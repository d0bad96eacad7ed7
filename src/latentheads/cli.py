"""Command line front end: train, parse, eval, export-lss.

Every option can also come from a flat key=value config file (--config);
explicit command line flags win over the file, the file wins over built-in
defaults. Usage problems exit 2, runtime failures exit 1.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import decoder, serialize, export as export_mod
from .conll import (FORMATS, PunctuationRule, build_vocabularies, read_conll,
                    read_lines, write_conll)
from .decoder import DependencyTree
from .errors import DataFormatError, LatentHeadsError, UsageError
from .evaluation import evaluate
from .model import LhrModel, ModelConfig
from .tokens import MODES, EncoderConfig
from .trainer import LOSSES, ROOT_TARGETS, TrainConfig, train


def _punct_rule(args) -> PunctuationRule | None:
    rule = PunctuationRule()
    if getattr(args, "punct_pos", None) is not None:
        rule.pos_tags = frozenset(t for t in args.punct_pos.split(",") if t)
    if getattr(args, "punct_labels", None) is not None:
        rule.labels = frozenset(t for t in args.punct_labels.split(",") if t)
    return rule


def _add_punct_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--punct-pos", metavar="TAGS",
                   help="comma-separated POS tags treated as punctuation")
    p.add_argument("--punct-labels", metavar="LABELS",
                   help="comma-separated arc labels treated as punctuation")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentheads",
        description="Dependency parsing by reconstructing each token's "
                    "governor in context-vector space.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    tr = sub.add_parser("train", help="train a model on a treebank")
    tr.add_argument("--train", required=True, metavar="FILE", help="training treebank")
    tr.add_argument("--dev", metavar="FILE", help="development treebank; keeps the best-UAS weights")
    tr.add_argument("--model", required=True, metavar="FILE", help="checkpoint to write")
    tr.add_argument("--format", choices=FORMATS, default="conllu")
    tr.add_argument("--config", metavar="FILE", help="key=value file with defaults for any flag")
    tr.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    tr.add_argument("--lr", type=float, default=TrainConfig.lr)
    tr.add_argument("--seed", type=int, default=TrainConfig.seed)
    tr.add_argument("--loss", choices=LOSSES, default=TrainConfig.loss,
                    help="reconstruction distance (default %(default)s)")
    tr.add_argument("--word-dim", type=int, default=EncoderConfig.word_dim)
    tr.add_argument("--pos-dim", type=int, default=EncoderConfig.pos_dim)
    tr.add_argument("--context-hidden", type=int, default=ModelConfig.context_hidden)
    tr.add_argument("--heads-hidden", type=int, default=ModelConfig.heads_hidden)
    tr.add_argument("--labeler-hidden", type=int, default=ModelConfig.labeler_hidden)
    tr.add_argument("--mode", choices=MODES, default=EncoderConfig.mode,
                    help="token representation (default %(default)s)")
    tr.add_argument("--char-dim", type=int, default=EncoderConfig.char_dim)
    tr.add_argument("--char-hidden", type=int, default=EncoderConfig.char_hidden)
    tr.add_argument("--alpha", type=float, default=EncoderConfig.alpha_word_dropout,
                    help="word dropout strength alpha/(count+alpha)")
    tr.add_argument("--min-count", type=int, default=1,
                    help="words rarer than this map to the unknown embedding")
    tr.add_argument("--no-labeler", action="store_true",
                    help="train the reconstruction objective alone")
    tr.add_argument("--labeler-weight", type=float, default=TrainConfig.labeler_weight)
    tr.add_argument("--labeler-softmax", action="store_true",
                    help="cross-entropy classifier outputs instead of hinge")
    tr.add_argument("--root-target", choices=ROOT_TARGETS, default=TrainConfig.root_target,
                    help="reconstruction target for root-governed tokens")
    tr.add_argument("--rebalance-targets", action="store_true",
                    help="let reconstruction gradients reach the target context vectors")
    tr.add_argument("--skip-punct-heads", action="store_true",
                    help="drop punctuation tokens from the reconstruction loss")
    tr.add_argument("--no-shuffle", action="store_true")
    tr.add_argument("--curve", metavar="FILE", help="write per-epoch loss/score TSV here")
    tr.add_argument("--quiet", action="store_true")
    _add_punct_flags(tr)

    pa = sub.add_parser("parse", help="parse sentences with a trained model")
    pa.add_argument("--model", required=True, metavar="FILE")
    pa.add_argument("--input", required=True, metavar="FILE")
    pa.add_argument("--output", metavar="FILE", help="default: standard output")
    pa.add_argument("--format", choices=FORMATS, default="conllu")
    pa.add_argument("--config", metavar="FILE")
    pa.add_argument("--no-pos-correction", action="store_true",
                    help="keep the input's predicted POS column in the output")

    ev = sub.add_parser("eval", help="score a parsed file against gold")
    ev.add_argument("--gold", required=True, metavar="FILE")
    ev.add_argument("--pred", required=True, metavar="FILE")
    ev.add_argument("--format", choices=FORMATS, default="conllu")
    ev.add_argument("--config", metavar="FILE")
    ev.add_argument("--include-punct", action="store_true",
                    help="count punctuation tokens in the accuracies")
    _add_punct_flags(ev)

    ex = sub.add_parser("export-lss", help="write per-token latent vectors")
    ex.add_argument("--model", required=True, metavar="FILE")
    ex.add_argument("--input", required=True, metavar="FILE")
    ex.add_argument("--output", required=True, metavar="FILE")
    ex.add_argument("--format", choices=FORMATS, default="conllu")
    ex.add_argument("--config", metavar="FILE")
    ex.add_argument("--lss-format", choices=export_mod.LSS_FORMATS, default="text")

    return parser


def read_config_file(path: str) -> dict[str, str]:
    try:
        lines = read_lines(path)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except DataFormatError as exc:
        raise UsageError(str(exc)) from None
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _apply_config(sub_parser: argparse.ArgumentParser, values: dict[str, str]) -> None:
    """Turn config entries into parser defaults, so explicit flags still win."""
    actions = {a.dest: a for a in sub_parser._actions}
    defaults = {}
    for key, raw in values.items():
        action = actions.get(key)
        if action is None:
            raise UsageError(f"config key {key!r} matches no option of this command")
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            low = raw.lower()
            if low in _TRUE:
                defaults[key] = isinstance(action, argparse._StoreTrueAction)
            elif low in _FALSE:
                defaults[key] = not isinstance(action, argparse._StoreTrueAction)
            else:
                raise UsageError(f"config key {key!r} expects a boolean, got {raw!r}")
        elif action.type is not None:
            try:
                defaults[key] = action.type(raw)
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc
        else:
            defaults[key] = raw
        if action.choices is not None and defaults[key] not in action.choices:
            raise UsageError(
                f"config key {key!r}: {defaults[key]!r} is not one of {list(action.choices)}")
    sub_parser.set_defaults(**defaults)


def _find_config_path(argv: list[str]) -> str | None:
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a file argument")
            return argv[i + 1]
        if tok.startswith("--config="):
            return tok[len("--config="):]
    return None


def cmd_train(args) -> int:
    punct = _punct_rule(args)
    train_tb = read_conll(args.train, fmt=args.format, punct=punct)
    dev_tb = read_conll(args.dev, fmt=args.format, punct=punct) if args.dev else None
    word_vocab, pos_vocab, label_vocab, seen_pairs = build_vocabularies(
        train_tb, min_count=args.min_count)
    cfg = ModelConfig(
        encoder=EncoderConfig(word_dim=args.word_dim, pos_dim=args.pos_dim,
                              alpha_word_dropout=args.alpha, mode=args.mode,
                              char_dim=args.char_dim, char_hidden=args.char_hidden),
        context_hidden=args.context_hidden, heads_hidden=args.heads_hidden,
        labeler_hidden=args.labeler_hidden, labeler_softmax=args.labeler_softmax)
    model = LhrModel(word_vocab, pos_vocab, label_vocab, seen_pairs, cfg, seed=args.seed)
    tcfg = TrainConfig(
        epochs=args.epochs, lr=args.lr, loss=args.loss,
        use_labeler=not args.no_labeler, labeler_weight=args.labeler_weight,
        root_target=args.root_target, rebalance_targets=args.rebalance_targets,
        skip_punct_heads=args.skip_punct_heads, shuffle=not args.no_shuffle,
        seed=args.seed)
    log = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    report = train(model, train_tb, tcfg, dev_tb=dev_tb, log=log)
    serialize.save_model(model, args.model)
    if args.curve:
        report.save_tsv(args.curve)
    if report.best_uas is not None:
        print(f"best dev UAS {report.best_uas:.4f} at epoch {report.best_epoch}; "
              f"saved {args.model}")
    else:
        print(f"final training loss {report.records[-1].train_loss:.4f}; "
              f"saved {args.model}")
    return 0


def cmd_parse(args) -> int:
    model = serialize.load_model(args.model)
    tb = read_conll(args.input, fmt=args.format, strict=False)
    trees = [decoder.parse(model, s, pos_correction=not args.no_pos_correction)
             for s in tb.sentences]
    write_conll(tb, trees, args.output if args.output else sys.stdout)
    return 0


def cmd_eval(args) -> int:
    punct = _punct_rule(args)
    gold = read_conll(args.gold, fmt=args.format, punct=punct)
    pred = read_conll(args.pred, fmt=args.format, strict=False)
    if len(pred.sentences) != len(gold.sentences):
        raise UsageError(f"{args.pred} has {len(pred.sentences)} sentences, "
                         f"{args.gold} has {len(gold.sentences)}")
    trees = []
    for sent in pred.sentences:
        trees.append(DependencyTree(
            heads=[t.gold_head for t in sent.tokens],
            labels=[t.gold_label for t in sent.tokens],
            pos=[t.gold_pos for t in sent.tokens],
            arc_scores=[0.0] * len(sent.tokens)))
    result = evaluate(gold, trees, skip_punct=not args.include_punct)
    print(result.summary())
    return 0


def cmd_export(args) -> int:
    model = serialize.load_model(args.model)
    tb = read_conll(args.input, fmt=args.format, strict=False)
    export_mod.export_lss(model, tb, args.output, fmt=args.lss_format)
    print(f"wrote {args.lss_format} latent structure for {len(tb.sentences)} "
          f"sentences to {args.output}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "parse": cmd_parse,
    "eval": cmd_eval,
    "export-lss": cmd_export,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        config_path = _find_config_path(argv)
        if config_path is not None:
            values = read_config_file(config_path)
            values.pop("config", None)
            command = next((tok for tok in argv if tok in _COMMANDS), None)
            if command is None:
                raise UsageError("--config requires a command")
            sub = parser._subparsers._group_actions[0].choices[command]
            _apply_config(sub, values)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        if args.command is None:
            parser.print_help(sys.stderr)
            return 2
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LatentHeadsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
