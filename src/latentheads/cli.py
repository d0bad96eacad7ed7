"""Command line front end: train, parse, eval, export-lss.

Every optional flag can also come from a flat key=value config file
(--config); explicit command line flags win over the file, the file wins over
built-in defaults. Usage problems exit 2, runtime failures exit 1, an
interrupt 130.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from contextlib import nullcontext

from . import decoder, serialize, export as export_mod
from .conll import (FORMATS, PunctuationRule, build_vocabularies, find_cycles,
                    output_file, read_conll, read_lines, write_conll)
from .decoder import DependencyTree
from .errors import DataFormatError, InvalidInputError, LatentHeadsError, UsageError
from .evaluation import evaluate
from .model import LhrModel, ModelConfig
from .tokens import MODES, EncoderConfig
from .trainer import LOSSES, ROOT_TARGETS, TrainConfig, train


def _tag_set(value: str) -> frozenset:
    """The non-empty comma-separated names of `value`; "" is the empty set."""
    return frozenset(t for t in value.split(",") if t)


def _add_punct_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--punct-pos", metavar="TAGS", type=_tag_set,
                   default=PunctuationRule.pos_tags,
                   help="comma-separated POS tags treated as punctuation")
    p.add_argument("--punct-labels", metavar="LABELS", type=_tag_set,
                   default=PunctuationRule.labels,
                   help="comma-separated arc labels treated as punctuation")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=FORMATS, default="conllu")
    p.add_argument("--config", metavar="FILE", help="key=value file with defaults for any flag")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's subparser, by command name.

    A `train` flag that sets a config field has the field's name as its dest.
    """
    parser = argparse.ArgumentParser(
        prog="latentheads",
        description="Dependency parsing by reconstructing each token's "
                    "governor in context-vector space.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    tr = sub.add_parser("train", help="train a model on a treebank")
    tr.add_argument("--train", required=True, metavar="FILE", help="training treebank")
    tr.add_argument("--dev", metavar="FILE", help="development treebank; keeps the best-UAS weights")
    tr.add_argument("--model", required=True, metavar="FILE", help="checkpoint to write")
    _add_input_flags(tr)
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
                    dest="alpha_word_dropout", metavar="ALPHA",
                    help="word dropout strength alpha/(count+alpha)")
    tr.add_argument("--min-count", type=int, default=1,
                    help="words rarer than this map to the unknown embedding")
    tr.add_argument("--labeler-weight", type=float, default=TrainConfig.labeler_weight,
                    help="weight of the labeler loss; 0 trains the reconstruction alone")
    tr.add_argument("--labeler-softmax", action="store_true",
                    help="train the labeler by cross-entropy on its scores instead of hinge")
    tr.add_argument("--root-target", choices=ROOT_TARGETS, default=TrainConfig.root_target,
                    help="reconstruction target for root-governed tokens")
    tr.add_argument("--rebalance-targets", action="store_true",
                    help="let reconstruction gradients reach the target context vectors")
    tr.add_argument("--skip-punct-heads", action="store_true",
                    help="drop punctuation tokens from the reconstruction loss")
    tr.add_argument("--no-shuffle", dest="shuffle", action="store_false")
    tr.add_argument("--curve", metavar="FILE", help="write per-epoch loss/score TSV here")
    tr.add_argument("--quiet", action="store_true")
    _add_punct_flags(tr)

    pa = sub.add_parser("parse", help="parse sentences with a trained model")
    pa.add_argument("--model", required=True, metavar="FILE")
    pa.add_argument("--input", required=True, metavar="FILE")
    pa.add_argument("--output", metavar="FILE", help="default: standard output")
    _add_input_flags(pa)
    pa.add_argument("--no-pos-correction", action="store_true",
                    help="keep the input's predicted POS column in the output")

    ev = sub.add_parser("eval", help="score a parsed file against gold")
    ev.add_argument("--gold", required=True, metavar="FILE")
    ev.add_argument("--pred", required=True, metavar="FILE")
    _add_input_flags(ev)
    ev.add_argument("--include-punct", action="store_true",
                    help="count punctuation tokens in the accuracies")
    _add_punct_flags(ev)

    ex = sub.add_parser("export-lss", help="write per-token latent vectors")
    ex.add_argument("--model", required=True, metavar="FILE")
    ex.add_argument("--input", required=True, metavar="FILE")
    ex.add_argument("--output", required=True, metavar="FILE")
    _add_input_flags(ex)
    ex.add_argument("--lss-format", choices=export_mod.LSS_FORMATS, default="text")

    return parser, sub.choices


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
    """Turn config entries into parser defaults, so explicit flags still win.

    A key names a flag without its leading dashes; a switch takes a boolean.
    """
    defaults = {}
    for key, raw in values.items():
        action = sub_parser._option_string_actions.get("--" + key.replace("_", "-"))
        if action is None:
            raise UsageError(f"config key {key!r} matches no option of this command")
        if action.nargs == 0:
            if raw.lower() not in _TRUE | _FALSE:
                raise UsageError(f"config key {key!r} expects a boolean, got {raw!r}")
            value = action.const if raw.lower() in _TRUE else action.default
        else:
            try:
                value = raw if action.type is None else action.type(raw)
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise UsageError(
                f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
        defaults[action.dest] = value
    sub_parser.set_defaults(**defaults)


def _from_args(cls, args, **given):
    """The config dataclass `cls` with each field not in `given` read from `args`."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
                  if f.name not in given}, **given)


def cmd_train(args) -> int:
    if args.curve and os.path.realpath(args.curve) == os.path.realpath(args.model):
        raise UsageError(f"--model {args.model} and --curve {args.curve} are one file")
    curve = output_file(args.curve) if args.curve else nullcontext()
    with output_file(args.model, binary=True) as model_out, curve as curve_out:
        punct = PunctuationRule(args.punct_labels, args.punct_pos)
        train_tb = read_conll(args.train, fmt=args.format, punct=punct)
        dev_tb = read_conll(args.dev, fmt=args.format, punct=punct) if args.dev else None
        word_vocab, pos_vocab, label_vocab, seen_pairs = build_vocabularies(
            train_tb, min_count=args.min_count)
        if not len(label_vocab):
            raise DataFormatError(f"{args.train}: no token has an arc label (column 8); "
                                  "the labeler needs labeled trees")
        cfg = _from_args(ModelConfig, args, encoder=_from_args(EncoderConfig, args))
        model = LhrModel(word_vocab, pos_vocab, label_vocab, seen_pairs, cfg, seed=args.seed)
        tcfg = _from_args(TrainConfig, args)
        log = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
        report = train(model, train_tb, tcfg, dev_tb=dev_tb, log=log)
        serialize.save_model(model, model_out)
        if args.curve:
            report.save_tsv(curve_out)
    if report.best_uas is not None:
        print(f"best dev UAS {report.best_uas:.4f} at epoch {report.best_epoch}; "
              f"saved {args.model}")
    else:
        print(f"final training loss {report.records[-1].train_loss:.4f}; "
              f"saved {args.model}")
    return 0


def cmd_parse(args) -> int:
    if not args.output and sys.stdout is None:  # started with standard output closed
        raise UsageError("no standard output; give --output FILE")
    with output_file(args.output or sys.stdout) as out:
        model = serialize.load_model(args.model)
        tb = read_conll(args.input, fmt=args.format, strict=False)
        trees = [decoder.parse(model, s, pos_correction=not args.no_pos_correction)
                 for s in tb.sentences]
        write_conll(tb, trees, out)
    return 0


def cmd_eval(args) -> int:
    punct = PunctuationRule(args.punct_labels, args.punct_pos)
    gold = read_conll(args.gold, fmt=args.format, punct=punct)
    pred = read_conll(args.pred, fmt=args.format, strict=False)
    if len(pred.sentences) != len(gold.sentences):
        raise UsageError(f"{args.pred} has {len(pred.sentences)} sentences, "
                         f"{args.gold} has {len(gold.sentences)}")
    for g, p in zip(gold.sentences, pred.sentences):
        if len(p.tokens) != len(g.tokens):
            raise InvalidInputError(f"{g.origin}: tree has {len(p.tokens)} tokens, sentence "
                                    f"has {len(g.tokens)}; the tree is {p.origin}")
    trees = [DependencyTree(  # a `_` head ends its chain as the root does
        heads=[t.gold_head for t in sent.tokens],
        labels=[t.gold_label for t in sent.tokens],
        pos=[t.gold_pos for t in sent.tokens],
        arc_scores=[0.0] * len(sent.tokens),
        needed_repair=bool(find_cycles([t.gold_head or 0 for t in sent.tokens])))
        for sent in pred.sentences]
    result = evaluate(gold, trees, skip_punct=not args.include_punct)
    print(result.summary())
    return 0


def cmd_export(args) -> int:
    with output_file(args.output, binary=args.lss_format == "binary") as out:
        model = serialize.load_model(args.model)
        tb = read_conll(args.input, fmt=args.format, strict=False)
        export_mod.export_lss(model, tb, out, fmt=args.lss_format)
    print(f"wrote {args.lss_format} latent structure for {len(tb.sentences)} "
          f"sentences to {args.output}", file=sys.stderr)
    return 0


_COMMANDS = {"train": cmd_train, "parse": cmd_parse, "eval": cmd_eval,
             "export-lss": cmd_export}


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            if args.command is None:
                parser.print_help(sys.stderr)
                return 2
            if args.config is not None:
                _apply_config(commands[args.command], read_config_file(args.config))
                args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            return int(exc.code or 0)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LatentHeadsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the allocation that failed
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # an interrupted train saves nothing
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
