"""CoNLL treebank reading/writing and vocabulary extraction.

Supports the 10-column CoNLL-U and CoNLL-X layouts (UTF-8, tab separated,
blank-line sentence boundaries). Both formats keep the coarse POS tag in
column 4 and an external tagger's tag in column 5, so tokens are handled
uniformly after parsing.
"""

from __future__ import annotations

import errno
import io
import os
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DataFormatError, InvalidInputError

FORMATS = ("conllu", "conllx")

# PTB-style punctuation POS tags; UD treebanks are covered by the `punct` label.
DEFAULT_PUNCT_POS = frozenset({"``", "''", ",", ".", ":", "PUNCT"})
DEFAULT_PUNCT_LABELS = frozenset({"punct"})

UNKNOWN = "<unk>"


@dataclass(frozen=True)
class PunctuationRule:
    """A token is punctuation iff its label or POS tag is in these sets."""

    labels: frozenset = DEFAULT_PUNCT_LABELS
    pos_tags: frozenset = DEFAULT_PUNCT_POS

    def matches(self, gold_label: str | None, gold_pos: str | None) -> bool:
        return (gold_label in self.labels) or (gold_pos in self.pos_tags)


@dataclass(slots=True)
class Token:
    index: int                      # 1-based position in the sentence
    form: str
    gold_pos: str                   # coarse tag (UPOS / CPOSTAG)
    predicted_pos: str | None       # external tagger's tag (XPOS / POSTAG), if any
    gold_head: int | None           # 0 = virtual root; None only in permissive mode
    gold_label: str | None
    is_punct: bool = False
    line: str = ""                  # the source line of a read token, for faithful writing


@dataclass
class Sentence:
    tokens: list[Token]
    comments: list[str] = field(default_factory=list)
    origin: str = field(default="", compare=False)  # "path:line" of a read sentence
    kept_lines: tuple = ()  # (word tokens before it, line) of each CoNLL-U range or empty node

    def __len__(self) -> int:
        return len(self.tokens)


class Vocabulary:
    """Ordered symbol table with an optional reserved unknown entry.

    When counts are given, symbols under `min_count` are dropped from the
    table (they map to unknown) but their counts are retained for
    frequency-based dropout.
    """

    def __init__(self, symbols: Sequence[str], counts: dict[str, int] | None = None,
                 min_count: int = 1, unknown: str | None = UNKNOWN):
        self.unknown = unknown
        self.min_count = min_count
        self.counts = dict(counts) if counts else {}
        ordered: list[str] = []
        if unknown is not None:
            ordered.append(unknown)
        for s in symbols:
            if s == unknown:
                continue
            if self.counts and self.counts.get(s, 0) < min_count:
                continue
            ordered.append(s)
        self.symbols = ordered
        self._index = {s: i for i, s in enumerate(self.symbols)}
        self.unknown_index = self._index[unknown] if unknown is not None else -1

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def index_of(self, symbol: str | None) -> int:
        """Map a symbol to its row; rare or unseen symbols go to unknown."""
        if symbol is not None and symbol in self._index:
            return self._index[symbol]
        if self.unknown is None:
            raise InvalidInputError(f"symbol {symbol!r} not in vocabulary")
        return self.unknown_index

    def strict_index(self, symbol: str) -> int | None:
        return self._index.get(symbol)

    def count(self, symbol: str) -> int:
        return self.counts.get(symbol, 0)


class Treebank:
    def __init__(self, sentences: list[Sentence]):
        self.sentences = sentences

    def __len__(self) -> int:
        return len(self.sentences)


def chain_ends(heads: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """The head graph's cycles, and where each token's head chain ends.

    Following head links from any token either reaches the root (0) or loops;
    each token has one outgoing arc, so cycles are disjoint. Cycles are 1-based
    token lists, by smallest member; ends[i] is the smallest member of the
    cycle that token i+1's chain runs into, or 0 if it reaches the root.
    """
    ends: list[int | None] = [0] + [None] * len(heads)  # -1: on the current walk
    cycles = []
    for start in range(1, len(heads) + 1):
        path, cur = [], start
        while ends[cur] is None:
            ends[cur] = -1
            path.append(cur)
            cur = heads[cur - 1]
        end = ends[cur]
        if end == -1:  # the walk came back to itself
            cycles.append(path[path.index(cur):])
            end = min(cycles[-1])
        for node in path:
            ends[node] = end
    cycles.sort(key=min)
    return cycles, ends[1:]


def find_cycles(heads: Sequence[int]) -> list[list[int]]:
    """Cycles of the head graph as 1-based token lists, by smallest member."""
    return chain_ends(heads)[0]


def tree_problem(heads: Sequence[int | None], whole: bool = True) -> str | None:
    """Why `heads` is not a dependency tree, or None if it is one.

    heads[i] governs token i+1; 0 is the virtual root. Known heads must be in
    range and no token may head itself. Unless `whole` is off (heads partly
    unknown), there must also be exactly one root token and no cycle.
    """
    n = len(heads)
    for i, h in enumerate(heads, start=1):
        if h is not None and not 0 <= h <= n:
            return f"head {h} out of range for {n} tokens"
        if h == i:
            return f"token {i} is its own head"
    if not whole:
        return None
    roots = sum(h == 0 for h in heads)
    if roots != 1:
        return f"expected exactly one root token, found {roots}"
    cycles = find_cycles(heads)
    return f"cycle through token {min(cycles[0])}" if cycles else None


def read_lines(path: str) -> list[str]:
    """A UTF-8 file's lines without line ends, split as text mode splits them.

    A leading byte-order mark is dropped. Bytes that are not UTF-8 raise
    DataFormatError naming the file and line.
    """
    with io.open(path, "rb") as f:  # the mark goes here: utf-8-sig's error offsets skip it
        raw_bytes = f.read().removeprefix(b"\xef\xbb\xbf")
    try:
        text = raw_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw_bytes.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"{path}:{line}: not valid UTF-8 ({exc.reason})") from None
    return [raw.rstrip("\n") for raw in io.StringIO(text, newline=None)]


@contextmanager
def output_file(path, binary: bool = False):
    """The one opener of outputs, and the one rule for whether and where they
    go: `path` appears whole or not at all.

    A missing directory, a write-protected file (one this user may not write,
    or one with no write bit at all, as chmod a-w leaves it) or a folder that
    cannot take the temporary raises naming `path` before anything is created.
    The temporary, beside the target (a symlink's target), gets open()'s mode
    or the replaced file's, is renamed over the target when the block ends and
    is removed on any exception. No fsync: a power loss is not covered. An open
    stream, or a path that is not a regular file (a FIFO), is written directly;
    a directory, or a name ending in a slash, which realpath would strip,
    fails there as open() fails.
    """
    mode, encoding = ("wb", None) if binary else ("w", "utf-8")
    target = None if hasattr(path, "write") else os.path.realpath(path)
    if target is None or not os.path.basename(path) or (os.path.exists(target)
                                                        and not os.path.isfile(target)):
        with nullcontext(path) if target is None else io.open(path, mode, encoding=encoding) as f:
            yield f
        return
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise OSError(f"cannot write {path}: no directory {folder}")
    folder = os.path.dirname(target)
    protected = os.path.isfile(target) and not (os.access(target, os.W_OK)
                                                and os.stat(target).st_mode & 0o222)
    if protected or os.path.isdir(folder) and not os.access(folder, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    temp = f"{target}.{os.urandom(6).hex()}.tmp"
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # umask applies
    except OSError as exc:  # name the path asked for, not the temporary
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with io.open(fd, mode, encoding=encoding) as f:
            if os.path.isfile(target):
                os.chmod(f.fileno(), os.stat(target).st_mode & 0o7777)
            yield f
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _parse_block(lines: list[tuple[int, str]], comments: list[str], fmt: str,
                 path: str, strict: bool, punct: PunctuationRule) -> Sentence:
    tokens: list[Token] = []
    kept: list[tuple[int, str]] = []
    for lineno, line in lines:
        cols = line.split("\t")
        if len(cols) != 10:
            raise DataFormatError(f"{path}:{lineno}: expected 10 tab-separated columns, got {len(cols)}")
        if "" in cols:  # CoNLL writes an unspecified value as "_"
            raise DataFormatError(f"{path}:{lineno}: column {cols.index('') + 1} is empty")
        tid = cols[0]
        if fmt == "conllu" and ("-" in tid or "." in tid):
            kept.append((len(tokens), line))  # no tree structure, but written back in place
            continue
        try:
            index = int(tid)
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: bad token id {tid!r}") from None
        head_col = cols[6]
        if head_col == "_":
            if strict:
                raise DataFormatError(f"{path}:{lineno}: missing head in strict mode")
            head: int | None = None
        else:
            try:
                head = int(head_col)
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: bad head {head_col!r}") from None
        # each distinct tag is one object, however many tokens carry it
        label = sys.intern(cols[7]) if cols[7] != "_" else None
        predicted = sys.intern(cols[4]) if cols[4] != "_" else None
        gold_pos = sys.intern(cols[3])
        tokens.append(Token(
            index=index,
            form=cols[1],
            gold_pos=gold_pos,
            predicted_pos=predicted,
            gold_head=head,
            gold_label=label,
            is_punct=punct.matches(label, gold_pos),
            line=line,
        ))
    where = f"{path}: sentence ending at line {lines[-1][0]}"
    if not tokens:
        raise DataFormatError(f"{where}: no word lines, only multiword ranges or empty nodes")
    for pos_i, tok in enumerate(tokens, start=1):
        if tok.index != pos_i:
            raise DataFormatError(f"{where}: token ids not contiguous (saw {tok.index}, expected {pos_i})")
    problem = tree_problem([tok.gold_head for tok in tokens], whole=strict)
    if problem is not None:
        raise DataFormatError(f"{where}: {problem}")
    return Sentence(tokens=tokens, comments=comments, origin=f"{path}:{lines[0][0]}",
                    kept_lines=tuple(kept))


def read_conll(path: str, fmt: str = "conllu", strict: bool = True,
               punct: PunctuationRule = PunctuationRule()) -> Treebank:
    """Read a treebank; `strict` additionally checks single-rooted acyclicity."""
    if fmt not in FORMATS:
        raise InvalidInputError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    sentences: list[Sentence] = []
    block: list[tuple[int, str]] = []
    comments: list[str] = []
    # a blank line after the last one closes the final block
    for lineno, line in enumerate(read_lines(path) + [""], start=1):
        if not line:
            if block:
                sentences.append(_parse_block(block, comments, fmt, path, strict, punct))
                block, comments = [], []
            continue
        if line.startswith("#"):
            comments.append(line)
            continue
        block.append((lineno, line))
    return Treebank(sentences)


def _token_line(tok: Token, head: int | None, label: str | None, pos: str | None) -> str:
    cols = tok.line.split("\t") if tok.line else [
        str(tok.index), tok.form, "_", tok.gold_pos,
        tok.predicted_pos or "_", "_",
        "_" if tok.gold_head is None else str(tok.gold_head),
        tok.gold_label or "_", "_", "_",
    ]
    if pos is not None:
        cols[3] = pos
    if head is not None:
        cols[6] = str(head)
    if label is not None:
        cols[7] = label
    return "\t".join(cols)


def write_conll(tb: Treebank, trees, path) -> None:
    """Write the treebank, substituting predicted head/label/POS when given.

    `trees` is a list aligned 1:1 with tb.sentences (each entry exposing
    `heads`, `labels` and `pos` arrays), or None for a faithful copy. A read
    sentence's multiword ranges and empty nodes are written back verbatim.
    `path` may also be an open text stream.
    """
    if trees is not None and len(trees) != len(tb.sentences):
        raise InvalidInputError(f"{len(trees)} trees for {len(tb.sentences)} sentences")
    with output_file(path) as f:
        for si, sent in enumerate(tb.sentences):
            tree = trees[si] if trees is not None else None
            n = len(sent.tokens)
            columns = [[None] * n] * 3 if tree is None else [tree.heads, tree.labels, tree.pos]
            if any(len(column) != n for column in columns):
                raise InvalidInputError(f"sentence {si}: {len(tree.heads)} heads, {len(tree.labels)} "
                                        f"labels and {len(tree.pos)} POS tags for {n} tokens")
            lines = list(map(_token_line, sent.tokens, *columns))
            for before, line in reversed(sent.kept_lines):
                lines.insert(before, line)
            f.write("\n".join([*sent.comments, *lines, ""]) + "\n")


def build_vocabularies(tb: Treebank, min_count: int = 1):
    """Vocabularies for training: words (lowercased), POS tags, labels, seen pairs.

    The word vocabulary reserves an unknown symbol and keeps corpus counts for
    frequency-based dropout; words under `min_count` fall back to unknown at
    lookup time. The POS vocabulary covers gold and externally predicted tags.
    """
    word_counts = Counter()
    pos_tags = set()
    labels = set()
    pairs = set()
    for sent in tb.sentences:
        for tok in sent.tokens:
            word_counts[tok.form.lower()] += 1
            pos_tags.add(tok.gold_pos)
            if tok.predicted_pos is not None:
                pos_tags.add(tok.predicted_pos)
            if tok.gold_label is not None:
                labels.add(tok.gold_label)
                pairs.add((tok.gold_label, tok.gold_pos))
    word_vocab = Vocabulary(sorted(word_counts), counts=dict(word_counts),
                            min_count=min_count, unknown=UNKNOWN)
    pos_vocab = Vocabulary(sorted(pos_tags), unknown=UNKNOWN)
    label_vocab = Vocabulary(sorted(labels), unknown=None)
    return word_vocab, pos_vocab, label_vocab, sorted(pairs)
