"""Seeded synthetic treebank for the benchmark.

The same seed always gives the same bytes. Sentence lengths come from a fixed
table of sixteen lengths (5 to 60 tokens, mean about 20.6), shuffled within
each block of sixteen sentences. Every block therefore has the same length mix,
which keeps per-block throughput comparable across seeds while words, tags and
trees change with the seed. Trees are mostly projective; a seeded share of
sentences gets one re-attached arc, which may cross others.

The train file holds every type of a fixed lexicon, so the word vocabulary,
and with it the embedding table Adam updates, has the same size for every
seed. The test file draws some words from outside that lexicon, so parsing
meets unknown words.
"""

from __future__ import annotations

import os
import random
import statistics

LENGTHS = (5, 6, 8, 9, 10, 12, 13, 15, 17, 19, 22, 25, 29, 35, 44, 60)
BLOCK = len(LENGTHS)
# Whole blocks, so that each file has exactly the length mix of the table.
TRAIN_SENTENCES = 25 * BLOCK
TEST_SENTENCES = 16 * BLOCK
TRAIN_TYPES = 1500
OOV_TYPES = 600
OOV_RATE = 0.08
NONPROJECTIVE_SENTENCE_RATE = 0.25
TAG_NOISE = 0.03

POS_TAGS = ("NOUN", "VERB", "ADJ", "ADV", "DET", "ADP", "PRON", "PROPN",
            "NUM", "AUX", "CCONJ", "PART")
POS_WEIGHTS = (30, 18, 10, 6, 9, 9, 5, 5, 2, 3, 2, 1)
LABELS = ("nsubj", "obj", "iobj", "obl", "amod", "advmod", "det", "case",
          "nmod", "conj", "cc", "aux", "nummod", "mark", "dep")
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"] + ["an", "el", "or", "us"]


def _lexicon(rng: random.Random, size: int, taken: set[str]) -> list[tuple[str, str]]:
    """`size` distinct (form, POS) entries whose forms are not in `taken`."""
    out = []
    while len(out) < size:
        form = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 4)))
        if form in taken:
            continue
        taken.add(form)
        out.append((form, rng.choices(POS_TAGS, POS_WEIGHTS)[0]))
    return out


def _attach(rng: random.Random, heads: list[int], lo: int, hi: int, head: int) -> None:
    """Projectively attach the 1-based positions lo..hi, all on one side of `head`."""
    if lo > hi:
        return
    child = rng.randint(lo, hi)
    heads[child - 1] = head
    # The two sub-spans hang from the new child or stay with the head;
    # either choice keeps every arc nested, so the tree stays projective.
    _attach(rng, heads, lo, child - 1, child if rng.random() < 0.6 else head)
    _attach(rng, heads, child + 1, hi, child if rng.random() < 0.6 else head)


def _descendants(heads: list[int], node: int) -> set[int]:
    out = {node}
    changed = True
    while changed:
        changed = False
        for i, h in enumerate(heads, start=1):
            if h in out and i not in out:
                out.add(i)
                changed = True
    return out


def random_tree(rng: random.Random, n: int) -> list[int]:
    """Single-rooted acyclic heads (1-based, 0 = root), mostly projective."""
    heads = [0] * n
    root = rng.randint(1, n)
    _attach(rng, heads, 1, root - 1, root)
    _attach(rng, heads, root + 1, n, root)
    if n > 3 and rng.random() < NONPROJECTIVE_SENTENCE_RATE:
        dep = rng.choice([i for i in range(1, n + 1) if i != root])
        allowed = [j for j in range(1, n + 1) if j not in _descendants(heads, dep)]
        heads[dep - 1] = rng.choice(allowed)
    return heads


def nonprojective_arcs(heads: list[int]) -> int:
    """Arcs that cross another arc (the root arc counts as spanning from 0)."""
    arcs = [(min(d, h), max(d, h)) for d, h in enumerate(heads, start=1)]
    crossing = 0
    for a, b in arcs:
        if any(a < c < b < d or c < a < d < b for c, d in arcs):
            crossing += 1
    return crossing


def _sentences(rng: random.Random, n_sentences: int, words: list[tuple[str, str]],
               oov_words: list[tuple[str, str]], oov_rate: float):
    """Yield sentences as lists of (form, pos, xpos, head, label) rows."""
    ranks = list(range(1, len(words) + 1))
    zipf = [1.0 / r for r in ranks]
    lengths: list[int] = []
    while len(lengths) < n_sentences:
        block = list(LENGTHS)
        rng.shuffle(block)
        lengths.extend(block)
    for n in lengths[:n_sentences]:
        heads = random_tree(rng, n)
        picked = rng.choices(words, zipf, k=n)
        rows = []
        for i in range(n):
            form, pos = picked[i]
            if oov_words and rng.random() < oov_rate:
                form, pos = rng.choice(oov_words)
            xpos = rng.choice(POS_TAGS) if rng.random() < TAG_NOISE else pos
            label = "root" if heads[i] == 0 else LABELS[
                (POS_TAGS.index(pos) * 7 + (heads[i] > i + 1) * 3) % len(LABELS)]
            rows.append([form, pos, xpos, heads[i], label])
        yield rows


def _cover_lexicon(rng: random.Random, sentences: list[list[list]],
                   words: list[tuple[str, str]]) -> None:
    """Overwrite repeated tokens so that every lexicon entry occurs at least once."""
    counts: dict[str, int] = {}
    for sent in sentences:
        for row in sent:
            counts[row[0]] = counts.get(row[0], 0) + 1
    missing = [w for w in words if w[0] not in counts]
    slots = [(s, t) for s, sent in enumerate(sentences) for t in range(len(sent))]
    rng.shuffle(slots)
    for form, pos in missing:
        while True:
            s, t = slots.pop()
            row = sentences[s][t]
            if counts[row[0]] > 1:
                break
        counts[row[0]] -= 1
        counts[form] = 1
        row[0], row[1], row[2] = form, pos, pos


def _write(path: str, sentences: list[list[list]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for k, sent in enumerate(sentences):
            fh.write(f"# sent_id = {k}\n")
            for i, (form, pos, xpos, head, label) in enumerate(sent, start=1):
                fh.write(f"{i}\t{form}\t_\t{pos}\t{xpos}\t_\t{head}\t{label}\t_\t_\n")
            fh.write("\n")


def _quantiles(values: list[int]) -> dict[str, float]:
    q = statistics.quantiles(values, n=10, method="inclusive")
    return {"min": min(values), "p10": q[0], "p50": q[4], "p90": q[8], "max": max(values)}


def write_corpus(out_dir: str, seed: int) -> dict:
    """Write train.conllu and test.conllu under `out_dir`; return their statistics."""
    rng = random.Random(seed)
    taken: set[str] = set()
    words = _lexicon(rng, TRAIN_TYPES, taken)
    oov_words = _lexicon(rng, OOV_TYPES, taken)
    train = list(_sentences(rng, TRAIN_SENTENCES, words, [], 0.0))
    _cover_lexicon(rng, train, words)
    test = list(_sentences(rng, TEST_SENTENCES, words, oov_words, OOV_RATE))
    os.makedirs(out_dir, exist_ok=True)
    _write(os.path.join(out_dir, "train.conllu"), train)
    _write(os.path.join(out_dir, "test.conllu"), test)

    train_forms = {row[0] for sent in train for row in sent}
    test_tokens = [row for sent in test for row in sent]
    all_sents = train + test
    arcs = sum(len(s) for s in all_sents)
    crossing = sum(nonprojective_arcs([row[3] for row in s]) for s in all_sents)
    return {
        "seed": seed,
        "train_sentences": len(train),
        "test_sentences": len(test),
        "train_word_types": len(train_forms),
        "train_tokens": sum(len(s) for s in train),
        "test_tokens": len(test_tokens),
        "length_quantiles": _quantiles([len(s) for s in all_sents]),
        "test_oov_share": sum(row[0] not in train_forms for row in test_tokens) / len(test_tokens),
        "nonprojective_arc_share": crossing / arcs,
    }
