"""Acceptance gate: the guarantees this package commits to, checked end to end.

Every test prints one "[acceptance] <name>: PASS/FAIL" line with the measured
numbers and the stated tolerance, so a full run reads as a checklist. Time
budgets are asserted where a check could silently grow expensive.
"""

from __future__ import annotations

import hashlib
import os
import time

import networkx as nx
import numpy as np
import pytest

from latentheads import conll, decoder, serialize, trainer
from latentheads.conll import Sentence, Token, Treebank
from latentheads.decoder import ScoreMatrix, assign_heads, repair_cycles, select_root
from latentheads.evaluation import evaluate
from latentheads.trainer import TrainConfig, train

from lhr_testutil import (POS_POOL, WORD_POOL, fd_gradient, fixture_path,
                      make_sentence, make_treebank, max_relative_error,
                      tiny_model)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# benchmark-scale statement


def test_benchmark_scale_statement():
    """The published large-treebank scores are documented as out of reach here.

    Matching UAS 92.8 / LAS 90.4 on the Penn Treebank needs the licensed
    corpus, pretrained embeddings, and multi-hour training runs; none of that
    fits a test suite. The README must say so explicitly and point at the
    property-based checks and the small-corpus overfit gate that stand in.
    """
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        readme = fh.read()
    needed = ["92.8", "90.4", "Penn Treebank", "not reproducible"]
    missing = [s for s in needed if s not in readme]
    report("benchmark-scale statement", not missing,
           "README documents the large-corpus scores as out of scope"
           if not missing else f"README lacks {missing}")


# ---------------------------------------------------------------------------
# gradient oracle


def test_gradient_oracle():
    """Analytic gradients match central finite differences on the full model.

    Five random sentences of length at most 5, context vectors reduced to
    size 8. Every parameter entry must agree with the symmetric difference
    quotient (eps 1e-5) within relative error 1e-4. The detached
    reconstruction targets are frozen at the unperturbed weights while
    differencing, because that is the function the backward pass computes.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    sentences = [make_sentence(int(rng.integers(1, 6)), rng) for _ in range(5)]
    tb = Treebank(sentences)
    model = tiny_model(tb, seed=0)  # context_hidden 4, so |c| = 8
    assert model.config.context_size == 8
    cfg = TrainConfig()
    frozen = [trainer.capture_targets(model, s, model.encode_sentence(s), cfg)
              for s in sentences]

    def total_loss() -> float:
        acc = 0.0
        for s, hold in zip(sentences, frozen):
            t, _ = trainer.sentence_loss(model, s, cfg, target_overrides=hold)
            acc += float(t.data)
        return acc

    for _, p in model.named_parameters():
        p.grad[...] = 0.0
    for s in sentences:
        total, _ = trainer.sentence_loss(model, s, cfg)
        total.backward()

    worst = 0.0
    worst_name = "none"
    checked = 0
    for name, p in model.named_parameters():
        fd = fd_gradient(total_loss, p)
        err = max_relative_error(p.grad, fd)
        checked += p.data.size
        if err > worst:
            worst, worst_name = err, name
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 120.0
    report("gradient oracle", ok,
           f"{checked} parameter entries, max relative error {worst:.2e} "
           f"(at {worst_name}) within 1e-4; {elapsed:.1f}s under 120s")


# ---------------------------------------------------------------------------
# overfit capacity


def test_overfit_capacity(toy_train):
    """100 epochs on the fixed 50-sentence corpus must be memorized.

    Dimensions 32/8/32, full decode path (root choice, greedy heads, repair,
    labeling), punctuation excluded: UAS at least 0.99, LAS at least 0.95,
    inside ten minutes.
    """
    t0 = time.perf_counter()
    model = tiny_model(toy_train, seed=0, word_dim=32, pos_dim=8,
                       context_hidden=32, heads_hidden=32, labeler_hidden=32)
    train(model, toy_train, TrainConfig(epochs=100, seed=0))
    trees = [decoder.parse(model, s) for s in toy_train.sentences]
    res = evaluate(toy_train, trees)
    elapsed = time.perf_counter() - t0
    ok = (len(toy_train.sentences) == 50 and res.uas >= 0.99
          and res.las >= 0.95 and elapsed < 600.0)
    report("overfit capacity", ok,
           f"train-set UAS {res.uas:.4f} (floor 0.99), LAS {res.las:.4f} "
           f"(floor 0.95) on 50 sentences; {elapsed:.0f}s under 600s")


# ---------------------------------------------------------------------------
# tree wellformedness


def test_tree_wellformedness():
    """1000 decodes from random models and sentences all come out as trees.

    Lengths span 1 to 40, forms mix known and unknown words, tags include
    unseen ones. Every output must be single-rooted and acyclic, and repair
    must terminate; the one-minute budget would catch a hung repair loop.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    models = [tiny_model(make_treebank(6, rng), seed=k) for k in range(10)]
    failures: list[str] = []
    lengths = []
    trials = 0
    for model in models:
        for _ in range(100):
            if trials == 0:
                n = 1
            elif trials == 1:
                n = 40
            else:
                n = int(rng.integers(1, 41))
            lengths.append(n)
            tokens = []
            for i in range(n):
                if rng.random() < 0.3:
                    form = f"oov{int(rng.integers(1000))}"
                else:
                    form = WORD_POOL[int(rng.integers(len(WORD_POOL)))]
                pos = (POS_POOL[int(rng.integers(len(POS_POOL)))]
                       if rng.random() < 0.9 else "XTAG")
                tokens.append(Token(index=i + 1, form=form, gold_pos=pos,
                                    predicted_pos=pos, gold_head=None,
                                    gold_label=None))
            trials += 1
            try:
                tree = decoder.parse(model, Sentence(tokens=tokens))
                tree.validate()
                if len(tree) != n:
                    raise ValueError(f"{len(tree)} heads for {n} tokens")
            except Exception as exc:  # collected for the report line
                if len(failures) < 3:
                    failures.append(f"trial {trials}: {exc}")
    elapsed = time.perf_counter() - t0
    ok = not failures and trials == 1000 and elapsed < 60.0
    report("tree wellformedness", ok,
           f"{trials} decodes, lengths {min(lengths)}..{max(lengths)}, all "
           f"single-rooted acyclic; {elapsed:.1f}s under 60s"
           if ok else f"failures: {failures}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# cycle repair against an independent graph-library reference


def oracle_repair(heads: list[int], arc_scores: list[float],
                  scores: ScoreMatrix) -> list[int]:
    """Reference repair built on networkx cycle enumeration.

    Same documented policy as the production code (cycle containing the
    smallest token first; drop its lowest-score arc, ties to the lowest
    dependent; reattach to the best candidate that does not put the dependent
    back on a cycle; root token as last resort) but none of the same
    machinery: cycles come from simple_cycles over an explicit digraph
    instead of the walk-based detector and ancestor check.
    """
    heads = list(heads)
    arc_scores = list(arc_scores)
    n = len(heads)

    def digraph(hs: list[int]) -> nx.DiGraph:
        g = nx.DiGraph()
        g.add_nodes_from(range(1, n + 1))
        for dep, head in enumerate(hs, start=1):
            if head != 0:
                g.add_edge(head, dep)
        return g

    while True:
        cycles = list(nx.simple_cycles(digraph(heads)))
        if not cycles:
            return heads
        cycle = min(cycles, key=min)
        dep = min(cycle, key=lambda d: (arc_scores[d - 1], d))
        row = scores.sim[dep - 1]
        chosen = None
        for j in sorted((j for j in range(1, n + 1) if j != dep),
                        key=lambda j: (-row[j - 1], j)):
            trial = list(heads)
            trial[dep - 1] = j
            if not any(dep in c for c in nx.simple_cycles(digraph(trial))):
                chosen = j
                break
        if chosen is None:
            chosen = heads.index(0) + 1
        heads[dep - 1] = chosen
        arc_scores[dep - 1] = float(row[chosen - 1])


def test_cycle_repair_oracle():
    """200 seeded score matrices repair identically to the reference."""
    mismatches = []
    repaired = 0
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        n = seed % 5 + 1
        scores = ScoreMatrix(sim=rng.uniform(-1.0, 1.0, size=(n, n)),
                             root_sim=rng.uniform(-1.0, 1.0, size=n))
        tree = assign_heads(scores, select_root(scores))
        fixed = repair_cycles(tree, scores)
        fixed.validate()
        assert nx.is_directed_acyclic_graph(
            nx.DiGraph((h, d) for d, h in enumerate(fixed.heads, start=1) if h != 0))
        expected = oracle_repair(tree.heads, tree.arc_scores, scores)
        if fixed.heads != expected:
            mismatches.append((seed, fixed.heads, expected))
        if fixed.needed_repair:
            repaired += 1
    ok = not mismatches
    report("cycle-repair oracle", ok,
           f"200 matrices (n 1..5, {repaired} needed repair) match the "
           f"networkx reference exactly"
           if ok else f"first mismatch {mismatches[0]}")


# ---------------------------------------------------------------------------
# multi-task direction and punctuation handling (shared training runs)


@pytest.fixture(scope="module")
def directional_runs(toy_train, toy_dev):
    """Three best-dev-restored runs differing in one switch each."""
    dims = dict(word_dim=32, pos_dim=8, context_hidden=32, heads_hidden=32,
                labeler_hidden=32)
    out = {}
    for key, extra in (("with", {}),
                       ("without", {"use_labeler": False}),
                       ("skip", {"skip_punct_heads": True})):
        model = tiny_model(toy_train, seed=0, **dims)
        train(model, toy_train, TrainConfig(epochs=30, seed=0, **extra),
              dev_tb=toy_dev)
        trees = [decoder.parse(model, s) for s in toy_dev.sentences]
        out[key] = evaluate(toy_dev, trees).uas
    return out


def test_multitask_improvement_direction(directional_runs):
    """Adding the arc-label/POS objective must not cost held-out attachment."""
    with_uas = directional_runs["with"]
    without_uas = directional_runs["without"]
    ok = with_uas >= without_uas
    report("multi-task direction", ok,
           f"dev UAS with labeler {with_uas:.4f} >= without {without_uas:.4f}")


def test_punct_skip_non_regression(directional_runs):
    """Dropping punctuation from the reconstruction loss moves little.

    Punctuation-excluded dev UAS may shift by less than 2 absolute points.
    """
    delta = abs(directional_runs["with"] - directional_runs["skip"])
    report("punctuation-skip non-regression", delta < 0.02,
           f"dev UAS moves {delta:.4f} absolute, budget 0.02")


# ---------------------------------------------------------------------------
# non-projectivity


def has_crossing(heads: list[int]) -> bool:
    arcs = [(min(d, h), max(d, h)) for d, h in enumerate(heads, start=1) if h != 0]
    for a in range(len(arcs)):
        for b in range(a + 1, len(arcs)):
            (l1, r1), (l2, r2) = arcs[a], arcs[b]
            if l1 < l2 < r1 < r2 or l2 < l1 < r2 < r1:
                return True
    return False


def test_nonprojective_witness():
    """A score matrix built to demand crossing arcs decodes without fuss.

    Token 3 is the root, tokens 1 and 4 attach to it, token 2 attaches to
    token 4: the arcs 1<-3 and 2<-4 cross. Nothing in decoding assumes
    projectivity, so the output is exactly that tree and needs no repair.
    """
    sim = np.full((4, 4), -0.5)
    sim[0][2] = 0.9
    sim[1][3] = 0.9
    sim[3][2] = 0.9
    scores = ScoreMatrix(sim=sim, root_sim=np.array([0.1, 0.1, 0.9, 0.1]))
    tree = repair_cycles(assign_heads(scores, select_root(scores)), scores)
    tree.validate()
    ok = (tree.heads == [3, 4, 0, 3] and has_crossing(tree.heads)
          and tree.needed_repair is False)
    report("non-projective decode", ok,
           f"heads {tree.heads} contain crossing arcs and validate cleanly")


# ---------------------------------------------------------------------------
# format fidelity and determinism


def test_format_round_trips(tmp_path):
    """read -> write -> read preserves every field in both column formats."""
    mismatched = []
    for name, fmt in (("toy_train.conllu", "conllu"),
                      ("toy_sample.conllx", "conllx")):
        tb1 = conll.read_conll(fixture_path(name), fmt=fmt)
        out = tmp_path / name
        conll.write_conll(tb1, None, str(out))
        tb2 = conll.read_conll(str(out), fmt=fmt)
        same = len(tb1.sentences) == len(tb2.sentences) and all(
            s1.tokens == s2.tokens and s1.comments == s2.comments
            for s1, s2 in zip(tb1.sentences, tb2.sentences))
        if not same:
            mismatched.append(name)
    report("format round-trip", not mismatched,
           "conllu and conllx survive read-write-read field for field"
           if not mismatched else f"round-trip changed {mismatched}")


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_seeded_rerun_determinism(toy_dev, tmp_path):
    """Training and parsing twice with one seed produce identical bytes."""
    digests = []
    for tag in ("a", "b"):
        model = tiny_model(toy_dev, seed=9, word_dim=8, pos_dim=4,
                           context_hidden=6, heads_hidden=6, labeler_hidden=6)
        train(model, toy_dev, TrainConfig(epochs=3, seed=9))
        ckpt = tmp_path / f"model_{tag}.npz"
        serialize.save_model(model, str(ckpt))
        parsed = tmp_path / f"parsed_{tag}.conllu"
        trees = [decoder.parse(model, s) for s in toy_dev.sentences]
        conll.write_conll(toy_dev, trees, str(parsed))
        digests.append((sha256(str(ckpt)), sha256(str(parsed))))
    ok = digests[0] == digests[1]
    report("seeded re-run determinism", ok,
           "checkpoint and parse output bytes identical across runs"
           if ok else f"digests differ: {digests}")
