"""Tests of the benchmark's own code: generator, self-time arithmetic, tracer.

    python3 -m pytest bench/tests -q
"""

import itertools
import json
import os
import random

import pytest

import run
import tracing
import treebank
import workloads
from tracing import Span


def _corpus_bytes(tmp_path, seed: int) -> tuple[bytes, bytes, dict]:
    out = tmp_path / f"s{seed}"
    stats = treebank.write_corpus(str(out), seed)
    return (out / "train.conllu").read_bytes(), (out / "test.conllu").read_bytes(), stats


def test_generator_same_seed_same_bytes(tmp_path):
    first = _corpus_bytes(tmp_path / "a", 7)
    second = _corpus_bytes(tmp_path / "b", 7)
    assert first == second


def test_generator_different_seed_different_bytes(tmp_path):
    train_a, test_a, _ = _corpus_bytes(tmp_path, 7)
    train_b, test_b, _ = _corpus_bytes(tmp_path, 8)
    assert train_a != train_b
    assert test_a != test_b


def test_generator_fixed_vocabulary_and_length_mix(tmp_path):
    _, _, stats = _corpus_bytes(tmp_path, 3)
    assert stats["train_word_types"] == treebank.TRAIN_TYPES
    assert stats["train_sentences"] == treebank.TRAIN_SENTENCES
    assert stats["test_sentences"] == treebank.TEST_SENTENCES
    assert stats["train_tokens"] == stats["train_sentences"] // treebank.BLOCK * sum(treebank.LENGTHS)
    assert stats["length_quantiles"]["min"] == min(treebank.LENGTHS)
    assert stats["length_quantiles"]["max"] == max(treebank.LENGTHS)
    assert 0 < stats["test_oov_share"] < 0.2


def test_random_trees_are_single_rooted_and_acyclic():
    rng = random.Random(0)
    for n in range(1, 40):
        heads = treebank.random_tree(rng, n)
        assert heads.count(0) == 1
        for start in range(1, n + 1):
            seen, cur = set(), start
            while cur:
                assert cur not in seen
                seen.add(cur)
                cur = heads[cur - 1]


def test_nonprojective_arcs_counts_crossings():
    assert treebank.nonprojective_arcs([2, 0, 2]) == 0
    # 2 -> 4 crosses both 1 -> 3 and the root arc 0 -> 3
    assert treebank.nonprojective_arcs([3, 4, 0, 3]) == 3


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert tracing.covered([(-1, 2), (9, 12)], 0, 10) == 3
    assert tracing.covered([], 0, 10) == 0


def test_self_times_on_hand_built_tree():
    spans = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 2.0, 3.0, 1, 0),
        Span("c", 5.0, 9.0, 0, 0),
        Span("d", 6.0, 7.0, 3, 0),
        Span("d", 7.5, 8.0, 3, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 2.5, 1.0, 0.5]
    by_name = tracing.self_time_by_name(spans)
    assert by_name == {"op": 3.0, "a": 2.0, "b": 1.0, "c": 2.5, "d": 1.5}
    assert sum(by_name.values()) == spans[0].end - spans[0].start


def test_tracer_records_nesting_with_op_ids():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("ignored"):
        pass
    with tracer.op_span(5):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("op", -1, 5), ("outer", 0, 5), ("inner", 1, 5)]
    assert tracer.op is None


def test_tok_s_is_the_median_block_rate():
    log = run.OpLog()
    for seconds_per_token in (0.01, 0.01, 0.05):  # the last block ran five times slower
        for _ in range(run.BLOCK):
            log.toks.append(10)
            log.lat.append(10 * seconds_per_token)
            log.ok.append(True)
    log.ok[0] = False  # a failed op counts neither its tokens nor its time
    log.lat[0] = 100.0
    for _ in range(3):  # ops of a partial block are left out
        log.toks.append(10)
        log.lat.append(1.0)
        log.ok.append(True)
    assert log.tok_s() == pytest.approx(100.0)


@pytest.fixture
def tiny_workload(tmp_path):
    wl = workloads.ParseTiny(str(tmp_path), seed=1)
    wl.prepare()
    wl.setup()
    yield wl
    wl.out.close()


def test_traced_run_restores_every_original(tiny_workload):
    originals = [vars(owner)[attr] for owner, attr, _, _ in workloads.TRACE_TARGETS]
    tracer = tracing.Tracer()
    plain, traced = run.paired_loop(tiny_workload, 0.0, tracer)
    assert len(plain.lat) == len(traced.lat) == run.BLOCK
    assert plain.failed == traced.failed == 0
    names = {s.name for s in tracer.spans}
    assert {"op", "model.encode", "nn.bilstm", "decoder.repair", "conll.write"} <= names
    assert tracer.counts["parsed"] == run.BLOCK
    for (owner, attr, _, _), original in zip(workloads.TRACE_TARGETS, originals):
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} still wrapped"


def test_traced_self_times_add_up_to_op_time(tiny_workload):
    tracer = tracing.Tracer()
    plain, traced = run.paired_loop(tiny_workload, 0.0, tracer)
    metrics, check = run.per_layer(tracer, plain, traced)
    assert check["unaccounted_s"] == pytest.approx(0.0, abs=1e-9)
    assert check["op_s"] == pytest.approx(sum(traced.lat), rel=0.05)
    assert metrics["trace.overhead"][0] > 0


def _declared(kind: str) -> dict[str, str]:
    with open(os.path.join(os.path.dirname(run.BENCH_DIR), "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_printed_metrics_match_the_declared_ones(tiny_workload):
    log = run.timed_loop(tiny_workload, 0.0, 3)
    assert len(log.lat) == run.BLOCK  # the loop ends on a whole block
    printed = run.end_to_end(log, [0.5, 0.6, 0.7], 100.0, 2.0)
    assert {name: unit for name, (_, unit) in printed.items()} == _declared("end_to_end")
    assert all(value > 0 for value, _ in printed.values())
    tracer = tracing.Tracer()
    plain, traced = run.paired_loop(tiny_workload, 0.0, tracer)
    printed, _ = run.per_layer(tracer, plain, traced)
    assert {name: unit for name, (_, unit) in printed.items()} == _declared("per_layer")
