"""Benchmark of the latentheads parser on a seeded synthetic treebank.

    python3 bench/run.py --workload parse-paper --seed 1 --seconds 30 --trace 0

Run from the repository root. One process, one thread, a closed loop of one
sentence per op. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the line before it holds the
machine notes, the corpus statistics, sample counts and output digests.

With `--trace 0` the metrics are the end-to-end ones: `tok_s` is the median
over blocks of sixteen sentences of tokens over op time, `op_ms_p50` and
`op_ms_p90` are per-op latencies, `setup_s` is the median of several fresh
interpreters each timed from launch to the point where the first op would
start, `peak_rss_mb` is this process's peak resident memory, and `loss` is a
quality guard over a fixed set of sentences.

With `--trace 1` each block of sixteen sentences runs once untraced and then
once traced. The metrics are per-layer self times per token, exact counts,
and `trace.overhead`, the median over blocks of traced over untraced time.
Spans are written to bench/out/trace-<workload>-<seed>.jsonl.
"""

import os

# BLAS must see these before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 5


def _use_checkout_package():
    """Put this checkout's src/ first on the path, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "latentheads", "__init__.py")):
        print(f"error: no latentheads package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, BENCH_DIR]


_use_checkout_package()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import treebank  # noqa: E402
import workloads  # noqa: E402

clock = time.perf_counter
BLOCK = treebank.BLOCK  # ops per traced/untraced pair: one length block of the corpus


class OpLog:
    """Latency, tokens and outcome of each op run through `run`."""

    def __init__(self):
        self.lat: list[float] = []
        self.toks: list[int] = []
        self.ok: list[bool] = []

    def run(self, wl, k: int, i: int, tracer=None) -> None:
        """Time op `k` on sentence `i`, then check its output untimed.

        Every failure is counted and the loop goes on.
        """
        t0 = clock()
        t1 = None
        try:
            if tracer is None:
                out = wl.run_op(i)
            else:
                with tracer.op_span(k):
                    out = wl.run_op(i)
            t1 = clock()
            wl.check_op(k, i, out)
            good = True
        except Exception:
            traceback.print_exc(file=sys.stderr)
            t1 = t1 or clock()
            good = False
        self.lat.append(t1 - t0)
        self.toks.append(len(wl.sentences[i]))
        self.ok.append(good)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    @property
    def tokens(self) -> int:
        return sum(self.toks)

    def tok_s(self) -> float:
        """Median over whole blocks of BLOCK ops of the block's throughput.

        Every block holds the corpus's full length mix, so the blocks are
        comparable, and the median keeps a few seconds of a slowed-down
        machine from moving the result the way a run-wide total would.
        Only successful ops count.
        """
        rates = []
        for b in range(0, len(self.lat) - BLOCK + 1, BLOCK):
            good = [(n, t) for n, t, g in zip(self.toks[b:b + BLOCK], self.lat[b:b + BLOCK],
                                              self.ok[b:b + BLOCK]) if g]
            if good:
                rates.append(sum(n for n, _ in good) / sum(t for _, t in good))
        return statistics.median(rates) if rates else 0.0

    def good_latencies(self) -> list[float]:
        return [t for t, g in zip(self.lat, self.ok) if g]


def timed_loop(wl, seconds: float, min_ops: int) -> OpLog:
    """Run ops over the sentences in order until `seconds` and `min_ops` ops have passed.

    The loop stops only at the end of a block of BLOCK sentences, so every
    run has the same mix of sentence lengths and its latency quantiles do not
    depend on which lengths a last, partial block happened to hold.
    """
    log = OpLog()
    n = len(wl.sentences)
    deadline = clock() + seconds
    k = 0
    while k < min_ops or k % BLOCK or clock() < deadline:
        log.run(wl, k, k % n)
        k += 1
    return log


def paired_loop(wl, seconds: float, tracer) -> tuple[OpLog, OpLog]:
    """Run each block of BLOCK sentences untraced, then again traced.

    Pairing the same sentences back to back keeps slow drifts of CPU speed
    out of the tracing overhead.
    """
    plain, traced = OpLog(), OpLog()
    n = len(wl.sentences)
    deadline = clock() + seconds
    k = start = 0
    while clock() < deadline or k == 0:
        block = [(start + j) % n for j in range(BLOCK)]
        start += BLOCK
        for i in block:
            plain.run(wl, k, i)
            k += 1
        tracer.install(workloads.TRACE_TARGETS)
        try:
            for i in block:
                traced.run(wl, k, i, tracer)
                k += 1
        finally:
            tracer.restore()
    return plain, traced


def setup_probe_times(args, rundir: str) -> list[float]:
    """Launch-to-ready seconds of fresh interpreters that each run the workload's set-up."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", rundir]
    for _ in range(SETUP_PROBES):
        t0 = clock()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = clock()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(t1 - t0)
    return times


def machine_notes() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # an exported checkout has no history
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "src_lines": src_lines,
    }


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:  # nearly every op failed; the run is reported as incorrect
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(log: OpLog, setup_times: list[float], rss_mb: float, loss: float) -> dict:
    ms = [t * 1e3 for t in log.good_latencies()]
    return {
        "tok_s": (log.tok_s(), "1/s"),
        "op_ms_p50": (percentile(ms, 50), "ms"),
        "op_ms_p90": (percentile(ms, 90), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "loss": (loss, "loss"),
    }


def per_layer(tracer, plain: OpLog, traced: OpLog) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, and the sum check behind them."""
    in_op = tracing.self_time_by_name(tracer.spans, lambda s: s.op != "setup")
    setup = tracing.self_time_by_name(tracer.spans, lambda s: s.op == "setup")
    tokens = traced.tokens
    op_total = sum(s.end - s.start for s in tracer.spans if s.parent < 0 and s.op != "setup")
    remainder = in_op.get("op", 0.0)
    layer_sum = sum(t for name, t in in_op.items() if name != "op")
    pairs = [sum(traced.lat[b:b + BLOCK]) / sum(plain.lat[b:b + BLOCK])
             for b in range(0, len(traced.lat) - BLOCK + 1, BLOCK)]
    c = tracer.counts
    metrics = {f"{name}_ms": (in_op.get(name, 0.0) * 1e3 / tokens, "ms/tok")
               for name in workloads.OP_LAYERS}
    metrics.update({
        "trace.remainder_ms": (remainder * 1e3 / tokens, "ms/tok"),
        "trace.op_ms": (op_total * 1e3 / tokens, "ms/tok"),
        "trace.tok_s": (traced.tok_s(), "1/s"),
        "trace.overhead": (statistics.median(pairs), "ratio"),
        "nn.tape_nodes_per_tok": (c["tape_nodes"] / tokens, "nodes/tok"),
        "nn.adam_elems_per_step": (c["adam_elems"] / max(c["adam_steps"], 1), "count"),
        "decoder.repaired_share": (c["repaired"] / max(c["parsed"], 1), "share"),
        "decoder.arcs_rewired": (c["rewired"] / max(c["parsed"], 1), "arcs/sent"),
    })
    metrics.update({f"{name}_ms": (setup.get(name, 0.0) * 1e3, "ms")
                    for name in workloads.SETUP_LAYERS})
    check = {"op_s": op_total, "layers_s": layer_sum, "remainder_s": remainder,
             "unaccounted_s": op_total - layer_sum - remainder}
    return metrics, check


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="RUNDIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    Workload = workloads.WORKLOADS[args.workload]

    if args.setup_probe:
        Workload(args.setup_probe, args.seed).setup()
        print("ready", flush=True)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=OUT_DIR)
    tracer = tracing.Tracer()
    try:
        wl = Workload(rundir, args.seed)
        corpus = wl.prepare()
        if args.trace:
            tracer.install(workloads.TRACE_TARGETS)
            try:
                with tracer.op_span("setup", name="setup"):
                    wl.setup()
            finally:
                tracer.restore()
            log, traced = paired_loop(wl, args.seconds, tracer)
            logs = [log, traced]
        else:
            setup_times = setup_probe_times(args, rundir)
            wl.setup()
            log = timed_loop(wl, args.seconds, workloads.QUALITY_SENTENCES)
            logs = [log]
        # Taken before the output checks, whose read-back grows with the op count.
        rss_mb = peak_rss_mb()
        try:
            check_failed, loss = wl.finish()
        except Exception:  # an unreadable output is a failed check, not a crash
            traceback.print_exc(file=sys.stderr)
            check_failed, loss = 1, 0.0
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "machine": machine_notes(), "corpus": corpus,
            "samples": {"ops": len(log.lat), "tokens": log.tokens,
                        "latencies": len(log.good_latencies())},
            "loss": loss, "output_sha256": wl.digest.hexdigest()}
    if args.trace:
        metrics, info["trace_sum"] = per_layer(tracer, log, traced)
        info["trace_samples"] = {"ops": len(traced.lat), "tokens": traced.tokens,
                                 "spans": len(tracer.spans)}
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write_jsonl(trace_path)
        info["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        info["setup_probe_s"] = setup_times
        metrics = end_to_end(log, setup_times, rss_mb, loss)
    failed = check_failed + sum(lg.failed for lg in logs)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(len(lg.lat) for lg in logs),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
