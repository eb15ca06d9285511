"""The simulbench benchmark: three closed-loop workloads and a traced run.

Each workload is one caller running ops back to back (a closed loop with a
single client), with BLAS pinned to one thread by ``run.py``.  An op is one
sentence in one generation mode, or one ``fine_tune`` call.  Ops are grouped
into passes of fixed work, and every workload splits its ops into two legs.
A leg's throughput is the median over passes of that pass's rate; its step
latencies pool every step of the run.  All timings are calibrated against
host speed (see ``clock.py``).  README.md in this directory says why each
workload exists and which layer metric should move which end-to-end metric.

Outputs are checked outside the timed calls; an op that raises a
``WorkbenchError`` or fails a check counts as failed and is reported by id.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import simulbench.data
import simulbench.engine
import simulbench.metrics
import simulbench.training
from simulbench.data import PRE_ID, SEP_ID, default_layout_builder, streamed_source
from simulbench.engine import GenerationMode
from simulbench.errors import WorkbenchError
from simulbench.masks import WaitKPolicy
from simulbench.metrics import FlopModel
from simulbench.model import ModelConfig, init_model

from clock import HostClock
from spans import Tracer

MIN_PASSES = 3
SETUP_REPEATS = 3
TAIL_CHOICES = (99.9, 99.0, 90.0, 50.0)
PROBE_EVERY_PULLS = 16


class CheckFailed(Exception):
    """An op returned output that fails the benchmark's correctness checks."""


@dataclass(frozen=True)
class Leg:
    """One half of a workload's ops, reported under ``leg<n>_*`` names.

    ``rate_name`` and ``step_name`` are the names README.md uses for the
    leg's throughput and step latency; ``tail_pct`` is the tail percentile
    chosen for the leg's usual sample count (``tail`` lowers it when fewer
    than ten steps lie beyond it).
    """

    label: str
    rate_name: str
    rate_unit: str
    step_name: str
    tail_pct: float


@dataclass
class Done:
    """One op: its wall interval, timed seconds (probe time left out), work
    done, steps as (start, end, seconds), and the program's exact counts."""

    start: float
    end: float
    seconds: float
    work: int
    steps: list
    counts: dict


@dataclass(frozen=True)
class Op:
    id: str
    leg: int
    run: object  # (probe or None) -> Done; raises CheckFailed, WorkbenchError


@dataclass
class Measurement:
    legs: int
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # summed over passes

    def __post_init__(self):
        self.rates = [[] for _ in range(self.legs)]      # one per pass
        self.raw_rates = [[] for _ in range(self.legs)]  # same, uncalibrated
        self.steps = [[] for _ in range(self.legs)]      # every step, ms


def _generate(params, source, target_len, mode, k, probe):
    """Time one greedy wait-k generation; check it and count its work.

    The source iterable stamps each pull.  After the first k pulls (the
    initial wait), the gap between consecutive pulls is one read+write
    cycle: the computation-aware delay of a new target token after a new
    source token.  Every PROBE_EVERY_PULLS pulls it runs ``probe`` (when
    given) and leaves the probe's time out of the gap and the op.
    """
    stamps, probe_s = [], []

    def stamped():
        for i, tok in enumerate(source):
            due = probe is not None and i > k and (i - k) % PROBE_EVERY_PULLS == 0
            probe_s.append(probe() if due else 0.0)
            stamps.append(time.perf_counter())
            yield tok

    gen_mode = GenerationMode(mode)
    policy = WaitKPolicy(k, len(source))
    start = time.perf_counter()
    hyp, trace = simulbench.engine.simul_generate(
        params, policy, [PRE_ID], stamped(), [SEP_ID], gen_mode,
        target_len, eos_id=None)
    end = time.perf_counter()

    if len(hyp) != target_len:
        raise CheckFailed(f"{len(hyp)} writes, expected {target_len}")
    report = simulbench.metrics.flops_generate(trace, FlopModel(params.config),
                                               gen_mode)
    shadow = sum(trace.flop_log)
    if report.total != shadow:
        raise CheckFailed(
            f"analytic FLOPs {report.total} != shadow FLOPs {shadow}")
    counts = {"engine.reads": trace.total_reads(),
              "engine.writes": len(trace.writes()),
              "model.kv_rows": trace.kv_rows,
              "model.shadow_flops": shadow}
    if mode == "recompute":
        counts["recompute.flops"] = report.recompute
        counts["recompute.flops_total"] = report.total
    steps = [(stamps[i - 1], stamps[i], stamps[i] - stamps[i - 1] - probe_s[i])
             for i in range(k + 1, len(stamps))]
    done = Done(start, end, end - start - sum(probe_s), len(hyp), steps, counts)
    return done, hyp


class StreamLong:
    """Cached wait-3 generation over long random sources (target length =
    source length), so the KV cache grows to hundreds of entries and cache
    bookkeeping dominates ``forward_incremental``.  Leg 1 holds the shorter
    half of the sources, leg 2 the longer half."""

    name = "stream_long"

    def __init__(self, n_sources=4, min_len=100, max_len=400, k=3,
                 model=ModelConfig(n_layers=2, n_heads=4, d_model=64,
                                   vocab_size=32, seed=0)):
        self.n_sources, self.min_len, self.max_len = n_sources, min_len, max_len
        self.k, self.model = k, model
        self.legs = (
            Leg("cached, shorter half of the sources", "cached_writes_per_s",
                "writes/s", "cached_step", 99.0),
            Leg("cached, longer half of the sources", "cached_writes_per_s",
                "writes/s", "cached_step", 99.0),
        )

    def prepare(self, seed):
        """Sources of evenly spread fixed lengths, so every seed does the
        same work; tokens are content ids drawn with replacement (a 32-token
        vocabulary cannot hold 100+ distinct tokens, so ``gen_synthetic``
        does not apply)."""
        rng = np.random.default_rng(seed)
        lengths = np.linspace(self.min_len, self.max_len, self.n_sources)
        sources = [[int(t) for t in rng.integers(
            simulbench.data.FIRST_CONTENT_ID, self.model.vocab_size, int(n))]
            for n in lengths]
        return {"params": init_model(self.model), "sources": sources}

    def ops(self, state, pass_no):
        half = self.n_sources // 2
        return [Op(f"s{i}/cached", int(i >= half),
                   lambda probe, src=src: _generate(
                       state["params"], src, len(src), "cached", self.k,
                       probe)[0])
                for i, src in enumerate(state["sources"])]


class CompareShort:
    """The ``simulbench compare`` shape: each shift(2) sentence runs in
    cached mode (leg 1), then in recompute mode (leg 2), and the two
    hypotheses must match.  A pass is one block holding one sentence of
    each length."""

    name = "compare_short"

    def __init__(self, lengths=range(8, 17), blocks=16, k=3,
                 model=ModelConfig(n_layers=2, n_heads=16, d_model=64,
                                   vocab_size=48, seed=0)):
        self.lengths, self.blocks, self.k, self.model = (
            tuple(lengths), blocks, k, model)
        self.legs = (
            Leg("cached", "cached_writes_per_s", "writes/s", "cached_step",
                90.0),
            Leg("recompute", "recompute_writes_per_s", "writes/s",
                "recompute_step", 90.0),
        )

    def prepare(self, seed):
        by_len = [simulbench.data.gen_synthetic(
            "shift(2)", self.blocks, n, n, self.model.vocab_size,
            seed * 1000 + n) for n in self.lengths]
        return {"params": init_model(self.model),
                "blocks": [list(block) for block in zip(*by_len)]}

    def ops(self, state, pass_no):
        block = state["blocks"][pass_no % len(state["blocks"])]
        cached_hyps = {}
        ops = []
        for i, pair in enumerate(block):
            src, n_tgt = streamed_source(pair), len(pair.target)

            def cached(probe, i=i, src=src, n_tgt=n_tgt):
                done, cached_hyps[i] = _generate(state["params"], src, n_tgt,
                                                 "cached", self.k, probe)
                return done

            def recompute(probe, i=i, src=src, n_tgt=n_tgt):
                done, hyp = _generate(state["params"], src, n_tgt,
                                      "recompute", self.k, probe)
                if cached_hyps.get(i) != hyp:
                    raise CheckFailed(
                        "recompute hypothesis differs from cached")
                return done

            ops.append(Op(f"s{i}/cached", 0, cached))
            ops.append(Op(f"s{i}/recompute", 1, recompute))
        return ops


class TrainShort:
    """``fine_tune`` at the learning-smoke shape: per sentence length one
    25-sentence batch, first causal mask with standard biases (leg 1), then
    the streaming mask with visibility-aware biases at wait-5 (leg 2),
    each for a fixed number of epochs (one optimizer step per epoch)."""

    name = "train_short"

    def __init__(self, lengths=range(8, 17), batch=25, epochs=2,
                 model=ModelConfig(n_layers=2, n_heads=16, d_model=64,
                                   vocab_size=48, seed=0)):
        self.lengths, self.batch, self.epochs, self.model = (
            tuple(lengths), batch, epochs, model)
        self.legs = (
            Leg("causal mask, standard biases, lr 0.5",
                "train_sentences_per_s", "sentences/s", "train_step", 90.0),
            Leg("streaming mask wait-5, modified biases, lr 0.15",
                "train_sentences_per_s", "sentences/s", "train_step", 90.0),
        )

    def prepare(self, seed):
        return {"params": init_model(self.model),
                "corpora": [simulbench.data.gen_synthetic(
                    "shift(2)", self.batch, n, n, self.model.vocab_size,
                    seed * 1000 + n) for n in self.lengths]}

    def _fine_tune(self, params, corpus, policy, **settings):
        start = time.perf_counter()
        result = simulbench.training.fine_tune(
            params, corpus, default_layout_builder, policy, epochs=self.epochs,
            batch_size=self.batch, **settings)
        end = time.perf_counter()
        losses = [loss for _, loss in result.loss_curve]
        if len(losses) != self.epochs:
            raise CheckFailed(f"{len(losses)} steps, expected {self.epochs}")
        if not all(np.isfinite(losses)):
            raise CheckFailed(f"non-finite loss in {losses}")
        if not losses[-1] < losses[0]:
            raise CheckFailed(
                f"last loss {losses[-1]} not below first {losses[0]}")
        step = (start, end, (end - start) / self.epochs)
        done = Done(start, end, end - start, len(corpus) * self.epochs,
                    [step] * self.epochs, {})
        return done, result.params

    def ops(self, state, pass_no):
        bases = {}
        ops = []
        for corpus in state["corpora"]:
            n = len(corpus[0].source)

            def causal(probe, n=n, corpus=corpus):
                done, bases[n] = self._fine_tune(
                    state["params"], corpus, None, mask_mode="causal",
                    bias_mode="standard", learning_rate=0.5)
                return done

            def streaming(probe, n=n, corpus=corpus):
                if n not in bases:
                    raise CheckFailed("no causal-phase model to fine-tune")
                return self._fine_tune(
                    bases[n], corpus, lambda s: WaitKPolicy(5, s),
                    mask_mode="simulmask", bias_mode="modified",
                    learning_rate=0.15)[0]

            ops.append(Op(f"len{n}/causal", 0, causal))
            ops.append(Op(f"len{n}/streaming", 1, streaming))
        return ops


WORKLOADS = {w.name: w for w in (StreamLong, CompareShort, TrainShort)}


def run_pass(workload, state, pass_no, meas, clock, tracer=None,
             probe_in_ops=True):
    """Run one pass of ops with a probe group between ops (and, if
    ``probe_in_ops``, inside long ops); then turn each op's time and steps
    into calibrated figures."""
    finished = []
    clock.sample()
    for op in workload.ops(state, pass_no):
        meas.attempted += 1
        if tracer is not None:
            tracer.op = f"p{pass_no}/{op.id}"
        try:
            done = op.run(clock.sample if probe_in_ops else None)
        except (WorkbenchError, CheckFailed) as exc:
            meas.failed += 1
            meas.failures.append(
                f"pass {pass_no} op {op.id}: {type(exc).__name__}: {exc}")
            continue
        finally:
            clock.sample()
        finished.append((op.leg, done))
        for key, value in done.counts.items():
            meas.counts[key] = meas.counts.get(key, 0) + value

    work = [0] * meas.legs
    seconds = [0.0] * meas.legs
    raw_seconds = [0.0] * meas.legs
    for leg, done in finished:
        work[leg] += done.work
        seconds[leg] += done.seconds * clock.scale(done.start, done.end)
        raw_seconds[leg] += done.seconds
        meas.steps[leg].extend(s * 1e3 * clock.scale(a, b)
                               for a, b, s in done.steps)
    for leg in range(meas.legs):
        if seconds[leg] > 0:
            meas.rates[leg].append(work[leg] / seconds[leg])
            meas.raw_rates[leg].append(work[leg] / raw_seconds[leg])
    meas.passes += 1


def measure(workload, state, seconds, clock, tracer=None, probe_in_ops=True):
    """Whole passes until ``seconds`` have elapsed (at least MIN_PASSES)."""
    meas = Measurement(len(workload.legs))
    deadline = time.perf_counter() + seconds
    while meas.passes < MIN_PASSES or time.perf_counter() < deadline:
        run_pass(workload, state, meas.passes, meas, clock, tracer,
                 probe_in_ops)
    return meas


def setup(workload, seed, clock):
    """Generate inputs, build the model, and warm up with one untimed op on
    each leg, so first-call costs land here and not in throughput.  Returns
    (state, calibrated seconds)."""
    clock.sample()
    probe_s = clock.spent
    start = time.perf_counter()
    state = workload.prepare(seed)
    warmed = set()
    for op in workload.ops(state, 0):
        if op.leg not in warmed:
            try:
                op.run(clock.sample)
            except (WorkbenchError, CheckFailed):
                pass  # the measured passes count and report it
            warmed.add(op.leg)
    end = time.perf_counter()
    probe_s = clock.spent - probe_s
    clock.sample()
    return state, (end - start - probe_s) * clock.scale(start, end)


def tail(samples, preferred):
    """(percentile, value): ``preferred``, or the highest lower choice that
    still leaves at least ten samples beyond it."""
    n = len(samples)
    for pct in TAIL_CHOICES:
        if pct <= preferred and n * (100.0 - pct) / 100.0 >= 10:
            return pct, float(np.percentile(samples, pct))
    return 50.0, float(np.percentile(samples, 50.0))


def leg_summary(workload, meas):
    """Per leg: (median rate, p50 ms, tail ms, printable line); the line
    gives the README's names for the leg's figures."""
    out = []
    for i, leg in enumerate(workload.legs, start=1):
        rates, steps = meas.rates[i - 1], meas.steps[i - 1]
        if not rates or not steps:
            raise RuntimeError(f"leg {i} of {workload.name} completed no op")
        rate, p50 = statistics.median(rates), float(np.percentile(steps, 50))
        pct, tail_ms = tail(steps, leg.tail_pct)
        line = (f"leg{i} [{leg.label}]: {leg.rate_name} = {rate:.2f} "
                f"{leg.rate_unit} (median of {len(rates)} passes; "
                f"uncalibrated {statistics.median(meas.raw_rates[i - 1]):.2f}"
                f"); {leg.step_name}_p50_ms = {p50:.3f} ms; "
                f"{leg.step_name}_tail_ms = {tail_ms:.3f} ms "
                f"(p{pct:g}, {len(steps)} steps)")
        out.append((rate, p50, tail_ms, line))
    return out


def end_to_end(workload, meas, setup_s):
    """Metric dict (name -> (value, unit)) plus printable lines.  Tail
    latencies do not repeat within a tenth across runs on a shared host, so
    they are printed here and reported as per-layer diagnostics."""
    out = {"setup_s": (setup_s, "s"),
           "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024.0, "MB")}
    lines = []
    for i, (rate, p50, _, line) in enumerate(leg_summary(workload, meas), 1):
        out[f"leg{i}_per_s"] = (rate, "1/s")
        out[f"leg{i}_p50_ms"] = (p50, "ms")
        lines.append(line)
    return out, lines


# Per-layer metrics taken from spans, per traced pass: span name ->
# (metric suffix, column of Tracer.totals).
_SPAN_METRICS = {
    "model.forward_incremental": (("calls", 0), ("tokens", 1), ("ms", 2),
                                  ("self_ms", 3)),
    "model.forward_full": (("calls", 0), ("rows", 1), ("ms", 2),
                           ("self_ms", 3)),
    "kernel.attend_row": (("calls", 0), ("keys", 1), ("ms", 2)),
    "alibi.rank_biases": (("calls", 0), ("ms", 2)),
    "alibi.head_biases": (("calls", 0), ("ms", 2)),
    "engine.realized_step_mask": (("calls", 0), ("ms", 2)),
    "engine.simul_generate": (("self_ms", 3),),
    "masks.simul_mask": (("calls", 0), ("ms", 2)),
    "training.batch_forward_backward": (("calls", 0), ("tokens", 1),
                                        ("ms", 2)),
    "training.clip_global_norm": (("ms", 2),),
    "training.fine_tune": (("self_ms", 3),),
    "metrics.flops_generate": (("ms", 2),),
}


def per_layer(workload, plain, traced, tracer):
    """Per-layer metrics of the traced passes, each divided by the number
    of traced passes (every pass does the same work, so counts are exact).
    Span times are raw wall time."""
    passes = traced.passes
    totals = tracer.totals("p")
    empty = [0, 0, 0, 0]
    out = {}
    for name, fields in _SPAN_METRICS.items():
        row = totals.get(name, empty)
        for suffix, col in fields:
            if col >= 2:
                out[f"{name}.{suffix}"] = (row[col] / 1e6 / passes, "ms")
            else:
                out[f"{name}.{suffix}"] = (row[col] / passes, "count")

    counts = traced.counts
    for key in ("engine.reads", "engine.writes", "model.kv_rows",
                "model.shadow_flops"):
        out[key] = (counts.get(key, 0) / passes, "count")
    model_ns = (totals.get("model.forward_incremental", empty)[2]
                + totals.get("model.forward_full", empty)[2])
    out["model.gflops_per_s"] = (
        counts.get("model.shadow_flops", 0) / model_ns if model_ns else 0.0,
        "GFLOP/s")
    attend = totals.get("kernel.attend_row", empty)
    out["kernel.attend_row.gflops_per_s"] = (
        4 * attend[1] * workload.model.d_head / attend[2] if attend[2] else 0.0,
        "GFLOP/s")
    total = counts.get("recompute.flops_total", 0)
    out["metrics.recompute_share"] = (
        counts.get("recompute.flops", 0) / total if total else 0.0, "ratio")

    steps = tracer.durations_ms("training.batch_forward_backward", "p")
    p50 = float(np.percentile(steps, 50)) if steps else 0.0
    tail_ms = tail(steps, 90.0)[1] if steps else 0.0
    out["training.batch_forward_backward.step_p50_ms"] = (p50, "ms")
    out["training.batch_forward_backward.step_tail_ms"] = (tail_ms, "ms")

    out["data.gen_synthetic.ms"] = (
        tracer.totals("setup").get("data.gen_synthetic", empty)[2] / 1e6, "ms")

    for i, (_, _, tail_ms, _) in enumerate(leg_summary(workload, plain), 1):
        out[f"untraced.leg{i}_tail_ms"] = (tail_ms, "ms")
    for i in range(len(workload.legs)):
        out[f"trace.leg{i + 1}_overhead"] = (
            statistics.median(plain.rates[i])
            / statistics.median(traced.rates[i]), "ratio")
    return out


def layer_table(tracer, passes):
    """Rows of (name, calls, work, ms, self_ms) per traced pass, by self
    time.  Self time is a span minus the spans nested directly inside it."""
    lines = [f"{'span (per traced pass)':34s} {'calls':>10s} {'work':>12s} "
             f"{'ms':>10s} {'self_ms':>10s}"]
    for name, (calls, work, ns, self_ns) in sorted(
            tracer.totals("p").items(), key=lambda kv: -kv[1][3]):
        lines.append(f"{name:34s} {calls / passes:10.1f} {work / passes:12.1f} "
                     f"{ns / 1e6 / passes:10.2f} {self_ns / 1e6 / passes:10.2f}")
    return lines


def _blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_facts(seed):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(),
            "cpus_used": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "seed": seed}


def _traced(workload, seed, seconds, out_dir, clock, lines):
    """Untraced passes, then traced passes; per-layer metrics, span file
    and layer table.  Neither half probes inside ops (a probe there would
    land inside traced spans), so the two differ only by tracing."""
    tracer = Tracer()
    with tracer.patched():
        tracer.op = "setup"
        state, _ = setup(workload, seed, clock)
    plain = measure(workload, state, seconds / 2, clock, probe_in_ops=False)
    with tracer.patched():
        traced = measure(workload, state, seconds / 2, clock, tracer,
                         probe_in_ops=False)
    values = per_layer(workload, plain, traced, tracer)
    table = layer_table(tracer, traced.passes)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, workload.name)
    tracer.write_csv(stem + ".spans.csv.gz")
    with open(stem + ".layers.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines + table) + "\n")
    lines += table
    lines += [line for *_, line in leg_summary(workload, plain)]
    lines.append("tracing overhead (untraced / traced leg rate): " + ", ".join(
        f"leg{i + 1} {values[f'trace.leg{i + 1}_overhead'][0]:.2f}x"
        for i in range(len(workload.legs))))
    lines.append("no layer waits on another (one caller, no queue or lock), "
                 "so time waited does not exist and is not reported")
    lines.append(f"spans: {stem}.spans.csv.gz ({len(tracer)} spans, "
                 f"{traced.passes} traced passes)")
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.failures += traced.failures
    return values, plain


def run(workload, seed, seconds, trace, out_dir, import_s=0.0):
    """Run one workload; returns (result dict, printable lines)."""
    lines = [f"workload {workload.name}: "
             + json.dumps(host_facts(seed), sort_keys=True)]
    clock = HostClock()
    if trace:
        values, meas = _traced(workload, seed, seconds, out_dir, clock, lines)
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            state, setup_s = setup(workload, seed, clock)
            setups.append(setup_s)
        meas = measure(workload, state, seconds, clock)
        values, leg_lines = end_to_end(
            workload, meas, import_s + statistics.median(setups))
        lines += leg_lines
    lines += [f"failed: {f}" for f in meas.failures]
    lines.append(f"ops attempted {meas.attempted}, failed {meas.failed}, "
                 f"failed_share = {meas.failed / meas.attempted:.4f}")
    lines += [f"  {name} = {value!r} {unit}"
              for name, (value, unit) in values.items()]
    result = {"correct": meas.failed == 0, "attempted": meas.attempted,
              "failed": meas.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in values.items()}}
    return result, lines


def main(argv, import_s=0.0):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    result, lines = run(WORKLOADS[args.workload](), args.seed, args.seconds,
                        args.trace, out_dir, import_s)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0
