"""End-to-end experiment orchestration: train, sweep, report.

Every run is reproducible from (config, seed): file contents are
byte-identical across re-runs on one platform.  On failure, files created
by the partial run are removed before the error propagates.
"""

import os

from .alibi import alibi_slopes, bias_to_csv, head_biases
from .config import ExperimentConfig
from .data import (EOS_ID, PRE_ID, SEP_ID, default_layout_builder, load_corpus,
                   streamed_source)
from .engine import GenerationMode, simul_generate, trace_to_jsonl
from .errors import ConfigError
from .masks import WaitKPolicy, mask_to_ascii, simul_mask
from .metrics import (FlopModel, flops_generate, laal, metrics_rows_to_csv,
                      quality_proxy)
from .model import init_model, load_params, save_params
from .training import fine_tune, loss_curve_to_csv


def wait_k_builder(k: int):
    """Per-sentence wait-k policy factory."""
    return lambda source_len: WaitKPolicy(k=k, source_len=source_len)


def train_model(config: ExperimentConfig, corpus, base_params=None):
    """Fine-tune from ``base_params`` (or a fresh seed-initialized model)."""
    params = base_params if base_params is not None else init_model(
        config.model_config())
    if config.epochs == 0:
        return params, []
    result = fine_tune(
        params, corpus, default_layout_builder, wait_k_builder(config.train_k),
        mask_mode=config.mask, bias_mode=config.bias, epochs=config.epochs,
        learning_rate=config.learning_rate, batch_size=config.batch_size,
        max_seq_len=config.max_seq_len, shuffle_seed=config.seed)
    return result.params, result.loss_curve


def evaluate_sentence(params, pair, k: int, mode: GenerationMode,
                      max_target_len: int, bias_scheme: str = "rank"):
    """(hypothesis, trace) of one sentence under a wait-k policy.

    The stream carries the end-of-source marker, so the policy's source
    length (and the reads feeding latency metrics) count it too.
    """
    stream = streamed_source(pair)
    policy = WaitKPolicy(k=k, source_len=len(stream))
    hyp, trace = simul_generate(
        params, policy, [PRE_ID], stream, [SEP_ID], mode,
        max_target_len=max_target_len, eos_id=EOS_ID, bias_scheme=bias_scheme)
    return hyp, trace


def _sweep(params, corpus, k, mode, config, flop_model, bias_scheme="rank"):
    rows = []
    traces = []
    hyps = []
    refs = []
    for sid, pair in enumerate(corpus):
        hyp, trace = evaluate_sentence(params, pair, k, mode,
                                       config.max_target_len, bias_scheme)
        report = flops_generate(trace, flop_model, mode)
        ref = list(pair.target)
        matched = sum(1 for a, b in zip(hyp, ref) if a == b)
        delay = (laal(trace, len(pair.source) + 1, len(hyp), len(ref))
                 if trace.d else 0.0)
        rows.append((sid, k, delay, report.initial, report.recompute,
                     matched / len(ref), float(hyp == ref)))
        traces.append(trace)
        hyps.append(hyp)
        refs.append(ref)
    agg = quality_proxy(hyps, refs)
    mean_laal = sum(r[2] for r in rows) / len(rows)
    summary = (k, mode.kind, mean_laal, agg.token_accuracy, agg.exact_match)
    return rows, traces, summary


class _RunWriter:
    """Tracks created files so a failed run leaves no partial outputs."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.created = []
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output directory {out_dir!r}: {exc}") from exc

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            self.created.append(path)  # ours once opened, even if cut short
            fh.write(text)
        return path

    def path(self, name: str) -> str:
        path = os.path.join(self.out_dir, name)
        self.created.append(path)
        return path

    def cleanup(self):
        for path in self.created:
            if os.path.exists(path):
                os.remove(path)


def run_experiment(config: ExperimentConfig, checkpoint: str | None = None):
    """Train (or load) a model, sweep the eval policies, write reports.

    Writes: params.bin, loss_curve.csv, metrics.csv, summary.csv, one trace
    JSONL per (k, mode), and mask/bias dumps for the first eval sentence.
    Returns the list of written paths.
    """
    if not config.dataset:
        raise ConfigError("config.dataset is required")
    corpus = load_corpus(config.dataset, config.vocab_size)
    eval_corpus = (load_corpus(config.eval_dataset, config.vocab_size)
                   if config.eval_dataset else corpus)
    writer = _RunWriter(config.out)
    try:
        if checkpoint:
            params = load_params(checkpoint)
            loss_curve = []
        else:
            params, loss_curve = train_model(config, corpus)
        save_params(params, writer.path("params.bin"))
        writer.write("loss_curve.csv", loss_curve_to_csv(loss_curve))

        flop_model = FlopModel(config.model_config())
        mode = GenerationMode(config.mode)
        all_rows = []
        summaries = []
        for k in config.eval_k:
            rows, traces, summary = _sweep(params, eval_corpus, k, mode,
                                           config, flop_model)
            all_rows.extend(rows)
            summaries.append(summary)
            writer.write(f"traces_k{k}_{mode.kind}.jsonl",
                         "".join(trace_to_jsonl(t) for t in traces))
            first = eval_corpus[0]
            _, layout = default_layout_builder(first)
            policy = WaitKPolicy(k=k, source_len=layout.source_len)
            mask = simul_mask(layout, policy)
            writer.write(f"mask_k{k}.txt", mask_to_ascii(mask, policy.describe()))
            bias = head_biases(mask, alibi_slopes(config.n_heads), "modified")[0]
            writer.write(f"bias_k{k}.csv", bias_to_csv(bias, mask.visible))

        writer.write("metrics.csv", metrics_rows_to_csv(all_rows))
        lines = ["k_or_chunk,mode,mean_laal,token_acc,exact_match"]
        for k, kind, mean_laal, acc, exact in summaries:
            lines.append(f"{k},{kind},{repr(mean_laal)},{repr(acc)},{repr(exact)}")
        writer.write("summary.csv", "\n".join(lines) + "\n")
    except BaseException:
        writer.cleanup()
        raise
    return writer.created


def compare_modes(config: ExperimentConfig, checkpoint: str | None = None):
    """Evaluate one model under cached, recompute, and stale-bias cached
    generation; returns (summary rows, written path)."""
    if not config.dataset:
        raise ConfigError("config.dataset is required")
    corpus = load_corpus(config.dataset, config.vocab_size)
    eval_corpus = (load_corpus(config.eval_dataset, config.vocab_size)
                   if config.eval_dataset else corpus)
    writer = _RunWriter(config.out)
    try:
        if checkpoint:
            params = load_params(checkpoint)
        else:
            params, _ = train_model(config, corpus)
        flop_model = FlopModel(config.model_config())
        combos = (("cached", "rank"), ("recompute", "rank"), ("cached", "stale"))
        lines = ["k_or_chunk,mode,bias_scheme,mean_laal,token_acc,exact_match,"
                 "mean_flops_total"]
        for k in config.eval_k:
            for kind, scheme in combos:
                mode = GenerationMode(kind)
                rows, _, summary = _sweep(params, eval_corpus, k, mode, config,
                                          flop_model, bias_scheme=scheme)
                mean_total = sum(r[3] + r[4] for r in rows) / len(rows)
                lines.append(
                    f"{k},{kind},{scheme},{repr(summary[2])},"
                    f"{repr(summary[3])},{repr(summary[4])},{repr(mean_total)}")
        path = writer.write("compare.csv", "\n".join(lines) + "\n")
    except BaseException:
        writer.cleanup()
        raise
    return lines, path
