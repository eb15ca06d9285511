"""End-to-end experiment orchestration: train, sweep, report.

Every run is reproducible from (config, seed): file contents are
byte-identical across re-runs on one platform.  On failure, files created
by the partial run are removed before the error propagates.
"""

import os
from dataclasses import dataclass

from .alibi import alibi_slopes, bias_to_csv, head_biases
from .config import ExperimentConfig
from .data import (EOS_ID, PRE_ID, SEP_ID, default_layout_builder, load_corpus,
                   streamed_source)
from .engine import (GenerationMode, TranslationTrace, simul_generate,
                     trace_to_jsonl)
from .errors import ConfigError
from .masks import WaitKPolicy, mask_to_ascii, simul_mask
from .metrics import (FlopModel, FlopsReport, flops_generate, laal,
                      quality_proxy)
from .model import init_model, load_params, params_to_bytes
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
    return simul_generate(
        params, policy, [PRE_ID], stream, [SEP_ID], mode,
        max_target_len=max_target_len, eos_id=EOS_ID, bias_scheme=bias_scheme)


@dataclass(frozen=True)
class SentenceRecord:
    """One sentence of a sweep; its LAAL is derived on demand."""

    sid: int
    hyp: list
    ref: list
    source_len: int  # counts the end-of-source marker
    trace: TranslationTrace
    flops: FlopsReport  # priced in the sweep's mode

    def laal(self) -> float:
        return (laal(self.trace, self.source_len, len(self.hyp), len(self.ref))
                if self.trace.d else 0.0)


def _sweep(params, corpus, k, mode, config, bias_scheme="rank"):
    """One record per sentence of ``corpus``, generated at wait-``k``."""
    flop_model = FlopModel(params.config)
    records = []
    for sid, pair in enumerate(corpus):
        hyp, trace = evaluate_sentence(params, pair, k, mode,
                                       config.max_target_len, bias_scheme)
        records.append(SentenceRecord(
            sid, hyp, list(pair.target), len(pair.source) + 1, trace,
            flops_generate(trace, flop_model, mode)))
    return records


def _summary(records):
    """(mean LAAL, corpus token accuracy, exact match) of a sweep."""
    agg = quality_proxy([r.hyp for r in records], [r.ref for r in records])
    mean_laal = sum(r.laal() for r in records) / len(records)
    return mean_laal, agg.token_accuracy, agg.exact_match


def _csv(header: str, rows) -> str:
    """A header, then one line per row: floats by ``repr``, everything
    else by ``str``."""
    lines = [header] + [",".join(repr(v) if isinstance(v, float) else str(v)
                                 for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_out(path: str, data: str | bytes):
    """Write one output file, text or bytes.  An unwritable path is a
    configuration error, and a write cut short removes the partial file."""
    binary = isinstance(data, bytes)
    try:
        fh = open(path, "wb" if binary else "w",
                  encoding=None if binary else "utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc
    try:
        with fh:
            fh.write(data)
    except BaseException:
        os.remove(path)
        raise


class _RunWriter:
    """Tracks created files so a failed run leaves no partial outputs.

    Used as a context manager: a block that raises removes every file the
    writer created before the error propagates.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.created = []
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output directory {out_dir!r}: {exc}") from exc

    def write(self, name: str, data: str | bytes) -> str:
        path = os.path.join(self.out_dir, name)
        _write_out(path, data)
        self.created.append(path)
        return path

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            for path in self.created:
                if os.path.isfile(path):
                    os.remove(path)


def _load_inputs(config: ExperimentConfig, checkpoint: str | None = None,
                 evaluate: bool = True):
    """(checkpoint params or None, corpus, eval corpus).

    The eval corpus is read only when ``evaluate`` is set.  Token ids are
    checked against the vocabulary of the model that will run: the
    checkpoint's when one is given, else the config's.
    """
    if not config.dataset:
        raise ConfigError("a dataset is required (--dataset or config)")
    params = load_params(checkpoint) if checkpoint else None
    vocab = (params.config if params else config.model_config()).vocab_size
    corpus = load_corpus(config.dataset, vocab)
    eval_corpus = (load_corpus(config.eval_dataset, vocab)
                   if evaluate and config.eval_dataset else corpus)
    return params, corpus, eval_corpus


def run_experiment(config: ExperimentConfig, checkpoint: str | None = None):
    """Train (or load) a model, sweep the eval policies, write reports.

    Writes: params.bin, loss_curve.csv, metrics.csv, summary.csv, one trace
    JSONL per (k, mode), and mask/bias dumps for the first eval sentence.
    Returns the list of written paths.
    """
    params, corpus, eval_corpus = _load_inputs(config, checkpoint)
    with _RunWriter(config.out) as writer:
        loss_curve = []
        if params is None:
            params, loss_curve = train_model(config, corpus)
        writer.write("params.bin", params_to_bytes(params))
        writer.write("loss_curve.csv", loss_curve_to_csv(loss_curve))

        mode = GenerationMode(config.mode)
        metrics, summary = [], []
        for k in config.eval_k:
            records = _sweep(params, eval_corpus, k, mode, config)
            for r in records:
                quality = quality_proxy([r.hyp], [r.ref])
                metrics.append((r.sid, k, r.laal(), r.flops.initial,
                                r.flops.recompute, quality.token_accuracy,
                                quality.exact_match))
            summary.append((k, mode.kind, *_summary(records)))
            writer.write(f"traces_k{k}_{mode.kind}.jsonl",
                         "".join(trace_to_jsonl(r.trace) for r in records))
            first = eval_corpus[0]
            _, layout = default_layout_builder(first)
            policy = WaitKPolicy(k=k, source_len=layout.source_len)
            mask = simul_mask(layout, policy)
            writer.write(f"mask_k{k}.txt", mask_to_ascii(mask, policy.describe()))
            bias = head_biases(mask, alibi_slopes(params.config.n_heads),
                               "modified")[0]
            writer.write(f"bias_k{k}.csv", bias_to_csv(bias, mask.visible))

        writer.write("metrics.csv", _csv(
            "sentence_id,k_or_chunk,laal,flops_initial,flops_recompute,"
            "token_acc,exact_match", metrics))
        writer.write("summary.csv", _csv(
            "k_or_chunk,mode,mean_laal,token_acc,exact_match", summary))
    return writer.created


def compare_modes(config: ExperimentConfig, checkpoint: str | None = None):
    """Evaluate one model under cached, recompute, and stale-bias cached
    generation; returns the written path."""
    params, corpus, eval_corpus = _load_inputs(config, checkpoint)
    with _RunWriter(config.out) as writer:
        if params is None:
            params, _ = train_model(config, corpus)
        rows = []
        for k in config.eval_k:
            for kind, scheme in (("cached", "rank"), ("recompute", "rank"),
                                 ("cached", "stale")):
                records = _sweep(params, eval_corpus, k, GenerationMode(kind),
                                 config, bias_scheme=scheme)
                mean_total = sum(r.flops.total for r in records) / len(records)
                rows.append((k, kind, scheme, *_summary(records), mean_total))
        return writer.write("compare.csv", _csv(
            "k_or_chunk,mode,bias_scheme,mean_laal,token_acc,exact_match,"
            "mean_flops_total", rows))


def flops_report(config: ExperimentConfig):
    """Per-sentence FLOPs of cached and recompute generation under an
    untrained model at the first eval k; returns the written path.

    Each sentence is generated once, cached.  ``flops_generate`` reads
    only a trace's prompt lengths and events, and recompute generation
    emits the same tokens, so the same events, as cached generation: the
    cached trace prices both modes exactly.  Both modes do the one-pass
    work, the sweep's cached cost; only the recompute extra is priced here.
    """
    _, corpus, _ = _load_inputs(config, evaluate=False)
    params = init_model(config.model_config())
    flop_model = FlopModel(params.config)
    k = config.eval_k[0]
    rows = []
    for r in _sweep(params, corpus, k, GenerationMode("cached"), config):
        extra = flops_generate(r.trace, flop_model,
                               GenerationMode("recompute")).recompute
        seq_len = r.trace.total_reads() + len(r.trace.writes())
        rows.append((r.sid, k, seq_len, r.flops.total, extra))
    with _RunWriter(config.out) as writer:
        return writer.write("flops_report.csv", _csv(
            "sentence_id,k_or_chunk,seq_len,cached_total,recompute_recompute",
            rows))
