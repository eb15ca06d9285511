"""Latency, quality proxies, and floating-point-operation accounting.

The FLOP convention counts matrix products only (one multiply-accumulate =
2 operations): per processed token the QKV/output projections, the
feed-forward pair, and the vocabulary projection; per (query, visible key,
head) pair the score and weighted-sum products.  Softmax, normalization,
activations, and embedding lookups are excluded.  The analytic accounting
here reconstructs per-event costs purely from a trace's event structure;
the model's shadow counters provide the independent check.
"""

from dataclasses import dataclass

from .engine import GenerationMode, ReadEvent, TranslationTrace
from .errors import ConsistencyError, DataError
from .model import ModelConfig


def laal(trace: TranslationTrace, source_len: int, target_len: int,
         reference_len: int) -> float:
    """Length-adaptive average lagging, in source tokens.

    With d_i the cumulative source count at the i-th emission and tau the
    first index where d_i reaches the full source (or the last emission if
    it never does):

        LAAL = (1/tau) * sum_{i=1..tau} d_i - (i-1) * |S| / max(|ref|, |hyp|)
    """
    if not trace.d:
        raise DataError("trace has no emissions")
    if min(source_len, target_len, reference_len) < 1:
        raise DataError("all lengths must be >= 1")
    denom = max(reference_len, target_len)
    total = 0.0
    tau = len(trace.d)
    for i, d_i in enumerate(trace.d, start=1):
        total += d_i - (i - 1) * source_len / denom
        if d_i >= source_len:
            tau = i
            break
    return total / tau


@dataclass(frozen=True)
class FlopModel:
    """Analytic per-event costs for one model configuration."""

    config: ModelConfig

    def linear(self, tokens: int, d_in: int, d_out: int) -> int:
        return 2 * tokens * d_in * d_out

    def attention(self, visible_pairs: int) -> int:
        # scores + weighted sum over all heads: 4 * d_head * pairs * n_heads
        return 4 * self.config.d_model * visible_pairs

    def forward_cost(self, tokens: int, visible_pairs: int) -> int:
        """Cost of processing ``tokens`` rows whose visible-key counts sum
        to ``visible_pairs``."""
        d, v = self.config.d_model, self.config.vocab_size
        per_layer = (self.linear(tokens, d, d) * 4        # QKV + output proj
                     + self.linear(tokens, d, 4 * d)
                     + self.linear(tokens, 4 * d, d)
                     + self.attention(visible_pairs))
        return self.config.n_layers * per_layer + self.linear(tokens, d, v)


@dataclass(frozen=True)
class FlopsReport:
    initial: int
    recompute: int

    @property
    def total(self) -> int:
        return self.initial + self.recompute


def _cached_event_costs(trace: TranslationTrace, model: FlopModel):
    """Per-event one-pass costs: every token's K/V work counted once."""
    pre, mid = trace.pre_len, trace.mid_len
    costs = []
    reads = 0
    writes = 0
    for ev in trace.events:
        if isinstance(ev, ReadEvent):
            tokens = ev.n
            pairs = sum(pre + j for j in range(reads + 1, reads + ev.n + 1))
            if reads == 0:
                tokens += pre
                pairs += sum(i + 1 for i in range(pre))
            costs.append(model.forward_cost(tokens, pairs))
            reads += ev.n
        else:
            writes += 1
            if writes == 1:
                tokens = mid
                pairs = sum(pre + reads + i + 1 for i in range(mid))
            else:
                tokens = 1
                pairs = pre + reads + mid + writes - 1
            costs.append(model.forward_cost(tokens, pairs))
    if writes == 0:
        raise DataError("trace has no write events")
    return costs


def _recompute_event_costs(trace: TranslationTrace, model: FlopModel):
    """Per-event full-rebuild costs of recompute-mode generation."""
    pre, mid = trace.pre_len, trace.mid_len
    costs = []
    reads = 0
    d_hist = []
    for ev in trace.events:
        if isinstance(ev, ReadEvent):
            costs.append(0)
            reads += ev.n
        else:
            d_hist.append(reads)
            tokens = pre + reads + mid + len(d_hist) - 1
            pairs = sum(i + 1 for i in range(pre))
            pairs += sum(pre + j for j in range(1, reads + 1))
            pairs += sum(pre + d_hist[0] + i + 1 for i in range(mid - 1))
            for step, d_t in enumerate(d_hist, start=1):
                pairs += pre + d_t + mid + step - 1
            costs.append(model.forward_cost(tokens, pairs))
    if not d_hist:
        raise DataError("trace has no write events")
    return costs


def flops_generate(trace: TranslationTrace, model: FlopModel,
                   mode: GenerationMode) -> FlopsReport:
    """Total cost split into {initial, recompute} categories.

    Cached mode: everything is initial work, recompute is zero.  Recompute
    mode: each step's full rebuild minus the one-pass cost of its new
    tokens is charged to the recompute category.
    """
    initial = sum(_cached_event_costs(trace, model))
    if mode.kind == "cached":
        return FlopsReport(initial=initial, recompute=0)
    total = sum(_recompute_event_costs(trace, model))
    if total < initial:
        raise ConsistencyError("rebuild cost below one-pass cost")
    return FlopsReport(initial=initial, recompute=total - initial)


@dataclass(frozen=True)
class QualityReport:
    token_accuracy: float
    exact_match: float


def quality_proxy(hypotheses, references) -> QualityReport:
    """Token accuracy (matched positions / reference tokens) and the
    fraction of exactly matching sequences."""
    hypotheses = [list(h) for h in hypotheses]
    references = [list(r) for r in references]
    if len(hypotheses) != len(references):
        raise DataError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references")
    if not references:
        raise DataError("empty evaluation set")
    matched = 0
    ref_tokens = 0
    exact = 0
    for hyp, ref in zip(hypotheses, references):
        ref_tokens += len(ref)
        matched += sum(1 for a, b in zip(hyp, ref) if a == b)
        exact += hyp == ref
    if ref_tokens == 0:
        raise DataError("references contain no tokens")
    return QualityReport(token_accuracy=matched / ref_tokens,
                         exact_match=exact / len(references))


METRICS_COLUMNS = ("sentence_id", "k_or_chunk", "laal", "flops_initial",
                   "flops_recompute", "token_acc", "exact_match")


def metrics_rows_to_csv(rows) -> str:
    """CSV with the fixed per-sentence metric columns."""
    lines = [",".join(METRICS_COLUMNS)]
    for row in rows:
        if len(row) != len(METRICS_COLUMNS):
            raise DataError("metrics row has wrong arity")
        lines.append(",".join(
            repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"
