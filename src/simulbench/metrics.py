"""Latency, quality proxies, and floating-point-operation accounting.

The FLOP convention counts matrix products only (one multiply-accumulate =
2 operations): per processed token the QKV/output projections, the
feed-forward pair, and the vocabulary projection; per (query, visible key,
head) pair the score and weighted-sum products.  Softmax, normalization,
activations, and embedding lookups are excluded.  The analytic accounting
here reconstructs per-event costs purely from a trace's event structure;
the model's shadow counters provide the independent check.  Only the
one-pass costs are worked out row by row: a recompute-mode write redoes
the one-pass work of every event up to it, so its cost is their running
sum.
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

    def forward_cost(self, tokens: int, visible_pairs: int) -> int:
        """Cost of processing ``tokens`` rows whose visible-key counts sum
        to ``visible_pairs``; linear in both.  Per layer a row costs
        2*d*d*4 (QKV and output projections) plus 2*d*4d twice (the
        feed-forward pair), and a visible pair 4*d_head*n_heads (scores and
        weighted sum); the vocabulary projection adds 2*d*V per row."""
        d, v = self.config.d_model, self.config.vocab_size
        per_layer = 24 * d * d * tokens + 4 * d * visible_pairs
        return self.config.n_layers * per_layer + 2 * d * v * tokens


@dataclass(frozen=True)
class FlopsReport:
    initial: int
    recompute: int

    @property
    def total(self) -> int:
        return self.initial + self.recompute


def _cached_event_costs(trace: TranslationTrace, model: FlopModel):
    """Per-event one-pass costs: every row processed once, seeing the rows
    present when it arrives (``seen`` lists the new rows' visible counts)."""
    pre, mid = trace.pre_len, trace.mid_len
    costs = []
    reads = 0
    writes = 0
    for ev in trace.events:
        if isinstance(ev, ReadEvent):
            # the first read also brings the pre-prompt
            seen = list(range(1, pre + 1)) if reads == 0 else []
            seen += range(pre + reads + 1, pre + reads + ev.n + 1)
            reads += ev.n
        elif reads == 0:
            raise DataError("trace writes before its first read")
        else:
            # the first write brings the mid-prompt, a later one the
            # previous target
            writes += 1
            seen = (range(pre + reads + 1, pre + reads + mid + 1)
                    if writes == 1 else [pre + reads + mid + writes - 1])
        costs.append(model.forward_cost(len(seen), sum(seen)))
    if writes == 0:
        raise DataError("trace has no write events")
    return costs


def _recompute_event_costs(trace: TranslationTrace, model: FlopModel):
    """Per-event full-rebuild costs of recompute-mode generation.

    A write rebuilds every row read or written so far, its own rows
    included, and the realized step mask gives each row the visibility it
    had when the cached path processed it.  ``forward_cost`` is linear, so
    a write's rebuild costs the running sum of the one-pass event costs up
    to and including it; reads cost nothing.
    """
    costs, done = [], 0
    for ev, cost in zip(trace.events, _cached_event_costs(trace, model)):
        done += cost
        costs.append(0 if isinstance(ev, ReadEvent) else done)
    return costs


def flops_generate(trace: TranslationTrace, model: FlopModel,
                   mode: GenerationMode) -> FlopsReport:
    """Total cost split into {initial, recompute} categories.

    Cached mode: everything is initial work, recompute is zero.  Recompute
    mode: each write's full rebuild costs the running sum of the one-pass
    event costs up to it, so the recompute category is the sum of those
    running sums minus the one-pass total.
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

