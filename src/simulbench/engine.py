"""Policy-driven read/write generation over a streaming source.

``simul_generate`` alternates reading source tokens and greedily emitting
target tokens under a decision policy.  One decision session serves both
modes: ``_decide`` yields each prediction step's (new source tokens, tokens
emitted so far, read counter, write counter) and takes back its last-row
logits; ``_run`` answers each step with the mode's step function, which
runs the model, charges the two counters and returns that row:

* cached: every token is processed once against a growing KV cache.
  Each decision step is one ``forward_incremental`` call holding the
  step's newly read source tokens followed by the last emitted target
  token (on the first step: the pre-prompt, the first source tokens and
  the mid-prompt), with their count per region;
* recompute: every prediction step rebuilds the full canonical sequence
  (all read source mid-sequence) and runs a full forward under
  ``realized_step_mask``, the fine-tuning mask of the steps realized so
  far; its read counter stays empty.

Each run produces a TranslationTrace: the read/write event log, the
per-emission cumulative source counts feeding latency metrics, and a
per-event shadow count of floating-point operations.  FLOPs are charged
per row to the event the row belongs to: pre-prompt and source rows to
their read event, mid-prompt and target rows to their write event, even
when one engine call serves both.  One session owns its cache and trace;
sessions sharing read-only parameters may run concurrently.
"""

import json
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .alibi import head_biases  # noqa: F401  (perfbench's tracer rebinds it here)
from .errors import (ConfigError, ConsistencyError, DataError, NumericError,
                     PolicyError)
from .masks import (AttentionMaskSpec, DecisionPolicy, PromptLayout,
                    read_count_mask, whole)
from .model import (FlopCounter, KVCache, ModelParams, _token_ids,
                    forward_full, forward_incremental)


@dataclass(frozen=True)
class GenerationMode:
    """``cached`` reuses every key/value; ``recompute`` rebuilds them all
    at each prediction step."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("cached", "recompute"):
            raise ConfigError(f"unknown generation mode {self.kind!r}")


@dataclass
class ReadEvent:
    n: int
    flops: int = 0


@dataclass
class WriteEvent:
    token: int
    flops: int = 0


@dataclass
class TranslationTrace:
    """Event log of one generation session.

    ``d`` records, per emitted content token (end-of-sequence excluded),
    the cumulative number of source tokens read at emission time.
    """

    pre_len: int
    mid_len: int
    events: list = field(default_factory=list)
    d: list[int] = field(default_factory=list)
    kv_rows: int = 0
    step_logits: list | None = None

    @property
    def flop_log(self) -> list[int]:
        """Per-event shadow FLOPs, in event order."""
        return [e.flops for e in self.events]

    def total_reads(self) -> int:
        return sum(e.n for e in self.events if isinstance(e, ReadEvent))

    def writes(self) -> list[int]:
        return [e.token for e in self.events if isinstance(e, WriteEvent)]


def simul_generate(params: ModelParams, policy: DecisionPolicy, pre_prompt,
                   source_stream, mid_prompt, mode: GenerationMode,
                   max_target_len: int, *, eos_id: int | None = 0,
                   forced_target=None, record_logits: bool = False,
                   bias_scheme: str = "rank"):
    """Run one simultaneous translation; returns (hypothesis, trace).

    Reads f(1) source tokens, then alternates reads and greedy writes so
    that exactly f(t) source tokens have been read before emitting target
    token t; once the stream ends, f is clipped to the realized source
    length.  Stops at ``eos_id`` (the stop marker is excluded from the
    returned hypothesis but stays in the trace's write events) or at
    ``max_target_len``.  ``forced_target`` replaces greedy emissions
    (teacher forcing for equivalence harnesses) and disables the
    end-of-sequence stop.  ``bias_scheme`` is forwarded to the cached path
    ("rank", or "stale" for the frozen-absolute-position negative control).
    Raises ShapeError, before any step, for a prompt token, forced token or
    ``eos_id`` that is not a token id of the model's vocabulary, and
    NumericError when a prediction step's logits are not all finite.
    """
    vocab = params.config.vocab_size
    pre_prompt = _token_ids(pre_prompt, vocab)
    mid_prompt = _token_ids(mid_prompt, vocab)
    if not pre_prompt or not mid_prompt:
        raise DataError("pre- and mid-prompts must be non-empty")
    if whole(max_target_len, "max_target_len", ConfigError) < 1:
        raise ConfigError("max_target_len must be >= 1")
    if mode.kind == "recompute" and bias_scheme != "rank":
        raise ConfigError(f"recompute takes rank biases, not {bias_scheme!r}")
    if eos_id is not None:
        eos_id = _token_ids([eos_id], vocab)[0]
    if forced_target is not None:
        forced_target = _token_ids(forced_target, vocab)
        if not forced_target or len(forced_target) > max_target_len:
            raise ConfigError("forced target must fit within max_target_len")
        # teacher forcing: no end-of-sequence stop, one write per forced token
        eos_id, max_target_len = None, len(forced_target)

    trace = TranslationTrace(pre_len=len(pre_prompt), mid_len=len(mid_prompt),
                             step_logits=[] if record_logits else None)
    if mode.kind == "cached":
        step = _cached_step(params, pre_prompt, mid_prompt, bias_scheme)
    else:
        step = _recompute_step(params, pre_prompt, mid_prompt, trace)
    return _run(_decide(trace, policy, source_stream, max_target_len, eos_id,
                        forced_target), step), trace


def _decide(trace, policy, source_stream, max_target_len, eos_id,
            forced_target):
    """The decision session (a generator; see the module docstring); logs
    on ``trace``, returns the emitted tokens."""
    stream = iter(source_stream)
    emitted, reads = [], 0
    for t in range(1, max_target_len + 1):
        # an exhausted iterator yields nothing more, which clips every later
        # goal to the realized source length
        new = list(islice(stream, max(policy.cumulative_reads(t) - reads, 0)))
        if t == 1 and not new:
            raise DataError("source stream yielded no tokens")
        read, write = FlopCounter(), FlopCounter()
        logits = yield new, emitted, read, write
        if new:
            reads += len(new)
            trace.kv_rows += read.kv_rows
            trace.events.append(ReadEvent(n=len(new), flops=read.total))
        if not np.isfinite(logits).all():
            raise NumericError(f"non-finite logits at prediction step {t}")
        if trace.step_logits is not None:
            trace.step_logits.append(np.array(logits, copy=True))
        tok = (int(np.argmax(logits)) if forced_target is None
               else forced_target[t - 1])
        trace.kv_rows += write.kv_rows
        trace.events.append(WriteEvent(token=tok, flops=write.total))
        if tok == eos_id:
            break
        emitted.append(tok)
        trace.d.append(reads)
    return emitted


def _run(session, step):
    """Answer each step of ``session`` with ``step``; return its result."""
    logits = None
    while True:
        try:
            request = session.send(logits)
        except StopIteration as done:
            return done.value
        logits = step(*request)


def _cached_step(params, pre_prompt, mid_prompt, bias_scheme):
    """Step function over one KV cache: a step is one engine call holding
    its new source rows (after the pre-prompt on the first step), charged
    to the read counter, then the mid-prompt (first step) or the last
    emitted target token, charged to the write counter."""
    cache = KVCache()

    def step(new, emitted, read, write):
        if emitted:
            reads, writes = new, [emitted[-1]]
            added = [0, len(new), 0, 1]
        else:
            reads, writes = pre_prompt + new, mid_prompt
            added = [len(pre_prompt), len(new), len(mid_prompt), 0]
        return forward_incremental(
            params, cache, reads + writes, added, bias_scheme=bias_scheme,
            flops=[read] * len(reads) + [write] * len(writes))[-1]
    return step


def _recompute_step(params, pre_prompt, mid_prompt, trace):
    """Step function: a full forward of the whole canonical sequence under
    the step mask of ``trace.d`` + [read so far], charged to writes."""
    sources = []

    def step(new, emitted, read, write):
        sources.extend(new)
        mask = realized_step_mask(len(pre_prompt), len(mid_prompt),
                                  trace.d + [len(sources)])
        return forward_full(params, pre_prompt + sources + mid_prompt + emitted,
                            mask, "modified", flops=write)[-1]
    return step


def realized_step_mask(pre_len: int, mid_len: int, d_history) -> AttentionMaskSpec:
    """Visibility over the canonical sequence materialized at one step.

    ``d_history[t-1]`` is the realized cumulative read count of prediction
    step t; the current step is the last entry.  This is the fine-tuning
    mask itself: ``simul_mask`` over the targets emitted so far, with the
    source read so far as the whole source region, under the realized read
    counts.  The current step's row has read everything, so it is that
    layout's unrestricted final row; at the first step the mask is causal.
    Raises LayoutError for an empty prompt or source, and PolicyError for
    read counts that decrease, at every step alike.
    """
    if not d_history:
        raise ConsistencyError("need at least the current step's read count")
    return read_count_mask(pre_len, mid_len, d_history)


def schedule_trace(policy: DecisionPolicy, layout: PromptLayout) -> TranslationTrace:
    """Compute-free trace of the read/write alternation a policy induces.

    What the mask-replay oracle replays: the decision session answered with
    a fixed finite row (no model, zero FLOPs) and ``layout.target_len``
    forced writes of token id 0.  A too-short policy raises its own PolicyError.
    """
    if policy.source_len != layout.source_len:
        raise ConsistencyError("policy/layout source lengths differ")
    trace = TranslationTrace(pre_len=layout.pre_prompt_len,
                             mid_len=layout.mid_prompt_len)
    _run(_decide(trace, policy, range(layout.source_len), layout.target_len,
                 None, [0] * layout.target_len), lambda *_: np.zeros(1))
    return trace


def replay_visibility(trace: TranslationTrace, layout: PromptLayout):
    """Reconstruct per-row visible column sets from a trace's event order.

    Covers every row the session touched: each ingested token's row (with
    its ingestion-time visibility) and each prediction step's query row.
    The final target row never appears in any trace (it predicts nothing),
    so it is absent.  Returns {absolute row: frozenset of visible columns}.
    """
    if trace.pre_len != layout.pre_prompt_len or trace.mid_len != layout.mid_prompt_len:
        raise ConsistencyError("trace prompt lengths do not match layout")
    if trace.total_reads() > layout.source_len:
        raise ConsistencyError("trace reads more source than the layout holds")
    writes = trace.writes()
    if len(writes) > layout.target_len:
        raise ConsistencyError("trace writes more targets than the layout holds")

    pre = layout.pre_prompt_len
    s0 = layout.source_start
    mid0 = layout.mid_start
    t0 = layout.target_start
    pre_cols = list(range(pre))
    out: dict[int, frozenset] = {}
    for i in range(pre):
        out[i] = frozenset(range(i + 1))

    reads = 0
    write_no = 0
    for ev in trace.events:
        if isinstance(ev, ReadEvent):
            for j in range(reads, reads + ev.n):
                out[s0 + j] = frozenset(pre_cols + list(range(s0, s0 + j + 1)))
            reads += ev.n
        else:
            write_no += 1
            if write_no == 1:
                for i in range(layout.mid_prompt_len):
                    out[mid0 + i] = frozenset(
                        pre_cols + list(range(s0, s0 + reads))
                        + list(range(mid0, mid0 + i + 1)))
            row = layout.predictor_row(write_no)
            out[row] = frozenset(
                pre_cols + list(range(s0, s0 + reads))
                + list(range(mid0, mid0 + layout.mid_prompt_len))
                + list(range(t0, t0 + write_no - 1)))
    if write_no == 0:
        raise ConsistencyError("trace contains no write events")
    return out


def prefix_expand(source, target, k: int):
    """Partial sentence pairs mimicking wait-k contexts.

    Pair i (1-based) holds the first min(k-1+i, |S|) source tokens and the
    first min(i, |T|) target tokens; there are max(|S|-(k-1), |T|) pairs
    and the last one is the full sentence pair.
    """
    source = list(source)
    target = list(target)
    if not source or not target:
        raise DataError("source and target must be non-empty")
    if whole(k, "k", PolicyError) < 1:
        raise PolicyError("k must be >= 1")
    count = max(len(source) - (k - 1), len(target))
    return [(source[:min(k - 1 + i, len(source))], target[:min(i, len(target))])
            for i in range(1, count + 1)]


def trace_to_jsonl(trace: TranslationTrace) -> str:
    """One event per line: {"type", "payload", "flops"}, fixed field order."""
    lines = []
    for ev in trace.events:
        if isinstance(ev, ReadEvent):
            lines.append(json.dumps(
                {"type": "read", "payload": ev.n, "flops": ev.flops}))
        else:
            lines.append(json.dumps(
                {"type": "write", "payload": ev.token, "flops": ev.flops}))
    return "\n".join(lines) + "\n"
