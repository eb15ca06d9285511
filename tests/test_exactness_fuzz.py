"""Seeded differential fuzz of the central exactness contract.

Cached generation (incremental forwards over a KV cache) and recompute
generation (a full forward under the realized step mask at every step)
must produce bit-identical logits at every prediction step, for any
prompt lengths, decision policy, layer count and head count.  Every run
(cached with rank or stale biases, recompute) must also charge each event
the shadow FLOPs that ``metrics`` derives for it analytically, and build
the keys/values of exactly the rows its mode implies.
"""

import numpy as np

from simulbench.engine import (GenerationMode, ReadEvent, realized_step_mask,
                               simul_generate, trace_to_jsonl)
from simulbench.masks import TablePolicy, WaitKPolicy
from simulbench.metrics import (FlopModel, _cached_event_costs,
                                _recompute_event_costs)
from simulbench.model import (MIN_CACHE_CAPACITY, ModelConfig, forward_full,
                              init_model)

CASES = 200
LAYER_COUNTS = (1, 2, 3)
HEAD_COUNTS = (1, 2, 4, 8, 16)
VOCAB = 24
MODES = (("cached", "rank"), ("cached", "stale"), ("recompute", "rank"))


def random_policy(rng, source_len, target_len):
    if rng.random() < 0.5:
        return WaitKPolicy(k=int(rng.integers(1, source_len + 3)),
                           source_len=source_len)
    reads = np.maximum.accumulate(
        rng.integers(1, source_len + 1, size=target_len))
    return TablePolicy(reads=tuple(int(r) for r in reads), source_len=source_len)


def tokens(rng, n):
    return [int(x) for x in rng.integers(1, VOCAB, size=n)]


def expected_kv_rows(trace, kind, n_layers):
    """Rows whose keys/values a ``kind`` run builds: each token once when
    cached, the whole canonical prefix at every step when recomputing."""
    reads, step_reads = 0, []  # source tokens read before each write
    for ev in trace.events:
        if isinstance(ev, ReadEvent):
            reads += ev.n
        else:
            step_reads.append(reads)
    prompts = trace.pre_len + trace.mid_len
    if kind == "cached":
        rows = prompts + reads + len(step_reads) - 1
    else:
        rows = sum(prompts + d_t + t for t, d_t in enumerate(step_reads))
    return n_layers * rows


def test_cached_and_recompute_step_logits_bit_identical():
    rng = np.random.default_rng(20240517)
    steps = 0
    widest = 0
    for case in range(CASES):
        cfg = ModelConfig(n_layers=int(rng.choice(LAYER_COUNTS)),
                          n_heads=int(rng.choice(HEAD_COUNTS)),
                          d_model=64, vocab_size=VOCAB,
                          seed=int(rng.integers(0, 1000)))
        params = init_model(cfg)
        pre, mid = tokens(rng, int(rng.integers(1, 4))), tokens(
            rng, int(rng.integers(1, 4)))
        src = tokens(rng, int(rng.integers(1, 31)))
        tgt = tokens(rng, int(rng.integers(1, 31)))
        policy = random_policy(rng, len(src), len(tgt))
        flop_model = FlopModel(cfg)
        traces = {}
        for kind, scheme in MODES:
            _, trace = simul_generate(
                params, policy, pre, src, mid, GenerationMode(kind),
                max_target_len=len(tgt), forced_target=tgt,
                record_logits=True, bias_scheme=scheme)
            costs = (_cached_event_costs if kind == "cached"
                     else _recompute_event_costs)(trace, flop_model)
            assert trace.flop_log == costs, (
                f"case {case} {kind}/{scheme}: per-event FLOPs differ")
            assert trace.kv_rows == expected_kv_rows(trace, kind,
                                                     cfg.n_layers), (
                f"case {case} {kind}/{scheme}: kv_rows differ")
            traces[kind, scheme] = trace
        cached, recompute = traces["cached", "rank"], traces["recompute", "rank"]
        # stale biases change the logits, never the schedule or the work
        assert trace_to_jsonl(traces["cached", "stale"]) == trace_to_jsonl(cached)
        assert cached.d == recompute.d, f"case {case}: schedules differ"
        assert len(cached.step_logits) == len(recompute.step_logits) == len(tgt)
        for t, (a, b) in enumerate(zip(cached.step_logits,
                                       recompute.step_logits), start=1):
            assert np.array_equal(a, b), (
                f"case {case} ({cfg.n_layers} layers, {cfg.n_heads} heads, "
                f"{policy.describe()}), "
                f"step {t}: max diff {np.abs(a - b).max()}")
        steps += len(tgt)
        widest = max(widest, len(pre) + cached.d[-1] + len(mid) + len(tgt) - 1)
    assert steps > 1000
    assert widest > 8  # visible sets pass the sizes where reductions regroup


def test_long_cache_steps_match_full_forward():
    # a 300-token source and target grow the cache past 600 entries, so its
    # buffers double several times; steps next to each doubling, the first
    # and the last are recomputed with forward_full under the realized step
    # mask and modified biases, as recompute mode does
    rng = np.random.default_rng(20241019)
    cfg = ModelConfig(n_layers=2, n_heads=4, d_model=64, vocab_size=VOCAB,
                      seed=3)
    params = init_model(cfg)
    pre, mid = tokens(rng, 2), tokens(rng, 1)
    src, tgt = tokens(rng, 300), tokens(rng, 300)
    _, trace = simul_generate(
        params, WaitKPolicy(k=3, source_len=len(src)), pre, src, mid,
        GenerationMode("cached"), max_target_len=len(tgt), forced_target=tgt,
        record_logits=True)

    def cache_len(t):  # entries cached once step t has run (0 before step 1)
        return len(pre) + trace.d[t - 1] + len(mid) + t - 1 if t else 0

    steps = {1, len(tgt)}
    capacity = MIN_CACHE_CAPACITY
    while capacity < cache_len(len(tgt)):
        crossing = next(t for t in range(1, len(tgt) + 1)
                        if cache_len(t) > capacity)
        steps |= {crossing - 1, crossing} - {0}
        capacity *= 2
    assert capacity >= 16 * MIN_CACHE_CAPACITY  # at least four doublings
    for t in sorted(steps):
        mask = realized_step_mask(len(pre), len(mid), trace.d[:t])
        seq = pre + src[:trace.d[t - 1]] + mid + tgt[:t - 1]
        full = forward_full(params, seq, mask, "modified")
        assert np.array_equal(trace.step_logits[t - 1], full[-1]), f"step {t}"
