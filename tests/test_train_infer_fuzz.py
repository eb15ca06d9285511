"""Seeded differential fuzz of the paper's claim: training attention under
the streaming mask with visibility-aware biases computes what cached
wait-k inference computes.

For every predicting row of a training sequence, the vectorized training
forward (``training.batch_forward_backward`` over a batch of one) under
``simul_mask`` and modified ALiBi must give the logits that cached ``simul_generate`` records for the
same prediction step, up to rounding: the two sides group their reductions
differently (training runs GEMMs over the whole sequence, inference one
GEMV per row over the cache), so they agree to a relative bound, not to the
bit.  Weights are scaled by 10 so attention is far from uniform and a wrong
visible set or bias shows.

Two ablations run as negative controls on the same cases: standard ALiBi
under the streaming mask (bias gaps where source keys are hidden) and the
plain causal mask (future source keys visible).  On every case whose mask
hides a source key from some predicting row, both must miss the cached
logits by far more than the bound, which shows the comparison can fail.
"""

import numpy as np

from simulbench.engine import GenerationMode, simul_generate
from simulbench.masks import (PromptLayout, TablePolicy, WaitKPolicy,
                              causal_mask, simul_mask)
from simulbench.model import ModelConfig, init_model
from simulbench.training import batch_forward_backward

CASES = 120
LAYER_COUNTS = (1, 2, 3)
HEAD_COUNTS = (1, 2, 4, 8, 16)
VOCAB = 24
WEIGHT_SCALE = 10
# worst measured relative miss over about 700 cases of this domain (several
# seeds): 5.6e-15 in float64 and 2.4e-6 in float32, so the bounds leave a
# margin of about 180x and 8x
BOUND = {np.float64: 1e-12, np.float32: 2e-5}
# every control case misses by at least this (smallest measured miss 4.2e-6,
# from standard ALiBi with a small slope and one hidden key), and the worst
# case by O(1)
CONTROL_FLOOR = 1e-9
CONTROL_WORST = 0.1
CONTROLS = (("simulmask", "standard"), ("causal", "standard"))


def training_mask(layout, policy, mask_mode):
    if mask_mode == "causal":
        return causal_mask(layout.total_len)
    return simul_mask(layout, policy)


def random_policy(rng, source_len, target_len):
    if rng.random() < 0.5:
        return WaitKPolicy(k=int(rng.integers(1, source_len + 3)),
                           source_len=source_len)
    reads = np.maximum.accumulate(
        rng.integers(1, source_len + 1, size=target_len))
    return TablePolicy(reads=tuple(int(r) for r in reads), source_len=source_len)


def tokens(rng, n):
    return [int(x) for x in rng.integers(1, VOCAB, size=n)]


def cases(seed):
    """(params, pre, src, mid, tgt, policy) over the exactness-fuzz domain,
    float32 weights scaled by WEIGHT_SCALE."""
    rng = np.random.default_rng(seed)
    for _ in range(CASES):
        cfg = ModelConfig(n_layers=int(rng.choice(LAYER_COUNTS)),
                          n_heads=int(rng.choice(HEAD_COUNTS)),
                          d_model=64, vocab_size=VOCAB,
                          seed=int(rng.integers(0, 1000)))
        base = init_model(cfg)
        params = base.with_tensors({
            name: arr * np.float32(WEIGHT_SCALE) if arr.ndim == 2 else arr
            for name, arr in base.tensors()})
        pre, mid = tokens(rng, int(rng.integers(1, 4))), tokens(
            rng, int(rng.integers(1, 4)))
        src = tokens(rng, int(rng.integers(1, 31)))
        tgt = tokens(rng, int(rng.integers(1, 31)))
        yield params, pre, src, mid, tgt, random_policy(rng, len(src), len(tgt))


def relative_miss(params, pre, src, mid, tgt, policy, inference,
                  mask_mode, bias_mode):
    """Largest |training - inference| over the predicting rows, relative to
    the largest |inference| logit."""
    layout = PromptLayout(len(pre), len(src), len(mid), len(tgt))
    rows = list(layout.predictor_rows())
    training = batch_forward_backward(
        params, [pre + src + mid + tgt], training_mask(layout, policy, mask_mode),
        bias_mode, rows).logits[0, rows]
    return float(np.abs(training - inference).max() / np.abs(inference).max())


def cached_step_logits(params, pre, src, mid, tgt, policy):
    _, trace = simul_generate(params, policy, pre, src, mid,
                              GenerationMode("cached"),
                              max_target_len=len(tgt), forced_target=tgt,
                              record_logits=True)
    return np.stack(trace.step_logits), trace


def check_leg(seed, dtype, controls):
    bound = BOUND[dtype]
    worst_control = dict.fromkeys(controls, 0.0)
    hiding = 0
    for case, (params, pre, src, mid, tgt, policy) in enumerate(cases(seed)):
        params = params.astype(dtype)
        inference, trace = cached_step_logits(params, pre, src, mid, tgt, policy)
        where = (f"case {case} ({params.config.n_layers} layers, "
                 f"{params.config.n_heads} heads, {policy.describe()})")
        miss = relative_miss(params, pre, src, mid, tgt, policy, inference,
                             "simulmask", "modified")
        assert miss <= bound, f"{where}: training misses inference by {miss}"
        if min(trace.d) == len(src):
            continue  # no source key hidden: the ablations change nothing
        hiding += 1
        for mask_mode, bias_mode in controls:
            miss = relative_miss(params, pre, src, mid, tgt, policy, inference,
                                 mask_mode, bias_mode)
            assert miss > CONTROL_FLOOR, (
                f"{where}: {mask_mode}/{bias_mode} control misses only by {miss}")
            key = mask_mode, bias_mode
            worst_control[key] = max(worst_control[key], miss)
    assert hiding >= CASES // 2
    for key, miss in worst_control.items():
        assert miss > CONTROL_WORST, f"{key} control misses at most by {miss}"


def test_training_matches_cached_inference_float64_with_controls():
    check_leg(20261018, np.float64, CONTROLS)


def test_training_matches_cached_inference_float32():
    check_leg(20261019, np.float32, ())
