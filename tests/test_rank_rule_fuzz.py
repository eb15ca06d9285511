"""Seeded fuzz of visibility from read counts and of the one rank rule.

``simul_mask`` and ``realized_step_mask`` build visibility from a per-row
source frontier; here they are compared with the per-row loop they
replaced.  ``forward_full``'s and ``forward_incremental``'s bias blocks
are both read off the ladder ``rank_biases`` keeps per slope set, grown
only when a call needs a longer one.  Here the blocks are compared byte
for byte (so rank 0 stays -0.0) with ``head_biases``, with the explicit
formula ``-float32(slope) * rank`` and, on the incremental path, with the
per-token formulas written out, never with the kept ladder itself.
"""

import numpy as np
import pytest

from simulbench import engine, model
from simulbench.alibi import alibi_slopes, head_biases, visible_biases
from simulbench.engine import GenerationMode, realized_step_mask, simul_generate
from simulbench.errors import LayoutError, PolicyError
from simulbench.masks import PromptLayout, TablePolicy, WaitKPolicy, simul_mask
from simulbench.model import ModelConfig, init_model

CASES = 150
VOCAB = 24


def random_case(rng):
    """(pre_len, mid_len, source_len, target_len, policy)."""
    pre, mid = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    src, tgt = int(rng.integers(1, 31)), int(rng.integers(1, 31))
    if rng.random() < 0.5:
        policy = WaitKPolicy(k=int(rng.integers(1, src + 3)), source_len=src)
    else:
        reads = np.maximum.accumulate(rng.integers(1, src + 1, size=tgt))
        policy = TablePolicy(reads=tuple(int(r) for r in reads), source_len=src)
    return pre, mid, src, tgt, policy


def reference_simul_mask(layout, policy):
    """The per-row construction: hide each predictor row's unread source,
    and the earlier mid-prompt rows' source beyond f(1)."""
    vis = np.tril(np.ones((layout.total_len, layout.total_len), dtype=bool))
    s0, s_end = layout.source_start, layout.mid_start
    for t in range(1, layout.target_len + 1):
        vis[layout.predictor_row(t), s0 + policy.cumulative_reads(t):s_end] = False
    f1 = policy.cumulative_reads(1)
    for row in range(layout.mid_start, layout.target_start - 1):
        vis[row, s0 + f1:s_end] = False
    return vis


def reference_step_mask(pre, mid, d_history):
    """Step t's mask: causal at the first step, else the fine-tuning mask
    over the t-1 targets so far under the earlier read counts."""
    reads = d_history[-1]
    if len(d_history) == 1:
        return np.tril(np.ones((pre + reads + mid,) * 2, dtype=bool))
    layout = PromptLayout(pre, reads, mid, len(d_history) - 1)
    return reference_simul_mask(
        layout, TablePolicy(tuple(d_history[:-1]), source_len=reads))


def test_frontier_masks_match_per_row_reference():
    rng = np.random.default_rng(20261018)
    steps = 0
    for _ in range(CASES):
        pre, mid, src, tgt, policy = random_case(rng)
        layout = PromptLayout(pre, src, mid, tgt)
        mask = simul_mask(layout, policy)
        assert np.array_equal(mask.visible, reference_simul_mask(layout, policy))
        d = [policy.cumulative_reads(t) for t in range(1, tgt + 1)]
        for t in range(1, tgt + 1):
            step = realized_step_mask(pre, mid, d[:t])
            assert np.array_equal(step.visible,
                                  reference_step_mask(pre, mid, d[:t])), (
                f"{policy.describe()} pre={pre} mid={mid} step {t}")
            steps += 1
    assert steps > 1000


def reference_ranks(visible, rows, cols, kind):
    """Per entry: visible keys right of it in its row, or its distance."""
    if kind == "standard":
        return rows - cols
    return np.array([visible[i, j + 1:].sum() for i, j in zip(rows, cols)])


def test_rank_rule_block_is_head_biases_entries():
    rng = np.random.default_rng(20261019)
    for _ in range(CASES):
        pre, mid, src, tgt, policy = random_case(rng)
        mask = simul_mask(PromptLayout(pre, src, mid, tgt), policy)
        slopes = alibi_slopes(int(rng.choice([1, 2, 4, 8, 16])))
        scale = -np.asarray(slopes.slopes, dtype=np.float32)[:, None]
        rows, cols = np.nonzero(mask.visible)
        counts = np.bincount(rows, minlength=mask.rows)
        for kind in ("modified", "standard"):
            block = visible_biases(rows, cols, counts, slopes, kind)
            assert block.dtype == np.float32
            want = head_biases(mask, slopes, kind)[:, rows, cols]
            assert block.tobytes() == want.tobytes(), kind
            ranks = reference_ranks(mask.visible, rows, cols, kind)
            assert block.tobytes() == (scale * ranks.astype(np.float32)).tobytes()


@pytest.mark.parametrize("scheme", ["rank", "stale"])
def test_incremental_blocks_match_per_token_ladders(monkeypatch, scheme):
    # capture the bias block of every engine call, with the arrival numbers
    # of the cache rows it reads, and rebuild it token by token; every row
    # reads the cache prefix that ends at its own canonical row
    calls, caches = [], []
    engine_rows = model._forward_rows

    class Recorded(model.KVCache):
        def __init__(self):
            super().__init__()
            caches.append(self)

    def spy(params, tokens, kv, slots, visible, counts, offsets, bias, flops):
        cache, m = caches[-1], len(tokens)
        past = len(cache)  # the call's rows are not committed yet
        rows = np.arange(past + m)
        new = rows[slots]  # the canonical rows of the call's tokens
        arrival = np.empty(past + m, dtype=np.intp)
        arrival[new] = past + np.arange(m)
        arrival[np.setdiff1d(rows, new)] = sum(cache._arrivals, [])
        assert list(counts) == (new + 1).tolist()
        assert list(offsets) == [0] * m
        read = visible(rows[None, None, :, None])[0, 0, :, 0]
        assert read.tolist() == rows[:max(counts)].tolist()
        calls.append((past, arrival, list(counts), bias.copy()))
        return engine_rows(params, tokens, kv, slots, visible, counts,
                           offsets, bias, flops)

    monkeypatch.setattr(model, "_forward_rows", spy)
    monkeypatch.setattr(engine, "KVCache", Recorded)
    rng = np.random.default_rng(20261020)
    for _ in range(25):
        pre, mid, src, tgt, policy = random_case(rng)
        cfg = ModelConfig(n_layers=1, n_heads=int(rng.choice([1, 4, 16])),
                          d_model=16, vocab_size=VOCAB,
                          seed=int(rng.integers(0, 1000)))
        slopes = np.asarray(alibi_slopes(cfg.n_heads).slopes)[:, None]
        tokens = lambda n: [int(x) for x in rng.integers(1, VOCAB, size=n)]
        calls.clear()
        simul_generate(init_model(cfg), policy, tokens(pre), tokens(src),
                       tokens(mid), GenerationMode("cached"),
                       max_target_len=tgt, forced_target=tokens(tgt),
                       bias_scheme=scheme)
        assert len(calls) == tgt
        for past, arrival, counts, bias in calls:
            want = []
            for i, n in enumerate(counts):
                if scheme == "rank":
                    ranks = np.arange(n - 1, -1, -1, dtype=np.float32)
                    want.append(-np.float32(slopes) * ranks)
                else:
                    want.append(-np.float32(slopes)
                                * (past + i - arrival[:n]).astype(np.float32))
            assert bias.tobytes() == np.concatenate(want, axis=1).tobytes()


# (pre_len, mid_len, current read count) with an empty region: a
# LayoutError at the first step as at any later one
@pytest.mark.parametrize("pre, mid, reads",
                         [(1, 1, 0), (1, 1, -1), (1, 0, 2), (0, 1, 2)])
@pytest.mark.parametrize("earlier", [[], [1], [1, 1]])
def test_empty_region_fails_at_every_step(pre, mid, reads, earlier):
    with pytest.raises(LayoutError):
        realized_step_mask(pre, mid, earlier + [reads])


@pytest.mark.parametrize("d_history", [[2, 1], [0, 3], [1, 3, 2], [-1, 2]])
def test_decreasing_or_unread_history_is_a_policy_error(d_history):
    with pytest.raises(PolicyError):
        realized_step_mask(1, 1, d_history)
