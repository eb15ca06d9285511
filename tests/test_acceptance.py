"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here, not calibrated elsewhere.
"""

import time

import numpy as np
import pytest

from simulbench.alibi import HeadSlopes, head_biases
from simulbench.data import (PRE_ID, SEP_ID, default_layout_builder,
                             gen_synthetic)
from simulbench.engine import (GenerationMode, prefix_expand, replay_visibility,
                               schedule_trace, simul_generate)
from simulbench.experiment import evaluate_sentence
from simulbench.masks import (AttentionMaskSpec, PromptLayout, TablePolicy,
                              WaitKPolicy, simul_mask)
from simulbench.metrics import FlopModel, flops_generate, laal, quality_proxy
from simulbench.model import ModelConfig, forward_full, init_model
from simulbench.training import (build_training_mask_and_bias, fine_tune,
                                 sentence_forward_backward)

from helpers import fit_loglog_exponent, hidden_beyond_causal

ACCEPTANCE_CONFIG = ModelConfig(n_layers=2, n_heads=4, d_model=64,
                                vocab_size=24, seed=0)


def report(n, desc, t0):
    print(f"ACCEPTANCE {n} PASS: {desc} ({time.perf_counter() - t0:.2f}s)")


def forced_generation(params, pol, src, tgt, mode, bias_scheme="rank"):
    return simul_generate(params, pol, [PRE_ID], src, [SEP_ID], mode,
                          max_target_len=len(tgt), forced_target=tgt,
                          record_logits=True, bias_scheme=bias_scheme)


def random_sentence(rng, vocab, s, t):
    src = [int(x) for x in rng.integers(3, vocab, size=s)]
    tgt = [int(x) for x in rng.integers(3, vocab, size=t)]
    return src, tgt


def test_acceptance_01_mask_exactness():
    t0 = time.perf_counter()
    layout = PromptLayout(1, 4, 1, 4)
    mask = simul_mask(layout, WaitKPolicy(1, 4))
    hidden = hidden_beyond_causal(mask)
    # p2 is row 5; t1, t2 rows 6, 7; s2..s4 are columns 2..4
    assert hidden == {(5, 2), (5, 3), (5, 4), (6, 3), (6, 4), (7, 4)}
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.05
    report(1, "wait-1 mask hides exactly the six cross-policy entries", t0)


def test_acceptance_02_bias_exactness():
    t0 = time.perf_counter()
    vis = np.tril(np.ones((4, 4), dtype=bool))
    vis[3, 1] = vis[3, 2] = False
    bias = head_biases(AttentionMaskSpec(vis), HeadSlopes((1.0,)))[0]
    assert bias[3, 0] == -1.0
    assert bias[3, 3] == 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.05
    report(2, "gap row biases collapse to {k1: -1, k4: 0}", t0)


def test_acceptance_03_central_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    cases = 0
    worst = 0.0
    while cases < 100:
        s = int(rng.integers(1, 25))
        t = int(rng.integers(1, 25))
        k = int(rng.integers(1, 8))
        cfg = ModelConfig(n_layers=2, n_heads=4, d_model=64, vocab_size=24,
                          seed=int(rng.integers(0, 1000)))
        params = init_model(cfg)
        src, tgt = random_sentence(rng, cfg.vocab_size, s, t)
        layout = PromptLayout(1, s, 1, t)
        pol = WaitKPolicy(k, s)
        mask = simul_mask(layout, pol)
        full = forward_full(params, [PRE_ID] + src + [SEP_ID] + tgt, mask,
                            "modified")
        _, trace = forced_generation(params, pol, src, tgt,
                                     GenerationMode("cached"))
        rows = layout.predictor_rows()
        for i, logits in enumerate(trace.step_logits):
            worst = max(worst, float(np.abs(logits - full[rows[i]]).max()))
        cases += 1
    assert worst < 1e-4, f"max-abs logit difference {worst}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(3, f"{cases} cached runs match full forwards (max diff {worst:.2e})",
           t0)


def test_acceptance_04_stale_bias_negative_control():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    diverged = 0
    total = 30
    for _ in range(total):
        s = int(rng.integers(12, 22))
        t = int(rng.integers(8, 16))
        cfg = ModelConfig(n_layers=2, n_heads=4, d_model=64, vocab_size=24,
                          seed=int(rng.integers(0, 1000)))
        params = init_model(cfg)
        src, tgt = random_sentence(rng, cfg.vocab_size, s, t)
        pol = WaitKPolicy(1, s)
        _, stale = forced_generation(params, pol, src, tgt,
                                     GenerationMode("cached"),
                                     bias_scheme="stale")
        _, rec = forced_generation(params, pol, src, tgt,
                                   GenerationMode("recompute"))
        div = max(float(np.abs(a - b).max())
                  for a, b in zip(stale.step_logits, rec.step_logits))
        diverged += div > 1e-2
    assert diverged >= 0.9 * total, f"only {diverged}/{total} cases diverged"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    report(4, f"stale-position biases diverge in {diverged}/{total} k=1 cases",
           t0)


def test_acceptance_05_replay_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    checked_rows = 0
    for _ in range(500):
        layout = PromptLayout(int(rng.integers(1, 4)), int(rng.integers(1, 16)),
                              int(rng.integers(1, 4)), int(rng.integers(1, 14)))
        if rng.random() < 0.5:
            pol = WaitKPolicy(int(rng.integers(1, layout.source_len + 3)),
                              layout.source_len)
        else:
            reads = np.maximum.accumulate(
                rng.integers(1, layout.source_len + 1, size=layout.target_len))
            pol = TablePolicy(reads=tuple(int(r) for r in reads),
                              source_len=layout.source_len)
        trace = schedule_trace(pol, layout)
        mask = simul_mask(layout, pol)
        replay = replay_visibility(trace, layout)
        for row, cols in replay.items():
            assert cols == frozenset(np.flatnonzero(mask.visible[row]).tolist())
            checked_rows += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    report(5, f"500 replayed schedules match mask rows ({checked_rows} rows)", t0)


def test_acceptance_06_prefix_counting():
    t0 = time.perf_counter()
    for s in range(1, 21):
        for t in range(1, 21):
            for k in range(1, 21):
                pairs = prefix_expand(list(range(s)), list(range(t)), k)
                assert len(pairs) == max(s - (k - 1), t)
                assert pairs[-1] == (list(range(s)), list(range(t)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    report(6, "pair counts equal max(|S|-(k-1), |T|) for all values <= 20", t0)


def test_acceptance_07_compute_ordering():
    t0 = time.perf_counter()
    run_config = ModelConfig(n_layers=2, n_heads=4, d_model=64, vocab_size=32,
                             seed=5)
    fm = FlopModel(run_config)
    # 200 sentences, source lengths 5..25 (mean 15), copy-style targets
    corpus = gen_synthetic("copy", 200, 5, 25, 32, 11)
    cached_mode = GenerationMode("cached")
    rec_mode = GenerationMode("recompute")
    lengths, rec_cat, init_cat = [], [], []
    for pair in corpus:
        layout = PromptLayout(1, len(pair.source), 1, len(pair.target) + 1)
        pol = WaitKPolicy(3, len(pair.source))
        trace = schedule_trace(pol, layout)
        rep_c = flops_generate(trace, fm, cached_mode)
        rep_r = flops_generate(trace, fm, rec_mode)
        n_predictions = len(trace.writes())
        if n_predictions >= 2:
            assert rep_c.total < rep_r.total
        lengths.append(len(pair.source) + len(pair.target))
        rec_cat.append(rep_r.recompute)
        init_cat.append(rep_r.initial)
    exp_rec = fit_loglog_exponent(lengths, rec_cat)
    exp_init = fit_loglog_exponent(lengths, init_cat)
    assert exp_rec > 1.5, f"recompute exponent {exp_rec}"
    assert exp_init < 1.2, f"initial exponent {exp_init}"

    # analytic accounting matches the engine's shadow counters end to end
    params = init_model(run_config)
    for pair in corpus[:5]:
        for mode in (cached_mode, rec_mode):
            _, trace = simul_generate(
                params, WaitKPolicy(3, len(pair.source)), [PRE_ID],
                list(pair.source), [SEP_ID], mode,
                max_target_len=len(pair.target), forced_target=pair.target)
            assert flops_generate(trace, fm, mode).total == sum(trace.flop_log)

    # prefix-expansion step count vs one step per sentence at k=3
    prefix_steps = sum(len(prefix_expand(p.source, p.target, 3))
                       for p in corpus)
    assert prefix_steps >= 3 * len(corpus), f"{prefix_steps} prefix steps"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(7, f"cached<recompute per sentence; exponents {exp_rec:.2f}/"
              f"{exp_init:.2f}; prefix steps x{prefix_steps / len(corpus):.1f}",
           t0)


def test_acceptance_08_gradient_correctness():
    t0 = time.perf_counter()
    params = init_model(ACCEPTANCE_CONFIG).astype(np.float64)
    rng = np.random.default_rng(13)
    src, tgt = random_sentence(rng, 24, 7, 5)
    layout = PromptLayout(1, 7, 1, 6)
    tokens = [PRE_ID] + src + [SEP_ID] + tgt + [0]
    mask, bias = build_training_mask_and_bias(
        layout, WaitKPolicy(2, 7), "simulmask", "modified",
        ACCEPTANCE_CONFIG.n_heads)
    rows = np.asarray(layout.predictor_rows())
    labels = np.asarray([tokens[r + 1] for r in rows])
    fb = sentence_forward_backward(params, tokens, mask, bias, rows, labels)
    arrays = dict(params.tensors())
    h = 1e-5
    worst = 0.0
    checked = 0
    for name, arr in arrays.items():
        for flat in rng.choice(arr.size, size=max(1, arr.size // 100),
                               replace=False):
            orig = arr.flat[flat]
            arr.flat[flat] = orig + h
            up = sentence_forward_backward(params.with_tensors(arrays), tokens,
                                           mask, bias, rows, labels,
                                           want_grads=False).loss
            arr.flat[flat] = orig - h
            down = sentence_forward_backward(params.with_tensors(arrays),
                                             tokens, mask, bias, rows, labels,
                                             want_grads=False).loss
            arr.flat[flat] = orig
            numeric = (up - down) / (2 * h)
            analytic = fb.grads[name].flat[flat]
            denom = max(abs(numeric), abs(analytic))
            if denom < 1e-8:
                continue
            rel = abs(numeric - analytic) / denom
            worst = max(worst, rel)
            checked += 1
            assert rel < 1e-3, f"{name}[{flat}]: rel err {rel}"
    assert checked > 100
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(8, f"{checked} sampled gradients within 1e-3 (worst {worst:.1e})", t0)


@pytest.mark.slow
def test_acceptance_09_learning_smoke():
    t0 = time.perf_counter()
    corpus = gen_synthetic("shift(2)", 500, 8, 16, 48, 0)
    accs = []
    for seed in range(5):
        params = init_model(ModelConfig(n_layers=2, n_heads=16, d_model=64,
                                        vocab_size=48, seed=seed))
        # offline base first (mirrors fine-tuning a pretrained model), then
        # the streaming mask + visibility-aware biases at wait-5
        base = fine_tune(params, corpus, default_layout_builder, None,
                         mask_mode="causal", bias_mode="standard", epochs=80,
                         learning_rate=0.5, batch_size=25, shuffle_seed=seed)
        tuned = fine_tune(base.params, corpus, default_layout_builder,
                          lambda source_len: WaitKPolicy(5, source_len),
                          mask_mode="simulmask", bias_mode="modified",
                          epochs=8, learning_rate=0.15, batch_size=25,
                          shuffle_seed=seed + 500)
        hyps, refs = [], []
        for pair in corpus:
            hyp, _ = evaluate_sentence(tuned.params, pair, 3,
                                       GenerationMode("cached"), 22)
            hyps.append(hyp)
            refs.append(list(pair.target))
        acc = quality_proxy(hyps, refs).token_accuracy
        accs.append(acc)
        print(f"  seed {seed}: token accuracy at k=3: {acc:.4f}")
    mean_acc = float(np.mean(accs))
    elapsed = time.perf_counter() - t0
    assert mean_acc >= 0.9, f"mean accuracy {mean_acc:.4f}"
    assert elapsed < 600
    report(9, f"wait-5 trained, wait-3 cached eval: mean accuracy "
              f"{mean_acc:.3f} over 5 seeds", t0)


def test_acceptance_10_laal_sanity():
    t0 = time.perf_counter()
    for k in range(1, 8):
        for n in (8, 12, 20, 32):
            layout = PromptLayout(1, n, 1, n)
            trace = schedule_trace(WaitKPolicy(k, n), layout)
            assert laal(trace, n, n, n) == pytest.approx(float(k))
    for n in (4, 9, 17):
        layout = PromptLayout(1, n, 1, n)
        trace = schedule_trace(WaitKPolicy(n + 5, n), layout)
        assert laal(trace, n, n, n) == pytest.approx(float(n))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1
    report(10, "perfect wait-k traces give laal = k; offline traces give |S|",
           t0)
