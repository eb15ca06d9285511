import warnings

import numpy as np
import pytest

from simulbench.alibi import alibi_slopes, head_biases
from simulbench.data import default_layout_builder, gen_synthetic
from simulbench.errors import ConfigError, DataError, NumericError
from simulbench.masks import PromptLayout, WaitKPolicy
from simulbench.model import ModelConfig, forward_full, init_model
from simulbench.training import (_Workspace, batch_forward_backward,
                                 build_training_mask_and_bias, clip_global_norm,
                                 fine_tune, sentence_forward_backward,
                                 sentence_logits)

CFG = ModelConfig(n_layers=2, n_heads=4, d_model=32, vocab_size=12, seed=0)


def wait_k(k):
    return lambda source_len: WaitKPolicy(k=k, source_len=source_len)


def small_case(seed=0, s=5, t=4):
    rng = np.random.default_rng(seed)
    layout = PromptLayout(1, s, 1, t)
    tokens = ([1] + [int(x) for x in rng.integers(3, CFG.vocab_size, size=s)]
              + [2] + [int(x) for x in rng.integers(3, CFG.vocab_size, size=t - 1)]
              + [0])
    mask, bias = build_training_mask_and_bias(
        layout, WaitKPolicy(2, s), "simulmask", "modified", CFG.n_heads)
    rows = np.asarray(layout.predictor_rows())
    labels = np.asarray([tokens[r + 1] for r in rows])
    return tokens, layout, mask, bias, rows, labels


class TestForwardBackward:
    def test_vectorized_matches_rowwise_forward(self):
        params = init_model(CFG)
        tokens, layout, mask, bias, rows, labels = small_case()
        fast = sentence_logits(params, tokens, mask, bias)
        biases = head_biases(mask, alibi_slopes(CFG.n_heads), "modified")
        exact = forward_full(params, tokens, mask, biases)
        assert np.abs(fast - exact).max() < 1e-4

    def test_loss_masking_zero_gradients(self):
        params = init_model(CFG)
        tokens, layout, mask, bias, rows, labels = small_case()
        fb = sentence_forward_backward(params, tokens, mask, bias, rows, labels)
        non_predictors = [r for r in range(len(tokens)) if r not in set(rows)]
        assert np.array_equal(fb.dlogits[non_predictors],
                              np.zeros((len(non_predictors), CFG.vocab_size)))
        assert any((fb.dlogits[r] != 0).any() for r in rows)

    def test_finite_difference_oracle(self):
        # central differences over ~1% of parameters, float64 for headroom
        params = init_model(CFG).astype(np.float64)
        tokens, layout, mask, bias, rows, labels = small_case(seed=3)
        fb = sentence_forward_backward(params, tokens, mask, bias, rows, labels)
        rng = np.random.default_rng(0)
        h = 1e-5
        arrays = params.as_dict()
        checked = 0
        for name, arr in arrays.items():
            n_samples = max(1, arr.size // 100)
            for flat_idx in rng.choice(arr.size, size=n_samples, replace=False):
                orig = arr.flat[flat_idx]
                arr.flat[flat_idx] = orig + h
                up = sentence_forward_backward(params.with_tensors(arrays),
                                               tokens, mask, bias, rows, labels,
                                               want_grads=False).loss
                arr.flat[flat_idx] = orig - h
                down = sentence_forward_backward(params.with_tensors(arrays),
                                                 tokens, mask, bias, rows, labels,
                                                 want_grads=False).loss
                arr.flat[flat_idx] = orig
                numeric = (up - down) / (2 * h)
                analytic = fb.grads[name].flat[flat_idx]
                denom = max(abs(numeric), abs(analytic))
                if denom < 1e-8:
                    continue
                assert abs(numeric - analytic) / denom < 1e-3, (
                    f"{name}[{flat_idx}]: analytic {analytic} vs numeric {numeric}")
                checked += 1
        assert checked > 50

    def test_clip_global_norm(self):
        grads = {"a": np.full(4, 3.0), "b": np.full(9, 4.0)}
        norm = clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(np.sqrt(4 * 9 + 9 * 16))
        total = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
        assert total == pytest.approx(1.0)
        small = {"a": np.full(2, 0.1)}
        clip_global_norm(small, 1.0)
        assert np.allclose(small["a"], 0.1)


def snapshot(fb):
    return (fb.loss, fb.logits.copy(), fb.dlogits.copy(),
            {name: g.copy() for name, g in fb.grads.items()})


def assert_same(fb, ref):
    loss, logits, dlogits, grads = ref
    assert fb.loss == loss
    assert np.array_equal(fb.logits, logits)
    assert np.array_equal(fb.dlogits, dlogits)
    assert fb.grads.keys() == grads.keys()
    for name in grads:
        assert np.array_equal(fb.grads[name], grads[name]), name


class TestWorkspace:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reuse_matches_fresh_and_never_aliases(self, dtype):
        # one workspace serves a long layout, a short one, then the long one
        # with another batch size: every call equals a fresh-workspace call,
        # and later calls leave earlier results untouched
        params = init_model(CFG).astype(dtype)
        rng = np.random.default_rng(0)
        calls = []
        for (s, t), batch in (((9, 8), 5), ((3, 2), 3), ((9, 8), 4)):
            _, layout, mask, bias, rows, _ = small_case(s=s, t=t)
            tokens = rng.integers(3, CFG.vocab_size, size=(batch, layout.total_len))
            labels = rng.integers(3, CFG.vocab_size, size=(batch, rows.size))
            calls.append((tokens, mask, bias, rows, labels))
        workspace = _Workspace()
        results = []
        for args in calls:
            fb = batch_forward_backward(params, *args, _workspace=workspace)
            assert fb.logits.dtype == dtype
            assert_same(fb, snapshot(batch_forward_backward(params, *args)))
            results.append((fb, snapshot(fb)))
        for fb, ref in results:
            assert_same(fb, ref)


class TestFineTune:
    def _corpus(self, n=12, seed=0):
        return gen_synthetic("copy", n, 4, 7, CFG.vocab_size, seed)

    def test_zero_learning_rate_keeps_params(self):
        params = init_model(CFG)
        result = fine_tune(params, self._corpus(), default_layout_builder,
                           wait_k(2), epochs=1, learning_rate=0.0, batch_size=4)
        for (_, a), (_, b) in zip(params.tensors(), result.params.tensors()):
            assert np.array_equal(a, b)

    def test_descent_on_copy_task(self):
        # averaged over seeds, the first small step lowers the batch loss
        deltas = []
        for seed in range(5):
            cfg = ModelConfig(n_layers=2, n_heads=4, d_model=32, vocab_size=12,
                              seed=seed)
            params = init_model(cfg)
            corpus = self._corpus(n=8, seed=seed)
            before = fine_tune(params, corpus, default_layout_builder, wait_k(2),
                               epochs=1, learning_rate=0.05, batch_size=8,
                               shuffle_seed=seed)
            after = fine_tune(before.params, corpus, default_layout_builder,
                              wait_k(2), epochs=1, learning_rate=0.0,
                              batch_size=8, shuffle_seed=seed)
            deltas.append(after.loss_curve[0][1] - before.loss_curve[0][1])
        assert np.mean(deltas) < 0

    def test_non_finite_loss_rejected(self):
        params = init_model(CFG)
        broken = params.with_tensors(
            dict(params.as_dict(), w_out=np.full_like(params.w_out, np.nan)))
        with pytest.raises(NumericError, match="loss at step 1"):
            fine_tune(broken, self._corpus(), default_layout_builder, wait_k(2),
                      epochs=1, batch_size=4)

    def test_non_finite_gradient_norm_rejected(self):
        # huge output weights keep the loss finite, but the squared
        # gradients overflow float32
        params = init_model(CFG)
        broken = params.with_tensors(
            dict(params.as_dict(), w_out=params.w_out * np.float32(1e25)))
        with pytest.raises(NumericError, match="gradient norm at step 1"), \
                np.errstate(over="ignore"):
            fine_tune(broken, self._corpus(), default_layout_builder, wait_k(2),
                      epochs=1, batch_size=4)

    def test_samples_per_epoch_equals_sentence_count(self):
        params = init_model(CFG)
        corpus = self._corpus(n=9)
        result = fine_tune(params, corpus, default_layout_builder, wait_k(2),
                           epochs=2, learning_rate=0.1, batch_size=4)
        assert result.samples_per_epoch == 9
        # batches are bucketed by sentence layout
        from collections import Counter
        sizes = Counter(len(p.source) for p in corpus)
        steps = sum(int(np.ceil(n / 4)) for n in sizes.values())
        assert len(result.loss_curve) == 2 * steps

    def test_overlong_sentences_skipped_with_warning(self):
        params = init_model(CFG)
        corpus = self._corpus(n=6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fine_tune(params, corpus, default_layout_builder, wait_k(2),
                               epochs=1, learning_rate=0.1, batch_size=4,
                               max_seq_len=12)
        assert result.skipped >= 1
        assert result.samples_per_epoch == 6 - result.skipped
        assert any("skipping" in str(w.message) for w in caught)

    def test_deterministic_for_fixed_seed(self):
        corpus = self._corpus(n=8)
        runs = []
        for _ in range(2):
            params = init_model(CFG)
            result = fine_tune(params, corpus, default_layout_builder, wait_k(2),
                               epochs=2, learning_rate=0.3, batch_size=3,
                               shuffle_seed=7)
            runs.append(result)
        assert runs[0].loss_curve == runs[1].loss_curve
        for (_, a), (_, b) in zip(runs[0].params.tensors(),
                                  runs[1].params.tensors()):
            assert np.array_equal(a, b)

    def test_empty_corpus_rejected(self):
        params = init_model(CFG)
        with pytest.raises(DataError):
            fine_tune(params, [], default_layout_builder, wait_k(1))

    def test_bad_settings_rejected(self):
        params = init_model(CFG)
        with pytest.raises(ConfigError):
            fine_tune(params, self._corpus(), default_layout_builder, wait_k(1),
                      batch_size=0)
