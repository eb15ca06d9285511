import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import simulbench
import simulbench.training
from simulbench.data import default_layout_builder, gen_synthetic
from simulbench.errors import ConfigError, DataError, NumericError, ShapeError
from simulbench.masks import PromptLayout, WaitKPolicy, causal_mask, simul_mask
from simulbench.model import ModelConfig, forward_full, init_model
from simulbench.training import (batch_forward_backward, clip_global_norm,
                                 fine_tune)

CFG = ModelConfig(n_layers=2, n_heads=4, d_model=32, vocab_size=12, seed=0)


def wait_k(k):
    return lambda source_len: WaitKPolicy(k=k, source_len=source_len)


def small_case(seed=0, s=5, t=4):
    """A batch of one sentence: (1, L) tokens, its layout, its wait-2
    streaming mask and its predicting rows."""
    rng = np.random.default_rng(seed)
    layout = PromptLayout(1, s, 1, t)
    tokens = ([1] + [int(x) for x in rng.integers(3, CFG.vocab_size, size=s)]
              + [2] + [int(x) for x in rng.integers(3, CFG.vocab_size, size=t - 1)]
              + [0])
    return (np.asarray([tokens]), layout, simul_mask(layout, WaitKPolicy(2, s)),
            np.asarray(layout.predictor_rows()))


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


class TestForwardBackward:
    def test_vectorized_matches_rowwise_forward(self):
        # both forwards take the same (mask, kind), for every pair that
        # fine_tune can pass, in float32 and float64; every returned array
        # has the parameters' dtype, and later calls leave earlier results
        # untouched
        tokens, layout, streaming, rows = small_case()
        results = []
        for dtype in (np.float32, np.float64):
            params = init_model(CFG).astype(dtype)
            for name, mask in (("simulmask", streaming),
                               ("causal", causal_mask(layout.total_len))):
                for kind in ("modified", "standard"):
                    fb = batch_forward_backward(params, tokens, mask, kind,
                                                rows)
                    arrays = [fb.logits, fb.dlogits, *fb.grads.values()]
                    assert all(arr.dtype == dtype for arr in arrays)
                    exact = forward_full(params, tokens[0], mask, kind)
                    assert np.abs(fb.logits[0] - exact).max() < 1e-4, (
                        f"{name}/{kind}")
                    results.append((fb, snapshot(fb)))
        for fb, ref in results:
            assert_same(fb, ref)

    def test_loss_masking_zero_gradients(self):
        params = init_model(CFG)
        tokens, layout, mask, rows = small_case()
        fb = batch_forward_backward(params, tokens, mask, "modified", rows)
        dlogits = fb.dlogits[0]
        non_predictors = [r for r in range(layout.total_len)
                          if r not in set(rows)]
        assert np.array_equal(dlogits[non_predictors],
                              np.zeros((len(non_predictors), CFG.vocab_size)))
        assert any((dlogits[r] != 0).any() for r in rows)

    def test_finite_difference_oracle(self):
        # central differences over ~1% of parameters, float64 for headroom
        params = init_model(CFG).astype(np.float64)
        tokens, layout, mask, rows = small_case(seed=3)
        fb = batch_forward_backward(params, tokens, mask, "modified", rows)
        rng = np.random.default_rng(0)
        h = 1e-5
        arrays = dict(params.tensors())
        checked = 0
        for name, arr in arrays.items():
            n_samples = max(1, arr.size // 100)
            for flat_idx in rng.choice(arr.size, size=n_samples, replace=False):
                orig = arr.flat[flat_idx]
                arr.flat[flat_idx] = orig + h
                up = batch_forward_backward(params.with_tensors(arrays),
                                            tokens, mask, "modified",
                                            rows).loss
                arr.flat[flat_idx] = orig - h
                down = batch_forward_backward(params.with_tensors(arrays),
                                              tokens, mask, "modified",
                                              rows).loss
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

    def test_loss_is_mean_cross_entropy_of_the_next_tokens(self):
        # the oracle: forward_full's logits sentence by sentence, labelled
        # with the token after each loss row, log-softmax written out
        params = init_model(CFG).astype(np.float64)
        _, layout, mask, rows = small_case(s=6, t=5)
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, CFG.vocab_size, size=(3, layout.total_len))
        want = 0.0
        for sentence in tokens:
            logits = forward_full(params, sentence, mask, "modified")[rows]
            peak = logits.max(axis=-1)
            log_z = peak + np.log(np.exp(logits - peak[:, None]).sum(axis=-1))
            picked = logits[np.arange(rows.size), sentence[rows + 1]]
            want += float(np.mean(log_z - picked))
        got = batch_forward_backward(params, tokens, mask, "modified",
                                     rows).loss
        assert abs(got - want) <= 1e-12

    def test_bad_loss_rows_and_token_ids_rejected(self):
        # every loss row needs a label, the token after it, and every token
        # id a row of the embedding (a negative one would wrap around)
        params = init_model(CFG)
        tokens, layout, mask, rows = small_case()
        last = layout.total_len - 1
        for bad in ([], [-1], [last], [0, last]):
            with pytest.raises(DataError):
                batch_forward_backward(params, tokens, mask, "modified",
                                       np.asarray(bad, dtype=int))
        for bad in (-1, CFG.vocab_size):
            edited = tokens.copy()
            edited[0, 2] = bad
            with pytest.raises(ShapeError):
                batch_forward_backward(params, edited, mask, "modified", rows)
        # whole counts only: a bool or a float is no token id or row, and
        # the message names it (a bool array's dtype names it)
        causal = causal_mask(4)
        for bad, named in (([[1, True, 3, 4]], "True"),
                           (np.ones((1, 4), dtype=bool), "bool"),
                           (np.ones((1, 4)), "float64")):
            with pytest.raises(ShapeError, match=named):
                batch_forward_backward(params, bad, causal, "modified", [0, 1])
        for bad, named in (([1.5], "1.5"), ([True], "True")):
            with pytest.raises(DataError, match=named):
                batch_forward_backward(params, [[1, 2, 3, 4]], causal,
                                       "modified", bad)

    def test_mask_that_does_not_fit_the_tokens_rejected(self):
        # four tokens need a 4x4 mask; any other fails as forward_full
        # fails, before any work
        params = init_model(CFG)
        for n in (3, 5):
            with pytest.raises(ShapeError,
                               match=rf"^mask is {n}x{n}, sequence length 4$"):
                batch_forward_backward(params, [[1, 2, 3, 4]], causal_mask(n),
                                       "modified", [0, 1])

    def test_clip_global_norm(self):
        grads = {"a": np.full(4, 3.0), "b": np.full(9, 4.0)}
        norm = clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(np.sqrt(4 * 9 + 9 * 16))
        total = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
        assert total == pytest.approx(1.0)
        small = {"a": np.full(2, 0.1)}
        clip_global_norm(small, 1.0)
        assert np.allclose(small["a"], 0.1)


# one learning-smoke-shaped step (B=25, L=26, H16, d64) per dtype; prints a
# digest of the loss, the logits and every gradient
THREAD_PROBE = '''
import hashlib
import numpy as np
from simulbench.masks import PromptLayout, WaitKPolicy, simul_mask
from simulbench.model import ModelConfig, init_model
from simulbench.training import batch_forward_backward
layout = PromptLayout(1, 13, 1, 11)
mask = simul_mask(layout, WaitKPolicy(5, 13))
rows = np.asarray(layout.predictor_rows())
rng = np.random.default_rng(0)
tokens = rng.integers(0, 48, size=(25, layout.total_len))
for dtype in (np.float32, np.float64):
    params = init_model(ModelConfig(n_layers=2, n_heads=16, d_model=64,
                                    vocab_size=48, seed=0)).astype(dtype)
    fb = batch_forward_backward(params, tokens, mask, "modified", rows)
    arrays = [("loss", np.float64(fb.loss)), ("logits", fb.logits)]
    for name, arr in arrays + sorted(fb.grads.items()):
        print(dtype.__name__, name, hashlib.sha256(arr.tobytes()).hexdigest())
'''


def test_step_bytes_independent_of_blas_threads():
    # thread counts go only into the children's environments
    path = [os.path.dirname(os.path.dirname(simulbench.__file__))]
    path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    outputs = []
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(path))
        out = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=120).stdout.splitlines()
        # per dtype: loss, logits and the gradient of each of the 24
        # tensors of a two-layer model
        assert len(out) == 2 * (2 + 24)
        outputs.append(out)
    differ = [a.rsplit(" ", 1)[0] for a, b in zip(*outputs) if a != b]
    assert not differ, f"bytes differ between 1 and 2 BLAS threads: {differ}"


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
            dict(params.tensors(), w_out=np.full_like(params.w_out, np.nan)))
        with pytest.raises(NumericError, match="loss at step 1"):
            fine_tune(broken, self._corpus(), default_layout_builder, wait_k(2),
                      epochs=1, batch_size=4)

    def test_non_finite_gradient_norm_rejected(self):
        # huge output weights keep the loss finite, but the squared
        # gradients overflow float32
        params = init_model(CFG)
        broken = params.with_tensors(
            dict(params.tensors(), w_out=params.w_out * np.float32(1e25)))
        with pytest.raises(NumericError, match="gradient norm at step 1"), \
                np.errstate(over="ignore"):
            fine_tune(broken, self._corpus(), default_layout_builder, wait_k(2),
                      epochs=1, batch_size=4)

    def test_samples_per_epoch_equals_sentence_count(self, monkeypatch):
        # the steps of one epoch stack every sentence once
        stacked = []

        def spy(params, tokens, *args, **kwargs):
            stacked.append(len(tokens))
            return batch_forward_backward(params, tokens, *args, **kwargs)

        monkeypatch.setattr(simulbench.training, "batch_forward_backward", spy)
        params = init_model(CFG)
        corpus = self._corpus(n=9)
        result = fine_tune(params, corpus, default_layout_builder, wait_k(2),
                           epochs=2, learning_rate=0.1, batch_size=4)
        assert sum(stacked) == 2 * 9 and result.skipped == 0
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
        assert result.skipped == sum(
            default_layout_builder(pair)[1].total_len > 12 for pair in corpus)
        assert 1 <= result.skipped < 6
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

    def test_causal_standard_first_loss_is_the_batch_loss(self):
        # one step of the causal/standard phase: its loss is the batch's
        # summed loss under the causal mask and standard biases, over the
        # sentences in the order the seeded shuffle stacks them, per
        # sentence
        params = init_model(CFG)
        corpus = gen_synthetic("copy", 6, 5, 5, CFG.vocab_size, 0)
        result = fine_tune(params, corpus, default_layout_builder, None,
                           mask_mode="causal", bias_mode="standard", epochs=1,
                           batch_size=6, shuffle_seed=3)
        laid_out = [default_layout_builder(pair) for pair in corpus]
        layout = laid_out[0][1]
        order = np.random.default_rng(3).permutation(len(corpus))
        tokens = np.stack([np.asarray(laid_out[i][0]) for i in order])
        want = batch_forward_backward(
            params, tokens, causal_mask(layout.total_len), "standard",
            np.asarray(layout.predictor_rows())).loss
        assert result.loss_curve == [(1, want / len(corpus))]

    def test_empty_corpus_rejected(self):
        params = init_model(CFG)
        with pytest.raises(DataError):
            fine_tune(params, [], default_layout_builder, wait_k(1))

    def test_bad_settings_rejected(self, monkeypatch):
        # an unknown mask or bias mode, the streaming mask without a policy,
        # or a count that is not whole, fails before any step as a bad
        # batch size does, even when no step would run; so does a layout
        # token that is not whole
        steps = []
        monkeypatch.setattr(simulbench.training, "batch_forward_backward",
                            lambda *args, **kwargs: steps.append(args))
        params = init_model(CFG)
        for builder, settings in ((wait_k(1), {"batch_size": 0}),
                                  (wait_k(1), {"mask_mode": "banded"}),
                                  (wait_k(1), {"mask_mode": "banded",
                                               "epochs": 0}),
                                  (None, {"mask_mode": "simulmask"}),
                                  (wait_k(1), {"bias_mode": "banded"}),
                                  (wait_k(1), {"bias_mode": "bogus",
                                               "epochs": 0})):
            with pytest.raises(ConfigError):
                fine_tune(params, self._corpus(), default_layout_builder,
                          builder, **settings)
        for name, bad in (("epochs", 1.5), ("epochs", True),
                          ("batch_size", 2.5), ("max_seq_len", 2.5)):
            with pytest.raises(ConfigError, match=f"{name}: {bad!r}"):
                fine_tune(params, self._corpus(), default_layout_builder,
                          wait_k(1), **{name: bad})

        def bool_token_builder(pair):
            tokens, layout = default_layout_builder(pair)
            return tokens[:1] + [True] + tokens[2:], layout

        with pytest.raises(ShapeError, match="True"):
            fine_tune(params, self._corpus(), bool_token_builder, wait_k(1))
        assert steps == []

    def test_tokens_not_numbering_their_layout_rejected(self, monkeypatch):
        # a layout builder one token short, or one long, fails before any
        # step, even when no step would run, naming the sentence and both
        # lengths
        steps = []
        monkeypatch.setattr(simulbench.training, "batch_forward_backward",
                            lambda *args, **kwargs: steps.append(args))
        params = init_model(CFG)
        corpus = self._corpus()

        def off_by(extra):
            def builder(pair):
                tokens, layout = default_layout_builder(pair)
                if pair is corpus[3]:
                    tokens = tokens[:-1] if extra < 0 else tokens + [1]
                return tokens, layout
            return builder

        for extra in (-1, 1):
            length = default_layout_builder(corpus[3])[1].total_len
            for epochs in (0, 1):
                with pytest.raises(
                        DataError,
                        match=rf"^sentence 3: {length + extra} layout tokens, "
                              rf"layout length {length}$"):
                    fine_tune(params, corpus, off_by(extra), wait_k(1),
                              epochs=epochs)
        assert steps == []

    @pytest.mark.parametrize("setting", [
        {"learning_rate": float("nan")}, {"learning_rate": float("inf")}])
    def test_non_finite_step_settings_rejected(self, setting):
        # one batch, one step: nothing after the update would catch its NaNs
        params = init_model(CFG)
        with pytest.raises(ConfigError):
            fine_tune(params, self._corpus(n=4), default_layout_builder,
                      wait_k(1), epochs=1, batch_size=4, **setting)
