import json
import os

import numpy as np
import pytest

from simulbench.alibi import alibi_slopes, head_biases
from simulbench.errors import (CacheCoherenceError, ConfigError, DataError,
                               NumericError, ShapeError)
from simulbench.masks import (PromptLayout, Region, WaitKPolicy, causal_mask,
                              simul_mask)
from simulbench.model import (CacheTag, FlopCounter, KVCache, ModelConfig,
                              forward_full, forward_incremental, init_model,
                              load_params, save_params)

CFG = ModelConfig(n_layers=2, n_heads=4, d_model=32, vocab_size=12, seed=0)


def causal_biases(cfg, length):
    return head_biases(causal_mask(length), alibi_slopes(cfg.n_heads), "modified")


def tagged(tokens, layout):
    out = []
    for i, tok in enumerate(tokens):
        region, idx = layout.region_of(i)
        out.append((tok, CacheTag(region, idx)))
    return out


def rewrite_checkpoint(path, edit_header, extra_bytes=b""):
    """Rewrite a saved checkpoint's JSON header and append ``extra_bytes``."""
    data = open(path, "rb").read()
    line, _, body = data.partition(b"\n")
    header = json.loads(line)
    edit_header(header)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n" + body + extra_bytes)


class TestInit:
    def test_deterministic(self):
        a = init_model(CFG)
        b = init_model(CFG)
        for (na, ta), (nb, tb) in zip(a.tensors(), b.tensors()):
            assert na == nb
            assert np.array_equal(ta, tb)

    def test_seed_sensitivity(self):
        a = init_model(CFG)
        b = init_model(ModelConfig(n_layers=2, n_heads=4, d_model=32,
                                   vocab_size=12, seed=1))
        assert any(not np.array_equal(ta, tb)
                   for (_, ta), (_, tb) in zip(a.tensors(), b.tensors()))

    def test_shapes(self):
        params = init_model(CFG)
        d, v = CFG.d_model, CFG.vocab_size
        want = {"embed": (v, d), "lnf_g": (d,), "lnf_b": (d,), "w_out": (d, v)}
        for i in range(CFG.n_layers):
            for name in ("wq", "wk", "wv", "wo"):
                want[f"layers.{i}.{name}"] = (d, d)
            want[f"layers.{i}.w1"] = (d, 4 * d)
            want[f"layers.{i}.w2"] = (4 * d, d)
            for name in ("ln1_g", "ln1_b", "ln2_g", "ln2_b"):
                want[f"layers.{i}.{name}"] = (d,)
        got = {name: arr.shape for name, arr in params.tensors()}
        assert got == want

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_heads=3)
        with pytest.raises(ConfigError):
            ModelConfig(d_model=30, n_heads=4)
        with pytest.raises(ConfigError):
            ModelConfig(n_layers=0)


class TestForwardFull:
    def test_single_token_ignores_bias_content(self):
        params = init_model(CFG)
        mask = causal_mask(1)
        b1 = causal_biases(CFG, 1)
        out1 = forward_full(params, [3], mask, b1)
        # any admissible 1x1 bias gives the same logits (single entry is 0)
        assert out1.shape == (1, CFG.vocab_size)

    def test_causal_edit_after_i_invariance(self):
        params = init_model(CFG)
        tokens = [1, 2, 3, 4, 5]
        mask = causal_mask(5)
        biases = causal_biases(CFG, 5)
        base = forward_full(params, tokens, mask, biases)
        edited = forward_full(params, [1, 2, 3, 9, 9], mask, biases)
        assert np.array_equal(base[:3], edited[:3])
        assert not np.array_equal(base[3:], edited[3:])

    def test_shape_errors(self):
        params = init_model(CFG)
        with pytest.raises(ShapeError):
            forward_full(params, [1, 2], causal_mask(3), causal_biases(CFG, 3))
        with pytest.raises(ShapeError):
            forward_full(params, [1, 2, 3], causal_mask(3),
                         causal_biases(CFG, 3)[:2])
        with pytest.raises(ShapeError):
            forward_full(params, [1, 99], causal_mask(2), causal_biases(CFG, 2))


class TestForwardIncremental:
    def test_single_token_matches_full(self):
        params = init_model(CFG)
        cache = KVCache(CFG.n_layers)
        logits, _ = forward_incremental(
            params, cache, [(5, CacheTag(Region.PRE_PROMPT, 0))])
        full = forward_full(params, [5], causal_mask(1), causal_biases(CFG, 1))
        assert np.array_equal(logits, full)

    def test_full_ingestion_matches_full_forward_exactly(self):
        params = init_model(CFG)
        layout = PromptLayout(2, 4, 1, 3)
        tokens = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        cache = KVCache(CFG.n_layers)
        inc, _ = forward_incremental(params, cache, tagged(tokens, layout))
        full = forward_full(params, tokens, causal_mask(10),
                            causal_biases(CFG, 10))
        assert np.array_equal(inc, full)

    def test_interleaved_ingestion_matches_simul_mask_forward(self):
        params = init_model(CFG)
        layout = PromptLayout(1, 5, 1, 4)
        pol = WaitKPolicy(k=2, source_len=5)
        tokens = [1, 3, 4, 5, 6, 7, 2, 8, 9, 10, 11]
        mask = simul_mask(layout, pol)
        biases = head_biases(mask, alibi_slopes(CFG.n_heads), "modified")
        full = forward_full(params, tokens, mask, biases)

        cache = KVCache(CFG.n_layers)
        step_logits = {}
        feed = lambda seq: forward_incremental(params, cache, seq)[0]
        feed([(tokens[0], CacheTag(Region.PRE_PROMPT, 0))])
        feed([(tokens[1 + j], CacheTag(Region.SOURCE, j)) for j in range(2)])
        step_logits[layout.predictor_row(1)] = feed(
            [(tokens[6], CacheTag(Region.MID_PROMPT, 0))])[-1]
        reads = 2
        for t in range(2, 5):
            goal = pol.cumulative_reads(t)
            if goal > reads:
                feed([(tokens[1 + j], CacheTag(Region.SOURCE, j))
                      for j in range(reads, goal)])
                reads = goal
            step_logits[layout.predictor_row(t)] = feed(
                [(tokens[layout.target_start + t - 2],
                  CacheTag(Region.TARGET, t - 2))])[-1]
        for row, logits in step_logits.items():
            assert np.abs(logits - full[row]).max() < 1e-4

    def test_cache_permutation_bit_identical(self):
        params = init_model(CFG)
        layout = PromptLayout(1, 4, 1, 3)
        tokens = [1, 3, 4, 5, 6, 2, 7, 8, 9]
        ref_cache = KVCache(CFG.n_layers)
        forward_incremental(params, ref_cache, tagged(tokens[:6], layout))
        shuffled = KVCache(CFG.n_layers)
        forward_incremental(params, shuffled, tagged(tokens[:6], layout))
        shuffled.permute_storage([5, 3, 1, 0, 4, 2])
        probe = [(7, CacheTag(Region.TARGET, 0))]
        a, _ = forward_incremental(params, ref_cache, probe)
        b, _ = forward_incremental(params, shuffled, probe)
        assert np.array_equal(a, b)

    def test_tag_order_violation(self):
        params = init_model(CFG)
        cache = KVCache(CFG.n_layers)
        forward_incremental(params, cache, [(1, CacheTag(Region.SOURCE, 0))])
        with pytest.raises(CacheCoherenceError):
            forward_incremental(params, cache, [(2, CacheTag(Region.SOURCE, 2))])
        with pytest.raises(CacheCoherenceError):
            forward_incremental(params, cache, [(2, CacheTag(Region.SOURCE, 0))])

    @pytest.mark.parametrize("failure", ["bad tag", "nan query weights"])
    def test_rejected_call_leaves_cache_unchanged(self, failure):
        # the rejected call is big enough to grow the cache's buffers; it
        # fails validation at its last token, or inside the row engine
        # (NaN queries leave a row with no finite score, only NaN ones)
        params = init_model(CFG)
        layout = PromptLayout(1, 60, 1, 2)
        tokens = [1] + [int(t) for t in
                        np.random.default_rng(0).integers(1, 12, size=63)]
        items = tagged(tokens, layout)
        prefix, more = items[:11], items[11:61]
        probe = [(7, CacheTag(Region.SOURCE, 10))]
        ref = KVCache(CFG.n_layers)
        forward_incremental(params, ref, prefix)
        want, _ = forward_incremental(params, ref, probe)

        cache = KVCache(CFG.n_layers)
        forward_incremental(params, cache, prefix)
        if failure == "bad tag":
            more[-1] = (more[-1][0], CacheTag(Region.SOURCE, 99))
            with pytest.raises(CacheCoherenceError):
                forward_incremental(params, cache, more)
        else:
            bad = params.with_tensors(dict(
                params.as_dict(),
                **{"layers.1.wq": np.full_like(params.layers[1].wq, np.nan)}))
            with pytest.raises(NumericError):
                forward_incremental(bad, cache, more)
        assert len(cache) == 11
        assert cache.counts == [1, 10, 0, 0]
        got, _ = forward_incremental(params, cache, probe)
        assert np.array_equal(got, want)

    def test_source_ingestion_ignores_later_regions(self):
        # appending a source token after targets exist must not change its
        # representation vs ingesting it before them
        params = init_model(CFG)
        layout = PromptLayout(1, 3, 1, 2)

        early = KVCache(CFG.n_layers)
        forward_incremental(params, early, [(1, CacheTag(Region.PRE_PROMPT, 0))])
        forward_incremental(params, early, [(4, CacheTag(Region.SOURCE, 0)),
                                            (5, CacheTag(Region.SOURCE, 1))])
        logits_early, _ = forward_incremental(
            params, early, [(6, CacheTag(Region.SOURCE, 2))])

        late = KVCache(CFG.n_layers)
        forward_incremental(params, late, [(1, CacheTag(Region.PRE_PROMPT, 0))])
        forward_incremental(params, late, [(4, CacheTag(Region.SOURCE, 0)),
                                           (5, CacheTag(Region.SOURCE, 1))])
        forward_incremental(params, late, [(2, CacheTag(Region.MID_PROMPT, 0))])
        forward_incremental(params, late, [(7, CacheTag(Region.TARGET, 0))])
        logits_late, _ = forward_incremental(
            params, late, [(6, CacheTag(Region.SOURCE, 2))])
        assert np.array_equal(logits_early, logits_late)

    @pytest.mark.parametrize("scheme", ["rank", "stale"])
    def test_mixed_call_matches_split_calls(self, scheme):
        # one call holding a step's new source tokens and the last target
        # token gives each row the logits and the FLOPs of two calls
        params = init_model(CFG)
        start = [(1, CacheTag(Region.PRE_PROMPT, 0)),
                 (4, CacheTag(Region.SOURCE, 0)),
                 (2, CacheTag(Region.MID_PROMPT, 0))]
        sources = [(5, CacheTag(Region.SOURCE, 1)),
                   (6, CacheTag(Region.SOURCE, 2))]
        target = [(7, CacheTag(Region.TARGET, 0))]
        split, mixed = KVCache(CFG.n_layers), KVCache(CFG.n_layers)
        for cache in (split, mixed):
            forward_incremental(params, cache, start, bias_scheme=scheme)
        read, write = FlopCounter(), FlopCounter()
        src_logits, _ = forward_incremental(params, split, sources, scheme,
                                            [read, read])
        tgt_logits, _ = forward_incremental(params, split, target, scheme,
                                            [write])
        both = FlopCounter(), FlopCounter()
        logits, _ = forward_incremental(params, mixed, sources + target,
                                        scheme, [both[0], both[0], both[1]])
        assert np.array_equal(logits, np.concatenate([src_logits, tgt_logits]))
        assert [(c.total, c.kv_rows) for c in both] == [
            (read.total, read.kv_rows), (write.total, write.kv_rows)]
        assert np.array_equal(mixed.order[:6], split.order[:6])
        with pytest.raises(ShapeError):
            forward_incremental(params, mixed, target, scheme, [])
        assert len(mixed) == 6

    def test_causal_prefix_consistency(self):
        params = init_model(CFG)
        tokens = [1, 2, 3, 4, 5, 6]
        full = forward_full(params, tokens, causal_mask(6), causal_biases(CFG, 6))
        prefix = forward_full(params, tokens[:4], causal_mask(4),
                              causal_biases(CFG, 4))
        assert np.array_equal(full[:4], prefix)

    def test_stale_scheme_matches_rank_in_canonical_order(self):
        # when arrival order equals canonical order, frozen absolute
        # positions and visible-rank distances coincide exactly
        params = init_model(CFG)
        layout = PromptLayout(2, 3, 1, 3)
        tokens = [1, 2, 3, 4, 5, 6, 7, 8, 9]
        a = KVCache(CFG.n_layers)
        rank_logits, _ = forward_incremental(params, a, tagged(tokens, layout),
                                             bias_scheme="rank")
        b = KVCache(CFG.n_layers)
        stale_logits, _ = forward_incremental(params, b, tagged(tokens, layout),
                                              bias_scheme="stale")
        assert np.array_equal(rank_logits, stale_logits)

    def test_stale_scheme_differs_after_interleaving(self):
        params = init_model(CFG)
        seq = [(1, CacheTag(Region.PRE_PROMPT, 0)),
               (4, CacheTag(Region.SOURCE, 0)),
               (2, CacheTag(Region.MID_PROMPT, 0)),
               (7, CacheTag(Region.TARGET, 0)),
               (5, CacheTag(Region.SOURCE, 1))]
        a = KVCache(CFG.n_layers)
        for item in seq:
            rank_logits, _ = forward_incremental(params, a, [item],
                                                 bias_scheme="rank")
        b = KVCache(CFG.n_layers)
        for item in seq:
            stale_logits, _ = forward_incremental(params, b, [item],
                                                  bias_scheme="stale")
        probe = [(8, CacheTag(Region.TARGET, 1))]
        ra, _ = forward_incremental(params, a, probe, bias_scheme="rank")
        rb, _ = forward_incremental(params, b, probe, bias_scheme="stale")
        assert not np.array_equal(ra, rb)

    def test_cache_tag_canonical_order(self):
        tags = [CacheTag(Region.TARGET, 0), CacheTag(Region.PRE_PROMPT, 1),
                CacheTag(Region.SOURCE, 2), CacheTag(Region.SOURCE, 0),
                CacheTag(Region.MID_PROMPT, 0)]
        ordered = sorted(tags)
        assert ordered == [CacheTag(Region.PRE_PROMPT, 1),
                           CacheTag(Region.SOURCE, 0),
                           CacheTag(Region.SOURCE, 2),
                           CacheTag(Region.MID_PROMPT, 0),
                           CacheTag(Region.TARGET, 0)]


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_model(CFG)
        path = os.path.join(tmp_path, "params.bin")
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.config == params.config
        for (na, ta), (nb, tb) in zip(params.tensors(), loaded.tensors()):
            assert na == nb
            assert np.array_equal(ta, tb)

    def test_byte_stable(self, tmp_path):
        params = init_model(CFG)
        p1 = os.path.join(tmp_path, "a.bin")
        p2 = os.path.join(tmp_path, "b.bin")
        save_params(params, p1)
        save_params(params, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestCheckpointErrors:
    def test_bad_checkpoint_rejected(self, tmp_path):
        import pytest as _pytest
        from simulbench.errors import DataError
        bad = os.path.join(tmp_path, "bad.bin")
        with open(bad, "w") as fh:
            fh.write("not a checkpoint\n")
        with _pytest.raises(DataError):
            load_params(bad)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        import pytest as _pytest
        from simulbench.errors import DataError
        params = init_model(CFG)
        path = os.path.join(tmp_path, "p.bin")
        save_params(params, path)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:len(data) - 64])
        with _pytest.raises(DataError):
            load_params(path)

    def _saved(self, tmp_path):
        path = os.path.join(tmp_path, "p.bin")
        save_params(init_model(CFG), path)
        return path

    def test_extra_tensor_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        size = CFG.d_model * CFG.vocab_size

        def add_tensor(header):
            end = sum(int(np.prod(t["shape"])) for t in header["tensors"])
            header["tensors"].append({"name": "w_extra",
                                      "shape": [CFG.d_model, CFG.vocab_size],
                                      "offset": end})

        rewrite_checkpoint(path, add_tensor, bytes(4 * size))
        with pytest.raises(DataError, match="tensors of its config"):
            load_params(path)

    def test_header_config_must_match_tensor_shapes(self, tmp_path):
        # a header claiming d_model=16 over 32-wide tensors
        path = self._saved(tmp_path)
        rewrite_checkpoint(path, lambda h: h["config"].update(d_model=16))
        with pytest.raises(DataError, match="shape"):
            load_params(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        rewrite_checkpoint(path, lambda h: None, b"garbage!")
        with pytest.raises(DataError, match="data bytes"):
            load_params(path)
