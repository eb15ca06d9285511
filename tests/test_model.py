import json
import os
import tracemalloc

import numpy as np
import pytest

from simulbench import model
from simulbench.errors import (CacheCoherenceError, ConfigError, DataError,
                               NumericError, ShapeError)
from simulbench.masks import (PromptLayout, Region, WaitKPolicy, causal_mask,
                              simul_mask)
from simulbench.model import (FlopCounter, KVCache, ModelConfig, forward_full,
                              forward_incremental, init_model, load_params)

from helpers import region_of, rewrite_checkpoint, save_params

CFG = ModelConfig(n_layers=2, n_heads=4, d_model=32, vocab_size=12, seed=0)


def as_call(tokens, layout):
    """``tokens`` laid out by ``layout`` as one call: (tokens, per-region
    counts)."""
    added = [0] * len(Region)
    for i in range(len(tokens)):
        added[region_of(layout, i)[0]] += 1
    return list(tokens), added


def only(region, n=1):
    """Per-region counts of a call of ``n`` tokens, all in ``region``."""
    added = [0] * len(Region)
    added[region] = n
    return added


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

    @pytest.mark.parametrize("field, value", [
        ("d_model", 32.0), ("n_layers", True), ("vocab_size", "12"),
        ("n_heads", np.int64(4)), ("seed", 1.5), ("seed", -1)])
    def test_non_int_or_negative_seed_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ModelConfig(**{field: value})


class TestForwardFull:
    def test_single_token_ignores_bias_content(self):
        params = init_model(CFG)
        mask = causal_mask(1)
        out1 = forward_full(params, [3], mask, "modified")
        # either bias kind gives the same logits (the single entry is 0)
        assert out1.shape == (1, CFG.vocab_size)
        assert np.array_equal(out1, forward_full(params, [3], mask, "standard"))

    def test_causal_edit_after_i_invariance(self):
        params = init_model(CFG)
        tokens = [1, 2, 3, 4, 5]
        mask = causal_mask(5)
        base = forward_full(params, tokens, mask, "modified")
        edited = forward_full(params, [1, 2, 3, 9, 9], mask, "modified")
        assert np.array_equal(base[:3], edited[:3])
        assert not np.array_equal(base[3:], edited[3:])

    def test_shape_errors(self):
        params = init_model(CFG)
        with pytest.raises(ShapeError):
            forward_full(params, [1, 2], causal_mask(3), "modified")
        with pytest.raises(ConfigError):
            forward_full(params, [1, 2, 3], causal_mask(3), "other")
        with pytest.raises(ShapeError):
            forward_full(params, [1, 99], causal_mask(2), "modified")
        for bad in ([1, 2.5], [True], [1, np.bool_(True)]):
            with pytest.raises(ShapeError, match="integers"):
                forward_full(params, bad, causal_mask(len(bad)), "modified")


class TestForwardIncremental:
    def test_single_token_matches_full(self):
        params = init_model(CFG)
        cache = KVCache()
        assert cache.kv is None  # the first call shapes the arena
        logits = forward_incremental(params, cache, [5],
                                     only(Region.PRE_PROMPT))
        full = forward_full(params, [5], causal_mask(1), "modified")
        assert np.array_equal(logits, full)
        assert cache.kv.shape == (2, 2, 4, model.MIN_CACHE_CAPACITY, 8)
        assert cache.kv.dtype == np.float32

    def test_full_ingestion_matches_full_forward_exactly(self):
        params = init_model(CFG)
        layout = PromptLayout(2, 4, 1, 3)
        tokens = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        cache = KVCache()
        inc = forward_incremental(params, cache, *as_call(tokens, layout))
        full = forward_full(params, tokens, causal_mask(10), "modified")
        assert np.array_equal(inc, full)

    def test_interleaved_ingestion_matches_simul_mask_forward(self):
        params = init_model(CFG)
        layout = PromptLayout(1, 5, 1, 4)
        pol = WaitKPolicy(k=2, source_len=5)
        tokens = [1, 3, 4, 5, 6, 7, 2, 8, 9, 10, 11]
        mask = simul_mask(layout, pol)
        full = forward_full(params, tokens, mask, "modified")

        cache = KVCache()
        step_logits = {}
        feed = lambda seq, region: forward_incremental(
            params, cache, seq, only(region, len(seq)))
        feed(tokens[:1], Region.PRE_PROMPT)
        feed(tokens[1:3], Region.SOURCE)
        step_logits[layout.predictor_row(1)] = feed(
            tokens[6:7], Region.MID_PROMPT)[-1]
        reads = 2
        for t in range(2, 5):
            goal = pol.cumulative_reads(t)
            if goal > reads:
                feed(tokens[1 + reads:1 + goal], Region.SOURCE)
                reads = goal
            step_logits[layout.predictor_row(t)] = feed(
                [tokens[layout.target_start + t - 2]], Region.TARGET)[-1]
        for row, logits in step_logits.items():
            assert np.abs(logits - full[row]).max() < 1e-4

    @pytest.mark.parametrize("failure",
                             ["float token", "bool token",
                              "counts of three regions", "negative count",
                              "counts short of the tokens",
                              "counts past the tokens", "bool counts",
                              "nan query weights", "nan at a doubling",
                              "no token", "other layer count",
                              "other head count", "other head width",
                              "float64 model"])
    def test_rejected_call_leaves_cache_unchanged(self, failure):
        # the rejected call holds 50 source tokens, enough to grow the
        # cache's arena and, once mid-prompt and target rows are cached
        # (later = 1), to move them; it fails validation at its last token
        # or at its per-region counts, or inside the row engine (NaN
        # queries leave a row with no finite score, only NaN ones); or it
        # holds no token; or it comes from a model whose arena differs
        # from the cache's in one of its four facts.  At a doubling, the
        # cache is full at 16 rows and one source token doubles the arena
        # and moves the later rows before the engine fails
        params = init_model(CFG)
        bad = params.with_tensors(dict(params.tensors(), **{
            "layers.1.wq": np.full_like(params.layers[1].wq, np.nan)}))
        other = {  # CFG's head width is 8
            "other layer count": init_model(ModelConfig(
                n_layers=3, n_heads=4, d_model=32, vocab_size=12)),
            "other head count": init_model(ModelConfig(
                n_layers=2, n_heads=2, d_model=16, vocab_size=12)),
            "other head width": init_model(ModelConfig(
                n_layers=2, n_heads=4, d_model=64, vocab_size=12)),
            "float64 model": params.astype(np.float64)}
        tokens = [1] + [int(t) for t in
                        np.random.default_rng(0).integers(1, 12, size=63)]
        for later in (0, 1):
            n_src = 15 - 2 * later if failure == "nan at a doubling" else 10
            prefix = (tokens[:1 + n_src] + tokens[61:61 + later]
                      + tokens[62:62 + later])
            prefix_added = [1, n_src, later, later]
            more = tokens[1 + n_src:61]
            more_added = only(Region.SOURCE, len(more))
            probe, probe_added = [7, 8], [0, 1, 0, 1]
            ref = KVCache()
            forward_incremental(params, ref, prefix, prefix_added)
            want = forward_incremental(params, ref, probe, probe_added)

            cache = KVCache()
            forward_incremental(params, cache, prefix, prefix_added)
            n, arrival = len(cache), cache.arrival.tolist()
            rows = cache.kv[:, :, :, :n].tobytes()
            bad_counts = {
                "counts of three regions": more_added[:3],
                "negative count": [0, len(more) + 1, -1, 0],
                "counts short of the tokens": only(Region.SOURCE,
                                                   len(more) - 1),
                "counts past the tokens": only(Region.SOURCE, len(more) + 1),
                "bool counts": [False, len(more), False, False]}
            if failure in ("float token", "bool token"):
                more[-1] = 2.5 if failure == "float token" else True
                with pytest.raises(ShapeError, match="integers"):
                    forward_incremental(params, cache, more, more_added)
            elif failure in bad_counts:
                with pytest.raises(ShapeError, match="per-region counts"):
                    forward_incremental(params, cache, more,
                                        bad_counts[failure])
            elif failure == "nan at a doubling":
                assert n == cache.kv.shape[3] == 16
                with pytest.raises(NumericError):
                    forward_incremental(bad, cache, more[:1],
                                        only(Region.SOURCE))
                assert cache.kv.shape[3] == 32
            elif failure == "no token":
                with pytest.raises(ShapeError):
                    forward_incremental(params, cache, [], [0] * len(Region))
            elif failure in other:
                with pytest.raises(CacheCoherenceError):
                    forward_incremental(other[failure], cache, more,
                                        more_added)
            else:
                with pytest.raises(NumericError):
                    forward_incremental(bad, cache, more, more_added)
            assert len(cache) == n == 1 + n_src + 2 * later
            assert cache.counts == [1, n_src, later, later]
            assert cache.arrival.tolist() == arrival
            assert cache.kv[:, :, :, :n].tobytes() == rows
            got = forward_incremental(params, cache, probe, probe_added)
            assert np.array_equal(got, want)

    def test_source_ingestion_ignores_later_regions(self):
        # appending a source token after targets exist must not change its
        # representation vs ingesting it before them
        params = init_model(CFG)
        layout = PromptLayout(1, 3, 1, 2)

        early = KVCache()
        forward_incremental(params, early, [1], only(Region.PRE_PROMPT))
        forward_incremental(params, early, [4, 5], only(Region.SOURCE, 2))
        logits_early = forward_incremental(params, early, [6],
                                           only(Region.SOURCE))

        late = KVCache()
        forward_incremental(params, late, [1], only(Region.PRE_PROMPT))
        forward_incremental(params, late, [4, 5], only(Region.SOURCE, 2))
        forward_incremental(params, late, [2], only(Region.MID_PROMPT))
        forward_incremental(params, late, [7], only(Region.TARGET))
        logits_late = forward_incremental(params, late, [6],
                                          only(Region.SOURCE))
        assert np.array_equal(logits_early, logits_late)

    @pytest.mark.parametrize("scheme", ["rank", "stale"])
    def test_mixed_call_matches_split_calls(self, scheme):
        # one call holding a step's new source tokens and the last target
        # token gives each row the logits and the FLOPs of two calls
        params = init_model(CFG)
        split, mixed = KVCache(), KVCache()
        for cache in (split, mixed):
            forward_incremental(params, cache, [1, 4, 2], [1, 1, 1, 0],
                                bias_scheme=scheme)
        read, write = FlopCounter(), FlopCounter()
        src_logits = forward_incremental(params, split, [5, 6],
                                         only(Region.SOURCE, 2), scheme,
                                         [read, read])
        tgt_logits = forward_incremental(params, split, [7],
                                         only(Region.TARGET), scheme,
                                         [write])
        both = FlopCounter(), FlopCounter()
        logits = forward_incremental(params, mixed, [5, 6, 7],
                                     [0, 2, 0, 1], scheme,
                                     [both[0], both[0], both[1]])
        assert np.array_equal(logits, np.concatenate([src_logits, tgt_logits]))
        assert [(c.total, c.kv_rows) for c in both] == [
            (read.total, read.kv_rows), (write.total, write.kv_rows)]
        # rows are stored in canonical order: their arrival numbers
        assert mixed.arrival.tolist() == [0, 1, 3, 4, 2, 5]
        assert split.arrival.tolist() == [0, 1, 3, 4, 2, 5]
        with pytest.raises(ShapeError):
            forward_incremental(params, mixed, [7], only(Region.TARGET),
                                scheme, [])
        assert len(mixed) == 6

    def test_causal_prefix_consistency(self):
        params = init_model(CFG)
        tokens = [1, 2, 3, 4, 5, 6]
        full = forward_full(params, tokens, causal_mask(6), "modified")
        prefix = forward_full(params, tokens[:4], causal_mask(4), "modified")
        assert np.array_equal(full[:4], prefix)

    def test_stale_scheme_matches_rank_in_canonical_order(self):
        # when arrival order equals canonical order, frozen absolute
        # positions and visible-rank distances coincide exactly
        params = init_model(CFG)
        layout = PromptLayout(2, 3, 1, 3)
        tokens = [1, 2, 3, 4, 5, 6, 7, 8, 9]
        call = as_call(tokens, layout)
        a = KVCache()
        rank_logits = forward_incremental(params, a, *call,
                                          bias_scheme="rank")
        b = KVCache()
        stale_logits = forward_incremental(params, b, *call,
                                           bias_scheme="stale")
        assert np.array_equal(rank_logits, stale_logits)

    def test_stale_scheme_differs_after_interleaving(self):
        params = init_model(CFG)
        seq = [(1, Region.PRE_PROMPT), (4, Region.SOURCE),
               (2, Region.MID_PROMPT), (7, Region.TARGET), (5, Region.SOURCE)]
        a = KVCache()
        for tok, region in seq:
            rank_logits = forward_incremental(params, a, [tok],
                                              only(region),
                                              bias_scheme="rank")
        b = KVCache()
        for tok, region in seq:
            stale_logits = forward_incremental(params, b, [tok],
                                               only(region),
                                               bias_scheme="stale")
        probe = [8], only(Region.TARGET)
        ra = forward_incremental(params, a, *probe, bias_scheme="rank")
        rb = forward_incremental(params, b, *probe, bias_scheme="stale")
        assert not np.array_equal(ra, rb)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12),
                                        (np.float32, 3e-6)])
def test_gelu_is_the_tanh_formula(dtype, tol):
    # the one GELU of inference and training, and the tanh training's
    # backward reads, against the tanh formula in float64
    x = np.random.default_rng(5).standard_normal(4096) * 4
    inner = np.sqrt(2 / np.pi) * (x + 0.044715 * x ** 3)
    want = 0.5 * x * (1 + np.tanh(inner))
    got, t = model.gelu(x.astype(dtype))
    assert got.dtype == t.dtype == dtype
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)
    np.testing.assert_allclose(t, np.tanh(inner), rtol=tol, atol=tol)


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

    def test_offsets_must_tile_the_data(self, tmp_path):
        # layers.0.wv pointing at layers.0.wq's data would load wq's weights
        path = self._saved(tmp_path)

        def alias_wv(header):
            offsets = {t["name"]: t["offset"] for t in header["tensors"]}
            for t in header["tensors"]:
                if t["name"] == "layers.0.wv":
                    t["offset"] = offsets["layers.0.wq"]

        rewrite_checkpoint(path, alias_wv)
        with pytest.raises(DataError, match="layers.0.wv starts at offset"):
            load_params(path)

    @pytest.mark.parametrize("index, error", [
        ("empty", "tensors of its config"), ("full", "data bytes")])
    def test_large_header_rejected_without_building_it(self, tmp_path, index,
                                                       error):
        # a header claiming d_model=1024 (a 128 MB model) over no data is
        # rejected from its config's arithmetic, before any tensor exists
        d, v = 1024, 24
        shapes = {"embed": [v, d], "lnf_g": [d], "lnf_b": [d], "w_out": [d, v],
                  "w1": [d, 4 * d], "w2": [4 * d, d], "ln1_g": [d],
                  "ln1_b": [d], "ln2_g": [d], "ln2_b": [d]}
        tensors, offset = [], 0
        for name, _ in init_model(CFG).tensors() if index == "full" else ():
            shape = shapes.get(name.rsplit(".", 1)[-1], [d, d])
            tensors.append({"name": name, "shape": shape, "offset": offset})
            offset += int(np.prod(shape))
        path = os.path.join(tmp_path, "big.bin")
        with open(path, "w") as fh:
            json.dump({"config": {"n_layers": 2, "n_heads": 4, "d_model": d,
                                  "vocab_size": v, "seed": 0},
                       "tensors": tensors}, fh)
            fh.write("\n")
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=error):
                load_params(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("edit", [
        {"d_model": 32.0}, {"n_layers": True}, {"n_heads": 3}, {"seed": -1}])
    def test_header_config_model_config_rejects(self, tmp_path, edit):
        # a float or bool dimension would load and then break the forward;
        # every header config ModelConfig rejects is a fault of the file
        path = self._saved(tmp_path)
        rewrite_checkpoint(path, lambda h: h["config"].update(edit))
        with pytest.raises(DataError, match="cannot load checkpoint"):
            load_params(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        rewrite_checkpoint(path, lambda h: None, b"garbage!")
        with pytest.raises(DataError, match="data bytes"):
            load_params(path)
