import numpy as np
import pytest

from simulbench import engine
from simulbench.data import PRE_ID, SEP_ID
from simulbench.engine import (GenerationMode, ReadEvent, TranslationTrace,
                               WriteEvent, events_from_jsonl, prefix_expand,
                               replay_visibility, schedule_trace, simul_generate,
                               trace_to_jsonl)
from simulbench.errors import (ConfigError, ConsistencyError, DataError,
                               NumericError, PolicyError)
from simulbench.masks import PromptLayout, TablePolicy, WaitKPolicy, simul_mask
from simulbench.model import ModelConfig, init_model

CFG = ModelConfig(n_layers=2, n_heads=4, d_model=32, vocab_size=12, seed=0)


def random_policy(rng, source_len, target_len):
    if rng.random() < 0.5:
        return WaitKPolicy(k=int(rng.integers(1, source_len + 3)),
                           source_len=source_len)
    reads = np.maximum.accumulate(rng.integers(1, source_len + 1, size=target_len))
    return TablePolicy(reads=tuple(int(r) for r in reads), source_len=source_len)


def run_forced(params, pol, src, tgt, mode, **kw):
    return simul_generate(params, pol, [PRE_ID], src, [SEP_ID], mode,
                          max_target_len=len(tgt), forced_target=tgt,
                          record_logits=True, **kw)


class TestSimulGenerate:
    def test_offline_reads_everything_first(self):
        params = init_model(CFG)
        src = [3, 4, 5, 6]
        _, trace = simul_generate(params, WaitKPolicy(9, 4), [PRE_ID], src,
                                  [SEP_ID], GenerationMode("cached"),
                                  max_target_len=3, forced_target=[7, 8, 9])
        assert isinstance(trace.events[0], ReadEvent)
        assert trace.events[0].n == 4
        assert all(isinstance(e, WriteEvent) for e in trace.events[1:])
        assert trace.d == [4, 4, 4]

    def test_wait1_visibility_matches_mask_rows(self):
        params = init_model(CFG)
        layout = PromptLayout(1, 4, 1, 4)
        pol = WaitKPolicy(1, 4)
        src, tgt = [3, 4, 5, 6], [7, 8, 9, 10]
        _, trace = run_forced(params, pol, src, tgt, GenerationMode("cached"))
        mask = simul_mask(layout, pol)
        replay = replay_visibility(trace, layout)
        for row, cols in replay.items():
            assert cols == frozenset(np.flatnonzero(mask.visible[row]).tolist())

    def test_cached_equals_recompute(self):
        rng = np.random.default_rng(0)
        params = init_model(CFG)
        for seed in range(5):
            s = int(rng.integers(3, 10))
            t = int(rng.integers(2, 8))
            k = int(rng.integers(1, 5))
            src = [int(x) for x in rng.integers(3, 12, size=s)]
            tgt = [int(x) for x in rng.integers(3, 12, size=t)]
            pol = WaitKPolicy(k, s)
            hyp_c, tr_c = run_forced(params, pol, src, tgt,
                                     GenerationMode("cached"))
            hyp_r, tr_r = run_forced(params, pol, src, tgt,
                                     GenerationMode("recompute"))
            assert hyp_c == hyp_r
            for a, b in zip(tr_c.step_logits, tr_r.step_logits):
                assert np.abs(a - b).max() < 1e-4

    def test_non_finite_logits_raise_numeric_error(self):
        # NaN logits would otherwise argmax to id 0, the stop marker, and
        # end the run with a silently empty hypothesis
        params = init_model(CFG)
        broken = params.with_tensors(
            dict(params.as_dict(), w_out=np.full_like(params.w_out, np.nan)))
        for kind in ("cached", "recompute"):
            with pytest.raises(NumericError, match="prediction step 1"):
                simul_generate(broken, WaitKPolicy(2, 4), [PRE_ID], [3, 4, 5, 6],
                               [SEP_ID], GenerationMode(kind), max_target_len=4)

    def test_greedy_modes_emit_identical_tokens(self):
        params = init_model(CFG)
        src = [3, 4, 5, 6, 7, 8]
        pol = WaitKPolicy(2, 6)
        hyp_c, _ = simul_generate(params, pol, [PRE_ID], src, [SEP_ID],
                                  GenerationMode("cached"), max_target_len=6)
        hyp_r, _ = simul_generate(params, pol, [PRE_ID], src, [SEP_ID],
                                  GenerationMode("recompute"), max_target_len=6)
        assert hyp_c == hyp_r

    def test_source_finished_clipping(self):
        params = init_model(CFG)
        src = [3, 4]  # stream shorter than the policy's nominal source
        pol = WaitKPolicy(1, 8)
        _, trace = simul_generate(params, pol, [PRE_ID], src, [SEP_ID],
                                  GenerationMode("cached"), max_target_len=5,
                                  forced_target=[5, 6, 7, 8, 9])
        assert trace.total_reads() == 2
        assert trace.d == [1, 2, 2, 2, 2]

    def test_empty_stream_rejected(self):
        params = init_model(CFG)
        with pytest.raises(DataError):
            simul_generate(params, WaitKPolicy(1, 3), [PRE_ID], [], [SEP_ID],
                           GenerationMode("cached"), max_target_len=2)

    def test_eos_stops_generation(self):
        params = init_model(CFG)
        src = [3, 4, 5]
        hyp, trace = simul_generate(params, WaitKPolicy(1, 3), [PRE_ID], src,
                                    [SEP_ID], GenerationMode("cached"),
                                    max_target_len=30, eos_id=None)
        assert len(hyp) == 30  # no stop token, runs to the cap
        assert len(trace.d) == 30

    def test_stale_bias_rejected_in_recompute(self):
        params = init_model(CFG)
        with pytest.raises(ConfigError):
            simul_generate(params, WaitKPolicy(1, 3), [PRE_ID], [3, 4, 5],
                           [SEP_ID], GenerationMode("recompute"),
                           max_target_len=2, bias_scheme="stale")

    def test_kv_computation_counts(self):
        # cached mode computes each position's keys/values exactly once;
        # recompute mode pays the full prefix length at every step
        params = init_model(CFG)
        src, tgt = [3, 4, 5, 6, 7], [8, 9, 10, 3]
        pol = WaitKPolicy(2, 5)
        _, trace = run_forced(params, pol, src, tgt, GenerationMode("cached"))
        positions_entered = 1 + trace.total_reads() + 1 + (len(tgt) - 1)
        assert trace.kv_rows == CFG.n_layers * positions_entered

        _, trace_r = run_forced(params, pol, src, tgt, GenerationMode("recompute"))
        reads = 0
        expected = 0
        step = 0
        for ev in trace_r.events:
            if isinstance(ev, ReadEvent):
                reads += ev.n
            else:
                expected += 1 + reads + 1 + step
                step += 1
        assert trace_r.kv_rows == CFG.n_layers * expected
        assert trace_r.kv_rows > trace.kv_rows


class TestCachedCalls:
    """Cached generation makes one engine call per decision step."""

    @pytest.fixture
    def calls(self, monkeypatch):
        sizes = []
        real = engine.forward_incremental

        def counted(params, cache, new_tokens, *args, **kwargs):
            sizes.append(len(new_tokens))
            return real(params, cache, new_tokens, *args, **kwargs)

        monkeypatch.setattr(engine, "forward_incremental", counted)
        return sizes

    @pytest.mark.parametrize("policy, src, tgt", [
        # k past the source: every source token is read before the first write
        (WaitKPolicy(9, 4), [3, 4, 5, 6], [7, 8, 9, 10, 11]),
        # several reads at once between writes, and writes with no read
        (TablePolicy(reads=(1, 4, 4, 7, 8), source_len=8),
         [3, 4, 5, 6, 7, 8, 9, 10], [7, 8, 9, 10, 11]),
    ])
    def test_one_call_per_write_forced(self, calls, policy, src, tgt):
        params = init_model(CFG)
        _, trace = simul_generate(params, policy, [PRE_ID, 2], src, [SEP_ID],
                                  GenerationMode("cached"),
                                  max_target_len=len(tgt), forced_target=tgt)
        assert len(calls) == len(trace.writes()) == len(tgt)
        # each call holds the step's new source tokens and one more row
        # (the mid-prompt on the first step, the last target token after)
        reads = [e.n for e in trace.events if isinstance(e, ReadEvent)]
        assert calls[0] == 2 + reads[0] + 1
        assert sum(calls) == 2 + trace.total_reads() + 1 + len(tgt) - 1

    def test_one_call_per_write_to_eos(self, calls):
        # this model greedily emits 8, 0, 2, ...: id 2 stops it at step 3
        params = init_model(CFG)
        hyp, trace = simul_generate(params, WaitKPolicy(1, 6), [PRE_ID],
                                    [3, 4, 5, 6, 7, 8], [SEP_ID],
                                    GenerationMode("cached"),
                                    max_target_len=30, eos_id=2)
        assert hyp == [8, 0] and trace.writes() == [8, 0, 2]
        assert len(calls) == len(trace.writes())


class TestGenerationModeType:
    def test_valid_kinds(self):
        assert GenerationMode("cached").kind == "cached"
        assert GenerationMode("recompute").kind == "recompute"

    def test_invalid_kind(self):
        with pytest.raises(ConfigError):
            GenerationMode("lazy")


class TestTraceInvariants:
    def test_trace_structure(self):
        params = init_model(CFG)
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = int(rng.integers(2, 9))
            src = [int(x) for x in rng.integers(3, 12, size=s)]
            k = int(rng.integers(1, 5))
            hyp, trace = simul_generate(params, WaitKPolicy(k, s), [1], src, [2],
                                        GenerationMode("cached"),
                                        max_target_len=6)
            assert isinstance(trace.events[0], ReadEvent)
            assert all(a <= b for a, b in zip(trace.d, trace.d[1:]))
            assert all(d <= s for d in trace.d)
            assert len(trace.d) == len(hyp)
            assert len(trace.flop_log) == len(trace.events)
            assert [e.flops for e in trace.events] == trace.flop_log


class TestPrefixExpand:
    def enumerate_oracle(self, source, target, k):
        """Step-by-step wait-k subdivision: grow target by one word and
        source by one word until both are complete."""
        pairs = []
        i = 1
        while True:
            src = source[:min(k - 1 + i, len(source))]
            tgt = target[:min(i, len(target))]
            pairs.append((src, tgt))
            if len(src) == len(source) and len(tgt) == len(target):
                return pairs
            i += 1

    def test_counting_case(self):
        src, tgt = list(range(10)), list(range(8))
        pairs = prefix_expand(src, tgt, 3)
        assert len(pairs) == 8
        assert pairs == self.enumerate_oracle(src, tgt, 3)
        assert pairs[-1] == (src, tgt)

    def test_smallest_case(self):
        assert prefix_expand([1], [2], 1) == [([1], [2])]

    def test_saturating_source(self):
        src, tgt = list(range(5)), list(range(9))
        pairs = prefix_expand(src, tgt, 3)
        assert len(pairs) == 9
        assert pairs == self.enumerate_oracle(src, tgt, 3)
        assert all(len(s) <= 5 for s, _ in pairs)

    def test_closed_form_everywhere(self):
        for s in range(1, 9):
            for t in range(1, 9):
                for k in range(1, 9):
                    pairs = prefix_expand(list(range(s)), list(range(t)), k)
                    assert len(pairs) == max(s - (k - 1), t)
                    assert pairs == self.enumerate_oracle(
                        list(range(s)), list(range(t)), k)

    def test_invalid_inputs(self):
        with pytest.raises(DataError):
            prefix_expand([], [1], 1)
        with pytest.raises(PolicyError):
            prefix_expand([1], [1], 0)


class TestReplayVisibility:
    def test_offline_trace_sees_full_source(self):
        layout = PromptLayout(1, 5, 1, 3)
        pol = WaitKPolicy(9, 5)
        trace = schedule_trace(pol, layout)
        replay = replay_visibility(trace, layout)
        src_cols = set(range(1, 6))
        for t in range(1, 4):
            row = layout.predictor_row(t)
            assert src_cols <= set(replay[row])

    def test_wait1_reference_enumeration(self):
        # predicting t2 is conditioned on p1, s1, s2, p2, t1
        layout = PromptLayout(1, 4, 1, 4)
        trace = schedule_trace(WaitKPolicy(1, 4), layout)
        replay = replay_visibility(trace, layout)
        assert replay[layout.predictor_row(1)] == frozenset({0, 1, 5})
        assert replay[layout.predictor_row(2)] == frozenset({0, 1, 2, 5, 6})
        assert replay[layout.predictor_row(3)] == frozenset({0, 1, 2, 3, 5, 6, 7})

    def test_random_policies_match_simul_mask(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            layout = PromptLayout(int(rng.integers(1, 3)), int(rng.integers(1, 10)),
                                  int(rng.integers(1, 3)), int(rng.integers(1, 9)))
            pol = random_policy(rng, layout.source_len, layout.target_len)
            trace = schedule_trace(pol, layout)
            mask = simul_mask(layout, pol)
            replay = replay_visibility(trace, layout)
            for row, cols in replay.items():
                assert cols == frozenset(np.flatnonzero(mask.visible[row]).tolist())

    def test_layout_mismatch_rejected(self):
        layout = PromptLayout(1, 4, 1, 4)
        trace = schedule_trace(WaitKPolicy(1, 4), layout)
        with pytest.raises(ConsistencyError):
            replay_visibility(trace, PromptLayout(2, 4, 1, 4))
        with pytest.raises(ConsistencyError):
            replay_visibility(trace, PromptLayout(1, 3, 1, 4))


class TestTraceSerialization:
    def test_jsonl_round_trip(self):
        layout = PromptLayout(1, 5, 1, 4)
        trace = schedule_trace(WaitKPolicy(2, 5), layout)
        text = trace_to_jsonl(trace)
        events = events_from_jsonl(text)
        assert events == trace.events

    def test_deterministic_field_order(self):
        trace = TranslationTrace()
        trace.events = [ReadEvent(n=2, flops=10), WriteEvent(token=5, flops=3)]
        trace.flop_log = [10, 3]
        text = trace_to_jsonl(trace)
        assert text.splitlines()[0] == '{"type": "read", "payload": 2, "flops": 10}'
        assert text.splitlines()[1] == '{"type": "write", "payload": 5, "flops": 3}'
