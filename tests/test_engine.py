import numpy as np
import pytest

from simulbench import engine
from simulbench.data import PRE_ID, SEP_ID
from simulbench.engine import (GenerationMode, ReadEvent, TranslationTrace,
                               WriteEvent, prefix_expand, replay_visibility,
                               schedule_trace, simul_generate, trace_to_jsonl)
from simulbench.errors import (ConfigError, ConsistencyError, DataError,
                               NumericError, PolicyError, ShapeError)
from simulbench.masks import PromptLayout, TablePolicy, WaitKPolicy, simul_mask
from simulbench.model import ModelConfig, init_model

from helpers import events_from_jsonl

CFG = ModelConfig(n_layers=2, n_heads=4, d_model=32, vocab_size=12, seed=0)


def random_policy(rng, source_len, target_len):
    if rng.random() < 0.5:
        return WaitKPolicy(k=int(rng.integers(1, source_len + 3)),
                           source_len=source_len)
    reads = np.maximum.accumulate(rng.integers(1, source_len + 1, size=target_len))
    return TablePolicy(reads=tuple(int(r) for r in reads), source_len=source_len)


def open_session(params, mode, policy, source, max_target_len, eos_id=None,
                 forced_target=None, record_logits=False):
    """The unstarted session, and its step, that ``simul_generate`` runs
    with these arguments and prompts [PRE_ID], [SEP_ID]: (trace, session,
    step)."""
    trace = TranslationTrace(pre_len=1, mid_len=1,
                             step_logits=[] if record_logits else None)
    if mode == "cached":
        step = engine._cached_step(params, [PRE_ID], [SEP_ID], "rank")
    else:
        step = engine._recompute_step(params, [PRE_ID], [SEP_ID], trace)
    return trace, engine._decide(trace, policy, source, max_target_len,
                                 eos_id, forced_target), step


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
            dict(params.tensors(), w_out=np.full_like(params.w_out, np.nan)))
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

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_non_whole_max_target_len_rejected(self, bad):
        params = init_model(CFG)
        with pytest.raises(ConfigError, match=repr(bad)):
            simul_generate(params, WaitKPolicy(1, 3), [PRE_ID], [3, 4, 5],
                           [SEP_ID], GenerationMode("cached"),
                           max_target_len=bad)

    @pytest.mark.parametrize("mode", ["cached", "recompute"])
    @pytest.mark.parametrize("kw", [
        dict(forced_target=[5, 999]), dict(forced_target=[5, 12]),
        dict(forced_target=[5, 2.5]), dict(forced_target=[5, True]),
        dict(forced_target=[5, -3]), dict(forced_target=[-3, 5]),
        dict(eos_id=True), dict(eos_id=12), dict(eos_id=-1), dict(eos_id=2.0),
        dict(pre_prompt=[PRE_ID, 12]), dict(mid_prompt=[SEP_ID, True]),
    ])
    def test_bad_token_ids_rejected_before_any_step(self, mode, kw):
        # the last forced token never reaches the model, so only this check
        # keeps a bad id out of the hypothesis and the trace
        params = init_model(CFG)
        pulled = []
        source = (pulled.append(tok) or tok for tok in [3, 4, 5])
        with pytest.raises(ShapeError, match="token id"):
            simul_generate(params, WaitKPolicy(1, 3), source_stream=source,
                           mode=GenerationMode(mode), max_target_len=2,
                           **{"pre_prompt": [PRE_ID], "mid_prompt": [SEP_ID],
                              **kw})
        assert not pulled

    def test_integer_array_forced_target_comes_back_as_ints(self):
        # numpy integers would reach the trace, and its JSONL dump would fail
        params = init_model(CFG)
        hyp, trace = run_forced(params, WaitKPolicy(1, 3), [3, 4, 5],
                                np.array([5, 6]), GenerationMode("cached"))
        assert hyp == [5, 6] and all(type(tok) is int for tok in hyp)
        assert '"payload": 6' in trace_to_jsonl(trace)

    def test_eos_stops_generation(self):
        params = init_model(CFG)
        src = [3, 4, 5]
        hyp, trace = simul_generate(params, WaitKPolicy(1, 3), [PRE_ID], src,
                                    [SEP_ID], GenerationMode("cached"),
                                    max_target_len=30, eos_id=None)
        assert len(hyp) == 30  # no stop token, runs to the cap
        assert len(trace.d) == 30

    def test_stale_bias_rejected_in_recompute(self):
        # the error names the scheme given, an unknown one included
        params = init_model(CFG)
        for scheme in ("stale", "bogus"):
            with pytest.raises(ConfigError, match=f"'{scheme}'"):
                simul_generate(params, WaitKPolicy(1, 3), [PRE_ID], [3, 4, 5],
                               [SEP_ID], GenerationMode("recompute"),
                               max_target_len=2, bias_scheme=scheme)

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

        def counted(params, cache, tokens, *args, **kwargs):
            sizes.append(len(tokens))
            return real(params, cache, tokens, *args, **kwargs)

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


class TestLazyPulls:
    """Sources are pulled lazily: exactly min(f(t), |S|) tokens before
    write t, and nothing after the last write."""

    @pytest.mark.parametrize("mode", ["cached", "recompute"])
    @pytest.mark.parametrize("policy, src, kw, stop", [
        (WaitKPolicy(2, 6), [3, 4, 5, 6, 7, 8],
         dict(forced_target=[7, 8, 9, 10, 11]), "forced"),
        # several reads at once, and writes with no read between them
        (TablePolicy(reads=(1, 4, 4, 7, 8), source_len=8),
         [3, 4, 5, 6, 7, 8, 9, 10], dict(forced_target=[7, 8, 9, 10, 11]),
         "forced"),
        # the stream ends before f(t) does
        (WaitKPolicy(3, 8), [3, 4], dict(forced_target=[5, 6, 7, 8]),
         "forced"),
        # this model greedily emits 8, 0, 2, ...: id 2 stops it at step 3
        (WaitKPolicy(1, 6), [3, 4, 5, 6, 7, 8], dict(eos_id=2), "eos"),
        (WaitKPolicy(2, 6), [3, 4, 5, 6, 7, 8], dict(eos_id=None), "max"),
    ])
    def test_pulls_before_each_write(self, mode, policy, src, kw, stop):
        params = init_model(CFG)
        max_len = len(kw.get("forced_target", [])) or (30 if stop == "eos" else 3)
        written = []  # per pull, the writes the trace held when it was made

        def source():
            for tok in src:
                written.append(len(trace.writes()))
                yield tok

        trace, session, step = open_session(params, mode, policy, source(),
                                            max_len, **kw)
        # drive the session by hand: each answered step makes one write
        request = next(session)
        while True:
            n = len(trace.writes())
            try:
                request = session.send(step(*request))
            except StopIteration as done:
                hyp = done.value
                break
            finally:
                assert len(trace.writes()) == n + 1
        writes = len(trace.writes())
        for t in range(1, writes + 1):
            pulled = sum(w < t for w in written)
            assert pulled == min(policy.cumulative_reads(t), len(src)), t
        assert max(written) < writes  # nothing pulled after the last write
        if stop == "eos":
            assert trace.writes()[-1] == 2 and len(hyp) == 2
        if stop == "max":
            assert len(hyp) == max_len and trace.total_reads() < len(src)
        # the session driven here is the one simul_generate runs
        hyp_run, trace_run = simul_generate(
            params, policy, [PRE_ID], src, [SEP_ID], GenerationMode(mode),
            max_target_len=max_len, **kw)
        assert hyp == hyp_run
        assert trace_to_jsonl(trace) == trace_to_jsonl(trace_run)


class TestInterleavedSessions:
    """A session holds all of its state, so sessions stepped in turn by
    hand give exactly what each gives run alone."""

    def test_round_robin_equals_sequential(self):
        params = init_model(CFG)
        runs = [  # mode, policy, source, max_target_len, eos_id
            ("cached", WaitKPolicy(2, 6), [3, 4, 5, 6, 7, 8], 7, None),
            # this model greedily emits 8, 0, 2, ...: id 2 stops it at step 3
            ("cached", WaitKPolicy(1, 6), [3, 4, 5, 6, 7, 8], 30, 2),
            ("recompute", TablePolicy(reads=(1, 4, 4, 7, 8), source_len=8),
             [9, 8, 7, 6, 5, 4, 3, 10], 5, None),
        ]
        opened = [open_session(params, mode, pol, iter(src), n, eos_id=eos,
                               record_logits=True)
                  for mode, pol, src, n, eos in runs]
        live = {i: [session, step, next(session)]
                for i, (_, session, step) in enumerate(opened)}
        hyps = {}
        while live:
            for i, entry in list(live.items()):
                session, step, request = entry
                try:
                    entry[2] = session.send(step(*request))
                except StopIteration as done:
                    hyps[i] = done.value
                    del live[i]
        for i, (mode, pol, src, n, eos) in enumerate(runs):
            hyp, trace = simul_generate(
                params, pol, [PRE_ID], src, [SEP_ID], GenerationMode(mode),
                max_target_len=n, eos_id=eos, record_logits=True)
            mine = opened[i][0]
            assert hyps[i] == hyp
            assert trace_to_jsonl(mine) == trace_to_jsonl(trace)
            assert (mine.kv_rows, mine.d) == (trace.kv_rows, trace.d)
            assert len(mine.step_logits) == len(trace.step_logits)
            assert all(np.array_equal(a, b)
                       for a, b in zip(mine.step_logits, trace.step_logits))


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

    def test_schedule_trace_has_the_structure_of_generation(self):
        # acceptance 05's domain; FLOPs differ by design (no model runs)
        def structure(trace):
            return trace.d, [(type(e), getattr(e, "n", None),
                              getattr(e, "token", None)) for e in trace.events]

        params = init_model(ModelConfig(n_layers=1, n_heads=1, d_model=4,
                                        vocab_size=4, seed=0))
        rng = np.random.default_rng(11)
        for _ in range(200):
            layout = PromptLayout(*(int(x) for x in rng.integers(1, (4, 16, 4, 14))))
            pol = random_policy(rng, layout.source_len, layout.target_len)
            _, gen = simul_generate(
                params, pol, [1] * layout.pre_prompt_len,
                [int(x) for x in rng.integers(0, 4, size=layout.source_len)],
                [2] * layout.mid_prompt_len, GenerationMode("cached"),
                max_target_len=layout.target_len,
                forced_target=[0] * layout.target_len)
            assert structure(schedule_trace(pol, layout)) == structure(gen)


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
        with pytest.raises(PolicyError, match="1.5"):
            prefix_expand([4, 5, 6], [5, 6], 1.5)


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
        trace = TranslationTrace(pre_len=1, mid_len=1)
        trace.events = [ReadEvent(n=2, flops=10), WriteEvent(token=5, flops=3)]
        text = trace_to_jsonl(trace)
        assert text.splitlines()[0] == '{"type": "read", "payload": 2, "flops": 10}'
        assert text.splitlines()[1] == '{"type": "write", "payload": 5, "flops": 3}'
