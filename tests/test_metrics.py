import numpy as np
import pytest

from simulbench.data import PRE_ID, SEP_ID
from simulbench.engine import (GenerationMode, ReadEvent, TranslationTrace,
                               WriteEvent, schedule_trace, simul_generate)
from simulbench.errors import DataError
from simulbench.masks import PromptLayout, WaitKPolicy
from simulbench.metrics import (FlopModel, flops_generate, laal,
                                metrics_rows_to_csv, quality_proxy)
from simulbench.model import ModelConfig, init_model

from helpers import fit_loglog_exponent

CFG = ModelConfig(n_layers=2, n_heads=4, d_model=32, vocab_size=12, seed=0)


def wait_k_trace(k, source_len, target_len):
    """Ideal wait-k trace built directly from the policy definition."""
    layout = PromptLayout(1, source_len, 1, target_len)
    return schedule_trace(WaitKPolicy(k, source_len), layout)


def laal_oracle(d, source_len, target_len, reference_len):
    """Direct summation of the definition, independent of the implementation."""
    denom = max(reference_len, target_len)
    tau = len(d)
    for i, di in enumerate(d, start=1):
        if di >= source_len:
            tau = i
            break
    return sum(d[i - 1] - (i - 1) * source_len / denom
               for i in range(1, tau + 1)) / tau


class TestLaal:
    def test_ideal_wait3(self):
        trace = wait_k_trace(3, 10, 10)
        got = laal(trace, 10, 10, 10)
        assert got == pytest.approx(3.0)
        assert got == pytest.approx(laal_oracle(trace.d, 10, 10, 10))

    def test_offline_trace(self):
        for n in (4, 9):
            trace = TranslationTrace(d=[n] * n)
            trace.events = [ReadEvent(n=n)] + [WriteEvent(token=0)] * n
            assert laal(trace, n, n, n) == pytest.approx(n)

    def test_wait1_long_target_vs_oracle(self):
        # target twice the source length; asserted only against the oracle
        source_len, target_len = 6, 12
        d = [min(1 + i, source_len) for i in range(target_len)]
        trace = TranslationTrace(d=d)
        want = laal_oracle(d, source_len, target_len, target_len)
        assert laal(trace, source_len, target_len, target_len) == pytest.approx(want)

    def test_empty_trace_rejected(self):
        with pytest.raises(DataError):
            laal(TranslationTrace(), 3, 3, 3)

    def test_perfect_wait_k_family(self):
        for k in range(1, 8):
            for n in (8, 17, 32):
                trace = wait_k_trace(k, n, n)
                assert laal(trace, n, n, n) == pytest.approx(float(k))

    def test_random_traces_vs_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            s = int(rng.integers(2, 15))
            t = int(rng.integers(1, 15))
            d = np.minimum.accumulate(np.full(t, s))
            d = np.maximum.accumulate(rng.integers(1, s + 1, size=t)).tolist()
            trace = TranslationTrace(d=d)
            ref = int(rng.integers(1, 20))
            assert laal(trace, s, t, ref) == pytest.approx(
                laal_oracle(d, s, t, ref))


class TestFlops:
    def _run(self, src, tgt, k, kind):
        params = init_model(CFG)
        mode = GenerationMode(kind)
        _, trace = simul_generate(params, WaitKPolicy(k, len(src)), [PRE_ID],
                                  src, [SEP_ID], mode, max_target_len=len(tgt),
                                  forced_target=tgt)
        return trace, mode

    def test_single_prediction_identical_totals(self):
        trace_c, mode_c = self._run([3, 4, 5], [7], 9, "cached")
        trace_r, mode_r = self._run([3, 4, 5], [7], 9, "recompute")
        fm = FlopModel(CFG)
        rep_c = flops_generate(trace_c, fm, mode_c)
        rep_r = flops_generate(trace_r, fm, mode_r)
        assert rep_c.total == rep_r.total
        assert rep_r.recompute == 0

    def test_analytic_matches_shadow_counter(self):
        fm = FlopModel(CFG)
        for kind in ("cached", "recompute"):
            for k, s, t in ((1, 7, 6), (3, 9, 4), (9, 5, 5)):
                src = list(range(3, 3 + s))
                tgt = [3] * t
                trace, mode = self._run(src, tgt, k, kind)
                rep = flops_generate(trace, fm, mode)
                assert rep.total == sum(trace.flop_log)
                assert rep.total == sum(ev.flops for ev in trace.events)

    def test_cached_below_recompute(self):
        fm = FlopModel(CFG)
        trace_c, mode_c = self._run(list(range(3, 11)), [3] * 6, 2, "cached")
        trace_r, mode_r = self._run(list(range(3, 11)), [3] * 6, 2, "recompute")
        assert flops_generate(trace_c, fm, mode_c).total < \
            flops_generate(trace_r, fm, mode_r).total

    def test_recompute_growth_superlinear(self):
        fm = FlopModel(CFG)
        lengths, rec, init = [], [], []
        for s in (4, 8, 16, 24):
            src = [3 + (i % 9) for i in range(s)]
            trace, mode = self._run(src, [3] * s, 2, "recompute")
            rep = flops_generate(trace, fm, mode)
            lengths.append(2 * s)
            rec.append(rep.recompute)
            init.append(rep.initial)
        assert fit_loglog_exponent(lengths, rec) > 1.5
        assert fit_loglog_exponent(lengths, init) < 1.2

    def test_schedule_trace_flops_are_zero(self):
        trace = wait_k_trace(2, 5, 4)
        fm = FlopModel(CFG)
        rep = flops_generate(trace, fm, GenerationMode("cached"))
        assert rep.initial > 0  # analytic cost of the events
        assert sum(trace.flop_log) == 0  # no model ran


class TestQualityProxy:
    def test_identical(self):
        rep = quality_proxy([[1, 2, 3], [4]], [[1, 2, 3], [4]])
        assert rep.token_accuracy == 1.0
        assert rep.exact_match == 1.0

    def test_disjoint(self):
        rep = quality_proxy([[1, 1], [2]], [[3, 3], [4]])
        assert rep.token_accuracy == 0.0
        assert rep.exact_match == 0.0

    def test_position_count_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            hyps = [[int(x) for x in rng.integers(0, 4, size=rng.integers(1, 9))]
                    for _ in range(n)]
            refs = [[int(x) for x in rng.integers(0, 4, size=rng.integers(1, 9))]
                    for _ in range(n)]
            rep = quality_proxy(hyps, refs)
            matched = 0
            total = 0
            for h, r in zip(hyps, refs):
                total += len(r)
                for i in range(min(len(h), len(r))):
                    matched += h[i] == r[i]
            assert rep.token_accuracy == pytest.approx(matched / total)
            assert rep.exact_match == pytest.approx(
                sum(h == r for h, r in zip(hyps, refs)) / n)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            quality_proxy([[1]], [[1], [2]])


class TestMetricsCsv:
    def test_columns_and_rows(self):
        text = metrics_rows_to_csv([(0, 3, 3.0, 100, 0, 0.5, 0.0)])
        lines = text.strip().splitlines()
        assert lines[0] == ("sentence_id,k_or_chunk,laal,flops_initial,"
                            "flops_recompute,token_acc,exact_match")
        assert lines[1].startswith("0,3,3.0,100,0,")

    def test_bad_arity_rejected(self):
        with pytest.raises(DataError):
            metrics_rows_to_csv([(1, 2, 3)])
