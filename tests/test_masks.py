import numpy as np
import pytest

from simulbench.errors import LayoutError, PolicyError, ShapeError
from simulbench.masks import (PromptLayout, TablePolicy, WaitKPolicy,
                              causal_mask, mask_to_ascii, read_count_mask,
                              simul_mask)

from helpers import ascii_to_mask, hidden_beyond_causal


def random_policy(rng, source_len, target_len):
    if rng.random() < 0.5:
        return WaitKPolicy(k=int(rng.integers(1, source_len + 3)),
                           source_len=source_len)
    reads = np.maximum.accumulate(rng.integers(1, source_len + 1, size=target_len))
    return TablePolicy(reads=tuple(int(r) for r in reads), source_len=source_len)


class TestCausalMask:
    def test_length_one(self):
        assert causal_mask(1).visible.tolist() == [[True]]

    def test_length_three(self):
        want = [[1, 0, 0], [1, 1, 0], [1, 1, 1]]
        assert causal_mask(3).visible.astype(int).tolist() == want

    def test_predicate_oracle(self):
        m = causal_mask(16)
        for i in range(16):
            for j in range(16):
                assert m.visible[i, j] == (j <= i)

    def test_zero_length(self):
        with pytest.raises(ShapeError):
            causal_mask(0)


def source_block(layout, mask):
    """The T x S block of ``mask``: predictor rows by source columns."""
    return mask.visible[np.ix_(layout.predictor_rows(),
                               range(layout.source_start, layout.mid_start))]


class TestCrossAttentionMask:
    """The predictor rows' source block of ``simul_mask``: the row
    predicting target t sees source j iff j <= f(t)."""

    def test_wait1_three_by_three(self):
        layout = PromptLayout(1, 3, 1, 3)
        m = simul_mask(layout, WaitKPolicy(k=1, source_len=3))
        want = [[1, 0, 0], [1, 1, 0], [1, 1, 1]]
        assert source_block(layout, m).astype(int).tolist() == want

    def test_k_at_least_source_fully_visible(self):
        layout = PromptLayout(1, 5, 1, 4)
        m = simul_mask(layout, WaitKPolicy(k=7, source_len=5))
        assert source_block(layout, m).all()

    def test_predicate_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            s = int(rng.integers(2, 10))
            t = int(rng.integers(1, 9))
            layout = PromptLayout(1, s, 1, t)
            pol = random_policy(rng, s, t)
            sub = source_block(layout, simul_mask(layout, pol))
            for ti in range(1, t + 1):
                for j in range(1, s + 1):
                    assert sub[ti - 1, j - 1] == (j <= pol.cumulative_reads(ti))

    def test_policy_domain_too_short(self):
        pol = TablePolicy(reads=(1, 2), source_len=4)
        with pytest.raises(PolicyError):
            simul_mask(PromptLayout(1, 4, 1, 3), pol)


class TestSimulMask:
    def test_wait1_reference_grid(self):
        layout = PromptLayout(1, 4, 1, 4)
        m = simul_mask(layout, WaitKPolicy(k=1, source_len=4))
        # rows/cols 0-based: p2 = 5, t1 = 6, t2 = 7; sources at cols 1..4
        assert hidden_beyond_causal(m) == {
            (5, 2), (5, 3), (5, 4), (6, 3), (6, 4), (7, 4)}

    def test_k_at_least_source_is_causal(self):
        layout = PromptLayout(2, 5, 2, 4)
        m = simul_mask(layout, WaitKPolicy(k=5, source_len=5))
        assert np.array_equal(m.visible, causal_mask(layout.total_len).visible)

    def test_layout_policy_mismatch(self):
        with pytest.raises(LayoutError):
            simul_mask(PromptLayout(1, 4, 1, 2), WaitKPolicy(k=1, source_len=5))
        with pytest.raises(PolicyError):
            simul_mask(PromptLayout(1, 4, 1, 3),
                       TablePolicy(reads=(1, 2), source_len=4))

    def test_multi_token_mid_prompt_first_read_visibility(self):
        layout = PromptLayout(2, 6, 3, 2)
        pol = WaitKPolicy(k=2, source_len=6)
        m = simul_mask(layout, pol)
        s0 = layout.source_start
        # every mid-prompt row sees exactly f(1)=2 source keys
        for row in range(layout.mid_start, layout.target_start):
            assert m.visible[row, s0:s0 + 6].sum() == 2

    def test_final_target_row_keeps_full_source(self):
        layout = PromptLayout(1, 10, 1, 3)
        m = simul_mask(layout, WaitKPolicy(k=1, source_len=10))
        last = layout.total_len - 1
        assert m.visible[last, :last + 1].all()


class TestSimulMaskProperties:
    def _random_case(self, rng):
        layout = PromptLayout(int(rng.integers(1, 4)), int(rng.integers(1, 12)),
                              int(rng.integers(1, 4)), int(rng.integers(1, 10)))
        pol = random_policy(rng, layout.source_len, layout.target_len)
        return layout, pol

    def test_at_least_as_restrictive_as_causal(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            layout, pol = self._random_case(rng)
            m = simul_mask(layout, pol)
            causal = causal_mask(layout.total_len).visible
            assert not (m.visible & ~causal).any()
            hidden = hidden_beyond_causal(m)
            s0, s1 = layout.source_start, layout.mid_start
            for i, j in hidden:
                assert s0 <= j < s1 and i != j

    def test_wait_k_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            layout = PromptLayout(1, int(rng.integers(2, 10)), 1,
                                  int(rng.integers(1, 8)))
            k = int(rng.integers(1, layout.source_len + 1))
            k2 = int(rng.integers(k, layout.source_len + 2))
            h_low = hidden_beyond_causal(
                simul_mask(layout, WaitKPolicy(k, layout.source_len)))
            h_high = hidden_beyond_causal(
                simul_mask(layout, WaitKPolicy(k2, layout.source_len)))
            assert h_high <= h_low

    def test_visible_source_count_equals_policy(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            layout, pol = self._random_case(rng)
            m = simul_mask(layout, pol)
            s0 = layout.source_start
            for t in range(1, layout.target_len + 1):
                row = layout.predictor_row(t)
                count = int(m.visible[row, s0:layout.mid_start].sum())
                assert count == pol.cumulative_reads(t)

    def test_cross_attention_subblock(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            layout, pol = self._random_case(rng)
            sub = source_block(layout, simul_mask(layout, pol))
            j = np.arange(layout.source_len)
            for t in range(1, layout.target_len + 1):
                assert np.array_equal(sub[t - 1], j < pol.cumulative_reads(t))

    def test_unique_per_layout_and_policy(self):
        layout = PromptLayout(1, 6, 1, 6)
        grids = [simul_mask(layout, WaitKPolicy(k, 6)).visible.tobytes()
                 for k in range(1, 6)]
        assert len(set(grids)) == len(grids)


class TestAsciiDump:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            layout = PromptLayout(1, int(rng.integers(1, 8)), 1,
                                  int(rng.integers(1, 8)))
            pol = WaitKPolicy(int(rng.integers(1, 9)), layout.source_len)
            m = simul_mask(layout, pol)
            text = mask_to_ascii(m, pol.describe())
            parsed, desc = ascii_to_mask(text)
            assert np.array_equal(parsed.visible, m.visible)
            assert desc == pol.describe()

    def test_header_format(self):
        text = mask_to_ascii(causal_mask(3), "causal")
        assert text.splitlines()[0] == "L=3 policy=causal"
        assert text.splitlines()[1] == "#.."

    def test_bad_dump_rejected(self):
        with pytest.raises(ShapeError):
            ascii_to_mask("L=2 policy=x\n#.\n")
        with pytest.raises(ShapeError):
            ascii_to_mask("nonsense\n##\n")


class TestPolicies:
    def test_wait_k_formula(self):
        pol = WaitKPolicy(k=3, source_len=8)
        assert [pol.cumulative_reads(t) for t in range(1, 8)] == [3, 4, 5, 6, 7, 8, 8]

    def test_invalid_policies(self):
        with pytest.raises(PolicyError):
            WaitKPolicy(k=0, source_len=4)
        with pytest.raises(PolicyError):
            TablePolicy(reads=(2, 1), source_len=3)
        with pytest.raises(PolicyError):
            TablePolicy(reads=(0, 1), source_len=3)
        # whole counts only: a float or a bool is not one, whatever its value
        for bad in (lambda: WaitKPolicy(k=2.5, source_len=4),
                    lambda: WaitKPolicy(k=2.0, source_len=4),
                    lambda: WaitKPolicy(k=True, source_len=4),
                    lambda: WaitKPolicy(k=np.float64(2), source_len=4),
                    lambda: WaitKPolicy(k=2, source_len=4.0),
                    lambda: TablePolicy(reads=(1.5, 2, 4)),
                    lambda: TablePolicy(reads=(1, True), source_len=2),
                    lambda: TablePolicy(reads=(1, 2), source_len=2.0),
                    lambda: read_count_mask(1, 1, [1.5, 2]),
                    lambda: read_count_mask(1, 1, [True, True])):
            with pytest.raises(PolicyError):
                bad()
        # so is a target step, and a read count among whole ones; the
        # message names the value
        for bad, named in ((lambda: read_count_mask(1, 1, [True, 2]), "True"),
                           (lambda: WaitKPolicy(2, 4).cumulative_reads(1.5),
                            "1.5"),
                           (lambda: WaitKPolicy(2, 4).cumulative_reads(True),
                            "True"),
                           (lambda: TablePolicy((1, 2, 3)).cumulative_reads(2.0),
                            "2.0")):
            with pytest.raises(PolicyError, match=named):
                bad()
        # numpy integers are whole counts
        assert WaitKPolicy(k=np.int64(2), source_len=np.int32(4)).describe() == "wait-2"
        assert TablePolicy(reads=np.array([1, 2, 2])).reads == (1, 2, 2)

    def test_layout_validation(self):
        with pytest.raises(LayoutError):
            PromptLayout(0, 3, 1, 1)
        for bad in ((1, 3.0, 1, 1), (1, 3, 1, 2.5), (True, 3, 1, 1),
                    (1, 3, np.float32(1), 1)):
            with pytest.raises(LayoutError):
                PromptLayout(*bad)
        assert PromptLayout(*np.array([1, 3, 1, 1])).total_len == 6
        layout = PromptLayout(2, 3, 2, 2)
        assert layout.total_len == 9
        assert layout.predictor_row(1) == 6
        assert layout.predictor_row(2) == 7
        with pytest.raises(LayoutError):
            layout.predictor_row(3)
        with pytest.raises(LayoutError, match="2.5"):
            PromptLayout(1, 3, 1, 3).predictor_row(2.5)
