from types import SimpleNamespace

import numpy as np
import pytest

from simulbench import alibi
from simulbench.alibi import (HeadSlopes, alibi_slopes, bias_to_csv,
                              head_biases, rank_biases)
from simulbench.errors import ConfigError, DegenerateRowError
from simulbench.masks import (AttentionMaskSpec, PromptLayout, WaitKPolicy,
                              causal_mask, simul_mask)


def ladder(mask, slope, kind="modified"):
    """One head's (L, L) biases at ``slope``."""
    return head_biases(mask, HeadSlopes((slope,)), kind)[0]


class TestSlopes:
    def test_eight_heads(self):
        got = alibi_slopes(8).slopes
        want = tuple(2.0 ** (-h) for h in range(1, 9))
        assert got == want

    def test_single_head(self):
        assert alibi_slopes(1).slopes == (2.0 ** -8,)

    def test_strictly_decreasing(self):
        for n in range(1, 33):
            s = alibi_slopes(n).slopes
            assert all(a > b > 0 for a, b in zip(s, s[1:])) or len(s) == 1
            assert all(v > 0 for v in s)

    def test_zero_heads(self):
        with pytest.raises(ConfigError):
            alibi_slopes(0)

    def test_memoized(self):
        assert alibi_slopes(16) is alibi_slopes(16)
        for _ in range(2):  # errors are not cached
            with pytest.raises(ConfigError):
                alibi_slopes(-1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            HeadSlopes((bad,))
        with pytest.raises(ConfigError, match="finite"):
            HeadSlopes((0.5, bad))


class TestStandardAlibi:
    def test_row_pattern(self):
        bias = ladder(causal_mask(4), 1.0, "standard")
        assert bias[3, :4].tolist() == [-3.0, -2.0, -1.0, 0.0]

    def test_single_row(self):
        bias = ladder(causal_mask(1), 0.5, "standard")
        assert bias[0, 0] == 0.0

    def test_arithmetic_progression(self):
        bias = ladder(causal_mask(9), 0.25, "standard")
        for i in range(9):
            row = bias[i, :i + 1]
            diffs = np.diff(row)
            assert np.allclose(diffs, 0.25)
            assert row[-1] == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):  # standard needs a square mask
            ladder(AttentionMaskSpec(np.ones((2, 3), dtype=bool)), 1.0,
                   "standard")
        with pytest.raises(ConfigError):
            ladder(causal_mask(3), -1.0, "standard")


class TestModifiedAlibi:
    def test_gap_row_reference(self):
        # q4 row with k2, k3 hidden: remaining biases collapse to -1, 0
        vis = np.tril(np.ones((4, 4), dtype=bool))
        vis[3, 1] = vis[3, 2] = False
        bias = ladder(AttentionMaskSpec(vis), 1.0)
        assert bias[3, 0] == -1.0
        assert bias[3, 3] == 0.0

    def test_causal_equals_standard(self):
        for n in (1, 4, 9):
            mask = causal_mask(n)
            mod = ladder(mask, 0.5)
            std = ladder(mask, 0.5, "standard")
            assert mod.tobytes() == std.tobytes()

    def test_cache_rank_oracle(self):
        # bias equals what a fresh incremental step assigns over a cache
        # holding only the visible keys, by recency rank
        rng = np.random.default_rng(0)
        for _ in range(25):
            layout = PromptLayout(1, int(rng.integers(2, 10)), 1,
                                  int(rng.integers(1, 8)))
            pol = WaitKPolicy(int(rng.integers(1, 6)), layout.source_len)
            mask = simul_mask(layout, pol)
            slope = float(rng.choice([0.25, 0.5, 1.0]))
            bias = ladder(mask, slope)
            for i in range(mask.rows):
                vis = np.flatnonzero(mask.visible[i])
                for rank_from_last, j in enumerate(reversed(vis)):
                    assert bias[i, j] == np.float32(-slope * rank_from_last)

    def test_total_reduction_matches_hidden_count(self):
        # farthest visible key gets -slope*(visible-1); vs the standard
        # -slope*distance this is a reduction of exactly slope per hidden entry
        layout = PromptLayout(1, 8, 1, 6)
        mask = simul_mask(layout, WaitKPolicy(2, 8))
        bias = ladder(mask, 1.0)
        std = ladder(mask, 1.0, "standard")
        for i in range(mask.rows):
            vis = np.flatnonzero(mask.visible[i])
            hidden = i + 1 - vis.size
            assert bias[i, vis[0]] == -(vis.size - 1)
            assert bias[i, vis[0]] - std[i, vis[0]] == hidden

    def test_content_independence(self):
        # same visibility pattern -> same biases, whatever produced it
        vis = np.tril(np.ones((5, 5), dtype=bool))
        vis[4, 2] = False
        a = ladder(AttentionMaskSpec(vis), 1.0)
        b = ladder(AttentionMaskSpec(vis.copy()), 1.0)
        assert np.array_equal(a, b)

    def test_rank_bias_helper(self):
        assert (rank_biases(4, HeadSlopes((1.0,))).tolist()
                == [[-3.0, -2.0, -1.0, 0.0]])
        assert rank_biases(1, HeadSlopes((2.0, 1.0))).tolist() == [[0.0], [0.0]]


class TestHeadBiases:
    def test_modified_per_head(self):
        mask = causal_mask(5)
        biases = head_biases(mask, alibi_slopes(4), "modified")
        assert biases.shape == (4, 5, 5)
        assert biases[0, 4, 0] == np.float32(-4 * alibi_slopes(4).slopes[0])

    def test_standard_ignores_gaps(self):
        layout = PromptLayout(1, 4, 1, 4)
        mask = simul_mask(layout, WaitKPolicy(1, 4))
        biases = head_biases(mask, alibi_slopes(2), "standard")
        row = layout.predictor_row(1)
        # standard biases keep plain distances even though the row has gaps
        assert biases[0, row, 0] == np.float32(-row * alibi_slopes(2).slopes[0])

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            head_biases(causal_mask(3), alibi_slopes(2), "other")


def formula(n, slopes):
    """The rank rule written out: -float32(slope) * rank over ranks
    n-1..0, for one slope or one row per slope of an (H, 1) column."""
    return -np.float32(slopes) * np.arange(n - 1, -1, -1, dtype=np.float32)


def reference_ladder(visible, slope):
    """Per-row reference: each row's visible keys, ascending, get the
    ranks n-1..0 of the rank rule."""
    matrix = np.zeros(visible.shape, dtype=np.float32)
    for i, row in enumerate(visible):
        vis = np.flatnonzero(row)
        matrix[i, vis] = formula(vis.size, slope)
    return matrix


def test_rank_biases_are_tails_of_a_kept_ladder(monkeypatch):
    # one ladder is kept per slope set (a fresh but equal HeadSlopes finds
    # it) and grows by doubling from 16 entries; every tail is the rank
    # rule written out, byte for byte, whichever slope set grew in
    # between, and no tail can be written through
    built = []

    class Kept(dict):
        def __setitem__(self, slopes, ladder):
            built.append((len(slopes), ladder.shape[1]))
            super().__setitem__(slopes, ladder)

    monkeypatch.setattr(alibi, "_KEPT", Kept())
    user = (0.5,)
    for slopes, n in [(4, 1), (4, 16), (16, 9), (user, 16), (4, 17),
                      (16, 16), (user, 17), (16, 17), (4, 32), (4, 3),
                      (user, 33), (16, 100), (4, 33), (user, 100),
                      (16, 0)]:
        slopes = (HeadSlopes(slopes) if slopes is user
                  else alibi_slopes(slopes))
        tail = rank_biases(n, slopes)
        assert tail.dtype == np.float32 and tail.shape == (len(slopes), n)
        want = formula(n, np.asarray(slopes.slopes)[:, None])
        assert tail.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            tail[..., -1:] = 1.0
    assert built == [(4, 16), (16, 16), (1, 16), (4, 32), (1, 32),
                     (16, 32), (1, 64), (16, 128), (4, 64), (1, 128)]


def random_gapped_masks(seed, count):
    """Causal masks with random hidden entries; the diagonal stays visible."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 33))
        vis = np.tril(rng.random((n, n)) < rng.uniform(0.2, 1.0))
        vis[np.arange(n), np.arange(n)] = True
        yield AttentionMaskSpec(vis)


class TestLadderBytes:
    """Byte-level equality with the per-row reference.

    ``np.array_equal`` treats -0.0 == 0.0, but ``bias-dump`` prints the
    sign: rank-0 entries are -0.0 and hidden entries +0.0.
    """

    SLOPES = (1.0, 0.5, 0.25, 2.0 ** -8, 0.3)

    def test_modified_matches_reference(self):
        for n, mask in enumerate(random_gapped_masks(1, 60)):
            slope = self.SLOPES[n % len(self.SLOPES)]
            bias = ladder(mask, slope)
            assert bias.dtype == np.float32
            assert (bias.tobytes()
                    == reference_ladder(mask.visible, slope).tobytes())
            assert not bias.flags.writeable
            assert not mask.visible.flags.writeable

    def test_standard_matches_reference(self):
        for n in (1, 2, 7, 16, 33):
            for slope in self.SLOPES:
                bias = ladder(causal_mask(n), slope, "standard")
                causal = np.tril(np.ones((n, n), dtype=bool))
                assert (bias.tobytes()
                        == reference_ladder(causal, slope).tobytes())
                assert not bias.flags.writeable

    @pytest.mark.parametrize("n_heads", [1, 4, 16])
    def test_head_biases_match_reference(self, n_heads):
        slopes = alibi_slopes(n_heads)
        for mask in random_gapped_masks(n_heads, 20):
            causal = np.tril(np.ones(mask.visible.shape, dtype=bool))
            for kind, visible in (("modified", mask.visible),
                                  ("standard", causal)):
                biases = head_biases(mask, slopes, kind)
                assert biases.shape == (n_heads,) + visible.shape
                assert not biases.flags.writeable
                for bias, slope in zip(biases, slopes.slopes):
                    assert (bias.tobytes()
                            == reference_ladder(visible, slope).tobytes())
                    assert not bias.flags.writeable

    def test_rank_zero_is_negative_zero(self):
        mask = causal_mask(3)
        bias = ladder(mask, 1.0)
        assert np.signbit(bias[2, 2])  # nearest key: -0.0
        assert not np.signbit(bias[0, 2])  # hidden: +0.0
        assert "2,2,-0.0" in bias_to_csv(bias, mask.visible)

    def test_all_hidden_row_names_it(self):
        # AttentionMaskSpec rejects such a grid, so pass the bare grid
        vis = np.tril(np.ones((5, 5), dtype=bool))
        vis[3] = False
        vis[4, :2] = False
        mask = SimpleNamespace(visible=vis, rows=5, cols=5)
        with pytest.raises(DegenerateRowError, match=r"^row 3 "):
            ladder(mask, 1.0)
        with pytest.raises(DegenerateRowError, match=r"^row 3 "):
            head_biases(mask, alibi_slopes(4), "modified")


class TestBiasDump:
    def test_csv_visible_entries_only(self):
        vis = np.tril(np.ones((3, 3), dtype=bool))
        vis[2, 1] = False
        mask = AttentionMaskSpec(vis)
        text = bias_to_csv(ladder(mask, 1.0), mask.visible)
        lines = text.strip().splitlines()
        assert lines[0] == "row,col,bias"
        got = {tuple(ln.split(",")[:2]) for ln in lines[1:]}
        assert ("2", "1") not in got
        assert ("2", "0") in got and ("2", "2") in got
