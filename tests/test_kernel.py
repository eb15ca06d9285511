import numpy as np
import pytest

from simulbench.errors import DegenerateRowError, NumericError, ShapeError
from simulbench.kernel import NEG_INF, attend_row, row_plan


def softmax_rows(x, counts):
    """The ragged softmax of ``attend_row`` over an (H, total) or (total,)
    block ``x``, row ``r`` owning the next ``counts[r]`` entries.

    With zero queries and keys and d_head 1, the scores are exactly ``x``;
    identity values then return row r's weights in its own columns and
    exact zeros elsewhere, so the sum over rows is the softmax itself.
    """
    x = np.asarray(x)
    heads = np.atleast_2d(x)
    H, n = heads.shape
    q = np.zeros((len(counts), H, 1), dtype=x.dtype)
    keys = np.zeros((n, H, 1), dtype=x.dtype)
    values = np.broadcast_to(np.eye(n, dtype=x.dtype)[:, None], (n, H, n))
    out = attend_row(q, keys, values, heads,
                     row_plan(counts, np.cumsum(counts) - counts))
    return out.sum(axis=0).reshape(x.shape)


def softmax_one(x):
    """Softmax with one row owning the whole last axis."""
    x = np.asarray(x)
    return softmax_rows(x, [x.shape[-1]])


def attend_one(q, keys, values, bias):
    """Attention of one query row (H, d_head) over its (n, H, d_head) keys."""
    return attend_row(q[None], keys, values, bias,
                      row_plan([keys.shape[0]], [0]))[0]


class TestSoftmaxRow:
    def test_uniform(self):
        assert np.allclose(softmax_one(np.zeros(3)), np.full(3, 1 / 3), atol=1e-7)

    def test_masked_entry_exact_zero(self):
        out = softmax_one(np.array([5.0, NEG_INF]))
        assert out[0] == 1.0
        assert out[1] == 0.0

    def test_against_extended_precision(self):
        # 50-digit evaluation of softmax([1, 2, 3])
        expected = np.array([0.090030573170380457998,
                             0.24472847105479765247,
                             0.66524095577482188953])
        out = softmax_one(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        assert np.allclose(out, expected, atol=1e-6)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(8).astype(np.float32) * 10
            x[rng.integers(0, 8)] = NEG_INF
            out = softmax_one(x)
            assert abs(out.sum() - 1.0) <= 1e-6
            assert (out[x == NEG_INF] == 0.0).all()

    def test_all_masked_degenerate(self):
        with pytest.raises(DegenerateRowError):
            softmax_one(np.array([NEG_INF, NEG_INF]))

    def test_nan_row_is_numeric_error(self):
        # a row with no finite entry because it holds NaN is broken numbers,
        # not an empty visible set; an all -inf row still blames visibility
        x = np.zeros((2, 3), dtype=np.float32)
        x[1] = np.nan
        with pytest.raises(NumericError, match="non-finite attention scores"):
            softmax_one(x)
        x[1] = NEG_INF
        with pytest.raises(DegenerateRowError):
            softmax_one(x)

    def test_large_values_stable(self):
        out = softmax_one(np.array([1000.0, 1000.0], dtype=np.float32))
        assert np.allclose(out, [0.5, 0.5])


def scalar_attention_oracle(q, k, v, bias):
    """Independent re-implementation with pure-Python float arithmetic.

    q is [head][d], k and v are [key][head][d], bias is [head][key]; a -inf
    bias hides its key.
    """
    import math
    out = []
    for h in range(len(q)):
        d = len(q[h])
        scores = []
        cols = []
        for j in range(len(k)):
            if bias[h][j] == NEG_INF:
                continue
            s = sum(q[h][t] * k[j][h][t] for t in range(d)) + bias[h][j]
            scores.append(s / math.sqrt(d))
            cols.append(j)
        mx = max(scores)
        ws = [math.exp(s - mx) for s in scores]
        z = sum(ws)
        row = [0.0] * d
        for w, j in zip(ws, cols):
            for t in range(d):
                row[t] += (w / z) * v[j][h][t]
        out.append(row)
    return np.array(out)


def random_heads(rng, n_heads, n_keys, d, dtype=np.float32):
    q = rng.standard_normal((n_heads, d)).astype(dtype)
    k = rng.standard_normal((n_keys, n_heads, d)).astype(dtype)
    v = rng.standard_normal((n_keys, n_heads, d)).astype(dtype)
    return q, k, v


class TestMaskedAttention:
    """Masked attention through the head-batched ``attend_row``: a -inf
    bias entry hides its key."""

    def test_single_key_returns_value(self):
        rng = np.random.default_rng(2)
        q, k, v = random_heads(rng, 3, 1, 4)
        out = attend_one(q, k, v, np.zeros((3, 1), dtype=np.float32))
        assert np.allclose(out, v[0], atol=1e-7)

    def test_diagonal_mask_returns_values(self):
        rng = np.random.default_rng(3)
        q, k, v = random_heads(rng, 4, 4, 8)
        for j in range(4):
            bias = np.full((4, 4), NEG_INF, dtype=np.float32)
            bias[:, j] = 0.0
            assert np.allclose(attend_one(q, k, v, bias), v[j], atol=1e-7)

    def test_against_scalar_oracle(self):
        rng = np.random.default_rng(4)
        q, k, v = random_heads(rng, 4, 5, 3, np.float64)
        bias = -rng.random((4, 5))
        bias[0, 2] = bias[3, 0] = bias[3, 4] = NEG_INF
        got = attend_one(q, k, v, bias)
        want = scalar_attention_oracle(q.tolist(), k.tolist(), v.tolist(),
                                       bias.tolist())
        assert np.allclose(got, want, atol=1e-10)

    def test_fully_masked_row_rejected(self):
        q, k, v = random_heads(np.random.default_rng(5), 2, 2, 2)
        bias = np.array([[0.0, 0.0], [NEG_INF, NEG_INF]], dtype=np.float32)
        with pytest.raises(DegenerateRowError):
            attend_one(q, k, v, bias)

    def test_mask_shape_mismatch(self):
        q, k, v = random_heads(np.random.default_rng(6), 2, 2, 2)
        with pytest.raises(ShapeError):
            attend_one(q, k, v, np.zeros((3, 2), dtype=np.float32))
        with pytest.raises(ShapeError):  # one row would broadcast over heads
            attend_one(q, k, v, np.zeros(2, dtype=np.float32))


class TestAttentionProperties:
    def _random_case(self, seed, n_heads=4, n_keys=6, d=4):
        rng = np.random.default_rng(seed)
        q, k, v = random_heads(rng, n_heads, n_keys, d)
        bias = (-rng.random((n_heads, n_keys))).astype(np.float32)
        bias[rng.random((n_heads, n_keys)) < 0.35] = NEG_INF
        bias[:, 0] = 0.0
        return q, k, v, bias

    def test_key_order_independence(self):
        for seed in range(20):
            q, k, v, bias = self._random_case(seed)
            rng = np.random.default_rng(100 + seed)
            perm = rng.permutation(k.shape[0])
            base = attend_one(q, k, v, bias)
            permuted = attend_one(q, k[perm], v[perm],
                                  np.ascontiguousarray(bias[:, perm]))
            assert np.allclose(base, permuted, atol=1e-5)

    def test_softmax_shift_invariance(self):
        for seed in range(20):
            q, k, v, bias = self._random_case(seed)
            base = attend_one(q, k, v, bias)
            shifted = bias.copy()
            shifted[2] += 3.25  # constant over one head's finite entries
            out = attend_one(q, k, v, shifted)
            assert np.allclose(out[2], base[2], atol=1e-5)
            others = [h for h in range(q.shape[0]) if h != 2]
            assert np.array_equal(out[others], base[others])

    def test_causal_equals_rowwise_prefix(self):
        rng = np.random.default_rng(11)
        n, n_heads, d = 6, 4, 4
        q = rng.standard_normal((n, n_heads, d)).astype(np.float32)
        k = rng.standard_normal((n, n_heads, d)).astype(np.float32)
        v = rng.standard_normal((n, n_heads, d)).astype(np.float32)
        for i in range(n):
            causal = np.zeros((n_heads, n), dtype=np.float32)
            causal[:, i + 1:] = NEG_INF
            full = attend_one(q[i], k, v, causal)
            prefix = attend_one(q[i], k[:i + 1], v[:i + 1],
                                np.zeros((n_heads, i + 1), dtype=np.float32))
            assert np.allclose(full, prefix, atol=1e-6)


def per_row_reference(q, keys, values, bias):
    """One row's attention as the per-row kernel computed it: contiguous
    head-major key and value blocks, one GEMV per head, and a softmax over
    a contiguous (H, n) score block with one sum per head."""
    by_head = np.ascontiguousarray(keys.transpose(1, 0, 2))
    scores = np.matmul(by_head, q[:, :, None])[:, :, 0]
    x = (scores + bias) / np.sqrt(q.shape[-1]).astype(q.dtype)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    by_head = np.ascontiguousarray(values.transpose(1, 0, 2))
    return np.matmul(w[:, None, :], by_head)[:, 0, :]


# around the pairwise-summation block sizes (8, 128) and well past them
RAGGED_COUNTS = (1, 7, 8, 9, 127, 128, 129, 300, 1000)


class TestRaggedAttention:
    """Several rows in one call: every row is bit-identical to the same row
    alone and to the per-row kernel, whatever rows share its call."""

    @staticmethod
    def _block(rng, counts, n_heads, dtype):
        d_head, total = 64 // n_heads, sum(counts)
        q = rng.standard_normal((len(counts), n_heads, d_head)).astype(dtype)
        # head-major, as the row engine gathers them
        keys = rng.standard_normal((n_heads, total, d_head)).astype(dtype)
        values = rng.standard_normal((n_heads, total, d_head)).astype(dtype)
        bias = (-4 * rng.random((n_heads, total))).astype(np.float32)
        bias[rng.random((n_heads, total)) < 0.2] = NEG_INF
        starts = np.cumsum(counts) - counts
        bias[:, starts] = 0.0  # every row keeps a finite entry per head
        return q, keys, values, bias

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_heads", [1, 4, 16])
    def test_multi_row_call_matches_single_row_calls(self, dtype, n_heads):
        rng = np.random.default_rng(n_heads)
        for counts in (RAGGED_COUNTS, RAGGED_COUNTS[::-1]):
            counts = np.array(counts)
            q, keys, values, bias = self._block(rng, counts, n_heads, dtype)
            out = attend_row(q, keys.transpose(1, 0, 2),
                             values.transpose(1, 0, 2), bias,
                             row_plan(counts, np.cumsum(counts) - counts))
            assert out.shape == q.shape and out.dtype == dtype
            for r, (lo, n) in enumerate(zip(np.cumsum(counts) - counts, counts)):
                k = np.ascontiguousarray(keys[:, lo:lo + n]).transpose(1, 0, 2)
                v = np.ascontiguousarray(values[:, lo:lo + n]).transpose(1, 0, 2)
                b = np.ascontiguousarray(bias[:, lo:lo + n])
                alone = attend_row(q[r:r + 1], k, v, b, row_plan([n], [0]))[0]
                assert np.array_equal(out[r], alone), f"row of {n} keys"
                assert np.array_equal(alone, per_row_reference(q[r], k, v, b)), (
                    f"row of {n} keys")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_heads", [1, 4, 16])
    def test_prefix_rows_in_place_match_gathered_rows(self, dtype, n_heads):
        # rows reading prefixes of one head-major buffer in place, as
        # cached rows do (spare capacity past the keys, every offset 0),
        # match the same rows over gathered end-to-end copies of their keys
        rng = np.random.default_rng(100 + n_heads)
        counts = np.array(RAGGED_COUNTS[:-1])
        d_head, width = 64 // n_heads, counts.max()
        q = rng.standard_normal((len(counts), n_heads, d_head)).astype(dtype)
        keys, values = (rng.standard_normal((n_heads, 2 * width, d_head))
                        .astype(dtype) for _ in range(2))
        bias = (-4 * rng.random((n_heads, counts.sum()))).astype(np.float32)
        snapshot = [a.copy() for a in (q, keys, values, bias)]
        in_place = attend_row(q, keys[:, :width].transpose(1, 0, 2),
                              values[:, :width].transpose(1, 0, 2), bias,
                              row_plan(counts, [0] * len(counts)))
        cols = np.concatenate([np.arange(n) for n in counts])
        gathered = attend_row(q, keys.take(cols, axis=1).transpose(1, 0, 2),
                              values.take(cols, axis=1).transpose(1, 0, 2),
                              bias,
                              row_plan(counts, np.cumsum(counts) - counts))
        assert np.array_equal(in_place, gathered)
        for before, after in zip(snapshot, (q, keys, values, bias)):
            assert np.array_equal(before, after)  # inputs left as they were

    def test_ragged_softmax_rows_normalize_alone(self):
        rng = np.random.default_rng(7)
        counts = np.array(RAGGED_COUNTS)
        x = rng.standard_normal((4, counts.sum())).astype(np.float32)
        out = softmax_rows(x, counts)
        for lo, n in zip(np.cumsum(counts) - counts, counts):
            assert np.array_equal(out[:, lo:lo + n],
                                  softmax_rows(x[:, lo:lo + n].copy(), [n]))

    def test_zero_count_raises(self):
        rng = np.random.default_rng(8)
        q, keys, values, bias = self._block(rng, [3, 2], 4, np.float32)
        with pytest.raises(DegenerateRowError):
            attend_row(np.concatenate([q[:1], q]), keys.transpose(1, 0, 2),
                       values.transpose(1, 0, 2), bias,
                       row_plan([3, 0, 2], [0, 3, 3]))

    def test_nan_row_among_finite_rows_is_numeric_error(self):
        rng = np.random.default_rng(9)
        counts = [4, 5, 6]
        q, keys, values, bias = self._block(rng, counts, 4, np.float32)
        q[1, 2, 0] = np.nan  # one head of the middle row
        with pytest.raises(NumericError, match="non-finite attention scores"):
            attend_row(q, keys.transpose(1, 0, 2), values.transpose(1, 0, 2),
                       bias, row_plan(counts, [0, 4, 9]))
        q[1, 2, 0] = 0.0
        bias[:, 4:9] = NEG_INF  # the middle row sees nothing
        with pytest.raises(DegenerateRowError):
            attend_row(q, keys.transpose(1, 0, 2), values.transpose(1, 0, 2),
                       bias, row_plan(counts, [0, 4, 9]))

    def test_counts_must_cover_block_and_rows(self):
        rng = np.random.default_rng(10)
        q, keys, values, bias = self._block(rng, [3, 2], 4, np.float32)
        k, v = keys.transpose(1, 0, 2), values.transpose(1, 0, 2)
        with pytest.raises(ShapeError):
            attend_row(q, k, v, bias, row_plan([3, 1], [0, 3]))
        with pytest.raises(ShapeError):
            attend_row(q, k, v, bias, row_plan([5], [0]))
        with pytest.raises(ShapeError):  # one offset for two rows
            attend_row(q, k, v, bias, row_plan([3, 2], [0]))
        for offsets in ([0, 4], [-1, 3]):  # keys run past either end
            with pytest.raises(ShapeError):
                attend_row(q, k, v, bias, row_plan([3, 2], offsets))
