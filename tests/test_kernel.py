import numpy as np
import pytest

from simulbench.errors import DegenerateRowError, NumericError, ShapeError
from simulbench.kernel import NEG_INF, attend_row, softmax_row


class TestSoftmaxRow:
    def test_uniform(self):
        assert np.allclose(softmax_row(np.zeros(3)), np.full(3, 1 / 3), atol=1e-7)

    def test_masked_entry_exact_zero(self):
        out = softmax_row(np.array([5.0, NEG_INF]))
        assert out[0] == 1.0
        assert out[1] == 0.0

    def test_against_extended_precision(self):
        # 50-digit evaluation of softmax([1, 2, 3])
        expected = np.array([0.090030573170380457998,
                             0.24472847105479765247,
                             0.66524095577482188953])
        out = softmax_row(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        assert np.allclose(out, expected, atol=1e-6)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(8).astype(np.float32) * 10
            x[rng.integers(0, 8)] = NEG_INF
            out = softmax_row(x)
            assert abs(out.sum() - 1.0) <= 1e-6
            assert (out[x == NEG_INF] == 0.0).all()

    def test_all_masked_degenerate(self):
        with pytest.raises(DegenerateRowError):
            softmax_row(np.array([NEG_INF, NEG_INF]))

    def test_nan_row_is_numeric_error(self):
        # a row with no finite entry because it holds NaN is broken numbers,
        # not an empty visible set; an all -inf row still blames visibility
        x = np.zeros((2, 3), dtype=np.float32)
        x[1] = np.nan
        with pytest.raises(NumericError, match="non-finite attention scores"):
            softmax_row(x)
        x[1] = NEG_INF
        with pytest.raises(DegenerateRowError):
            softmax_row(x)

    def test_large_values_stable(self):
        out = softmax_row(np.array([1000.0, 1000.0], dtype=np.float32))
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
        out = attend_row(q, k, v, np.zeros((3, 1), dtype=np.float32))
        assert np.allclose(out, v[0], atol=1e-7)

    def test_diagonal_mask_returns_values(self):
        rng = np.random.default_rng(3)
        q, k, v = random_heads(rng, 4, 4, 8)
        for j in range(4):
            bias = np.full((4, 4), NEG_INF, dtype=np.float32)
            bias[:, j] = 0.0
            assert np.allclose(attend_row(q, k, v, bias), v[j], atol=1e-7)

    def test_against_scalar_oracle(self):
        rng = np.random.default_rng(4)
        q, k, v = random_heads(rng, 4, 5, 3, np.float64)
        bias = -rng.random((4, 5))
        bias[0, 2] = bias[3, 0] = bias[3, 4] = NEG_INF
        got = attend_row(q, k, v, bias)
        want = scalar_attention_oracle(q.tolist(), k.tolist(), v.tolist(),
                                       bias.tolist())
        assert np.allclose(got, want, atol=1e-10)

    def test_fully_masked_row_rejected(self):
        q, k, v = random_heads(np.random.default_rng(5), 2, 2, 2)
        bias = np.array([[0.0, 0.0], [NEG_INF, NEG_INF]], dtype=np.float32)
        with pytest.raises(DegenerateRowError):
            attend_row(q, k, v, bias)

    def test_mask_shape_mismatch(self):
        q, k, v = random_heads(np.random.default_rng(6), 2, 2, 2)
        with pytest.raises(ShapeError):
            attend_row(q, k, v, np.zeros((3, 2), dtype=np.float32))
        with pytest.raises(ShapeError):  # one row would broadcast over heads
            attend_row(q, k, v, np.zeros(2, dtype=np.float32))


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
            base = attend_row(q, k, v, bias)
            permuted = attend_row(q, k[perm], v[perm],
                                  np.ascontiguousarray(bias[:, perm]))
            assert np.allclose(base, permuted, atol=1e-5)

    def test_softmax_shift_invariance(self):
        for seed in range(20):
            q, k, v, bias = self._random_case(seed)
            base = attend_row(q, k, v, bias)
            shifted = bias.copy()
            shifted[2] += 3.25  # constant over one head's finite entries
            out = attend_row(q, k, v, shifted)
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
            full = attend_row(q[i], k, v, causal)
            prefix = attend_row(q[i], k[:i + 1], v[:i + 1],
                                np.zeros((n_heads, i + 1), dtype=np.float32))
            assert np.allclose(full, prefix, atol=1e-6)
