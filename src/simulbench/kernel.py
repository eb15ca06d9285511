"""Dense kernels: stable ragged softmax and head-batched biased attention.

All computations are float32 unless the caller passes float64 inputs.
A bias entry of -inf marks a key as absent: it maps to exactly 0 after the
softmax, and since a row's maximum is taken over its finite entries, no NaN
can arise from ``-inf - finite``.

Both kernels work on ragged blocks: the rows of a call are laid end to end
along the key axis, and ``counts[r]`` says how many entries row ``r`` owns.
``attend_row`` also takes each row's first key: its keys need not be laid
end to end, so rows may read overlapping prefixes of one cache in place.
Every operation here is a pure function of its inputs and is safe to call
from concurrent threads.
"""

import functools
from itertools import accumulate

import numpy as np

from .errors import DegenerateRowError, NumericError, ShapeError

NEG_INF = float("-inf")


def _rows(counts, total: int):
    """(counts, row starts, row ends) of a ragged block of ``total`` entries;
    rejects empty rows, before ``reduceat`` would hand them one entry of the
    next row, and counts that do not cover the block."""
    counts = np.asarray(counts, dtype=np.intp)
    if counts.ndim != 1 or counts.size == 0:
        raise ShapeError("counts must be a non-empty 1-D sequence")
    sizes = counts.tolist()
    if min(sizes) < 1:
        raise DegenerateRowError("softmax over a row with no entry")
    ends = list(accumulate(sizes))
    if ends[-1] != total:
        raise ShapeError(f"counts cover {ends[-1]} entries, block has {total}")
    return counts, [0] + ends[:-1], ends


def _softmax(x: np.ndarray, rows) -> np.ndarray:
    """Softmax of ``x`` over each row's slice of the last axis, in place:
    returns ``x``, overwritten.

    The maxima, the subtraction, ``exp`` and the division run once over the
    whole block; only the normalizer is summed per row, since a sum over
    the row's own slice reduces exactly as a sum over a contiguous copy of
    that row would, and ``np.add.reduceat`` does not.  Max is exact in any
    order.
    """
    counts, starts, ends = rows
    peak = np.maximum.reduceat(x, starts, axis=-1)
    finite = np.isfinite(peak)
    if not finite.all():
        if np.isneginf(peak[~finite]).all():
            raise DegenerateRowError("softmax over a row with no finite entry")
        raise NumericError("non-finite attention scores")
    x -= peak.repeat(counts, axis=-1)
    np.exp(x, out=x)
    sums = np.empty_like(peak)
    for r, (lo, hi) in enumerate(zip(starts, ends)):
        np.add.reduce(x[..., lo:hi], axis=-1, out=sums[..., r])
    x /= sums.repeat(counts, axis=-1)
    return x


def softmax_row(x: np.ndarray, counts) -> np.ndarray:
    """Numerically stable softmax over each row of a ragged block.

    ``x`` is (..., total); row ``r`` owns the next ``counts[r]`` entries of
    the last axis, and every row is normalized on its own.  Entries equal
    to -inf are treated as absent: they contribute nothing to the
    normalizer and map to exactly 0 in the output.  Raises
    DegenerateRowError when some row is empty or has no finite entry, or
    NumericError when some row's maximum is NaN or +inf (broken numbers,
    not an empty visible set).  ``x`` itself is left unchanged.
    """
    x = np.asarray(x)
    if x.ndim < 1:
        raise ShapeError("softmax_row expects at least one axis")
    # the dtype ``np.exp`` gives x: integers and booleans become floats
    return _softmax(x.astype(np.result_type(x.dtype, np.float16)),
                    _rows(counts, x.shape[-1]))


@functools.lru_cache(maxsize=None)
def _scale(dtype: np.dtype, d_head: int):
    """sqrt(d_head) as a scalar of ``dtype``, made once per pair."""
    return np.sqrt(d_head).astype(dtype)


def attend_row(q: np.ndarray, keys: np.ndarray, values: np.ndarray,
               bias: np.ndarray, counts, offsets) -> np.ndarray:
    """Attention outputs (m, H, d_head) of m query rows over their keys.

    ``q`` is (m, H, d_head) and ``keys``/``values`` are (n, H, d_head)
    each: row ``r`` attends to the ``counts[r]`` keys from ``offsets[r]``
    on, so rows may share keys.  The row engine hands over either every
    row's gathered keys end to end (offsets the running sum of counts) or a
    view of a KV cache prefix (every offset 0).  ``bias`` is the
    (H, sum(counts)) additive block of every row's biases end to end, row
    ``r`` owning the next ``counts[r]`` entries.  Visibility does not
    depend on the head, so all heads attend over the same keys.  This is
    the single attention code path of the package, which is what makes
    full-sequence and incremental forwards bit-identical: a row's result
    depends only on its own query, keys, values and biases, never on the
    other rows of the call.  Per row, each head's scores are one GEMV over
    its (counts[r], d_head) block of keys, read where it lies (the caller
    keeps each head's keys C-contiguous along the token axis, as the
    head-major transposed views of the row engine are), its softmax
    normalizer one sum over its own slice, and its output one GEMV;
    everything else runs once over the block, in place.
    """
    if bias.ndim != 2 or bias.shape[0] != q.shape[1]:
        raise ShapeError(f"bias shape {bias.shape} != ({q.shape[1]}, keys)")
    rows = _rows(counts, bias.shape[1])
    spans = list(zip(rows[1], rows[2], offsets))
    if not len(spans) == len(offsets) == q.shape[0]:
        raise ShapeError(f"{len(rows[1])} counts and {len(offsets)} offsets "
                         f"for {q.shape[0]} query rows")
    if any(at < 0 or at + hi - lo > keys.shape[0] for lo, hi, at in spans):
        raise ShapeError(f"a row's keys run outside the {keys.shape[0]} given")
    by_head = keys.transpose(1, 0, 2)
    scores = np.empty(bias.shape, dtype=np.result_type(q, keys, bias))
    for r, (lo, hi, at) in enumerate(spans):
        np.matmul(by_head[:, at:at + hi - lo], q[r, :, :, None],
                  out=scores[:, lo:hi, None])
    scores += bias
    scores /= _scale(q.dtype, q.shape[-1])
    w = _softmax(scores, rows)
    by_head = values.transpose(1, 0, 2)
    out = np.empty((q.shape[0], q.shape[1], values.shape[-1]),
                   dtype=np.result_type(w, values))
    for r, (lo, hi, at) in enumerate(spans):
        np.matmul(w[:, None, lo:hi], by_head[:, at:at + hi - lo],
                  out=out[r, :, None])
    return out
