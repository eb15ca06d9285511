"""Dense kernels: stable ragged softmax and head-batched biased attention.

All computations are float32 unless the caller passes float64 inputs.
A bias entry of -inf marks a key as absent: it maps to exactly 0 after the
softmax, and since a row's maximum is taken over its finite entries, no NaN
can arise from ``-inf - finite``.

Both kernels work on ragged blocks: the rows of a call are laid end to end
along the key axis, and ``counts[r]`` says how many entries row ``r`` owns.
Every operation here is a pure function of its inputs and is safe to call
from concurrent threads.
"""

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
    """Softmax of ``x`` over each row's slice of the last axis.

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
    e = np.exp(x - peak.repeat(counts, axis=-1))
    sums = np.empty_like(peak)
    for r, (lo, hi) in enumerate(zip(starts, ends)):
        np.add.reduce(e[..., lo:hi], axis=-1, out=sums[..., r])
    return e / sums.repeat(counts, axis=-1)


def softmax_row(x: np.ndarray, counts) -> np.ndarray:
    """Numerically stable softmax over each row of a ragged block.

    ``x`` is (..., total); row ``r`` owns the next ``counts[r]`` entries of
    the last axis, and every row is normalized on its own.  Entries equal
    to -inf are treated as absent: they contribute nothing to the
    normalizer and map to exactly 0 in the output.  Raises
    DegenerateRowError when some row is empty or has no finite entry, or
    NumericError when some row's maximum is NaN or +inf (broken numbers,
    not an empty visible set).
    """
    x = np.asarray(x)
    if x.ndim < 1:
        raise ShapeError("softmax_row expects at least one axis")
    return _softmax(x, _rows(counts, x.shape[-1]))


def attend_row(q: np.ndarray, keys: np.ndarray, values: np.ndarray,
               bias: np.ndarray, counts) -> np.ndarray:
    """Attention outputs (m, H, d_head) of m query rows over their keys.

    ``q`` is (m, H, d_head).  ``keys``/``values`` hold every row's
    already-gathered visible keys end to end, (total, H, d_head) each:
    row ``r`` owns the next ``counts[r]`` of them.  ``bias`` is the
    matching (H, total) additive block.  Visibility does not depend on the
    head, so all heads attend from one gather.  This is the single
    attention code path of the package, which is what makes full-sequence
    and incremental forwards bit-identical: a row's result depends only on
    its own query, keys, values and biases, never on the other rows of the
    call.  Per row, each head's scores are one GEMV over a C-contiguous
    (n, d_head) block, its softmax normalizer one sum over its own slice,
    and its output one GEMV; everything else runs once over the block.
    The row engine gathers keys and values head-major, (H, total, d_head)
    C-contiguous, and passes their transposed views, so transposing back
    below copies nothing.
    """
    if bias.ndim != 2 or bias.shape != (q.shape[1], keys.shape[0]):
        raise ShapeError(f"bias shape {bias.shape} != scores shape "
                         f"{(q.shape[1], keys.shape[0])}")
    rows = _rows(counts, keys.shape[0])
    bounds = list(zip(*rows[1:]))
    if len(bounds) != q.shape[0]:
        raise ShapeError(f"{len(bounds)} counts for {q.shape[0]} query rows")
    by_head = np.ascontiguousarray(keys.transpose(1, 0, 2))
    scores = np.empty(bias.shape, dtype=np.result_type(q, keys))
    for r, (lo, hi) in enumerate(bounds):
        np.matmul(by_head[:, lo:hi], q[r, :, :, None], out=scores[:, lo:hi, None])
    w = _softmax((scores + bias) / np.sqrt(q.shape[-1]).astype(q.dtype), rows)
    by_head = np.ascontiguousarray(values.transpose(1, 0, 2))
    out = np.empty((q.shape[0], q.shape[1], values.shape[-1]),
                   dtype=np.result_type(w, values))
    for r, (lo, hi) in enumerate(bounds):
        np.matmul(w[:, None, lo:hi], by_head[:, lo:hi], out=out[r, :, None])
    return out
