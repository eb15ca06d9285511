"""Dense kernels: stable softmax and head-batched biased attention.

All computations are float32 unless the caller passes float64 inputs.
A bias entry of -inf marks a key as absent: it maps to exactly 0 after the
softmax, and since the row maximum is taken over finite entries, no NaN can
arise from ``-inf - finite``.

Every operation here is a pure function of its inputs and is safe to call
from concurrent threads.
"""

import numpy as np

from .errors import DegenerateRowError, NumericError, ShapeError

NEG_INF = float("-inf")


def softmax_row(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis.

    Entries equal to -inf are treated as absent: they contribute nothing to
    the normalizer and map to exactly 0 in the output.  Raises
    DegenerateRowError when some row has no finite entry, or NumericError
    when such a row holds NaN (broken numbers, not an empty visible set).
    """
    x = np.asarray(x)
    if x.ndim < 1:
        raise ShapeError("softmax_row expects at least one axis")
    live = (x > NEG_INF).any(axis=-1)
    if not live.all():
        if np.isnan(x[~live]).any():
            raise NumericError("non-finite attention scores")
        raise DegenerateRowError("softmax over a row with no finite entry")
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attend_row(q: np.ndarray, keys: np.ndarray, values: np.ndarray,
               bias: np.ndarray) -> np.ndarray:
    """Attention output (H, d_head) of one query row over its visible keys.

    ``q`` is (H, d_head); ``keys``/``values`` are the already-gathered
    visible rows, (n, H, d_head) each; ``bias`` is the matching (H, n)
    additive block.  Visibility does not depend on the head, so all heads
    attend from one gather.  This is the single attention code path of the
    package, which is what makes full-sequence and incremental forwards
    bit-identical; callers hand it the same memory layout on both paths so
    every call reduces in the same order.  The row engine gathers keys and
    values head-major, (H, n, d_head) C-contiguous, and passes their
    (n, H, d_head) transposed views, so transposing back below is already
    contiguous and ``ascontiguousarray`` copies nothing.
    """
    # head-major operand: each head's scores then reduce exactly as a
    # single-head (n, d_head) @ (d_head,) product would
    by_head = np.ascontiguousarray(keys.transpose(1, 0, 2))
    scores = np.matmul(by_head, q[:, :, None])[:, :, 0]
    if bias.shape != scores.shape:
        raise ShapeError(f"bias shape {bias.shape} != scores shape {scores.shape}")
    w = softmax_row((scores + bias) / np.sqrt(q.shape[-1]).astype(q.dtype))
    return np.matmul(w[:, None, :], values.transpose(1, 0, 2))[:, 0, :]
