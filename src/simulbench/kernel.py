"""Dense kernel: head-batched biased attention with a stable softmax.

All computations are float32 unless the caller passes float64 inputs.
A bias entry of -inf marks a key as absent: it maps to exactly 0 after the
softmax, and since a row's maximum is taken over its finite entries, no NaN
can arise from ``-inf - finite``.

``attend_row`` works on ragged blocks: the rows of a call lay their scores
end to end along the key axis, and ``counts[r]`` says how many entries row
``r`` owns.  It also takes each row's first key: its keys need not be laid
end to end, so rows may read overlapping prefixes of one cache in place.
A call's layout is validated once, by ``row_plan``, into a ``RowPlan``
that every layer's ``attend_row`` reuses, checking only its sizes.
Every operation here is a pure function of its inputs and is safe to call
from concurrent threads.
"""

import functools
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import DegenerateRowError, NumericError, ShapeError

NEG_INF = float("-inf")


class RowPlan(NamedTuple):
    """A validated ragged layout of the rows of one call.

    Row r owns the entries ``starts[r]:ends[r]`` of the score block, its
    keys running from ``offsets[r]`` on; ``reach`` is the number of keys
    the rows read.  Build one with ``row_plan``, which validates it:
    ``attend_row`` trusts a plan's rows and checks only its sizes.
    """

    counts: np.ndarray
    starts: list[int]
    ends: list[int]
    offsets: list[int]
    reach: int


def row_plan(counts, offsets) -> RowPlan:
    """The RowPlan of rows owning ``counts[r]`` entries each, row r's keys
    starting at ``offsets[r]``.  Raises DegenerateRowError for an empty row
    and ShapeError for a malformed layout."""
    counts = np.asarray(counts, dtype=np.intp)
    if counts.ndim != 1 or counts.size == 0:
        raise ShapeError("counts must be a non-empty 1-D sequence")
    sizes = counts.tolist()
    # an empty row would take one entry of the next from ``reduceat``
    if min(sizes) < 1:
        raise DegenerateRowError("softmax over a row with no entry")
    ends = list(accumulate(sizes))
    starts = [0] + ends[:-1]
    offsets = [int(at) for at in offsets]
    if len(offsets) != len(starts):
        raise ShapeError(f"{len(starts)} counts and {len(offsets)} offsets")
    if min(offsets) < 0:
        raise ShapeError("a row's keys start before the first key")
    reach = max(at + hi - lo for lo, hi, at in zip(starts, ends, offsets))
    return RowPlan(counts, starts, ends, offsets, reach)


def _softmax(x: np.ndarray, counts, starts, ends) -> np.ndarray:
    """Softmax of ``x`` over each row's slice of the last axis, in place:
    returns ``x``, overwritten.

    The maxima, the subtraction, ``exp`` and the division run once over the
    whole block; only the normalizer is summed per row, since a sum over
    the row's own slice reduces exactly as a sum over a contiguous copy of
    that row would, and ``np.add.reduceat`` does not.  Max is exact in any
    order.
    """
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


@functools.lru_cache(maxsize=None)
def _scale(dtype: np.dtype, d_head: int):
    """sqrt(d_head) as a scalar of ``dtype``, made once per pair."""
    return np.sqrt(d_head).astype(dtype)


def attend_row(q: np.ndarray, keys: np.ndarray, values: np.ndarray,
               bias: np.ndarray, plan: RowPlan) -> np.ndarray:
    """Attention outputs (m, H, d_head) of m query rows over their keys.

    ``q`` is (m, H, d_head) and ``keys``/``values`` are (n, H, d_head)
    each.  ``plan`` is the call's ragged layout, validated once by
    ``row_plan`` and shared by every layer: row ``r`` attends to the
    ``counts[r]`` keys from ``offsets[r]`` on, so rows may share keys.  The
    row engine hands over either every row's gathered keys end to end
    (offsets the running sum of counts) or a view of a KV cache prefix
    (every offset 0).  ``bias`` is the (H, sum(counts)) additive block of
    every row's biases end to end, row ``r`` owning the next ``counts[r]``
    entries.  Here only the sizes are checked against the plan.
    Visibility does not depend on the head, so all heads attend over the
    same keys.  This is the single attention code path of the package,
    which is what makes full-sequence and incremental forwards
    bit-identical: a row's result depends only on its own query, keys,
    values and biases, never on the other rows of the call.  Per row, each
    head's scores are one GEMV over its (counts[r], d_head) block of keys,
    read where it lies (the caller keeps each head's keys C-contiguous
    along the token axis, as the head-major transposed views of the row
    engine are), its softmax normalizer one sum over its own slice, and its
    output one GEMV; everything else runs once over the block, in place.
    """
    counts, starts, ends, offsets, reach = plan
    if bias.ndim != 2 or bias.shape[0] != q.shape[1]:
        raise ShapeError(f"bias shape {bias.shape} != ({q.shape[1]}, keys)")
    if ends[-1] != bias.shape[1]:
        raise ShapeError(f"counts cover {ends[-1]} entries, block has "
                         f"{bias.shape[1]}")
    if len(starts) != q.shape[0]:
        raise ShapeError(f"{len(starts)} rows planned for {q.shape[0]} "
                         f"query rows")
    if reach > keys.shape[0]:
        raise ShapeError(f"a row's keys run outside the {keys.shape[0]} given")
    by_head = keys.transpose(1, 0, 2)
    scores = np.empty(bias.shape, dtype=np.result_type(q, keys, bias))
    for r, (lo, hi, at) in enumerate(zip(starts, ends, offsets)):
        np.matmul(by_head[:, at:at + hi - lo], q[r, :, :, None],
                  out=scores[:, lo:hi, None])
    scores += bias
    scores /= _scale(q.dtype, q.shape[-1])
    w = _softmax(scores, counts, starts, ends)
    by_head = values.transpose(1, 0, 2)
    out = np.empty((q.shape[0], q.shape[1], values.shape[-1]),
                   dtype=np.result_type(w, values))
    for r, (lo, hi, at) in enumerate(zip(starts, ends, offsets)):
        np.matmul(w[:, None, lo:hi], by_head[:, at:at + hi - lo],
                  out=out[r, :, None])
    return out
